"""The serving subsystem: persist releases, reload them, answer traffic.

PrivTree's product is a published synopsis that keeps answering queries
long after the fitting process exits.  This package is that lifecycle:

* :class:`ReleaseStore` — a directory-backed artifact store (JSON manifest
  + per artifact both the v1 ``Release.to_json`` envelope and the v2
  binary columnar form of :mod:`~repro.serve.artifact`, all written
  atomically; loads memory-map the binary form when present).
* :func:`write_artifact` / :func:`read_artifact` — the v2 binary release
  artifact codec: one checksummed file whose array segments mmap straight
  into the flat query engines.
* :class:`SynopsisService` — an in-process query front-end that lazily
  loads releases, warms their compiled flat engines, LRU-bounds the
  resident set, and dispatches batched workloads (JSON or packed binary).
* :class:`SynopsisHTTPServer` / :func:`serve` — a stdlib HTTP API
  (``GET /releases``, ``POST /releases/{id}/query``) on top of the
  service, speaking JSON or the binary wire form by Content-Type and
  optionally pre-forked across workers; ``repro serve`` on the command
  line.

Example::

    from repro.api import from_spec
    from repro.serve import ReleaseStore, SynopsisService

    store = ReleaseStore("synopses/")
    release = from_spec("privtree", epsilon=1.0).fit(points, rng=0)
    release_id = store.put(release, dataset="gowalla")

    service = SynopsisService(store, cache_size=8)
    answers = service.query_many(release_id, boxes)   # cached after load
"""

from .artifact import (
    ArtifactError,
    ArtifactIntegrityError,
    artifact_info,
    read_artifact,
    write_artifact,
)
from .http import SynopsisHTTPServer, serve
from .service import ArtifactLoadError, SynopsisService
from .store import ReleaseStore, StoreError

__all__ = [
    "ArtifactError",
    "ArtifactIntegrityError",
    "ArtifactLoadError",
    "ReleaseStore",
    "StoreError",
    "SynopsisHTTPServer",
    "SynopsisService",
    "artifact_info",
    "read_artifact",
    "serve",
    "write_artifact",
]
