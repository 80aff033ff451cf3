"""The :class:`ReleaseStore`: a directory-backed artifact store.

A fitted :class:`~repro.api.Release` normally dies with the Python process
that built it; the store is how a curator *publishes* one.  Layout::

    <root>/
        manifest.json           # header + {id: manifest entry}
        releases/<id>.json      # one v1 release envelope per artifact
        releases/<id>.bin       # the v2 binary columnar artifact

``put`` writes **both** forms: the v1 JSON envelope (exactly the
``Release.to_json`` wire format of :mod:`repro.api.base`, parseable by
third parties without this package) and the v2 binary columnar artifact
(:mod:`repro.serve.artifact`), whose flat arrays ``get`` memory-maps
directly into the query engines — load is an mmap + checksum, not a
parse.  ``get`` prefers the binary form and falls back to JSON, so stores
written before v2 keep working; :meth:`migrate` upgrades them in place.
Every write goes through the atomic helpers of :mod:`repro._io`, so a
crash mid-publish can never leave a corrupt document for the query
service to load.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
import time
from pathlib import Path
from typing import Any

from .._io import atomic_write_text
from ..api.base import Release, release_from_json
from .artifact import ArtifactError, read_artifact, write_artifact

__all__ = ["ReleaseStore", "StoreError"]

_FORMAT = "repro.release_store"
_VERSION = 1

#: Release ids become file names and URL path segments; keep them tame.
_ID_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,99}$")


class StoreError(KeyError):
    """Raised when a requested release id is not in the store."""


class ReleaseStore:
    """Persist releases under a directory and reload them by id.

    Parameters
    ----------
    root:
        Store directory; created (with the ``releases/`` subdirectory) if
        missing, unless ``create=False``.
    create:
        Pass ``False`` for read-only access (``ls`` / ``get`` / serving):
        a missing directory then raises a clear error instead of silently
        materializing an empty store at a mistyped path.

    The manifest records, per artifact: the method name, its fitted
    parameters, ``epsilon_spent``, a free-form dataset tag, the release
    kind and size, and the creation time.  ``put``/``get`` are
    thread-safe; concurrent *processes* should each own their store.
    """

    def __init__(self, root: str | Path, *, create: bool = True) -> None:
        self.root = Path(root)
        self._releases_dir = self.root / "releases"
        if create:
            self._releases_dir.mkdir(parents=True, exist_ok=True)
        elif not self.root.is_dir():
            raise FileNotFoundError(
                f"release store {str(self.root)!r} does not exist"
            )
        self._manifest_path = self.root / "manifest.json"
        self._lock = threading.RLock()

    @staticmethod
    def validate_id(release_id: str) -> str:
        """Check an id is safe as a file name / URL segment (else ValueError)."""
        if not _ID_PATTERN.match(release_id):
            raise ValueError(
                f"invalid release id {release_id!r}: ids must match "
                f"{_ID_PATTERN.pattern}"
            )
        return release_id

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------

    def _read_manifest(self) -> dict[str, Any]:
        if not self._manifest_path.exists():
            return {"format": _FORMAT, "version": _VERSION, "releases": {}}
        data = json.loads(self._manifest_path.read_text())
        if data.get("format") != _FORMAT:
            raise ValueError(f"not a release-store manifest: {data.get('format')!r}")
        if data.get("version") != _VERSION:
            raise ValueError(f"unsupported store version {data.get('version')!r}")
        return data

    def _write_manifest(self, data: dict[str, Any]) -> None:
        atomic_write_text(self._manifest_path, json.dumps(data, indent=2, sort_keys=True))

    # ------------------------------------------------------------------
    # Public surface
    # ------------------------------------------------------------------

    def put(
        self,
        release: Release,
        *,
        release_id: str | None = None,
        dataset: str = "",
        params: dict[str, Any] | None = None,
    ) -> str:
        """Persist ``release`` and return its id.

        Without an explicit ``release_id`` the id is derived from the
        method name and a hash of the document, so re-publishing an
        identical artifact is idempotent.  An explicit id overwrites any
        artifact already stored under it.
        """
        document = release.to_json_text()
        if release_id is None:
            digest = hashlib.sha256(document.encode("utf-8")).hexdigest()[:12]
            release_id = f"{release.method or release.kind}-{digest}"
        self.validate_id(release_id)
        entry = {
            "id": release_id,
            "method": release.method,
            "kind": release.kind,
            "params": dict(params or {}),
            "epsilon_spent": release.epsilon_spent,
            "size": release.size,
            "dataset": dataset,
            "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "path": f"releases/{release_id}.json",
        }
        with self._lock:
            # Artifact first, manifest second: a crash in between leaves an
            # unlisted (invisible) file, never a listed-but-missing one.
            atomic_write_text(self._releases_dir / f"{release_id}.json", document)
            entry.update(self._put_binary(release, release_id))
            manifest = self._read_manifest()
            manifest["releases"][release_id] = entry
            self._write_manifest(manifest)
        return release_id

    def _put_binary(self, release: Release, release_id: str) -> dict[str, Any]:
        """Write the v2 binary artifact; return its manifest fields.

        A kind without a binary codec (third-party Release subclasses)
        degrades to JSON-only storage instead of failing the publish."""
        bin_path = self._releases_dir / f"{release_id}.bin"
        try:
            n_bytes = write_artifact(release, bin_path)
        except ArtifactError:
            return {"artifact_format": "json-v1", "artifact_bytes": None}
        return {
            "artifact_format": "binary-v2",
            "artifact_bytes": n_bytes,
            "binary_path": f"releases/{release_id}.bin",
        }

    def get(self, release_id: str) -> Release:
        """Reload the stored release, preferring the binary v2 artifact.

        When ``releases/<id>.bin`` exists it is checksum-verified and its
        arrays are memory-mapped straight into the flat query engines;
        otherwise (pre-v2 stores) the v1 JSON envelope is parsed.  Both
        paths answer bit-identical floats."""
        path = self._releases_dir / f"{release_id}.json"
        bin_path = self._releases_dir / f"{release_id}.bin"
        with self._lock:
            if release_id not in self._read_manifest()["releases"]:
                raise StoreError(
                    f"unknown release id {release_id!r}; "
                    f"stored ids: {', '.join(self.ids()) or '(none)'}"
                )
        if bin_path.exists():
            return read_artifact(bin_path)
        return release_from_json(json.loads(path.read_text()))

    def migrate(self) -> list[str]:
        """Write missing v2 binary artifacts for pre-v2 entries.

        Returns the ids that were upgraded.  Entries whose kind has no
        binary codec are left JSON-only (and re-reported on every run);
        already-migrated entries are skipped."""
        upgraded: list[str] = []
        with self._lock:
            manifest = self._read_manifest()
            for release_id, entry in manifest["releases"].items():
                bin_path = self._releases_dir / f"{release_id}.bin"
                if bin_path.exists():
                    if "artifact_format" not in entry:
                        entry.update(
                            {
                                "artifact_format": "binary-v2",
                                "artifact_bytes": bin_path.stat().st_size,
                                "binary_path": f"releases/{release_id}.bin",
                            }
                        )
                        upgraded.append(release_id)
                    continue
                json_path = self._releases_dir / f"{release_id}.json"
                release = release_from_json(json.loads(json_path.read_text()))
                fields = self._put_binary(release, release_id)
                entry.update(fields)
                if fields.get("artifact_format") == "binary-v2":
                    upgraded.append(release_id)
            self._write_manifest(manifest)
        return upgraded

    def manifest_entry(self, release_id: str) -> dict[str, Any]:
        """The manifest record of one stored release."""
        with self._lock:
            releases = self._read_manifest()["releases"]
        if release_id not in releases:
            raise StoreError(f"unknown release id {release_id!r}")
        return releases[release_id]

    def entries(self) -> list[dict[str, Any]]:
        """All manifest records, sorted by creation time then id."""
        with self._lock:
            releases = self._read_manifest()["releases"]
        return sorted(releases.values(), key=lambda e: (e["created_at"], e["id"]))

    def ids(self) -> list[str]:
        """All stored release ids, sorted."""
        with self._lock:
            return sorted(self._read_manifest()["releases"])

    def latest(self, prefix: str) -> str:
        """The lexicographically last id starting with ``prefix``.

        The lookup behind "as of now" queries over continual-release series:
        :class:`~repro.federated.EpochLedger` stores epoch artifacts under
        zero-padded ids (``epoch-0007``), so lexicographic order *is* epoch
        order and the latest id is the freshest release.
        """
        matches = [i for i in self.ids() if i.startswith(prefix)]
        if not matches:
            raise StoreError(
                f"no release id starts with {prefix!r}; "
                f"stored ids: {', '.join(self.ids()) or '(none)'}"
            )
        return matches[-1]

    def __contains__(self, release_id: object) -> bool:
        with self._lock:
            return release_id in self._read_manifest()["releases"]

    def __len__(self) -> int:
        with self._lock:
            return len(self._read_manifest()["releases"])

    def __repr__(self) -> str:
        return f"<ReleaseStore root={str(self.root)!r} releases={len(self)}>"
