#!/usr/bin/env python
"""CI smoke test for the federated path, end to end.

Usage::

    python scripts/federated_smoke.py [STORE_DIR] [N_POINTS]

Runs the whole pipeline in one process tree:

1. shard a synthetic spatial dataset across K=3 in-process
   :class:`~repro.federated.ShardCollector` parties;
2. drive a federated PrivTree fit through the
   :class:`~repro.federated.SecureAggregator` and check it is
   **bit-identical** to the centralized fit on the concatenated data;
3. run a 3-epoch continual-release series through an
   :class:`~repro.federated.EpochLedger` into a
   :class:`~repro.serve.ReleaseStore`;
4. start ``repro serve`` as a subprocess and check that range counts
   answered over HTTP against the latest epoch artifact are bit-identical
   to ``release.answer`` on the in-process release.

Exits non-zero on any deviation.  STORE_DIR defaults to a fresh temp
directory.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request

N_SHARDS = 3
N_EPOCHS = 3
EPSILON = 0.5


def _free_port() -> int:
    import socket

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def main(argv: list[str]) -> int:
    store_dir = argv[1] if len(argv) > 1 else tempfile.mkdtemp(prefix="fed_smoke_")
    n_points = int(argv[2]) if len(argv) > 2 else 3000

    import numpy as np

    from repro.datasets.spatial import gowallalike
    from repro.federated import EpochLedger, federated_privtree_histogram, shard_dataset
    from repro.mechanisms import PrivacyAccountant
    from repro.queries import Workload
    from repro.serve import ReleaseStore
    from repro.spatial import generate_workload
    from repro.spatial.quadtree import _privtree_histogram
    from repro.spatial.serialize import tree_to_dict

    # -- 1-2: one-shot federated fit, checked against the centralized engine.
    data = gowallalike(n_points, rng=0)
    federated = federated_privtree_histogram(
        shard_dataset(data, N_SHARDS), epsilon=1.0, rng=0
    )
    central = _privtree_histogram(data, epsilon=1.0, rng=0)
    if tree_to_dict(federated) != tree_to_dict(central):
        print("FAIL: federated fit is not bit-identical to the centralized fit")
        return 1
    print(
        f"OK: federated fit over {N_SHARDS} shards (n={data.n}) bit-identical "
        f"to centralized privtree ({federated.size} nodes)"
    )

    # -- 3: continual release into the store, one epoch batch at a time.
    store = ReleaseStore(store_dir)
    accountant = PrivacyAccountant(N_EPOCHS * EPSILON)
    ledger = EpochLedger(
        store,
        accountant,
        n_shards=N_SHARDS,
        epsilon_per_epoch=EPSILON,
        window=2,
        blinding_seed=1,
    )
    for epoch in range(N_EPOCHS):
        batch = gowallalike(max(n_points // N_EPOCHS, 200), rng=100 + epoch)
        ledger.ingest(epoch, shard_dataset(batch, N_SHARDS))
        ledger.release(epoch, rng=epoch)
    if accountant.remaining > 1e-9:
        print(f"FAIL: epoch series left {accountant.remaining} budget unspent")
        return 1
    latest_id = store.latest("epoch-")
    if latest_id != ledger.as_of(N_EPOCHS):
        print(
            f"FAIL: store.latest says {latest_id!r} but the ledger says "
            f"{ledger.as_of(N_EPOCHS)!r}"
        )
        return 1
    print(
        f"OK: {N_EPOCHS}-epoch continual release stored "
        f"({', '.join(store.ids())}); budget fully composed "
        f"({accountant.spent:g}/{accountant.total_epsilon:g})"
    )

    # -- 4: serve the store over HTTP and query the latest epoch.
    release = store.get(latest_id)
    boxes = generate_workload(release.query_domain, "medium", 200, rng=0)
    ranges = Workload.ranges(boxes)
    expected = release.answer(ranges)

    if shutil.which("repro"):
        command = ["repro"]
    else:
        command = [
            sys.executable,
            "-c",
            "import sys; from repro.cli import main; sys.exit(main(sys.argv[1:]))",
        ]
    port = _free_port()
    server = subprocess.Popen(
        command + ["serve", "--store", store_dir, "--port", str(port), "--quiet"]
    )
    try:
        deadline = time.monotonic() + 30
        while True:
            try:
                with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/healthz", timeout=1
                ) as resp:
                    json.loads(resp.read())
                break
            except (urllib.error.URLError, OSError):
                if time.monotonic() > deadline:
                    print("server did not become healthy within 30s")
                    return 1
                time.sleep(0.2)

        body = json.dumps({"queries": [q.to_wire() for q in ranges]}).encode("utf-8")
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/releases/{latest_id}/query", data=body
        )
        with urllib.request.urlopen(request, timeout=30) as resp:
            answers = np.array(json.loads(resp.read())["answers"])
        if not np.array_equal(answers, expected):
            worst = float(np.abs(answers - expected).max())
            print(
                f"FAIL: served answers deviate from the in-process epoch "
                f"release (max |delta| = {worst})"
            )
            return 1
        print(
            f"OK: {len(boxes)} range counts served over HTTP bit-identical "
            f"to in-process answer(Workload.ranges(boxes)) for {latest_id}"
        )
        return 0
    finally:
        server.terminate()
        server.wait(timeout=10)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
