#!/usr/bin/env python
"""CI smoke test for the serving path: HTTP answers == in-process answers.

Usage::

    repro store put --store STORE_DIR --method privtree --dataset gowalla ...
    python scripts/serve_smoke.py STORE_DIR [N_QUERIES]

Starts ``repro serve`` as a subprocess on a free port, fires one batched
range-count query (default 1000 boxes) at the first stored release plus
one typed mixed workload (range / point / marginal documents), and exits
non-zero unless every answer returned over HTTP is bit-identical to
calling ``release.answer`` on a local reload of the artifact.  A second
phase restarts the server pre-forked with ``--workers 2`` and repeats
the checks over the packed binary wire form (v2 mmap'd artifacts on the
server side), then verifies the fleet-wide counters: ``GET
/statz?aggregate=1`` and the ``GET /metrics`` Prometheus exposition must
both report exactly the batches/queries this script sent, no matter
which worker answers the scrape.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
import urllib.error
import urllib.request


def _free_port() -> int:
    import socket

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__)
        return 2
    store_dir = argv[1]
    n_queries = int(argv[2]) if len(argv) > 2 else 1000

    import numpy as np

    from repro.queries import Workload
    from repro.serve import ReleaseStore
    from repro.spatial import generate_workload

    try:
        store = ReleaseStore(store_dir, create=False)
    except FileNotFoundError as exc:
        print(exc)
        return 2
    ids = store.ids()
    if not ids:
        print(f"store {store_dir} is empty; run `repro store put` first")
        return 2
    release_id = ids[0]
    release = store.get(release_id)
    from repro.domains import Box

    if not isinstance(release.query_domain, Box):
        print(
            f"first stored release {release_id} is not spatial; "
            "this smoke test drives range-count workloads"
        )
        return 2
    boxes = generate_workload(release.query_domain, "medium", n_queries, rng=0)
    ranges = Workload.ranges(boxes)
    expected = release.answer(ranges)

    port = _free_port()
    # Prefer the installed console script; fall back to the current
    # interpreter so the smoke test also runs from a source checkout.
    import shutil

    if shutil.which("repro"):
        command = ["repro"]
    else:
        command = [
            sys.executable,
            "-c",
            "import sys; from repro.cli import main; sys.exit(main(sys.argv[1:]))",
        ]
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
            f"http://127.0.0.1:{port}/releases/{release_id}/query", data=body
        )
        with urllib.request.urlopen(request, timeout=30) as resp:
            answers = np.array(json.loads(resp.read())["answers"])

        if not np.array_equal(answers, expected):
            worst = float(np.abs(answers - expected).max())
            print(
                f"FAIL: HTTP answers deviate from in-process answer "
                f"(max |delta| = {worst})"
            )
            return 1
        print(
            f"OK: {n_queries} served answers bit-identical to in-process "
            f"answer(Workload.ranges(boxes)) for {release_id}"
        )

        # One typed workload through the same endpoint: range + point +
        # marginal documents, checked against the in-process answer path.
        from repro.queries import Marginal1D, PointCount, RangeCount

        domain = release.query_domain
        workload = Workload.of(
            [RangeCount.of(b) for b in boxes[:8]]
            + [PointCount(point=domain.center)]
            + [Marginal1D.regular(0, 8, domain.low[0], domain.high[0])]
        )
        expected_flat = release.answer(workload)
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/releases/{release_id}/query",
            data=json.dumps(
                {"queries": [q.to_wire() for q in workload]}
            ).encode("utf-8"),
        )
        with urllib.request.urlopen(request, timeout=30) as resp:
            served = json.loads(resp.read())["answers"]
        flat = np.array(
            [v for entry in served for v in (entry if isinstance(entry, list) else [entry])]
        )
        if not np.array_equal(flat, expected_flat):
            worst = float(np.abs(flat - expected_flat).max())
            print(
                f"FAIL: typed workload answers deviate from in-process "
                f"answer (max |delta| = {worst})"
            )
            return 1
        print(
            f"OK: typed workload ({len(workload)} queries, {flat.shape[0]} "
            f"answers) bit-identical to in-process answer for {release_id}"
        )
    finally:
        server.terminate()
        server.wait(timeout=10)

    # ------------------------------------------------------------------
    # Phase 2: pre-forked workers + the packed binary wire form.  The
    # store migrate ensures v2 binary artifacts exist, so the workers
    # serve from mmap'd arrays; answers must still match bit-for-bit.
    # ------------------------------------------------------------------
    from repro.queries import (
        BINARY_WIRE_CONTENT_TYPE,
        decode_binary_answers,
        encode_binary_workload,
    )

    migrated = store.migrate()
    if migrated:
        print(f"migrated {len(migrated)} release(s) to binary-v2 artifacts")
    entry = store.manifest_entry(release_id)
    if entry.get("artifact_format") != "binary-v2":
        print(f"FAIL: {release_id} has no binary-v2 artifact after migrate")
        return 1

    payload = encode_binary_workload(ranges)
    port = _free_port()
    server = subprocess.Popen(
        command
        + [
            "serve",
            "--store",
            store_dir,
            "--port",
            str(port),
            "--workers",
            "2",
            "--quiet",
        ]
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
                    print("2-worker server did not become healthy within 30s")
                    return 1
                time.sleep(0.2)

        n_batches = 8
        for _ in range(n_batches):
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/releases/{release_id}/query",
                data=payload,
                headers={"Content-Type": BINARY_WIRE_CONTENT_TYPE},
            )
            with urllib.request.urlopen(request, timeout=30) as resp:
                if resp.headers.get("Content-Type") != "application/x-repro-answers":
                    print(
                        "FAIL: binary request did not answer with the "
                        f"binary content type ({resp.headers.get('Content-Type')!r})"
                    )
                    return 1
                values, _offsets = decode_binary_answers(resp.read())
            if not np.array_equal(values, expected):
                worst = float(np.abs(values - expected).max())
                print(
                    f"FAIL: binary-wire answers deviate from in-process "
                    f"answer (max |delta| = {worst})"
                )
                return 1

        # Fleet-wide counters: one server-side aggregation over the
        # per-pid metric slabs, instead of sampling /statz per worker and
        # summing client-side (a bare /statz answers for whichever worker
        # the kernel picked — scope "process").
        sent_queries = n_batches * len(ranges)
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/statz?aggregate=1", timeout=5
        ) as resp:
            stats = json.loads(resp.read())
        if stats.get("scope") != "aggregate":
            print(f"FAIL: /statz?aggregate=1 answered scope {stats.get('scope')!r}")
            return 1
        if stats["batches"] != n_batches or stats["queries"] != sent_queries:
            print(
                f"FAIL: aggregated /statz reports {stats['batches']} batches / "
                f"{stats['queries']} queries; sent {n_batches} / {sent_queries}"
            )
            return 1

        # The Prometheus exposition must agree with the aggregate, again
        # regardless of which worker serves the scrape.
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/metrics", timeout=5
        ) as resp:
            metrics_text = resp.read().decode("utf-8")
        exposed = {}
        for line in metrics_text.splitlines():
            if line.startswith("#") or not line.strip():
                continue
            name, _, value = line.rpartition(" ")
            exposed[name] = float(value)
        if exposed.get("repro_serve_batches_total") != float(n_batches):
            print(
                "FAIL: /metrics repro_serve_batches_total = "
                f"{exposed.get('repro_serve_batches_total')}; sent {n_batches}"
            )
            return 1
        if exposed.get("repro_serve_queries_total") != float(sent_queries):
            print(
                "FAIL: /metrics repro_serve_queries_total = "
                f"{exposed.get('repro_serve_queries_total')}; sent {sent_queries}"
            )
            return 1
        if exposed.get("repro_serve_request_latency_seconds_count") != float(
            n_batches
        ):
            print(
                "FAIL: /metrics latency histogram count = "
                f"{exposed.get('repro_serve_request_latency_seconds_count')}; "
                f"sent {n_batches} batches"
            )
            return 1
        print(
            f"OK: {n_queries} binary-wire answers bit-identical across "
            f"{len(stats['pids'])} worker process(es) (pids {stats['pids']}); "
            f"/statz?aggregate=1 and /metrics both count {n_batches} batches "
            f"/ {sent_queries} queries"
        )
        return 0
    finally:
        server.terminate()
        server.wait(timeout=10)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
