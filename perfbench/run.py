"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve-mixed --seed 7 --seconds 20 --trace 0

Run from the root of a checkout.  The program under test is imported from
the checkout's ``src`` directory.  Every metric is printed as
``name = value unit``, then one line of run metadata, and last one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
``--trace 1`` adds a traced pass and reports the per-layer ones instead.
Spans, metadata and the full result are written under
``.perfbench/<workload>-seed<seed>/``.  The exit code is 1 when an output
check failed and 2 when the checkout holds no program to run.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # set-up time runs from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOAD_NAMES = ("fit-publish", "federated-tcp", "serve-bulk", "serve-mixed")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import numpy as np

    from harness import (
        LAYERS,
        Failures,
        OpStats,
        format_metrics,
        leaked_attrs,
        load_spec,
        median_metrics,
        metric_units,
        op_metrics,
        result_line,
    )
    from repro.telemetry import to_chrome_trace, write_jsonl
    from workloads import WORKLOADS, sub_seeds

    units = metric_units(load_spec(), trace=bool(args.trace))
    workdir = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(workdir / "tmp")  # temporary files stay in the checkout

    failures = Failures()
    bench = WORKLOADS[args.workload](SRC, workdir, args.seed, failures)
    records = []
    try:
        bench.setup()
        setup_s = time.perf_counter() - STARTED
        window = bench.timed(args.seconds)
        peak_mb = bench.peak_rss_mb()
        if window.times:
            stats = OpStats(window.times, bench.tail_pct)
            end_to_end = {
                "setup_s": setup_s,
                "op_p50_ms": stats.p50_ms,
                "op_tail_ms": stats.tail_ms,
                "queries_per_s": window.queries / window.seconds,
                "peak_rss_mb": peak_mb,
            }
            if args.trace:
                records, extras = bench.traced(stats.p50_ms / 1e3)
        bench.check()
    finally:
        bench.close()
        for leftover in ("store", "tmp"):
            shutil.rmtree(workdir / leftover, ignore_errors=True)

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "sub_seeds": sub_seeds(args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "setup_phases_s": bench.phases,
        **bench.meta,
        **failures.metadata(),
    }
    if not window.times:
        print("error: no timed op succeeded", file=sys.stderr)
        print("meta " + json.dumps(meta, sort_keys=True))
        print(json.dumps({"correct": False, "attempted": max(1, failures.attempted),
                          "failed": failures.failed, "metrics": {}}))
        return 1
    meta.update(stats.metadata(), window_s=window.seconds, queries_answered=window.queries)
    if args.trace:
        wire = [record.to_wire() for record in records]
        for leak in leaked_attrs(wire):
            failures.fail_untimed(f"trace attribute outside the allowlist: {leak}")
        per_op = op_metrics(wire)
        values = {**median_metrics(per_op), **extras}
        meta["traced_ops"] = len(per_op)
        # Layer self times plus unattributed must add up to each traced op.
        meta["self_time_gap_ms"] = max(
            abs(sum(row[f"{layer}.self_ms"] for layer in LAYERS) + row["unattributed_ms"]
                - row["traced_op_ms"])
            for row in per_op
        )
        write_jsonl(records, workdir / "trace.jsonl")
        (workdir / "trace.chrome.json").write_text(json.dumps(to_chrome_trace(records)))
    else:
        values = end_to_end
    result = result_line(values, units, failures)

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for line in format_metrics(values, units):
        print(line)
    print(f"error_rate = {failures.error_rate:.6g} ({failures.failed} of "
          f"{failures.attempted} ops failed)")
    print("meta " + json.dumps(meta, sort_keys=True))
    (workdir / "result.json").write_text(json.dumps(
        {"meta": meta, "end_to_end": end_to_end, "op_ms": [t * 1e3 for t in window.times],
         "result": result},
        indent=2, sort_keys=True,
    ))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
