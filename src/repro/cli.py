"""Command-line interface: run any registered method, or the paper's experiments.

Examples::

    repro run --method privtree --dataset road --epsilon 1.0 --out release.json
    repro run --method pst --dataset msnbc --param l_top=15
    repro query --release release.json --workload workload.json --out answers.json
    repro methods
    repro store put --store synopses/ --method privtree --dataset gowalla
    repro store ls --store synopses/
    repro store get --store synopses/ RELEASE_ID --out release.json
    repro federated-fit --shards 3 --dataset gowalla --epsilon 1.0
    repro federated-fit --shards 3 --dataset gowalla --epochs 4 --store epochs/
    repro serve --store synopses/ --port 8000
    repro figure5 --dataset road --band medium --reps 3
    repro figure6 --dataset msnbc --k 100
    repro figure7 --dataset mooc
    repro table4
    repro bench --out BENCH_perf.json
    repro svt
    repro datasets

``run`` resolves ``--method`` from :mod:`repro.api.registry`, fits it on a
registered dataset, prints the release summary plus the privacy-budget
ledger, and optionally writes the release JSON.  ``store put`` fits the
same way but persists the release into a :class:`~repro.serve.ReleaseStore`
directory; ``serve`` answers batched queries against such a store over
HTTP.  The ``figure*`` / ``table*`` commands print the corresponding
paper-style table; ``--n`` scales the synthetic dataset, ``--epsilons``
overrides the sweep.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
from typing import Sequence

from .experiments import (
    format_float,
    format_percent,
    format_seconds,
    run_length_distribution_experiment,
    run_privtree_timing,
    run_range_query_experiment,
    run_topk_experiment,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the experiments of the PrivTree paper (SIGMOD 2016).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--n", type=int, default=None, help="dataset cardinality")
        p.add_argument("--reps", type=int, default=1, help="repetitions per cell")
        p.add_argument("--seed", type=int, default=0, help="experiment seed")
        p.add_argument(
            "--epsilons",
            type=float,
            nargs="+",
            default=None,
            help="privacy budgets to sweep",
        )

    def fit_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--method", required=True, help="registry name (see `repro methods`)")
        p.add_argument("--dataset", required=True, help="dataset name (see `repro datasets`)")
        p.add_argument("--epsilon", type=float, default=1.0, help="privacy budget")
        p.add_argument("--n", type=int, default=None, help="dataset cardinality")
        p.add_argument("--seed", type=int, default=0, help="rng seed")
        p.add_argument(
            "--param",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="extra estimator parameter (repeatable), e.g. --param theta=0.5",
        )

    run = sub.add_parser("run", help="fit one registered method on one dataset")
    fit_args(run)
    run.add_argument("--out", default=None, help="write the release JSON here")
    run.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record a telemetry trace of the fit as JSON-lines here "
        "(inspect/convert with `repro trace`)",
    )

    sub.add_parser("methods", help="list the registered estimator methods")

    query_p = sub.add_parser(
        "query", help="answer a typed workload against a saved release"
    )
    query_p.add_argument(
        "--release",
        required=True,
        help="release JSON file (from `repro run --out` or `repro store get --out`)",
    )
    query_p.add_argument(
        "--workload",
        required=True,
        help='workload JSON document ({"format": "repro.workload", ...})',
    )
    query_p.add_argument(
        "--out", default=None, help="write the answers JSON here"
    )

    store = sub.add_parser("store", help="persist and inspect releases in a directory store")
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_put = store_sub.add_parser("put", help="fit a method and persist the release")
    store_put.add_argument("--store", required=True, help="store directory (created if missing)")
    fit_args(store_put)
    store_put.add_argument(
        "--id", default=None, dest="release_id",
        help="explicit release id (default: method + content hash)",
    )
    store_ls = store_sub.add_parser("ls", help="list the stored releases")
    store_ls.add_argument("--store", required=True, help="store directory")
    store_migrate = store_sub.add_parser(
        "migrate", help="write v2 binary artifacts for pre-v2 store entries"
    )
    store_migrate.add_argument("--store", required=True, help="store directory")
    store_get = store_sub.add_parser("get", help="reload one stored release")
    store_get.add_argument("--store", required=True, help="store directory")
    store_get.add_argument("release_id", help="release id (see `repro store ls`)")
    store_get.add_argument("--out", default=None, help="copy the release JSON here")

    fed = sub.add_parser(
        "federated-fit",
        help="fit PrivTree over K blinded shard collectors (optionally per epoch)",
    )
    fed.add_argument(
        "--shards", type=int, default=3, help="number of shard collectors"
    )
    fed.add_argument(
        "--dataset", required=True, help="spatial dataset name (see `repro datasets`)"
    )
    fed.add_argument(
        "--epsilon",
        type=float,
        default=1.0,
        help="privacy budget (per epoch when --epochs > 1)",
    )
    fed.add_argument(
        "--n", type=int, default=None, help="dataset cardinality (per epoch)"
    )
    fed.add_argument("--seed", type=int, default=0, help="rng seed")
    fed.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="extra fit parameter (repeatable), e.g. --param theta=0.5",
    )
    fed.add_argument(
        "--epochs",
        type=int,
        default=1,
        help="continual release: ingest and release this many epochs",
    )
    fed.add_argument(
        "--window",
        type=int,
        default=3,
        help="sliding-window width in epochs (with --epochs)",
    )
    fed.add_argument(
        "--store",
        default=None,
        help="persist the release(s) into this store directory "
        "(required when --epochs > 1)",
    )
    fed.add_argument(
        "--out", default=None, help="write the (final) release JSON here"
    )
    fed.add_argument(
        "--transport",
        default="inproc",
        choices=["inproc", "tcp"],
        help="inproc: collectors in this process; tcp: real collector "
        "processes behind the framed TCP protocol",
    )
    fed.add_argument(
        "--collectors",
        default=None,
        metavar="HOST:PORT,...",
        help="with --transport tcp: connect to these running collector "
        "servers instead of spawning `repro collector-serve` subprocesses",
    )
    fed.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="write a crash-safe checkpoint here after every committed round",
    )
    fed.add_argument(
        "--resume",
        action="store_true",
        help="continue an interrupted fit from --checkpoint (bit-identical "
        "to an uninterrupted fit; the budget is restored, never re-spent)",
    )
    fed.add_argument(
        "--heartbeat-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="probe collector liveness between rounds at this interval "
        "(0 probes every round); a stalled collector trips the per-round "
        "deadline instead of hanging the next aggregation",
    )
    fed.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record a telemetry trace of the fit as JSON-lines here "
        "(per-round spans, collector timings, accountant spend events)",
    )

    coll = sub.add_parser(
        "collector-serve",
        help="run one shard's data collector as a long-lived TCP server",
    )
    coll.add_argument(
        "--dataset", required=True, help="spatial dataset name (see `repro datasets`)"
    )
    coll.add_argument("--n", type=int, default=None, help="dataset cardinality")
    coll.add_argument(
        "--seed", type=int, default=0, help="dataset seed (must match the coordinator)"
    )
    coll.add_argument(
        "--shard-id", type=int, required=True, help="this collector's shard index"
    )
    coll.add_argument(
        "--n-shards", type=int, required=True, help="total number of shards"
    )
    coll.add_argument("--host", default="127.0.0.1", help="bind address")
    coll.add_argument(
        "--port", type=int, default=0, help="bind port (0 picks a free one)"
    )

    serve_p = sub.add_parser("serve", help="answer batched queries against a store over HTTP")
    serve_p.add_argument("--store", required=True, help="store directory")
    serve_p.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_p.add_argument("--port", type=int, default=8000, help="bind port")
    serve_p.add_argument(
        "--cache", type=int, default=8, help="LRU bound on resident releases"
    )
    serve_p.add_argument(
        "--quiet", action="store_true", help="suppress per-request access logs"
    )
    serve_p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="pre-fork this many serving processes sharing one listening "
        "socket (default 1: a single threaded server)",
    )

    fig5 = sub.add_parser("figure5", help="range-count relative error")
    fig5.add_argument("--dataset", default="road", choices=["road", "gowalla", "nyc", "beijing"])
    fig5.add_argument("--band", default="medium", choices=["small", "medium", "large"])
    fig5.add_argument("--queries", type=int, default=100)
    common(fig5)

    fig6 = sub.add_parser("figure6", help="top-k frequent-string precision")
    fig6.add_argument("--dataset", default="msnbc", choices=["mooc", "msnbc"])
    fig6.add_argument("--k", type=int, default=100)
    common(fig6)

    fig7 = sub.add_parser("figure7", help="sequence-length distribution TVD")
    fig7.add_argument("--dataset", default="msnbc", choices=["mooc", "msnbc"])
    fig7.add_argument("--synthetic", type=int, default=2000)
    common(fig7)

    table4 = sub.add_parser("table4", help="PrivTree running time")
    common(table4)

    bench = sub.add_parser(
        "bench", help="perf micro-benchmarks (hot paths vs. reference engines)"
    )
    bench.add_argument("--n", type=int, default=200_000, help="dataset cardinality")
    bench.add_argument("--queries", type=int, default=1_000, help="workload size")
    bench.add_argument(
        "--band", default="medium", choices=["small", "medium", "large"]
    )
    bench.add_argument("--epsilon", type=float, default=1.0, help="privacy budget")
    bench.add_argument(
        "--repeats",
        type=int,
        default=5,
        help="rounds per case; each round runs the optimized path, then the "
        "reference, and the bench reports each side's median and IQR",
    )
    bench.add_argument("--seed", type=int, default=0, help="rng seed")
    bench.add_argument(
        "--sequences",
        type=int,
        default=200_000,
        help="sequence-corpus cardinality (MSNBC-scale default: ~1M tokens)",
    )
    bench.add_argument(
        "--synthetic",
        type=int,
        default=20_000,
        help="synthetic sequences per generation case",
    )
    bench.add_argument(
        "--out",
        default=None,
        help="machine-readable results path (nothing is written without it)",
    )
    bench.add_argument(
        "--compare",
        default=None,
        metavar="BASELINE_JSON",
        help="print a regression table vs. a committed BENCH_perf.json "
        "(warns when a case slows down >20%%; never fails the run "
        "unless --fail-above is also given).  Seconds compare only when "
        "the baseline's runner (cpu_count, Python, NumPy) matches; "
        "speedups against a frozen reference compare on any runner",
    )
    bench.add_argument(
        "--fail-above",
        type=float,
        default=None,
        metavar="RATIO",
        help="with --compare: exit non-zero when any gated case slows down "
        "past RATIO times its baseline, or when the baseline has no usable "
        "entry for a case the run produced (CI gates at 1.5)",
    )

    trace_p = sub.add_parser(
        "trace", help="summarize or convert a telemetry trace (JSONL)"
    )
    trace_p.add_argument(
        "trace_file", help="JSON-lines trace written by a --trace flag"
    )
    trace_p.add_argument(
        "--chrome",
        default=None,
        metavar="OUT_JSON",
        help="also write a Chrome trace_event file "
        "(open in chrome://tracing or ui.perfetto.dev)",
    )

    sub.add_parser("svt", help="SVT privacy-loss counterexamples")
    sub.add_parser("datasets", help="dataset characteristics (Tables 2-3)")
    return parser


def _parse_param(text: str) -> tuple[str, object]:
    """Parse one ``--param key=value`` (value via literal_eval, else string)."""
    key, sep, raw = text.partition("=")
    if not sep or not key:
        raise SystemExit(f"--param expects KEY=VALUE, got {text!r}")
    try:
        value = ast.literal_eval(raw)
    except (ValueError, SyntaxError):
        value = raw
    return key, value


def _fit_release(args: argparse.Namespace):
    """Shared fit path of ``run`` and ``store put``.

    Returns ``(release, estimator, dataset, accountant)`` or exits with a
    usage error.
    """
    from .api import registry
    from .datasets import SEQUENCE_DATASETS, SPATIAL_DATASETS
    from .mechanisms import PrivacyAccountant

    all_specs = {**SPATIAL_DATASETS, **SEQUENCE_DATASETS}
    if args.dataset not in all_specs:
        raise SystemExit(
            f"unknown dataset {args.dataset!r}; choose from {', '.join(sorted(all_specs))}"
        )
    spec = all_specs[args.dataset]
    params = dict(_parse_param(p) for p in args.param)
    if "epsilon" in params:
        raise SystemExit("set the privacy budget with --epsilon, not --param epsilon=")
    try:
        estimator_cls = registry.get_class(args.method)
    except KeyError as exc:
        raise SystemExit(exc.args[0]) from None
    if (
        spec.kind == "sequence"
        and "l_top" in estimator_cls.param_names()
        and "l_top" not in params
        and spec.l_top is not None
    ):
        params["l_top"] = spec.l_top
    if estimator_cls.kind != spec.kind:
        raise SystemExit(
            f"method {args.method!r} expects {estimator_cls.kind} data but "
            f"dataset {args.dataset!r} is {spec.kind}"
        )
    try:
        estimator = registry.from_spec(args.method, epsilon=args.epsilon, **params)
    except TypeError as exc:
        raise SystemExit(str(exc)) from None

    dataset = spec.make(args.n, rng=args.seed)
    accountant = PrivacyAccountant(args.epsilon)
    try:
        release = estimator.fit(dataset, accountant=accountant, rng=args.seed)
    except ValueError as exc:  # a parameter value the fit rejects
        raise SystemExit(str(exc)) from None
    return release, estimator, dataset, accountant


def _run_method(args: argparse.Namespace) -> str:
    from .api import save_release

    release, estimator, dataset, accountant = _fit_release(args)
    lines = [
        f"method   : {args.method} ({type(estimator).__name__})",
        f"dataset  : {args.dataset} (n={dataset.n:,})",
        f"release  : {type(release).__name__}, size={release.size:,}",
        f"epsilon  : {release.epsilon_spent:g} spent of {accountant.total_epsilon:g}",
        "ledger   :",
    ]
    for label, eps in accountant.ledger:
        lines.append(f"  {label:30s} {eps:.6g}")
    if args.out:
        save_release(release, args.out)
        lines.append(f"release written to {args.out}")
    return "\n".join(lines)


def _run_query(args: argparse.Namespace) -> str:
    from .api import load_release
    from .queries import QueryDecodeError, QueryValidationError, workload_from_wire

    try:
        release = load_release(args.release)
    except (OSError, ValueError, KeyError) as exc:
        raise SystemExit(f"cannot load release {args.release!r}: {exc}") from None
    try:
        with open(args.workload) as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"cannot read workload {args.workload!r}: {exc}") from None
    try:
        workload = workload_from_wire(document)
        flat = release.answer(workload)
    except (QueryDecodeError, QueryValidationError) as exc:
        raise SystemExit(f"invalid workload: {exc}") from None

    answers = workload.group_answers(flat, release.query_domain)

    lines = [
        f"release  : {type(release).__name__} ({release.method}), size={release.size:,}",
        f"workload : {len(workload)} queries "
        f"[{', '.join(workload.type_tags)}], {flat.shape[0]} answers",
    ]
    preview = 20
    for i, (query, answer) in enumerate(zip(workload, answers)):
        if i == preview:
            lines.append(f"  ... {len(workload) - preview} more (use --out)")
            break
        shown = (
            "[" + ", ".join(f"{v:g}" for v in answer) + "]"
            if isinstance(answer, list)
            else f"{answer:g}"
        )
        lines.append(f"  {i:4d} {query.type_tag:24s} {shown}")
    if args.out:
        from ._io import atomic_write_text

        atomic_write_text(
            args.out,
            json.dumps(
                {
                    "method": release.method,
                    "count": len(answers),
                    "answers": answers,
                }
            ),
        )
        lines.append(f"answers written to {args.out}")
    return "\n".join(lines)


def _run_store(args: argparse.Namespace) -> str:
    from .serve import ReleaseStore, StoreError

    if args.store_command == "put":
        if args.release_id is not None:
            try:
                # Fail a bad --id before the (possibly minutes-long) fit.
                ReleaseStore.validate_id(args.release_id)
            except ValueError as exc:
                raise SystemExit(str(exc)) from None
        # Fit first: a usage error must not leave an empty store behind.
        release, estimator, dataset, _ = _fit_release(args)
        store = ReleaseStore(args.store)
        release_id = store.put(
            release,
            release_id=args.release_id,
            dataset=f"{args.dataset}(n={dataset.n})",
            params=estimator.params(),
        )
        entry = store.manifest_entry(release_id)
        return (
            f"stored {release_id}\n"
            f"  method={entry['method']} kind={entry['kind']} "
            f"size={entry['size']:,} epsilon_spent={entry['epsilon_spent']:g}\n"
            f"  {store.root / entry['path']}"
        )
    # ls / get / migrate operate on an existing store only: never
    # materialize a store at a mistyped path.
    try:
        store = ReleaseStore(args.store, create=False)
    except FileNotFoundError as exc:
        raise SystemExit(str(exc)) from None
    if args.store_command == "migrate":
        upgraded = store.migrate()
        if not upgraded:
            return f"store {store.root}: all entries already have binary artifacts"
        return "\n".join(
            [f"store {store.root}: wrote {len(upgraded)} binary artifact(s)"]
            + [f"  {release_id}" for release_id in upgraded]
        )
    if args.store_command == "ls":
        entries = store.entries()
        if not entries:
            return f"store {store.root} is empty"
        lines = [
            f"{'id':34s} {'method':11s} {'kind':22s} {'size':>9s} "
            f"{'epsilon':>8s} {'format':>9s} {'bytes':>11s}  dataset"
        ]
        for e in entries:
            # Pre-v2 manifests have no artifact fields; report what the
            # store would actually serve (JSON unless the .bin exists).
            fmt = e.get("artifact_format", "json-v1")
            n_bytes = e.get("artifact_bytes")
            if n_bytes is None:
                json_path = store.root / e["path"]
                n_bytes = json_path.stat().st_size if json_path.exists() else 0
            lines.append(
                f"{e['id']:34s} {e['method']:11s} {e['kind']:22s} "
                f"{e['size']:>9,d} {e['epsilon_spent']:>8g} {fmt:>9s} "
                f"{n_bytes:>11,d}  {e['dataset']}"
            )
        return "\n".join(lines)
    # get
    try:
        release = store.get(args.release_id)
        entry = store.manifest_entry(args.release_id)
    except StoreError as exc:
        raise SystemExit(str(exc.args[0])) from None
    except ValueError as exc:  # ArtifactError, or the JSON fallback's
        raise SystemExit(f"cannot load release {args.release_id!r}: {exc}") from None
    lines = [
        f"release  : {type(release).__name__}, size={release.size:,}",
        f"method   : {entry['method']} ({entry['kind']})",
        f"epsilon  : {release.epsilon_spent:g}",
        f"dataset  : {entry['dataset']}",
        f"created  : {entry['created_at']}",
    ]
    if args.out:
        from .api import save_release

        save_release(release, args.out)
        lines.append(f"release written to {args.out}")
    return "\n".join(lines)


def _collector_command() -> list[str]:
    """The argv prefix that runs this CLI in a subprocess."""
    import shutil as _shutil
    import sys as _sys

    if _shutil.which("repro"):
        return ["repro"]
    return [
        _sys.executable,
        "-c",
        "import sys; from repro.cli import main; sys.exit(main(sys.argv[1:]))",
    ]


def _spawn_collector_procs(args: argparse.Namespace) -> tuple[list, list[tuple[str, int]]]:
    """One ``repro collector-serve`` subprocess per shard; parse READY lines.

    Each collector regenerates its shard deterministically from the
    dataset name + seed (round-robin sharding is a pure function of
    those), so no points ever cross the process boundary.
    """
    import os
    import subprocess

    import repro as _repro

    # The children must import the same repro the parent is running (it
    # may be a source checkout rather than an installed package).
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(_repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = package_root + os.pathsep + env.get("PYTHONPATH", "")
    command = _collector_command()
    procs, addresses = [], []
    try:
        for shard_id in range(args.shards):
            argv = command + [
                "collector-serve",
                "--dataset", args.dataset,
                "--seed", str(args.seed),
                "--shard-id", str(shard_id),
                "--n-shards", str(args.shards),
                "--port", "0",
            ]
            if args.n is not None:
                argv += ["--n", str(args.n)]
            proc = subprocess.Popen(
                argv, stdout=subprocess.PIPE, text=True, bufsize=1, env=env
            )
            procs.append(proc)
        for shard_id, proc in enumerate(procs):
            line = proc.stdout.readline().strip()
            if not line.startswith("READY "):
                raise SystemExit(
                    f"collector {shard_id} failed to start (got {line!r})"
                )
            fields = dict(kv.split("=", 1) for kv in line.split()[1:])
            addresses.append(("127.0.0.1", int(fields["port"])))
    except BaseException:
        for proc in procs:
            proc.terminate()
        raise
    return procs, addresses


def _run_federated_fit(args: argparse.Namespace) -> str:
    from .api import SpatialTreeRelease, save_release
    from .datasets import SPATIAL_DATASETS
    from .federated import (
        CheckpointError,
        EpochLedger,
        FederatedPrivTree,
        FitCheckpoint,
        ShardCollector,
        connect_collectors,
        replay_splits,
        shard_dataset,
    )
    from .mechanisms import PrivacyAccountant
    from .serve import ReleaseStore
    from .spatial.level import resolve_dims_per_split

    if args.shards < 2:
        raise SystemExit(f"--shards must be at least 2, got {args.shards}")
    if args.epochs < 1:
        raise SystemExit(f"--epochs must be at least 1, got {args.epochs}")
    if args.dataset not in SPATIAL_DATASETS:
        raise SystemExit(
            f"unknown spatial dataset {args.dataset!r}; choose from "
            f"{', '.join(sorted(SPATIAL_DATASETS))}"
        )
    if args.epochs > 1 and (
        args.transport != "inproc" or args.checkpoint or args.resume
    ):
        raise SystemExit(
            "--transport tcp / --checkpoint / --resume apply to single-epoch "
            "fits; the epoch ledger drives its own in-process fits"
        )
    if args.resume and not args.checkpoint:
        raise SystemExit("--resume requires --checkpoint")
    spec = SPATIAL_DATASETS[args.dataset]
    params = dict(_parse_param(p) for p in args.param)
    if "epsilon" in params:
        raise SystemExit("set the privacy budget with --epsilon, not --param epsilon=")

    if args.epochs == 1:
        dataset = spec.make(args.n, rng=args.seed)
        accountant = PrivacyAccountant(args.epsilon)
        # The collectors own the split geometry, not the fit.
        fit_params = dict(params)
        dims_per_split = fit_params.pop("dims_per_split", None)
        checkpoint = FitCheckpoint(args.checkpoint) if args.checkpoint else None
        procs: list = []
        clients = None
        try:
            if args.transport == "tcp":
                if args.collectors:
                    addresses = []
                    for spec_str in args.collectors.split(","):
                        host, _, port = spec_str.strip().rpartition(":")
                        addresses.append((host or "127.0.0.1", int(port)))
                    if len(addresses) != args.shards:
                        raise SystemExit(
                            f"--collectors names {len(addresses)} servers "
                            f"but --shards is {args.shards}"
                        )
                else:
                    procs, addresses = _spawn_collector_procs(args)
                session = f"{args.dataset}-seed{args.seed}"
                clients = connect_collectors(addresses, session=session)
                driver = FederatedPrivTree(clients)
                # Each daemon's hello reports the geometry it splits with.
                if dims_per_split is not None and resolve_dims_per_split(
                    driver.domain.ndim, dims_per_split
                ) != driver.dims_per_split:
                    raise SystemExit(
                        f"dims_per_split={dims_per_split!r} differs from the "
                        f"collectors' {driver.dims_per_split}"
                    )
            else:
                collectors = [
                    ShardCollector(
                        i, args.shards, shard, blinding_seed=args.seed,
                        dims_per_split=dims_per_split,
                    )
                    for i, shard in enumerate(
                        shard_dataset(dataset, args.shards)
                    )
                ]
                if args.resume:
                    state = checkpoint.load()
                    replay_splits(collectors, state["split_rounds"])
                driver = FederatedPrivTree(collectors)
            try:
                tree = driver.fit_histogram(
                    args.epsilon,
                    rng=args.seed,
                    accountant=accountant,
                    checkpoint=checkpoint,
                    resume=args.resume,
                    heartbeat_interval=args.heartbeat_interval,
                    **fit_params,
                )
            except (TypeError, ValueError) as exc:
                raise SystemExit(str(exc)) from None
        # A refused dims_per_split, or either resume's checkpoint load.
        except (CheckpointError, ValueError) as exc:
            raise SystemExit(str(exc)) from None
        finally:
            if clients is not None:
                for client in clients:
                    client.finish()
            for proc in procs:
                proc.terminate()
            for proc in procs:
                proc.wait(timeout=10)
        release = SpatialTreeRelease(
            tree, method="privtree_federated", epsilon_spent=args.epsilon
        )
        lines = [
            f"federated fit: {args.shards} shard collectors "
            f"({args.transport}), secure aggregation",
            f"dataset  : {args.dataset} (n={dataset.n:,}, round-robin sharded)",
            f"release  : {type(release).__name__}, size={release.size:,}",
            f"epsilon  : {release.epsilon_spent:g} spent of {accountant.total_epsilon:g}",
            "ledger   :",
        ]
        for label, eps in accountant.ledger:
            lines.append(f"  {label:30s} {eps:.6g}")
        if checkpoint is not None:
            lines.append(f"checkpoint: {checkpoint.path} (phase=done)")
        if args.store:
            store = ReleaseStore(args.store)
            release_id = store.put(
                release,
                dataset=f"{args.dataset}(n={dataset.n})",
                params={"n_shards": args.shards, **params},
            )
            lines.append(f"stored as {release_id} in {store.root}")
        if args.out:
            save_release(release, args.out)
            lines.append(f"release written to {args.out}")
        return "\n".join(lines)

    # Continual release: one ingest + one sliding-window release per epoch,
    # all paid from one shared accountant.
    if not args.store:
        raise SystemExit("--epochs > 1 persists an epoch series: --store is required")
    store = ReleaseStore(args.store)
    accountant = PrivacyAccountant(args.epsilon * args.epochs)
    try:
        ledger = EpochLedger(
            store,
            accountant,
            n_shards=args.shards,
            epsilon_per_epoch=args.epsilon,
            window=args.window,
            blinding_seed=args.seed,
            fit_params=params,
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    lines = [
        f"continual release: {args.epochs} epochs x {args.shards} shards, "
        f"window={args.window}, epsilon/epoch={args.epsilon:g}",
    ]
    for epoch in range(args.epochs):
        data = spec.make(args.n, rng=args.seed + epoch)
        ledger.ingest(epoch, shard_dataset(data, args.shards))
        try:
            ledger.release(epoch, rng=args.seed + epoch)
        except (TypeError, ValueError) as exc:
            raise SystemExit(str(exc)) from None
    for record in ledger.records:
        window = ",".join(str(t) for t in record.window_epochs)
        lines.append(
            f"  epoch {record.epoch:4d} -> {record.release_id}  "
            f"window=[{window}]  n={record.n_points:,}  "
            f"epsilon={record.epsilon:g}"
        )
    lines.append(
        f"budget   : {accountant.spent:g} spent of {accountant.total_epsilon:g} "
        f"({accountant.remaining:g} remaining)"
    )
    lines.append(f"store    : {store.root} ({len(store)} release(s))")
    if args.out:
        save_release(store.get(ledger.as_of(args.epochs - 1)), args.out)
        lines.append(f"latest release written to {args.out}")
    return "\n".join(lines)


def _run_collector_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from .datasets import SPATIAL_DATASETS
    from .federated import ShardCollector, shard_dataset
    from .federated.net import CollectorEndpoint, CollectorServer

    if args.n_shards < 2:
        raise SystemExit(f"--n-shards must be at least 2, got {args.n_shards}")
    if not 0 <= args.shard_id < args.n_shards:
        raise SystemExit(
            f"--shard-id must be in [0, {args.n_shards}), got {args.shard_id}"
        )
    if args.dataset not in SPATIAL_DATASETS:
        raise SystemExit(
            f"unknown spatial dataset {args.dataset!r}; choose from "
            f"{', '.join(sorted(SPATIAL_DATASETS))}"
        )
    dataset = SPATIAL_DATASETS[args.dataset].make(args.n, rng=args.seed)
    shard = shard_dataset(dataset, args.n_shards)[args.shard_id]
    collector = ShardCollector(
        args.shard_id, args.n_shards, shard, blinding_seed=args.seed
    )
    server = CollectorServer((args.host, args.port), CollectorEndpoint(collector))

    def _stop(signum: int, frame: object) -> None:
        # shutdown() blocks until serve_forever returns, so it must run
        # off the signal-handling (main) thread to avoid a deadlock.
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)
    print(
        f"READY shard={args.shard_id} port={server.port} n={shard.n}",
        flush=True,
    )
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    from .serve import ReleaseStore, serve

    try:
        store = ReleaseStore(args.store, create=False)
    except FileNotFoundError as exc:
        raise SystemExit(str(exc)) from None
    workers = getattr(args, "workers", 1)
    print(
        f"serving {len(store)} release(s) from {store.root} "
        f"on http://{args.host}:{args.port} "
        f"(cache={args.cache}, workers={workers}) — Ctrl-C stops",
        flush=True,
    )
    serve(
        store,
        args.host,
        args.port,
        cache_size=args.cache,
        quiet=args.quiet,
        workers=workers,
    )
    return 0


def _run_methods() -> str:
    from .api import registry

    lines = ["Registered methods (repro run --method NAME ...)"]
    for spec in registry.specs():
        params = ", ".join(f"{k}={v!r}" for k, v in spec["params"].items())
        lines.append(f"  {spec['name']:11s} {spec['kind']:9s} {spec['summary']}")
        lines.append(f"  {'':11s} {'':9s} params: {params}")
    return "\n".join(lines)


def _run_bench(args: argparse.Namespace) -> tuple[str, int]:
    from .experiments import (
        bench_new_cases,
        bench_regression_failures,
        compare_bench_results,
        run_perf_bench,
        write_bench_json,
    )

    if args.fail_above is not None and not args.compare:
        raise SystemExit("--fail-above requires --compare BASELINE_JSON")
    if args.fail_above is not None and args.fail_above <= 1.0:
        raise SystemExit(
            f"--fail-above must exceed 1.0 (a slowdown factor), got {args.fail_above}"
        )
    baseline = None
    if args.compare:
        # Load the baseline up front so a bad path fails before the
        # multi-minute benchmark run, not after it.
        try:
            with open(args.compare) as handle:
                baseline = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise SystemExit(
                f"cannot read --compare baseline {args.compare!r}: {exc}"
            ) from None

    results = run_perf_bench(
        n_points=args.n,
        n_queries=args.queries,
        band=args.band,
        epsilon=args.epsilon,
        repeats=args.repeats,
        rng=args.seed,
        n_sequences=args.sequences,
        n_synthetic=args.synthetic,
    )
    lines = [
        f"perf bench (n={args.n:,}, {args.queries:,} {args.band} queries, "
        f"{args.sequences:,} sequences, median of {args.repeats})",
    ]
    for name, case in results["cases"].items():
        line = f"  {name:20s} {case['optimized_s']*1e3:9.1f} ms"
        if "reference_s" in case:
            line += (
                f"   reference {case['reference_s']*1e3:9.1f} ms"
                f"   speedup {case['speedup']:5.1f}x"
            )
        lines.append(line)
    if args.out:
        write_bench_json(results, args.out)
        lines.append(f"results written to {args.out}")
    code = 0
    if baseline is not None:
        table, _ = compare_bench_results(results, baseline)
        lines.append(f"comparison vs {args.compare}:")
        lines.append(table)
        missing = bench_new_cases(results, baseline)
        if args.fail_above is None:
            if missing:
                lines.append(
                    f"WARNING: baseline {args.compare} has no entry for "
                    f"{', '.join(missing)}; comparison skipped for new case(s) — "
                    f"regenerate the baseline with `repro bench --out {args.compare}`"
                )
        else:
            failures = bench_regression_failures(results, baseline, args.fail_above)
            if failures:
                lines.append(
                    f"FAIL: {len(failures)} case(s) slower than "
                    f"{args.fail_above:g}x the baseline:"
                )
                for name, ratio in failures:
                    lines.append(f"  {name:22s} {ratio:6.2f}x")
            # Fail closed: a case the baseline cannot judge would otherwise
            # pass whatever the code does.
            if missing:
                lines.append(
                    f"FAIL: baseline {args.compare} has no entry for "
                    f"{', '.join(missing)}; regenerate it with `repro bench "
                    f"--out {args.compare}`"
                )
            if failures or missing:
                code = 1
            else:
                lines.append(
                    f"regression gate passed (no case above {args.fail_above:g}x)"
                )
    return "\n".join(lines), code


def _with_trace(args: argparse.Namespace, fn) -> str:
    """Run a fit handler, recording a telemetry trace when --trace is set."""
    trace_path = getattr(args, "trace", None)
    if not trace_path:
        return fn(args)
    from . import telemetry

    tracer = telemetry.enable()
    try:
        result = fn(args)
    finally:
        telemetry.disable()
    count = tracer.export_jsonl(trace_path)
    return result + (
        f"\ntrace    : {count} record(s) written to {trace_path} "
        "(inspect with `repro trace`)"
    )


def _run_trace(args: argparse.Namespace) -> str:
    from .telemetry import read_jsonl, summarize_records, to_chrome_trace

    try:
        records = read_jsonl(args.trace_file)
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        raise SystemExit(
            f"cannot read trace {args.trace_file!r}: {exc}"
        ) from None
    lines = [f"trace: {len(records)} record(s) from {args.trace_file}"]
    if records:
        lines.append(
            f"  {'name':32s} {'count':>7s} {'total ms':>10s} "
            f"{'mean ms':>9s} {'cpu ms':>9s}"
        )
        for entry in summarize_records(records):
            lines.append(
                f"  {entry['name']:32s} {entry['count']:7d} "
                f"{entry['wall_s'] * 1e3:10.2f} {entry['mean_ms']:9.3f} "
                f"{entry['cpu_s'] * 1e3:9.2f}"
            )
    if args.chrome:
        from ._io import atomic_write_text

        atomic_write_text(args.chrome, json.dumps(to_chrome_trace(records)))
        lines.append(
            f"chrome trace written to {args.chrome} "
            "(open in chrome://tracing or ui.perfetto.dev)"
        )
    return "\n".join(lines)


def _run_svt() -> str:
    from .experiments import SweepResult
    from .svt import (
        binary_svt_log_ratio,
        improved_svt_log_ratio_bound,
        vanilla_svt_log_ratio,
    )

    lam = 2.0
    ks = [2, 4, 8, 16, 32, 64]
    result = SweepResult(
        title="SVT privacy loss at the claimed scale (lambda=2, eps=1)",
        row_label="k",
        rows=[float(k) for k in ks],
        columns=[],
    )
    result.add_column("BinarySVT", [binary_svt_log_ratio(k, lam) for k in ks])
    result.add_column("VanillaSVT", [vanilla_svt_log_ratio(k, lam) for k in ks])
    result.add_column("claimed", [2.0] * len(ks))
    result.add_column("Improved bound", [improved_svt_log_ratio_bound(lam)] * len(ks))
    return result.to_table(format_float)


def _run_datasets() -> str:
    from .datasets import SEQUENCE_DATASETS, SPATIAL_DATASETS

    lines = ["Datasets (paper scale -> default synthetic substitute)"]
    for spec in list(SPATIAL_DATASETS.values()) + list(SEQUENCE_DATASETS.values()):
        lines.append(
            f"  {spec.name:8s} {spec.kind:8s} paper n={spec.paper_cardinality:>9,d} "
            f"default n={spec.default_cardinality:>7,d}  {spec.description}"
        )
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    # One check for every command with a budget, before any data is made.
    epsilon = getattr(args, "epsilon", None)
    if epsilon is not None and not (math.isfinite(epsilon) and epsilon > 0):
        raise SystemExit(f"--epsilon must be a positive finite number, got {epsilon:g}")
    repeats = getattr(args, "repeats", None)
    if repeats is not None and repeats < 1:
        raise SystemExit(f"--repeats must be at least 1, got {repeats}")
    if args.command == "run":
        print(_with_trace(args, _run_method))
    elif args.command == "methods":
        print(_run_methods())
    elif args.command == "query":
        print(_run_query(args))
    elif args.command == "store":
        print(_run_store(args))
    elif args.command == "federated-fit":
        print(_with_trace(args, _run_federated_fit))
    elif args.command == "collector-serve":
        return _run_collector_serve(args)
    elif args.command == "serve":
        return _run_serve(args)
    elif args.command == "figure5":
        result = run_range_query_experiment(
            args.dataset,
            args.band,
            epsilons=args.epsilons,
            n_reps=args.reps,
            n_queries=args.queries,
            dataset_n=args.n,
            rng=args.seed,
        )
        print(result.to_table(format_percent))
    elif args.command == "figure6":
        result = run_topk_experiment(
            args.dataset,
            k=args.k,
            epsilons=args.epsilons,
            n_reps=args.reps,
            dataset_n=args.n,
            rng=args.seed,
        )
        print(result.to_table(format_float))
    elif args.command == "figure7":
        result = run_length_distribution_experiment(
            args.dataset,
            epsilons=args.epsilons,
            n_reps=args.reps,
            n_synthetic=args.synthetic,
            dataset_n=args.n,
            rng=args.seed,
        )
        print(result.to_table(format_float))
    elif args.command == "table4":
        result = run_privtree_timing(
            epsilons=args.epsilons,
            n_reps=args.reps,
            dataset_n=args.n,
            rng=args.seed,
        )
        print(result.to_table(format_seconds))
    elif args.command == "bench":
        text, code = _run_bench(args)
        print(text)
        return code
    elif args.command == "trace":
        print(_run_trace(args))
    elif args.command == "svt":
        print(_run_svt())
    elif args.command == "datasets":
        print(_run_datasets())
    return 0


if __name__ == "__main__":  # pragma: no cover - `python -m repro.cli`
    import sys

    sys.exit(main())
