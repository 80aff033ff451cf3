"""The benchmark's own arithmetic: percentiles, failures, self times, results.

Nothing here imports the program under test, so ``test_harness.py`` can
check every rule against stubbed ops.  The metric names and units are
read from ``BENCHMARK.json``, the one place they are declared.
"""

from __future__ import annotations

import json
import math
import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping

BENCHMARK_JSON = Path(__file__).resolve().parents[1] / "BENCHMARK.json"

#: Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99, 90, 75, 50)

#: A tail percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10

#: Layers whose self times the traced pass reports; named after the modules.
#: ``api`` has no row: its only span, ``api.fit``, is charged to spatial.
LAYERS = ("core", "spatial", "serve", "queries", "federated")

#: Span names whose self time belongs to another layer than their prefix.
#: ``Estimator.fit`` outside its ``privtree.level`` spans is leaf noise and
#: release assembly in ``spatial/quadtree.py``; the api wrapper around it
#: is a ledger transaction and one constructor.
SELF_LAYER = {"api.fit": "spatial", "privtree.level": "core"}

#: The benchmark's root span around one traced op.
OP_SPAN = "bench.op"

#: Span and event attributes that may appear in a trace: shapes, indices,
#: labels and ledger amounts, never a point or an unblinded count.  The
#: program's own names (``privtree.level``, ``federated.*``,
#: ``accountant.*``) are listed beside the benchmark's.
ALLOWED_ATTRS = frozenset({
    # benchmark-side spans
    "op", "points", "nodes", "n_queries", "n_bytes", "n_boxes", "n_values", "collectors",
    # program spans and events
    "depth", "frontier", "eligible", "split", "round", "kind", "n_nodes", "shard_id",
    "label", "epsilon", "n_entries", "error",
})


def load_spec(path: Path = BENCHMARK_JSON) -> dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def metric_units(spec: Mapping[str, Any], trace: bool) -> dict[str, str]:
    """``{name: unit}`` of the metrics a run reports in this mode."""
    key = "per_layer" if trace else "end_to_end"
    return {metric["name"]: metric["unit"] for metric in spec[key]}


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------


def nearest_rank(values: Iterable[float], pct: float) -> float:
    """The nearest-rank percentile: an observed sample, never interpolated."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``pct`` sample."""
    return n - max(1, math.ceil(pct / 100.0 * n))


def tail_percentile(n: int, ladder: tuple[int, ...] = TAIL_LADDER) -> int | None:
    """The highest percentile of ``ladder`` with ``MIN_BEYOND`` samples beyond.

    ``None`` when even the lowest rung has too few samples above it.
    """
    for pct in ladder:
        if samples_beyond(n, pct) >= MIN_BEYOND:
            return pct
    return None


@dataclass
class OpStats:
    """Latency summary of one run's successful timed ops.

    Both percentiles are nearest-rank, so a p50 tail equals the median.
    ``tail_pct`` is fixed per workload (so a metric keeps one meaning
    across runs); :meth:`metadata` records how many samples lay beyond
    it in this run.
    """

    seconds: list[float]
    tail_pct: int

    @property
    def p50_ms(self) -> float:
        return nearest_rank(self.seconds, 50) * 1e3

    @property
    def tail_ms(self) -> float:
        return nearest_rank(self.seconds, self.tail_pct) * 1e3

    def metadata(self) -> dict[str, Any]:
        n = len(self.seconds)
        beyond = samples_beyond(n, self.tail_pct)
        supported = tail_percentile(n)
        return {
            "op_samples": n,
            "tail_percentile": f"p{self.tail_pct}",
            "tail_samples_beyond": beyond,
            "tail_resolved": beyond >= MIN_BEYOND,
            "highest_supported_tail": None if supported is None else f"p{supported}",
        }


# ----------------------------------------------------------------------
# Failure counting
# ----------------------------------------------------------------------


@dataclass
class Failures:
    """Timed ops attempted and failed, by reason.

    A failure is a non-200 response, a short body, a socket error, a wrong
    answer or a failed identity check.  Checks that run outside the timed
    ops (warm-up, traced pass, end-of-run references) are recorded as
    ``untimed``; they make the run incorrect without changing the rate.
    """

    #: One entry per timed op: ``None``, or why it failed.
    errors: list[str | None] = field(default_factory=list)
    untimed: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.errors)

    @property
    def failed(self) -> int:
        return sum(error is not None for error in self.errors)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def record(self, error: str | None) -> None:
        """Count one timed op."""
        self.errors.append(error)

    def fail(self, index: int, error: str) -> None:
        """Mark timed op ``index`` failed, unless it already was.

        For the checks that can only run once the window has closed.
        """
        if self.errors[index] is None:
            self.errors[index] = error

    def fail_untimed(self, error: str) -> None:
        self.untimed.append(error)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.untimed

    def metadata(self) -> dict[str, Any]:
        reasons: dict[str, int] = {}
        for error in self.errors:
            if error is not None:
                reasons[error] = reasons.get(error, 0) + 1
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "error_rate": self.error_rate,
            "reasons": reasons,
            "untimed_failures": list(self.untimed),
        }


# ----------------------------------------------------------------------
# Self times and per-op layer values, from span records in wire form
# ----------------------------------------------------------------------


def layer_of(name: str) -> str | None:
    """The layer a span's self time is charged to (``None``: unattributed)."""
    if name in SELF_LAYER:
        return SELF_LAYER[name]
    prefix = name.split(".", 1)[0]
    return prefix if prefix in LAYERS else None


def _children(records: Iterable[Mapping[str, Any]]) -> dict[int, list[Mapping[str, Any]]]:
    children: dict[int, list[Mapping[str, Any]]] = defaultdict(list)
    for record in records:
        if record["parent_id"] is not None:
            children[record["parent_id"]].append(record)
    return children


def descendants(records: Iterable[Mapping[str, Any]], root_id: int) -> list[Mapping[str, Any]]:
    """Every record (spans and events) below span ``root_id``."""
    children = _children(records)
    out: list[Mapping[str, Any]] = []
    stack = list(children.get(root_id, ()))
    while stack:
        record = stack.pop()
        out.append(record)
        stack.extend(children.get(record["span_id"], ()))
    return out


def _is_span(record: Mapping[str, Any]) -> bool:
    return record.get("kind", "span") == "span"


def self_times(records: Iterable[Mapping[str, Any]], root_id: int) -> dict[str, float]:
    """Per-layer self seconds of the span tree under ``root_id``.

    A span's self time is its wall time minus that of its direct child
    spans.  The root's own self time, and that of any span no layer
    claims, is ``unattributed``; so the values always sum to the root's
    wall time.  Point events (zero duration) are ignored.
    """
    spans = [r for r in records if _is_span(r)]
    root = next((r for r in spans if r["span_id"] == root_id), None)
    if root is None:
        raise KeyError(f"no span {root_id} among the records")
    children = _children(spans)
    out = dict.fromkeys(LAYERS, 0.0)
    out["unattributed"] = 0.0
    stack = [root]
    while stack:
        span = stack.pop()
        kids = children.get(span["span_id"], [])
        own = span["wall_s"] - sum(kid["wall_s"] for kid in kids)
        layer = None if span is root else layer_of(span["name"])
        out[layer or "unattributed"] += own
        stack.extend(kids)
    return out


def leaked_attrs(records: Iterable[Mapping[str, Any]]) -> list[str]:
    """``span.attr`` names outside :data:`ALLOWED_ATTRS` (empty when clean)."""
    return sorted({
        f"{record['name']}.{key}"
        for record in records
        for key in record.get("attrs", {})
        if key not in ALLOWED_ATTRS
    })


def span_total_s(records: Iterable[Mapping[str, Any]], name: str) -> float:
    """Summed wall seconds of the spans called ``name``."""
    return sum(r["wall_s"] for r in records if r["name"] == name and _is_span(r))


def named_totals(records: Iterable[Mapping[str, Any]], root_name: str) -> dict[str, float]:
    """``{span name: summed wall seconds}`` below every root called ``root_name``."""
    records = list(records)
    totals: dict[str, float] = defaultdict(float)
    for root in records:
        if root["name"] == root_name and _is_span(root):
            for record in descendants(records, root["span_id"]):
                if _is_span(record):
                    totals[record["name"]] += record["wall_s"]
    return dict(totals)


def op_metrics(records: Iterable[Mapping[str, Any]]) -> list[dict[str, float]]:
    """Per-layer values of each traced op (each ``bench.op`` root), in order.

    Spans a workload never opens give 0: that layer is bypassed.
    """
    records = list(records)
    out = []
    for root in (r for r in records if r["name"] == OP_SPAN and _is_span(r)):
        below = descendants(records, root["span_id"])

        def ms(name: str) -> float:
            return span_total_s(below, name) * 1e3

        levels = [r for r in below if r["name"] == "privtree.level"]
        rounds = [r for r in below if r["name"] == "federated.round"]
        values = {
            "traced_op_ms": root["wall_s"] * 1e3,
            "api.fit_ms": ms("api.fit"),
            "core.frontier_ms": ms("privtree.level"),
            "core.levels": float(len(levels)),
            "core.split_nodes": float(sum(r.get("attrs", {}).get("split", 0) for r in levels)),
            "spatial.assembly_ms": ms("api.fit") - ms("privtree.level") if ms("api.fit") else 0.0,
            "spatial.flat_compile_ms": ms("spatial.flat_compile"),
            "spatial.traversal_ms": ms("spatial.traversal"),
            "serve.put_ms": ms("serve.put"),
            "serve.first_answer_ms": ms("serve.first_answer"),
            "queries.decode_ms": ms("queries.decode"),
            "queries.validate_ms": ms("queries.validate"),
            "queries.compile_ms": ms("queries.compile"),
            "queries.encode_ms": ms("queries.encode"),
            "federated.connect_ms": ms("federated.connect"),
            "federated.rounds": float(len(rounds)),
            "federated.round_ms": ms("federated.round"),
            "federated.collector_wait_ms": ms("federated.collector"),
            "federated.coordinator_self_ms": (
                ms("federated.fit") - ms("federated.round") if ms("federated.fit") else 0.0
            ),
            "federated.nodes_requested": float(sum(
                r.get("attrs", {}).get("n_nodes", 0)
                for r in rounds if r.get("attrs", {}).get("kind") == "counts"
            )),
        }
        shares = self_times(records, root["span_id"])
        values.update({f"{layer}.self_ms": shares[layer] * 1e3 for layer in LAYERS})
        values["unattributed_ms"] = shares["unattributed"] * 1e3
        out.append(values)
    return out


def median_metrics(rows: list[Mapping[str, float]]) -> dict[str, float]:
    """Key-wise median of per-op values (the per-layer metrics are per-op medians)."""
    if not rows:
        raise ValueError("no traced op")
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------


def check_metrics(values: Mapping[str, float], units: Mapping[str, str]) -> None:
    """Refuse a metric set that differs from the declared one."""
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if missing or extra:
        raise ValueError(f"metric set mismatch: missing {missing}, undeclared {extra}")
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"metric {name} is not a number: {value!r}")
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value!r}")


def result_line(
    values: Mapping[str, float],
    units: Mapping[str, str],
    failures: Failures,
) -> dict[str, Any]:
    """The last stdout line of a run: exactly these four keys."""
    check_metrics(values, units)
    return {
        "correct": failures.correct,
        "attempted": max(1, failures.attempted),
        "failed": failures.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": units[name]}
            for name in units
        },
    }


def format_metrics(values: Mapping[str, float], units: Mapping[str, str]) -> list[str]:
    """``name = value unit`` lines, in declaration order."""
    return [f"{name} = {values[name]:.6g} {units[name]}" for name in units]
