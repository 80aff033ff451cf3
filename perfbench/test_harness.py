"""The benchmark's own arithmetic, checked against stubbed ops.

    python3 -m pytest -q perfbench

Covers the tail-percentile choice, self-time subtraction and the
``unattributed`` row, failure counting (including a stub HTTP server that
fails on purpose), and the declared metric names and units.
"""

from __future__ import annotations

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from client import KeepAliveClient, run_closed_loop
from harness import (
    LAYERS,
    Failures,
    OpStats,
    leaked_attrs,
    load_spec,
    metric_units,
    nearest_rank,
    op_metrics,
    result_line,
    samples_beyond,
    self_times,
    tail_percentile,
)

# ----------------------------------------------------------------------
# Tail percentile
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    ("n", "expected"),
    [(9, None), (19, None), (20, 50), (39, 50), (40, 75), (99, 75), (100, 90),
     (999, 90), (1000, 99), (5000, 99)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert samples_beyond(n, expected) >= 10


def test_nearest_rank_returns_an_observed_sample():
    values = [float(v) for v in range(100, 0, -1)]
    assert nearest_rank(values, 90) == 90.0
    assert nearest_rank(values, 50) == 50.0
    assert nearest_rank(values, 99) == 99.0
    assert nearest_rank([3.0], 99) == 3.0
    assert samples_beyond(100, 90) == 10
    with pytest.raises(ValueError):
        nearest_rank([], 50)


def test_op_stats_reports_its_fixed_percentile_and_whether_it_resolved():
    stats = OpStats([i / 1e3 for i in range(1, 121)], tail_pct=90)
    assert stats.p50_ms == pytest.approx(60.0)
    assert OpStats([0.4, 0.3, 0.5, 0.6], tail_pct=50).tail_ms == pytest.approx(400.0)
    assert OpStats([0.4, 0.3, 0.5, 0.6], tail_pct=50).p50_ms == pytest.approx(400.0)
    assert stats.tail_ms == pytest.approx(108.0)
    meta = stats.metadata()
    assert meta["tail_percentile"] == "p90"
    assert meta["tail_samples_beyond"] == 12
    assert meta["tail_resolved"] is True
    assert meta["highest_supported_tail"] == "p90"
    few = OpStats([0.5, 0.4, 0.6, 0.55], tail_pct=50).metadata()
    assert few["op_samples"] == 4 and few["tail_resolved"] is False
    assert few["highest_supported_tail"] is None


# ----------------------------------------------------------------------
# Self times
# ----------------------------------------------------------------------


def _span(span_id, parent, name, wall, **attrs):
    return {"kind": "span", "span_id": span_id, "parent_id": parent, "name": name,
            "wall_s": wall, "attrs": attrs}


FIT_OP = [
    _span(1, None, "bench.op", 10.0),
    _span(2, 1, "api.fit", 6.0),
    _span(3, 2, "privtree.level", 2.0, depth=0, frontier=1, eligible=1, split=1),
    _span(4, 2, "privtree.level", 1.5, depth=1, frontier=4, eligible=4, split=3),
    {"kind": "event", "span_id": 5, "parent_id": 2, "name": "accountant.spend",
     "wall_s": 0.0, "attrs": {}},
    _span(6, 1, "serve.put", 2.0),
    _span(7, 1, "bench.unknown", 0.5),
]


def test_self_time_subtracts_children_and_leaves_the_rest_unattributed():
    shares = self_times(FIT_OP, root_id=1)
    assert shares["core"] == pytest.approx(3.5)
    assert shares["spatial"] == pytest.approx(2.5)  # api.fit beyond its levels
    assert shares["serve"] == pytest.approx(2.0)
    assert shares["queries"] == 0.0 and shares["federated"] == 0.0
    # The root's own 1.5 s plus the span no layer claims.
    assert shares["unattributed"] == pytest.approx(2.0)
    assert sum(shares.values()) == pytest.approx(10.0)


def test_op_metrics_derive_layer_values_per_traced_op():
    second = [dict(r, span_id=r["span_id"] + 100,
                   parent_id=None if r["parent_id"] is None else r["parent_id"] + 100)
              for r in FIT_OP]
    second[0]["wall_s"] = 12.0
    rows = op_metrics(FIT_OP + second)
    assert len(rows) == 2
    row = rows[0]
    assert row["traced_op_ms"] == pytest.approx(10_000.0)
    assert row["api.fit_ms"] == pytest.approx(6_000.0)
    assert row["core.frontier_ms"] == pytest.approx(3_500.0)
    assert row["spatial.assembly_ms"] == pytest.approx(2_500.0)
    assert row["core.levels"] == 2 and row["core.split_nodes"] == 4
    assert row["federated.rounds"] == 0 and row["spatial.traversal_ms"] == 0.0
    total = sum(row[f"{layer}.self_ms"] for layer in LAYERS) + row["unattributed_ms"]
    assert total == pytest.approx(row["traced_op_ms"])
    assert rows[1]["unattributed_ms"] == pytest.approx(4_000.0)


def test_federated_counts_only_count_rounds_as_node_queries():
    records = [
        _span(1, None, "bench.op", 3.0),
        _span(2, 1, "federated.fit", 2.5),
        _span(3, 2, "federated.round", 1.0, kind="counts", n_nodes=1, round=0),
        _span(4, 3, "federated.collector", 0.8, shard_id=0),
        _span(5, 2, "federated.round", 0.5, kind="splits", n_nodes=1, round=1),
        _span(6, 2, "federated.round", 0.5, kind="counts", n_nodes=4, round=2),
    ]
    row = op_metrics(records)[0]
    assert row["federated.rounds"] == 3
    assert row["federated.nodes_requested"] == 5
    assert row["federated.coordinator_self_ms"] == pytest.approx(500.0)
    assert row["federated.collector_wait_ms"] == pytest.approx(800.0)
    assert row["federated.self_ms"] == pytest.approx(2_500.0)
    assert row["unattributed_ms"] == pytest.approx(500.0)


def test_trace_attributes_outside_the_allowlist_are_reported():
    assert leaked_attrs(FIT_OP) == []
    leaking = FIT_OP + [_span(9, 1, "serve.put", 0.1, points_xy=[0.1, 0.2])]
    assert leaked_attrs(leaking) == ["serve.put.points_xy"]


# ----------------------------------------------------------------------
# Failure counting
# ----------------------------------------------------------------------


def test_failures_count_per_op_and_never_twice():
    failures = Failures()
    for error in (None, None, "status 500", None):
        failures.record(error)
    assert (failures.attempted, failures.failed) == (4, 1)
    assert failures.error_rate == pytest.approx(0.25)
    failures.fail(0, "wrong answer")
    failures.fail(2, "wrong answer")  # already failed: still one failure
    assert failures.failed == 2
    assert failures.metadata()["reasons"] == {"wrong answer": 1, "status 500": 1}
    assert not failures.correct


def test_an_untimed_failure_makes_the_run_incorrect_but_not_the_rate():
    failures = Failures()
    failures.record(None)
    failures.fail_untimed("release differs from the reference")
    assert failures.error_rate == 0.0
    assert not failures.correct


class _StubHandler(BaseHTTPRequestHandler):
    """200 with a body, 500, or a body cut short, by path."""

    protocol_version = "HTTP/1.1"

    def do_POST(self):  # noqa: N802
        self.rfile.read(int(self.headers["Content-Length"]))
        if self.path == "/ok":
            self._reply(200, b"answer")
        elif self.path == "/fail":
            self._reply(500, b'{"error": "stub"}')
        else:  # promise 100 bytes, send 5, hang up
            self.send_response(200)
            self.send_header("Content-Length", "100")
            self.end_headers()
            self.wfile.write(b"short")
            self.close_connection = True

    def _reply(self, status, body):
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def stub_server():
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_client_records_failures_instead_of_raising(stub_server):
    client = KeepAliveClient("127.0.0.1", stub_server)
    try:
        ok = client.post("/ok", b"q", "application/json")
        fail = client.post("/fail", b"q", "application/json")
        again = client.post("/ok", b"q", "application/json")  # same connection
        short = client.post("/short", b"q", "application/json")
        after = client.post("/ok", b"q", "application/json")  # re-dialled
    finally:
        client.close()
    assert (ok.error, ok.body) == (None, b"answer")
    assert fail.error == "status 500"
    assert again.error is None
    assert short.error == "short body"
    assert after.error is None
    assert all(s.seconds > 0 for s in (ok, fail, again, short, after))


def test_client_counts_a_refused_connection_as_a_socket_failure(stub_server):
    import socket

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]  # bound but never listening
        sample = KeepAliveClient("127.0.0.1", port).post("/ok", b"q", "text/plain")
    assert sample.error is not None and sample.error.startswith("socket")


def test_closed_loop_uses_two_clients_and_measures_its_window(stub_server):
    threads_before = threading.active_count()
    result = run_closed_loop(
        "127.0.0.1", stub_server,
        lambda client: client.post("/ok", b"q", "text/plain"),
        clients=2, seconds=0.3,
    )
    assert result.window_s >= 0.3
    assert result.samples and all(s.error is None for s in result.samples)
    assert threading.active_count() == threads_before
    with pytest.raises(ValueError):
        run_closed_loop("127.0.0.1", stub_server, lambda c: None, clients=3, seconds=0.1)


# ----------------------------------------------------------------------
# Metric names and units
# ----------------------------------------------------------------------


def test_declared_metrics_match_what_the_workloads_produce():
    from workloads import EXTRA_KEYS

    spec = load_spec()
    assert set(metric_units(spec, trace=False)) == {
        "setup_s", "op_p50_ms", "op_tail_ms", "queries_per_s", "peak_rss_mb",
    }
    produced = set(op_metrics(FIT_OP)[0]) | set(EXTRA_KEYS)
    assert set(metric_units(spec, trace=True)) == produced
    assert len(EXTRA_KEYS) == len(set(EXTRA_KEYS))


def test_units_follow_the_names_and_the_contract():
    spec = load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        if metric["name"].endswith("_ms"):
            assert metric["unit"] == "ms"
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200


def test_result_line_has_exactly_four_keys_and_refuses_bad_metrics():
    units = {"op_p50_ms": "ms", "setup_s": "s"}
    failures = Failures()
    failures.record(None)
    line = result_line({"op_p50_ms": 1.5, "setup_s": 2.0}, units, failures)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"]["op_p50_ms"] == {"value": 1.5, "unit": "ms"}
    assert json.loads(json.dumps(line)) == line
    with pytest.raises(ValueError):
        result_line({"op_p50_ms": 1.5}, units, failures)
    with pytest.raises(ValueError):
        result_line({"op_p50_ms": 1.5, "setup_s": 2.0, "extra": 1.0}, units, failures)
    with pytest.raises(ValueError):
        result_line({"op_p50_ms": math.nan, "setup_s": 2.0}, units, failures)
