"""The tracing pillar: spans, events, the no-op fast path, exports."""

import json
import threading

import pytest

from repro import telemetry
from repro.telemetry import (
    SpanRecord,
    Tracer,
    current_tracer,
    read_jsonl,
    span,
    summarize_records,
    to_chrome_trace,
    write_jsonl,
)
from repro.telemetry.trace import _NOOP_SPAN, event


class TestDisabledFastPath:
    def test_disabled_span_is_the_shared_noop_singleton(self):
        assert current_tracer() is None
        handle = span("anything.at.all", depth=3)
        assert handle is _NOOP_SPAN
        assert span("something.else") is handle  # no allocation per call

    def test_noop_span_supports_the_full_surface(self):
        with span("x", a=1) as handle:
            handle.set(b=2)  # silently dropped
        assert event("x.event", n=1) is None

    def test_enable_disable_toggles_collection(self):
        tracer = telemetry.enable()
        with span("toggled"):
            pass
        telemetry.disable()
        with span("after.disable"):
            pass
        names = [r.name for r in tracer.records]
        assert names == ["toggled"]


class TestSpanCollection:
    def test_span_records_times_ids_and_attrs(self):
        tracer = telemetry.enable()
        with span("work.unit", depth=2) as handle:
            handle.set(n_items=5)
        (record,) = tracer.records
        assert record.name == "work.unit"
        assert record.kind == "span"
        assert record.attrs == {"depth": 2, "n_items": 5}
        assert record.wall_s >= 0.0
        assert record.cpu_s >= 0.0
        assert record.start_s > 0.0
        assert record.span_id == 1
        assert record.parent_id is None
        assert record.pid > 0 and record.tid > 0

    def test_nested_spans_form_a_parent_chain(self):
        tracer = telemetry.enable()
        with span("outer"):
            with span("middle"):
                with span("inner"):
                    pass
            event("tail")
        by_name = {r.name: r for r in tracer.records}
        assert by_name["outer"].parent_id is None
        assert by_name["middle"].parent_id == by_name["outer"].span_id
        assert by_name["inner"].parent_id == by_name["middle"].span_id
        # The event fired while only "outer" was open.
        assert by_name["tail"].parent_id == by_name["outer"].span_id
        assert by_name["tail"].kind == "event"

    def test_exception_inside_span_is_recorded_and_propagates(self):
        tracer = telemetry.enable()
        with pytest.raises(ValueError):
            with span("doomed"):
                raise ValueError("boom")
        (record,) = tracer.records
        assert record.attrs["error"] == "ValueError"

    def test_sibling_spans_share_a_parent(self):
        tracer = telemetry.enable()
        with span("parent"):
            with span("first"):
                pass
            with span("second"):
                pass
        by_name = {r.name: r for r in tracer.records}
        assert by_name["first"].parent_id == by_name["parent"].span_id
        assert by_name["second"].parent_id == by_name["parent"].span_id

    def test_threads_keep_independent_parent_stacks(self):
        tracer = telemetry.enable()
        started = threading.Event()
        release = threading.Event()

        def worker():
            with span("thread.child"):
                started.set()
                release.wait(timeout=5)

        with span("main.parent"):
            t = threading.Thread(target=worker)
            t.start()
            started.wait(timeout=5)
            release.set()
            t.join(timeout=5)
        by_name = {r.name: r for r in tracer.records}
        # The worker's span opened while main.parent was open on the main
        # thread; per-thread stacks keep it a root, not a child.
        assert by_name["thread.child"].parent_id is None
        assert by_name["thread.child"].tid != by_name["main.parent"].tid

    def test_clear_empties_the_buffer(self):
        tracer = telemetry.enable()
        with span("gone"):
            pass
        tracer.clear()
        assert tracer.records == []


class TestExport:
    def test_jsonl_round_trip(self, tmp_path):
        tracer = telemetry.enable()
        with span("a", depth=1):
            event("a.note", n=2)
        path = tmp_path / "trace.jsonl"
        assert write_jsonl(tracer.records, path) == 2
        loaded = read_jsonl(path)
        assert [r.to_wire() for r in loaded] == [
            r.to_wire() for r in tracer.records
        ]

    def test_export_jsonl_is_sorted_stable_json(self, tmp_path):
        tracer = telemetry.enable()
        with span("one"):
            pass
        path = tmp_path / "t.jsonl"
        assert tracer.export_jsonl(path) == 1
        (line,) = path.read_text().splitlines()
        parsed = json.loads(line)
        assert parsed["name"] == "one"
        assert parsed["kind"] == "span"

    def test_chrome_trace_shapes(self):
        tracer = telemetry.enable()
        with span("privtree.level", depth=0):
            event("accountant.spend", epsilon=0.5)
        doc = to_chrome_trace(tracer.records)
        assert doc["displayTimeUnit"] == "ms"
        events = {e["name"]: e for e in doc["traceEvents"]}
        level = events["privtree.level"]
        assert level["ph"] == "X"
        assert level["cat"] == "privtree"
        assert level["dur"] >= 0.0
        assert level["args"]["depth"] == 0
        assert "cpu_ms" in level["args"]
        spend = events["accountant.spend"]
        assert spend["ph"] == "i"
        assert "dur" not in spend

    def test_summarize_aggregates_by_name(self):
        tracer = telemetry.enable()
        for _ in range(3):
            with span("hot.loop"):
                pass
        with span("cold.path"):
            pass
        summary = summarize_records(tracer.records)
        by_name = {entry["name"]: entry for entry in summary}
        assert by_name["hot.loop"]["count"] == 3
        assert by_name["cold.path"]["count"] == 1
        assert all(entry["mean_ms"] >= 0.0 for entry in summary)

    def test_from_wire_tolerates_minimal_records(self):
        record = SpanRecord.from_wire({"name": "bare", "start_s": 1.0})
        assert record.wall_s == 0.0
        assert record.kind == "span"
        assert record.attrs == {}


class TestInstrumentationPrivacy:
    """Spans must carry shapes and timings, never data or counts."""

    def test_privtree_level_spans_expose_only_shape(self, uniform_2d):
        from repro.spatial.quadtree import _privtree_histogram

        tracer = telemetry.enable()
        _privtree_histogram(uniform_2d, epsilon=1.0, rng=5)
        levels = [r for r in tracer.records if r.name == "privtree.level"]
        assert levels, "privtree build produced no per-level spans"
        allowed = {"depth", "frontier", "eligible", "split"}
        for record in levels:
            assert set(record.attrs) <= allowed
        # One span per level, not per node: depths are strictly increasing.
        depths = [r.attrs["depth"] for r in levels]
        assert depths == sorted(set(depths))
        # The one-time cell pass carries its shape only (points, cells and
        # block depth), inside the root level's span.
        (cells,) = [r for r in tracer.records if r.name == "spatial.cell_histogram"]
        assert set(cells.attrs) == {"points", "nodes", "depth"}
        assert cells.attrs["points"] == uniform_2d.n
        assert cells.attrs["nodes"] == 4 ** cells.attrs["depth"]
        assert cells.attrs["depth"] > 0
        root = next(r for r in levels if r.attrs["depth"] == 0)
        assert cells.parent_id == root.span_id

    def test_accountant_spend_events_match_ledger(self):
        from repro.mechanisms.accountant import PrivacyAccountant

        tracer = telemetry.enable()
        accountant = PrivacyAccountant(1.0)
        accountant.spend(0.25, "tree structure")
        accountant.spend(0.5, "leaf counts")
        events = [r for r in tracer.records if r.name == "accountant.spend"]
        assert [(e.attrs["label"], e.attrs["epsilon"]) for e in events] == list(
            accountant.ledger
        )

    def test_rollback_emits_an_event_with_the_entry_count(self):
        from repro.mechanisms.accountant import PrivacyAccountant

        tracer = telemetry.enable()
        accountant = PrivacyAccountant(1.0)
        with pytest.raises(RuntimeError):
            with accountant.transaction():
                accountant.spend(0.25, "doomed")
                raise RuntimeError("boom")
        (rollback,) = [
            r for r in tracer.records if r.name == "accountant.rollback"
        ]
        assert rollback.attrs == {"n_entries": 1}
        assert accountant.ledger == []

    def test_tracing_never_changes_the_release(self, uniform_2d):
        from repro.spatial.quadtree import _privtree_histogram
        from repro.spatial.serialize import tree_to_dict

        plain = _privtree_histogram(uniform_2d, epsilon=1.0, rng=5)
        telemetry.enable()
        traced = _privtree_histogram(uniform_2d, epsilon=1.0, rng=5)
        telemetry.disable()
        assert tree_to_dict(traced) == tree_to_dict(plain)


class TestTracerIsolation:
    def test_enable_accepts_an_existing_tracer(self):
        mine = Tracer()
        installed = telemetry.enable(mine)
        assert installed is mine
        assert current_tracer() is mine
