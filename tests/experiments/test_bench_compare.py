"""`repro bench --compare` and its `--fail-above` gate.

The perf surface grows over time, so a freshly added case may be absent
from the baseline; old or hand-edited baselines may also hold garbage
where a case dict is expected.  `--compare` alone warns and keeps going
in every such case (never a KeyError).  The `--fail-above` gate fails
closed instead: a case without a usable baseline entry fails it.  Seconds
are gated only against a baseline from the same runner; the speedup of a
case timed against a frozen reference is gated on any runner, and on the
same runner the worse of the two ratios counts.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.perf import (
    BENCH_CASES,
    FROZEN_REFERENCE_CASES,
    REGRESSION_THRESHOLD,
    bench_new_cases,
    bench_regression_failures,
    compare_bench_results,
)

ROOT = Path(__file__).resolve().parents[2]


def _results(**cases: float) -> dict:
    return {"cases": {name: {"optimized_s": s} for name, s in cases.items()}}


def _on(runner: tuple, document: dict) -> dict:
    """``document`` recorded on ``runner`` = (cpu_count, python, numpy)."""
    cpu_count, python, numpy = runner
    return {**document, "machine": {"cpu_count": cpu_count, "python": python, "numpy": numpy}}


HERE = (2, "3.11.7", "2.4.6")
ELSEWHERE = (4, "3.12.3", "2.4.6")


class TestCompareBenchResults:
    def test_case_missing_from_baseline_is_listed_as_new(self):
        table, n_regressions = compare_bench_results(
            _results(old=0.010, brand_new=0.5), _results(old=0.010)
        )
        assert n_regressions == 0
        assert "brand_new" in table
        assert "(new case)" in table
        assert "no case regressed" in table

    @pytest.mark.parametrize(
        "baseline",
        [
            {},
            {"cases": None},
            {"cases": []},
            {"config": {"n_points": 1}},
            [],
            "junk",
            None,
        ],
    )
    def test_malformed_baseline_documents_never_crash(self, baseline):
        table, n_regressions = compare_bench_results(_results(a=0.01), baseline)
        assert n_regressions == 0
        assert "(new case)" in table

    @pytest.mark.parametrize(
        "entry",
        [
            0.010,  # bare number where a case dict is expected
            {"optimized_s": "fast"},
            {"optimized_s": True},
            {"optimized_s": None},
            {"reference_s": 0.010},  # no optimized_s at all
            None,
        ],
    )
    def test_malformed_baseline_entries_read_as_missing(self, entry):
        baseline = {"cases": {"a": entry}}
        table, n_regressions = compare_bench_results(_results(a=0.01), baseline)
        assert n_regressions == 0
        assert "(new case)" in table

    def test_regression_still_flagged_alongside_a_new_case(self):
        results = _results(slow=0.030, brand_new=0.5)
        baseline = _results(slow=0.010)
        table, n_regressions = compare_bench_results(results, baseline)
        assert n_regressions == 1
        assert "WARNING" in table
        assert "(new case)" in table
        assert REGRESSION_THRESHOLD < 0.030 / 0.010

    def test_case_missing_from_current_run_is_listed(self):
        table, n_regressions = compare_bench_results(
            _results(a=0.01), _results(a=0.01, retired=0.02)
        )
        assert n_regressions == 0
        assert "retired" in table
        assert "(missing from current run)" in table


class TestBenchRegressionFailures:
    def test_missing_and_malformed_cases_fail_the_gate(
        self, monkeypatch, capsys, tmp_path
    ):
        # They are not regressions, but the gate cannot judge them.
        results = _results(brand_new=10.0, mangled=10.0, kept=0.01)
        baseline = {"cases": {"mangled": {"optimized_s": "oops"}, "kept": {"optimized_s": 0.01}}}
        assert bench_regression_failures(results, baseline, 1.5) == []
        assert bench_new_cases(results, baseline) == ["brand_new", "mangled"]
        monkeypatch.setattr("repro.experiments.run_perf_bench", lambda **kwargs: results)
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(baseline))
        assert main(["bench", "--compare", str(path), "--fail-above", "1.5"]) == 1
        out = capsys.readouterr().out
        assert f"FAIL: baseline {path} has no entry for brand_new, mangled;" in out
        assert "regression gate passed" not in out

    def test_speedup_ratio_gates_across_runners(self):
        case = "privtree_build"
        assert case in FROZEN_REFERENCE_CASES
        baseline = _on(ELSEWHERE, {"cases": {case: {"optimized_s": 0.001, "speedup": 9.0}}})
        kept = _on(HERE, {"cases": {case: {"optimized_s": 1.0, "speedup": 8.0}}})
        lost = _on(HERE, {"cases": {case: {"optimized_s": 0.001, "speedup": 3.0}}})
        assert bench_regression_failures(kept, baseline, 1.5) == []
        assert bench_regression_failures(lost, baseline, 1.5) == [(case, 3.0)]

    def test_same_runner_takes_the_worse_ratio(self):
        # A slowdown in code both sides run keeps the speedup flat; the
        # seconds still catch it on the baseline's runner.
        case = "privtree_build"
        baseline = _on(HERE, {"cases": {case: {"optimized_s": 0.010, "speedup": 9.0}}})
        slower = _on(HERE, {"cases": {case: {"optimized_s": 0.030, "speedup": 9.0}}})
        assert bench_regression_failures(slower, baseline, 1.5) == [(case, pytest.approx(3.0))]
        table, _ = compare_bench_results(slower, baseline)
        assert "(seconds)" in table
        lost = _on(HERE, {"cases": {case: {"optimized_s": 0.010, "speedup": 3.0}}})
        assert bench_regression_failures(lost, baseline, 1.5) == [(case, 3.0)]

    # A seconds-only case, and cases whose reference runs the code they
    # time: a slowdown there leaves the speedup flat, so only seconds judge.
    @pytest.mark.parametrize(
        "case", ["fit", "workload_answering", "artifact_cold_load", "service_throughput"]
    )
    def test_seconds_gate_only_on_the_same_runner(self, case):
        assert case not in FROZEN_REFERENCE_CASES
        speedup = {} if case == "fit" else {"speedup": 2.0}
        baseline = _on(HERE, {"cases": {case: {"optimized_s": 0.010, **speedup}}})
        slower = {"cases": {case: {"optimized_s": 0.030, **speedup}}}
        assert [n for n, _ in bench_regression_failures(_on(HERE, slower), baseline, 1.5)] == [case]
        elsewhere = _on(ELSEWHERE, slower)
        assert bench_regression_failures(elsewhere, baseline, 1.5) == []
        assert bench_new_cases(elsewhere, baseline) == []
        table, n_regressions = compare_bench_results(elsewhere, baseline)
        assert n_regressions == 0
        assert "(not gated: other runner)" in table

    def test_real_regression_still_fails(self):
        results = _results(slow=0.030, brand_new=10.0)
        baseline = _results(slow=0.010)
        failures = bench_regression_failures(results, baseline, 1.5)
        assert [name for name, _ in failures] == ["slow"]
        assert failures[0][1] == pytest.approx(3.0)

    def test_nonpositive_threshold_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            bench_regression_failures(_results(a=0.01), _results(a=0.01), 0.0)


class TestBenchCompareCLIWarning:
    """`repro bench --compare` warns (exit 0) on a baseline missing a case."""

    FAKE = {
        "config": {"n_points": 100},
        "cases": {
            "old_case": {"optimized_s": 0.010},
            "new_case": {"optimized_s": 0.020},
        },
    }

    def test_new_case_fails_the_gate(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setattr(
            "repro.experiments.run_perf_bench", lambda **kwargs: dict(self.FAKE)
        )
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({"cases": {"old_case": {"optimized_s": 0.010}}}))
        # --compare alone still only warns.
        assert main(["bench", "--compare", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "WARNING: baseline" in out
        assert "no entry for new_case" in out
        assert "regenerate the baseline" in out
        gate = ["bench", "--compare", str(baseline), "--fail-above", "1.5"]
        assert main(gate) == 1
        out = capsys.readouterr().out
        assert "FAIL: baseline" in out
        assert "no entry for new_case" in out
        assert f"regenerate it with `repro bench --out {baseline}`" in out
        assert "regression gate passed" not in out

    def test_compare_without_out_writes_nothing(self, monkeypatch, tmp_path):
        # Results are written only with --out: a compare run from a
        # checkout must never overwrite its committed BENCH_perf.json.
        monkeypatch.setattr(
            "repro.experiments.run_perf_bench", lambda **kwargs: dict(self.FAKE)
        )
        monkeypatch.chdir(tmp_path)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(self.FAKE))
        assert main(["bench", "--compare", str(baseline)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["baseline.json"]

    def test_no_warning_when_baseline_is_complete(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setattr(
            "repro.experiments.run_perf_bench", lambda **kwargs: dict(self.FAKE)
        )
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(self.FAKE))
        code = main(["bench", "--compare", str(baseline)])
        out = capsys.readouterr().out
        assert code == 0
        assert "WARNING: baseline" not in out


class TestCommittedBaseline:
    """The committed BENCH_perf.json is a real baseline for every case."""

    def test_holds_exactly_the_bench_cases(self):
        baseline = json.loads((ROOT / "BENCH_perf.json").read_text())
        assert set(baseline["cases"]) == BENCH_CASES
        # Every case is judged: none reads as new against itself.
        assert bench_new_cases(baseline, baseline) == []
        assert set(baseline["machine"]) >= {"cpu_count", "python", "numpy"}
        # The cases gated on another runner all have a speedup to gate.
        for name in FROZEN_REFERENCE_CASES:
            assert baseline["cases"][name]["speedup"] > 0
