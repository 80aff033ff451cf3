"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.experiments.perf import BENCH_CASES


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        sub = next(
            a for a in parser._actions if isinstance(a.choices, dict)
        )
        assert set(sub.choices) == {
            "run",
            "methods",
            "query",
            "store",
            "federated-fit",
            "collector-serve",
            "serve",
            "figure5",
            "figure6",
            "figure7",
            "table4",
            "bench",
            "trace",
            "svt",
            "datasets",
        }

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure5", "--dataset", "adult"])


class TestCommands:
    def test_svt_command(self, capsys):
        assert main(["svt"]) == 0
        out = capsys.readouterr().out
        assert "BinarySVT" in out
        assert "VanillaSVT" in out

    def test_datasets_command(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "road" in out and "msnbc" in out

    def test_figure5_small_run(self, capsys):
        code = main(
            [
                "figure5",
                "--dataset",
                "gowalla",
                "--band",
                "large",
                "--n",
                "3000",
                "--queries",
                "10",
                "--epsilons",
                "1.6",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "PrivTree" in out
        assert "1.6" in out

    def test_figure6_small_run(self, capsys):
        code = main(
            [
                "figure6",
                "--dataset",
                "msnbc",
                "--k",
                "10",
                "--n",
                "1500",
                "--epsilons",
                "1.6",
            ]
        )
        assert code == 0
        assert "N-gram" in capsys.readouterr().out

    def test_figure7_small_run(self, capsys):
        code = main(
            [
                "figure7",
                "--dataset",
                "msnbc",
                "--n",
                "1500",
                "--synthetic",
                "200",
                "--epsilons",
                "1.6",
            ]
        )
        assert code == 0
        assert "Truncate" in capsys.readouterr().out

    def test_table4_small_run(self, capsys):
        code = main(["table4", "--n", "1500", "--epsilons", "0.4"])
        assert code == 0
        assert "road" in capsys.readouterr().out

    def test_bench_small_run(self, capsys, monkeypatch, tmp_path):
        import json

        def no_process(*args, **kwargs):
            raise AssertionError(f"repro bench started a process: {args!r}")

        # Every case runs in this process: the bench starts no server,
        # collector or helper process.
        monkeypatch.setattr(subprocess, "Popen", no_process)
        out_file = tmp_path / "BENCH_perf.json"
        code = main(
            [
                "bench",
                "--n",
                "3000",
                "--queries",
                "50",
                "--sequences",
                "1500",
                "--synthetic",
                "500",
                "--repeats",
                "1",
                "--out",
                str(out_file),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "median of 1" in out
        assert "privtree_build" in out
        assert "speedup" in out
        results = json.loads(out_file.read_text())
        assert set(results["cases"]) == BENCH_CASES
        for case in results["cases"].values():
            assert case["optimized_iqr_s"] == 0.0  # one round per side
            if "reference_s" in case:
                assert case["reference_iqr_s"] == 0.0
                assert case["speedup"] == case["reference_s"] / case["optimized_s"]
        assert results["cases"]["federated_fit"]["bit_identical_to_centralized"] is True
        assert results["cases"]["federated_fit"]["overhead_vs_centralized"] > 0
        assert results["cases"]["workload_queries"]["max_abs_deviation"] < 1e-6
        assert results["cases"]["topk_scoring"]["max_abs_deviation"] < 1e-9
        assert results["cases"]["workload_answering"]["speedup"] > 0
        assert results["cases"]["workload_answering"]["n_answers"] > 0
        assert results["cases"]["service_cached_queries"]["queries_per_s"] > 0
        assert results["cases"]["service_cached_queries"]["cache_hit"] is True
        assert results["cases"]["release_json"]["bytes_identical_to_reference"] is True
        telemetry_case = results["cases"]["telemetry_overhead"]
        assert telemetry_case["spans_recorded"] > 0
        # The acceptance bound: disabled telemetry (no-op span sites)
        # costs at most 5% of a privtree build.
        assert 0 < telemetry_case["overhead_disabled"] <= 0.05
        assert telemetry_case["enabled_s"] > 0
        assert results["config"]["n_points"] == 3000
        assert results["config"]["sequence"]["n_sequences"] == 1500

        # --compare against the file just written: no case can regress vs
        # itself beyond noise, and the table must render.
        code = main(
            [
                "bench",
                "--n",
                "3000",
                "--queries",
                "50",
                "--sequences",
                "1500",
                "--synthetic",
                "500",
                "--repeats",
                "1",
                "--out",
                str(tmp_path / "BENCH_new.json"),
                "--compare",
                str(out_file),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"comparison vs {out_file}" in out
        assert "baseline" in out and "current" in out


class TestQueryCommand:
    def test_query_answers_typed_workload(self, capsys, tmp_path):
        import json

        import numpy as np

        release_file = tmp_path / "release.json"
        assert (
            main(
                [
                    "run",
                    "--method",
                    "privtree",
                    "--dataset",
                    "gowalla",
                    "--n",
                    "2000",
                    "--out",
                    str(release_file),
                ]
            )
            == 0
        )
        capsys.readouterr()

        from repro.api import load_release
        from repro.queries import Marginal1D, RangeCount, Workload

        release = load_release(release_file)
        domain = release.query_domain
        workload = Workload.of(
            [
                RangeCount(low=domain.low, high=domain.high),
                Marginal1D.regular(
                    axis=0, n_bins=3, low=domain.low[0], high=domain.high[0]
                ),
            ]
        )
        workload_file = tmp_path / "workload.json"
        workload_file.write_text(json.dumps(workload.to_wire()))
        answers_file = tmp_path / "answers.json"
        code = main(
            [
                "query",
                "--release",
                str(release_file),
                "--workload",
                str(workload_file),
                "--out",
                str(answers_file),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "range_count" in out and "marginal1d" in out
        document = json.loads(answers_file.read_text())
        assert document["method"] == "privtree"
        assert document["count"] == 2
        flat = np.array([document["answers"][0]] + document["answers"][1])
        assert np.array_equal(flat, release.answer(workload))

    def test_query_rejects_bad_workload(self, tmp_path, capsys):
        import json

        release_file = tmp_path / "release.json"
        assert (
            main(
                [
                    "run",
                    "--method",
                    "privtree",
                    "--dataset",
                    "gowalla",
                    "--n",
                    "1000",
                    "--out",
                    str(release_file),
                ]
            )
            == 0
        )
        capsys.readouterr()
        workload_file = tmp_path / "workload.json"
        workload_file.write_text(json.dumps({"format": "wrong"}))
        with pytest.raises(SystemExit, match="invalid workload"):
            main(
                [
                    "query",
                    "--release",
                    str(release_file),
                    "--workload",
                    str(workload_file),
                ]
            )

    def test_query_rejects_malformed_tree_release(self, tmp_path):
        import json

        root = {"low": [0.0, 0.0], "high": [1.0, 1.0], "count": 3.0, "children": [None]}
        release_file = tmp_path / "bad.json"
        release_file.write_text(
            json.dumps(
                {
                    "format": "repro.release",
                    "version": 1,
                    "kind": "spatial-tree",
                    "method": "privtree",
                    "epsilon_spent": 1.0,
                    "payload": {
                        "format": "repro.histogram_tree", "version": 1, "root": root,
                    },
                }
            )
        )
        workload_file = tmp_path / "workload.json"
        workload_file.write_text('{"format": "repro.workload", "version": 1, "queries": []}')
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "query",
                    "--release",
                    str(release_file),
                    "--workload",
                    str(workload_file),
                ]
            )
        message = exc.value.code
        assert isinstance(message, str) and "\n" not in message
        assert message.startswith("cannot load release")

    @pytest.mark.parametrize(
        "children",
        [{"0": None}, [], {"99": {"context": [99], "hist": [1.0, 1.0, 1.0]}}],
        ids=["null-child", "list", "key-99"],
    )
    def test_query_rejects_malformed_pst_release(self, tmp_path, children):
        import json

        root = {"context": [], "hist": [1.0, 2.0, 3.0], "children": children}
        release_file = tmp_path / "bad.json"
        release_file.write_text(
            json.dumps(
                {
                    "format": "repro.release",
                    "version": 1,
                    "kind": "sequence-pst",
                    "method": "pst",
                    "epsilon_spent": 1.0,
                    "payload": {
                        "format": "repro.prediction_suffix_tree",
                        "version": 1,
                        "alphabet": ["A", "B"],
                        "root": root,
                    },
                }
            )
        )
        workload_file = tmp_path / "workload.json"
        workload_file.write_text('{"format": "repro.workload", "version": 1, "queries": []}')
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "query",
                    "--release",
                    str(release_file),
                    "--workload",
                    str(workload_file),
                ]
            )
        message = exc.value.code
        assert isinstance(message, str) and "\n" not in message
        assert message.startswith("cannot load release")

    def test_query_rejects_missing_release(self, tmp_path):
        workload_file = tmp_path / "workload.json"
        workload_file.write_text("{}")
        with pytest.raises(SystemExit, match="cannot load release"):
            main(
                [
                    "query",
                    "--release",
                    str(tmp_path / "missing.json"),
                    "--workload",
                    str(workload_file),
                ]
            )


class TestRunCommand:
    def test_methods_lists_registry(self, capsys):
        assert main(["methods"]) == 0
        out = capsys.readouterr().out
        for name in ("privtree", "ug", "ag", "dawa", "pst", "ngram"):
            assert name in out

    def test_run_spatial_method(self, capsys, tmp_path):
        out_file = tmp_path / "release.json"
        code = main(
            [
                "run",
                "--method",
                "privtree",
                "--dataset",
                "gowalla",
                "--n",
                "2000",
                "--epsilon",
                "0.5",
                "--out",
                str(out_file),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "privtree/tree structure" in out
        assert "privtree/leaf counts" in out
        assert out_file.exists()

        from repro.api import load_release

        release = load_release(out_file)
        assert release.method == "privtree"
        assert release.epsilon_spent == 0.5

    def test_run_sequence_method_defaults_l_top(self, capsys):
        code = main(
            ["run", "--method", "pst", "--dataset", "msnbc", "--n", "1000"]
        )
        assert code == 0
        assert "pst/structure" in capsys.readouterr().out

    def test_run_with_param_override(self, capsys):
        code = main(
            [
                "run",
                "--method",
                "ug",
                "--dataset",
                "gowalla",
                "--n",
                "2000",
                "--param",
                "size_factor=2.0",
            ]
        )
        assert code == 0
        assert "ug/cell counts" in capsys.readouterr().out

    def test_run_rejects_unknown_method(self):
        with pytest.raises(SystemExit, match="unknown method"):
            main(["run", "--method", "nope", "--dataset", "road"])

    def test_run_rejects_unknown_param(self):
        with pytest.raises(SystemExit, match="valid parameters"):
            main(["run", "--method", "ug", "--dataset", "road", "--param", "zeta=2"])

    def test_run_rejects_epsilon_via_param(self):
        with pytest.raises(SystemExit, match="--epsilon"):
            main(["run", "--method", "ug", "--dataset", "road", "--param", "epsilon=2"])

    def test_run_rejects_kind_mismatch(self):
        with pytest.raises(SystemExit):
            main(["run", "--method", "privtree", "--dataset", "msnbc", "--n", "500"])

    def test_run_rejects_fractional_height(self):
        # height=2.5 once released a 3-level SimpleTree at Lap(2.5/ε): a
        # 1.2ε loss recorded as ε.
        src = Path(repro.__file__).parents[1]
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "run", "--method", "simpletree",
                "--dataset", "gowalla", "--n", "2000", "--epsilon", "1.0",
                "--param", "height=2.5",
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=120,
        )
        assert proc.returncode != 0
        assert "height must be an integer" in proc.stderr


class TestStoreCommand:
    def _put(self, store_dir, **overrides):
        argv = [
            "store", "put",
            "--store", str(store_dir),
            "--method", overrides.get("method", "ug"),
            "--dataset", overrides.get("dataset", "gowalla"),
            "--n", "1500",
            "--epsilon", "0.5",
        ]
        if "release_id" in overrides:
            argv += ["--id", overrides["release_id"]]
        return main(argv)

    def test_put_ls_get_round_trip(self, capsys, tmp_path):
        store_dir = tmp_path / "store"
        assert self._put(store_dir, release_id="demo") == 0
        assert "stored demo" in capsys.readouterr().out

        assert main(["store", "ls", "--store", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "demo" in out and "ug" in out and "gowalla(n=1500)" in out

        out_file = tmp_path / "copy.json"
        code = main(
            ["store", "get", "--store", str(store_dir), "demo", "--out", str(out_file)]
        )
        assert code == 0
        assert "GridRelease" in capsys.readouterr().out

        from repro.api import load_release

        release = load_release(out_file)
        assert release.method == "ug"
        assert release.epsilon_spent == 0.5

    def test_ls_reports_artifact_format_and_bytes(self, capsys, tmp_path):
        store_dir = tmp_path / "store"
        assert self._put(store_dir, release_id="demo") == 0
        capsys.readouterr()
        assert main(["store", "ls", "--store", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "binary-v2" in out
        from repro.serve import ReleaseStore

        n_bytes = ReleaseStore(store_dir).manifest_entry("demo")["artifact_bytes"]
        assert f"{n_bytes:,}" in out

    def test_migrate_backfills_binary_artifacts(self, capsys, tmp_path):
        import json as json_mod

        store_dir = tmp_path / "store"
        assert self._put(store_dir, release_id="demo") == 0
        capsys.readouterr()
        # Strip the store back to v1: no .bin, no manifest artifact fields.
        (store_dir / "releases" / "demo.bin").unlink()
        manifest_path = store_dir / "manifest.json"
        manifest = json_mod.loads(manifest_path.read_text())
        for entry in manifest["releases"].values():
            for key in ("artifact_format", "artifact_bytes", "binary_path"):
                entry.pop(key, None)
        manifest_path.write_text(json_mod.dumps(manifest))

        assert main(["store", "migrate", "--store", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "demo" in out
        assert (store_dir / "releases" / "demo.bin").exists()

        assert main(["store", "migrate", "--store", str(store_dir)]) == 0
        assert "already" in capsys.readouterr().out

    def test_manifest_records_params(self, capsys, tmp_path):
        store_dir = tmp_path / "store"
        assert self._put(store_dir, release_id="demo") == 0
        capsys.readouterr()

        from repro.serve import ReleaseStore

        entry = ReleaseStore(store_dir).manifest_entry("demo")
        assert entry["params"]["epsilon"] == 0.5
        assert entry["dataset"] == "gowalla(n=1500)"

    def test_ls_empty_store(self, capsys, tmp_path):
        from repro.serve import ReleaseStore

        ReleaseStore(tmp_path / "empty")  # materialize an empty store
        assert main(["store", "ls", "--store", str(tmp_path / "empty")]) == 0
        assert "empty" in capsys.readouterr().out

    def test_ls_missing_store_exits_without_creating_it(self, tmp_path):
        missing = tmp_path / "typo"
        with pytest.raises(SystemExit, match="does not exist"):
            main(["store", "ls", "--store", str(missing)])
        assert not missing.exists()

    def test_put_rejects_bad_id_before_fitting(self, tmp_path):
        with pytest.raises(SystemExit, match="invalid release id"):
            self._put(tmp_path / "store", release_id="../escape")
        assert not (tmp_path / "store").exists()

    def test_put_usage_error_leaves_no_store_behind(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown method"):
            self._put(tmp_path / "store", method="typo")
        assert not (tmp_path / "store").exists()

    def test_get_unknown_id_exits(self, tmp_path):
        from repro.serve import ReleaseStore

        ReleaseStore(tmp_path / "s")
        with pytest.raises(SystemExit, match="unknown release id"):
            main(["store", "get", "--store", str(tmp_path / "s"), "nope"])

    def test_get_truncated_artifact_exits_in_one_line(self, capsys, tmp_path):
        store_dir = tmp_path / "store"
        assert self._put(store_dir, release_id="demo") == 0
        path = store_dir / "releases" / "demo.bin"
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(SystemExit, match="cannot load release 'demo': artifact"):
            main(["store", "get", "--store", str(store_dir), "demo"])

    def test_get_malformed_json_fallback_exits_in_one_line(self, capsys, tmp_path):
        store_dir = tmp_path / "store"
        assert self._put(store_dir, release_id="demo") == 0
        (store_dir / "releases" / "demo.bin").unlink()
        (store_dir / "releases" / "demo.json").write_text("{not json")
        with pytest.raises(SystemExit, match="cannot load release 'demo'"):
            main(["store", "get", "--store", str(store_dir), "demo"])


class TestBenchGate:
    """The blocking bench regression gate (`--fail-above`)."""

    ARGS = [
        "bench",
        "--n", "1500",
        "--queries", "10",
        "--sequences", "500",
        "--synthetic", "100",
        "--repeats", "1",
    ]

    @pytest.mark.parametrize("repeats", ["0", "-2"])
    def test_repeats_below_one_is_a_usage_error(self, repeats, monkeypatch):
        # Refused in one line before any data is generated.
        def bench(**kwargs):
            raise AssertionError("the bench ran")

        monkeypatch.setattr("repro.experiments.run_perf_bench", bench)
        with pytest.raises(SystemExit) as exc:
            main(self.ARGS + ["--repeats", repeats])
        assert exc.value.code == f"--repeats must be at least 1, got {repeats}"

    def test_fail_above_requires_compare(self):
        with pytest.raises(SystemExit, match="requires --compare"):
            main(self.ARGS + ["--fail-above", "1.5"])

    def test_fail_above_rejects_non_slowdown_ratio(self, tmp_path):
        baseline = tmp_path / "base.json"
        baseline.write_text('{"cases": {}}')
        with pytest.raises(SystemExit, match="must exceed 1.0"):
            main(
                self.ARGS
                + ["--compare", str(baseline), "--fail-above", "0.9"]
            )

    #: One fixed bench result: the gate logic needs no real timings
    #: (`test_bench_small_run` runs the real bench).
    RESULT = {
        "config": {"n_points": 1500},
        "cases": {
            "privtree_build": {
                "optimized_s": 0.010,
                "reference_s": 0.050,
                "speedup": 5.0,
            },
            "range_count_many": {"optimized_s": 0.002},
        },
    }

    def test_gate_passes_and_fails(self, capsys, monkeypatch, tmp_path):
        import copy
        import json

        monkeypatch.setattr(
            "repro.experiments.run_perf_bench",
            lambda **kwargs: copy.deepcopy(self.RESULT),
        )
        out_file = tmp_path / "bench.json"
        args = self.ARGS + ["--out", str(out_file)]
        assert main(args) == 0
        capsys.readouterr()

        # A generous gate vs the run's own output passes with exit 0.
        code = main(
            args + ["--compare", str(out_file), "--fail-above", "1000"]
        )
        assert code == 0
        assert "regression gate passed" in capsys.readouterr().out

        # A doctored 100x-faster baseline makes every case a regression:
        # on the baseline's own runner seconds are gated even where the
        # speedup stayed flat.
        results = json.loads(out_file.read_text())
        for case in results["cases"].values():
            if "optimized_s" in case:
                case["optimized_s"] /= 100.0
        fast = tmp_path / "fast.json"
        fast.write_text(json.dumps(results))
        code = main(args + ["--compare", str(fast), "--fail-above", "1.5"])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        failed = out.split("FAIL:", 1)[1]
        assert "privtree_build" in failed
        assert "range_count_many" in failed


class TestTraceCommand:
    """`--trace` on the fit commands plus the `repro trace` inspector."""

    def test_run_trace_then_summarize_and_convert(self, capsys, tmp_path):
        import json

        from repro import telemetry

        trace_file = tmp_path / "run_trace.jsonl"
        code = main(
            [
                "run",
                "--method", "privtree",
                "--dataset", "gowalla",
                "--n", "2000",
                "--trace", str(trace_file),
            ]
        )
        assert code == 0
        assert f"record(s) written to {trace_file}" in capsys.readouterr().out
        # The CLI must uninstall its tracer on the way out.
        assert telemetry.current_tracer() is None

        records = telemetry.read_jsonl(trace_file)
        names = {r.name for r in records}
        assert "privtree.level" in names
        assert "accountant.spend" in names

        code = main(["trace", str(trace_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert f"{len(records)} record(s)" in out
        assert "privtree.level" in out

        chrome_file = tmp_path / "trace_chrome.json"
        code = main(["trace", str(trace_file), "--chrome", str(chrome_file)])
        assert code == 0
        assert "chrome trace written" in capsys.readouterr().out
        chrome = json.loads(chrome_file.read_text())
        assert len(chrome["traceEvents"]) == len(records)

    def test_federated_fit_trace_with_heartbeat_interval(self, capsys, tmp_path):
        from repro import telemetry

        trace_file = tmp_path / "fed_trace.jsonl"
        code = main(
            [
                "federated-fit",
                "--shards", "2",
                "--dataset", "gowalla",
                "--n", "2000",
                "--epsilon", "0.5",
                "--seed", "0",
                "--trace", str(trace_file),
                "--heartbeat-interval", "0",
            ]
        )
        assert code == 0
        capsys.readouterr()
        names = {r.name for r in telemetry.read_jsonl(trace_file)}
        assert "federated.round" in names
        assert "federated.collector" in names
        assert "accountant.spend" in names

    def test_trace_rejects_missing_file(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read trace"):
            main(["trace", str(tmp_path / "nope.jsonl")])


class TestFederatedFitCommand:
    def test_single_fit_matches_centralized_run(self, capsys, tmp_path):
        """The CLI's headline guarantee: federated == centralized, bit for bit."""
        import json

        fed_out = tmp_path / "federated.json"
        code = main(
            [
                "federated-fit",
                "--shards", "3",
                "--dataset", "gowalla",
                "--n", "2000",
                "--epsilon", "1.0",
                "--seed", "0",
                "--out", str(fed_out),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "3 shard collectors" in out
        assert "privtree/tree structure" in out

        central_out = tmp_path / "central.json"
        assert main(
            [
                "run",
                "--method", "privtree",
                "--dataset", "gowalla",
                "--n", "2000",
                "--epsilon", "1.0",
                "--seed", "0",
                "--out", str(central_out),
            ]
        ) == 0
        capsys.readouterr()
        fed = json.loads(fed_out.read_text())
        central = json.loads(central_out.read_text())
        assert fed["payload"] == central["payload"]

    def test_dims_per_split_builds_the_collectors(self, capsys, tmp_path):
        """``--param dims_per_split`` reaches the collectors, which own the
        split geometry: the release equals the centralized round-robin fit."""
        import json

        outs = {}
        for name, command in (
            ("federated", ["federated-fit", "--shards", "2"]),
            ("central", ["run", "--method", "privtree"]),
        ):
            outs[name] = tmp_path / f"{name}.json"
            assert main(
                command
                + [
                    "--dataset", "gowalla",
                    "--n", "2000",
                    "--epsilon", "1.0",
                    "--seed", "0",
                    "--param", "dims_per_split=1",
                    "--out", str(outs[name]),
                ]
            ) == 0
        capsys.readouterr()
        fed, central = (json.loads(outs[name].read_text()) for name in outs)
        assert fed["payload"] == central["payload"]

    @pytest.mark.parametrize(
        "value, message",
        [("1.5", "must be an integer"), ("5", r"must be in \[1, 2\]")],
    )
    def test_bad_dims_per_split_exits_with_one_line(self, value, message):
        with pytest.raises(SystemExit, match=message):
            main(
                [
                    "federated-fit",
                    "--shards", "2",
                    "--dataset", "gowalla",
                    "--n", "500",
                    "--param", f"dims_per_split={value}",
                ]
            )

    def test_epoch_series_persists_store(self, capsys, tmp_path):
        store = tmp_path / "epochs"
        code = main(
            [
                "federated-fit",
                "--shards", "3",
                "--dataset", "gowalla",
                "--n", "600",
                "--epsilon", "0.5",
                "--epochs", "3",
                "--window", "2",
                "--store", str(store),
                "--seed", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "epoch-0000" in out and "epoch-0002" in out
        assert "1.5 spent of 1.5" in out.replace("budget   : ", "")

        from repro.serve import ReleaseStore

        reloaded = ReleaseStore(store, create=False)
        assert reloaded.ids() == ["epoch-0000", "epoch-0001", "epoch-0002"]
        assert reloaded.latest("epoch-") == "epoch-0002"
        entry = reloaded.manifest_entry("epoch-0002")
        assert entry["params"]["window_epochs"] == [1, 2]

    def test_epochs_require_store(self):
        with pytest.raises(SystemExit, match="--store is required"):
            main(
                [
                    "federated-fit",
                    "--shards", "2",
                    "--dataset", "gowalla",
                    "--n", "200",
                    "--epochs", "2",
                ]
            )

    def test_rejects_one_shard(self):
        with pytest.raises(SystemExit, match="at least 2"):
            main(
                ["federated-fit", "--shards", "1", "--dataset", "gowalla"]
            )

    def test_rejects_sequence_dataset(self):
        with pytest.raises(SystemExit, match="unknown spatial dataset"):
            main(["federated-fit", "--dataset", "msnbc"])

    #: What a refused resume says, by the state of its checkpoint file.
    REFUSED_RESUMES = {
        "completed": "records a completed fit; nothing to resume",
        "missing": "no checkpoint at",
        "version-1": "unsupported checkpoint version 1",
        "not-an-object": "is not a federated fit checkpoint",
        "root-twice": "checkpoint split log: shard 0 names a node twice",
    }

    @pytest.mark.parametrize("checkpoint", list(REFUSED_RESUMES))
    def test_refused_resume_exits_with_one_line(self, checkpoint, capsys, tmp_path):
        import json

        from repro.federated.checkpoint import CHECKPOINT_FORMAT, FitCheckpoint

        path = tmp_path / "fit.ckpt"
        argv = [
            "federated-fit",
            "--shards", "3",
            "--dataset", "gowalla",
            "--n", "500",
            "--epsilon", "0.5",
            "--checkpoint", str(path),
        ]
        if checkpoint in ("completed", "root-twice"):
            assert main(argv) == 0
        if checkpoint == "root-twice":
            # The in-process resume replays the split log onto fresh
            # collectors before the fit sees that it is complete.
            state = FitCheckpoint(path).load()
            state["split_rounds"][0] = [0, 0]
            FitCheckpoint(path).save(state)
        elif checkpoint == "version-1":
            path.write_text(json.dumps({"format": CHECKPOINT_FORMAT, "version": 1}))
        elif checkpoint == "not-an-object":
            path.write_text("[]")
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--resume"])
        # A message as the exit code: one line on stderr, exit status 1.
        message = exc.value.code
        assert isinstance(message, str) and "\n" not in message
        assert self.REFUSED_RESUMES[checkpoint] in message


class TestRejectedParameterValues:
    """A parameter value the fit rejects is a one-line usage error on every
    fit command: no traceback, no file, no store entry, no spend."""

    #: Command prefix, the rejected --param, and the name its message gives.
    CASES = {
        "run": (
            ["run", "--method", "privtree", "--out", "{tmp}/out.json"],
            "tree_fraction=1.0",
            "tree_fraction",
        ),
        "store-put": (
            ["store", "put", "--store", "{tmp}/store", "--method", "privtree"],
            "tree_fraction=1.0",
            "tree_fraction",
        ),
        "federated-fit": (
            [
                "federated-fit", "--shards", "2",
                "--out", "{tmp}/out.json", "--store", "{tmp}/store",
            ],
            "tree_fraction=1.0",
            "tree_fraction",
        ),
        "federated-epochs": (
            ["federated-fit", "--shards", "2", "--epochs", "2", "--store", "{tmp}/store"],
            "tree_fraction=1.0",
            "tree_fraction",
        ),
        "simpletree-height": (
            ["run", "--method", "simpletree", "--out", "{tmp}/out.json"],
            "height=2.5",
            "height",
        ),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_exits_with_one_line_and_spends_nothing(self, case, monkeypatch, tmp_path):
        import repro.mechanisms
        from repro.serve import ReleaseStore

        accountants = []

        class Recorded(repro.mechanisms.PrivacyAccountant):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                accountants.append(self)

        monkeypatch.setattr(repro.mechanisms, "PrivacyAccountant", Recorded)
        prefix, param, name = self.CASES[case]
        argv = [arg.format(tmp=tmp_path) for arg in prefix] + [
            "--dataset", "gowalla",
            "--n", "500",
            "--epsilon", "1.0",
            "--param", param,
        ]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        # A message as the exit code: one line on stderr, exit status 1.
        message = exc.value.code
        assert isinstance(message, str) and "\n" not in message
        assert name in message
        assert not (tmp_path / "out.json").exists()
        store = tmp_path / "store"
        assert not store.exists() or not ReleaseStore(store, create=False).ids()
        assert accountants and all(not a.ledger for a in accountants)


class TestRejectedEpsilon:
    """A budget that is not a positive finite number is refused with one line
    naming ``--epsilon``, before any data is generated or budget spent."""

    #: Command prefix per fit command; each writes --out or a store entry.
    COMMANDS = {
        "run": ["run", "--method", "privtree", "--out", "{tmp}/out.json"],
        "store-put": ["store", "put", "--store", "{tmp}/store", "--method", "privtree"],
        "federated-fit": [
            "federated-fit", "--shards", "2",
            "--out", "{tmp}/out.json", "--store", "{tmp}/store",
        ],
    }

    @pytest.mark.parametrize("epsilon", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_exits_with_one_line(self, command, epsilon, monkeypatch, tmp_path):
        import repro.mechanisms
        from repro.serve import ReleaseStore

        accountants = []

        class Recorded(repro.mechanisms.PrivacyAccountant):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                accountants.append(self)

        monkeypatch.setattr(repro.mechanisms, "PrivacyAccountant", Recorded)
        argv = [arg.format(tmp=tmp_path) for arg in self.COMMANDS[command]] + [
            "--dataset", "gowalla", "--n", "500", "--epsilon", epsilon,
        ]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        # A message as the exit code: one line on stderr, exit status 1.
        message = exc.value.code
        assert isinstance(message, str) and "\n" not in message
        assert "--epsilon" in message
        assert not (tmp_path / "out.json").exists()
        store = tmp_path / "store"
        assert not store.exists() or not ReleaseStore(store, create=False).ids()
        assert not accountants


class TestRejectedTheta:
    """A split threshold that is not a finite number (a string such as
    ``nan``, which ``--param`` cannot read as a number, or a bool) is a
    one-line usage error on every command that fits a PrivTree."""

    COMMANDS = {
        "privtree": ["run", "--method", "privtree", "--dataset", "gowalla"],
        "simpletree": ["run", "--method", "simpletree", "--dataset", "gowalla"],
        "pst": ["run", "--method", "pst", "--dataset", "msnbc"],
        "federated-fit": ["federated-fit", "--shards", "2", "--dataset", "gowalla"],
    }

    @pytest.mark.parametrize("theta", ["abc", "nan", "True"])
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_exits_with_one_line(self, command, theta, tmp_path):
        argv = self.COMMANDS[command] + [
            "--n", "500", "--epsilon", "1.0",
            "--param", f"theta={theta}", "--out", str(tmp_path / "out.json"),
        ]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        message = exc.value.code
        assert isinstance(message, str) and "\n" not in message
        assert "theta must be a finite number" in message
        assert not (tmp_path / "out.json").exists()


class TestRejectedIntegerParams:
    """An integer fit parameter given as a bool, a fraction or out of range
    is a one-line usage error on every command that fits a spatial tree,
    and writes nothing."""

    COMMANDS = {
        "privtree": ["run", "--method", "privtree"],
        "simpletree": ["run", "--method", "simpletree"],
        "privtree_federated": ["run", "--method", "privtree_federated"],
        "store-put": ["store", "put", "--store", "{tmp}/store", "--method", "privtree"],
        "federated-fit": ["federated-fit", "--shards", "2"],
    }

    #: (command, parameter, refusal)
    CASES = [
        (command, param, "dims_per_split must be an integer")
        for command in ("privtree", "simpletree", "privtree_federated", "store-put")
        for param in ("dims_per_split=1.5", "dims_per_split=True")
    ] + [
        (command, param, refusal)
        for command in ("privtree", "privtree_federated", "store-put", "federated-fit")
        for param, refusal in [
            ("max_depth=-1", "max_depth must be at least 0"),
            ("max_depth=2.5", "max_depth must be an integer"),
            ("tuples_per_individual=2.5", "tuples_per_individual must be an integer"),
        ]
    ]

    @pytest.mark.parametrize(
        "command,param,refusal", CASES, ids=[f"{c}-{p}" for c, p, _ in CASES]
    )
    def test_exits_with_one_line(self, command, param, refusal, tmp_path):
        argv = [arg.format(tmp=tmp_path) for arg in self.COMMANDS[command]] + [
            "--dataset", "gowalla", "--n", "500", "--epsilon", "1.0",
            "--param", param,
        ]
        if command != "store-put":
            argv += ["--out", str(tmp_path / "out.json")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        message = exc.value.code
        assert isinstance(message, str) and "\n" not in message
        assert refusal in message
        assert not (tmp_path / "out.json").exists()
        assert not list((tmp_path / "store").glob("releases/*"))


class TestLedgerReconciliation:
    """Every CLI path that spends budget: the trace's spend events add up to
    ``--epsilon`` (per epoch), and no spend was rolled back."""

    #: Command prefix and epochs per case; each runs with --epsilon 0.5.
    CASES = {
        "run": (["run", "--method", "privtree"], 1),
        "store-put": (
            ["store", "put", "--store", "{tmp}/store", "--method", "privtree"],
            1,
        ),
        "federated-fit": (["federated-fit", "--shards", "3"], 1),
        "federated-epochs": (
            [
                "federated-fit",
                "--shards", "3",
                "--epochs", "3",
                "--store", "{tmp}/epochs",
            ],
            3,
        ),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_spend_events_sum_to_epsilon(self, case, capsys, tmp_path):
        from repro import telemetry

        prefix, epochs = self.CASES[case]
        argv = [arg.format(tmp=tmp_path) for arg in prefix] + [
            "--dataset", "gowalla",
            "--n", "2000",
            "--epsilon", "0.5",
            "--seed", "0",
        ]
        tracer = telemetry.enable()
        try:
            assert main(argv) == 0
        finally:
            telemetry.disable()
        capsys.readouterr()
        records = tracer.records
        assert not [r for r in records if r.name == "accountant.rollback"]
        spends = [r.attrs["epsilon"] for r in records if r.name == "accountant.spend"]
        assert spends
        assert sum(spends) == pytest.approx(0.5 * epochs, rel=1e-12)
