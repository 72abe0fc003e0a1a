"""Smoke tests for the repro.bench.perf microbenchmark CLI."""

import json

from repro.bench.perf import SCHEMA, main, run_suite


class TestRunSuite:
    def test_small_suite_has_all_sections(self):
        report = run_suite(arity=3, depth=2, seed=0)
        results = report["results"]["current"]
        for name in ("round_loop", "engine", "churn_refresh", "match_cache"):
            assert name in results
            assert results[name]["seconds"] >= 0
        assert report["schema"] == SCHEMA
        assert results["round_loop"]["digest"]
        assert results["round_loop"]["active_count_final"] == 0
        assert results["round_loop"]["cache_stats"]["table_hits"] > 0


class TestCli:
    def test_writes_well_formed_report(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = main(
            ["--arity", "3", "--depth", "2", "--output", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema"] == SCHEMA
        assert report["config"]["members"] == 9
        assert "round_loop" in report["results"]["current"]
        assert str(out) in capsys.readouterr().out

    def test_baseline_merge_computes_speedups(self, tmp_path):
        base = tmp_path / "base.json"
        out = tmp_path / "bench.json"
        main(
            [
                "--arity", "3", "--depth", "2",
                "--bench", "round_loop",
                "--output", str(base),
            ]
        )
        main(
            [
                "--arity", "3", "--depth", "2",
                "--bench", "round_loop",
                "--baseline", str(base),
                "--output", str(out),
            ]
        )
        report = json.loads(out.read_text())
        entry = report["speedup_vs_baseline"]["round_loop"]
        assert entry["identical_results"] is True
        assert entry["speedup"] > 0
