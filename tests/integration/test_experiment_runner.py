"""Tests for the standalone experiment runner."""

import pathlib

import pytest

from repro.experiments import discover, find_benchmarks_dir, load_experiment, run

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


class TestDiscovery:
    def test_finds_benchmarks_dir(self):
        bench_dir = find_benchmarks_dir(REPO_ROOT)
        assert bench_dir.name == "benchmarks"

    def test_discovers_all_experiments(self):
        experiments = discover(REPO_ROOT / "benchmarks")
        # 13 paper experiments + 8 ablations.
        assert len(experiments) == 21
        assert "e1" in experiments and "e13" in experiments
        assert "a1" in experiments and "a8" in experiments

    def test_ids_match_filenames(self):
        experiments = discover(REPO_ROOT / "benchmarks")
        for exp_id, path in experiments.items():
            assert path.name.startswith(f"bench_{exp_id}_")


class TestExecution:
    def test_load_and_run_one(self):
        experiments = discover(REPO_ROOT / "benchmarks")
        experiment = load_experiment(experiments["e2"])
        report = experiment()
        assert report.experiment_id == "E2"
        assert report.all_claims_hold

    def test_run_lists_when_no_ids(self, capsys):
        code = run([], bench_dir=REPO_ROOT / "benchmarks")
        out = capsys.readouterr().out
        assert code == 0
        assert "e1" in out and "a5" in out

    def test_run_unknown_id(self, capsys):
        code = run(["zz9"], bench_dir=REPO_ROOT / "benchmarks")
        assert code == 2
        assert "unknown" in capsys.readouterr().out

    def test_run_selected(self, capsys):
        code = run(["e2"], bench_dir=REPO_ROOT / "benchmarks")
        out = capsys.readouterr().out
        assert code == 0
        assert "== E2: " in out
        assert "1 experiment(s) run, 1 fully passing, 4 claim checks" in out
