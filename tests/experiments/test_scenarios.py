"""The built-in study scenarios (``chaos``, ``fleet``, ``nocdn_fleet``)
run as cells: facts, artifacts and same-seed byte identity."""

import json
import pathlib
import runpy

import pytest

from repro.experiments.scenarios import (
    BUILTIN_SCENARIOS,
    resolve_scenario,
    run_chaos_cell,
    run_fleet_cell,
    run_nocdn_fleet_cell,
)

REPO = pathlib.Path(__file__).resolve().parents[2]
NOCDN_SEED = 7
NOCDN_PARAMS = {"fleet": 100, "zipf": 0.9, "loads": 80}
STRATEGIES = ("naive", "sharded", "replicate-hot")
# (total_bytes, origin_egress_bytes) of seed 7, as another process
# computed them. Two runs in one process share a string-hash seed, so
# the run-twice comparison below cannot see a set's iteration order
# leaking into the load schedule; these numbers can.
NOCDN_PINNED = {
    "naive": (47_959_227, 46_799_819),
    "sharded": (47_959_227, 13_135_772),
    "replicate-hot": (47_959_227, 13_686_873),
}


def test_builtin_names_resolve():
    assert set(BUILTIN_SCENARIOS) == {"chaos", "fleet", "nocdn_fleet"}
    assert resolve_scenario("nocdn_fleet") is run_nocdn_fleet_cell


class TestNocdnFleetCell:
    """A 100-home mini fleet per placement strategy — the cheap twin of
    the ``make bench-nocdn`` sweep."""

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        """strategy -> two same-seed ``(facts, tsdb.jsonl bytes)``."""
        runs = {}
        for strategy in STRATEGIES:
            for tag in ("a", "b"):
                out = tmp_path_factory.mktemp(f"{strategy}-{tag}")
                facts = run_nocdn_fleet_cell(
                    NOCDN_SEED, dict(NOCDN_PARAMS, strategy=strategy), out)
                runs.setdefault(strategy, []).append(
                    (facts, (out / "tsdb.jsonl").read_bytes()))
        return runs

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_every_load_completes(self, runs, strategy):
        facts, _tsdb = runs[strategy][0]
        assert facts["loads_ok"] == NOCDN_PARAMS["loads"]
        assert facts["load_errors"] == 0

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_same_seed_same_facts_and_bytes(self, runs, strategy):
        (facts_a, tsdb_a), (facts_b, tsdb_b) = runs[strategy]
        assert facts_a == facts_b
        assert tsdb_a and tsdb_a == tsdb_b
        assert (facts_a["total_bytes"], facts_a["origin_egress_bytes"]) \
            == NOCDN_PINNED[strategy]

    @pytest.mark.parametrize("strategy", ["sharded", "replicate-hot"])
    def test_collaborative_placement_beats_naive(self, runs, strategy):
        assert runs[strategy][0][0]["origin_offload"] \
            > runs["naive"][0][0]["origin_offload"]


@pytest.mark.parametrize("strategy", ["naive", "sharded", "replicate-hot",
                                      "cdn"])
def test_fleet_cell_reproduces_the_committed_sweep(tmp_path, strategy):
    # Every fact of the 100-home cells of ``make bench-nocdn``, the cdn
    # baseline included: the world the cell builds must not move.
    committed = json.loads((REPO / "BENCH_nocdn.json").read_text())
    facts = run_nocdn_fleet_cell(
        NOCDN_SEED, {"fleet": 100, "zipf": 0.9, "strategy": strategy,
                     "loads": 120}, tmp_path)
    assert facts == committed["cells"][f"z0p9_f100_{strategy}"]


class TestChaosCell:
    def test_lean_cell_survives_and_exports(self, tmp_path):
        facts = run_chaos_cell(101, {"trace": False, "profile": False},
                               tmp_path)
        assert facts["loads_ok"] == 40
        assert facts["load_errors"] == 0
        assert facts["node_crashes"] > 0
        assert facts["attic_redundant"]
        assert "control_actions" not in facts
        assert sorted(p.name for p in tmp_path.iterdir()) \
            == ["faults.jsonl", "slo.jsonl", "tsdb.jsonl"]

    def test_full_cell_acts_links_and_exports_everything(self, tmp_path):
        """Every ride-along at once: controller, tail sampling and
        exemplar-linked alerts on top of the default trace + profile."""
        facts = run_chaos_cell(
            101, {"controller": True, "sampling": 0.1, "exemplars": True},
            tmp_path)
        assert facts["loads_ok"] == 40
        assert facts["load_errors"] == 0
        assert facts["attic_redundant"]
        assert facts["control_actions"] > 0
        assert facts["control_decisions"] >= facts["control_actions"]
        assert 0 < facts["traces_kept"] < facts["traces_seen"]
        assert facts["sampler_pins_missed"] == 0
        assert facts["alerts_with_exemplar"] == facts["alerts_fired"] > 0
        assert sorted(p.name for p in tmp_path.iterdir()) \
            == ["control.jsonl", "faults.jsonl", "profile.collapsed",
                "profile.json", "slo.jsonl", "trace.jsonl", "tsdb.jsonl"]
        assert all(p.stat().st_size for p in tmp_path.iterdir())

    @pytest.fixture(scope="class")
    def profiled_twice(self, tmp_path_factory):
        """The default cell (tracer + loop profiler) run twice."""
        dirs = [tmp_path_factory.mktemp(f"profiled-{tag}") for tag in "ab"]
        for out in dirs:
            run_chaos_cell(101, {}, out)
        return dirs

    def test_profiled_cell_trace_is_byte_identical(self, profiled_twice):
        """Host time lives in profile.json alone: attaching the
        profiler leaves trace.jsonl a function of the seed."""
        a, b = profiled_twice
        blob = (a / "trace.jsonl").read_bytes()
        assert blob and blob == (b / "trace.jsonl").read_bytes()
        assert (a / "profile.json").stat().st_size

    def test_trace_report_text_is_byte_identical(self, profiled_twice,
                                                 capsys):
        script = REPO / "scripts" / "trace_report.py"
        main = runpy.run_path(str(script))["main"]
        texts = []
        for out in profiled_twice:
            assert main([str(out / "trace.jsonl")]) == 0
            texts.append(capsys.readouterr().out)
        assert "== Trace hotspots by event label ==" in texts[0]
        assert texts[0] == texts[1]

    def test_dashboard_chaos_run_is_the_controller_cell(self, tmp_path,
                                                       capsys):
        """``dashboard_report.py --chaos`` runs the cell with the
        controller on: every seeded export is the cell's, byte for
        byte."""
        script = REPO / "scripts" / "dashboard_report.py"
        main = runpy.run_path(str(script))["main"]
        board, cell = tmp_path / "board", tmp_path / "cell"
        cell.mkdir()
        assert main(["--chaos", "--seed", "101",
                     "--out-dir", str(board)]) == 0
        capsys.readouterr()
        run_chaos_cell(101, {"controller": True}, cell)
        for name in ("trace.jsonl", "tsdb.jsonl", "faults.jsonl",
                     "slo.jsonl", "control.jsonl"):
            blob = (board / name).read_bytes()
            assert blob and blob == (cell / name).read_bytes(), name


class TestFleetCell:
    CLASSIC = {"homes": 2000, "sim_seconds": 20.0}
    GOVERNED = dict(CLASSIC, per_home_metrics=True, requests=20,
                    sampling=0.5)

    def run_twice(self, params, tmp_path, artifacts):
        """The facts of two same-seed runs, once their facts and every
        artifact have compared equal."""
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir()
        b.mkdir()
        facts = run_fleet_cell(5, params, a)
        assert run_fleet_cell(5, params, b) == facts
        assert sorted(p.name for p in a.iterdir()) == artifacts
        for name in artifacts:
            blob = (a / name).read_bytes()
            assert blob and blob == (b / name).read_bytes()
        return facts

    def test_classic_cell_byte_identical(self, tmp_path):
        facts = self.run_twice(self.CLASSIC, tmp_path, ["tsdb.jsonl"])
        assert set(facts) == {"homes", "scrapes", "up_bytes"}
        assert facts["scrapes"] == 21
        assert facts["up_bytes"] > 0

    def test_governed_cell_byte_identical(self, tmp_path):
        facts = self.run_twice(self.GOVERNED, tmp_path,
                               ["trace.jsonl", "tsdb.jsonl"])
        assert facts["rollup_cohorts"] == 2
        # 2 cohorts x (3 metrics + 2 rollup rows + top-8 x 3), the
        # fleet and focus registries, one callback: not 2000 x 3.
        assert facts["scrape_rows"] == 70
        assert facts["requests_ok"] == 20
        assert facts["request_errors"] == 0
        assert 0 < facts["traces_kept"] < facts["traces_seen"]
