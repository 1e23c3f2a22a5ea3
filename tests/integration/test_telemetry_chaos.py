"""Acceptance: the chaos scenario under the full telemetry stack.

The ISSUE's headline criteria: a fixed-seed chaos run must yield at
least one SLO burn-rate alert that correlates in sim time with an
injected fault, and the TSDB export must be byte-identical across two
runs from the same seed.
"""

import pytest

from repro.obs.slo import correlate_alerts
from repro.workloads.chaos import NUM_LOADS, run_chaos

SEED = 101


@pytest.fixture(scope="module")
def telemetry_run():
    return run_chaos(SEED, telemetry=True)


class TestChaosTelemetry:
    def test_scenario_still_green_under_telemetry(self, telemetry_run):
        world, _plan, results, errors = telemetry_run
        assert not errors
        assert len(results) == NUM_LOADS
        assert world.attic_fully_redundant()

    def test_tsdb_scraped_the_fleet(self, telemetry_run):
        world, _plan, _results, _errors = telemetry_run
        tsdb = world.tsdb
        assert tsdb.scrapes > 100
        # Per-source prefixes keep fleet members distinguishable.
        assert tsdb.names("client/")
        assert tsdb.names("injector/")
        assert tsdb.names("h0/")
        assert tsdb.names("slo/")
        # Faults left their mark in the injector series.
        crashes = tsdb.get("injector/faults.node_crashes")
        assert crashes.points[-1][1] > 0

    def test_burn_rate_alert_fires_and_correlates_to_fault(
            self, telemetry_run):
        world, _plan, _results, _errors = telemetry_run
        firing = [e for e in world.slo_monitor.events
                  if e["state"] == "firing"]
        assert firing, "no burn-rate alert fired during chaos"
        fault_events = world.injector.events
        rows = correlate_alerts(firing, fault_events, lookback=10.0)
        correlated = [r for r in rows if r["causes"]]
        assert correlated, (
            f"no alert correlated to an injected fault; alerts at "
            f"{[e['t'] for e in firing]}, faults at "
            f"{[f['t'] for f in fault_events]}")
        # The cause precedes the alert within the lookback window.
        alert_t = float(correlated[0]["alert"]["t"])
        cause_t = float(correlated[0]["causes"][0]["t"])
        assert alert_t - 10.0 <= cause_t <= alert_t

    def test_every_alert_resolved_by_run_end(self, telemetry_run):
        world, _plan, _results, _errors = telemetry_run
        assert world.slo_monitor._active == {}
        fired = sum(1 for e in world.slo_monitor.events
                    if e["state"] == "firing")
        resolved = sum(1 for e in world.slo_monitor.events
                       if e["state"] == "resolved")
        assert fired == resolved

    def test_verdicts_cover_all_specs(self, telemetry_run):
        world, _plan, _results, _errors = telemetry_run
        verdicts = world.slo_monitor.verdicts()
        assert {v["slo"] for v in verdicts} == {
            spec.name for spec in world.slo_monitor.specs}
        violated = [v for v in verdicts if not v["met"]]
        assert violated, "chaos at 20% churn should violate something"


class TestTelemetryDeterminism:
    def test_same_seed_byte_identical_tsdb_and_slo_exports(self, tmp_path):
        paths = {}
        for tag in ("a", "b"):
            world, _plan, _results, _errors = run_chaos(SEED, telemetry=True)
            tsdb_path = tmp_path / f"tsdb_{tag}.jsonl"
            slo_path = tmp_path / f"slo_{tag}.jsonl"
            world.tsdb.export_jsonl(str(tsdb_path))
            world.slo_monitor.export_jsonl(str(slo_path))
            paths[tag] = (tsdb_path, slo_path)
        tsdb_a = paths["a"][0].read_bytes()
        assert tsdb_a == paths["b"][0].read_bytes()
        assert tsdb_a  # non-empty
        slo_a = paths["a"][1].read_bytes()
        assert slo_a == paths["b"][1].read_bytes()
        assert slo_a
