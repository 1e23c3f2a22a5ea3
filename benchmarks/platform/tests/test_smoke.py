"""A 20-home smoke of every workload: fast, correct, deterministic."""

import json
import pathlib
from time import perf_counter

import pytest

import measure
import scenarios
import spans as spanlib

ROOT = pathlib.Path(__file__).resolve().parents[3]
NAMES = list(scenarios.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_small_variant_is_fast_and_loses_no_operation(name):
    cls = scenarios.WORKLOADS[name]
    measure.warm_up(cls, 7)
    t0 = perf_counter()
    rep = measure.run_rep(cls, 7, small=True)
    assert perf_counter() - t0 < 2.0
    assert rep["attempted"] > 0
    assert rep["failed"] == 0 and rep["problems"] == []
    assert rep["facts"]["attempted"] == rep["facts"]["ok"]
    assert sum(ops for _w, _c, ops in rep["slices"]) == rep["attempted"]


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_digest_other_seed_other_digest(name):
    cls = scenarios.WORKLOADS[name]
    a = measure.run_rep(cls, 7, small=True)
    b = measure.run_rep(cls, 7, small=True)
    c = measure.run_rep(cls, 11, small=True)
    assert a["digest"] == b["digest"]
    assert a["facts"] == b["facts"]
    assert a["digest"] != c["digest"]


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_changes_no_simulated_fact_and_attributes_the_wall(name):
    cls = scenarios.WORKLOADS[name]
    untraced = measure.run_rep(cls, 7, small=True)
    rec = spanlib.Recorder()
    patched = spanlib.install(rec)
    try:
        traced = measure.run_rep(cls, 7, small=True, rec=rec)
    finally:
        spanlib.uninstall(patched)
    assert traced["digest"] == untraced["digest"]
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in contract["per_layer"]]
    metrics = measure.per_layer(names, traced, [untraced], rec)
    assert list(metrics) == names
    # The full-size run must stay under 0.02; a smoke lasts milliseconds,
    # so the bookkeeping between its slices weighs more.
    assert metrics["trace.unattributed_share"] <= 0.05
    shares = sum(metrics[f"{layer}.share"] for layer in spanlib.LAYERS)
    assert abs(shares + metrics["trace.unattributed_share"] - 1.0) < 1e-9
    assert all(isinstance(v, (int, float)) for v in metrics.values())


def test_layers_a_workload_bypasses_read_zero():
    def layer_calls(cls):
        rec = spanlib.Recorder()
        patched = spanlib.install(rec)
        try:
            measure.run_rep(cls, 7, small=True, rec=rec)
        finally:
            spanlib.uninstall(patched)
        return {layer: row["calls"]
                for layer, row in spanlib.by_layer(rec.spans).items()}

    attic = layer_calls(scenarios.AtticBackupRepair)
    assert "nocdn" not in attic and attic["erasure"] > 0
    nocdn = layer_calls(scenarios.NocdnChurn3k)
    assert "obs" not in nocdn and nocdn["nocdn"] > 0
    detour = layer_calls(scenarios.DetourPrefetch)
    assert not {"nocdn", "attic", "obs"} & set(detour)
    assert detour["dcol"] > 0 and detour["iah"] > 0


def test_slice_minima_drop_bursts_that_hit_different_reps():
    def rep(slow_slice):
        return {"outside": (0.5, 0.5), "attempted": 4,
                "slices": [(9.0 if slow_slice == k else 1.0, 1.0, 2)
                           for k in range(2)]}

    reps = [rep(0), rep(1), rep(None)]
    assert measure.steady_seconds(reps, 0) == 2.5
    assert measure.slice_costs(reps) == [500.0, 500.0]
    # Two reps are enough as long as each slice ran undisturbed once.
    assert measure.steady_seconds(reps[:2], 0) == 2.5


def test_tail_quantile_keeps_ten_samples_beyond_it():
    assert measure.tail_q(19) == 1.0
    assert measure.tail_q(20) == 0.5
    assert measure.tail_q(1000) == 0.99
