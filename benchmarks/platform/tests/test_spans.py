"""Span arithmetic, the module -> layer map, and patch hygiene."""

import importlib
import pathlib
import pkgutil

import pytest

import measure
import scenarios
import spans as spanlib

ROOT = pathlib.Path(__file__).resolve().parents[3]


def hand_built_tree() -> spanlib.Spans:
    """A slice with two callbacks; the first calls two entry points.

        0 slice      [0, 10]  sim
        1  callback  [1, 6]   nocdn    within 0
        2   entry    [2, 3]   http     within 1
        3   entry    [3, 5]   net      within 1
        4    entry   [4, 5]   net      within 3
        5  callback  [7, 9]   obs      within 0, caused by span 1
    """
    tree = spanlib.Spans()
    tree.add("sim.run_until", "sim", 0.0, 10.0)
    tree.add("cb", "nocdn", 1.0, 6.0, parent=-1, trace=1, within=0)
    tree.add("HttpClient.request", "http", 2.0, 3.0, parent=1, trace=1,
             within=1)
    tree.add("Network.path_between", "net", 3.0, 5.0, parent=1, trace=1,
             within=1)
    tree.add("Network.path_between", "net", 4.0, 5.0, parent=3, trace=1,
             within=3)
    tree.add("cb2", "obs", 7.0, 9.0, parent=1, trace=1, within=0)
    return tree


def test_self_time_is_duration_minus_what_runs_within():
    tree = hand_built_tree()
    assert spanlib.self_times(tree) == [3.0, 2.0, 1.0, 1.0, 1.0, 2.0]
    layers = spanlib.by_layer(tree)
    assert {k: v["self_s"] for k, v in layers.items()} == {
        "sim": 3.0, "nocdn": 2.0, "http": 1.0, "net": 2.0, "obs": 2.0}
    # Self times partition the root: nothing is counted twice or lost.
    assert sum(v["self_s"] for v in layers.values()) == 10.0
    assert layers["net"]["calls"] == 2


def test_causal_parent_does_not_move_self_time():
    """Span 5 was caused by span 1 but ran within the slice: its time
    comes out of the slice's self time, not out of span 1's."""
    tree = hand_built_tree()
    own = spanlib.self_times(tree)
    assert own[1] == 2.0 and own[0] == 3.0


def test_entry_point_totals_are_inclusive():
    names = spanlib.by_name(hand_built_tree())
    assert names["Network.path_between"] == {"total_s": 3.0, "calls": 2}
    assert "cb" not in names


def repro_modules():
    import repro

    return ["repro"] + [m.name for m in pkgutil.walk_packages(
        repro.__path__, prefix="repro.")]


def test_every_repro_module_maps_to_exactly_one_layer():
    modules = repro_modules()
    assert len(modules) > 80
    for module in modules:
        assert spanlib.layer_of_module(module) in spanlib.LAYERS, module
    assert spanlib.layer_of_module("repro.util.erasure") == "erasure"
    assert spanlib.layer_of_module("repro.util.lru") == "other"
    assert spanlib.layer_of_module("repro.nocdn.strategy") == "nocdn"
    # The load generator is charged to "workloads"; anything else is
    # unattributed rather than guessed.
    assert spanlib.layer_of_module("scenarios") == "workloads"
    assert spanlib.layer_of_module("tests.integration.test_chaos") \
        == "workloads"
    assert spanlib.layer_of_module("heapq") is None


def test_every_layer_but_sim_has_an_entry_point_or_a_package():
    packaged = {spanlib.layer_of_module(m) for m in repro_modules()}
    assert set(spanlib.LAYERS) == packaged


def patched_attributes():
    from repro.sim.engine import Simulator

    yield Simulator, "at"
    yield scenarios, "begin_op"
    for entry in spanlib.ENTRY_POINTS:
        yield (getattr(importlib.import_module(entry.module), entry.cls),
               entry.method)


def test_every_wrapped_attribute_is_restored_after_a_traced_run():
    before = [(owner, attr, owner.__dict__[attr])
              for owner, attr in patched_attributes()]
    rec = spanlib.Recorder()
    patched = spanlib.install(rec)
    try:
        assert all(owner.__dict__[attr] is not orig
                   for owner, attr, orig in before)
        rep = measure.run_rep(scenarios.NocdnDense100, 7, small=True,
                              rec=rec)
    finally:
        spanlib.uninstall(patched)
    assert len(rec.spans) > 100 and rep["failed"] == 0
    for owner, attr, orig in before:
        assert owner.__dict__[attr] is orig, (owner, attr)


def test_install_restores_even_when_the_run_raises():
    from repro.sim.engine import Simulator

    orig = Simulator.__dict__["at"]
    patched = spanlib.install(spanlib.Recorder())
    with pytest.raises(ZeroDivisionError):
        try:
            1 / 0
        finally:
            spanlib.uninstall(patched)
    assert Simulator.__dict__["at"] is orig


def test_benchmark_json_names_what_the_harness_prints():
    import json

    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in contract["workloads"]] \
        == list(scenarios.WORKLOADS)
    for entry in contract["workloads"]:
        assert entry["why"] == scenarios.WORKLOADS[entry["name"]].why
    rep = measure.run_rep(scenarios.DetourPrefetch, 7, small=True)
    assert list(measure.end_to_end([rep])) \
        == [m["name"] for m in contract["end_to_end"]]
    layers = {m["name"].split(".")[0] for m in contract["per_layer"]}
    assert layers == set(spanlib.LAYERS) | {"trace"}
