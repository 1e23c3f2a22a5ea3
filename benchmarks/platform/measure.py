"""Run one workload: warm-up, set-up, measured phase; derive the metrics.

Host metrics are host time (``perf_counter`` / ``process_time``);
``sim_*`` values are simulated time and repeat exactly for a seed.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import json
import statistics
from time import perf_counter, process_time
from typing import Any, Dict, List, Optional, Tuple

import spans as spanlib
from repro.util.stats import percentile


def tail_q(n: int) -> float:
    """The highest quantile with at least ten samples beyond it; the
    maximum when there are fewer than twenty samples."""
    return (n - 10) / n if n >= 20 else 1.0


def digest_of(facts: Dict[str, Any]) -> str:
    return hashlib.sha256(
        json.dumps(facts, sort_keys=True).encode()).hexdigest()


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark. Read from /proc, not
    ``ru_maxrss``: that one survives exec, so a child would start at the
    peak of whatever process launched it."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def warm_up(cls: type, seed: int) -> None:
    """Build and run the 20-home variant once, untimed: GF(256) tables,
    LRU caches and lazy imports are paid here, not in a measured rep."""
    run_rep(cls, seed, small=True)


def run_rep(cls: type, seed: int, small: bool = False,
            rec: Optional[spanlib.Recorder] = None) -> Dict[str, Any]:
    """One fresh world: set-up, then the measured phase. With ``rec``
    the measured phase is recorded as spans (the patches must already be
    installed, so callbacks scheduled during set-up are wrapped too)."""
    gc.collect()  # the previous rep's world, outside every timed region
    t0 = perf_counter()
    world = cls(seed, small=small)
    setup_s = perf_counter() - t0
    sim = world.sim
    gc.collect()

    def root(name: str, layer: str, fn, *args):
        return rec.root(name, layer, fn, *args) if rec else fn(*args)

    events0 = sim.events_fired
    if rec is not None:
        rec.trace, rec.current, rec.active = 0, -1, True
    wall0, cpu0 = perf_counter(), process_time()
    root("bench.schedule", "workloads", world.schedule)
    slices: List[Tuple[float, float, int]] = []
    started = 0
    for edge in world.slice_edges():
        w, c = perf_counter(), process_time()
        root("sim.run_until", "sim", sim.run_until, edge)
        upto = bisect.bisect_right(world.op_times, edge)
        slices.append((perf_counter() - w, process_time() - c,
                       upto - started))
        started = upto
    root("sim.run", "sim", sim.run)
    root("bench.finish", "workloads", world.finish)
    wall, cpu = perf_counter() - wall0, process_time() - cpu0
    if rec is not None:
        rec.active = False
    rss_mb = peak_rss_mb()

    attempted = len(world.op_times)
    ok = world.completed()
    facts = world.facts()
    facts.update(attempted=attempted, ok=ok, failed=world.failed)
    tail = tail_q(ok) if ok else 1.0
    if ok:
        facts["sim_op_p50_ms"] = round(world.latency_quantile(0.5) * 1e3, 6)
        facts["sim_op_tail_ms"] = round(world.latency_quantile(tail) * 1e3, 6)
    problems = list(world.problems())
    if ok + world.failed != attempted:
        problems.append(f"attempted {attempted} != ok {ok} + failed "
                        f"{world.failed}: {attempted - ok - world.failed} "
                        f"operations never completed")
    rep = {
        "setup_s": setup_s, "wall_s": wall, "cpu_s": cpu,
        # Schedule push, drain and finish: the measured phase outside
        # the slices.
        "outside": (wall - sum(s[0] for s in slices),
                    cpu - sum(s[1] for s in slices)),
        "slices": slices, "attempted": attempted,
        # Failed or never completed both count against the attempt.
        "failed": attempted - ok,
        "events": sim.events_fired - events0, "rss_mb": rss_mb,
        "facts": facts, "digest": digest_of(facts), "problems": problems,
        "sim_tail_q": tail,
    }
    if rec is not None:
        rep["counts"] = world.counts()
        rep["op_latency"] = dict(world.op_latency)
    return rep


def steady_slices(reps: List[Dict[str, Any]],
                  clock: int) -> Tuple[float, List[float]]:
    """Every rep of a seed does identical work slice by slice, and
    interference on a shared box only ever adds time, so the least time
    any rep took for a slice is the steadiest estimate of its cost: one
    undisturbed rep of that slice is enough. Returns (outside-slices
    seconds, seconds per slice); ``clock`` 0 is wall, 1 is cpu."""
    outside = min(r["outside"][clock] for r in reps)
    per_slice = [min(r["slices"][k][clock] for r in reps)
                 for k in range(len(reps[0]["slices"]))]
    return outside, per_slice


def steady_seconds(reps: List[Dict[str, Any]], clock: int) -> float:
    """Measured-phase seconds of one rep, from per-slice minima."""
    outside, per_slice = steady_slices(reps, clock)
    return outside + sum(per_slice)


def slice_costs(reps: List[Dict[str, Any]]) -> List[float]:
    """ms of host wall per operation started, per slice that started
    any (per-slice minimum across the reps)."""
    _outside, per_slice = steady_slices(reps, 0)
    return [wall * 1e3 / ops for wall, (_w, _c, ops)
            in zip(per_slice, reps[0]["slices"]) if ops]


def end_to_end(reps: List[Dict[str, Any]]) -> Dict[str, float]:
    ops = reps[0]["attempted"]
    return {
        "host_ms_per_op": steady_seconds(reps, 0) * 1e3 / ops,
        "cpu_ms_per_op": steady_seconds(reps, 1) * 1e3 / ops,
        "slice_ms_per_op_p75": percentile(slice_costs(reps), 75),
        "peak_rss_mb": max(r["rss_mb"] for r in reps),
        "setup_s": statistics.median(r["setup_s"] for r in reps),
    }


# -- per-layer metrics of the traced rep ----------------------------------------------


def _per_call_ms(names: Dict[str, Dict[str, float]], name: str,
                 per: float) -> float:
    row = names.get(name)
    return row["total_s"] * 1e3 / per if row and per else 0.0


def per_layer(names_wanted: List[str], traced: Dict[str, Any],
              untraced: List[Dict[str, Any]],
              rec: spanlib.Recorder) -> Dict[str, float]:
    """Every per-layer metric BENCHMARK.json names, 0 where the workload
    does not touch the layer."""
    out = {name: 0.0 for name in names_wanted}
    wall = traced["wall_s"]
    layers = spanlib.by_layer(rec.spans)
    names = spanlib.by_name(rec.spans)
    attributed = 0.0
    for layer in spanlib.LAYERS:
        row = layers.get(layer, {"self_s": 0.0, "calls": 0})
        out[f"{layer}.self_s"] = row["self_s"]
        out[f"{layer}.share"] = row["self_s"] / wall
        out[f"{layer}.calls"] = row["calls"]
        attributed += row["self_s"]
    out["trace.unattributed_share"] = max(0.0, 1.0 - attributed / wall)
    untraced_wall = steady_seconds(untraced, 0)
    out["trace.overhead_ratio"] = wall / untraced_wall

    def calls(name: str) -> float:
        return names.get(name, {}).get("calls", 0)

    ops = traced["attempted"]
    events = traced["events"]
    # Engine cost per event comes from the untraced rep: the traced
    # one carries the span bookkeeping.
    out["sim.events"] = events
    out["sim.events_per_s"] = events / untraced_wall
    out["sim.us_per_event"] = untraced_wall * 1e6 / max(1, events)
    out["sim.peak_pending"] = rec.peak_pending
    out["sim.slice_ms_per_op_p50"] = percentile(slice_costs(untraced), 50)
    out["sim.op_p50_ms"] = traced["facts"].get("sim_op_p50_ms", 0.0)
    out["sim.op_tail_ms"] = traced["facts"].get("sim_op_tail_ms", 0.0)
    lookups = calls("Network.path_between")
    out["net.path_lookups"] = lookups
    out["net.path_us_per_lookup"] = _per_call_ms(
        names, "Network.path_between", lookups) * 1e3
    flows = calls("TcpConnection.transfer")
    out["transport.flows"] = flows
    out["transport.flows_failed"] = flows - rec.tally.get(
        "transport.flows_completed", 0)
    out["transport.events_per_flow"] = (
        layers.get("transport", {"calls": 0})["calls"] / flows
        if flows else 0.0)
    out["transport.mb_moved"] = rec.tally.get("transport.bytes", 0) / 2**20
    out["http.requests"] = calls("HttpClient.request")
    out["http.errors"] = rec.tally.get("http.errors", 0)
    looked = rec.tally.get("http.cache_lookups", 0)
    out["http.cache_hit_ratio"] = (
        rec.tally.get("http.cache_hits", 0) / looked if looked else 0.0)
    out["nocdn.wrapper_ms"] = _per_call_ms(
        names, "ContentProvider.build_wrapper", ops)
    out["nocdn.alive_scan_ms"] = _per_call_ms(
        names, "ContentProvider.alive_peers", ops)
    out["nocdn.assign_ms"] = _per_call_ms(
        names, "StrategySelection.assign", ops)
    out["nocdn.ring_owner_calls"] = calls("HashRing.owner")
    out["nocdn.ring_owner_ms"] = _per_call_ms(names, "HashRing.owner", ops)
    membership = ("ContentProvider.register_peer",
                  "ContentProvider.expel_peer",
                  "ContentProvider.quarantine_peer")
    member_calls = sum(calls(n) for n in membership)
    out["nocdn.membership_ms"] = sum(
        _per_call_ms(names, n, member_calls) for n in membership)
    out["erasure.encode_mb_per_s"] = _rate(
        rec.tally.get("erasure.encode_bytes", 0),
        names.get("ReedSolomonCodec.encode"))
    out["erasure.decode_mb_per_s"] = _rate(
        rec.tally.get("erasure.decode_bytes", 0),
        names.get("ReedSolomonCodec.decode"))
    out["dcol.subflows"] = calls("MptcpConnection.add_subflow")
    scrapes = calls("TimeSeriesDB.scrape")
    out["obs.scrape_ms"] = _per_call_ms(names, "TimeSeriesDB.scrape",
                                        scrapes)
    out["obs.slo_evals"] = calls("SloMonitor.evaluate")
    # Home-Box tier latencies: a page load's tier is the deepest one any
    # of its objects needed.
    by_tier: Dict[int, List[float]] = {0: [], 1: [], 2: []}
    if out["nocdn.wrapper_ms"]:
        for op, latency in traced["op_latency"].items():
            by_tier[rec.op_tier.get(op + 1, 0)].append(latency)
    for tier, label in enumerate(("local", "neighbor", "origin")):
        if by_tier[tier]:
            out[f"nocdn.tier_{label}_sim_ms"] = (
                statistics.fmean(by_tier[tier]) * 1e3)
    for name, value in traced["counts"].items():
        out[name] = float(value)
    unnamed = sorted(set(out) - set(names_wanted))
    if unnamed:
        raise KeyError(f"metrics BENCHMARK.json does not name: {unnamed}")
    return out


def _rate(nbytes: float, row: Optional[Dict[str, float]]) -> float:
    if not row or not row["total_s"]:
        return 0.0
    return nbytes / 2**20 / row["total_s"]
