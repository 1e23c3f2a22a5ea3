#!/usr/bin/env python3
"""Zipf x fleet-size NoCDN offload benchmark (``make bench-nocdn``).

Sweeps collaborative-caching strategies over page popularity skew
(Zipf alpha 0.6 / 0.9 / 1.2) and fleet size (100 / 1k / 10k homes),
against the traditional-CDN edge baseline, and writes
``BENCH_nocdn.json`` at the repo root for the ``make bench-check``
regression gate. Every value in the file is a fact of the seeded
workload, so the gate compares it whole, by equality; what a 10k-home
cell costs in host time is the platform benchmark's ``nocdn_fleet_10k``.

Each cell replays the same seeded workload through
``run_nocdn_fleet_cell`` and records origin offload (fraction of
delivered bytes the origin did *not* have to send), byte hit ratio,
and aggregation-uplink traffic. The bench itself asserts the tentpole
claim: at 1k+ homes, sharded and replicate-hot placement strictly beat
the naive per-peer cache on origin offload at every skew. A
determinism probe runs the cheapest cell twice and requires identical
facts and byte-identical tsdb exports.
"""

import json
import os
import pathlib
import shutil
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
for entry in (str(REPO_ROOT), str(REPO_ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro.experiments.scenarios import run_nocdn_fleet_cell  # noqa: E402

OUT_PATH = REPO_ROOT / "BENCH_nocdn.json"

SEED = 7
ZIPFS = (0.6, 0.9, 1.2)
FLEETS = (100, 1_000, 10_000)
STRATEGIES = ("naive", "sharded", "replicate-hot", "cdn")
LOADS = {100: 120, 1_000: 240, 10_000: 360}
COLLABORATIVE = ("sharded", "replicate-hot")


def cell_key(zipf: float, fleet: int, strategy: str) -> str:
    # No dots: the regress gate addresses metrics by dotted path.
    alpha = f"{zipf:g}".replace(".", "p")
    return f"z{alpha}_f{fleet}_{strategy}"


def run_cell(zipf: float, fleet: int, strategy: str,
             out_dir: pathlib.Path) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    return run_nocdn_fleet_cell(
        SEED, {"fleet": fleet, "zipf": zipf, "strategy": strategy,
               "loads": LOADS[fleet]}, out_dir)


def determinism_probe(work_dir: pathlib.Path) -> dict:
    """The cheapest cell, twice: facts and tsdb bytes must match."""
    runs = []
    for tag in ("a", "b"):
        out = work_dir / f"determinism-{tag}"
        facts = run_cell(0.9, 100, "sharded", out)
        runs.append((facts, (out / "tsdb.jsonl").read_bytes()))
    (facts_a, tsdb_a), (facts_b, tsdb_b) = runs
    assert facts_a == facts_b, (
        f"same-seed facts diverged:\n{facts_a}\n{facts_b}")
    assert tsdb_a == tsdb_b, "same-seed tsdb export diverged"
    return {"cell": cell_key(0.9, 100, "sharded"),
            "facts_identical": True, "tsdb_identical": True}


def experiment() -> dict:
    work_dir = pathlib.Path(tempfile.mkdtemp(prefix="bench_nocdn_"))
    cells = {}
    try:
        for fleet in FLEETS:
            for zipf in ZIPFS:
                for strategy in STRATEGIES:
                    key = cell_key(zipf, fleet, strategy)
                    facts = run_cell(zipf, fleet, strategy, work_dir / key)
                    cells[key] = facts
                    print(f"{key:>26s}: offload {facts['origin_offload']:.4f}"
                          f"  hit {facts['byte_hit_ratio']:.4f}"
                          f"  loads {facts['loads_ok']}")
        determinism = determinism_probe(work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    # The tentpole claim: collaborative placement strictly beats the
    # naive per-peer cache at 1k+ homes, at every skew.
    violations = []
    for fleet in FLEETS:
        if fleet < 1_000:
            continue
        for zipf in ZIPFS:
            naive = cells[cell_key(zipf, fleet, "naive")]["origin_offload"]
            for strategy in COLLABORATIVE:
                got = cells[cell_key(zipf, fleet, strategy)]["origin_offload"]
                if not got > naive:
                    violations.append(
                        f"{cell_key(zipf, fleet, strategy)}: offload {got} "
                        f"not > naive {naive}")
    doc = {
        "bench": "nocdn_fleet",
        "seed": SEED,
        "zipfs": list(ZIPFS),
        "fleets": list(FLEETS),
        "strategies": list(STRATEGIES),
        "cells": cells,
        "determinism": determinism,
        "offload_gate": not violations,
    }
    with open(OUT_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(OUT_PATH)}")
    assert not violations, "offload gate failed:\n" + "\n".join(violations)
    return doc


def main() -> int:
    experiment()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
