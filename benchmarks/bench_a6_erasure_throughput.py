"""A6 (ablation) — erasure codec throughput: bulk GF(256) vs per-byte.

The peer-backup path (SIV-A) erasure-codes every attic file, so encode
throughput bounds how fast an HPoP can push backups and decode
throughput bounds restore/repair latency. This bench measures MB/s on
1 MiB payloads across RS geometries, compares against the seed's
per-byte encode loop (the pre-rewrite implementation, reproduced here
as the baseline), reports the decode-matrix cache hit rate, and writes
a fresh ``BENCH_erasure.json`` under ``artifacts/bench/`` for
``scripts/bench_regress.py`` to compare with the committed one.
"""

import time

from repro.experiments.benchrun import write_bench_file
from repro.metrics.report import ExperimentReport
from repro.util.erasure import ReedSolomonCodec, build_generator_matrix, gf_mul
from repro.util.units import mib

PAYLOAD_SIZE = mib(1)
GEOMETRIES = ((4, 2), (6, 3), (10, 4))
BASELINE_GEOMETRY = (10, 4)
DECODE_REPEATS = 8   # per codec: one cache miss, seven hits (0.875)
TIMED_CALLS = 5      # of which the last five are timed


def _baseline_encode_per_byte(payload: bytes, k: int, m: int) -> float:
    """The seed's encode: per-byte matrix-vector products (for speedup ref)."""
    parity_rows = [row for row in build_generator_matrix(k, m)[k:]]
    shard_len = (len(payload) + k - 1) // k
    padded = payload.ljust(shard_len * k, b"\x00")
    data_shards = [bytearray(padded[i * shard_len:(i + 1) * shard_len])
                   for i in range(k)]
    parity_shards = [bytearray(shard_len) for _ in range(m)]
    t0 = time.perf_counter()
    for byte_idx in range(shard_len):
        column = [shard[byte_idx] for shard in data_shards]
        for p, row in enumerate(parity_rows):
            acc = 0
            for coeff, value in zip(row, column):
                acc ^= gf_mul(coeff, value)
            parity_shards[p][byte_idx] = acc
    return time.perf_counter() - t0


def _best_seconds(call, warmups: int):
    """(seconds, result) of the fastest of ``TIMED_CALLS`` calls after
    ``warmups`` untimed ones: what the kernel costs, not what a first
    call pays once (numpy's import on encode, Gauss-Jordan on decode)."""
    for _ in range(warmups):
        call()
    best = float("inf")
    for _ in range(TIMED_CALLS):
        t0 = time.perf_counter()
        result = call()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _measure(k: int, m: int, payload: bytes):
    codec = ReedSolomonCodec(k, m)
    encode_s, shards = _best_seconds(lambda: codec.encode(payload), warmups=1)

    # Worst-case erasure: all m parity shards must substitute for data.
    survivors = shards[m:]
    decode_s, decoded = _best_seconds(lambda: codec.decode(survivors),
                                      warmups=DECODE_REPEATS - TIMED_CALLS)
    assert decoded == payload, f"decode mismatch at RS({k},{m})"

    mb = len(payload) / 1e6
    return (mb / encode_s, mb / decode_s,
            codec.decode_cache_stats.hit_rate)


def experiment():
    report = ExperimentReport(
        "A6", "Erasure codec throughput (1 MiB payloads)",
        columns=("geometry", "encode MB/s", "decode MB/s",
                 "decode-cache hit rate"))
    payload = bytes((i * 31 + 7) % 256 for i in range(PAYLOAD_SIZE))

    rows = {}
    for k, m in GEOMETRIES:
        encode_mbs, decode_mbs, hit_rate = _measure(k, m, payload)
        rows[(k, m)] = (encode_mbs, decode_mbs, hit_rate)
        report.add_row(f"RS({k},{m})", encode_mbs, decode_mbs, hit_rate)

    bk, bm = BASELINE_GEOMETRY
    baseline_s = _baseline_encode_per_byte(payload, bk, bm)
    baseline_mbs = (len(payload) / 1e6) / baseline_s
    speedup = rows[BASELINE_GEOMETRY][0] / baseline_mbs
    report.add_row("RS(10,4) per-byte seed loop", baseline_mbs, "-", "-")

    report.check(
        "table-driven encode is >= 10x the seed's per-byte loop",
        "speedup >= 10x at RS(10,4) on 1 MiB",
        f"{speedup:.0f}x ({rows[BASELINE_GEOMETRY][0]:.1f} vs "
        f"{baseline_mbs:.2f} MB/s)",
        speedup >= 10.0)
    report.check(
        "repeated repairs hit the cached decode matrix",
        f"hit rate >= {1 - 1 / DECODE_REPEATS - 0.05:.2f} over "
        f"{DECODE_REPEATS} same-pattern decodes",
        f"{rows[BASELINE_GEOMETRY][2]:.3f}",
        rows[BASELINE_GEOMETRY][2] >= 1 - 1 / DECODE_REPEATS - 0.05)
    report.check(
        "encode keeps up with a gigabit backup pipe",
        "encode >= 25 MB/s on every geometry",
        ", ".join(f"RS({k},{m})={rows[(k, m)][0]:.0f}"
                  for k, m in GEOMETRIES),
        all(rows[g][0] >= 25.0 for g in GEOMETRIES))

    path = write_bench_file("BENCH_erasure.json", {
        "experiment": "A6",
        "payload_bytes": PAYLOAD_SIZE,
        "geometries": {
            f"RS({k},{m})": {
                "encode_mb_per_s": round(rows[(k, m)][0], 2),
                "decode_mb_per_s": round(rows[(k, m)][1], 2),
                "decode_cache_hit_rate": round(rows[(k, m)][2], 4),
            } for k, m in GEOMETRIES
        },
        "baseline_per_byte_encode_mb_per_s": round(baseline_mbs, 3),
        "encode_speedup_vs_seed": round(speedup, 1),
    })
    report.note(f"wrote {path.name}")
    return report
