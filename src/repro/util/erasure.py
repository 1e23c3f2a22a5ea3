"""Systematic Reed-Solomon erasure coding over GF(256).

Used by the data attic's peer-backup mechanism (paper SIV-A, "redundantly
encoding the contents -- e.g., using erasure codes -- and storing pieces
with a variety of peers"). A file is split into ``k`` data shards and
``m`` parity shards; any ``k`` of the ``k+m`` shards recover the file.

Construction
------------
The generator matrix is the *inverted-Vandermonde* systematic form: take
the full (k+m) x k Vandermonde matrix V over distinct evaluation points,
invert its top k x k block, and right-multiply: G = V . (V_top)^-1. The
top k rows of G become the identity (systematic), and because every
k x k submatrix of V is itself a Vandermonde matrix over distinct points
(hence invertible), every k x k submatrix of G is invertible too -- the
MDS property that "any k of k+m shards decode".

(The naive alternative -- identity rows stacked on top of raw Vandermonde
parity rows -- is NOT MDS over GF(256): mixed identity/Vandermonde row
subsets can be singular, e.g. k=5, m=4, surviving shards {3,5,6,7,8}.)

Performance
-----------
Shard arithmetic is bulk, with no per-byte Python loop on the hot path.
*Multiply:* a whole shard times a GF(256) constant is one
``bytes.translate`` over a precomputed 256-byte table (~2 GB/s, the
fastest thing available: ``np.take`` through the same tables was tried
and is no faster than the integer kernel, because numpy widens ``uint8``
indices to ``intp``). *Accumulate:* a row's terms are XORed in place
into one numpy ``uint8`` array when shards are at least
``_NUMPY_MIN_SHARD_LEN`` long and through one Python integer below
that, so a process that only codes small shards never imports numpy.
*Code what is asked:* ``shards_of`` is the one coding entry point --
``encode`` asks it for every index, a repair for the indices it lost --
and multiplies only the parity rows wanted. *Copies:* ``encode`` slices
the payload once (only a short tail shard is padded) and ``decode``
trims the tail before its one ``join``. Inverted decode matrices are
LRU-cached per surviving-index tuple so repeated repairs skip
Gauss-Jordan.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

_PRIM_POLY = 0x11D  # x^8 + x^4 + x^3 + x^2 + 1, the usual RS polynomial

_EXP = [0] * 512
_LOG = [0] * 256


def _build_tables() -> None:
    x = 1
    for i in range(255):
        _EXP[i] = x
        _LOG[x] = i
        x <<= 1
        if x & 0x100:
            x ^= _PRIM_POLY
    for i in range(255, 512):
        _EXP[i] = _EXP[i - 255]


_build_tables()


def gf_mul(a: int, b: int) -> int:
    """Multiply in GF(256)."""
    if a == 0 or b == 0:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


def gf_div(a: int, b: int) -> int:
    """Divide in GF(256); ``b`` must be non-zero."""
    if b == 0:
        raise ZeroDivisionError("division by zero in GF(256)")
    if a == 0:
        return 0
    return _EXP[(_LOG[a] - _LOG[b]) % 255]


def gf_pow(a: int, n: int) -> int:
    """Raise ``a`` to the ``n``-th power in GF(256)."""
    if a == 0:
        return 0 if n > 0 else 1
    return _EXP[(_LOG[a] * n) % 255]


def gf_inv(a: int) -> int:
    """Multiplicative inverse in GF(256)."""
    if a == 0:
        raise ZeroDivisionError("zero has no inverse in GF(256)")
    return _EXP[255 - _LOG[a]]


# One 256-byte translation table per constant c: table[c][x] = c * x.
# 64 KiB total, built once at import; bytes.translate(table) then applies
# a constant multiply to a whole shard in C.
_MUL_TABLE: List[bytes] = [
    bytes(gf_mul(c, x) for x in range(256)) for c in range(256)
]


def gf_mul_bytes(c: int, buf: bytes) -> bytes:
    """Multiply every byte of ``buf`` by the constant ``c`` in GF(256)."""
    if c == 0:
        return bytes(len(buf))
    if c == 1:
        return bytes(buf)
    return buf.translate(_MUL_TABLE[c])


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length buffers (whole-buffer, no per-byte loop)."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return (int.from_bytes(a, "little")
            ^ int.from_bytes(b, "little")).to_bytes(len(a), "little")


def _row_terms(row: Sequence[int], shards: Sequence[bytes]) -> Iterator[bytes]:
    """The non-zero terms ``row[j] * shards[j]`` of one output row: one
    ``bytes.translate`` each, made lazily so one is alive at a time."""
    return (shard if coeff == 1 else shard.translate(_MUL_TABLE[coeff])
            for coeff, shard in zip(row, shards) if coeff)


def _xor_as_ints(terms: Iterable[bytes], shard_len: int) -> bytes:
    """XOR equal-length buffers through one big Python integer."""
    acc = 0
    for term in terms:
        acc ^= int.from_bytes(term, "little")
    return acc.to_bytes(shard_len, "little")


def _xor_in_numpy(terms: Iterable[bytes], shard_len: int) -> bytes:
    """XOR equal-length buffers in place into one ``uint8`` array."""
    import numpy as np

    acc = np.zeros(shard_len, np.uint8)
    for term in terms:
        np.bitwise_xor(acc, np.frombuffer(term, np.uint8), out=acc)
    return acc.tobytes()


# Shards at least this long are accumulated by ``_xor_in_numpy`` (about
# ten times faster per byte than converting to integers and back),
# shorter ones by ``_xor_as_ints``. The rule exists for the import, not
# for per-call speed: loading numpy costs ~16 MiB resident and ~0.1 s,
# which a process that only ever codes small shards (a chaos world backs
# up 80 KiB files at RS(2,1)) must not pay, so numpy is first imported
# by the first shard that reaches this length. Nothing sets it.
_NUMPY_MIN_SHARD_LEN = 64 * 1024


def _rows_times_shards(rows: Sequence[Sequence[int]],
                       shards: Sequence[bytes], shard_len: int) -> List[bytes]:
    """Apply a coefficient matrix to whole shard buffers:
    output row r = XOR_j rows[r][j] * shards[j]."""
    xor_terms = (_xor_in_numpy if shard_len >= _NUMPY_MIN_SHARD_LEN
                 else _xor_as_ints)
    return [xor_terms(_row_terms(row, shards), shard_len) for row in rows]


def _vandermonde(n: int, k: int) -> List[List[int]]:
    """Full n x k Vandermonde matrix over distinct points 0..n-1."""
    return [[gf_pow(point, col) for col in range(k)] for point in range(n)]


def _matrix_mul(a: Sequence[Sequence[int]],
                b: Sequence[Sequence[int]]) -> List[List[int]]:
    """Multiply two matrices over GF(256)."""
    cols = len(b[0])
    inner = len(b)
    out = []
    for row in a:
        out_row = []
        for j in range(cols):
            acc = 0
            for t in range(inner):
                acc ^= gf_mul(row[t], b[t][j])
            out_row.append(acc)
        out.append(out_row)
    return out


def _invert_matrix(matrix: Sequence[Sequence[int]]) -> List[List[int]]:
    """Invert a square matrix over GF(256) by Gauss-Jordan elimination."""
    n = len(matrix)
    aug = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot_row is None:
            raise ValueError("matrix is singular over GF(256)")
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot_inv = gf_inv(aug[col][col])
        aug[col] = [gf_mul(value, pivot_inv) for value in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [value ^ gf_mul(factor, pivot) for value, pivot in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def build_generator_matrix(k: int, m: int) -> List[List[int]]:
    """The (k+m) x k systematic MDS generator (inverted-Vandermonde form)."""
    n = k + m
    vand = _vandermonde(n, k)
    inv_top = _invert_matrix([row[:] for row in vand[:k]])
    gen = _matrix_mul(vand, inv_top)
    # Guard the construction: the top block must come out as identity.
    for i in range(k):
        assert all(gen[i][j] == (1 if i == j else 0) for j in range(k)), \
            "generator top block is not identity"
    return gen


@dataclass
class DecodeCacheStats:
    """Hit/miss counters for the inverted-decode-matrix cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass(frozen=True)
class Shard:
    """One erasure-coded shard of a payload.

    ``index`` < k means a systematic (data) shard; >= k means parity.
    """

    index: int
    data: bytes
    k: int
    m: int
    original_length: int

    @property
    def is_parity(self) -> bool:
        return self.index >= self.k


class ReedSolomonCodec:
    """Encode/decode payloads into ``k`` data + ``m`` parity shards."""

    DECODE_CACHE_ENTRIES = 128

    def __init__(self, k: int, m: int) -> None:
        if k <= 0 or m < 0:
            raise ValueError(f"need k > 0 and m >= 0, got k={k} m={m}")
        if k + m > 255:
            raise ValueError(f"k + m must be <= 255 for GF(256), got {k + m}")
        self.k = k
        self.m = m
        self._matrix = build_generator_matrix(k, m)
        # LRU of inverted decode matrices keyed by the surviving-index
        # tuple, so repeated repairs with the same erasure pattern skip
        # Gauss-Jordan entirely.
        self._decode_cache: "OrderedDict[Tuple[int, ...], List[List[int]]]" = OrderedDict()
        self.decode_cache_stats = DecodeCacheStats()

    @property
    def total_shards(self) -> int:
        return self.k + self.m

    def shards_of(self, payload: bytes, wanted: Sequence[int]) -> List[Shard]:
        """The shards of ``payload`` at the ``wanted`` indices, in that order.

        The one coding entry point. A data shard is a slice of the
        payload, padded only where the tail is short; of the generator
        rows, only those of the parity indices in ``wanted`` are
        multiplied.
        """
        for index in wanted:
            if not 0 <= index < self.total_shards:
                raise ValueError(f"shard index {index} out of range")
        shard_len = (len(payload) + self.k - 1) // self.k if payload else 1
        parity = [i for i in wanted if i >= self.k]
        bufs = {}
        for i in (range(self.k) if parity else wanted):
            piece = payload[i * shard_len:(i + 1) * shard_len]
            bufs[i] = piece.ljust(shard_len, b"\x00")  # itself when full
        if parity:
            bufs.update(zip(parity, _rows_times_shards(
                [self._matrix[i] for i in parity],
                [bufs[i] for i in range(self.k)], shard_len)))
        return [Shard(index=i, data=bufs[i], k=self.k, m=self.m,
                      original_length=len(payload)) for i in wanted]

    def encode(self, payload: bytes) -> List[Shard]:
        """Split ``payload`` into k data shards and compute m parity shards."""
        return self.shards_of(payload, range(self.total_shards))

    def _decode_matrix(self, indices: Tuple[int, ...]) -> List[List[int]]:
        """The cached inverse of the generator rows for ``indices``."""
        cached = self._decode_cache.get(indices)
        if cached is not None:
            self._decode_cache.move_to_end(indices)
            self.decode_cache_stats.hits += 1
            return cached
        self.decode_cache_stats.misses += 1
        inverse = _invert_matrix([self._matrix[i] for i in indices])
        self._decode_cache[indices] = inverse
        if len(self._decode_cache) > self.DECODE_CACHE_ENTRIES:
            self._decode_cache.popitem(last=False)
            self.decode_cache_stats.evictions += 1
        return inverse

    def decode(self, shards: Sequence[Shard]) -> bytes:
        """Recover the original payload from any ``k`` distinct shards."""
        by_index: Dict[int, Shard] = {}
        for shard in shards:
            if shard.k != self.k or shard.m != self.m:
                raise ValueError("shard geometry does not match this codec")
            if not 0 <= shard.index < self.total_shards:
                raise ValueError(f"shard index {shard.index} out of range")
            by_index.setdefault(shard.index, shard)
        if len(by_index) < self.k:
            raise ValueError(
                f"need at least k={self.k} distinct shards, got {len(by_index)}"
            )
        chosen = sorted(by_index.values(), key=lambda s: s.index)[: self.k]
        original_length = chosen[0].original_length
        shard_len = len(chosen[0].data)
        if any(len(s.data) != shard_len or s.original_length != original_length
               for s in chosen):
            raise ValueError("inconsistent shard lengths or payload metadata")

        present = {s.index: s.data for s in chosen if s.index < self.k}
        missing = [i for i in range(self.k) if i not in present]
        if missing:
            # Only reconstruct rows that are actually missing; systematic
            # survivors are used verbatim.
            inverse = self._decode_matrix(tuple(s.index for s in chosen))
            present.update(zip(missing, _rows_times_shards(
                [inverse[i] for i in missing],
                [s.data for s in chosen], shard_len)))
        # Trim the padding off the tail before joining (a slice that
        # trims nothing is the shard itself), so the join is the one copy.
        return b"".join(present[i][:max(0, original_length - i * shard_len)]
                        for i in range(self.k))

    def reconstruct_shards(self, shards: Sequence[Shard],
                           wanted: Sequence[int]) -> List[Shard]:
        """Regenerate the shards at ``wanted`` indices from any k survivors.

        This is the repair primitive: decode once, then code only the
        lost indices from the decoded payload.
        """
        return self.shards_of(self.decode(shards), wanted)

    def clear_decode_cache(self) -> None:
        self._decode_cache.clear()
        self.decode_cache_stats = DecodeCacheStats()

    def storage_overhead(self) -> float:
        """Ratio of stored bytes to payload bytes, i.e. (k+m)/k."""
        return (self.k + self.m) / self.k
