"""Reed-Solomon erasure coding tests, including property-based coverage."""

import itertools
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.erasure import (ReedSolomonCodec, Shard,
                                build_generator_matrix, gf_div, gf_inv,
                                gf_mul, gf_mul_bytes, gf_pow, xor_bytes)


class TestGaloisField:
    def test_mul_identity_and_zero(self):
        for a in range(256):
            assert gf_mul(a, 1) == a
            assert gf_mul(a, 0) == 0

    def test_mul_commutative(self):
        for a in (3, 87, 255):
            for b in (5, 120, 200):
                assert gf_mul(a, b) == gf_mul(b, a)

    def test_div_inverts_mul(self):
        for a in (1, 7, 99, 255):
            for b in (1, 13, 254):
                assert gf_div(gf_mul(a, b), b) == a

    def test_inv(self):
        for a in range(1, 256):
            assert gf_mul(a, gf_inv(a)) == 1

    def test_inv_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            gf_inv(0)
        with pytest.raises(ZeroDivisionError):
            gf_div(5, 0)

    def test_pow(self):
        assert gf_pow(2, 0) == 1
        assert gf_pow(2, 1) == 2
        assert gf_pow(0, 5) == 0
        assert gf_pow(0, 0) == 1


class TestCodecBasics:
    def test_encode_produces_k_plus_m_shards(self):
        codec = ReedSolomonCodec(4, 2)
        shards = codec.encode(b"hello erasure world")
        assert len(shards) == 6
        assert sum(1 for s in shards if not s.is_parity) == 4
        assert sum(1 for s in shards if s.is_parity) == 2

    def test_decode_from_all_shards(self):
        codec = ReedSolomonCodec(4, 2)
        payload = b"hello erasure world"
        assert codec.decode(codec.encode(payload)) == payload

    def test_decode_from_systematic_only(self):
        codec = ReedSolomonCodec(3, 2)
        payload = bytes(range(100))
        shards = codec.encode(payload)
        assert codec.decode(shards[:3]) == payload

    def test_decode_with_parity_substitution(self):
        codec = ReedSolomonCodec(3, 2)
        payload = bytes(range(97))  # not a multiple of k
        shards = codec.encode(payload)
        survivors = [shards[0], shards[3], shards[4]]  # one data, two parity
        assert codec.decode(survivors) == payload

    def test_too_few_shards_raises(self):
        codec = ReedSolomonCodec(4, 2)
        shards = codec.encode(b"data")
        with pytest.raises(ValueError):
            codec.decode(shards[:3])

    def test_duplicate_shards_do_not_count_twice(self):
        codec = ReedSolomonCodec(3, 2)
        shards = codec.encode(b"abcdef")
        with pytest.raises(ValueError):
            codec.decode([shards[0], shards[0], shards[1]])

    def test_mismatched_geometry_rejected(self):
        codec_a = ReedSolomonCodec(3, 2)
        codec_b = ReedSolomonCodec(4, 2)
        shards = codec_a.encode(b"abcdef")
        with pytest.raises(ValueError):
            codec_b.decode(shards)

    @pytest.mark.parametrize("position, index", [
        # Aliased the last generator row: wrong bytes, nothing raised.
        pytest.param(1, -1, id="negative"),
        # Left as IndexError, past callers that catch ValueError.
        pytest.param(3, 99, id="past-the-geometry"),
    ])
    def test_shard_index_outside_the_geometry_rejected(self, position, index):
        codec = ReedSolomonCodec(4, 2)
        shards = codec.encode(bytes(range(200)))[:4]
        shards[position] = replace(shards[position], index=index)
        with pytest.raises(ValueError, match="out of range"):
            codec.decode(shards)

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            ReedSolomonCodec(0, 2)
        with pytest.raises(ValueError):
            ReedSolomonCodec(200, 100)

    def test_storage_overhead(self):
        assert ReedSolomonCodec(4, 2).storage_overhead() == pytest.approx(1.5)
        assert ReedSolomonCodec(1, 0).storage_overhead() == pytest.approx(1.0)

    def test_empty_payload(self):
        codec = ReedSolomonCodec(3, 2)
        shards = codec.encode(b"")
        assert codec.decode(shards[2:]) == b""


class TestBulkGaloisOps:
    def test_gf_mul_bytes_matches_scalar(self):
        buf = bytes(range(256))
        for c in (0, 1, 2, 87, 255):
            assert gf_mul_bytes(c, buf) == bytes(gf_mul(c, x) for x in buf)

    def test_xor_bytes(self):
        a, b = bytes(range(100)), bytes(reversed(range(100)))
        assert xor_bytes(a, b) == bytes(x ^ y for x, y in zip(a, b))
        assert xor_bytes(b"", b"") == b""

    def test_xor_bytes_length_mismatch(self):
        with pytest.raises(ValueError):
            xor_bytes(b"ab", b"a")


class TestMdsConstruction:
    """The seed's identity-extended Vandermonde was not MDS; pin the fix."""

    def test_regression_k5_m4_indices_3_5_6_7_8(self):
        # The exact falsifying case: under the old construction the
        # decode matrix for surviving shards {3,5,6,7,8} was singular.
        codec = ReedSolomonCodec(5, 4)
        payload = bytes((i * 37 + 11) % 256 for i in range(1000))
        shards = codec.encode(payload)
        survivors = [shards[i] for i in (3, 5, 6, 7, 8)]
        assert codec.decode(survivors) == payload

    def test_regression_k5_m4_empty_payload(self):
        codec = ReedSolomonCodec(5, 4)
        shards = codec.encode(b"")
        assert codec.decode([shards[i] for i in (3, 5, 6, 7, 8)]) == b""

    def test_generator_top_block_is_identity(self):
        for k, m in ((1, 1), (3, 2), (5, 4), (10, 4)):
            gen = build_generator_matrix(k, m)
            assert len(gen) == k + m
            for i in range(k):
                assert gen[i] == [1 if j == i else 0 for j in range(k)]

    def test_every_square_submatrix_invertible(self):
        # Direct statement of the MDS property on the matrix itself.
        from repro.util.erasure import _invert_matrix

        k, m = 5, 4
        gen = build_generator_matrix(k, m)
        for rows in itertools.combinations(range(k + m), k):
            _invert_matrix([gen[r] for r in rows])  # must not raise

    def test_exhaustive_small_geometries_all_subsets(self):
        # For every geometry with k+m <= 10, EVERY k-subset of shards
        # must decode — the property the old construction violated.
        payload = bytes((7 * i + 3) % 256 for i in range(53))
        for total in range(1, 11):
            for k in range(1, total + 1):
                m = total - k
                codec = ReedSolomonCodec(k, m)
                shards = codec.encode(payload)
                for combo in itertools.combinations(range(total), k):
                    survivors = [shards[i] for i in combo]
                    assert codec.decode(survivors) == payload, \
                        f"k={k} m={m} subset={combo}"


class TestDecodeCacheAndRepair:
    def test_decode_cache_hits_on_repeated_pattern(self):
        codec = ReedSolomonCodec(4, 2)
        shards = codec.encode(b"cache me if you can")
        survivors = [shards[i] for i in (1, 2, 3, 4)]
        codec.decode(survivors)
        assert codec.decode_cache_stats.misses == 1
        codec.decode(survivors)
        codec.decode(survivors)
        assert codec.decode_cache_stats.hits == 2
        assert codec.decode_cache_stats.hit_rate == pytest.approx(2 / 3)

    def test_systematic_fast_path_skips_cache(self):
        codec = ReedSolomonCodec(3, 2)
        shards = codec.encode(b"abcdef")
        codec.decode(shards[:3])
        assert codec.decode_cache_stats.misses == 0
        assert codec.decode_cache_stats.hits == 0

    def test_cache_eviction_is_bounded(self):
        codec = ReedSolomonCodec(3, 4)
        codec.DECODE_CACHE_ENTRIES = 2
        shards = codec.encode(b"0123456789")
        for combo in itertools.combinations(range(7), 3):
            if any(i >= 3 for i in combo):
                codec.decode([shards[i] for i in combo])
        assert len(codec._decode_cache) <= 2
        assert codec.decode_cache_stats.evictions > 0

    def test_clear_decode_cache(self):
        codec = ReedSolomonCodec(3, 2)
        shards = codec.encode(b"abcdef")
        codec.decode([shards[i] for i in (0, 3, 4)])
        codec.clear_decode_cache()
        assert codec.decode_cache_stats.misses == 0
        assert len(codec._decode_cache) == 0

    def test_reconstruct_shards(self):
        codec = ReedSolomonCodec(5, 4)
        payload = bytes(range(256)) * 3
        shards = codec.encode(payload)
        survivors = [shards[i] for i in (0, 2, 5, 7, 8)]
        rebuilt = codec.reconstruct_shards(survivors, [1, 3, 4, 6])
        for shard in rebuilt:
            assert shard.data == shards[shard.index].data
        # Rebuilt shards are fully interchangeable with the originals.
        assert codec.decode([shards[0], rebuilt[0], rebuilt[1],
                             rebuilt[2], rebuilt[3]]) == payload

    def test_reconstruct_shards_bad_index(self):
        codec = ReedSolomonCodec(2, 1)
        shards = codec.encode(b"xy")
        with pytest.raises(ValueError):
            codec.reconstruct_shards(shards, [3])


@settings(max_examples=60, deadline=None)
@given(
    payload=st.binary(min_size=0, max_size=300),
    k=st.integers(min_value=1, max_value=6),
    m=st.integers(min_value=0, max_value=4),
    data=st.data(),
)
def test_any_k_of_n_recovers(payload, k, m, data):
    """THE erasure-coding invariant: any k distinct shards reconstruct."""
    codec = ReedSolomonCodec(k, m)
    shards = codec.encode(payload)
    indices = data.draw(
        st.lists(st.integers(min_value=0, max_value=k + m - 1),
                 min_size=k, max_size=k, unique=True)
    )
    survivors = [shards[i] for i in indices]
    assert codec.decode(survivors) == payload


@settings(max_examples=30, deadline=None)
@given(payload=st.binary(min_size=1, max_size=200))
def test_parity_shards_differ_from_data(payload):
    codec = ReedSolomonCodec(2, 2)
    shards = codec.encode(payload)
    # Parity shards carry the geometry tag.
    assert all(s.is_parity == (s.index >= 2) for s in shards)
    assert all(s.original_length == len(payload) for s in shards)
