"""Property tests for the Reed-Solomon codec: round-trips survive any
random shard loss up to m, repairs reproduce exact shards, and both
XOR accumulators under the kernel agree byte for byte with an oracle
written from the two public helpers."""

import itertools
import random
import sys
from functools import reduce

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.util import erasure
from repro.util.erasure import ReedSolomonCodec, gf_mul_bytes, xor_bytes

# One codec per geometry: generator-matrix construction dominates the
# cost of a property example, and codecs are stateless w.r.t. payloads
# (the decode cache only memoizes inverted matrices).
_CODECS = {}


def codec(k, m):
    if (k, m) not in _CODECS:
        _CODECS[(k, m)] = ReedSolomonCodec(k, m)
    return _CODECS[(k, m)]


geometries = st.tuples(st.integers(1, 8), st.integers(0, 4))
payloads = st.binary(min_size=0, max_size=2048)


class TestRoundTripProperties:
    @given(geometry=geometries, payload=payloads, data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_decode_survives_any_loss_up_to_m(self, geometry, payload, data):
        k, m = geometry
        rs = codec(k, m)
        shards = rs.encode(payload)
        assert len(shards) == k + m
        lose = data.draw(st.integers(0, m), label="shards_lost")
        seed = data.draw(st.integers(0, 2**31), label="loss_seed")
        survivors = list(shards)
        for victim in random.Random(seed).sample(shards, lose):
            survivors.remove(victim)
        assert rs.decode(survivors) == payload

    @given(geometry=geometries, payload=payloads, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_k_subset_suffices(self, geometry, payload, data):
        k, m = geometry
        rs = codec(k, m)
        shards = rs.encode(payload)
        seed = data.draw(st.integers(0, 2**31), label="subset_seed")
        subset = random.Random(seed).sample(shards, k)
        assert rs.decode(subset) == payload

    @given(geometry=geometries, payload=payloads)
    @settings(max_examples=60, deadline=None)
    def test_shard_sizes_are_uniform_and_minimal(self, geometry, payload):
        k, m = geometry
        rs = codec(k, m)
        shards = rs.encode(payload)
        sizes = {len(s.data) for s in shards}
        assert len(sizes) == 1
        shard_len = sizes.pop()
        # Minimal padding: shards cover the payload with < k spare bytes
        # (the empty payload degenerates to 1-byte shards).
        assert shard_len * k >= len(payload)
        if payload:
            assert shard_len * k - len(payload) < k

    @given(geometry=geometries, payload=payloads, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_reconstructed_shards_match_originals(self, geometry, payload,
                                                  data):
        k, m = geometry
        rs = codec(k, m)
        shards = rs.encode(payload)
        lost = data.draw(
            st.lists(st.integers(0, k + m - 1), min_size=0, max_size=m,
                     unique=True),
            label="lost_indices")
        survivors = [s for s in shards if s.index not in set(lost)]
        rebuilt = rs.reconstruct_shards(survivors, lost)
        for shard in rebuilt:
            original = shards[shard.index]
            assert shard.index == original.index
            assert shard.data == original.data
            assert shard.original_length == original.original_length


# -- the kernel against an oracle --------------------------------------------

ACCUMULATORS = {"ints": erasure._xor_as_ints, "numpy": erasure._xor_in_numpy}
RULE = erasure._NUMPY_MIN_SHARD_LEN
SHARD_LENS = (1, 7, 8, 9, 63, 64, 65)


def oracle_row(row, shards, shard_len):
    """One output row from the public helpers alone, zero terms included."""
    return reduce(xor_bytes,
                  (gf_mul_bytes(c, s) for c, s in zip(row, shards)),
                  bytes(shard_len))


def unusable(terms, shard_len):
    raise AssertionError("the length rule chose the other accumulator")


@pytest.fixture(params=sorted(ACCUMULATORS))
def only_accumulator(request, monkeypatch):
    """Push the length rule all one way, and break the other accumulator
    so that a codec call which reached it would fail."""
    use_numpy = request.param == "numpy"
    monkeypatch.setattr(erasure, "_NUMPY_MIN_SHARD_LEN",
                        0 if use_numpy else sys.maxsize)
    monkeypatch.setattr(
        erasure, "_xor_as_ints" if use_numpy else "_xor_in_numpy", unusable)
    return request.param


coefficients = st.one_of(st.integers(0, 255), st.sampled_from((0, 1)))


@st.composite
def kernel_cases(draw, shard_lens=st.sampled_from(SHARD_LENS)):
    """(rows, shards, shard_len): any matrix shape down to one column,
    with all-zero and 0/1-only rows drawn on purpose."""
    shard_len = draw(shard_lens)
    cols = draw(st.integers(1, 6))
    row = st.one_of(
        st.lists(coefficients, min_size=cols, max_size=cols),
        st.lists(st.sampled_from((0, 1)), min_size=cols, max_size=cols),
        st.just([0] * cols))
    rows = draw(st.lists(row, min_size=1, max_size=4))
    shards = [draw(st.binary(min_size=shard_len, max_size=shard_len))
              for _ in range(cols)]
    return rows, shards, shard_len


class TestKernelAgainstOracle:
    @pytest.mark.parametrize("name", sorted(ACCUMULATORS))
    @given(case=kernel_cases())
    @settings(max_examples=150, deadline=None)
    def test_each_accumulator_called_directly(self, name, case):
        rows, shards, shard_len = case
        for row in rows:
            got = ACCUMULATORS[name](erasure._row_terms(row, shards),
                                     shard_len)
            assert type(got) is bytes
            assert got == oracle_row(row, shards, shard_len)

    @pytest.mark.parametrize("name", sorted(ACCUMULATORS))
    @pytest.mark.parametrize("shard_len", (RULE - 1, RULE, RULE + 1))
    def test_each_accumulator_astride_the_length_rule(self, name, shard_len):
        rng = random.Random(shard_len)
        shards = [rng.randbytes(shard_len) for _ in range(3)]
        for row in ([0, 0, 0], [1, 0, 1], [0, 1, 0], [29, 1, 0],
                    [255, 142, 3]):
            got = ACCUMULATORS[name](erasure._row_terms(row, shards),
                                     shard_len)
            assert got == oracle_row(row, shards, shard_len)

    @pytest.mark.parametrize("shard_len, not_chosen", [
        (RULE - 1, "_xor_in_numpy"), (RULE, "_xor_as_ints")])
    def test_the_length_rule_picks_the_accumulator(self, monkeypatch,
                                                   shard_len, not_chosen):
        monkeypatch.setattr(erasure, not_chosen, unusable)
        rng = random.Random(shard_len)
        rows = [[rng.randrange(256) for _ in range(4)] for _ in range(3)]
        shards = [rng.randbytes(shard_len) for _ in range(4)]
        assert erasure._rows_times_shards(rows, shards, shard_len) == [
            oracle_row(row, shards, shard_len) for row in rows]

    @given(case=kernel_cases())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_the_kernel_under_each_accumulator(self, only_accumulator, case):
        rows, shards, shard_len = case
        assert erasure._rows_times_shards(rows, shards, shard_len) == [
            oracle_row(row, shards, shard_len) for row in rows]

    def test_exhaustive_small_geometries_under_each_accumulator(
            self, only_accumulator):
        # Every k-subset of every geometry with k+m <= 10 decodes, with
        # the named accumulator doing every XOR of encode and decode.
        payload = bytes((7 * i + 3) % 256 for i in range(53))
        for total in range(1, 11):
            for k in range(1, total + 1):
                rs = ReedSolomonCodec(k, total - k)
                shards = rs.encode(payload)
                for combo in itertools.combinations(range(total), k):
                    assert rs.decode([shards[i] for i in combo]) == payload, \
                        f"k={k} m={total - k} subset={combo}"


class TestShardsOf:
    K, M = 4, 2
    LENGTHS = (0, 1, K - 1, K, K + 1, 4 * K + 3)

    @pytest.mark.parametrize("length", LENGTHS)
    def test_every_subset_and_order_of_wanted(self, length):
        rs = codec(self.K, self.M)
        payload = random.Random(length).randbytes(length)
        full = rs.encode(payload)
        assert [s.index for s in full] == list(range(self.K + self.M))
        for size in range(self.K + self.M + 1):
            for wanted in itertools.permutations(range(self.K + self.M),
                                                 size):
                assert rs.shards_of(payload, wanted) == [
                    full[i] for i in wanted]

    @pytest.mark.parametrize("wanted", ([-1], [6], [0, 99]))
    def test_wanted_out_of_range(self, wanted):
        with pytest.raises(ValueError, match="out of range"):
            codec(self.K, self.M).shards_of(b"payload", wanted)

    def test_a_payload_that_needs_no_padding_is_not_copied_to_pad(self):
        # k = 1 makes the single data shard the whole payload: with no
        # pad-copy and no trim-copy it is the caller's object both ways.
        payload = random.Random(1).randbytes(4096)
        shards = codec(1, 2).encode(payload)
        assert shards[0].data is payload
        assert codec(1, 2).decode(shards[:1]) is payload

    @pytest.mark.parametrize("length", (4096, 4096 - 3))
    def test_round_trip_with_and_without_a_short_tail(self, length):
        rs = codec(self.K, self.M)
        payload = random.Random(length).randbytes(length)
        shards = rs.encode(payload)
        shard_len = 4096 // self.K
        assert shards[0].data == payload[:shard_len]
        assert shards[self.K - 1].data == \
            payload[3 * shard_len:].ljust(shard_len, b"\x00")
        assert {s.original_length for s in shards} == {length}
        assert rs.decode(shards[self.M:]) == payload
