"""Unit and accuracy tests for the statistics primitives.

The merge *laws* live in ``test_stats_laws.py``; this module pins the
individual statistics down: HyperLogLog estimation error against known
cardinalities, the Bloom filter's no-false-negative guarantee and
bounded false-positive rate, wire round-trip exactness for both
sketches, value canonicalization, and the bundle's byte codec.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.inference.kernel import accumulate_partition
from repro.inference.statistics import (
    BLOOM_BITS,
    BLOOM_HASHES,
    HLL_PRECISION,
    STATS_MODES,
    BloomFilter,
    HyperLogLog,
    StatsBundle,
    _canonical_bound,
    _hash64,
    _value_key,
    create_stats_bundle,
    resolve_stats_mode,
    stats_if_complete,
)
from tests.conftest import json_records, json_values

value_lists = st.lists(st.one_of(json_records, json_values(8)), max_size=10)


# ---------------------------------------------------------------------------
# HyperLogLog accuracy


class TestHyperLogLogAccuracy:
    """p=12 gives a typical relative error of ~1.6%; the tests assert a
    5% bound with deterministic (seed-free — the hash is keyed-nothing
    blake2b) inputs, so failures mean a real estimator regression."""

    @pytest.mark.parametrize("cardinality", [10_000, 100_000])
    def test_relative_error_under_five_percent(self, cardinality):
        hll = HyperLogLog()
        for i in range(cardinality):
            hll.update(f"value-{i}")
        estimate = hll.estimate()
        assert abs(estimate - cardinality) / cardinality < 0.05

    def test_small_range_linear_counting_is_near_exact(self):
        # Below ~2.5m the estimator switches to linear counting, which
        # is essentially exact at tiny cardinalities.
        hll = HyperLogLog()
        for i in range(100):
            hll.update(i)
        assert abs(hll.estimate() - 100) / 100 < 0.03

    def test_duplicates_do_not_inflate(self):
        hll = HyperLogLog()
        for _ in range(50):
            for i in range(1_000):
                hll.update(f"dup-{i}")
        assert abs(hll.estimate() - 1_000) / 1_000 < 0.05

    def test_merge_estimates_the_union(self):
        a, b = HyperLogLog(), HyperLogLog()
        for i in range(20_000):
            a.update(f"k{i}")
        for i in range(10_000, 30_000):  # 10k overlap, 30k union
            b.update(f"k{i}")
        union = a.merge(b).estimate()
        assert abs(union - 30_000) / 30_000 < 0.05

    def test_empty_estimate_is_zero(self):
        assert HyperLogLog().estimate() == 0.0

    def test_mixed_type_values_count_distinctly(self):
        # 1 and 1.0 are the same JSON number; True and "1" are not.
        hll = HyperLogLog()
        for value in (1, 1.0, True, "1", None):
            hll.update(value)
        assert round(hll.estimate()) == 4


class TestBundleEstimates:
    """Accuracy through the real accumulation path, not just the sketch."""

    def test_path_distinct_estimate(self):
        records = [{"id": i, "flag": i % 2 == 0} for i in range(10_000)]
        summary = accumulate_partition(records, stats_mode="sketches")
        bundle = summary.stats
        ids = bundle.paths["$.id"].values.hll.estimate()
        assert abs(ids - 10_000) / 10_000 < 0.05
        flags = bundle.paths["$.flag"].values.hll.estimate()
        assert round(flags) == 2

    def test_basic_mode_carries_no_sketches(self):
        summary = accumulate_partition([{"a": 1}], stats_mode="basic")
        assert all(p.values is None for p in summary.stats.paths.values())


# ---------------------------------------------------------------------------
# Bloom filter guarantees


class TestBloomFilter:
    def test_zero_false_negatives(self):
        bloom = BloomFilter()
        inserted = [f"member-{i}" for i in range(1_000)]
        for value in inserted:
            bloom.update(value)
        assert all(bloom.might_contain(v) for v in inserted)

    def test_false_positive_rate_bounded(self):
        # 500 insertions into 8192 bits / 4 hashes: theoretical FP rate
        # (1 - e^(-kn/m))^k ≈ 0.2%.  Assert an order of magnitude of
        # slack (2%) so the test pins the geometry, not hash luck.
        bloom = BloomFilter()
        for i in range(500):
            bloom.update(f"present-{i}")
        trials = 5_000
        false_positives = sum(
            bloom.might_contain(f"absent-{i}") for i in range(trials)
        )
        assert false_positives / trials < 0.02

    def test_merge_has_no_false_negatives_either(self):
        a, b = BloomFilter(), BloomFilter()
        for i in range(0, 400):
            a.update(i)
        for i in range(300, 700):
            b.update(i)
        merged = a.merge(b)
        assert all(merged.might_contain(i) for i in range(700))

    def test_geometry_mismatch_rejected(self):
        with pytest.raises(ValueError, match="geometry"):
            BloomFilter(m_bits=BLOOM_BITS).merge(BloomFilter(m_bits=BLOOM_BITS * 2))
        with pytest.raises(ValueError, match="geometry"):
            BloomFilter(k=BLOOM_HASHES).merge(BloomFilter(k=BLOOM_HASHES + 1))

    def test_empty_filter_contains_nothing(self):
        bloom = BloomFilter()
        assert not any(bloom.might_contain(f"x{i}") for i in range(100))


class TestHLLPrecisionMismatch:
    def test_merge_rejected(self):
        with pytest.raises(ValueError, match="precision"):
            HyperLogLog(p=HLL_PRECISION).merge(HyperLogLog(p=HLL_PRECISION + 1))


# ---------------------------------------------------------------------------
# Wire round-trips (sketch level)


json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
)


class TestSketchWire:
    @given(values=st.lists(json_scalars, max_size=50))
    @settings(max_examples=50)
    def test_hll_round_trip_is_exact(self, values):
        hll = HyperLogLog()
        for value in values:
            hll.update(value)
        back = HyperLogLog.from_wire(hll.to_wire())
        assert back == hll
        assert back.estimate() == hll.estimate()

    @given(values=st.lists(json_scalars, max_size=50))
    @settings(max_examples=50)
    def test_bloom_round_trip_is_exact(self, values):
        bloom = BloomFilter()
        for value in values:
            bloom.update(value)
        back = BloomFilter.from_wire(bloom.to_wire())
        assert back == bloom
        assert all(back.might_contain(v) for v in values)

    def test_hll_bad_register_block_rejected(self):
        with pytest.raises(ValueError, match="register"):
            HyperLogLog.from_wire((HLL_PRECISION, b"\x00" * 3))

    def test_bloom_bad_bit_block_rejected(self):
        with pytest.raises(ValueError, match="bit block"):
            BloomFilter.from_wire((BLOOM_BITS, BLOOM_HASHES, b"\x00" * 3))

    @pytest.mark.parametrize("p", [4, HLL_PRECISION])
    def test_hll_unreachable_rank_rejected(self, p):
        """``add_hash`` writes at most rank ``65 - p``, and the big-int
        merge is exact only below 128: a larger register is damage."""
        block = bytearray(1 << p)
        for bad in (66 - p, 255):
            block[-1] = bad
            with pytest.raises(ValueError, match="register"):
                HyperLogLog.from_wire((p, bytes(block)))
        block[-1] = 65 - p
        assert HyperLogLog.from_wire((p, bytes(block))).registers == block


class TestSketchMerge:
    """Both merges run as big-int operations over the whole block; they
    must equal the bytewise max and the bitwise or."""

    @given(p=st.integers(min_value=4, max_value=HLL_PRECISION),
           data=st.data())
    @settings(max_examples=60)
    def test_hll_merge_is_the_register_max(self, p, data):
        def block() -> bytes:
            raw = data.draw(st.binary(min_size=1 << p, max_size=1 << p))
            # Keep the extremes 0 and 65 - p as likely as any register.
            return bytes(min(r % 68, 65 - p) for r in raw)

        a, b = block(), block()
        merged = HyperLogLog.from_wire((p, a)).merge(
            HyperLogLog.from_wire((p, b))
        )
        assert merged.registers == bytearray(map(max, a, b))

    def test_hll_merge_at_the_extremes(self):
        top = 65 - HLL_PRECISION
        n = 1 << HLL_PRECISION
        a = bytes([top, 0, top, 0] * (n // 4))
        b = bytes([0, top, top, 0] * (n // 4))
        merged = HyperLogLog.from_wire((HLL_PRECISION, a)).merge(
            HyperLogLog.from_wire((HLL_PRECISION, b))
        )
        assert merged.registers == bytearray([top, top, top, 0] * (n // 4))

    @given(size=st.integers(min_value=1, max_value=BLOOM_BITS // 8),
           data=st.data())
    @settings(max_examples=60)
    def test_bloom_merge_is_the_bitwise_or(self, size, data):
        a, b = (data.draw(st.binary(min_size=size, max_size=size))
                for _ in range(2))
        merged = BloomFilter.from_wire((size * 8, BLOOM_HASHES, a)).merge(
            BloomFilter.from_wire((size * 8, BLOOM_HASHES, b))
        )
        assert merged.bits == bytearray(x | y for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# Value canonicalization


class TestValueKey:
    def test_int_float_collapse(self):
        # JSON has one number type: 1 and 1.0 must sketch identically.
        assert _value_key(1) == _value_key(1.0)
        assert _value_key(-7) == _value_key(-7.0)
        assert _value_key(0) == _value_key(-0.0)

    def test_bool_is_not_number(self):
        assert _value_key(True) != _value_key(1)
        assert _value_key(False) != _value_key(0)

    def test_string_is_not_number(self):
        assert _value_key("1") != _value_key(1)

    def test_huge_floats_stay_distinct_from_nearby_ints(self):
        # 2**53 + 1 is not representable as a float; the float rounds to
        # 2**53 and must not collide with the exact int 2**53 + 1.
        assert _value_key(float(2**53)) == _value_key(2**53)
        assert _value_key(2**53 + 1) != _value_key(float(2**53 + 1))

    @given(a=json_scalars, b=json_scalars)
    @settings(max_examples=100)
    def test_keys_deterministic_and_type_tagged(self, a, b):
        assert _value_key(a) == _value_key(a)
        if type(a) is type(b) and a != b:
            assert _value_key(a) != _value_key(b)

    def test_hash64_is_stable(self):
        # Pinned value: estimates must not drift across releases, so the
        # underlying hash cannot change silently.
        assert _hash64(b"s" + "x".encode()) == _hash64(_value_key("x"))
        assert 0 <= _hash64(b"anything") < 2**64


class TestCanonicalBound:
    def test_nan_drops_to_none(self):
        assert _canonical_bound(float("nan")) is None

    def test_negative_zero_normalizes(self):
        out = _canonical_bound(-0.0)
        assert out == 0.0 and math.copysign(1.0, out) == 1.0

    def test_integral_values_pass_through_exact(self):
        assert _canonical_bound(7) == 7
        assert _canonical_bound(2**70) == 2**70


# ---------------------------------------------------------------------------
# Bundle byte codec and helpers


class TestBundleBytes:
    @given(values=value_lists, mode=st.sampled_from(["basic", "sketches"]))
    @settings(max_examples=30)
    def test_round_trip_and_determinism(self, values, mode):
        summary = accumulate_partition(list(values), stats_mode=mode)
        bundle = summary.stats
        payload = bundle.to_bytes()
        assert StatsBundle.from_bytes(payload) == bundle
        # Byte-determinism: re-encoding (directly or via a round trip)
        # yields identical bytes — the checkpoint digest depends on it.
        assert StatsBundle.from_bytes(payload).to_bytes() == payload

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            StatsBundle.from_bytes(b"not json")
        with pytest.raises(ValueError):
            StatsBundle.from_bytes(b"{}")


class TestModeHelpers:
    def test_resolve_accepts_known_modes(self):
        for mode in STATS_MODES:
            assert resolve_stats_mode(mode) == mode

    def test_resolve_rejects_unknown(self):
        with pytest.raises(ValueError, match="stats"):
            resolve_stats_mode("everything")

    def test_stats_if_complete_drops_partial_coverage(self):
        bundle = create_stats_bundle("basic")
        bundle.observe({"a": 1}, type_size=3)
        assert stats_if_complete(bundle, 1) is bundle
        assert stats_if_complete(bundle, 2) is None
        assert stats_if_complete(None, 0) is None
