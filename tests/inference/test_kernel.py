"""Tests for the streaming partition kernel (repro.inference.kernel).

The kernel's contract is *exactness*: for any input, its schema, record
count and distinct-type count must equal (plain ``==``) the naive
``fuse_all(infer_type(v) for v in values)`` path.  The property tests here
fuzz that contract on arbitrary JSON, and the backend tests check that the
thread and process pools agree with the local path bit for bit.
"""

from __future__ import annotations

import gc
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import InvalidValueError
from repro.core.interning import TypeInterner
from repro.core.types import EMPTY
from repro.datasets import generate_list
from repro.datasets.base import DATASET_NAMES
from repro.engine import Context
from repro.inference.fusion import fuse, fuse_all
from repro.inference.infer import infer_type
from repro.inference.kernel import (
    PartitionAccumulator,
    PartitionSummary,
    accumulate_partition,
    decode_summary,
    digest_types,
    encode_summary,
    merge_summaries_full,
    _Fuse,
)
from repro.inference.pipeline import run_inference
from tests.conftest import json_values, normal_types

json_value_lists = st.lists(json_values(12), max_size=25)


def naive(values):
    """The reference pipeline: materialise, fuse, count, dedupe."""
    types = [infer_type(v) for v in values]
    return fuse_all(types), len(types), len(set(types))


class TestAccumulatorMatchesNaive:
    @given(json_value_lists)
    def test_schema_count_distinct(self, values):
        acc = PartitionAccumulator()
        acc.add_many(values)
        schema, count, distinct = naive(values)
        assert acc.schema == schema
        assert acc.record_count == count
        assert acc.distinct_type_count == distinct

    @given(json_value_lists, st.integers(min_value=1, max_value=4))
    def test_partitioned_merge_matches_naive(self, values, num_partitions):
        """Splitting arbitrarily and merging summaries changes nothing —
        the practical face of associativity (Theorem 5.5)."""
        parts = [values[i::num_partitions] for i in range(num_partitions)]
        merged = merge_summaries_full(
            [accumulate_partition(p) for p in parts]
        )
        assert (merged.schema, merged.record_count,
                merged.distinct_type_count) == naive(values)

    def test_empty_accumulator(self):
        acc = PartitionAccumulator()
        assert acc.schema == EMPTY
        assert acc.record_count == 0
        assert acc.distinct_type_count == 0
        summary = acc.summary()
        assert summary.schema == EMPTY
        assert summary.distinct_types == ()

    def test_add_type_fuses_without_distinct(self):
        acc = PartitionAccumulator()
        acc.add({"a": 1})
        other = PartitionAccumulator()
        other.add({"b": "x"})
        acc.add_type(other.schema, records=other.record_count)
        assert acc.record_count == 2
        assert acc.distinct_type_count == 1  # only the directly-seen value
        assert acc.schema == fuse(infer_type({"a": 1}), infer_type({"b": "x"}))

    def test_distinct_types_first_seen_order(self):
        acc = PartitionAccumulator()
        acc.add_many([1, "a", 1, None, "b"])
        assert acc.distinct_types() == (
            infer_type(1), infer_type("a"), infer_type(None),
        )


class TestDigestBoundary:
    """A distinct set stays interned types until it crosses a boundary
    or meets a set that has; either form counts exactly."""

    @staticmethod
    def crossed(values):
        """The summary of ``values`` after a trip over the wire."""
        return decode_summary(encode_summary(accumulate_partition(values)))

    def test_local_runs_digest_nothing(self):
        summary = accumulate_partition([{"a": 1}, {"a": "x"}, {"a": 1}])
        assert len(summary.distinct_types) == 2
        assert summary.distinct_digests == frozenset()
        merged = merge_summaries_full([summary, accumulate_partition([2])])
        assert len(merged.distinct_types) == 3
        assert merged.distinct_digests == frozenset()

    @given(json_value_lists, json_value_lists)
    def test_mixed_merge_unions_digests(self, left, right):
        merged = merge_summaries_full(
            [self.crossed(left), accumulate_partition(right)]
        )
        if left:  # an empty set is in neither form
            assert merged.distinct_types == ()
        assert merged.distinct_type_count == naive(left + right)[2]
        assert merged.digest_set() == frozenset(
            digest_types(infer_type(v) for v in left + right)
        )

    @given(json_value_lists, json_value_lists)
    def test_accumulator_takes_foreign_digests(self, seen, values):
        acc = PartitionAccumulator()
        acc.add_summary(self.crossed(seen))
        acc.add_many(values)
        expected = naive(seen + values)
        assert acc.distinct_type_count == expected[2]
        summary = acc.summary()
        if seen:
            assert summary.distinct_types == ()
        assert (summary.schema, summary.record_count,
                summary.distinct_type_count) == expected

    def test_both_forms_at_once_rejected(self):
        summary = accumulate_partition([{"a": 1}])
        with pytest.raises(ValueError, match="not both"):
            PartitionSummary(
                schema=summary.schema, record_count=1,
                distinct_types=summary.distinct_types,
                distinct_digests=summary.digest_set(),
            )


class TestFusionMemo:
    """The kernel's n-ary ``Fuse`` and the memo of its sub-fusions."""

    @given(normal_types(), normal_types())
    def test_matches_reference_fuse(self, a, b):
        interner = TypeInterner()
        fuser = _Fuse(interner, {})
        assert fuser([interner.intern(a), interner.intern(b)]) == fuse(a, b)

    def test_repeat_fusions_hit_the_cache(self):
        # Alternating shapes, then more of the same: a repeated record
        # type is no new operand, so the second read fuses nothing and
        # the memo does not grow.
        def alternating(n):
            return ({"a": [1, i]} if i % 2 else {"b": "x"} for i in range(n))

        acc = PartitionAccumulator()
        acc.add_many(alternating(50))
        schema = acc.schema
        memo = dict(acc._fuse._memo)
        acc.add_many(alternating(50))
        assert acc.schema is schema
        assert acc._fuse._memo == memo
        assert len(memo) >= 1

    def test_positional_arrays_not_identity_fused(self):
        """fuse is not idempotent on positional arrays ([Num, Num] with
        itself gives [Num*]); the pointer fast path must not swallow it."""
        interner = TypeInterner()
        fuser = _Fuse(interner, {})
        arr = interner.intern(infer_type([1, 2]))
        assert fuser([arr, arr]) == fuse(arr, arr) != arr
        acc = PartitionAccumulator()
        acc.add_many([[1, 2], [1, 2], [1, 2]])
        assert acc.schema == fuse(arr, arr)


class TestNoReferenceCycle:
    """Worker processes run with the cyclic GC off, so an accumulator
    must be freed by reference counting alone once a task drops it."""

    @pytest.fixture(autouse=True)
    def gc_off(self):
        enabled = gc.isenabled()
        gc.disable()
        yield
        if enabled:
            gc.enable()

    def test_freed_after_summary_and_encode(self):
        acc = PartitionAccumulator()
        acc.add_many(generate_list("wikidata", 60, seed=0))
        encode_summary(acc.summary())
        ref = weakref.ref(acc)
        del acc
        assert ref() is None

    def test_freed_after_add_summary_and_merge(self):
        values = generate_list("wikidata", 60, seed=1)
        other = PartitionAccumulator()
        other.add_many(values[30:])
        acc = PartitionAccumulator()
        acc.add_many(values[:30])
        acc.add_summary(other.summary())
        merged = merge_summaries_full([acc.summary(), other.summary()])
        refs = [weakref.ref(acc), weakref.ref(other)]
        del acc, other
        assert [ref() for ref in refs] == [None, None]
        assert merged.record_count == 90


class TestBackendsAgree:
    @pytest.fixture(scope="class")
    def process_ctx(self):
        with Context(parallelism=2, backend="process") as ctx:
            yield ctx

    @pytest.fixture(scope="class")
    def thread_ctx(self):
        with Context(parallelism=2, backend="thread") as ctx:
            yield ctx

    @settings(max_examples=15)
    @given(values=json_value_lists)
    def test_thread_process_local_identical(
        self, values, thread_ctx, process_ctx
    ):
        local = run_inference(values)
        threaded = run_inference(values, context=thread_ctx, num_partitions=2)
        processed = run_inference(values, context=process_ctx,
                                  num_partitions=2)
        for run in (threaded, processed):
            assert run.schema == local.schema
            assert run.record_count == local.record_count
            assert run.distinct_type_count == local.distinct_type_count


class TestKernelMatchesLegacyOnDatasets:
    """Acceptance: bit-identical InferenceRun results on all four
    synthetic datasets, the partitioned kernel vs. the legacy reference
    semantics — the :func:`naive` fold over every record's type."""

    @pytest.mark.parametrize("name", sorted(DATASET_NAMES))
    def test_bit_identical(self, name):
        values = generate_list(name, 120)
        with Context(parallelism=2) as ctx:
            streaming = run_inference(values, context=ctx, num_partitions=2)
        schema, count, distinct = naive(values)
        assert streaming.schema == schema
        assert streaming.record_count == count == 120
        assert streaming.distinct_type_count == distinct


class TestInvalidValues:
    def test_non_json_value(self):
        acc = PartitionAccumulator()
        with pytest.raises(InvalidValueError, match="not a JSON value"):
            acc.add({1, 2})

    def test_plain_tuple_of_pairs_is_not_an_object(self):
        # Only the map loop's decoder yields an object as its key/value
        # pairs, in a tuple class of its own.
        acc = PartitionAccumulator()
        with pytest.raises(InvalidValueError,
                           match="not a JSON value: tuple"):
            acc.add((("a", 1),))

    def test_non_string_key(self):
        acc = PartitionAccumulator()
        with pytest.raises(InvalidValueError, match="non-string record key"):
            acc.add({1: "x"})

    def test_failed_add_leaves_counts_untouched(self):
        acc = PartitionAccumulator()
        acc.add({"a": 1})
        with pytest.raises(InvalidValueError):
            acc.add(object())
        assert acc.record_count == 1
        assert acc.distinct_type_count == 1

    def test_deep_nesting_raises_invalid_value(self):
        value = None
        for _ in range(sys.getrecursionlimit() * 2):
            value = [value]
        acc = PartitionAccumulator()
        with pytest.raises(InvalidValueError, match="nested too deeply"):
            acc.add(value)

    def test_subclasses_of_builtins(self):
        import collections

        class MyList(list):
            pass

        acc = PartitionAccumulator()
        acc.add(collections.OrderedDict(a=MyList([True, 1])))
        assert acc.schema == infer_type({"a": [True, 1]})
