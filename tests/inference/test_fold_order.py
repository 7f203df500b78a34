"""Fold order and grouping invariance of the streaming kernel.

:meth:`PartitionAccumulator.observe` only collects a partition's
distinct types (a positional one twice), and reading the schema fuses
them in one n-ary ``Fuse``; :func:`merge_summaries_full` fuses partial
schemas the same way through a fresh interner.  Fuse is commutative and
associative (Theorems 5.4 and 5.5), so none of this may be observable:
every order, grouping and interleaving of reads, ``add_type`` and
``add_summary`` must print the schema of the reference
``fuse_all(infer_type(v) for v in values)`` with the same record and
distinct counts.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.printer import print_type
from repro.datasets import generate_list
from repro.inference.fusion import fuse_all
from repro.inference.infer import infer_type
from repro.inference.kernel import (
    PartitionAccumulator,
    decode_summary,
    encode_summary,
    merge_summaries_full,
)
from tests.conftest import json_records, wide_key_records

#: Schema width (``Type.size``) the key-explosion corpus must pass: a
#: schema this wide is where a record-at-a-time fold would rebuild a
#: wide record per record.
WIDE = 2_000

record_lists = st.lists(
    st.one_of(json_records, wide_key_records), max_size=30
)


def reference(values):
    """``(printed schema, record count, distinct count)`` of the oracle."""
    types = [infer_type(v) for v in values]
    return print_type(fuse_all(types)), len(types), len(set(types))


def observed(result):
    """The same triple, off an accumulator or a summary."""
    return (print_type(result.schema), result.record_count,
            result.distinct_type_count)


class TestOrderInvariance:
    @given(data=st.data(), values=record_lists)
    def test_any_permutation_with_reads_matches_reference(self, data, values):
        order = data.draw(st.permutations(values), label="order")
        reads = data.draw(
            st.sets(st.integers(0, max(len(order) - 1, 0))), label="reads"
        )
        acc = PartitionAccumulator()
        for i, value in enumerate(order):
            acc.add(value)
            if i in reads:
                # A read mid-stream fuses the pending operands; it must
                # see exactly the prefix so far.
                prefix = order[:i + 1]
                read = acc.summary() if i % 2 else acc
                assert observed(read) == reference(prefix)
        assert observed(acc) == reference(values)
        assert observed(acc.summary()) == reference(values)

    @given(data=st.data(), values=record_lists)
    def test_any_grouping_merged_in_any_tree_matches_reference(
        self, data, values
    ):
        cuts = sorted(data.draw(
            st.sets(st.integers(1, max(len(values) - 1, 1))), label="cuts"
        ))
        bounds = [0, *[c for c in cuts if c < len(values)], len(values)]
        rows = []
        for lo, hi in zip(bounds, bounds[1:]):
            acc = PartitionAccumulator()
            acc.add_many(values[lo:hi])
            rows.append(acc.summary())
        # Merge adjacent runs of rows until one is left: a random tree
        # over the consecutive groups.
        while len(rows) > 1:
            i = data.draw(st.integers(0, len(rows) - 2), label="at")
            j = data.draw(st.integers(i + 2, len(rows)), label="to")
            rows[i:j] = [merge_summaries_full(rows[i:j])]
        merged = merge_summaries_full(rows)
        assert observed(merged) == reference(values)

    @given(data=st.data(), values=record_lists)
    def test_reads_add_type_and_add_summary_leave_the_schema_unchanged(
        self, data, values
    ):
        # Each value arrives one of four ways: streamed, streamed and
        # read, folded in as a type, or folded in as another
        # accumulator's summary.
        ways = data.draw(st.lists(
            st.sampled_from(["add", "read", "type", "summary"]),
            min_size=len(values), max_size=len(values),
        ), label="ways")
        acc = PartitionAccumulator()
        for value, way in zip(values, ways):
            if way == "type":
                acc.add_type(infer_type(value))
            elif way == "summary":
                other = PartitionAccumulator()
                other.add(value)
                acc.add_summary(other.summary())
            else:
                acc.add(value)
                if way == "read":
                    acc.schema
        schema, records, _ = reference(values)
        assert (print_type(acc.schema), acc.record_count) == (
            schema, records,
        )


class TestKeyExplosionCorpus:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_wikidata_crosses_the_threshold_and_matches(self, seed):
        values = generate_list("wikidata", 300, seed=seed)
        acc = PartitionAccumulator()
        acc.add_many(values)
        # Fails if the corpus ever stops growing a wide schema.
        assert acc.schema.size >= WIDE
        assert observed(acc) == reference(values)


class TestMergeSummaryGroup:
    VALUES = generate_list("wikidata", 300, seed=2)

    def partials(self):
        size = -(-len(self.VALUES) // 4)
        summaries = []
        for lo in range(0, len(self.VALUES), size):
            acc = PartitionAccumulator()
            acc.add_many(self.VALUES[lo:lo + size])
            summaries.append(acc.summary())
        return summaries

    def test_separate_accumulators(self):
        merged = merge_summaries_full(self.partials())
        assert observed(merged) == reference(self.VALUES)

    def test_wire_decoded_through_an_adoption_accumulator(self):
        adopt = PartitionAccumulator()
        decoded = [decode_summary(encode_summary(s), adopt)
                   for s in self.partials()]
        merged = merge_summaries_full(decoded)
        assert observed(merged) == reference(self.VALUES)

    def test_wire_decoded_without_an_adoption_accumulator(self):
        decoded = [decode_summary(encode_summary(s))
                   for s in self.partials()]
        merged = merge_summaries_full(decoded)
        assert observed(merged) == reference(self.VALUES)
