"""Per-path counts and presence ratios (repro.inference.counting).

The counts come from the run's ``basic`` :class:`StatsBundle`, the one
per-path statistics implementation; :func:`presence_report` joins them
back onto the fused schema.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import InvalidValueError
from repro.core.kinds import Kind
from repro.inference.counting import FieldPresence, presence_report
from repro.inference.pipeline import infer_schema, run_inference
from repro.inference.statistics import RangeStat, StatsBundle
from tests.conftest import json_records

RECORDS = [
    {"a": 1, "b": "x"},
    {"a": "y"},
    {"a": None, "b": "z", "c": {"d": [1, 2]}},
]


def bundle(values):
    """The ``basic`` statistics bundle of a run over ``values``."""
    return run_inference(values, stats_mode="basic").stats


def path_counts(stats):
    return {path: node.kinds.total for path, node in stats.paths.items()}


def kind_counts(stats):
    return {
        (path, Kind[name]): n
        for path, node in stats.paths.items()
        for name, n in node.kinds.counts.items()
    }


def array_lengths(stats):
    return {
        path: node.arrays for path, node in stats.paths.items()
        if node.arrays.count
    }


class TestStatisticsCollector:
    """The path and kind counts a bundle keeps, and how bundles merge."""

    def test_record_count(self):
        assert bundle(RECORDS).record_count == 3

    def test_path_counts(self):
        counts = path_counts(bundle(RECORDS))
        assert counts["$"] == 3
        assert counts["$.a"] == 3
        assert counts["$.b"] == 2
        assert counts["$.c.d"] == 1
        assert counts["$.c.d[*]"] == 2  # two array items

    def test_kind_counts(self):
        counts = kind_counts(bundle(RECORDS))
        assert counts[("$.a", Kind.NUM)] == 1
        assert counts[("$.a", Kind.STR)] == 1
        assert counts[("$.a", Kind.NULL)] == 1

    def test_non_json_value_rejected(self):
        with pytest.raises(InvalidValueError):
            bundle([object()])

    def test_merge_adds_counts(self):
        merged = bundle(RECORDS[:1]).merge(bundle(RECORDS[1:]))
        assert merged.record_count == 3
        assert path_counts(merged)["$.a"] == 3

    def test_merge_leaves_inputs_unchanged(self):
        left, right = bundle(RECORDS[:1]), bundle(RECORDS[1:2])
        left.merge(right)
        assert left.record_count == 1
        assert path_counts(left)["$.a"] == 1

    @given(st.lists(json_records, max_size=6), st.integers(0, 6))
    def test_merge_equals_single_pass(self, records, cut):
        cut = min(cut, len(records))
        merged = bundle(records[:cut]).merge(bundle(records[cut:]))
        single = bundle(records)
        assert path_counts(merged) == path_counts(single)
        assert kind_counts(merged) == kind_counts(single)


class TestArrayLengthStats:
    def test_lengths_tracked_per_path(self):
        lengths = array_lengths(bundle([
            {"xs": [1, 2, 3]}, {"xs": []}, {"xs": [4]},
        ]))["$.xs"]
        assert lengths.count == 3
        assert lengths.minimum == 0
        assert lengths.maximum == 3
        assert lengths.total == 4

    def test_mean_length(self):
        stats = bundle([{"xs": [1, 2]}, {"xs": [3, 4, 5, 6]}])
        assert array_lengths(stats)["$.xs"].mean == 3.0

    def test_nested_array_paths(self):
        lengths = array_lengths(bundle([{"m": [[1], [2, 3]]}]))
        assert lengths["$.m"].count == 1
        assert lengths["$.m[*]"].count == 2
        assert lengths["$.m[*]"].maximum == 2

    def test_no_arrays_no_stats(self):
        assert array_lengths(bundle([{"a": 1}])) == {}

    def test_merge_combines_length_stats(self):
        left = bundle([{"xs": [1]}])
        right = bundle([{"xs": [1, 2, 3]}, {"ys": []}])
        lengths = array_lengths(left.merge(right))
        assert lengths["$.xs"].count == 2
        assert lengths["$.xs"].maximum == 3
        assert lengths["$.ys"].count == 1

    def test_merge_with_empty_side(self):
        merged = StatsBundle("basic").merge(bundle([{"xs": [1, 2]}]))
        lengths = array_lengths(merged)["$.xs"]
        assert lengths.count == 1
        assert lengths.minimum == 2

    def test_empty_stats_mean_is_zero(self):
        assert RangeStat().mean == 0.0


class TestPresenceReport:
    def make(self):
        return presence_report(infer_schema(RECORDS), bundle(RECORDS))

    def test_mandatory_field_has_ratio_one(self):
        report = {e.path: e for e in self.make()}
        assert report["$.a"].ratio == 1.0
        assert not report["$.a"].optional

    def test_optional_field_ratio_below_one(self):
        report = {e.path: e for e in self.make()}
        entry = report["$.b"]
        assert entry.optional
        assert entry.ratio == pytest.approx(2 / 3)

    def test_nested_fields_relative_to_parent(self):
        report = {e.path: e for e in self.make()}
        # c occurs once; within that one record, d always occurs.
        assert report["$.c.d"].ratio == 1.0

    def test_ratio_with_no_parent_occurrences(self):
        entry = FieldPresence(path="$.x", optional=True,
                              occurrences=0, parent_occurrences=0)
        assert entry.ratio == 0.0

    @given(st.lists(json_records, min_size=1, max_size=6))
    def test_report_consistent_with_schema_optionality(self, records):
        """A field the schema calls mandatory is present in every record
        in which its parent is a record."""
        for entry in presence_report(infer_schema(records), bundle(records)):
            if not entry.optional:
                assert entry.occurrences == entry.parent_occurrences
