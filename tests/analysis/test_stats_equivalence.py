"""The summary-statistics path equals the walk-the-values path.

``build_report`` (and ``json-schema-infer statistics``) read everything
after the schema from the run's :class:`StatsBundle`, the one per-path
statistics implementation in ``src/``.  These tests pin it against an
independent oracle: on the same records, the bundle's counts (read here
in the collector's shape) and the succinctness row computed from the
run are *equal* — not merely close — to what a plain walk over the
values produces.
"""

from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.report import build_report
from repro.analysis.stats import succinctness_row, succinctness_row_from_run
from repro.core.kinds import Kind
from repro.core.types import RecordType, StarArrayType, UnionType
from repro.inference.counting import FieldPresence, presence_report
from repro.inference.pipeline import run_inference
from repro.inference.statistics import PathStats, StatsBundle
from tests.conftest import json_records, make_corpus

record_lists = st.lists(json_records, min_size=1, max_size=12)


class StatisticsCollector:
    """The oracle: counts path occurrences, per-path kinds and array
    lengths by walking the values themselves."""

    def __init__(self):
        self.record_count = 0
        self.path_counts = Counter()
        self.kind_counts = Counter()
        #: path -> [count, min length, max length, total elements]
        self.array_lengths = {}

    def observe_many(self, values):
        for value in values:
            self.record_count += 1
            self._walk(value, "$")

    def _walk(self, value, path):
        self.path_counts[path] += 1
        self.kind_counts[(path, _kind_of(value))] += 1
        if isinstance(value, dict):
            for key, sub in value.items():
                self._walk(sub, f"{path}.{key}")
        elif isinstance(value, list):
            n = len(value)
            stats = self.array_lengths.get(path)
            if stats is None:
                self.array_lengths[path] = [1, n, n, n]
            else:
                stats[0] += 1
                stats[1] = min(stats[1], n)
                stats[2] = max(stats[2], n)
                stats[3] += n
            for sub in value:
                self._walk(sub, f"{path}[*]")

    def presence_report(self, schema):
        """The presence entries of :func:`presence_report`, from the
        oracle's own counts."""
        out = []
        self._report(schema, "$", out)
        return out

    def _report(self, t, path, out):
        if isinstance(t, UnionType):
            for member in t.members:
                self._report(member, path, out)
        elif isinstance(t, RecordType):
            parent = self.kind_counts.get((path, Kind.RECORD), 0)
            for fld in t.fields:
                sub_path = f"{path}.{fld.name}"
                out.append(FieldPresence(
                    path=sub_path,
                    optional=fld.optional,
                    occurrences=self.path_counts.get(sub_path, 0),
                    parent_occurrences=parent,
                ))
                self._report(fld.type, sub_path, out)
        elif isinstance(t, StarArrayType):
            self._report(t.body, f"{path}[*]", out)


def _kind_of(value):
    # bool is an int subclass: test it first, mirroring the kernel.
    if value is None:
        return Kind.NULL
    if isinstance(value, bool):
        return Kind.BOOL
    if isinstance(value, (int, float)):
        return Kind.NUM
    if isinstance(value, str):
        return Kind.STR
    if isinstance(value, dict):
        return Kind.RECORD
    if isinstance(value, list):
        return Kind.ARRAY
    raise TypeError(f"cannot compute statistics for {type(value).__name__}")


def _observe_path(node, value, kind):
    node.kinds.update(kind)
    if kind is Kind.NUM:
        node.numbers.update(value)
    elif kind is Kind.STR:
        node.strings.update(len(value))
    elif kind is Kind.ARRAY:
        node.arrays.update(len(value))
    if node.values is not None and kind.is_basic:
        # The sketch primitives, not ValueSketches.update_all's inlined
        # loop: the same digests, registers and bits, computed apart.
        node.values.hll.update(value)
        node.values.bloom.update(value)


def _walk(paths, sketches, value, path):
    node = paths.get(path)
    if node is None:
        node = paths[path] = PathStats(sketches)
    kind = _kind_of(value)
    _observe_path(node, value, kind)
    if kind is Kind.RECORD:
        for key, sub in value.items():
            _walk(paths, sketches, sub, f"{path}.{key}")
    elif kind is Kind.ARRAY:
        sub_path = f"{path}[*]"
        for sub in value:
            _walk(paths, sketches, sub, sub_path)


def oracle_bundle(values, mode):
    """The plain statistics walk, the oracle of :class:`StatsBundle`'s
    observation trie: a path string and a kind test per node, every
    scalar sketched, every statistic updated once per observation.
    ``values`` holds ``(value, type_size)`` pairs."""
    bundle = StatsBundle(mode)
    for value, type_size in values:
        bundle.record_count += 1
        bundle.type_sizes.update(type_size)
        _walk(bundle.paths, mode == "sketches", value, "$")
    return bundle


def collector_view(bundle):
    """A bundle's counts in the oracle's shape: ``(record_count,
    path_counts, kind_counts, array_lengths)``."""
    path_counts, kind_counts, array_lengths = {}, {}, {}
    for path, node in bundle.paths.items():
        path_counts[path] = node.kinds.total
        for name, n in node.kinds.counts.items():
            kind_counts[(path, Kind[name])] = n
        arrays = node.arrays
        if arrays.count:
            array_lengths[path] = [
                arrays.count, arrays.minimum, arrays.maximum, arrays.total,
            ]
    return bundle.record_count, path_counts, kind_counts, array_lengths


class TestSuccinctnessEquivalence:
    @given(values=record_lists)
    @example(values=[{"_": []}, {"_": []}])  # Fuse is not idempotent here
    @settings(max_examples=40)
    def test_row_from_run_equals_row_from_values(self, values):
        direct = succinctness_row(values, label="x")
        run = run_inference(values, stats_mode="basic")
        via_run = succinctness_row_from_run(run, label="x")
        assert via_run == direct

    def test_fixed_corpus(self):
        corpus = make_corpus(96, seed=3)
        direct = succinctness_row(corpus, label="corpus")
        run = run_inference(corpus, stats_mode="sketches")
        assert succinctness_row_from_run(run, label="corpus") == direct


class TestCollectorViewEquivalence:
    """A ``basic`` bundle, read in the collector's shape, equals the
    :class:`StatisticsCollector` oracle walked over the same values."""

    @given(values=record_lists)
    @settings(max_examples=40)
    def test_presence_and_kind_counts_match(self, values):
        collector = StatisticsCollector()
        collector.observe_many(values)
        run = run_inference(values, stats_mode="basic")
        record_count, path_counts, kind_counts, _ = collector_view(run.stats)
        assert record_count == collector.record_count
        assert path_counts == dict(collector.path_counts)
        assert kind_counts == dict(collector.kind_counts)

    @given(values=record_lists)
    @settings(max_examples=40)
    def test_array_lengths_match(self, values):
        collector = StatisticsCollector()
        collector.observe_many(values)
        run = run_inference(values, stats_mode="basic")
        _, _, _, array_lengths = collector_view(run.stats)
        assert array_lengths == collector.array_lengths

    @given(values=record_lists)
    @settings(max_examples=30)
    def test_presence_report_identical(self, values):
        collector = StatisticsCollector()
        collector.observe_many(values)
        run = run_inference(values, stats_mode="basic")
        expected = collector.presence_report(run.schema)
        assert presence_report(run.schema, run.stats) == expected


class TestReportEndToEnd:
    def test_report_renders_from_summary_statistics(self):
        corpus = make_corpus(48, seed=5)
        report = build_report(corpus, name="corpus")
        assert "# Schema audit: corpus" in report
        assert "## Overview" in report
        assert "## Fused schema" in report
        # Presence and array sections are populated from the bundle.
        assert "## Array lengths" in report
