"""The summary-statistics path equals the walk-the-values path.

``build_report`` (and ``json-schema-infer statistics``) now read
everything after the schema from the run's :class:`StatsBundle` instead
of re-walking the values with :class:`StatisticsCollector`.  These tests
pin the refactor: on the same records, the bundle-backed collector view
and the succinctness row computed from the run are *equal* — not merely
close — to what the original value-walking implementations produce.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.report import build_report
from repro.analysis.stats import succinctness_row, succinctness_row_from_run
from repro.inference.counting import StatisticsCollector, presence_report
from repro.inference.pipeline import run_inference
from tests.conftest import json_records, make_corpus

record_lists = st.lists(json_records, min_size=1, max_size=12)


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
    """``StatsBundle.as_collector_view`` is a drop-in replacement for a
    :class:`StatisticsCollector` walked over the same values."""

    @given(values=record_lists)
    @settings(max_examples=40)
    def test_presence_and_kind_counts_match(self, values):
        collector = StatisticsCollector()
        collector.observe_many(values)
        run = run_inference(values, stats_mode="basic")
        view = run.stats.as_collector_view()
        assert view.record_count == collector.record_count
        assert dict(view.path_counts) == dict(collector.path_counts)
        assert dict(view.kind_counts) == dict(collector.kind_counts)

    @given(values=record_lists)
    @settings(max_examples=40)
    def test_array_lengths_match(self, values):
        collector = StatisticsCollector()
        collector.observe_many(values)
        run = run_inference(values, stats_mode="basic")
        view = run.stats.as_collector_view()
        assert set(view.array_lengths) == set(collector.array_lengths)
        for path, stats in collector.array_lengths.items():
            ours = view.array_lengths[path]
            assert (ours.count, ours.min_length, ours.max_length,
                    ours.total_elements) == (
                stats.count, stats.min_length, stats.max_length,
                stats.total_elements)

    @given(values=record_lists)
    @settings(max_examples=30)
    def test_presence_report_identical(self, values):
        collector = StatisticsCollector()
        collector.observe_many(values)
        run = run_inference(values, stats_mode="basic")
        old = presence_report(run.schema, collector)
        new = presence_report(run.schema, run.stats.as_collector_view())
        assert new == old


class TestReportEndToEnd:
    def test_report_renders_from_summary_statistics(self):
        corpus = make_corpus(48, seed=5)
        report = build_report(corpus, name="corpus")
        assert "# Schema audit: corpus" in report
        assert "## Overview" in report
        assert "## Fused schema" in report
        # Presence and array sections are populated from the bundle.
        assert "## Array lengths" in report
