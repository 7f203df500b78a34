"""Unit tests for the audit report builder (repro.analysis.report)."""

import itertools
from types import SimpleNamespace

import pytest

from repro.analysis.report import build_report
from repro.core.type_parser import parse_type
from repro.datasets import generate_list

VALUES = [
    {"a": 1, "tags": ["x", "y"]},
    {"a": "s", "b": True, "tags": []},
    {"a": 2, "tags": ["z"]},
]


@pytest.fixture(scope="module")
def report():
    return build_report(VALUES, name="demo")


class TestReportStructure:
    def test_title(self, report):
        assert report.startswith("# Schema audit: demo")

    def test_all_sections_present(self, report):
        for heading in ["## Overview", "## Fused schema", "## Paths",
                        "## Optional-field presence", "## Array lengths"]:
            assert heading in report

    def test_overview_counts(self, report):
        assert "| 3" in report.replace("|      3", "| 3")

    def test_schema_block_is_valid_type_syntax(self, report):
        block = report.split("```")[1].strip()
        parse_type(block)  # must parse

    def test_path_classification(self, report):
        assert "1 optional" in report or "optional" in report
        assert "`$.a`" in report
        assert "`$.tags`" in report

    def test_presence_ratio_of_optional_field(self, report):
        # b occurs in 1 of 3 records.
        assert "$.b" in report
        assert "33.3%" in report

    def test_array_length_stats(self, report):
        assert "$.tags" in report
        # lengths 2, 0, 1 -> min 0, mean 1.0, max 2
        assert "1.0" in report


class TestReportEdgeCases:
    def test_empty_collection(self):
        report = build_report([], name="empty")
        assert "# Schema audit: empty" in report
        assert "## Overview" in report

    def test_atoms_only(self):
        report = build_report([1, "x", None], name="atoms")
        assert "## Fused schema" in report
        assert "## Optional-field presence" not in report

    def test_no_arrays_no_array_section(self):
        report = build_report([{"a": 1}], name="x")
        assert "## Array lengths" not in report

    def test_max_paths_truncates(self):
        values = [{f"k{i}": 1 for i in range(30)}]
        report = build_report(values, name="wide", max_paths=5)
        assert "and 25 more" in report

    def test_real_dataset_smoke(self):
        report = build_report(generate_list("github", 80), name="github")
        assert "pull_request" in report
        assert report.count("##") >= 3


class TestDeterminism:
    """A report is a function of its input: no wall-clock reading."""

    @pytest.fixture(autouse=True)
    def speeding_clock(self, monkeypatch):
        """Each clock read of the inference pipeline moves 10 ms further
        than the one before, so no two runs time the same and a timing
        that reached the report would differ between them."""
        from repro.inference import pipeline

        ticks = itertools.accumulate(itertools.count(0.01, 0.01))
        monkeypatch.setattr(pipeline, "time",
                            SimpleNamespace(perf_counter=lambda: next(ticks)))

    def test_same_values_same_report(self):
        assert build_report(VALUES) == build_report(VALUES)

    def test_cli_prints_the_same_stdout_twice(self, tmp_path, capsys):
        from repro.cli import main
        from repro.jsonio.ndjson import write_ndjson

        path = tmp_path / "demo.ndjson"
        write_ndjson(path, VALUES)
        outputs = []
        for _ in range(2):
            assert main(["report", str(path)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "## Overview" in outputs[0]
