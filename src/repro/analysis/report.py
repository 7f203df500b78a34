"""One-stop dataset audit reports.

Combines the analysis building blocks — fused schema, succinctness
statistics, path inventory, presence ratios, array-length statistics —
into a single Markdown document, the artefact a data engineer would attach
to a ticket when documenting an unknown JSON feed.  The CLI exposes it as
``json-schema-infer report``.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.analysis.paths import iter_schema_paths
from repro.analysis.stats import succinctness_row_from_run
from repro.analysis.tables import render_table
from repro.core.kinds import Kind
from repro.core.printer import pretty_print
from repro.core.types import Type
from repro.inference.counting import presence_report
from repro.inference.pipeline import run_inference

__all__ = ["STATISTICS_HEADERS", "build_report", "render_statistics",
           "statistics_rows"]


def build_report(values: Sequence[Any], name: str = "dataset",
                 max_paths: int = 200) -> str:
    """Render a Markdown audit report for a collection of JSON records.

    Sections: overview (record/type counts, sizes, timings), the fused
    schema, the path inventory split into always-present and optional
    paths (the introduction's three user guarantees), presence ratios for
    the optional fields, and array-length statistics.

    Everything after the schema comes from the run's summary statistics
    bundle rather than a second walk over the values, so the same
    sections can be produced from a stats-carrying checkpoint alone (see
    ``json-schema-infer statistics``); an equivalence test pins the two
    paths to identical output.
    """
    run = run_inference(values, stats_mode="basic")
    schema: Type = run.schema
    row = succinctness_row_from_run(run, label=name)
    stats = run.stats

    lines: list[str] = [f"# Schema audit: {name}", ""]

    # -- overview -----------------------------------------------------------
    lines += ["## Overview", ""]
    lines.append(render_table(
        ["records", "distinct types", "min size", "max size", "avg size",
         "fused size", "fused/avg"],
        [[
            f"{row.record_count:,}", f"{row.distinct_types:,}",
            f"{row.min_size:,}", f"{row.max_size:,}",
            f"{row.avg_size:,.1f}", f"{row.fused_size:,}",
            f"{row.ratio:.2f}",
        ]],
    ))
    lines.append("")
    lines.append(
        f"Inference took {run.map_seconds:.3f}s (typing) + "
        f"{run.reduce_seconds:.3f}s (fusion)."
    )
    lines.append("")

    # -- schema ---------------------------------------------------------------
    lines += ["## Fused schema", "", "```", pretty_print(schema), "```", ""]

    # -- paths ----------------------------------------------------------------
    paths = sorted(iter_schema_paths(schema))
    mandatory = [p for p, guaranteed in paths if guaranteed]
    optional = [p for p, guaranteed in paths if not guaranteed]
    lines += [
        "## Paths",
        "",
        f"{len(paths)} paths total: {len(mandatory)} always present, "
        f"{len(optional)} optional.",
        "",
    ]
    if mandatory:
        lines.append("Always present (safe to select unconditionally):")
        lines.append("")
        for path in mandatory[:max_paths]:
            lines.append(f"- `{path}`")
        if len(mandatory) > max_paths:
            lines.append(f"- ... and {len(mandatory) - max_paths} more")
        lines.append("")

    # -- presence -------------------------------------------------------------
    entries = [
        entry for entry in presence_report(schema, stats)
        if entry.optional and entry.occurrences > 0
    ]
    entries.sort(key=lambda e: e.ratio)
    if entries:
        lines += ["## Optional-field presence", ""]
        lines.append(render_table(
            ["path", "present in"],
            [[e.path, f"{e.ratio:.1%}"] for e in entries[:max_paths]],
        ))
        lines.append("")

    # -- arrays ---------------------------------------------------------------
    arrays = sorted(
        (path, node.arrays) for path, node in stats.paths.items()
        if node.arrays.count
    )
    if arrays:
        lines += ["## Array lengths", ""]
        lines.append(render_table(
            ["path", "arrays", "min", "mean", "max"],
            [
                [path, f"{s.count:,}", s.minimum, f"{s.mean:.1f}", s.maximum]
                for path, s in arrays[:max_paths]
            ],
        ))
        lines.append("")

    return "\n".join(lines)


#: Header row matching :func:`statistics_rows`.
STATISTICS_HEADERS = [
    "path", "count", "kinds", "range", "distinct≈",
]


def _format_number(value: Any) -> str:
    # repr, not %g: bounds are exact (canonicalized in the bundle) and
    # the report should not re-round them.
    if isinstance(value, float):
        return repr(value)
    return f"{value:,}"


def _path_cells(path: str, node: Any, record_count: int) -> list[str]:
    """One table row for one document path's statistics."""
    kinds = " ".join(
        f"{name}:{count:,}"
        for name, count in sorted(node.kinds.counts.items())
    )
    ranges = []
    if node.numbers.count:
        ranges.append(
            f"[{_format_number(node.numbers.minimum)}, "
            f"{_format_number(node.numbers.maximum)}]"
        )
    if node.strings.count:
        ranges.append(
            f"len [{node.strings.minimum}, {node.strings.maximum}]"
        )
    if node.arrays.count:
        ranges.append(
            f"items [{node.arrays.minimum}, {node.arrays.maximum}]"
        )
    distinct = ""
    if node.values is not None:
        scalars = sum(
            count for name, count in node.kinds.counts.items()
            if Kind[name].is_basic
        )
        if scalars:
            distinct = f"{round(node.values.hll.estimate()):,}"
    return [path, f"{node.kinds.total:,}", kinds, " ".join(ranges), distinct]


def statistics_rows(bundle: Any, max_paths: int = 200) -> list[list[str]]:
    """Tabulated per-path statistics from a
    :class:`~repro.inference.statistics.StatsBundle` (paths sorted; the
    ``distinct≈`` column is populated only in ``sketches`` mode)."""
    return [
        _path_cells(path, bundle.paths[path], bundle.record_count)
        for path in sorted(bundle.paths)[:max_paths]
    ]


def render_statistics(bundle: Any, name: str = "dataset",
                      max_paths: int = 200) -> str:
    """The ``json-schema-infer statistics`` report: a per-path table of
    occurrence counts, kind frequencies, numeric/length ranges and (in
    ``sketches`` mode) HyperLogLog distinct-value estimates.

    Works from any stats bundle — a live run's or one loaded from a
    checkpoint — so the report needs no access to the original values.
    """
    lines = [
        f"# Statistics: {name}",
        "",
        f"{bundle.record_count:,} records · {bundle.path_count:,} paths · "
        f"mode {bundle.mode}",
        "",
        render_table(STATISTICS_HEADERS, statistics_rows(bundle, max_paths)),
    ]
    if bundle.path_count > max_paths:
        lines.append("")
        lines.append(f"... and {bundle.path_count - max_paths:,} more paths")
    return "\n".join(lines)
