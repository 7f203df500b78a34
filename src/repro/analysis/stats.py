"""Succinctness statistics — the columns of the paper's Tables 2-5.

For each dataset and scale the paper reports: the number of *distinct*
inferred types, the min/max/average size of those types, and the size of
the fused type.  "The notion of size of a type is standard, and corresponds
to the size (number of nodes) of its Abstract Syntax Tree" (Section 6.2) —
that is :attr:`repro.core.types.Type.size`.

The fused/average ratio is the paper's headline succinctness metric
("the ratio between the size of the fused type and that of the average
size of the input types is not bigger than 1.4 for GitHub...").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.core.types import Type
from repro.inference.fusion import fuse_multiset
from repro.inference.infer import infer_type

__all__ = [
    "TypeStatistics",
    "SuccinctnessRow",
    "succinctness_row",
    "succinctness_row_from_run",
]


@dataclass(frozen=True)
class TypeStatistics:
    """Aggregate size statistics over a collection of types."""

    count: int
    distinct_count: int
    min_size: int
    max_size: int
    mean_size: float
    total_size: int

    @classmethod
    def from_types(cls, types: Sequence[Type]) -> "TypeStatistics":
        """Compute statistics for ``types`` (which may contain duplicates)."""
        if not types:
            return cls(0, 0, 0, 0, 0.0, 0)
        sizes = [t.size for t in types]
        return cls(
            count=len(types),
            distinct_count=len(set(types)),
            min_size=min(sizes),
            max_size=max(sizes),
            mean_size=sum(sizes) / len(sizes),
            total_size=sum(sizes),
        )

    @classmethod
    def from_values(cls, values: Iterable[Any]) -> "TypeStatistics":
        """Type every value, then compute statistics."""
        return cls.from_types([infer_type(v) for v in values])

    @classmethod
    def from_bundle(cls, bundle: Any, distinct_count: int) -> "TypeStatistics":
        """Statistics from a summary stats bundle — no values needed.

        ``bundle.type_sizes`` (see
        :class:`repro.inference.statistics.StatsBundle`) tracks the
        exact integer min/max/total of every observed record's type
        size, so every field here matches :meth:`from_values` over the
        same records exactly — which is what lets succinctness tables
        run from a checkpoint alone.
        """
        sizes = bundle.type_sizes
        if not sizes.count:
            return cls(0, 0, 0, 0, 0.0, 0)
        return cls(
            count=sizes.count,
            distinct_count=distinct_count,
            min_size=sizes.minimum,
            max_size=sizes.maximum,
            mean_size=sizes.mean,
            total_size=sizes.total,
        )


@dataclass(frozen=True)
class SuccinctnessRow:
    """One row of a Table 2-5 style report."""

    label: str
    record_count: int
    distinct_types: int
    min_size: int
    max_size: int
    avg_size: float
    fused_size: int

    @property
    def ratio(self) -> float:
        """Fused size over average input size — the succinctness metric."""
        if self.avg_size == 0:
            return 0.0
        return self.fused_size / self.avg_size

    def cells(self) -> list[str]:
        """Formatted cells in the paper's column order."""
        return [
            self.label,
            f"{self.distinct_types:,}",
            f"{self.min_size:,}",
            f"{self.max_size:,}",
            f"{self.avg_size:,.1f}",
            f"{self.fused_size:,}",
            f"{self.ratio:.2f}",
        ]


#: Header row matching :meth:`SuccinctnessRow.cells`.
SUCCINCTNESS_HEADERS = [
    "scale", "# types", "min", "max", "avg", "fused size", "fused/avg",
]


def succinctness_row(values: Sequence[Any], label: str) -> SuccinctnessRow:
    """Infer, fuse and measure — one full table row from raw values."""
    types = [infer_type(v) for v in values]
    stats = TypeStatistics.from_types(types)
    # Not fuse_all over the distinct types: Fuse is not idempotent on
    # positional arrays, and the row must match fusing every record.
    fused = fuse_multiset(types)
    return SuccinctnessRow(
        label=label,
        record_count=stats.count,
        distinct_types=stats.distinct_count,
        min_size=stats.min_size,
        max_size=stats.max_size,
        avg_size=stats.mean_size,
        fused_size=fused.size,
    )


def succinctness_row_from_run(run: Any, label: str) -> SuccinctnessRow:
    """The same table row from a stats-enriched run — no values needed.

    ``run`` is anything with ``schema``, ``distinct_type_count`` and a
    ``stats`` bundle (an :class:`~repro.inference.pipeline.InferenceRun`
    from a ``stats_mode != "off"`` run, or a loaded stats-carrying
    checkpoint summary wrapped the same way).  The bundle's type-size
    range is exact, so the row equals :func:`succinctness_row` over the
    same records — the equivalence test pins this.
    """
    bundle = getattr(run, "stats", None)
    if bundle is None:
        raise ValueError(
            "succinctness_row_from_run needs a statistics bundle; "
            "run inference with stats_mode='basic' or 'sketches'"
        )
    stats = TypeStatistics.from_bundle(bundle, run.distinct_type_count)
    return SuccinctnessRow(
        label=label,
        record_count=stats.count,
        distinct_types=stats.distinct_count,
        min_size=stats.min_size,
        max_size=stats.max_size,
        avg_size=stats.mean_size,
        fused_size=run.schema.size,
    )
