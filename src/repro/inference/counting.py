"""Presence ratios — the paper's stated future work, read off statistics.

Section 7: "In the near future we plan to enrich schemas with statistical
and provenance information about the input data."  The per-path counts
live in the mergeable :class:`~repro.inference.statistics.StatsBundle`
that rides the summary monoid (``stats_mode="basic"`` or higher);
:func:`presence_report` joins them back onto a fused schema, reporting
for every record field how often it was present — turning the schema's
qualitative ``?`` into a quantitative presence ratio.

Paths use the same JSONPath-flavoured notation as
:func:`repro.core.values.iter_paths`: ``$.user.name``, ``$.tags[*]``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.kinds import Kind
from repro.core.types import RecordType, StarArrayType, Type, UnionType
from repro.inference.statistics import StatsBundle

__all__ = ["FieldPresence", "presence_report"]


@dataclass(frozen=True)
class FieldPresence:
    """Presence statistics for one schema field."""

    path: str
    optional: bool
    occurrences: int
    parent_occurrences: int

    @property
    def ratio(self) -> float:
        """Occurrences relative to the number of enclosing records."""
        if self.parent_occurrences == 0:
            return 0.0
        return self.occurrences / self.parent_occurrences


def presence_report(schema: Type, stats: StatsBundle) -> list[FieldPresence]:
    """Join a statistics bundle onto a fused schema, one entry per field.

    ``stats`` is the bundle of a run over the same records, e.g.
    ``run_inference(values, stats_mode="basic").stats``, or one loaded
    from a checkpoint.  The report confirms the schema's optionality
    annotations numerically: a mandatory field should show ratio 1.0, an
    optional one less.
    """
    out: list[FieldPresence] = []
    _report(schema, "$", stats, out)
    return out


def _occurrences(stats: StatsBundle, path: str, kind: Kind | None = None) -> int:
    node = stats.paths.get(path)
    if node is None:
        return 0
    return node.kinds.total if kind is None else node.kinds.get(kind)


def _report(t: Type, path: str, stats: StatsBundle,
            out: list[FieldPresence]) -> None:
    if isinstance(t, UnionType):
        for member in t.members:
            _report(member, path, stats, out)
    elif isinstance(t, RecordType):
        # A field can only be present when the parent value is a record,
        # so ratios are taken relative to the record-kind count at ``path``.
        parent = _occurrences(stats, path, Kind.RECORD)
        for fld in t.fields:
            sub_path = f"{path}.{fld.name}"
            out.append(FieldPresence(
                path=sub_path,
                optional=fld.optional,
                occurrences=_occurrences(stats, sub_path),
                parent_occurrences=parent,
            ))
            _report(fld.type, sub_path, stats, out)
    elif isinstance(t, StarArrayType):
        _report(t.body, f"{path}[*]", stats, out)
    # Positional arrays never survive fusion; basic/empty have no fields.
