"""Quantifying schema precision — the paper's future-work axis.

A fused schema is a *supertype* of every record's type (Theorem 5.2), so it
may admit values that never occurred: unions forget field correlations
(``{a: Num + Str}`` admits records the data never paired that way), star
arrays forget element order and counts, optional fields forget co-presence.
The paper's conclusion announces studying "the relationship between
precision and efficiency"; this module supplies the measuring device:

* :func:`precision_score` — sample the fused schema with the type-directed
  generator and report the fraction of samples admitted by at least one of
  the *original* per-record types.  1.0 means no detectable
  over-approximation; lower means the schema got looser.
* :func:`schema_looseness` — a size-based companion: how much larger the
  value space got, path by path (counts union members and optional fields
  introduced by fusion).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.core.generator import generate_values
from repro.core.kinds import Kind
from repro.core.semantics import matches
from repro.core.types import RecordType, StarArrayType, Type, UnionType
from repro.inference.fusion import fuse_multiset
from repro.inference.infer import infer_type
from repro.inference.pipeline import run_inference
from repro.inference.statistics import StatsBundle

__all__ = ["PrecisionReport", "precision_score", "path_precision",
           "schema_looseness"]


@dataclass(frozen=True)
class PrecisionReport:
    """Result of a sampling-based precision measurement."""

    samples: int
    admitted_by_originals: int
    schema_size: int

    @property
    def precision(self) -> float:
        """Fraction of schema samples the original types also admit."""
        if self.samples == 0:
            return 1.0
        return self.admitted_by_originals / self.samples


def precision_score(values: Sequence[Any], samples: int = 200,
                    seed: int = 0) -> PrecisionReport:
    """Measure how much the fused schema of ``values`` over-approximates.

    Infers the distinct types of ``values``, fuses them, samples the fused
    schema ``samples`` times, and counts how many samples at least one
    distinct original type admits.

    >>> report = precision_score([{"a": 1}, {"a": 2}], samples=50)
    >>> report.precision
    1.0
    """
    distinct = list(dict.fromkeys(infer_type(v) for v in values))
    schema = fuse_multiset(distinct)
    if not distinct:
        return PrecisionReport(samples=0, admitted_by_originals=0,
                               schema_size=schema.size)
    generated = generate_values(schema, samples, seed=seed)
    admitted = sum(
        1 for g in generated if any(matches(g, t) for t in distinct)
    )
    return PrecisionReport(
        samples=samples,
        admitted_by_originals=admitted,
        schema_size=schema.size,
    )


def path_precision(values: Sequence[Any], samples: int = 200,
                   seed: int = 0) -> float:
    """Path-level precision: a graded companion to :func:`precision_score`.

    Whole-record precision is brutally strict — on heterogeneous data a
    schema sample almost never reproduces an *exact* original field
    combination, so the score collapses to ~0 even though every individual
    path is fine.  This metric instead asks, per sampled value, whether
    every ``(path, kind)`` pair it contains was observed somewhere in the
    original data, and returns the fraction of fully path-sound samples.

    1.0 means fusion invented no new paths or path types (it cannot — the
    schema is built from observed types); values below 1.0 arise only from
    *combinations* the star/union structure permits, e.g. an array mixing
    element kinds that never co-occurred.
    """
    run = run_inference(values, stats_mode="basic")
    if not run.record_count:
        return 1.0
    observed_pairs = _path_kinds(run.stats)

    sound = 0
    for sample in generate_values(run.schema, samples, seed=seed):
        probe = run_inference([sample], stats_mode="basic").stats
        if _path_kinds(probe) <= observed_pairs:
            sound += 1
    return sound / samples if samples else 1.0


def _path_kinds(stats: StatsBundle) -> set[tuple[str, Kind]]:
    """Every ``(path, kind)`` pair a statistics bundle observed."""
    return {
        (path, Kind[name])
        for path, node in stats.paths.items()
        for name in node.kinds.counts
    }


def schema_looseness(t: Type) -> dict[str, int]:
    """Count the looseness constructs fusion introduced, per category.

    Returns counts of ``union_members`` (beyond the first per union),
    ``optional_fields`` and ``star_arrays`` — the three ways a fused schema
    widens beyond any single record type.
    """
    counts = {"union_members": 0, "optional_fields": 0, "star_arrays": 0}
    _walk(t, counts)
    return counts


def _walk(t: Type, counts: dict[str, int]) -> None:
    if isinstance(t, UnionType):
        counts["union_members"] += len(t.members) - 1
        for member in t.members:
            _walk(member, counts)
    elif isinstance(t, RecordType):
        for field in t.fields:
            if field.optional:
                counts["optional_fields"] += 1
            _walk(field.type, counts)
    elif isinstance(t, StarArrayType):
        counts["star_arrays"] += 1
        _walk(t.body, counts)
    else:
        for child in t.children():
            _walk(child, counts)
