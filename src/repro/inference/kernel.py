"""Single-pass streaming inference kernel (the one path of the pipeline).

A partition's result is its fused schema, its record count and its
distinct top-level types.  Rather than materialising one type tree per
record and then counting, deduplicating and folding the cached list,
this module computes all three in *one* pass per partition:

* :class:`PartitionAccumulator` consumes raw JSON values one at a time.
  Each value is typed **directly into interned form**: the Fig. 4 rules are
  applied bottom-up through a per-partition
  :class:`repro.core.interning.TypeInterner`, so structurally equal
  (sub)trees become the *same* object the moment they are inferred —
  there is never a second, un-pooled copy of the tree.
* Distinct-type counting falls out of interning for free: a top-level type
  is new exactly when its canonical object has not been seen before, an
  ``id()`` set membership test instead of a structural-hash ``set`` pass.
* A record costs no fusion: the paper's Map phase "yields a set of
  distinct types to be fused" (Section 2), so each distinct type (a
  positional one twice) waits as an operand, and reading the schema
  fuses them in one n-ary ``Fuse`` (:class:`_Fuse`).  Fuse is
  commutative and associative (Theorems 5.4 and 5.5), so that one
  fusion gives the schema of any fold order.  It groups the operands'
  addends by kind and record fields by name, and fuses each group once,
  so a wide schema — the paper's key-explosion regime, where ids are
  keys — is built once per read, not rebuilt per record.
* :meth:`PartitionAccumulator.summary` emits a tiny, picklable
  :class:`PartitionSummary` (schema + counts + distinct types), which is
  what crosses a process boundary when the scheduler runs with
  ``backend="process"`` — wire-encoded, with the distinct types as
  32-byte digests (:func:`type_digest`).  :func:`merge_summaries_full`
  recombines the partials at the driver in one n-ary ``Fuse`` through
  one interner.  Any grouping of the merge yields the same schema —
  that is exactly the associativity theorem (Theorem 5.5), the same
  property that already licenses ``tree_reduce``.

Everything here is *exact*: the accumulator's schema, record count and
distinct-type count are identical (plain ``==``) to the naive
``fuse_all(infer_type(v) for v in values)`` path, which the property tests
check on arbitrary JSON values.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Any, Iterable, Sequence

from repro.core.errors import InvalidTypeError, InvalidValueError
from repro.core.interning import TypeInterner
from repro.core.kinds import Kind
from repro.core.types import (
    ArrayType,
    BasicType,
    BOOL,
    EMPTY,
    EmptyType,
    Field,
    NULL,
    NUM,
    RecordType,
    STR,
    StarArrayType,
    Type,
    UnionType,
)
from repro.inference.statistics import (
    StatsBundle,
    create_stats_bundle,
    merge_stats,
)
from repro.jsonio.errors import JsonError, JsonSyntaxError
from repro.jsonio.ndjson import BadRecord
from repro.jsonio.parser import MAX_DEPTH, loads
from repro.jsonio.splits import FileSplit, SplitLineReader, count_lines_before
from repro.jsonio.typestream import FastLaneMiss, _Pairs, _pairs_decoder

__all__ = [
    "PartitionAccumulator",
    "PartitionSummary",
    "PhaseTimings",
    "WIRE_FORMAT_VERSION",
    "accumulate_ndjson_item",
    "accumulate_ndjson_partition",
    "accumulate_partition",
    "as_wire_payload",
    "decode_summary",
    "encode_summary",
    "merge_phase_timings",
    "merge_summaries_full",
]


#: Operand lists that hold, or keep once repeats are dropped, at most
#: this many types fold through :meth:`_Fuse.pair`.  They are the array
#: bodies and field types below a schema's top level, whose fusions
#: recur: pairs of them keep hitting the memo where sets of them miss
#: (see docs/PERFORMANCE.md).
_PAIRWISE_MAX = 4

_RECORD = Kind.RECORD
_ARRAY = Kind.ARRAY


class _Fuse:
    """The n-ary ``Fuse``: ``fuse(operands) == fuse_all(operands)`` for
    operands canonical in one interner.

    Fuse is commutative and associative (Theorems 5.4 and 5.5), so the
    operands' addends group by kind, a record group's fields by name (a
    field is optional when some record lacks it or has it optional) and
    an array group's elements and star bodies into one body, and each
    group fuses once, recursively.  A group of one comes back unchanged,
    so a positional array seen once stays positional.  Repeats of a type
    without positional arrays drop out; a positional type keeps a second
    copy, since fusing it with itself collapses its arrays (a third
    changes nothing).  Groups of at most :data:`_PAIRWISE_MAX` fold
    through :meth:`pair`, a record walk memoized on the pointer pair: a
    pairwise fold is ``fuse_all`` itself, repeats and all.

    Results are memoized on operand ids and built through the interner
    and the construction pools, so they are canonical; the interner
    keeps every operand alive, so no id is reused.  The fuser holds no
    reference to its accumulator: workers run with the cyclic GC off,
    and a cycle would leak every task's accumulator.
    """

    __slots__ = (
        "_interner", "_record_pool", "_star_pool", "_union_pool", "_memo",
    )

    def __init__(self, interner: TypeInterner,
                 record_pool: "dict[tuple[Field, ...], Type]") -> None:
        self._interner = interner
        # Construction pools, as the accumulator's: a shape built before
        # costs one lookup, not a node's construction and interning.
        self._record_pool = record_pool
        self._star_pool: dict[Type, Type] = {}
        self._union_pool: dict[tuple[Type, ...], Type] = {}
        self._memo: dict[tuple[int, ...], Type] = {}

    def __call__(self, operands: Sequence[Type]) -> Type:
        """Fuse a sequence of canonical types, repeats included."""
        if len(operands) > _PAIRWISE_MAX:
            ids = list(map(id, operands))
            distinct = dict(zip(ids, operands))
            if len(distinct) < len(operands):
                operands = list(distinct.values())
                positional = [t for t in operands if t._has_positional]
                if positional:
                    counts = Counter(ids)
                    operands += [t for t in positional if counts[id(t)] > 1]
                ids = list(map(id, operands))
        if len(operands) <= _PAIRWISE_MAX:
            return self._fold(operands) if operands else EMPTY
        # Sorted, so that any order of one operand set hits the memo.
        key = tuple(sorted(ids))
        found = self._memo.get(key)
        if found is None:
            found = self._memo[key] = self._group(operands)
        return found

    def pair(self, a: Type, b: Type) -> Type:
        """Fuse two canonical types (Fig. 6 line 1)."""
        # One object without positional arrays: fuse is the identity.
        if a is b and not a._has_positional:
            return a
        key = (id(a), id(b))
        found = self._memo.get(key)
        if found is None:
            ka, kb = a.kind, b.kind
            if ka is None or kb is None:
                found = self._group((a, b))  # a union or an empty type
            elif ka is not kb:
                found = self._union((a, b))
            elif ka is _RECORD:
                found = self._record_pair(a, b)
            elif ka is _ARRAY:
                found = self._star((a, b))
            else:
                found = a  # one basic kind (line 2)
            self._memo[key] = found
        return found

    def _fold(self, operands: Sequence[Type]) -> Type:
        pair = self.pair
        t = operands[0]
        for u in operands[1:]:
            t = pair(t, u)
        return t

    def _group(self, operands: Sequence[Type]) -> Type:
        """Group the operands' addends by kind and fuse each group."""
        groups: dict[Kind, list[Type]] = {}
        seen: set[int] = set()
        for t in operands:
            for addend in (t,) if t.kind is not None else t.addends():
                i = id(addend)
                if i not in seen:
                    seen.add(i)
                elif not addend._has_positional:
                    continue
                group = groups.get(addend.kind)
                if group is None:
                    groups[addend.kind] = [addend]
                else:
                    group.append(addend)
        fused = [
            self._records(group) if len(group) > 1 and kind is _RECORD
            else self._star(group) if len(group) > 1 and kind is _ARRAY
            else group[0]  # one member, or one basic kind
            for kind, group in groups.items()
        ]
        if len(fused) == 1:
            return fused[0]
        if not fused:
            return operands[0]  # every operand is the empty type
        return self._union(tuple(fused))

    def _union(self, members: tuple[Type, ...]) -> Type:
        found = self._union_pool.get(members)
        if found is None:
            found = self._interner.intern_node(UnionType(members))
            self._union_pool[members] = found
        return found

    def _record(self, shape: tuple[Field, ...]) -> Type:
        found = self._record_pool.get(shape)
        if found is None:
            found = self._interner.intern_node(RecordType(shape))
            self._record_pool[shape] = found
        return found

    def _records(self, records: list[Type]) -> Type:
        """Fig. 6 line 3 over a group of records: fields group by name.

        Records share their canonical fields, so the field objects are
        counted in C and only the distinct ones are walked.
        """
        if len(records) <= _PAIRWISE_MAX:
            return self._fold(records)
        shapes = [r.fields for r in records]
        # Both passes stream the fields through C: a list of every
        # field's id would hold one int object per field occurrence.
        counts = Counter(map(id, chain.from_iterable(shapes)))
        distinct = dict(zip(map(id, chain.from_iterable(shapes)),
                            chain.from_iterable(shapes)))
        by_name: dict[str, list[Field]] = {}
        for f in distinct.values():
            group = by_name.get(f.name)
            if group is None:
                by_name[f.name] = [f]
            else:
                group.append(f)
        field = self._interner.field
        fields = []
        for name, group in by_name.items():
            present = 0
            optional = False
            types = []
            for f in group:
                times = counts[id(f)]
                present += times
                optional = optional or f.optional
                types.append(f.type)
                if times > 1 and f.type._has_positional:
                    types.append(f.type)
            fields.append(field(name, self(types),
                                optional or present < len(records)))
        return self._record(tuple(fields))

    def _record_pair(self, t1: RecordType, t2: RecordType) -> Type:
        """Fig. 6 line 3 for two records: one walk over ``t1``'s fields
        against ``t2``'s name index, then ``t2``'s leftovers."""
        field = self._interner.field
        fuse = self.pair
        f2_of = t2.field
        fields = []
        matched = 0
        for f1 in t1.fields:
            f2 = f2_of(f1.name)
            if f2 is None:
                fields.append(f1 if f1.optional
                              else field(f1.name, f1.type, True))
                continue
            matched += 1
            ft = fuse(f1.type, f2.type)
            opt = f1.optional or f2.optional
            # Reuse the field node when fusion changed nothing (the
            # common case once a schema converges).
            if ft is f1.type and opt == f1.optional:
                fields.append(f1)
            else:
                fields.append(field(f1.name, ft, opt))
        if matched != len(t2.fields):
            for f2 in t2.fields:
                if f2.name not in t1:
                    fields.append(f2 if f2.optional
                                  else field(f2.name, f2.type, True))
        return self._record(tuple(fields))

    def _star(self, arrays: Sequence[Type]) -> Type:
        """Fig. 6 lines 4-9 over a group of arrays: the positional
        elements and the star bodies fuse into one body."""
        body = []
        for a in arrays:
            if isinstance(a, StarArrayType):
                body.append(a.body)
            else:
                body.extend(a.elements)
        body = self(body)
        found = self._star_pool.get(body)
        if found is None:
            found = self._interner.intern_node(StarArrayType(body))
            self._star_pool[body] = found
        return found


@dataclass(frozen=True)
class PhaseTimings:
    """Wall-clock attribution of one partition's map phase, per stage.

    The map phase of an NDJSON partition decomposes into three measurable
    stages, accumulated across the partition's records:

    * ``parse_s`` — the guarded C decode of each line into a value,
      each object left as its key/value pairs
      (:mod:`repro.jsonio.typestream`), plus the strict re-parse of any
      line that misses;
    * ``type_s`` — value to interned type (Fig. 4), with the
      duplicate-key check of each record shape new to the partition;
    * ``fuse_s`` — distinct-type tracking per record, plus the one
      n-ary ``Fuse`` of the partition's distinct types when its schema
      is read;
    * ``stats_s`` — the statistics walk (:meth:`StatsBundle.observe`)
      and the final fold of its windows; 0.0 with statistics off.
    """

    parse_s: float = 0.0
    type_s: float = 0.0
    fuse_s: float = 0.0
    records: int = 0
    stats_s: float = 0.0

    @property
    def map_s(self) -> float:
        """Total attributed map time (sum of the per-stage buckets)."""
        return self.parse_s + self.type_s + self.fuse_s + self.stats_s

    @property
    def records_per_s(self) -> float:
        """Throughput over the attributed map time (0.0 when untimed)."""
        total = self.map_s
        return self.records / total if total else 0.0

    def describe(self) -> str:
        """One human-readable line for CLI reports.

        >>> PhaseTimings(1.0, 0.5, 0.5, 10000).describe()
        'parse 1.000s · type 0.500s · fuse 0.500s · 5,000 records/s'
        >>> PhaseTimings(1.0, 0.5, 0.5, 10000, stats_s=0.5).describe()
        'parse 1.000s · type 0.500s · fuse 0.500s · stats 0.500s · 4,000 records/s'
        """
        stats = f" · stats {self.stats_s:.3f}s" if self.stats_s else ""
        return (f"parse {self.parse_s:.3f}s · type {self.type_s:.3f}s"
                f" · fuse {self.fuse_s:.3f}s{stats}"
                f" · {self.records_per_s:,.0f} records/s")


def merge_phase_timings(
    timings: Iterable["PhaseTimings | None"],
) -> "PhaseTimings | None":
    """Sum per-partition phase timings; ``None`` when none were recorded.

    Stage buckets add across partitions (total CPU-seconds attributed to
    each stage, regardless of overlap under a parallel backend).
    """
    rows = [t for t in timings if t is not None]
    if not rows:
        return None
    return PhaseTimings(
        parse_s=sum(t.parse_s for t in rows),
        type_s=sum(t.type_s for t in rows),
        fuse_s=sum(t.fuse_s for t in rows),
        records=sum(t.records for t in rows),
        stats_s=sum(t.stats_s for t in rows),
    )


@dataclass(frozen=True)
class PartitionSummary:
    """The tiny, picklable result of streaming one partition.

    The partition's distinct top-level types travel with it so the driver
    can compute the *global* distinct count exactly (two partitions may
    share types); per the paper's measurements this set is orders of
    magnitude smaller than the record count.  Only the set's *size* is
    ever read, so it has two interchangeable forms, and at most one of
    them is non-empty:

    * ``distinct_types`` — interned types, while the set has not left
      the process that typed its records;
    * ``distinct_digests`` — one 32-byte :func:`type_digest` per type,
      once the set has crossed a process or disk boundary (wire frames,
      journals, cache entries, checkpoints) or met a set that has.

    Digest equality coincides with type equality (barring a sha-256
    collision), so either form counts distinct types exactly.
    """

    schema: Type
    record_count: int
    distinct_types: tuple[Type, ...] = ()
    #: Records quarantined during a permissive NDJSON partition pass
    #: (empty for already-parsed inputs).
    skipped: tuple[BadRecord, ...] = field(default=())
    #: Per-phase map timings (NDJSON partitions with
    #: ``collect_timings=True`` only; ``None`` when timing was off or for
    #: already-parsed inputs, whose parse phase happened elsewhere).
    timings: PhaseTimings | None = field(default=None)
    #: Physical lines owned by this partition's byte-range split (blank
    #: lines included), the quantity the driver prefix-sums to turn
    #: split-local line numbers into absolute ones.  Zero for partitions
    #: that were not read from a byte split.
    line_count: int = 0
    #: Bytes this partition read from its source file (byte-split
    #: partitions only) — the worker-side half of the engine's
    #: bytes-shipped vs bytes-read accounting.
    bytes_read: int = 0
    #: Telemetry: which worker produced this summary
    #: (``pid<N>/<thread-name>``).  Excluded from equality — two runs of
    #: the same partition are the same result regardless of which worker
    #: computed it.
    worker: str = field(default="", compare=False, repr=False)
    #: Optional mergeable per-path statistics
    #: (:class:`repro.inference.statistics.StatsBundle`).  ``None`` when
    #: the run had ``stats="off"`` — the default, which keeps the hot
    #: path statistics-free.  Part of the result (compared), and rides
    #: the wire format and checkpoints like every other component.
    stats: "StatsBundle | None" = field(default=None)
    #: The distinct set as digests (see the class docstring).
    distinct_digests: "frozenset[bytes]" = field(default=frozenset())

    def __post_init__(self) -> None:
        if self.distinct_types and self.distinct_digests:
            raise ValueError(
                "a summary holds its distinct set as types or as digests, "
                "not both"
            )

    @property
    def distinct_type_count(self) -> int:
        """Distinct top-level types within this partition."""
        return len(self.distinct_digests or self.distinct_types)

    def digest_set(self) -> "frozenset[bytes]":
        """The distinct set as digests, digesting the types if need be."""
        if self.distinct_digests or not self.distinct_types:
            return self.distinct_digests
        return frozenset(digest_types(self.distinct_types))

    @property
    def skipped_count(self) -> int:
        """Number of quarantined records in this partition."""
        return len(self.skipped)


def _deeper_than(t: Type, limit: int) -> bool:
    """Whether ``t`` nests more than ``limit`` arrays and records.

    A type nests at most as many levels as it has nodes, so only
    subtrees larger than what is left of ``limit`` are walked.
    """
    if isinstance(t, UnionType):
        return any(_deeper_than(m, limit) for m in t.members)
    if isinstance(t, (BasicType, EmptyType)):
        return False
    if limit < 1:
        return True
    return any(
        c.size >= limit and _deeper_than(c, limit - 1)
        for c in t.children()
    )


class PartitionAccumulator:
    """Streaming schema accumulator: one pass, no materialised type list.

    >>> from repro.core.printer import print_type
    >>> acc = PartitionAccumulator()
    >>> acc.add_many([{"a": 1}, {"a": "x", "b": True}, {"a": 1}])
    >>> print_type(acc.schema)
    '{a: (Num + Str), b: Bool?}'
    >>> acc.record_count, acc.distinct_type_count
    (3, 2)

    Every accumulator owns its interner, its fuser and construction
    pools: a map task builds a fresh one and drops it with the task.
    """

    def __init__(self, stats_mode: str = "off") -> None:
        self.interner = TypeInterner()
        # Construction pools: map tuples of canonical children straight
        # to the canonical node, skipping node construction (sort, hash,
        # size) for shapes seen before.  Keyed on the *unsorted* child
        # tuple, so two key orders of one record shape occupy two entries
        # mapping to the same canonical type — a deliberate trade of a
        # little memory for never re-sorting.
        self._record_pool: dict[tuple[Field, ...], Type] = {}
        self._array_pool: dict[tuple[Type, ...], Type] = {}
        #: ``(key, value class) -> canonical field`` for the fields whose
        #: value is a JSON scalar: most of a record's fields cost
        #: :meth:`_infer` one lookup here.
        self._scalar_fields: dict[tuple[str, type], Field] = {}
        self._fuse = _Fuse(self.interner, self._record_pool)
        self._schema: Type = EMPTY
        #: Canonical types not yet fused into ``_schema``; reading
        #: :attr:`schema` fuses them all at once.
        self._operands: list[Type] = []
        self._count = 0
        self._distinct_ids: set[int] = set()
        self._distinct: list[Type] = []
        #: ids of the distinct types with positional arrays that have
        #: been seen at least twice.
        self._twice: set[int] = set()
        #: Digests of distinct types that arrived as digests (through
        #: :meth:`add_summary`); possibly overlapping ``_distinct``.
        self._foreign: set[bytes] = set()
        #: Per-path statistics bundle, or ``None`` when stats are off.
        self.stats: "StatsBundle | None" = create_stats_bundle(stats_mode)

    @property
    def schema(self) -> Type:
        """The running fused schema (empty type before any record).

        Reading it fuses the pending operands (see :meth:`observe`) into
        the schema in one n-ary ``Fuse``, so it covers every record.
        """
        if self._operands:
            self._operands.append(self._schema)
            self._schema = self._fuse(self._operands)
            self._operands = []
        return self._schema

    @property
    def record_count(self) -> int:
        """How many values have been streamed in."""
        return self._count

    @property
    def distinct_type_count(self) -> int:
        """Number of distinct top-level inferred types seen so far."""
        if self._foreign:
            return len(self._digest_set())
        return len(self._distinct)

    def distinct_types(self) -> tuple[Type, ...]:
        """The distinct top-level types interned here, in first-seen
        order (types that arrived as digests are not among them)."""
        return tuple(self._distinct)

    def _digest_set(self) -> "frozenset[bytes]":
        """Local and foreign distinct types, all as digests."""
        digests = set(digest_types(self._distinct))
        digests |= self._foreign
        return frozenset(digests)

    def add(self, value: Any) -> None:
        """Stream one JSON value: type, intern, count, fuse — one step."""
        # Stats ride behind one attribute load + None test — the whole
        # cost of the feature when it is off.  Observation happens after
        # typing, so an invalid value raises before touching the bundle.
        stats = self.stats
        if stats is None:
            self.observe(self._infer_interned(value))
            return
        t = self._infer_interned(value)
        stats.observe(value, t.size)
        self.observe(t)

    def type_value(self, value: Any) -> Type:
        """Type one JSON value into this accumulator's interned form.

        Does *not* count or fuse it — pair with :meth:`observe`, which
        together make up :meth:`add`.  Exposed separately so callers can
        time (or interleave) the typing and fusion stages independently.
        """
        return self._infer_interned(value)

    def observe(self, t: Type) -> None:
        """Count one *canonical* type from this accumulator.

        ``t`` must be interned here — produced by :meth:`type_value` or
        the pool helpers — so the distinct test can be a pointer test.

        Nothing fuses here.  The paper's Map phase yields a set of
        distinct types to be fused (Section 2), so ``t`` joins the
        pending operands the first time it is seen, and a type with
        positional arrays joins once more the second time: fusing it
        with itself collapses its arrays, and by absorption
        (``fuse(fuse(T, T), T) == fuse(T, T)``) further repeats change
        nothing.  Reading :attr:`schema` fuses the operands.
        """
        self._count += 1
        key = id(t)  # canonical => identity test suffices
        if key not in self._distinct_ids:
            self._distinct_ids.add(key)
            self._distinct.append(t)
            self._operands.append(t)
        elif t._has_positional and key not in self._twice:
            self._twice.add(key)
            self._operands.append(t)

    def add_many(self, values: Iterable[Any]) -> None:
        """Stream a batch of values."""
        for value in values:
            self.add(value)

    def add_type(self, t: Type, records: int = 1) -> None:
        """Fuse a pre-computed type (e.g. a partial schema) into the schema.

        Does not contribute to the distinct top-level *value* types — it is
        a schema, not a record observation.
        """
        self._operands.append(self.interner.intern(t))
        self._count += records

    def add_summary(self, summary: PartitionSummary) -> None:
        """Fold a :class:`PartitionSummary` into this accumulator.

        The incremental-update primitive: a loaded checkpoint (or any
        other partial summary) merges into live state exactly as
        :func:`merge_summaries_full` would merge it at the driver — the
        schema fuses in, the record counts add, and the summary's
        distinct set joins this accumulator's.  Distinct *types* join
        structurally (they are interned here first, so the usual
        pointer-equality distinct test stays sound afterwards); distinct
        *digests* join the foreign digest set, and from then on
        :meth:`summary` reports the whole set as digests.
        """
        intern = self.interner.intern
        if summary.distinct_digests:
            self._foreign.update(summary.distinct_digests)
        for t in summary.distinct_types:
            canonical = intern(t)
            key = id(canonical)
            if key not in self._distinct_ids:
                self._distinct_ids.add(key)
                self._distinct.append(canonical)
        self._operands.append(intern(summary.schema))
        self._count += summary.record_count
        # Statistics merge only when this accumulator collects them: a
        # stats-off accumulator produces stats-less summaries, and
        # adopting a foreign bundle here would alias state that
        # :meth:`add` later mutates.  merge() returns a fresh bundle.
        foreign = getattr(summary, "stats", None)
        if self.stats is not None and foreign is not None:
            self.stats = self.stats.merge(foreign)

    def summary(self) -> PartitionSummary:
        """Snapshot the accumulator as a small, picklable summary.

        The distinct set stays interned types unless digests have been
        folded in, so a run that crosses no boundary digests nothing.
        """
        foreign = bool(self._foreign)
        return PartitionSummary(
            schema=self.schema,
            record_count=self._count,
            distinct_types=() if foreign else tuple(self._distinct),
            stats=self.stats,
            distinct_digests=self._digest_set() if foreign else frozenset(),
        )

    def record_type(self, shape: tuple[Field, ...]) -> Type:
        """The canonical record type for a tuple of canonical fields.

        The construction-pool lookup of :meth:`_infer`, exposed for the
        wire decoder (:func:`decode_summary`), which builds field tuples
        straight from a summary's op-stream.  ``shape`` keeps its given
        order; the pool maps it to the canonical (sorted) node.
        """
        return self._fuse._record(shape)

    def array_type(self, elements: tuple[Type, ...]) -> Type:
        """The canonical array type for a tuple of canonical elements."""
        t = self._array_pool.get(elements)
        if t is None:
            t = self.interner.intern_node(ArrayType(elements))
            self._array_pool[elements] = t
        return t

    # ------------------------------------------------------------------
    # interned value typing (Fig. 4 fused with hash-consing)

    def _infer_interned(self, value: Any) -> Type:
        try:
            return self._infer(value)
        except RecursionError:
            raise InvalidValueError(
                "value is nested too deeply to type (exceeds the recursion "
                "limit); flatten the value or raise sys.setrecursionlimit"
            ) from None

    def _infer(self, value: Any) -> Type:
        # Mirrors repro.inference.infer.infer_type rule for rule, but
        # builds each node from canonical children and pools it
        # immediately, so the tree is born interned.  Dispatches on the
        # exact class first — JSON decoding only ever yields the six
        # builtin types, or _Pairs for an object — and falls back to the
        # isinstance chain for subclasses, preserving infer_type's
        # semantics (bool before int, etc.).
        cls = value.__class__
        if cls is _Pairs or cls is dict:
            cached = self._scalar_fields
            field = self.interner.field
            fields = []
            append = fields.append
            for key, sub in value if cls is _Pairs else value.items():
                f = cached.get((key, sub.__class__))
                if f is None:
                    if key.__class__ is not str and not isinstance(key, str):
                        raise InvalidValueError(
                            f"non-string record key: {key!r}"
                        )
                    t = _SCALAR_TYPES.get(sub.__class__)
                    if t is None:
                        f = field(key, self._infer(sub))
                    else:
                        f = cached[key, sub.__class__] = field(key, t)
                append(f)
            shape = tuple(fields)
            t = self._record_pool.get(shape)
            if t is None:
                # Every pooled shape passed RecordType's unique-key
                # check, so only a shape new to the pool can repeat a
                # key: the pairs of an object whose text repeats one.
                try:
                    t = self.interner.intern_node(RecordType(shape))
                except InvalidTypeError:
                    raise FastLaneMiss("duplicate object key") from None
                self._record_pool[shape] = t
            return t
        if cls is list:
            infer = self._infer
            elements = tuple([_SCALAR_TYPES.get(v.__class__) or infer(v)
                              for v in value])
            t = self._array_pool.get(elements)
            if t is None:
                t = self.interner.intern_node(ArrayType(elements))
                self._array_pool[elements] = t
            return t
        t = _SCALAR_TYPES.get(cls)
        if t is not None:
            return t
        # Subclasses of the builtin types (IntEnum, OrderedDict, ...).
        if isinstance(value, bool):
            return BOOL
        if isinstance(value, (int, float)):
            return NUM
        if isinstance(value, str):
            return STR
        if isinstance(value, dict):
            return self._infer(dict(value))
        if isinstance(value, list):
            return self._infer(list(value))
        raise InvalidValueError(f"not a JSON value: {type(value).__name__}")


#: The type of each JSON scalar class (exact classes only: subclasses
#: take :meth:`PartitionAccumulator._infer`'s isinstance chain).
_SCALAR_TYPES: dict[type, Type] = {
    str: STR, int: NUM, float: NUM, bool: BOOL, type(None): NULL,
}


# ---------------------------------------------------------------------------
# Compact summary wire format (the task return path of the process backend)
#
# Pickling a PartitionSummary serialises the schema as an object graph:
# one __reduce__ frame per node, class references and per-node
# constructor tuples included — and the driver-side unpickle rebuilds the
# tree only for add_summary to re-intern it structurally, node by node.
# The wire format flattens instead: every schema node becomes a few small
# integers in one postorder op-stream (children precede parents,
# references are table indices), field names live once in a deduplicated
# string table, and shared subtrees — the whole point of interning — are
# stored exactly once.  The driver decodes *directly into* an
# accumulator's interner, so adoption is canonical from the start.  The
# distinct set never becomes ops: only its size is ever read, so it
# travels as its sorted, concatenated type digests (see "Type digests"
# below), which a worker computes in place of encoding the types.

#: Version tag leading every encoded payload; bump on layout changes.
#: v4 carries the distinct set as digests instead of ops; frames of any
#: other version do not decode.  The slot after ``worker`` is reserved:
#: earlier encoders wrote a per-worker cache flag there, and the decoder
#: skips it, so their frames decode like frames that carry ``None``.
WIRE_FORMAT_VERSION = 4

#: Node-table indices 0-4 are pre-seeded with the leaf singletons — they
#: never occupy ops in the payload.
_WIRE_BASE = (NULL, BOOL, NUM, STR, EMPTY)
_WIRE_BASIC_INDEX = {int(t.kind): i for i, t in enumerate(_WIRE_BASE[:4])}
_WIRE_EMPTY_INDEX = 4

# Op tags, one per composite node constructor.
_WIRE_RECORD = 0
_WIRE_ARRAY = 1
_WIRE_STAR = 2
_WIRE_UNION = 3


class _WireEncoder:
    """Flattens a canonical type DAG into the op-stream + key table."""

    __slots__ = ("ops", "keys", "_key_index", "_node_index", "_next")

    def __init__(self) -> None:
        #: The flat op-stream: ``RECORD n mask (key child)*n`` /
        #: ``ARRAY n child*n`` / ``STAR body`` / ``UNION n member*n``.
        #: One homogeneous list of small ints pickles far more compactly
        #: than per-node tuples.
        self.ops: list[int] = []
        self.keys: list[str] = []
        self._key_index: dict[str, int] = {}
        self._node_index: dict[int, int] = {}
        self._next = len(_WIRE_BASE)

    def _key(self, name: str) -> int:
        found = self._key_index.get(name)
        if found is None:
            found = self._key_index[name] = len(self.keys)
            self.keys.append(name)
        return found

    def encode(self, t: Type) -> int:
        """Emit ``t``'s unseen nodes (postorder); returns its table index.

        Memoized by ``id()``: the schema is canonical in one interner,
        so shared subtrees are emitted once.  Structurally equal nodes
        from *different* interners would get separate ops — harmless,
        and never produced by the kernel.
        """
        node_index = self._node_index
        key = id(t)
        found = node_index.get(key)
        if found is not None:
            return found
        if isinstance(t, BasicType):
            i = _WIRE_BASIC_INDEX[int(t.kind)]
        elif isinstance(t, EmptyType):
            i = _WIRE_EMPTY_INDEX
        elif isinstance(t, RecordType):
            fields = t.fields
            mask = 0
            pairs = []
            for bit, f in enumerate(fields):
                if f.optional:
                    mask |= 1 << bit
                pairs.append((self._key(f.name), self.encode(f.type)))
            ops = self.ops
            ops.append(_WIRE_RECORD)
            ops.append(len(fields))
            ops.append(mask)
            for key_i, child_i in pairs:
                ops.append(key_i)
                ops.append(child_i)
            i = self._next
            self._next += 1
        elif isinstance(t, StarArrayType):
            body = self.encode(t.body)
            self.ops.extend((_WIRE_STAR, body))
            i = self._next
            self._next += 1
        elif isinstance(t, ArrayType):
            children = [self.encode(e) for e in t.elements]
            self.ops.extend((_WIRE_ARRAY, len(children)))
            self.ops.extend(children)
            i = self._next
            self._next += 1
        elif isinstance(t, UnionType):
            members = [self.encode(m) for m in t.members]
            self.ops.extend((_WIRE_UNION, len(members)))
            self.ops.extend(members)
            i = self._next
            self._next += 1
        else:
            raise TypeError(
                f"cannot wire-encode type node {type(t).__name__}"
            )
        node_index[key] = i
        return i


def encode_summary(summary: PartitionSummary) -> bytes:
    """Encode a summary as the compact flat-table wire payload.

    The schema becomes the op-stream and the distinct set its packed
    digests (:func:`pack_digests`; interned distinct types are digested
    here); everything else (counts, quarantined records, timings,
    telemetry) rides along as plain data.  :func:`decode_summary`
    inverts this up to the form of the distinct set:
    ``decode_summary(encode_summary(s))`` equals ``s`` with
    ``distinct_digests=s.digest_set()`` in place of its types.
    """
    enc = _WireEncoder()
    schema_i = enc.encode(summary.schema)
    payload = (
        WIRE_FORMAT_VERSION,
        tuple(enc.keys),
        enc.ops,
        schema_i,
        pack_digests(summary.digest_set()),
        summary.record_count,
        summary.skipped,
        summary.timings,
        summary.line_count,
        summary.bytes_read,
        summary.worker,
        None,  # reserved (see WIRE_FORMAT_VERSION)
        None if summary.stats is None else summary.stats.to_wire(),
    )
    return pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)


def _decode_types(
    keys: Sequence[str],
    ops: Sequence[int],
    acc: PartitionAccumulator,
) -> list:
    """Replay the op-stream; entry ``i`` of the result is node ``i``.

    The nodes are built *canonical in the accumulator's interner*
    (fields through the field cache, records/arrays through the
    construction pools), so the driver's adoption needs no structural
    re-interning afterwards.
    """
    types: list[Type] = list(_WIRE_BASE)
    append = types.append
    make_field = acc.interner.field
    intern_node = acc.interner.intern_node
    record_type = acc.record_type
    array_type = acc.array_type
    pos = 0
    end = len(ops)
    while pos < end:
        tag = ops[pos]
        if tag == _WIRE_RECORD:
            n = ops[pos + 1]
            mask = ops[pos + 2]
            pos += 3
            shape = []
            for bit in range(n):
                shape.append(make_field(
                    keys[ops[pos]], types[ops[pos + 1]],
                    bool(mask >> bit & 1),
                ))
                pos += 2
            append(record_type(tuple(shape)))
        elif tag == _WIRE_ARRAY:
            n = ops[pos + 1]
            pos += 2
            append(array_type(
                tuple(types[ops[pos + j]] for j in range(n))
            ))
            pos += n
        elif tag == _WIRE_STAR:
            append(intern_node(StarArrayType(types[ops[pos + 1]])))
            pos += 2
        elif tag == _WIRE_UNION:
            n = ops[pos + 1]
            pos += 2
            append(intern_node(UnionType(
                tuple(types[ops[pos + j]] for j in range(n))
            )))
            pos += n
        else:
            raise ValueError(f"unknown wire op tag {tag!r}")
    return types


def decode_summary(
    payload: bytes, acc: "PartitionAccumulator | None" = None
) -> PartitionSummary:
    """Decode a wire payload back into a :class:`PartitionSummary`.

    The one decoder: process-pool results, journal frames and cache
    entries all come through here.  The schema is built canonical in
    ``acc``'s interner, a fresh accumulator's when none is given.  Pass
    the driver's adoption accumulator to share it: summaries decoded
    through one accumulator share subtrees across partitions.  The
    distinct set comes back as ``distinct_digests``.

    Raises :class:`ValueError` — "unsupported … version" for a frame of
    another version (v2 and v3 frames of earlier builds included),
    "malformed …" for anything else that does not decode.
    """
    try:
        frame = pickle.loads(payload)
        if not (isinstance(frame, tuple) and frame
                and isinstance(frame[0], int)):
            raise ValueError("not a summary frame")
    except Exception as exc:
        raise ValueError(f"malformed summary wire payload: {exc}") from exc
    version = frame[0]
    if version != WIRE_FORMAT_VERSION:
        raise ValueError(
            f"unsupported summary wire format version {version!r} "
            f"(expected {WIRE_FORMAT_VERSION})"
        )
    try:
        (_, keys, ops, schema_i, packed, record_count, skipped,
         timings, line_count, bytes_read, worker, _,
         stats_wire) = frame
        digests = unpack_digests(packed)
        stats = (None if stats_wire is None
                 else StatsBundle.from_wire(stats_wire))
        schema = _decode_types(
            keys, ops, PartitionAccumulator() if acc is None else acc
        )[schema_i]
    except Exception as exc:
        raise ValueError(f"malformed summary wire payload: {exc}") from exc
    return PartitionSummary(
        schema=schema,
        record_count=record_count,
        skipped=skipped,
        timings=timings,
        line_count=line_count,
        bytes_read=bytes_read,
        worker=worker,
        stats=stats,
        distinct_digests=digests,
    )


def decode_summary_light(
    payload: bytes,
) -> "tuple[PartitionSummary, tuple[bytes, ...]]":
    """:func:`decode_summary`, plus the distinct digests on their own.

    Returns ``(summary, digests)`` with ``digests`` sorted.  No decode
    materialises a distinct type, so this is a thin wrapper kept for
    callers of the two-result form.
    """
    summary = decode_summary(payload)
    return summary, tuple(sorted(summary.distinct_digests))


def as_wire_payload(result: "PartitionSummary | bytes") -> bytes:
    """Wire-format bytes for one map-task result, whatever its shape.

    The accumulate tasks return either a :class:`PartitionSummary`
    object (thread backend or in-line) or an :func:`encode_summary`
    payload (process backend).
    The cross-run summary cache stores every entry in wire form so a hit
    replays through the same adoption decode regardless of which shape
    produced it; this is the store-side seam that normalises both.
    """
    if isinstance(result, (bytes, bytearray)):
        return bytes(result)
    return encode_summary(result)


# ---------------------------------------------------------------------------
# Type digests: the form of a distinct set at every boundary.
#
# Of the distinct-type set only the size is ever read (the paper's Tables
# 2-5 report distinct *counts*), so wherever a set leaves its process it
# travels as one canonical 32-byte structural digest per type: no
# constructors, no sorting, no interning on the way back in.  Digest
# equality coincides with :class:`Type` equality (the recursion mirrors
# each ``__eq__`` exactly, keyed by per-class tags), so the size of a
# digest-set union is the structural distinct count — assuming, as the
# one new premise, no sha-256 collision.  Digests persist in checkpoints,
# journals and cache entries: their definition is an on-disk format.

#: Bytes per digest in a packed digest block.
DIGEST_BYTES = 32

_sha256 = hashlib.sha256
_BASIC_DIGESTS = {
    t.kind: _sha256(b"B%d" % int(t.kind)).digest()
    for t in (NULL, BOOL, NUM, STR)
}
_EMPTY_DIGEST = _sha256(b"E").digest()


class _Digester:
    """:func:`type_digest` for many types under one memo.

    A node is digested once per memo (keyed by ``id()``, so an interned
    DAG hashes each shared subtree once), a record with one ``sha256``
    call over its joined parts, and each field's length-prefixed UTF-8
    name and optional flag are encoded once per name and flag.
    """

    __slots__ = ("memo", "_names")

    def __init__(self) -> None:
        self.memo: dict[int, bytes] = {}
        self._names: dict[tuple[str, bool], bytes] = {}

    def digest(self, t: Type) -> bytes:
        memo = self.memo
        found = memo.get(id(t))
        if found is not None:
            return found
        if isinstance(t, RecordType):
            names = self._names
            parts = [b"R"]
            append = parts.append
            for f in t.fields:
                key = (f.name, f.optional)
                prefix = names.get(key)
                if prefix is None:
                    raw = f.name.encode("utf-8")
                    prefix = names[key] = b"".join((
                        len(raw).to_bytes(4, "big"), raw,
                        b"\x01" if f.optional else b"\x00",
                    ))
                append(prefix)
                append(memo.get(id(f.type)) or self.digest(f.type))
            digest = _sha256(b"".join(parts)).digest()
        elif isinstance(t, BasicType):
            digest = _BASIC_DIGESTS[t.kind]
        elif isinstance(t, EmptyType):
            digest = _EMPTY_DIGEST
        elif isinstance(t, StarArrayType):
            digest = _sha256(b"S" + self.digest(t.body)).digest()
        elif isinstance(t, ArrayType):
            digest = _sha256(
                b"".join([b"A", *map(self.digest, t.elements)])
            ).digest()
        elif isinstance(t, UnionType):
            digest = _sha256(
                b"".join([b"U", *map(self.digest, t.members)])
            ).digest()
        else:
            raise TypeError(f"cannot digest type node {type(t).__name__}")
        memo[id(t)] = digest
        return digest


def type_digest(t: Type) -> bytes:
    """Canonical sha-256 of a type node: equal types, equal digests.

    A Merkle digest: a basic type hashes ``B`` and its kind number, the
    empty type ``E``; a record hashes ``R`` then, per field in order,
    its 4-byte big-endian name length, UTF-8 name, optional flag byte
    and child digest; star arrays ``S``, arrays ``A`` and unions ``U``
    hash their tag and child digests.  Field names are length-prefixed
    so no name/flag concatenation can collide with another shape.
    """
    return _Digester().digest(t)


def digest_types(types: Iterable[Type]) -> list[bytes]:
    """One :func:`type_digest` per type, under one shared memo."""
    # The memo is keyed by id(): every type must outlive the call, so
    # that no id is reused for another node while the memo holds it.
    types = list(types)
    digest = _Digester().digest
    return [digest(t) for t in types]


def pack_digests(digests: Iterable[bytes]) -> bytes:
    """A digest set's canonical bytes: sorted, unique, concatenated."""
    return b"".join(sorted(set(digests)))


def unpack_digests(packed: bytes) -> "frozenset[bytes]":
    """The digest set :func:`pack_digests` packed.

    Raises :class:`ValueError` unless ``packed`` is whole
    :data:`DIGEST_BYTES`-byte digests in strictly increasing order.
    """
    if len(packed) % DIGEST_BYTES:
        raise ValueError(
            f"a digest block of {len(packed)} bytes is not a whole "
            f"number of {DIGEST_BYTES}-byte digests"
        )
    digests = [
        packed[i:i + DIGEST_BYTES]
        for i in range(0, len(packed), DIGEST_BYTES)
    ]
    if any(a >= b for a, b in zip(digests, digests[1:])):
        raise ValueError("digests are not in strictly increasing order")
    return frozenset(digests)


def _worker_name() -> str:
    """Telemetry identity of the executing worker (pid + thread name)."""
    return f"pid{os.getpid()}/{threading.current_thread().name}"


def accumulate_partition(
    values: Iterable[Any],
    wire: bool = False,
    stats_mode: str = "off",
) -> "PartitionSummary | bytes":
    """Stream one partition through a fresh accumulator.

    A module-level function on purpose: it is picklable, so the scheduler's
    process backend can ship it (with the partition's raw values) to a
    worker process and get the tiny summary back.  ``wire=True`` returns
    the summary wire-encoded (see :func:`encode_summary`); ``stats_mode``
    (``off``/``basic``/``sketches``) opts the summary into per-path
    statistics.
    """
    acc = PartitionAccumulator(stats_mode=stats_mode)
    acc.add_many(values)
    summary = replace(acc.summary(), worker=_worker_name())
    return encode_summary(summary) if wire else summary


class _ItemPass:
    """One work item streamed through one accumulator.

    Holds what the decode loop shares: the quarantine list, the strict
    arbiter and the per-stage clock buckets, which advance only with
    ``collect_timings``.
    """

    def __init__(
        self,
        acc: PartitionAccumulator,
        source: "str | None",
        permissive: bool,
        collect_timings: bool,
    ) -> None:
        self.acc = acc
        self.source = source
        self.permissive = permissive
        self.perf = time.perf_counter if collect_timings else None
        self.parse_s = self.type_s = self.fuse_s = self.stats_s = 0.0
        self.skipped: list[BadRecord] = []

    def reject(self, line_number: int, line: str, exc: JsonError) -> None:
        """Fail the task with ``exc`` (strict mode) or quarantine the line."""
        if not self.permissive:
            raise exc
        self.skipped.append(
            BadRecord(self.source or "<memory>", line_number, str(exc), line)
        )

    def arbitrate(
        self, line_number: int, line: str
    ) -> "tuple[Any, Type] | None":
        """The strict parser's verdict on a record the decoder missed.

        The record is re-parsed with :func:`repro.jsonio.parser.loads`,
        so its error or quarantine entry (``None`` returned) is
        byte-identical to a strict-only run's.  A record the arbiter
        accepts comes back as ``(value, type)``, to be counted, fused and
        observed by the statistics like any other.  Called only on a
        miss: well-formed records never pay for it.
        """
        try:
            value = loads(line, source=self.source, first_line=line_number)
        except JsonError as exc:
            self.reject(line_number, line, exc)
            return None
        return value, self.acc.type_value(value)

    def run(self, numbered: Iterable[tuple[int, str]]) -> None:
        """Decode each record, type it, fuse it, observe its statistics.

        A record whose type is new to the partition and nests deeper
        than :data:`~repro.jsonio.parser.MAX_DEPTH` is a miss too, for
        the arbiter to reject with its position: every repeat of a type
        was checked when the type was new, so no record is walked for
        its depth.  Objects decode as their key/value pairs, and a
        repeated key is a miss where the typer meets a record shape new
        to its pool (:meth:`PartitionAccumulator._infer`): a pooled
        shape has unique keys.
        """
        acc = self.acc
        decode = _pairs_decoder()
        infer, observe, stats = acc._infer, acc.observe, acc.stats
        seen = acc._distinct_ids
        perf = self.perf
        parse_s = type_s = fuse_s = stats_s = 0.0
        for line_number, line in numbered:
            if perf is not None:
                t0 = perf()
            try:
                value = decode(line)
                if perf is not None:
                    t1 = perf()
                t = infer(value)
                if (t.size > MAX_DEPTH and id(t) not in seen
                        and _deeper_than(t, MAX_DEPTH)):
                    raise FastLaneMiss(f"deeper than {MAX_DEPTH} levels")
            except (FastLaneMiss, RecursionError):
                typed = self.arbitrate(line_number, line)
                if perf is not None:
                    t1 = perf()
                if typed is None:
                    if perf is not None:
                        parse_s += t1 - t0
                    continue
                value, t = typed
            if perf is None:
                observe(t)
                if stats is not None:
                    stats.observe(value, t.size)
            else:
                t2 = perf()
                observe(t)
                t3 = perf()
                parse_s += t1 - t0
                type_s += t2 - t1
                fuse_s += t3 - t2
                if stats is not None:
                    stats.observe(value, t.size)
                    stats_s += perf() - t3
        self.parse_s += parse_s
        self.type_s += type_s
        self.fuse_s += fuse_s
        self.stats_s += stats_s

    def summary(self, line_count: int, bytes_read: int) -> PartitionSummary:
        """The item's summary, stamped with the worker's telemetry."""
        perf = self.perf
        timings = None
        if perf is None:
            summary = self.acc.summary()
        else:
            # Reading the schema fuses the partition's distinct types:
            # fuse work, so it is timed as fuse.  The bundle's
            # windows would fold at its first read; fold them here, as
            # statistics work.
            t0 = perf()
            summary = self.acc.summary()
            t1 = perf()
            stats_s = self.stats_s
            if summary.stats is not None:
                summary.stats.flush()
                stats_s += perf() - t1
            timings = PhaseTimings(
                parse_s=self.parse_s,
                type_s=self.type_s,
                fuse_s=self.fuse_s + t1 - t0,
                records=summary.record_count,
                stats_s=stats_s,
            )
        return replace(
            summary,
            skipped=tuple(self.skipped),
            timings=timings,
            line_count=line_count,
            bytes_read=bytes_read,
            worker=_worker_name(),
        )


def accumulate_ndjson_item(
    item: "FileSplit | Iterable[tuple[int, str]]",
    source: str | None = None,
    permissive: bool = False,
    collect_timings: bool = False,
    wire: bool = False,
    stats_mode: str = "off",
) -> "PartitionSummary | bytes":
    """Stream one NDJSON work item as one task.

    The map task of :func:`repro.inference.pipeline.infer_ndjson_file`.
    A regular file's work item is a byte-range
    :class:`~repro.jsonio.splits.FileSplit` — the driver ships only the
    descriptor and the task reads its own range, one block at a time
    (see :mod:`repro.jsonio.splits` for the boundary rules); a
    sequential run's one split spans the whole file.  A pipe's work
    item is its ``(absolute line number, text)`` pairs (or a chunk of
    them the driver dealt), whose records come from ``source``.  A
    split reports split-local line numbers plus its ``line_count`` and
    ``bytes_read``, which the driver's prefix sum over the splits
    anchors absolutely; a strict-mode error is re-anchored to its
    absolute file line here (one prefix read, on the error path only),
    so its message matches a line-oriented read's.

    ``collect_timings`` and ``stats_mode`` are as in
    :func:`accumulate_ndjson_partition`; ``wire=True`` returns the
    summary wire-encoded (see :func:`encode_summary`).  Every item
    streams through a fresh accumulator.
    """
    split = item if isinstance(item, FileSplit) else None
    run = _ItemPass(
        PartitionAccumulator(stats_mode=stats_mode),
        split.path if split is not None else source,
        permissive, collect_timings,
    )
    reader = SplitLineReader(split) if split is not None else None
    try:
        run.run(item if reader is None else reader)
    except JsonSyntaxError as exc:
        if split is None or split.offset == 0:
            raise
        base = count_lines_before(split.path, split.offset)
        raise exc.relocate(split.path, exc.line + base) from None
    summary = run.summary(
        reader.line_count if reader is not None else 0,
        reader.bytes_read if reader is not None else 0,
    )
    return encode_summary(summary) if wire else summary


def accumulate_ndjson_partition(
    numbered_lines: Iterable[tuple[int, str]],
    source: str | None = None,
    permissive: bool = False,
    collect_timings: bool = False,
    wire: bool = False,
    stats_mode: str = "off",
) -> "PartitionSummary | bytes":
    """Parse and stream one partition of raw NDJSON lines in a single pass.

    ``numbered_lines`` pairs each record's text with its absolute file
    line number, so parsing *inside the partition* (in parallel, possibly
    in another process) still produces errors and quarantine entries that
    point at the right line of the right file.  It may be any work item
    :func:`accumulate_ndjson_item` takes: this is the in-line task of
    :func:`repro.inference.pipeline.infer_ndjson_file`, which hands it
    a sequential run's whole-file split or a pipe's line stream.

    Each record is decoded by the guarded C decoder, with each object
    left as its key/value pairs (:mod:`repro.jsonio.typestream`), then
    typed, fused and, with statistics on, observed.  Any record that
    misses — malformed text, surrogate escapes, a duplicate key (which
    the typer finds where a record shape is new to the partition),
    nesting past :data:`repro.jsonio.parser.MAX_DEPTH` — is re-parsed
    by the strict :func:`repro.jsonio.parser.loads`, so error
    diagnostics and quarantine entries (absolute file line numbers
    included) are byte-identical to a strict-only parse.

    In strict mode (default) the first malformed line raises, failing the
    task; in permissive mode it is quarantined into the summary's
    ``skipped`` tuple and the pass continues.  Like
    :func:`accumulate_partition`, this is a module-level function over
    picklable data by design: it rides the scheduler's process backend.

    With ``collect_timings=True`` the summary carries per-stage
    :class:`PhaseTimings` for the partition, at the cost of four clock
    reads per record; the default leaves the hot loop untimed and the
    summary's ``timings`` as ``None``.

    ``wire=True`` returns the wire-encoded summary.

    ``stats_mode`` other than ``off`` collects per-path statistics over
    the decoded values; the schema is the same in every mode.
    """
    return accumulate_ndjson_item(
        numbered_lines,
        source=source,
        permissive=permissive,
        collect_timings=collect_timings,
        wire=wire,
        stats_mode=stats_mode,
    )


def merge_summaries_full(
    summaries: "Sequence[PartitionSummary]",
    *,
    interner: "TypeInterner | None" = None,
) -> PartitionSummary:
    """Merge partition summaries, in partition order, into one.

    The one driver-side reduce: the run-time merge of every partition
    summary and the checkpoint-shard union
    (:func:`repro.store.checkpoint.merge_checkpoints`) both go through
    it.  The partial schemas are interned in ``interner`` (a fresh
    :class:`TypeInterner` by default) and fused in one n-ary ``Fuse``,
    the one the map phase runs, so a subtree the partials share is fused
    once however often it recurs in the (tree-sized) schemas.  A partial
    already canonical in ``interner`` — one the pipeline decoded through
    its adoption accumulator's — costs one pool hit; any other is
    interned structurally.  While
    every partial holds its distinct set as types, the types
    deduplicate structurally in first-seen order; once any partial
    holds digests, the union is taken over digests (digesting the other
    partials' types).  Quarantined records concatenate in partition
    order (i.e. file order), and ``line_count`` / ``bytes_read`` add —
    every component is associative, so any grouping of the summaries
    yields the same merge (Theorem 5.5).

    The fold is one pass at the driver, whatever the partition count:
    each partial is small (Section 6.2), so shipping pairs of them back
    to workers costs more than folding them here.
    """
    if interner is None:
        interner = TypeInterner()
    schemas: list[Type] = []
    count = 0
    typed: list[tuple[Type, ...]] = []
    digests: "set[bytes] | None" = None
    skipped: list[BadRecord] = []
    timings: list[PhaseTimings | None] = []
    line_count = 0
    bytes_read = 0
    stats: "StatsBundle | None" = None
    for summary in summaries:
        schemas.append(interner.intern(summary.schema))
        count += summary.record_count
        if summary.distinct_digests:
            if digests is None:
                digests = set()
            digests.update(summary.distinct_digests)
        elif summary.distinct_types:
            typed.append(summary.distinct_types)
        skipped.extend(summary.skipped)
        timings.append(summary.timings)
        line_count += summary.line_count
        bytes_read += summary.bytes_read
        stats = merge_stats(stats, summary.stats)
    distinct_types: tuple[Type, ...] = ()
    if digests is None:
        distinct_types = tuple(dict.fromkeys(
            t for types in typed for t in types
        ))
    else:
        digests.update(digest_types(t for types in typed for t in types))
    return PartitionSummary(
        schema=_Fuse(interner, {})(schemas),
        record_count=count,
        distinct_types=distinct_types,
        skipped=tuple(skipped),
        timings=merge_phase_timings(timings),
        line_count=line_count,
        bytes_read=bytes_read,
        stats=stats,
        distinct_digests=frozenset(digests or ()),
    )
