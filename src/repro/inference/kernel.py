"""Single-pass streaming inference kernel (the fast path of the pipeline).

The original pipeline materialises one type tree per record and then makes
three further passes over the cached collection (count, distinct, fuse).
This module collapses all of that into *one* pass per partition:

* :class:`PartitionAccumulator` consumes raw JSON values one at a time.
  Each value is typed **directly into interned form**: the Fig. 4 rules are
  applied bottom-up through a per-partition
  :class:`repro.core.interning.TypeInterner`, so structurally equal
  (sub)trees become the *same* object the moment they are inferred —
  there is never a second, un-pooled copy of the tree.
* Distinct-type counting falls out of interning for free: a top-level type
  is new exactly when its canonical object has not been seen before, an
  ``id()`` set membership test instead of a structural-hash ``set`` pass.
* Fusion is incremental and memoized through :class:`FusionMemo`: because
  operands are canonical, ``fuse(a, b)`` can be cached under the pointer
  pair ``(id(a), id(b))``.  On homogeneous or skewed data the running
  schema stabilises after a handful of records and every further record
  costs one dict lookup — near-zero fuse work.
* The fold order adapts to the schema's width.  A left fold rebuilds the
  running schema once per record, so once that schema reaches
  :data:`_LOG_FOLD_THRESHOLD` nodes — the paper's key-explosion regime,
  where ids are keys — the accumulator switches to a logarithmic fold:
  a binary-counter stack of partial schemas, flushed when the schema is
  read.  Fuse is commutative and associative (Theorems 5.4 and 5.5), so
  both orders give the same schema.
* :meth:`PartitionAccumulator.summary` emits a tiny, picklable
  :class:`PartitionSummary` (schema + counts + distinct types), which is
  what crosses a process boundary when the scheduler runs with
  ``backend="process"``; :func:`merge_summary_group` recombines the
  partials at the driver through a fresh interner and memo.  Any
  grouping of the merge yields the same schema — that is exactly the
  associativity theorem (Theorem 5.5), the same property that already
  licenses ``tree_reduce``.

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
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Sequence

from repro.core.errors import InvalidValueError
from repro.core.interning import TypeInterner
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
from repro.inference.fusion import _addends_by_kind, lfuse
from repro.inference.statistics import (
    StatsBundle,
    create_stats_bundle,
    merge_stats,
)
from repro.inference.typestream import FastLaneMiss, HookTyper, resolve_lane
from repro.jsonio.errors import JsonError, JsonSyntaxError
from repro.jsonio.keycache import KeyCache
from repro.jsonio.ndjson import BadRecord
from repro.jsonio.parser import loads
from repro.jsonio.splits import (
    FileSplit,
    SplitLineReader,
    count_lines_before,
    rebase_bad_records,
)

__all__ = [
    "FusionMemo",
    "MergedSummary",
    "PartitionAccumulator",
    "PartitionSummary",
    "PhaseTimings",
    "TREE_MERGE_THRESHOLD",
    "WARM_STATE_NODE_LIMIT",
    "WIRE_FORMAT_VERSION",
    "WarmState",
    "accumulate_ndjson_batch",
    "accumulate_ndjson_partition",
    "accumulate_partition",
    "as_wire_payload",
    "decode_summary",
    "encode_summary",
    "merge_phase_timings",
    "merge_summaries",
    "merge_summaries_full",
    "merge_summary_group",
    "tree_merge_rows",
    "warm_state_for",
]


class FusionMemo:
    """Pointer-keyed memoizing re-implementation of ``Fuse`` (Fig. 6).

    Operands must be canonical instances of one interner (or the
    module-level singletons).  Two invariants make pointer keys sound:

    * every subtree of a canonical type is canonical (the interner builds
      bottom-up), so the *recursive* sub-fusions — matched record fields,
      array bodies, ``collapse`` of a positional array — can be memoized
      on ``(id(a), id(b))`` pairs too, not just the top-level call.  This
      is where the big win is: fusing a stable schema against a stream of
      record types repeats the same field-level sub-fusions over and over;
    * the interner's pool keeps every canonical type alive for the memo's
      lifetime, so an ``id()`` can never be reused by the allocator, and
      within one interner structural equality coincides with object
      identity — the ``t1 == t2`` fast path of the reference
      :func:`repro.inference.fusion.fuse` becomes an ``is`` check.

    Results are interned through the same pool, so a schema that has
    converged keeps its identity and repeated fusions are O(1) dict hits.
    The output is identical (plain ``==``) to the reference ``fuse``: the
    recursion mirrors ``Fuse``/``LFuse``/``collapse`` rule for rule, and
    memoization only short-circuits recomputation of a pure function.
    """

    def __init__(self, interner: TypeInterner) -> None:
        self._interner = interner
        self._memo: dict[tuple[int, int], Type] = {}
        self._collapse_memo: dict[int, Type] = {}
        # Result pools, keyed on the children a miss is about to build a
        # node from: when two *new* operand pairs fuse to a shape fused
        # before (typically the converged schema itself), the canonical
        # result is returned without node construction (sort, size, hash)
        # or an interner round trip.
        self._record_pool: dict[tuple[Field, ...], Type] = {}
        self._union_pool: dict[tuple[Type, ...], Type] = {}
        self._star_pool: dict[Type, Type] = {}
        self._collapse_pool: dict[tuple[Type, ...], Type] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        """Number of distinct operand pairs fused so far."""
        return len(self._memo)

    def fuse(self, a: Type, b: Type) -> Type:
        """Fuse two canonical types, serving repeats from the cache."""
        # Same object and no positional arrays: fuse is the identity
        # (the t1 == t2 fast path of fuse, by pointer; for canonical
        # operands of one interner the two tests are equivalent).
        if a is b and not a._has_positional:
            return a
        key = (id(a), id(b))
        found = self._memo.get(key)
        if found is not None:
            self.hits += 1
            return found
        self.misses += 1
        # _fuse composes canonical children through the result pools, so
        # its output is already canonical — no interner round trip.
        fused = self._fuse(a, b)
        self._memo[key] = fused
        return fused

    def _fuse(self, a: Type, b: Type) -> Type:
        """Fig. 6 line 1, recursing through the memo."""
        # Non-union, non-empty operands (by far the common case: a record
        # schema against a record type) have exactly one addend each, so
        # the kind indexes below collapse to one comparison.
        ka, kb = a.kind, b.kind
        if ka is not None and kb is not None:
            if ka is kb:
                return self._lfuse(a, b)
            return self._union((a, b))
        if a is EMPTY:
            return b
        if b is EMPTY:
            return a
        by_kind1 = _addends_by_kind(a)
        by_kind2 = _addends_by_kind(b)
        fused = [
            self._lfuse(u1, by_kind2[kind])
            for kind, u1 in by_kind1.items()
            if kind in by_kind2
        ]
        fused.extend(u for k, u in by_kind1.items() if k not in by_kind2)
        fused.extend(u for k, u in by_kind2.items() if k not in by_kind1)
        # make_union, unrolled: every entry is a non-union, non-empty
        # addend and kinds are unique by construction, so no flattening or
        # deduplication is needed.
        if not fused:
            return EMPTY
        if len(fused) == 1:
            return fused[0]
        return self._union(tuple(fused))

    def _union(self, members: tuple[Type, ...]) -> Type:
        """The canonical union of non-union, non-empty members."""
        found = self._union_pool.get(members)
        if found is None:
            found = self._interner.intern_node(UnionType(members))
            self._union_pool[members] = found
        return found

    def _lfuse(self, t1: Type, t2: Type) -> Type:
        """Fig. 6 lines 2-7 for two non-union addends of equal kind."""
        if isinstance(t1, RecordType) and isinstance(t2, RecordType):
            # FMatch/FUnmatch inlined (RecordType sorts its fields, so
            # emission order is free): one walk over t1 resolving against
            # t2's name index, then t2's leftovers.
            field = self._interner.field
            fuse = self.fuse
            f2_of = t2.field
            fields = []
            matched = 0
            for f1 in t1.fields:
                f2 = f2_of(f1.name)
                if f2 is None:
                    # The optional-flipped field must come from the
                    # interner too: intern_node requires every child to
                    # be canonical for subtree sharing to hold.
                    fields.append(f1 if f1.optional
                                  else field(f1.name, f1.type, True))
                    continue
                matched += 1
                ft = fuse(f1.type, f2.type)
                opt = f1.optional or f2.optional
                # Reuse the schema's own field node when fusion changed
                # nothing (the common case once the schema converges).
                if ft is f1.type and opt == f1.optional:
                    fields.append(f1)
                else:
                    fields.append(field(f1.name, ft, opt))
            if matched != len(t2.fields):
                for f2 in t2.fields:
                    if f2.name not in t1:
                        fields.append(f2 if f2.optional
                                      else field(f2.name, f2.type, True))
            shape = tuple(fields)
            found = self._record_pool.get(shape)
            if found is None:
                found = self._interner.intern_node(RecordType(shape))
                self._record_pool[shape] = found
            return found
        if isinstance(t1, (ArrayType, StarArrayType)) and isinstance(
            t2, (ArrayType, StarArrayType)
        ):
            # Fold a positional side's elements straight into the other
            # side's star body: fuse(B, collapse(es)) equals folding fuse
            # over {B} ∪ es in any grouping (associativity/commutativity,
            # Theorem 5.5), and the direct fold skips materialising the
            # intermediate collapsed union.  Once the schema side has
            # gone star — after its first array fusion — every further
            # record costs one memoized fuse per element, nearly all hits.
            if isinstance(t1, StarArrayType):
                body = t1.body
                if isinstance(t2, StarArrayType):
                    body = self.fuse(body, t2.body)
                else:
                    for element in t2.elements:
                        body = self.fuse(body, element)
            elif isinstance(t2, StarArrayType):
                body = t2.body
                for element in t1.elements:
                    body = self.fuse(body, element)
            else:
                body = self._star_body(t1)
                for element in t2.elements:
                    body = self.fuse(body, element)
            found = self._star_pool.get(body)
            if found is None:
                found = self._interner.intern_node(StarArrayType(body))
                self._star_pool[body] = found
            return found
        return lfuse(t1, t2)  # identical basic types (line 2), and errors

    def _star_body(self, t: Type) -> Type:
        """The star body of an array type; ``collapse`` memoized per
        canonical positional array object (Fig. 6 lines 8-9)."""
        if isinstance(t, StarArrayType):
            return t.body
        key = id(t)
        found = self._collapse_memo.get(key)
        if found is not None:
            return found
        # The collapse fold computes the join of the elements, and fuse
        # is idempotent on types without positional content (the ``a is
        # b`` fast path above), so repeated non-positional elements
        # contribute nothing — drop them.  Positional duplicates must
        # stay: fusing a positional array with itself collapses it.  The
        # deduplicated signature then keys a pool shared across distinct
        # arrays ([Num, Str] and [Num, Num, Str] collapse once).
        seen: set[int] = set()
        sig = []
        for element in t.elements:
            i = id(element)
            if i not in seen:
                seen.add(i)
                sig.append(element)
            elif element._has_positional:
                sig.append(element)
        signature = tuple(sig)
        body = self._collapse_pool.get(signature)
        if body is None:
            body = EMPTY
            for element in signature:
                body = self.fuse(body, element)
            self._collapse_pool[signature] = body
        self._collapse_memo[key] = body
        return body

    @property
    def hit_rate(self) -> float:
        """Fraction of memoized fuse calls served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass(frozen=True)
class PhaseTimings:
    """Wall-clock attribution of one partition's map phase, per stage.

    The map phase of an NDJSON partition decomposes into three measurable
    stages, accumulated across the partition's records:

    * ``parse_s`` — tokenize + parse.  The tokenizer is a generator the
      parser drains, so lexing and parsing are interleaved and timed as
      one stage.  On a fast lane the record is typed *during* parsing
      (that is the whole point), so ``parse_s`` covers parse + type there
      and ``type_s`` stays zero.
    * ``type_s`` — value tree to interned type (strict lane only).
    * ``fuse_s`` — distinct-type tracking plus the memoized incremental
      fusion of the record's type into the running schema.

    ``lane`` records which resolved lane produced the numbers (``strict``
    or ``hooks``; ``mixed`` after merging heterogeneous partitions), so a
    benchmark delta can be attributed to the right phase of the right
    implementation.
    """

    lane: str = "strict"
    parse_s: float = 0.0
    type_s: float = 0.0
    fuse_s: float = 0.0
    records: int = 0

    @property
    def map_s(self) -> float:
        """Total attributed map time (sum of the per-stage buckets)."""
        return self.parse_s + self.type_s + self.fuse_s

    @property
    def records_per_s(self) -> float:
        """Throughput over the attributed map time (0.0 when untimed)."""
        total = self.map_s
        return self.records / total if total else 0.0

    def describe(self) -> str:
        """One human-readable line for CLI reports.

        >>> PhaseTimings("strict", 1.0, 0.5, 0.5, 10000).describe()
        '[strict lane] parse 1.000s · type 0.500s · fuse 0.500s · 5,000 records/s'
        """
        if self.lane == "strict":
            stages = (f"parse {self.parse_s:.3f}s · type {self.type_s:.3f}s"
                      f" · fuse {self.fuse_s:.3f}s")
        else:
            stages = (f"parse+type {self.parse_s:.3f}s"
                      f" · fuse {self.fuse_s:.3f}s")
        return (f"[{self.lane} lane] {stages}"
                f" · {self.records_per_s:,.0f} records/s")


def merge_phase_timings(
    timings: Iterable["PhaseTimings | None"],
) -> "PhaseTimings | None":
    """Sum per-partition phase timings; ``None`` when none were recorded.

    Stage buckets add across partitions (total CPU-seconds attributed to
    each stage, regardless of overlap under a parallel backend).  The lane
    is preserved when every timed partition used the same one and reported
    as ``"mixed"`` otherwise.
    """
    rows = [t for t in timings if t is not None]
    if not rows:
        return None
    lanes = {t.lane for t in rows}
    return PhaseTimings(
        lane=lanes.pop() if len(lanes) == 1 else "mixed",
        parse_s=sum(t.parse_s for t in rows),
        type_s=sum(t.type_s for t in rows),
        fuse_s=sum(t.fuse_s for t in rows),
        records=sum(t.records for t in rows),
    )


@dataclass(frozen=True)
class PartitionSummary:
    """The tiny, picklable result of streaming one partition.

    ``distinct_types`` carries the partition's distinct top-level types so
    the driver can compute the *global* distinct count exactly (two
    partitions may share types); per the paper's measurements this set is
    orders of magnitude smaller than the record count.
    """

    schema: Type
    record_count: int
    distinct_types: tuple[Type, ...]
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
    #: (``pid<N>/<thread-name>``) and whether it found warm per-worker
    #: kernel state waiting (``None`` when warm state was not in play).
    #: Excluded from equality — two runs of the same partition are the
    #: same result regardless of which worker computed it.
    worker: str = field(default="", compare=False, repr=False)
    warm_reused: "bool | None" = field(default=None, compare=False,
                                       repr=False)
    #: Optional mergeable per-path statistics
    #: (:class:`repro.inference.statistics.StatsBundle`).  ``None`` when
    #: the run had ``stats="off"`` — the default, which keeps the hot
    #: path statistics-free.  Part of the result (compared), and rides
    #: the wire format (v3) and checkpoints like every other component.
    stats: "StatsBundle | None" = field(default=None)

    @property
    def distinct_type_count(self) -> int:
        """Distinct top-level types within this partition."""
        return len(self.distinct_types)

    @property
    def skipped_count(self) -> int:
        """Number of quarantined records in this partition."""
        return len(self.skipped)


#: A warm worker state whose interner has pooled more distinct type nodes
#: than this is retired and rebuilt on the worker's next task.  Interners
#: only grow (every distinct subtree stays alive for pointer-keyed
#: memoization), so a long-lived worker crossing many heterogeneous
#: datasets needs *some* bound; real schemas stay orders of magnitude
#: below it, so the cap never fires on a well-behaved feed.  The
#: logarithmic fold (see :data:`_LOG_FOLD_THRESHOLD`) interns its
#: intermediate partial schemas too, so a key-explosion partition pools
#: more nodes than a left fold: 5,777 against 4,070 for a cold
#: 625-record ``wikidata`` partition.  Memory still falls, because the
#: left fold pools one schema-wide record per record (586,224 pooled
#: fields there, against 59,155).
WARM_STATE_NODE_LIMIT = 2_000_000

#: Schema size (:attr:`Type.size`, in AST nodes) from which
#: :meth:`PartitionAccumulator.observe` stops left-folding.  Of the paper
#: corpora only ``wikidata`` crosses it (after about 10 records);
#: ``github``, ``twitter`` and ``nytimes`` converge below 300 nodes, where
#: the memo-hit left fold is several times faster than the logarithmic
#: one.
_LOG_FOLD_THRESHOLD = 2_000


class WarmState:
    """Per-worker kernel state kept warm across partition tasks.

    The expensive part of a partition task is not the accumulator's
    counters — it is re-discovering the dataset's type universe: interning
    every distinct subtree, re-memoizing every fuse pair, re-deduplicating
    every field name.  Workers in a persistent pool process many
    partitions of the *same* dataset (and, across jobs, of similar ones),
    so that discovery work is shared here: one
    :class:`~repro.core.interning.TypeInterner`, one :class:`FusionMemo`,
    the construction pools, and one :class:`~repro.jsonio.keycache.KeyCache`
    per worker, handed to every accumulator the worker builds.

    Purely an optimization: canonicality is per-interner, and per-task
    *results* (schema, counts, distinct sets) live in the accumulator,
    which stays fresh per task — so summaries are identical with warm
    state on or off, which the equivalence tests check.

    ``generation`` tags the state with the scheduler generation it was
    built for; :func:`warm_state_for` rebuilds on a mismatch, which is
    how driver-side invalidation reaches workers without a round-trip.
    """

    __slots__ = ("generation", "interner", "memo", "record_pool",
                 "array_pool", "key_cache", "tasks_served", "reused")

    def __init__(self, generation: int) -> None:
        self.generation = generation
        self.interner = TypeInterner()
        self.memo = FusionMemo(self.interner)
        self.record_pool: dict[tuple[Field, ...], Type] = {}
        self.array_pool: dict[tuple[Type, ...], Type] = {}
        self.key_cache = KeyCache()
        #: Tasks this state has served (including the one that built it).
        self.tasks_served = 0
        #: Whether the *current* task found this state already built —
        #: the flag each summary reports as ``warm_reused``.
        self.reused = False


# One warm state per worker *thread*: process-pool workers are
# single-threaded so this is per-process there, thread-pool workers each
# get their own (sharing one interner across concurrent tasks would race),
# and inline/re-entrant execution on the driver thread warms the driver's
# own slot harmlessly.
_WARM_STATES = threading.local()


def warm_state_for(
    generation: "int | None",
    node_limit: int = WARM_STATE_NODE_LIMIT,
) -> "WarmState | None":
    """This worker's warm state for ``generation``; ``None`` disables.

    Returns the thread-local :class:`WarmState`, rebuilding it when the
    generation tag differs (driver-side invalidation, or a scheduler
    restart) or the interner has outgrown ``node_limit``.  A fresh worker
    — including one forked after a pool crash — simply builds on first
    use, which is what keeps crash recovery oblivious to warming.
    """
    if generation is None:
        return None
    state: WarmState | None = getattr(_WARM_STATES, "state", None)
    if (state is None or state.generation != generation
            or len(state.interner) > node_limit):
        state = WarmState(generation)
        _WARM_STATES.state = state
    else:
        state.reused = True
    state.tasks_served += 1
    return state


class PartitionAccumulator:
    """Streaming schema accumulator: one pass, no materialised type list.

    >>> from repro.core.printer import print_type
    >>> acc = PartitionAccumulator()
    >>> acc.add_many([{"a": 1}, {"a": "x", "b": True}, {"a": 1}])
    >>> print_type(acc.schema)
    '{a: (Num + Str), b: Bool?}'
    >>> acc.record_count, acc.distinct_type_count
    (3, 2)

    With a :class:`WarmState`, the interner, fusion memo and construction
    pools come from (and keep feeding) the worker's warm caches, while the
    per-task results — schema, record count, distinct set — always start
    fresh; results are identical either way.
    """

    def __init__(
        self,
        warm: "WarmState | None" = None,
        stats_mode: str = "off",
    ) -> None:
        if warm is None:
            self.interner = TypeInterner()
            self.memo = FusionMemo(self.interner)
            # Construction pools: map tuples of canonical children straight
            # to the canonical node, skipping node construction (sort,
            # hash, size) for shapes seen before.  Keyed on the *unsorted*
            # child tuple, so two key orders of one record shape occupy two
            # entries mapping to the same canonical type — a deliberate
            # trade of a little memory for never re-sorting.
            self._record_pool: dict[tuple[Field, ...], Type] = {}
            self._array_pool: dict[tuple[Type, ...], Type] = {}
        else:
            self.interner = warm.interner
            self.memo = warm.memo
            self._record_pool = warm.record_pool
            self._array_pool = warm.array_pool
        self._schema: Type = EMPTY
        #: ``None`` while :meth:`observe` left-folds; once the schema has
        #: reached :data:`_LOG_FOLD_THRESHOLD` nodes, the binary-counter
        #: stack of ``(rank, partial schema)`` pairs not yet fused into
        #: ``_schema`` (a rank-``r`` partial covers ``2**r`` records).
        self._pending: "list[tuple[int, Type]] | None" = None
        self._count = 0
        self._distinct_ids: set[int] = set()
        self._distinct: list[Type] = []
        #: Per-path statistics bundle, or ``None`` when stats are off.
        #: Always accumulator-private (never borrowed from warm state):
        #: statistics are per-task results, not shared caches.
        self.stats: "StatsBundle | None" = create_stats_bundle(stats_mode)

    @property
    def schema(self) -> Type:
        """The running fused schema (empty type before any record).

        Reading it first flushes the partials a logarithmic fold holds
        back (see :meth:`observe`), so it always covers every record.
        """
        if self._pending:
            self._flush()
        return self._schema

    @property
    def record_count(self) -> int:
        """How many values have been streamed in."""
        return self._count

    @property
    def distinct_type_count(self) -> int:
        """Number of distinct top-level inferred types seen so far."""
        return len(self._distinct)

    def distinct_types(self) -> tuple[Type, ...]:
        """The distinct top-level types, in first-seen order."""
        return tuple(self._distinct)

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
        """Count and fuse one *canonical* type from this accumulator.

        ``t`` must be interned here — produced by :meth:`type_value`, the
        pool helpers, or a fast-lane typer bound to this accumulator —
        so the distinct test can be a pointer test.

        The fold order depends on the schema's width.  While the running
        schema is under :data:`_LOG_FOLD_THRESHOLD` nodes, ``t`` fuses
        straight into it: a left fold, all memo hits once the schema
        converges.  A left fold rebuilds the schema for every record,
        though, which costs records × schema width once ids become keys.
        So once the schema reaches that size, and for the rest of the
        accumulator's life, ``t`` enters a binary counter: it fuses with
        the pending partials of equal rank, so each record meets small
        partials and the wide schema is rebuilt only when :attr:`schema`
        is read.  Fuse is commutative and associative (Theorems 5.4 and
        5.5), so the result is the same schema either way.
        """
        self._count += 1
        key = id(t)  # canonical => identity test suffices
        if key not in self._distinct_ids:
            self._distinct_ids.add(key)
            self._distinct.append(t)
        pending = self._pending
        if pending is None:
            schema = self._schema
            if schema.size < _LOG_FOLD_THRESHOLD:
                self._schema = self.memo.fuse(schema, t)
                return
            self._pending = pending = []
        fuse = self.memo.fuse
        rank = 0
        while pending and pending[-1][0] == rank:
            t = fuse(pending.pop()[1], t)
            rank += 1
        pending.append((rank, t))

    def _flush(self) -> None:
        """Fuse the logarithmic fold's pending partials into the schema,
        smallest first."""
        pending = self._pending
        fuse = self.memo.fuse
        t = pending.pop()[1]
        while pending:
            t = fuse(pending.pop()[1], t)
        self._schema = fuse(self._schema, t)

    def add_many(self, values: Iterable[Any]) -> None:
        """Stream a batch of values."""
        for value in values:
            self.add(value)

    def add_type(self, t: Type, records: int = 1) -> None:
        """Fuse a pre-computed type (e.g. a partial schema) into the schema.

        Does not contribute to the distinct top-level *value* types — it is
        a schema, not a record observation.
        """
        self._schema = self.memo.fuse(self.schema, self.interner.intern(t))
        self._count += records

    def add_summary(self, summary: PartitionSummary) -> None:
        """Fold a :class:`PartitionSummary` into this accumulator.

        The incremental-update primitive: a loaded checkpoint (or any
        other partial summary) merges into live state exactly as
        :func:`merge_summary_group` would merge it at the driver — the
        schema fuses in, the record counts add, and the summary's
        distinct top-level types join this accumulator's distinct set
        *structurally* (foreign types are interned here first, so the
        usual pointer-equality distinct test stays sound afterwards).
        """
        intern = self.interner.intern
        for t in summary.distinct_types:
            canonical = intern(t)
            key = id(canonical)
            if key not in self._distinct_ids:
                self._distinct_ids.add(key)
                self._distinct.append(canonical)
        self._schema = self.memo.fuse(self.schema, intern(summary.schema))
        self._count += summary.record_count
        # Statistics merge only when this accumulator collects them: a
        # stats-off accumulator produces stats-less summaries, and
        # adopting a foreign bundle here would alias state that
        # :meth:`add` later mutates.  merge() returns a fresh bundle.
        foreign = getattr(summary, "stats", None)
        if self.stats is not None and foreign is not None:
            self.stats = self.stats.merge(foreign)

    def summary(self) -> PartitionSummary:
        """Snapshot the accumulator as a small, picklable summary."""
        return PartitionSummary(
            schema=self.schema,
            record_count=self._count,
            distinct_types=tuple(self._distinct),
            stats=self.stats,
        )

    def record_type(self, shape: tuple[Field, ...]) -> Type:
        """The canonical record type for a tuple of canonical fields.

        The construction-pool lookup of :meth:`_infer`, exposed for the
        fast-lane typers (:mod:`repro.inference.typestream`), which build
        field tuples straight from JSON text.  ``shape`` keeps document
        key order; the pool maps it to the canonical (sorted) node.
        """
        t = self._record_pool.get(shape)
        if t is None:
            t = self.interner.intern_node(RecordType(shape))
            self._record_pool[shape] = t
        return t

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
        # exact type first — JSON parsing only ever yields the six builtin
        # types — and falls back to the isinstance chain for subclasses,
        # preserving infer_type's semantics (bool before int, etc.).
        tv = type(value)
        if tv is str:
            return STR
        if tv is int or tv is float:
            return NUM
        if tv is bool:
            return BOOL
        if value is None:
            return NULL
        if tv is dict:
            fields = []
            field = self.interner.field
            for key, sub in value.items():
                if type(key) is not str and not isinstance(key, str):
                    raise InvalidValueError(f"non-string record key: {key!r}")
                fields.append(field(key, self._infer(sub)))
            shape = tuple(fields)
            t = self._record_pool.get(shape)
            if t is None:
                t = self.interner.intern_node(RecordType(shape))
                self._record_pool[shape] = t
            return t
        if tv is list:
            elements = tuple(self._infer(v) for v in value)
            t = self._array_pool.get(elements)
            if t is None:
                t = self.interner.intern_node(ArrayType(elements))
                self._array_pool[elements] = t
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


# ---------------------------------------------------------------------------
# Compact summary wire format (the task return path of the process backend)
#
# Pickling a PartitionSummary serialises the schema and every distinct
# type as an object graph: one __reduce__ frame per node, class
# references and per-node constructor tuples included — and the
# driver-side unpickle rebuilds each tree only for add_summary to
# re-intern it structurally, node by node.  The wire format flattens
# instead: every distinct type node becomes a few small integers in one
# postorder op-stream (children precede parents, references are table
# indices), field names live once in a deduplicated string table, and
# shared subtrees — the whole point of interning — are stored exactly
# once.  IPC cost therefore scales with the number of distinct nodes,
# not with the summed size of the trees, and the driver decodes
# *directly into* an accumulator's interner, so adoption is canonical
# from the start instead of a second structural interning pass.

#: Version tag leading every encoded payload; bump on layout changes.
#: v2 appended three telemetry slots, the counters of a duplicate-line
#: type cache that has since been removed (``dedup_hits``,
#: ``dedup_misses``, ``dedup_bytes_avoided``): encoders write ``0`` into
#: each and decoders ignore them, so frames stay byte-identical and
#: journals and cache entries written before the removal still read.  v3
#: appended the optional statistics block (``None`` when stats are off).
WIRE_FORMAT_VERSION = 3

#: Older versions the decoders still read (missing fields default).  v2
#: payloads — pre-stats journals and cached summaries — decode with
#: ``stats=None``, so old run journals stay resumable across the bump.
_WIRE_READ_VERSIONS = frozenset({2, WIRE_FORMAT_VERSION})

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
    """Flattens canonical type DAGs into the op-stream + key table."""

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

        Memoized by ``id()``: within one summary the types are canonical
        in one interner, so shared subtrees are emitted once.
        Structurally equal nodes from *different* interners would get
        separate ops — harmless, and never produced by the kernel.
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

    The schema and every distinct type share one node table; everything
    else (counts, quarantined records, timings, telemetry) rides along
    as plain data.  :func:`decode_summary` inverts this exactly —
    ``decode_summary(encode_summary(s)) == s``.
    """
    enc = _WireEncoder()
    schema_i = enc.encode(summary.schema)
    distinct_i = [enc.encode(t) for t in summary.distinct_types]
    payload = (
        WIRE_FORMAT_VERSION,
        tuple(enc.keys),
        enc.ops,
        schema_i,
        distinct_i,
        summary.record_count,
        summary.skipped,
        summary.timings,
        summary.line_count,
        summary.bytes_read,
        summary.worker,
        summary.warm_reused,
        0, 0, 0,  # the three reserved v2 slots
        None if summary.stats is None else summary.stats.to_wire(),
    )
    return pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)


def _decode_types(
    keys: Sequence[str],
    ops: Sequence[int],
    acc: "PartitionAccumulator | None",
) -> list:
    """Replay the op-stream; entry ``i`` of the result is node ``i``.

    With an accumulator the nodes are built *canonical in its interner*
    (fields through the field cache, records/arrays through the
    construction pools), so the driver's adoption needs no structural
    re-interning afterwards.  Without one, plain constructors rebuild
    structurally equal trees.
    """
    types: list[Type] = list(_WIRE_BASE)
    append = types.append
    pos = 0
    end = len(ops)
    if acc is not None:
        make_field = acc.interner.field
        intern_node = acc.interner.intern_node
        record_type = acc.record_type
        array_type = acc.array_type
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
    while pos < end:
        tag = ops[pos]
        if tag == _WIRE_RECORD:
            n = ops[pos + 1]
            mask = ops[pos + 2]
            pos += 3
            fields = []
            for bit in range(n):
                fields.append(Field(
                    keys[ops[pos]], types[ops[pos + 1]],
                    bool(mask >> bit & 1),
                ))
                pos += 2
            append(RecordType(fields))
        elif tag == _WIRE_ARRAY:
            n = ops[pos + 1]
            pos += 2
            append(ArrayType(types[ops[pos + j]] for j in range(n)))
            pos += n
        elif tag == _WIRE_STAR:
            append(StarArrayType(types[ops[pos + 1]]))
            pos += 2
        elif tag == _WIRE_UNION:
            n = ops[pos + 1]
            pos += 2
            append(UnionType(
                tuple(types[ops[pos + j]] for j in range(n))
            ))
            pos += n
        else:
            raise ValueError(f"unknown wire op tag {tag!r}")
    return types


def _unpack_wire_payload(payload: bytes) -> tuple:
    """Shared unpickle + version gate + field unpack of both decoders.

    Returns the frame's fields without the version tag and the three
    reserved slots (stats block last, already decoded into a
    :class:`StatsBundle` or ``None``); v2 payloads — pre-stats journals
    and cached summaries — unpack with ``stats=None``.  Foreign versions
    raise the "unsupported … version" ValueError, anything structurally
    broken the "malformed" one.
    """
    try:
        decoded = pickle.loads(payload)
        if len(decoded) == 15:
            # v2 frame: no stats block.
            decoded = (*decoded, None)
        (version, keys, ops, schema_i, distinct_i, record_count,
         skipped, timings, line_count, bytes_read, worker,
         warm_reused, _, _, _, stats_wire) = decoded
    except Exception as exc:
        raise ValueError(f"malformed summary wire payload: {exc}") from exc
    if version not in _WIRE_READ_VERSIONS:
        raise ValueError(
            f"unsupported summary wire format version {version!r} "
            f"(expected {WIRE_FORMAT_VERSION})"
        )
    try:
        if version == 2 and stats_wire is not None:
            raise ValueError("v2 frames carry no stats block")
        stats = (None if stats_wire is None
                 else StatsBundle.from_wire(stats_wire))
    except Exception as exc:
        raise ValueError(f"malformed summary wire payload: {exc}") from exc
    return (keys, ops, schema_i, distinct_i, record_count, skipped,
            timings, line_count, bytes_read, worker, warm_reused, stats)


def decode_summary(
    payload: bytes, acc: "PartitionAccumulator | None" = None
) -> PartitionSummary:
    """Decode a wire payload back into a :class:`PartitionSummary`.

    Pass the driver's adoption accumulator as ``acc`` to build the types
    canonical in *its* interner — summaries decoded through one
    accumulator share subtrees across partitions, so the driver-side
    merge deduplicates by pointer from the start.
    """
    (keys, ops, schema_i, distinct_i, record_count, skipped, timings,
     line_count, bytes_read, worker, warm_reused,
     stats) = _unpack_wire_payload(payload)
    types = _decode_types(keys, ops, acc)
    return PartitionSummary(
        schema=types[schema_i],
        record_count=record_count,
        distinct_types=tuple(types[i] for i in distinct_i),
        skipped=skipped,
        timings=timings,
        line_count=line_count,
        bytes_read=bytes_read,
        worker=worker,
        warm_reused=warm_reused,
        stats=stats,
    )


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
# Light decode: digests instead of materialised distinct types.
#
# A cache-hit partition that only feeds a plain inference run needs its
# counts, its quarantined records and its (small, already fused) schema —
# but of the distinct-type *set*, only the cross-partition union size.
# Rebuilding tens of thousands of interned type trees just to count them
# dominates warm-replay time on heterogeneous data, so the light path
# replaces each distinct type with a canonical 32-byte structural digest
# computed straight off the op-stream: no constructors, no sorting, no
# interning.  Digest equality coincides with :class:`Type` equality (the
# recursion mirrors each ``__eq__`` exactly, keyed by per-class tags), so
# ``len(set(digests))`` equals the structural distinct count.

def type_digest(t: Type, _memo: "dict[int, bytes] | None" = None) -> bytes:
    """Canonical sha-256 of a type node: equal types, equal digests.

    Memoized by ``id()`` across one call tree, so interned DAGs hash each
    shared subtree once.  The per-class tag bytes mirror the wire op tags;
    field names are length-prefixed so no name/flag concatenation can
    collide with another shape.
    """
    if _memo is None:
        _memo = {}
    found = _memo.get(id(t))
    if found is not None:
        return found
    sha = hashlib.sha256
    if isinstance(t, BasicType):
        digest = sha(b"B%d" % int(t.kind)).digest()
    elif isinstance(t, EmptyType):
        digest = sha(b"E").digest()
    elif isinstance(t, RecordType):
        h = sha(b"R")
        for f in t.fields:
            name = f.name.encode("utf-8")
            h.update(len(name).to_bytes(4, "big"))
            h.update(name)
            h.update(b"\x01" if f.optional else b"\x00")
            h.update(type_digest(f.type, _memo))
        digest = h.digest()
    elif isinstance(t, StarArrayType):
        digest = sha(b"S" + type_digest(t.body, _memo)).digest()
    elif isinstance(t, ArrayType):
        h = sha(b"A")
        for e in t.elements:
            h.update(type_digest(e, _memo))
        digest = h.digest()
    elif isinstance(t, UnionType):
        h = sha(b"U")
        for m in t.members:
            h.update(type_digest(m, _memo))
        digest = h.digest()
    else:
        raise TypeError(f"cannot digest type node {type(t).__name__}")
    _memo[id(t)] = digest
    return digest


_WIRE_BASE_DIGESTS: "tuple[bytes, ...] | None" = None


def _wire_base_digests() -> "tuple[bytes, ...]":
    global _WIRE_BASE_DIGESTS
    if _WIRE_BASE_DIGESTS is None:
        memo: dict[int, bytes] = {}
        _WIRE_BASE_DIGESTS = tuple(type_digest(t, memo) for t in _WIRE_BASE)
    return _WIRE_BASE_DIGESTS


def _walk_wire_digests(
    keys: Sequence[str], ops: Sequence[int]
) -> "tuple[list[bytes], list[int]]":
    """One pass over the op-stream: a digest per node, no objects built.

    Returns ``(digests, node_pos)`` where ``digests[i]`` is node ``i``'s
    canonical digest (indexed like the decode table, base leaves first)
    and ``node_pos[j]`` is the op offset of composite node
    ``len(_WIRE_BASE) + j`` — enough for a later selective materialise of
    just the schema subtree.
    """
    digests = list(_wire_base_digests())
    node_pos: list[int] = []
    key_bytes = [k.encode("utf-8") for k in keys]
    key_len = [len(kb).to_bytes(4, "big") for kb in key_bytes]
    sha = hashlib.sha256
    pos = 0
    end = len(ops)
    while pos < end:
        node_pos.append(pos)
        tag = ops[pos]
        if tag == _WIRE_RECORD:
            n = ops[pos + 1]
            mask = ops[pos + 2]
            pos += 3
            h = sha(b"R")
            for bit in range(n):
                ki = ops[pos]
                h.update(key_len[ki])
                h.update(key_bytes[ki])
                h.update(b"\x01" if mask >> bit & 1 else b"\x00")
                h.update(digests[ops[pos + 1]])
                pos += 2
            digests.append(h.digest())
        elif tag == _WIRE_ARRAY:
            n = ops[pos + 1]
            pos += 2
            h = sha(b"A")
            for j in range(n):
                h.update(digests[ops[pos + j]])
            pos += n
            digests.append(h.digest())
        elif tag == _WIRE_STAR:
            digests.append(sha(b"S" + digests[ops[pos + 1]]).digest())
            pos += 2
        elif tag == _WIRE_UNION:
            n = ops[pos + 1]
            pos += 2
            h = sha(b"U")
            for j in range(n):
                h.update(digests[ops[pos + j]])
            pos += n
            digests.append(h.digest())
        else:
            raise ValueError(f"unknown wire op tag {tag!r}")
    return digests, node_pos


def _materialize_wire_node(
    i: int,
    keys: Sequence[str],
    ops: Sequence[int],
    node_pos: Sequence[int],
    _cache: "dict[int, Type] | None" = None,
) -> Type:
    """Build only node ``i``'s subtree from the op-stream (plain
    constructors, memoized per call tree) — the schema of a fused
    partition is a few dozen nodes even when the distinct set holds
    tens of thousands."""
    if i < len(_WIRE_BASE):
        return _WIRE_BASE[i]
    if _cache is None:
        _cache = {}
    found = _cache.get(i)
    if found is not None:
        return found
    pos = node_pos[i - len(_WIRE_BASE)]
    tag = ops[pos]
    node: Type
    if tag == _WIRE_RECORD:
        n = ops[pos + 1]
        mask = ops[pos + 2]
        pos += 3
        fields = []
        for bit in range(n):
            fields.append(Field(
                keys[ops[pos]],
                _materialize_wire_node(
                    ops[pos + 1], keys, ops, node_pos, _cache
                ),
                bool(mask >> bit & 1),
            ))
            pos += 2
        node = RecordType(fields)
    elif tag == _WIRE_ARRAY:
        n = ops[pos + 1]
        pos += 2
        node = ArrayType(
            _materialize_wire_node(ops[pos + j], keys, ops, node_pos, _cache)
            for j in range(n)
        )
    elif tag == _WIRE_STAR:
        node = StarArrayType(_materialize_wire_node(
            ops[pos + 1], keys, ops, node_pos, _cache
        ))
    else:
        n = ops[pos + 1]
        pos += 2
        node = UnionType(tuple(
            _materialize_wire_node(ops[pos + j], keys, ops, node_pos, _cache)
            for j in range(n)
        ))
    _cache[i] = node
    return node


def decode_summary_light(
    payload: bytes,
) -> "tuple[PartitionSummary, tuple[bytes, ...]]":
    """Decode a wire payload without materialising its distinct types.

    Returns ``(summary, digests)``: the summary carries every plain-data
    field plus the materialised *schema* subtree but an empty
    ``distinct_types``; ``digests`` holds one canonical
    :func:`type_digest` per stored distinct type, suitable for exact
    cross-partition distinct counting by set union.  Raises
    :class:`ValueError` on anything malformed, exactly like
    :func:`decode_summary`.
    """
    (keys, ops, schema_i, distinct_i, record_count, skipped, timings,
     line_count, bytes_read, worker, warm_reused,
     stats) = _unpack_wire_payload(payload)
    digests, node_pos = _walk_wire_digests(keys, ops)
    summary = PartitionSummary(
        schema=_materialize_wire_node(schema_i, keys, ops, node_pos),
        record_count=record_count,
        distinct_types=(),
        skipped=skipped,
        timings=timings,
        line_count=line_count,
        bytes_read=bytes_read,
        worker=worker,
        warm_reused=warm_reused,
        stats=stats,
    )
    return summary, tuple(digests[i] for i in distinct_i)


def _worker_name() -> str:
    """Telemetry identity of the executing worker (pid + thread name)."""
    return f"pid{os.getpid()}/{threading.current_thread().name}"


def accumulate_partition(
    values: Iterable[Any],
    warm_generation: "int | None" = None,
    wire: bool = False,
    stats_mode: str = "off",
) -> "PartitionSummary | bytes":
    """Stream one partition through an accumulator.

    A module-level function on purpose: it is picklable, so the scheduler's
    process backend can ship it (with the partition's raw values) to a
    worker process and get the tiny summary back.  ``warm_generation``
    (from :attr:`repro.engine.scheduler.Scheduler.warm_generation`)
    enables the worker's warm kernel state; ``wire=True`` returns the
    summary wire-encoded (see :func:`encode_summary`); ``stats_mode``
    (``off``/``basic``/``sketches``) opts the summary into per-path
    statistics.
    """
    warm = warm_state_for(warm_generation)
    acc = PartitionAccumulator(warm, stats_mode=stats_mode)
    acc.add_many(values)
    summary = replace(
        acc.summary(),
        worker=_worker_name(),
        warm_reused=warm.reused if warm is not None else None,
    )
    return encode_summary(summary) if wire else summary


def _task_lane(parse_lane: str, stats_mode: str) -> str:
    """The resolved lane an NDJSON map task runs; raises on an unknown one.

    Statistics observe concrete values, which only the strict lane
    materialises, so any ``stats_mode`` but ``off`` forces ``strict``.
    Every lane produces the identical schema, so the downgrade is
    invisible in the result.  The pipeline records this lane in journal
    headers and cache signatures, so tasks and driver decide it alike.
    """
    lane = resolve_lane(parse_lane)
    return "strict" if stats_mode != "off" else lane


class _ItemPass:
    """One work item streamed through one accumulator, on one lane.

    Holds what the lane loops share: the quarantine list, the
    strict-arbitration fallback, the key cache the hook typer shares
    (the warm state's, when there is one) and the per-stage clock
    buckets, which advance only with ``collect_timings``.
    """

    def __init__(
        self,
        acc: PartitionAccumulator,
        source: "str | None",
        permissive: bool,
        key_cache: "KeyCache | None",
        collect_timings: bool,
    ) -> None:
        self.acc = acc
        self.source = source
        self.permissive = permissive
        self.key_cache = key_cache
        self.perf = time.perf_counter if collect_timings else None
        self.parse_s = self.type_s = self.fuse_s = 0.0
        self.skipped: list[BadRecord] = []

    def reject(self, line_number: int, line: str, exc: JsonError) -> None:
        """Fail the task with ``exc`` (strict mode) or quarantine the line."""
        if not self.permissive:
            raise exc
        self.skipped.append(
            BadRecord(self.source or "<memory>", line_number, str(exc), line)
        )

    def arbitrate(self, line_number: int, line: str) -> "Type | None":
        """The strict lane's verdict on a record a fast typer missed.

        The record is re-parsed with :func:`repro.jsonio.parser.loads`,
        so its error or quarantine entry (``None`` returned) is
        byte-identical to a strict run's; a record strict accepts (the
        lanes disagreed) is typed from its value.  Called only on a
        miss: well-formed records never pay for it.
        """
        try:
            value = loads(line, source=self.source, first_line=line_number)
        except JsonError as exc:
            self.reject(line_number, line, exc)
            return None
        return self.acc.type_value(value)

    def strict(self, numbered: Iterable[tuple[int, str]]) -> None:
        """Parse each record into a value tree, type it, fuse it."""
        acc = self.acc
        type_value, observe, stats = acc.type_value, acc.observe, acc.stats
        source, perf = self.source, self.perf
        parse_s = type_s = fuse_s = 0.0
        for line_number, line in numbered:
            if perf is not None:
                t0 = perf()
            try:
                value = loads(line, source=source, first_line=line_number)
            except JsonError as exc:
                if perf is not None:
                    parse_s += perf() - t0
                self.reject(line_number, line, exc)
                continue
            if perf is None:
                t = type_value(value)
                observe(t)
            else:
                t1 = perf()
                t = type_value(value)
                t2 = perf()
                observe(t)
                parse_s += t1 - t0
                type_s += t2 - t1
                fuse_s += perf() - t2
            # Outside the timed stages on purpose: statistics are a
            # fourth concern and must not skew the parse / type / fuse
            # attribution the timings report.
            if stats is not None:
                stats.observe(value, t.size)
        self.parse_s += parse_s
        self.type_s += type_s
        self.fuse_s += fuse_s

    def hooks(self, numbered: Iterable[tuple[int, str]]) -> None:
        """Type each record during its C parse, with no value tree."""
        type_document = HookTyper(self.acc, self.key_cache).type_document
        observe = self.acc.observe
        perf = self.perf
        parse_s = fuse_s = 0.0
        for line_number, line in numbered:
            if perf is not None:
                t0 = perf()
            try:
                t = type_document(line)
            except (FastLaneMiss, JsonError):
                t = self.arbitrate(line_number, line)
                if t is None:
                    if perf is not None:
                        parse_s += perf() - t0
                    continue
            if perf is None:
                observe(t)
            else:
                t1 = perf()
                observe(t)
                parse_s += t1 - t0
                fuse_s += perf() - t1
        self.parse_s += parse_s
        self.fuse_s += fuse_s

    def summary(
        self, lane: str, line_count: int, bytes_read: int
    ) -> PartitionSummary:
        """The item's summary (worker telemetry is the task's to stamp)."""
        perf = self.perf
        timings = None
        if perf is None:
            summary = self.acc.summary()
        else:
            # Reading the schema flushes a logarithmic fold's pending
            # partials: fuse work, so it is timed as fuse.
            t0 = perf()
            summary = self.acc.summary()
            timings = PhaseTimings(
                lane=lane,
                parse_s=self.parse_s,
                type_s=self.type_s,
                fuse_s=self.fuse_s + perf() - t0,
                records=summary.record_count,
            )
        return replace(
            summary,
            skipped=tuple(self.skipped),
            timings=timings,
            line_count=line_count,
            bytes_read=bytes_read,
        )


def _accumulate_item(
    item: "FileSplit | Iterable[tuple[int, str]]",
    source: "str | None",
    permissive: bool,
    lane: str,
    collect_timings: bool,
    warm: "WarmState | None",
    stats_mode: str,
) -> PartitionSummary:
    """One work item's summary, never wire-encoded: the per-item step of
    :func:`accumulate_ndjson_batch`, with the task's warm state.

    A numbered-line chunk streams as given.  A
    :class:`~repro.jsonio.splits.FileSplit` is read here, worker-side,
    line by line.  It reports split-local line numbers plus its
    ``line_count`` and ``bytes_read``; a strict-mode error is
    re-anchored to its absolute file line (one prefix read, on the
    error path only), so its message matches a line-oriented run's.
    """
    split = item if isinstance(item, FileSplit) else None
    run = _ItemPass(
        PartitionAccumulator(warm, stats_mode=stats_mode),
        split.path if split is not None else source,
        permissive, warm.key_cache if warm is not None else None,
        collect_timings,
    )
    reader = SplitLineReader(split) if split is not None else None
    lines = item if reader is None else reader
    try:
        if lane == "strict":
            run.strict(lines)
        else:
            run.hooks(lines)
    except JsonSyntaxError as exc:
        if split is None or split.offset == 0:
            raise
        base = count_lines_before(split.path, split.offset)
        raise exc.relocate(split.path, exc.line + base) from None
    if reader is None:
        return run.summary(lane, 0, 0)
    return run.summary(lane, reader.line_count, reader.bytes_read)


def accumulate_ndjson_batch(
    items: "Sequence[FileSplit | Iterable[tuple[int, str]]]",
    source: str | None = None,
    permissive: bool = False,
    parse_lane: str = "auto",
    collect_timings: bool = False,
    warm_generation: "int | None" = None,
    wire: bool = False,
    stats_mode: str = "off",
) -> "PartitionSummary | bytes":
    """Stream a batch of NDJSON work items as *one* task.

    The one map task of :func:`repro.inference.pipeline.infer_ndjson_file`.
    A work item is a byte-range
    :class:`~repro.jsonio.splits.FileSplit` — the driver ships only the
    descriptor and the worker reads its own range (see
    :mod:`repro.jsonio.splits` for the boundary rules) — or a chunk of
    ``(absolute line number, text)`` pairs read by the driver, whose
    records come from ``source``.  Unbatched dispatch sends a batch of
    one; batched dispatch folds several items per task so per-task
    overhead (dispatch, result shipping, a driver-side merge per item)
    does not dominate small items.

    The warm state is claimed once per task and every item streams
    through its own accumulator over it.  Split-local quarantine line
    numbers are re-based against the running line count of the batch
    (an intra-batch prefix sum), and the partials merge with
    :func:`merge_summary_group` — the same associative merge the driver
    would apply, so any grouping gives identical results (Theorem 5.5).
    The merged ``line_count`` is the batch total, which the driver's
    cross-task prefix sum then anchors absolutely.  In strict mode the
    first malformed record raises with its absolute file line.

    ``parse_lane``, ``collect_timings`` and ``stats_mode`` are as in
    :func:`accumulate_ndjson_partition`; ``warm_generation`` enables the
    worker's warm kernel state (see :class:`WarmState`); ``wire=True``
    returns the summary wire-encoded (see :func:`encode_summary`).
    """
    lane = _task_lane(parse_lane, stats_mode)
    warm = warm_state_for(warm_generation)
    partials: list[PartitionSummary] = []
    base = 0
    for item in items:
        summary = _accumulate_item(
            item, source, permissive, lane, collect_timings, warm,
            stats_mode,
        )
        if summary.skipped and base:
            summary = replace(
                summary, skipped=rebase_bad_records(summary.skipped, base)
            )
        base += summary.line_count
        partials.append(summary)
    # A batch of one is its own merge: skip the re-fuse and stats copy.
    merged = replace(
        partials[0] if len(partials) == 1 else merge_summary_group(partials),
        worker=_worker_name(),
        warm_reused=warm.reused if warm is not None else None,
    )
    return encode_summary(merged) if wire else merged


def accumulate_ndjson_partition(
    numbered_lines: Iterable[tuple[int, str]],
    source: str | None = None,
    permissive: bool = False,
    parse_lane: str = "auto",
    collect_timings: bool = False,
    warm_generation: "int | None" = None,
    wire: bool = False,
    stats_mode: str = "off",
) -> "PartitionSummary | bytes":
    """Parse and stream one partition of raw NDJSON lines in a single pass.

    ``numbered_lines`` pairs each record's text with its absolute file
    line number, so parsing *inside the partition* (in parallel, possibly
    in another process) still produces errors and quarantine entries that
    point at the right line of the right file.  A batch of one for
    :func:`accumulate_ndjson_batch`.

    ``parse_lane`` selects the map-phase implementation (see
    :func:`repro.inference.typestream.resolve_lane`): on a fast lane each
    record is typed *during* parsing with no intermediate value tree, and
    any record the fast lane cannot handle — malformed text, duplicate
    keys — is re-parsed by the strict :func:`repro.jsonio.parser.loads`
    lane, so error diagnostics and quarantine entries (absolute file line
    numbers included) are byte-identical across lanes.

    In strict mode (default) the first malformed line raises, failing the
    task; in permissive mode it is quarantined into the summary's
    ``skipped`` tuple and the pass continues.  Like
    :func:`accumulate_partition`, this is a module-level function over
    picklable data by design: it rides the scheduler's process backend.

    With ``collect_timings=True`` the summary carries per-stage
    :class:`PhaseTimings` for the partition, at the cost of two to three
    clock reads per record; the default leaves the hot loop untimed and
    the summary's ``timings`` as ``None``.

    ``warm_generation`` enables the worker's warm kernel state (see
    :class:`WarmState`); ``wire=True`` returns the wire-encoded summary.

    ``stats_mode`` other than ``off`` collects per-path statistics,
    which need materialised values — the lane is forced to ``strict``.
    Every lane produces the identical schema, so a stats-on run's
    schema equals the stats-off run's on any lane.
    """
    return accumulate_ndjson_batch(
        [numbered_lines],
        source=source,
        permissive=permissive,
        parse_lane=parse_lane,
        collect_timings=collect_timings,
        warm_generation=warm_generation,
        wire=wire,
        stats_mode=stats_mode,
    )


@dataclass(frozen=True)
class MergedSummary:
    """The driver-side combination of every partition summary.

    Carries the merged distinct top-level types themselves (not only the
    count) so the result can be persisted as a checkpoint
    (:mod:`repro.store`) and later merged onward without information
    loss.
    """

    schema: Type
    record_count: int
    distinct_types: tuple[Type, ...]
    skipped: tuple[BadRecord, ...]
    #: Summed per-phase map timings (``None`` when no partition was timed).
    timings: PhaseTimings | None = None
    #: Merged per-path statistics (``None`` when no partition carried
    #: any).  May cover fewer records than ``record_count`` if stats-on
    #: and stats-off summaries were merged — gate with
    #: :func:`repro.inference.statistics.stats_if_complete` before
    #: presenting the bundle as covering the run.
    stats: "StatsBundle | None" = None

    @property
    def distinct_type_count(self) -> int:
        """Distinct top-level types across every merged partition."""
        return len(self.distinct_types)

    @property
    def skipped_count(self) -> int:
        """Total quarantined records across partitions."""
        return len(self.skipped)


#: Partition counts up to this fold sequentially at the driver; above it,
#: :func:`merge_summaries_full` tree-merges pairs on the scheduler when one
#: is provided.  Sized so small jobs never pay task-dispatch overhead for
#: a reduce that is already trivial.
TREE_MERGE_THRESHOLD = 16


def merge_summary_group(
    summaries: "Sequence[PartitionSummary]",
) -> PartitionSummary:
    """Combine adjacent partition summaries into one partial summary.

    The unit task of the tree reduce: a module-level function over
    picklable data, so the scheduler can run it on either backend.
    The partial schemas fold through a fresh :class:`TypeInterner` and
    :class:`FusionMemo`, so a subtree the partials share is fused once
    however often it recurs in the (tree-sized) schemas.
    Distinct types deduplicate structurally in first-seen order,
    quarantined records concatenate in partition order, and ``line_count``
    / ``bytes_read`` add — every component is associative, so any
    grouping of the tree yields the same final merge (Theorem 5.5).
    """
    interner = TypeInterner()
    memo = FusionMemo(interner)
    schema: Type = EMPTY
    count = 0
    distinct: dict[Type, None] = {}
    skipped: list[BadRecord] = []
    timings: list[PhaseTimings | None] = []
    line_count = 0
    bytes_read = 0
    stats: "StatsBundle | None" = None
    for summary in summaries:
        schema = memo.fuse(schema, interner.intern(summary.schema))
        count += summary.record_count
        for t in summary.distinct_types:
            distinct.setdefault(t)
        skipped.extend(summary.skipped)
        timings.append(summary.timings)
        line_count += summary.line_count
        bytes_read += summary.bytes_read
        stats = merge_stats(stats, summary.stats)
    return PartitionSummary(
        schema=schema,
        record_count=count,
        distinct_types=tuple(distinct),
        skipped=tuple(skipped),
        timings=merge_phase_timings(timings),
        line_count=line_count,
        bytes_read=bytes_read,
        stats=stats,
    )


def tree_merge_rows(
    scheduler: "Any | None",
    rows: "Iterable[PartitionSummary]",
    tree_threshold: int = TREE_MERGE_THRESHOLD,
) -> PartitionSummary:
    """Reduce summaries to one by scheduler-parallel pairwise rounds.

    The shared driver-side reduce: row lists longer than
    ``tree_threshold`` are first shrunk by rounds of pairwise
    :func:`merge_summary_group` tasks on the ``scheduler`` (any object
    with the :meth:`repro.engine.scheduler.Scheduler.run` signature) — a
    balanced tree whose result is identical to the sequential fold by
    associativity (Theorem 5.5) but whose depth is logarithmic in the
    row count.  With no scheduler, or once at/under the threshold, the
    remaining rows fold sequentially.  Used by both the run-time reduce
    (:func:`merge_summaries_full`) and the checkpoint-shard union
    (:func:`repro.store.checkpoint.merge_checkpoints`).
    """
    rows = list(rows)
    if scheduler is not None:
        while len(rows) > tree_threshold:
            pairs = [rows[i:i + 2] for i in range(0, len(rows), 2)]
            rows = scheduler.run(merge_summary_group, pairs)
    return merge_summary_group(rows)


def merge_summaries_full(
    summaries: Iterable[PartitionSummary],
    scheduler: "Any | None" = None,
    tree_threshold: int = TREE_MERGE_THRESHOLD,
) -> MergedSummary:
    """Merge per-partition summaries, in partition order.

    The schema fold is safe in any grouping by associativity (Theorem
    5.5); the distinct count deduplicates *across* partitions
    structurally, since canonical objects from different interners (or
    processes) are distinct objects but compare equal.  Quarantined
    records are concatenated in partition order (i.e. file order).

    By default the fold is sequential at the driver; with a
    ``scheduler``, long lists reduce through the parallel
    :func:`tree_merge_rows` tree first.
    """
    merged = tree_merge_rows(scheduler, summaries, tree_threshold)
    return MergedSummary(
        merged.schema,
        merged.record_count,
        merged.distinct_types,
        merged.skipped,
        merged.timings,
        merged.stats,
    )


def merge_summaries(
    summaries: Iterable[PartitionSummary],
) -> tuple[Type, int, int]:
    """Backward-compatible merge returning only
    ``(schema, record_count, distinct_type_count)``.

    See :func:`merge_summaries_full` for the variant that also carries
    the quarantine information.
    """
    merged = merge_summaries_full(summaries)
    return merged.schema, merged.record_count, merged.distinct_type_count
