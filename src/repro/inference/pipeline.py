"""End-to-end schema inference pipelines (Section 5 wired to Section 6).

Three ways to run the paper's two-phase algorithm:

* :func:`infer_schema` — the one-liner: values in, fused schema out.
* :func:`run_inference` — the instrumented version the benchmarks use:
  reports wall-clock for the Map phase (streaming typing and fusion) and
  the Reduce phase (merging partition summaries), the number of
  *distinct* inferred types (the quantity Tables 2-5 report) and the
  fused schema.  Optionally executes on a :class:`repro.engine.Context`
  instead of in-line.
* :class:`SchemaInferencer` — the incremental API motivated in the
  introduction: fold new records into an existing schema one at a time or
  merge two inferencers, both safe by commutativity/associativity
  (Theorems 5.4-5.5).

Plus :func:`infer_partitioned`, the partition-isolated strategy of
Section 6.2 (Table 8): each partition is processed independently, yielding
a per-partition report and a tiny partial schema; the partials are fused at
the end.

Every pipeline runs on the single-pass streaming kernel
(:mod:`repro.inference.kernel`): each partition is consumed value by value
through an interning accumulator with memoized fusion, and only tiny
partial summaries travel to the driver.  The naive fold
``fuse_all(infer_type(v) for v in values)`` — what :func:`infer_schema`
runs without a context — is the reference semantics the tests check the
kernel against.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import stat
import time
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.core.types import EMPTY, Type
from repro.engine.context import Context, split_evenly
from repro.engine.scheduler import JobCancelled
from repro.inference.fusion import fuse_all
from repro.inference.infer import infer_type
from repro.inference.kernel import (
    PartitionAccumulator,
    PartitionSummary,
    PhaseTimings,
    accumulate_ndjson_item,
    accumulate_ndjson_partition,
    accumulate_partition,
    as_wire_payload,
    decode_summary,
    # Not called here: the e2e tracer (benchmarks/e2e/tracing.py) wraps
    # this module attribute by name and refuses to run without it.
    decode_summary_light,
    merge_summaries_full,
)
from repro.inference.statistics import (
    merge_stats,
    resolve_stats_mode,
    stats_if_complete,
)
from repro.jsonio.errors import ErrorRateExceeded
from repro.jsonio.ndjson import (
    BadRecord,
    iter_numbered_lines,
    write_bad_records,
)
from repro.jsonio.splits import (
    DEFAULT_MIN_SPLIT_BYTES,
    digest_splits,
    plan_splits,
    rebase_bad_records,
)

__all__ = [
    "infer_schema",
    "infer_ndjson_file",
    "run_inference",
    "InferenceRun",
    "ResumableInterrupt",
    "SchemaInferencer",
    "infer_partitioned",
    "PartitionReport",
    "PartitionedRun",
]


class ResumableInterrupt(Exception):
    """A journaled run was drained early and can be resumed.

    Raised instead of :exc:`~repro.engine.scheduler.JobCancelled` when a
    ``stop_event`` drains a run that has a journal: every completed
    task's summary is durable in the journal, so re-running the same
    invocation with ``resume=True`` (CLI: ``--resume``) finishes only
    the remaining work and produces the identical schema.  The CLI maps
    this to its distinct resumable exit code.
    """

    def __init__(self, journal_path: str, completed: int, total: int) -> None:
        super().__init__(
            f"run interrupted after {completed}/{total} tasks; progress is "
            f"durable in {journal_path!r} — rerun with --resume to finish"
        )
        self.journal_path = str(journal_path)
        self.completed = completed
        self.total = total

    def __reduce__(self):
        return (self.__class__, (self.journal_path, self.completed,
                                 self.total))


def infer_schema(values: Iterable[Any], context: Context | None = None,
                 num_partitions: int | None = None) -> Type:
    """Infer the fused schema of a collection of JSON values.

    >>> from repro.core.printer import print_type
    >>> print_type(infer_schema([{"a": 1}, {"a": "x", "b": True}]))
    '{a: (Num + Str), b: Bool?}'

    With a ``context``, each partition is streamed through the kernel's
    accumulator in parallel (a single pass) and the partial schemas are
    fused at the driver; without one, in-line in the calling thread via the
    naive fold — deliberately kept as the executable *reference semantics*
    the kernel is property-tested against.  An empty collection yields the
    empty type.
    """
    if context is None:
        return fuse_all(infer_type(v) for v in values)
    return run_inference(values, context, num_partitions).schema


def _note_summary_telemetry(stats, summaries) -> None:
    """Fold the summaries' worker telemetry into the scheduler stats.

    Workers cannot mutate driver-side stats across a process boundary,
    so each summary carries its executing worker's identity; the driver
    aggregates here, pre-merge.
    """
    if stats is None:
        return
    per_worker = stats.tasks_per_worker
    for summary in summaries:
        if summary.worker:
            per_worker[summary.worker] = (
                per_worker.get(summary.worker, 0) + 1
            )
        if summary.stats is not None:
            stats.stats_bundles_merged += 1


def _as_sequence(values: Iterable[Any]) -> Sequence[Any]:
    """``values`` itself when it already supports len+slicing, else a list.

    :func:`split_evenly` partitions by index without copying, so a list
    (or any other sequence) can be split as-is — materialising is only
    for one-shot iterables.  Strings/bytes are sequences *of characters*,
    never a collection of records; exclude them so a mistaken call fails
    loudly downstream instead of silently typing characters.
    """
    if isinstance(values, Sequence) and not isinstance(values, (str, bytes)):
        return values
    return list(values)


@dataclass
class InferenceRun:
    """Everything a Tables 2-6 row needs, from one pass over the data.

    For permissive NDJSON runs the quarantine outcome rides along:
    ``skipped_count`` / ``bad_records`` say how many lines were dropped
    and exactly where, and ``skipped_per_partition`` attributes them to
    the partition that skipped them.
    """

    schema: Type
    record_count: int
    distinct_type_count: int
    map_seconds: float
    reduce_seconds: float
    skipped_count: int = 0
    bad_records: tuple[BadRecord, ...] = ()
    skipped_per_partition: dict[int, int] = field(default_factory=dict)
    #: Per-stage attribution of the map phase summed over partitions
    #: (NDJSON runs only; ``None`` when the input was already parsed).
    #: Under a parallel backend the stage buckets are CPU-seconds, so
    #: they can legitimately exceed the wall-clock ``map_seconds``.
    phase_timings: PhaseTimings | None = None
    #: Records contributed by the ``update_from`` checkpoint (already
    #: part of ``record_count``); zero for non-incremental runs.
    checkpoint_record_count: int = 0
    #: The checkpoint written by ``checkpoint_to``, if any.
    checkpoint: "Any | None" = None
    #: Merged per-path statistics
    #: (:class:`repro.inference.statistics.StatsBundle`).  ``None`` when
    #: the run had ``stats="off"`` or when the bundle would cover only
    #: part of ``record_count`` (e.g. an update on top of a pre-stats
    #: checkpoint) — a present bundle always covers the whole run.
    stats: "Any | None" = None

    @property
    def total_seconds(self) -> float:
        """Map plus Reduce wall-clock."""
        return self.map_seconds + self.reduce_seconds

    @property
    def skip_rate(self) -> float:
        """Fraction of input records that were quarantined (0..1).

        Measured over the records *this* run actually read — records
        reused from an ``update_from`` checkpoint are excluded, so an
        update over a small dirty batch cannot hide behind a large
        clean history.
        """
        new_records = self.record_count - self.checkpoint_record_count
        total = new_records + self.skipped_count
        return self.skipped_count / total if total else 0.0

    def skip_summary(self) -> str:
        """Human-readable quarantine line for the run summary.

        >>> InferenceRun(EMPTY, 992, 1, 0.0, 0.0, skipped_count=8).skip_summary()
        '8 records skipped (0.8%)'
        """
        return (
            f"{self.skipped_count} records skipped ({self.skip_rate:.1%})"
        )


def run_inference(
    values: Iterable[Any],
    context: Context | None = None,
    num_partitions: int | None = None,
    stats_mode: str = "off",
) -> InferenceRun:
    """Instrumented single-pass inference (see :mod:`repro.inference.kernel`).

    Typing, interning, distinct counting and memoized fusion happen in one
    traversal per partition, so ``map_seconds`` covers the whole streaming
    pass and ``reduce_seconds`` only the (tiny) driver-side merge of the
    partial summaries.  Without a ``context`` the values stream through
    one accumulator in the calling thread; with one, each of the
    ``num_partitions`` slices is a scheduler task.

    ``stats_mode`` (``off``/``basic``/``sketches``) opts into the
    mergeable per-path statistics of
    :mod:`repro.inference.statistics`, exposed as the run's ``stats``
    attribute.
    """
    stats_mode = resolve_stats_mode(stats_mode)
    if context is None:
        start = time.perf_counter()
        acc = PartitionAccumulator(stats_mode=stats_mode)
        acc.add_many(values)
        map_seconds = time.perf_counter() - start
        return InferenceRun(
            schema=acc.schema,
            record_count=acc.record_count,
            distinct_type_count=acc.distinct_type_count,
            map_seconds=map_seconds,
            reduce_seconds=0.0,
            stats=acc.stats,
        )

    parts = split_evenly(_as_sequence(values),
                         num_partitions or context.default_parallelism)
    stats = context.scheduler.stats
    start = time.perf_counter()
    # One task per partition over the *raw* values.  Shipped as a
    # partial of a module-level function so the process backend can
    # serialize it; process results return as wire frames.
    results = context.scheduler.run(
        partial(accumulate_partition, stats_mode=stats_mode,
                wire=context.backend == "process"),
        parts,
    )
    adopt = PartitionAccumulator()
    summaries = [
        _arrived(result, adopt, stats, replayed=False) for result in results
    ]
    map_seconds = time.perf_counter() - start
    _note_summary_telemetry(stats, summaries)

    start = time.perf_counter()
    merged = merge_summaries_full(summaries, interner=adopt.interner)
    reduce_seconds = time.perf_counter() - start
    return InferenceRun(
        schema=merged.schema,
        record_count=merged.record_count,
        distinct_type_count=merged.distinct_type_count,
        map_seconds=map_seconds,
        reduce_seconds=reduce_seconds,
        stats=stats_if_complete(merged.stats, merged.record_count),
    )


def _arrived(result, adopt: PartitionAccumulator, stats,
             replayed: bool) -> PartitionSummary:
    """One partial summary arrived: a map task's result, a journal frame
    or a cache entry, as a :class:`PartitionSummary`.

    Wire payloads (process-pool results, journal frames, cache entries)
    decode through the adoption accumulator ``adopt``.  One accumulator
    means one interner: structurally equal schema subtrees from
    *different* partitions decode to pointer-identical nodes.  Their
    size feeds ``--timings``.  Summary objects (thread and in-line
    results) pass through.  A ``replayed`` summary — a cache hit or a
    journal frame — brings back the content (schema, counts, quarantine,
    statistics) of the run that produced it, but its worker identity and
    phase timings describe that old run: left in place they would count
    its workers and its stage times as this run's, so they are dropped.
    """
    if isinstance(result, (bytes, bytearray)):
        summary = decode_summary(bytes(result), adopt)
        if stats is not None:
            stats.summary_wire_bytes_decoded += len(result)
    else:
        summary = result
    if replayed:
        summary = replace(summary, worker="", timings=None)
    return summary


def _dispatch(task, items: list, scheduler, stop_event, on_result) -> list:
    """``task`` over ``items`` as one scheduler job, or in-line without a
    scheduler under the same ``on_result`` and ``stop_event`` contract
    (see :meth:`~repro.engine.scheduler.Scheduler.run`)."""
    if scheduler is not None:
        return scheduler.run(
            task, items, on_result=on_result, stop_event=stop_event
        )
    results = []
    for local, item in enumerate(items):
        if stop_event is not None and stop_event.is_set():
            raise JobCancelled(local, len(items))
        result = task(item)
        if on_result is not None:
            on_result(local, result)
        results.append(result)
    return results


def infer_ndjson_file(
    path: str | Path,
    context: Context | None = None,
    num_partitions: int | None = None,
    permissive: bool = False,
    bad_records_path: str | Path | None = None,
    max_error_rate: float | None = None,
    collect_timings: bool = False,
    min_split_bytes: int = DEFAULT_MIN_SPLIT_BYTES,
    update_from: str | Path | None = None,
    checkpoint_to: str | Path | None = None,
    journal_path: str | Path | None = None,
    resume: bool = False,
    stop_event=None,
    summary_cache: "str | Path | Any | None" = None,
    stats_mode: str = "off",
) -> InferenceRun:
    """Instrumented schema inference straight from an NDJSON file.

    Incremental maintenance (see :mod:`repro.store` and
    docs/INCREMENTAL.md): ``update_from`` names a checkpoint directory
    whose stored summary is fused with the freshly mapped partitions —
    only the new file is parsed, and the stored summary enters the
    driver's reduce as one more partial, like any partition summary.
    ``checkpoint_to`` persists the merged result (schema, record count,
    distinct types, source fingerprints) after the run; pass the same
    directory for both to maintain a long-lived schema over an arriving
    feed.  By associativity (Theorem 5.5) the update result is
    *identical* to recomputing over all the data from scratch.

    The input decides how it is read:

    * a regular file is planned as
      :class:`~repro.jsonio.splits.FileSplit` byte ranges from its size
      alone, one per ``num_partitions`` (else the context's parallelism,
      else one): the driver ships only those descriptors, and each task
      opens the file itself and parses exactly the lines its range
      owns, one 64 KiB block at a time.  Driver memory stays O(1) in the
      dataset and nothing but summaries crosses the process boundary
      back.  ``min_split_bytes`` floors the split size so tiny files do
      not shatter into per-task overhead.  A sequential run maps its
      one whole-file split in-line.
    * a pipe or other non-regular source has no size to split: without
      a context one task streams its lines; with one, the driver reads
      and numbers every line and deals the line chunks out.  Such input
      is never cached, and it cannot be journaled, because a resume
      could not read it again.

    Both produce identical results — schema, counts, error diagnostics
    and quarantine sidecars, absolute line numbers included; split tasks
    report split-local line numbers that the driver re-bases with a
    prefix sum over the splits' line counts.

    The map phase decodes each record with a guarded C decoder
    (:mod:`repro.jsonio.typestream`), whose objects the kernel's typer
    checks for a repeated key, and re-parses any record that misses
    with the strict parser, so results, error diagnostics and
    quarantine behaviour are those of the strict parser on every
    input.  With ``collect_timings=True`` (the CLI's
    ``--timings``) the run's ``phase_timings`` attribute the time this
    run spent mapping to parse/type/fuse stages (replayed cache and
    journal entries carry none); the default skips the per-record clock
    reads and leaves ``phase_timings`` as ``None``.

    Dispatch: every work item (split or line chunk) is one scheduler
    task, :func:`repro.inference.kernel.accumulate_ndjson_item`, or,
    without a context, one in-line call of
    :func:`~repro.inference.kernel.accumulate_ndjson_partition`.  On the
    process backend its summary returns in the compact flat-table wire
    format (:func:`repro.inference.kernel.encode_summary`), not as a
    pickled type-object graph; thread and in-line tasks share their
    summaries by reference.  Results are bit-identical either way.
    Every task types its records through a fresh accumulator.

    A run has four stages.  *Plan* lists the work items and, with a
    cache or a journal, keys each split by its content digest and the
    run's config signature.  *Gather* fills one partial summary per
    item, in plan order: from a journal frame or a cache entry under
    the item's key, or from a fresh map task, each arriving through one
    decode.  *Reduce* is one fold of those partials at the driver
    (:func:`repro.inference.kernel.merge_summaries_full`), with an
    update's stored summary as one more partial.  *Persist* writes the
    quarantine sidecar, checks the error rate, saves the checkpoint and
    commits the journal.

    Dirty-data handling:

    * strict mode (default) — the first malformed line fails the job with
      a :class:`~repro.jsonio.errors.JsonSyntaxError` carrying the source
      path and absolute line number;
    * ``permissive=True`` — malformed lines are quarantined instead:
      counted per partition (see ``InferenceRun.skipped_per_partition``),
      optionally spilled to the ``bad_records_path`` NDJSON sidecar, and
      reported via ``InferenceRun.skip_summary()``;
    * ``max_error_rate`` — even in permissive mode, abort with
      :class:`~repro.jsonio.errors.ErrorRateExceeded` when the quarantined
      fraction exceeds this threshold, so silent garbage cannot
      masquerade as success.  The sidecar (if requested) is still written
      before the abort, for post-mortems.

    Durability (see docs/FAULT_TOLERANCE.md, "Durability and resume"):

    * ``journal_path`` — write-ahead run journal over a regular file (a
      pipe is refused with :class:`~repro.store.journal.JournalError`
      before it is read).  Each completed task's encoded summary is
      fsync'd to the journal under its split's key *before* the run
      proceeds, so a crash — process kill, power loss, OOM — loses at
      most the tasks still in flight.  A commit frame is appended after
      the merge (and checkpoint, if any) succeeds.
    * ``resume=True`` — plan again, replay the journal's summary of
      every split whose key it holds through the fusion algebra, and
      execute only the rest.  By commutativity/associativity (Theorems
      5.4-5.5) the resumed result is byte-identical to an uninterrupted
      run.  A resume with other flags or over a changed file recomputes
      the splits whose key changed; a journal of another format raises
      :class:`~repro.store.journal.JournalMismatchError`.
    * ``stop_event`` — a ``threading.Event``; when set, no further task
      starts, in-flight tasks drain (and are journaled), and the run
      raises :class:`ResumableInterrupt` (with a journal) or
      :class:`~repro.engine.scheduler.JobCancelled` (without).

    Cross-run caching (see docs/PERFORMANCE.md, "Cross-run caching"):

    * ``summary_cache`` — a directory (or
      :class:`~repro.store.summarycache.SummaryCache`) holding
      content-addressed partition summaries across runs.  Before
      dispatch, every planned partition's content digest is probed
      against the cache; hits decode straight into the driver's adoption
      accumulator — byte-identical schema and quarantine line numbers —
      and only changed or new partitions ship to workers.  A re-run over
      unchanged data skips the map phase entirely; an append-mostly
      re-run does map work proportional to the delta (byte splits are
      planned with stable, quantized boundaries when a cache is active,
      so an append leaves the unchanged prefix's digests intact).
      The cache is read and written; a store that fails (a read-only
      directory, a full disk, a held lock) is skipped, so a read-only
      cache still replays.  The cache is strictly best-effort and
      strictly transparent — corrupt or evicted entries recompute, and
      results are byte-identical to an uncached run on every backend.

    ``stats_mode`` — ``"off"`` (default), ``"basic"`` or ``"sketches"``
    — enriches every partition summary with mergeable per-path
    statistics (see :mod:`repro.inference.statistics`).  Statistics ride
    the same commutative/associative merge path as the schema, so
    journals, caches and incremental updates keep working;
    the inferred schema is byte-identical in every mode.  Statistics
    observe the values the map phase decodes anyway; ``"off"`` pays
    nothing.
    """
    source = str(path)
    # Resolve once at the driver (raising early on an unknown mode) so
    # every partition — local or on a worker process — runs alike.
    stats_mode = resolve_stats_mode(stats_mode)
    # Only a regular file has a size to split (a pipe reports 0).
    regular = stat.S_ISREG(os.stat(path).st_mode)
    if journal_path is not None and not regular:
        from repro.store.journal import JournalError

        raise JournalError(
            f"cannot journal {source!r}: it is not a regular file, and a "
            f"pipe cannot be read again on resume"
        )
    cache = None
    if summary_cache is not None and regular:
        # A pipe's summaries have no byte range to key: never cached.
        from repro.store.summarycache import SummaryCache

        cache = summary_cache
        if not isinstance(cache, SummaryCache):
            cache = SummaryCache(cache)
    # Encode task results where they cross a process boundary; thread
    # and in-line summaries are shared by reference.
    wire = context is not None and context.backend == "process"
    stats = context.scheduler.stats if context is not None else None
    scheduler = context.scheduler if context is not None else None

    loaded = None
    if update_from is not None or checkpoint_to is not None:
        # Imported lazily: the store sits above the kernel, and most
        # runs never touch it.
        from repro.store.checkpoint import load_checkpoint, save_checkpoint
    if update_from is not None:
        loaded = load_checkpoint(update_from, stats=stats)
    if resume and journal_path is None:
        raise ValueError(
            "resume=True requires journal_path (nothing to resume from)"
        )

    # Plan: the work items, one task each, and the key each item's
    # summary is filed under in the cache and the journal alike.
    start = time.perf_counter()
    task_options = dict(
        source=source, permissive=permissive,
        collect_timings=collect_timings, wire=wire, stats_mode=stats_mode,
    )
    count = num_partitions or (
        context.default_parallelism if context is not None else 1
    )
    if regular:
        items = plan_splits(
            source, count, min_split_bytes, stable=cache is not None
        )
    elif context is None:
        # Feed the accumulator straight off the pipe: the sequential
        # path never materialises the line list.
        items = [iter_numbered_lines(path)]
    else:
        items = split_evenly(list(iter_numbered_lines(path)), count)
    # In-line, this module's ``accumulate_ndjson_partition``, the name
    # the e2e tracer wraps; a scheduler gets ``accumulate_ndjson_item``,
    # since the process backend cannot ship the tracer's closure.
    task = partial(
        accumulate_ndjson_item if context is not None
        else accumulate_ndjson_partition,
        **task_options,
    )
    keys: list = []
    if cache is not None or journal_path is not None:
        from repro.store.summarycache import config_signature

        # A summary is a function of the split's bytes and the run's
        # configuration, so (content digest, config signature) keys it.
        # One hash pass over the file (memory bandwidth, no typing)
        # digests every split.
        signature = config_signature(permissive=permissive, stats=stats_mode)
        keys = [(digest, signature)
                for digest in digest_splits(source, items)]

    journal, frames = None, {}
    if journal_path is not None:
        from repro.store.journal import RunJournal

        if resume:
            journal, state = RunJournal.open_resume(journal_path)
            frames = state.completed
        else:
            journal = RunJournal.create(journal_path)
    try:
        # Gather: one partial per work item, in plan order.  An item
        # whose key names a journal frame, else a cache entry, replays
        # it; the rest are mapped, and each is journaled as it finishes.
        #: Every wire payload of this run decodes through this accumulator.
        adopt = PartitionAccumulator()
        partials: list = [None] * len(items)
        #: Items read from the cache, and the results of the others
        #: (journal frames, then mapped summaries) by item index.
        hits, misses = [], {}
        for index, key in enumerate(keys):
            payload = frames.get("-".join(key))
            cached = payload is None and cache is not None
            if cached:
                payload = cache.get(*key)
            if payload is None:
                continue
            try:
                partials[index] = _arrived(payload, adopt, stats,
                                           replayed=True)
            except ValueError:
                # Well framed but undecodable: a miss.  A cache entry is
                # dropped so that the recomputed summary replaces it.
                if cached:
                    cache.discard(*key)
                continue
            if cached:
                hits.append(index)
            else:
                misses[index] = payload
        todo = [i for i, summary in enumerate(partials) if summary is None]
        if stats is not None:
            # Replayed items never ship.  Byte splits ship only their
            # pickled descriptors (compare with input_bytes_read); a
            # pipe's line chunks ship the text of every record.
            shipped = [items[i] for i in todo]
            stats.input_bytes_shipped += (
                len(pickle.dumps(shipped)) if regular
                else sum(len(text) for part in shipped for _, text in part)
            )
        on_result = None
        if journal is not None:
            def on_result(done: int, result) -> None:
                journal.append_task(
                    "-".join(keys[todo[done]]), as_wire_payload(result)
                )

        try:
            fresh = _dispatch(
                task, [items[i] for i in todo], scheduler, stop_event,
                on_result,
            )
        except JobCancelled as exc:
            if journal is None:
                raise
            # ``misses`` holds the journal's replays so far.
            raise ResumableInterrupt(
                str(journal_path), len(misses) + exc.completed,
                len(misses) + len(todo),
            ) from exc
        for index, result in zip(todo, fresh):
            partials[index] = _arrived(result, adopt, stats, replayed=False)
            misses[index] = result
        stored = 0
        if cache is not None:
            # Every miss is stored, journal replays included.
            stored = sum(
                cache.put(*keys[index], as_wire_payload(misses[index]))
                for index in sorted(misses)
            )
        if stats is not None:
            if cache is not None:
                stats.cache_hits += len(hits)
                stats.cache_misses += len(misses)
                stats.cache_stores += stored
                stats.cache_bytes_skipped += sum(
                    partials[i].bytes_read for i in hits
                )
            stats.input_bytes_read += sum(
                partials[i].bytes_read for i in todo
            )
        # Byte-split workers only know split-local line numbers; a prefix
        # sum over the line counts re-anchors quarantined records to
        # their absolute file lines, and to this run's source, before
        # anything downstream sees them.  Replayed summaries hold
        # split-local numbers too, and may name another file whose split
        # had the same bytes, so hits and misses rebase uniformly; a
        # pipe's lines are numbered absolutely and count none.
        base = 0
        for index, summary in enumerate(partials):
            if summary.skipped:
                partials[index] = replace(
                    summary,
                    skipped=rebase_bad_records(summary.skipped, base, source),
                )
            base += summary.line_count
        map_seconds = time.perf_counter() - start
        _note_summary_telemetry(stats, partials)

        # Reduce: the stored summary of an update is just one more
        # partial, and every partial enters one fold.
        start = time.perf_counter()
        skipped_per_partition = {
            index: summary.skipped_count
            for index, summary in enumerate(partials)
            if summary.skipped_count
        }
        checkpoint_records = 0
        if loaded is not None:
            partials.append(loaded.summary)
            checkpoint_records = loaded.record_count
        merged = merge_summaries_full(partials, interner=adopt.interner)
        reduce_seconds = time.perf_counter() - start

        # Persist.  The quarantine sidecar goes first: it is still
        # written when the run then aborts, for post-mortems.  The error
        # rate is judged over the records this run actually read: the
        # records an update folded in from its checkpoint must not
        # dilute a dirty new batch.
        if bad_records_path is not None and merged.skipped:
            write_bad_records(bad_records_path, merged.skipped)
        if max_error_rate is not None:
            total = (merged.record_count - checkpoint_records
                     + merged.skipped_count)
            if total and merged.skipped_count / total > max_error_rate:
                raise ErrorRateExceeded(
                    merged.skipped_count, total, max_error_rate
                )
        run = InferenceRun(
            schema=merged.schema,
            record_count=merged.record_count,
            distinct_type_count=merged.distinct_type_count,
            map_seconds=map_seconds,
            reduce_seconds=reduce_seconds,
            skipped_count=merged.skipped_count,
            bad_records=merged.skipped,
            skipped_per_partition=skipped_per_partition,
            phase_timings=merged.timings,
            checkpoint_record_count=checkpoint_records,
            stats=stats_if_complete(merged.stats, merged.record_count),
        )
        if checkpoint_to is not None:
            previous_sources = (
                loaded.manifest.sources if loaded is not None else ()
            )
            previous_skipped = (
                loaded.manifest.skipped_count if loaded is not None else 0
            )
            run.checkpoint = save_checkpoint(
                checkpoint_to,
                # Only the algebraic state persists; save_checkpoint drops
                # a bundle that covers just the fresh records of an
                # update atop a pre-stats checkpoint.
                PartitionSummary(
                    schema=merged.schema,
                    record_count=merged.record_count,
                    distinct_types=merged.distinct_types,
                    stats=merged.stats,
                    distinct_digests=merged.distinct_digests,
                ),
                sources=list(previous_sources) + [source],
                skipped_count=previous_skipped + merged.skipped_count,
                stats=stats,
            )

        if journal is not None:
            # The run is complete (merge done, checkpoint — if any —
            # durable): seal the journal.
            from repro.core.printer import print_type

            journal.append_commit({
                "record_count": merged.record_count,
                "schema_sha256": hashlib.sha256(
                    print_type(merged.schema).encode("utf-8")
                ).hexdigest(),
            })
    finally:
        if journal is not None:
            journal.close()
    return run


class SchemaInferencer:
    """Incremental schema inference (introduction, "incremental evolution").

    Maintains a running fused schema; each :meth:`add` fuses one more
    record's type in.  Two inferencers over disjoint slices of a dataset can
    be :meth:`merge`-d, and the result equals what a single pass would have
    produced — that equality *is* the associativity theorem, and the test
    suite checks it property-based.

    Internally backed by the streaming kernel's
    :class:`repro.inference.kernel.PartitionAccumulator`, so a long-lived
    inferencer gets interning and fuses each distinct type once: a
    record whose type was seen before costs no fusion.

    >>> inf = SchemaInferencer()
    >>> inf.add({"a": 1})
    >>> inf.add({"b": "x"})
    >>> from repro.core.printer import print_type
    >>> print_type(inf.schema)
    '{a: Num?, b: Str?}'
    """

    def __init__(self, stats_mode: str = "off") -> None:
        self._acc = PartitionAccumulator(
            stats_mode=resolve_stats_mode(stats_mode)
        )

    @property
    def stats(self) -> "Any | None":
        """The live statistics bundle, or ``None`` when stats are off."""
        return self._acc.stats

    @property
    def schema(self) -> Type:
        """The schema of everything added so far (empty type if nothing)."""
        return self._acc.schema

    @property
    def record_count(self) -> int:
        """How many records have been folded in."""
        return self._acc.record_count

    def add(self, value: Any) -> None:
        """Fuse one more JSON value into the schema."""
        self._acc.add(value)

    def add_type(self, t: Type, records: int = 1) -> None:
        """Fuse a pre-computed type (e.g. a partial schema) into the schema."""
        self._acc.add_type(t, records)

    def add_many(self, values: Iterable[Any]) -> None:
        """Fuse a batch of values."""
        self._acc.add_many(values)

    def merge(self, other: "SchemaInferencer") -> "SchemaInferencer":
        """Combine two inferencers into a new one (neither input changes).

        Both sides fold in as summaries, so the result keeps the union of
        their distinct types as well as the fused schema and the summed
        record count.
        """
        merged = SchemaInferencer()
        merged._acc.add_summary(self._acc.summary())
        merged._acc.add_summary(other._acc.summary())
        if self._acc.stats is not None and other._acc.stats is not None:
            # Stats merge only when both sides carry them; a one-sided
            # bundle would silently under-count the merged history.
            merged._acc.stats = merge_stats(self._acc.stats,
                                            other._acc.stats)
        return merged

    def __or__(self, other: "SchemaInferencer") -> "SchemaInferencer":
        return self.merge(other)

    @classmethod
    def from_checkpoint(cls, directory: str | Path) -> "SchemaInferencer":
        """Resume a long-lived inferencer from a saved checkpoint.

        The loaded summary folds in through the kernel's
        :meth:`~repro.inference.kernel.PartitionAccumulator.add_summary`,
        so the resumed inferencer's schema, record count and distinct
        set all continue exactly where the checkpointed run stopped.  A
        checkpoint that carries statistics opens the inferencer in the
        bundle's mode, so its statistics continue too.
        """
        from repro.store.checkpoint import load_checkpoint

        summary = load_checkpoint(directory).summary
        stats = summary.stats
        inferencer = cls("off" if stats is None else stats.mode)
        inferencer._acc.add_summary(summary)
        return inferencer

    def save_checkpoint(self, directory: str | Path,
                        sources: Iterable[Any] = ()) -> "Any":
        """Persist the current state as a checkpoint; returns it.

        See :func:`repro.store.save_checkpoint`; ``sources`` may name
        input files to fingerprint into the manifest.
        """
        from repro.store.checkpoint import save_checkpoint

        return save_checkpoint(directory, self._acc.summary(),
                               sources=sources)


@dataclass
class PartitionReport:
    """One row of the paper's Table 8: a partition processed in isolation."""

    index: int
    record_count: int
    distinct_type_count: int
    seconds: float
    schema: Type


@dataclass
class PartitionedRun:
    """Result of the partition-isolated strategy (Section 6.2)."""

    schema: Type
    partitions: list[PartitionReport] = field(default_factory=list)
    final_fuse_seconds: float = 0.0

    @property
    def record_count(self) -> int:
        """Total records across partitions."""
        return sum(p.record_count for p in self.partitions)


def infer_partitioned(partitions: Iterable[Iterable[Any]]) -> PartitionedRun:
    """Process each partition in isolation, then fuse the partial schemas.

    This is the manual strategy of Section 6.2: no shuffle, no
    synchronisation during partition processing, and a final fusion of the
    per-partition schemas that "is a fast operation as each schema to fuse
    has a very small size" — the benchmarks confirm by reporting
    ``final_fuse_seconds`` separately.  Each partition streams through the
    kernel accumulator.
    """
    reports: list[PartitionReport] = []
    for index, partition in enumerate(partitions):
        start = time.perf_counter()
        run = run_inference(partition)
        elapsed = time.perf_counter() - start
        reports.append(PartitionReport(
            index=index,
            record_count=run.record_count,
            distinct_type_count=run.distinct_type_count,
            seconds=elapsed,
            schema=run.schema,
        ))

    start = time.perf_counter()
    schema = fuse_all(report.schema for report in reports)
    final_fuse_seconds = time.perf_counter() - start
    return PartitionedRun(
        schema=schema,
        partitions=reports,
        final_fuse_seconds=final_fuse_seconds,
    )
