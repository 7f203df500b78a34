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
from repro.engine.accumulators import MapAccumulator
from repro.engine.context import Context, split_evenly
from repro.engine.scheduler import JobCancelled
from repro.inference.fusion import fuse_all
from repro.inference.infer import infer_type
from repro.inference.kernel import (
    PartitionAccumulator,
    PartitionSummary,
    PhaseTimings,
    _lane_label,
    accumulate_ndjson_item,
    accumulate_ndjson_partition,
    accumulate_partition,
    as_wire_payload,
    decode_summary,
    # Not called here: the e2e tracer (benchmarks/e2e/tracing.py) wraps
    # this module attribute by name and refuses to run without it.
    decode_summary_light,
    encode_summary,
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
    "resolve_split_mode",
    "run_inference",
    "InferenceRun",
    "ResumableInterrupt",
    "SchemaInferencer",
    "infer_partitioned",
    "PartitionReport",
    "PartitionedRun",
    "SPLIT_MODES",
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
    start = time.perf_counter()
    # One task per partition over the *raw* values.  Shipped as a
    # partial of a module-level function so the process backend can
    # serialize it.
    summaries = context.scheduler.run(
        partial(accumulate_partition, stats_mode=stats_mode), parts
    )
    map_seconds = time.perf_counter() - start
    _note_summary_telemetry(context.scheduler.stats, summaries)

    start = time.perf_counter()
    merged = merge_summaries_full(summaries)
    reduce_seconds = time.perf_counter() - start
    return InferenceRun(
        schema=merged.schema,
        record_count=merged.record_count,
        distinct_type_count=merged.distinct_type_count,
        map_seconds=map_seconds,
        reduce_seconds=reduce_seconds,
        stats=stats_if_complete(merged.stats, merged.record_count),
    )


#: Public values of ``infer_ndjson_file``'s ``split_mode``.
SPLIT_MODES = ("auto", "bytes", "lines")


def _resolve_cache(summary_cache):
    """``summary_cache`` as a
    :class:`~repro.store.summarycache.SummaryCache` (it may be a
    directory path or one already constructed), or ``None``."""
    if summary_cache is None:
        return None
    from repro.store.summarycache import SummaryCache

    if isinstance(summary_cache, SummaryCache):
        return summary_cache
    return SummaryCache(summary_cache)


def _digest_numbered_lines(part) -> str:
    """Content digest of one lines-mode partition.

    Lines-mode summaries bake *absolute* line numbers into their
    quarantine records, so the digest covers each line's number as well
    as its text — two partitions with identical texts at different file
    positions must never share a cache entry.
    """
    digest = hashlib.sha256()
    for number, text in part:
        digest.update(str(number).encode("ascii"))
        digest.update(b":")
        digest.update(text.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def _scrub_replayed_telemetry(summary: PartitionSummary) -> PartitionSummary:
    """Zero the run-local telemetry a replayed summary carries.

    A cache hit or a journal replay brings back the summary *content*
    (schema, counts, quarantine, statistics) of the run that produced
    it, but its worker identity and phase timings describe that old run
    — left in place they would count its workers and its stage times as
    this run's.
    """
    return replace(summary, worker="", timings=None)


#: Version of the run-level (whole-plan) cache entry payload.
_RUN_ENTRY_VERSION = 1

#: Signature suffix that separates run-level entries from per-partition
#: entries in the same cache directory (it shows up in entry file names,
#: so the two populations are distinguishable on disk).
_RUN_SIGNATURE_SUFFIX = "-run"


def _run_level_key(digests: Sequence[str]) -> str:
    """Content key of the *whole plan*: a digest over the ordered
    per-partition digests.  Any content change, any boundary change and
    any partition-count change alters at least one member, so a run-level
    hit certifies that every partition — and their arrangement — is
    byte-identical to the run that stored the entry."""
    return hashlib.sha256("\n".join(digests).encode("ascii")).hexdigest()


def _encode_run_entry(
    merged: PartitionSummary,
    distinct_count: int,
    skipped_per_partition: "dict[int, int]",
    bytes_skipped: int,
) -> bytes:
    """Run-level entry: the merged result minus its distinct-type *set*.

    A plain inference run only ever observes the distinct *count*; the
    set itself (which dwarfs the schema — decoding it dominates warm
    replay on heterogeneous data) is only needed by checkpoint writes
    and incremental updates, which bypass run-level replay entirely.
    ``skipped_per_partition`` rides along because the merged result no
    longer attributes quarantined rows to partitions.  ``bytes_skipped``
    — what per-partition hits on every partition would count — rides
    in the slim summary's ``bytes_read`` and feeds the replay's
    bytes-skipped telemetry.
    """
    slim = PartitionSummary(
        schema=merged.schema,
        record_count=merged.record_count,
        distinct_types=(),
        skipped=merged.skipped,
        bytes_read=bytes_skipped,
        stats=merged.stats,
    )
    return pickle.dumps(
        (
            _RUN_ENTRY_VERSION,
            encode_summary(slim),
            distinct_count,
            dict(skipped_per_partition),
        ),
        pickle.HIGHEST_PROTOCOL,
    )


def _decode_run_entry(payload: bytes):
    """Inverse of :func:`_encode_run_entry`; ``None`` for anything
    malformed or version-skewed (the caller recomputes)."""
    try:
        version, wire_bytes, distinct_count, per_partition = (
            pickle.loads(payload)
        )
        if version != _RUN_ENTRY_VERSION:
            return None
        summary = decode_summary(wire_bytes)
    except Exception:
        return None
    return summary, distinct_count, per_partition


def _replay_run_entry(
    cache, run_key: str, signature: str, stats, n_partitions: int,
) -> "tuple[PartitionSummary, int, dict[int, int]] | None":
    """Whole-run replay: the run-level entry for this exact plan as
    ``(merged summary, distinct count, skipped per partition)``, or
    ``None`` when it is absent or damaged (a damaged entry is dropped,
    so the recomputed run stores its own).  A hit needs no dispatch, no
    per-partition decode and no merge — the map *and* reduce phases are
    both pure functions of the plan's content."""
    signature += _RUN_SIGNATURE_SUFFIX
    payload = cache.get(run_key, signature)
    if payload is None:
        return None
    decoded = _decode_run_entry(payload)
    if decoded is None:
        cache.discard(run_key, signature)
        return None
    summary, distinct_count, per_partition = decoded
    if stats is not None:
        stats.cache_hits += n_partitions
        stats.cache_bytes_skipped += summary.bytes_read
    return _scrub_replayed_telemetry(summary), distinct_count, per_partition


def _finish_run(
    merged: PartitionSummary,
    distinct_count: int,
    skipped_per_partition: "dict[int, int]",
    map_seconds: float,
    reduce_seconds: float,
    bad_records_path,
    max_error_rate,
    checkpoint_records: int = 0,
) -> InferenceRun:
    """The tail every NDJSON run shares, whether computed or replayed
    from a run-level cache entry.

    Spills the quarantine sidecar first (it is still written when the
    run then aborts, for post-mortems), enforces ``max_error_rate`` and
    builds the :class:`InferenceRun`.  The error rate is judged over the
    records this run actually read: the ``checkpoint_records`` an update
    folded in from its checkpoint must not dilute a dirty new batch.
    """
    if bad_records_path is not None and merged.skipped:
        write_bad_records(bad_records_path, merged.skipped)
    if max_error_rate is not None:
        total = (merged.record_count - checkpoint_records
                 + merged.skipped_count)
        if total and merged.skipped_count / total > max_error_rate:
            raise ErrorRateExceeded(
                merged.skipped_count, total, max_error_rate
            )
    return InferenceRun(
        schema=merged.schema,
        record_count=merged.record_count,
        distinct_type_count=distinct_count,
        map_seconds=map_seconds,
        reduce_seconds=reduce_seconds,
        skipped_count=merged.skipped_count,
        bad_records=merged.skipped,
        skipped_per_partition=dict(skipped_per_partition),
        phase_timings=merged.timings,
        checkpoint_record_count=checkpoint_records,
        stats=stats_if_complete(merged.stats, merged.record_count),
    )


def _decode_payload(
    payload: bytes, adopt: PartitionAccumulator, stats
) -> PartitionSummary:
    """Decode one wire payload through the adoption accumulator ``adopt``.

    One accumulator means one interner: structurally equal schema
    subtrees from *different* partitions decode to pointer-identical
    nodes.  The byte counters feed ``--timings``; encoded and decoded
    totals are tallied from the same payloads (every payload the driver
    decodes was encoded exactly once).
    """
    summary = decode_summary(payload, adopt)
    if stats is not None:
        stats.summary_wire_bytes_encoded += len(payload)
        stats.summary_wire_bytes_decoded += len(payload)
    return summary


def _decode_wire_summaries(
    entries, stats, adopt: PartitionAccumulator, replayed: "set[int]",
) -> list[PartitionSummary]:
    """Per-task results as summaries: wire payloads (process-pool
    results, replayed journal frames) decode through
    :func:`_decode_payload`; :class:`PartitionSummary` objects (thread
    and in-line results, decoded cache hits) pass through.  The entries
    at ``replayed`` indices — journal frames and cache hits — come from
    an earlier run and lose its telemetry
    (:func:`_scrub_replayed_telemetry`)."""
    summaries = []
    for index, entry in enumerate(entries):
        if isinstance(entry, (bytes, bytearray)):
            entry = _decode_payload(bytes(entry), adopt, stats)
        if index in replayed:
            entry = _scrub_replayed_telemetry(entry)
        summaries.append(entry)
    return summaries


def _journal_header(plan_desc: dict, signature: str, total: int) -> dict:
    """The run-journal header frame for this task plan.

    Everything a resume needs to *validate* (did the flags or the file
    change?) and everything fsck needs to *report*, without re-planning.
    """
    return {
        "task_count": total,
        "plan_sha256": signature,
        "source": plan_desc.get("source"),
        "split_mode": plan_desc.get("split_mode"),
        # A compatibility label (see kernel._lane_label), kept so the
        # header reads as earlier builds wrote it.
        "parse_lane": plan_desc.get("parse_lane"),
        "permissive": plan_desc.get("permissive"),
        # Absent for stats-off runs, so pre-stats journals (no key at
        # all) validate against them unchanged.
        "stats": plan_desc.get("stats"),
        "tasks": plan_desc.get("tasks"),
    }


def _validate_resume(state, plan_desc: dict, signature: str,
                     total: int) -> None:
    """Refuse to replay a journal that describes a different run.

    Replaying summaries of other data (or of another split plan) would
    silently fuse the wrong partitions into the schema; a mismatch is
    therefore a hard error, with the first observed difference named so
    the operator knows whether the file changed or the flags did.
    """
    from repro.store.journal import JournalMismatchError

    header = state.header
    if header.get("plan_sha256") == signature:
        return
    path = state.path
    theirs, ours = header.get("source"), plan_desc.get("source")
    if theirs != ours:
        raise JournalMismatchError(
            f"journal {path!r} was written for source {theirs!r}, but the "
            f"current run reads {ours!r} — the input file changed (or a "
            f"different file was named); delete the journal to start over"
        )
    for key in ("split_mode", "permissive", "stats"):
        if header.get(key) != plan_desc.get(key):
            raise JournalMismatchError(
                f"journal {path!r} recorded {key}={header.get(key)!r}, "
                f"but the current run resolved {key}="
                f"{plan_desc.get(key)!r}; rerun with the original flags "
                f"(or delete the journal to start over)"
            )
    if header.get("task_count") != total:
        raise JournalMismatchError(
            f"journal {path!r} planned {header.get('task_count')} tasks, "
            f"but the current run planned {total} — partitioning flags "
            f"(--partitions/--workers/--min-split-mb) must match the "
            f"original run"
        )
    raise JournalMismatchError(
        f"journal {path!r} was written for a different task plan "
        f"(plan digest {str(header.get('plan_sha256'))[:12]} != "
        f"{signature[:12]}); rerun with the original flags or delete the "
        f"journal to start over"
    )


def _run_journaled_tasks(
    task,
    work_items: list,
    plan_desc: dict,
    scheduler,
    journal_path,
    resume: bool,
    stop_event,
):
    """Dispatch ``work_items``, journaling each completion; returns
    ``(entries, replayed, journal)``.

    ``entries`` is indexed by task: journal-replayed tasks — the indices
    in ``replayed`` — hold their recorded wire payload (bytes), freshly
    executed tasks hold whatever the task returned (wire bytes or a
    summary object).  The returned
    journal is still open — the caller appends the commit frame after
    the merge and closes it; on every error path here the journal is
    closed before the exception propagates.

    Without a ``journal_path`` this degrades to a plain dispatch.
    """
    journal = None
    replayed: dict[int, bytes] = {}
    total = len(work_items)
    if journal_path is not None:
        from repro.store.journal import RunJournal, plan_signature

        signature = plan_signature(plan_desc)
        if resume:
            journal, state = RunJournal.open_resume(journal_path)
            try:
                _validate_resume(state, plan_desc, signature, total)
            except BaseException:
                journal.close()
                raise
            replayed = {
                i: payload for i, payload in state.completed.items()
                if 0 <= i < total
            }
        else:
            journal = RunJournal.create(
                journal_path, _journal_header(plan_desc, signature, total)
            )

    remaining = [i for i in range(total) if i not in replayed]
    entries: list = [None] * total
    for i, payload in replayed.items():
        entries[i] = payload

    on_result = None
    if journal is not None:
        def on_result(local_index: int, result) -> None:
            payload = (
                bytes(result) if isinstance(result, (bytes, bytearray))
                else encode_summary(result)
            )
            journal.append_task(remaining[local_index], payload)

    try:
        if scheduler is None:
            fresh = []
            for local, index in enumerate(remaining):
                if stop_event is not None and stop_event.is_set():
                    raise JobCancelled(local, len(remaining))
                result = task(work_items[index])
                if on_result is not None:
                    on_result(local, result)
                fresh.append(result)
        else:
            fresh = scheduler.run(
                task,
                [work_items[i] for i in remaining],
                on_result=on_result,
                stop_event=stop_event,
            )
    except JobCancelled as exc:
        if journal is not None:
            journal.close()
            raise ResumableInterrupt(
                str(journal_path), len(replayed) + exc.completed, total
            ) from exc
        raise
    except BaseException:
        if journal is not None:
            journal.close()
        raise

    for local, index in enumerate(remaining):
        entries[index] = fresh[local]
    return entries, set(replayed), journal


def _splittable(path: "str | Path | None") -> bool:
    """Whether byte-range splits can be planned over ``path``: only a
    regular file has a size to split (``None`` stands for one)."""
    return path is None or stat.S_ISREG(os.stat(path).st_mode)


def resolve_split_mode(
    split_mode: str,
    context: Context | None,
    path: "str | Path | None" = None,
) -> str:
    """Resolve an ingestion ``split_mode`` to ``"bytes"`` or ``"lines"``.

    ``"auto"`` picks byte-range splits whenever a :class:`Context` is
    available and ``path`` is a regular file — the workers read their
    own byte ranges, so the driver never materialises the file and ships
    only descriptors — and the streaming line reader otherwise (the
    sequential path is already zero-copy: it feeds the accumulator
    straight off the file iterator).  A pipe or other non-regular
    source reports no size to split, so it always takes lines.
    """
    if split_mode not in SPLIT_MODES:
        raise ValueError(
            f"unknown split_mode {split_mode!r}; expected one of "
            f"{SPLIT_MODES}"
        )
    if split_mode == "auto":
        splittable = context is not None and _splittable(path)
        return "bytes" if splittable else "lines"
    return split_mode


def infer_ndjson_file(
    path: str | Path,
    context: Context | None = None,
    num_partitions: int | None = None,
    permissive: bool = False,
    bad_records_path: str | Path | None = None,
    max_error_rate: float | None = None,
    collect_timings: bool = False,
    split_mode: str = "auto",
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

    ``split_mode`` picks the ingestion model (see
    :func:`resolve_split_mode` for how ``"auto"`` chooses):

    * ``"bytes"`` — the driver plans
      :class:`~repro.jsonio.splits.FileSplit` byte ranges from the file
      size alone and ships only those descriptors; each worker opens the
      file itself and parses exactly the lines its range owns.  Driver
      memory stays O(1) in the dataset and nothing but summaries crosses
      the process boundary back.  ``min_split_bytes`` floors the split
      size so tiny files do not shatter into per-task overhead.
    * ``"lines"`` — the original model: the driver reads the file,
      numbers every line, and distributes the line lists.  Kept as the
      executable reference the byte-split differential tests compare
      against, and the path for pipes and other non-regular sources,
      which have no size to split (``"bytes"`` raises on them).

    Both modes produce identical results — schema, counts, error
    diagnostics and quarantine sidecars, absolute line numbers included;
    byte-split workers report split-local line numbers that the driver
    re-bases with a prefix sum over the splits' line counts.

    The map phase decodes each record with a guarded C decoder
    (:func:`repro.inference.typestream.guarded_decoder`) and re-parses
    any record it misses with the strict parser, so results, error
    diagnostics and quarantine behaviour are those of the strict parser
    on every input.  With ``collect_timings=True`` (the CLI's
    ``--timings``) the run's ``phase_timings`` attribute the time this
    run spent mapping to parse/type/fuse stages (replayed cache and
    journal entries carry none); the default skips the per-record clock
    reads and leaves ``phase_timings`` as ``None``.

    Dispatch: every partition (split or line chunk) is one scheduler
    task, :func:`repro.inference.kernel.accumulate_ndjson_item`.  On the
    process backend its summary returns in the compact flat-table wire
    format (:func:`repro.inference.kernel.encode_summary`), not as a
    pickled type-object graph; thread and in-line tasks share their
    summaries by reference.  Results are bit-identical either way.
    Every task types its records through a fresh accumulator, and the
    reduce is one fold of the task summaries at the driver
    (:func:`repro.inference.kernel.merge_summaries_full`).

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

    * ``journal_path`` — write-ahead run journal.  The task plan is
      recorded up front; each completed task's encoded summary is
      fsync'd to the journal *before* the run proceeds, so a crash —
      process kill, power loss, OOM — loses at most the tasks still in
      flight.  A commit frame is appended after the merge (and
      checkpoint, if any) succeeds.
    * ``resume=True`` — replay the journal's completed summaries through
      the fusion algebra and execute only the remaining tasks.  By
      commutativity/associativity (Theorems 5.4-5.5) the resumed result
      is byte-identical to an uninterrupted run.  The journal must match
      the current plan (same source, flags and task count); a mismatch
      raises :class:`~repro.store.journal.JournalMismatchError`.
    * ``stop_event`` — a ``threading.Event``; when set, queued tasks are
      cancelled, in-flight tasks drain (and are journaled), and the run
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
      results are byte-identical to an uncached run on every backend
      and split mode.

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
    mode = resolve_split_mode(split_mode, context, path)
    cache = _resolve_cache(summary_cache)
    if (cache is not None and split_mode == "auto" and context is None
            and _splittable(path)):
        # The sequential default is the streaming line path, which has no
        # per-partition unit to key; byte splits give the cache one, at
        # identical results (the split-equivalence guarantee).
        mode = "bytes"
    cache_signature = None
    if cache is not None:
        if mode == "lines" and context is None:
            # Lines mode without a context streams the file as one
            # journal task; there is nothing partition-shaped to cache,
            # so the run is simply uncached.
            cache = None
        else:
            from repro.store.summarycache import config_signature

            cache_signature = config_signature(
                permissive=permissive, collect_timings=collect_timings,
                split_mode=mode, stats=stats_mode,
            )
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

    def _plan_desc(tasks: list) -> dict:
        """The canonical plan descriptor the journal header signs."""
        if journal_path is None:
            return {}
        from repro.store.checkpoint import fingerprint_source

        desc = {
            "source": fingerprint_source(source).to_dict(),
            "split_mode": mode,
            "parse_lane": _lane_label(stats_mode),
            "permissive": bool(permissive),
            "update": str(update_from) if update_from is not None else None,
            "tasks": tasks,
        }
        if stats_mode != "off":
            # Only when enabled, so stats-off plans hash identically to
            # pre-stats journals and remain resumable by them.
            desc["stats"] = stats_mode
        return desc

    start = time.perf_counter()
    #: Every wire payload of this run decodes through this accumulator.
    adopt = PartitionAccumulator()
    #: Work-item index -> decoded cache hit, for this run's plan.
    hits: dict[int, PartitionSummary] = {}
    #: Whole-plan cache key (run-level entry), when a cache is active.
    run_key: "str | None" = None
    # Run-level replay and store are sound only when the result is a pure
    # function of this plan's content: incremental updates fold in
    # checkpointed history, checkpoint writes need the distinct-type set
    # the slim entry drops, and journaled runs owe the caller a journal.
    run_replay_ok = (
        update_from is None and checkpoint_to is None
        and journal_path is None
    )
    task_options = dict(
        source=source, permissive=permissive,
        collect_timings=collect_timings, wire=wire, stats_mode=stats_mode,
    )
    if mode == "lines" and context is None:
        # Feed the accumulator straight off the file iterator: the
        # sequential path never materialises the line list, keeping
        # memory constant however massive the input.  As a single
        # journal task: either it completed before the crash (and
        # resume replays it without re-reading the file) or it runs
        # from the start.
        task = partial(accumulate_ndjson_partition, **task_options)
        entries, replayed, journal = _run_journaled_tasks(
            lambda _item: task(iter_numbered_lines(path)),
            [None], _plan_desc([["stream"]]), None,
            journal_path, resume, stop_event,
        )
    else:
        # Only planning differs by split mode: the work items, their
        # content digests, and how the input-bytes telemetry sizes them.
        count = num_partitions or (
            context.default_parallelism if context is not None else 1
        )
        if mode == "bytes":
            items = plan_splits(
                source, count, min_split_bytes, stable=cache is not None
            )

            def describe(split) -> list[int]:
                return [split.offset, split.length]

            def digest_items() -> list[str]:
                # One hash pass over the file (memory bandwidth, no
                # typing) keys every split.
                return digest_splits(source, items)

            def shipped_bytes(misses: list) -> int:
                # The entire driver-to-worker input payload: the
                # pickled descriptors.  Compare with input_bytes_read.
                return len(pickle.dumps(misses))

            def hit_bytes(index: int, summary: PartitionSummary) -> int:
                return summary.bytes_read
        else:
            items = split_evenly(list(iter_numbered_lines(path)), count)

            def describe(part) -> list[int]:
                return [part[0][0] if part else -1, len(part)]

            def digest_items() -> list[str]:
                return [_digest_numbered_lines(part) for part in items]

            def shipped_bytes(misses: list) -> int:
                # Approximate payload the driver hands to the tasks: the
                # text of every dispatched record.
                return sum(len(text) for part in misses for _, text in part)

            def hit_bytes(index: int, summary: PartitionSummary) -> int:
                return sum(len(text) for _, text in items[index])

        digests: "list[str] | None" = None
        if cache is not None and items:
            digests = digest_items()
            run_key = _run_level_key(digests)
            if run_replay_ok:
                replayed = _replay_run_entry(
                    cache, run_key, cache_signature, stats, len(items),
                )
                if replayed is not None:
                    merged, distinct_count, per_partition = replayed
                    return _finish_run(
                        merged, distinct_count, per_partition,
                        time.perf_counter() - start, 0.0,
                        bad_records_path, max_error_rate,
                    )
            for index, digest in enumerate(digests):
                payload = cache.get(digest, cache_signature)
                if payload is None:
                    continue
                try:
                    hits[index] = _decode_payload(payload, adopt, stats)
                except ValueError:
                    # Well framed but undecodable (another wire version,
                    # say): a miss, dropped so that the recomputed
                    # summary is stored in its place.
                    cache.discard(digest, cache_signature)
        miss_indices = [i for i in range(len(items)) if i not in hits]
        misses = [items[i] for i in miss_indices]
        if stats is not None:
            # Cache hits never ship.
            stats.input_bytes_shipped += shipped_bytes(misses)
        # One task per item.  The journal plan keeps one list per task
        # (``[[offset, length]]``), the shape earlier releases wrote, so
        # their journals still resume.  The task is not this module's
        # ``accumulate_ndjson_partition``: the e2e tracer replaces that
        # name with a closure, which the process backend cannot ship.
        miss_results, resumed, journal = _run_journaled_tasks(
            partial(accumulate_ndjson_item, **task_options), misses,
            _plan_desc([[describe(item)] for item in misses]),
            scheduler, journal_path, resume, stop_event,
        )
        replayed = {miss_indices[i] for i in resumed} | hits.keys()
        if digests is not None:
            stored = 0
            for local, index in enumerate(miss_indices):
                if cache.put(
                    digests[index], cache_signature,
                    as_wire_payload(miss_results[local]),
                ):
                    stored += 1
            if stats is not None:
                stats.cache_stores += stored
        entries = miss_results
        if hits:
            entries = [None] * len(items)
            for index, summary in hits.items():
                entries[index] = summary
            for local, index in enumerate(miss_indices):
                entries[index] = miss_results[local]
    summaries = _decode_wire_summaries(entries, stats, adopt, replayed)
    if stats is not None:
        if cache is not None:
            # A cache is only ever active on the partitioned flow.
            stats.cache_hits += len(hits)
            stats.cache_misses += len(miss_indices)
            stats.cache_bytes_skipped += sum(
                hit_bytes(index, summaries[index]) for index in hits
            )
        stats.input_bytes_read += sum(
            summary.bytes_read
            for index, summary in enumerate(summaries)
            if index not in replayed
        )
    # Byte-split workers only know split-local line numbers; a prefix sum
    # over the line counts re-anchors quarantined records to their
    # absolute file lines before anything downstream sees them.  Cache
    # entries store split-local numbers too, so hits and misses rebase
    # uniformly; line chunks are numbered absolutely and count no lines.
    rebased = []
    base = 0
    for summary in summaries:
        if summary.skipped and base:
            summary = replace(
                summary, skipped=rebase_bad_records(summary.skipped, base)
            )
        base += summary.line_count
        rebased.append(summary)
    summaries = rebased
    map_seconds = time.perf_counter() - start
    _note_summary_telemetry(stats, summaries)

    try:
        start = time.perf_counter()
        # Attribute quarantined rows to their partitions through the
        # engine's accumulator machinery (summaries carry the counts
        # across process boundaries; the accumulator merges them
        # driver-side).
        per_partition = MapAccumulator()
        for index, summary in enumerate(summaries):
            if summary.skipped_count:
                per_partition.add_count(index, summary.skipped_count)
        if loaded is not None:
            # The stored summary is just one more partial: it enters the
            # same reduce as the fresh partitions.
            summaries = list(summaries) + [loaded.summary]
        merged = merge_summaries_full(summaries)
        distinct_count = merged.distinct_type_count
        reduce_seconds = time.perf_counter() - start

        if run_key is not None and update_from is None:
            # Merged results are pure for non-incremental runs, so the
            # whole reduce is cacheable too: the next identical-content
            # run replays this entry and skips map *and* reduce.
            if cache.put(
                run_key, cache_signature + _RUN_SIGNATURE_SUFFIX,
                _encode_run_entry(
                    merged, distinct_count, per_partition.value,
                    sum(hit_bytes(i, s) for i, s in enumerate(summaries)),
                ),
            ) and stats is not None:
                stats.cache_stores += 1

        run = _finish_run(
            merged, distinct_count, per_partition.value, map_seconds,
            reduce_seconds, bad_records_path, max_error_rate,
            loaded.record_count if loaded is not None else 0,
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
            # durable): seal the journal.  A resume of a committed
            # journal short-circuits instead of re-merging.
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
    inferencer gets interning and memoized fusion: folding a stream of
    homogeneous records costs one dict lookup each after the schema
    stabilises.

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
