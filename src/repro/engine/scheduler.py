"""Fault-tolerant task scheduler for the local engine.

Runs one task per partition on a worker pool.  Two backends:

* ``backend="thread"`` (default) — a thread pool.  Cheap to start, shares
  read-only inputs by reference, but CPU-bound work is GIL-serialised —
  the same trade-off PySpark's local mode makes.
* ``backend="process"`` — a process pool, giving CPU-bound partition work
  (typing + fusion) true parallelism.  Tasks and items must be picklable;
  a task that is not (e.g. the closures the RDD lineage builds) falls back
  to the thread pool transparently, so a process-backed context still runs
  every workload.  The streaming inference kernel ships a module-level
  function plus raw partition data precisely so it can ride this backend,
  and its per-partition results are tiny summaries that are cheap to send
  back.

On top of dispatch, :meth:`Scheduler.run` provides the fault tolerance a
massive-input job needs (malformed data aside — that is the ingestion
layer's quarantine):

* **Retries with exponential backoff.**  Errors are classified: transient
  ones (:exc:`~repro.engine.faults.TransientError`, a broken process pool,
  a task timeout) are retried up to :attr:`RetryPolicy.max_retries` times
  with deterministic exponential backoff + jitter.  The errors the input
  layer raises on purpose (:exc:`~repro.jsonio.errors.JsonError` and its
  subclasses, :exc:`~repro.core.errors.InvalidValueError`) are facts
  about the data and propagate on their first failure.  Any other
  exception is presumed a deterministic user error: it gets exactly
  *one* retry (the cheap way to prove determinism), then propagates.
* **Worker-crash recovery.**  A crashed process-pool worker breaks the
  whole pool; the scheduler rebuilds the pool and transparently
  re-dispatches every partition that was in flight.  After
  :attr:`RetryPolicy.max_pool_rebuilds` rebuilds it stops trusting the
  process backend and falls back to the thread pool for the remainder of
  the job — last resort, but the job finishes.
* **Per-task timeouts.**  With :attr:`RetryPolicy.task_timeout_s` set, a
  task that exceeds its budget is abandoned and retried.  The clock for
  each task starts when a worker actually begins executing it — time
  spent queued behind other partitions never counts against the budget.
  An abandoned task cannot be interrupted and may still run to
  completion in the background — tasks must therefore be pure, which
  every engine workload is.  An abandoned task also keeps occupying its
  worker until it finishes; when genuinely hung tasks wedge *every*
  thread-pool worker this way, the scheduler walks away from that pool
  and starts a fresh one so queued retries keep moving (a hung
  *process* worker, by contrast, holds its slot until the pool crashes
  or is shut down — pair ``task_timeout_s`` with a small
  ``max_retries`` for hang-prone process-backend workloads).  Nested
  (re-entrant) jobs run inline on the calling worker and therefore
  cannot enforce a timeout at all.
* **Deterministic fault injection.**  A
  :class:`~repro.engine.faults.FaultPlan` threaded through the scheduler
  fires planned incidents per ``(partition, attempt)``, so all of the
  above is exercised in CI without flakiness.

Because tasks may execute more than once, they must be **idempotent and
side-effect free** — which partition typing, fusion and parsing all are;
the safety of recomputation is exactly the associativity/commutativity
property (paper Section 5) that already licenses out-of-order reduction.

A ``parallelism`` of 1 degrades to inline execution (with the same retry
classification), which is handy both for debugging and as the sequential
baseline in the ablation benchmarks.  When ``task_timeout_s`` is set,
sequential and single-item jobs run on the thread pool instead, so the
driver has a worker to abandon on timeout; only nested (re-entrant) jobs
remain inline and unbounded.
"""

from __future__ import annotations

import gc
import os
import pickle
import random
import threading
import time
import warnings
from concurrent.futures import (
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, fields
from typing import Callable, Sequence, TypeVar
from weakref import WeakKeyDictionary

from repro.core.errors import InvalidValueError
from repro.engine.faults import FaultInjected, FaultPlan, TransientError
from repro.jsonio.errors import JsonError

__all__ = [
    "JobCancelled",
    "Scheduler",
    "SchedulerStats",
    "RetryPolicy",
    "TaskTimeoutError",
    "BACKENDS",
    "available_parallelism",
]

T = TypeVar("T")
R = TypeVar("R")

#: Supported execution backends.
BACKENDS = ("thread", "process")


class JobCancelled(Exception):
    """The job was drained early because its ``stop_event`` was set.

    Deliberately *not* a :exc:`~repro.engine.faults.TransientError`: a
    cancellation is a driver decision (SIGINT/SIGTERM graceful
    shutdown), not a task failure, so it must never enter the retry
    classifier.  Every task that had already completed was delivered
    through the job's ``on_result`` callback before this was raised —
    with a journaling callback, all completed work is durable and the
    run is resumable.
    """

    def __init__(self, completed: int, total: int) -> None:
        super().__init__(
            f"job cancelled after draining in-flight tasks: "
            f"{completed}/{total} partitions completed"
        )
        self.completed = completed
        self.total = total

    def __reduce__(self):
        return (self.__class__, (self.completed, self.total))


class _StopCancelled(Exception):
    """Internal marker: a queued future was cancelled by the stop drain.

    Never escapes the scheduler — the recovery loop drops these keys on
    the floor (no retry, no failure) and raises :exc:`JobCancelled` for
    the job as a whole.
    """


class TaskTimeoutError(TransientError):
    """A task exceeded :attr:`RetryPolicy.task_timeout_s` and was abandoned.

    Transient by classification: slowness is often load- or
    injection-induced, so the task is worth retrying; if every attempt
    times out the error propagates once the retry budget is spent.
    """

    def __init__(self, partition: int, attempt: int, timeout_s: float) -> None:
        super().__init__(
            f"task for partition {partition} (attempt {attempt}) exceeded "
            f"{timeout_s:g}s timeout"
        )
        self.partition = partition
        self.attempt = attempt
        self.timeout_s = timeout_s


@dataclass(frozen=True)
class RetryPolicy:
    """How the scheduler retries failing tasks.

    * transient errors (:exc:`~repro.engine.faults.TransientError`,
      a broken process pool, a task timeout) are retried up to
      ``max_retries`` times per task, sleeping
      ``min(max_delay_s, base_delay_s * 2**(attempt-1))`` plus a
      deterministic jitter fraction between attempts;
    * an input error (:exc:`~repro.jsonio.errors.JsonError`, such as a
      malformed line, or :exc:`~repro.core.errors.InvalidValueError`)
      propagates at once: the same input fails the same way every time;
    * any other exception is treated as a deterministic user error and
      gets exactly one retry — if it fails again, it propagates;
    * ``task_timeout_s`` (``None`` = unlimited) bounds each attempt's
      wall-clock, measured from the moment a worker starts executing it
      (time queued behind other partitions does not count); a timed-out
      task counts as a transient failure.  Enforced on pooled execution
      only — nested (re-entrant) jobs run inline and unbounded;
    * after ``max_pool_rebuilds`` process-pool crashes *within one job*
      the scheduler abandons the process backend for the rest of that
      job and finishes on threads.
    """

    max_retries: int = 3
    base_delay_s: float = 0.01
    max_delay_s: float = 2.0
    jitter: float = 0.5
    task_timeout_s: float | None = None
    max_pool_rebuilds: int = 3

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("backoff delays must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.task_timeout_s is not None and self.task_timeout_s <= 0:
            raise ValueError("task_timeout_s must be positive (or None)")
        if self.max_pool_rebuilds < 0:
            raise ValueError("max_pool_rebuilds must be >= 0")

    def is_retryable(self, exc: BaseException) -> bool:
        """Whether ``exc`` is transient (retry) vs deterministic (fail)."""
        return isinstance(exc, (TransientError, BrokenProcessPool))

    def backoff_s(self, partition: int, attempt: int) -> float:
        """Sleep before re-running ``partition`` at ``attempt`` (>= 1).

        Exponential in the attempt number, capped at ``max_delay_s``, with
        a jitter term drawn from an RNG seeded by ``(partition, attempt)``
        — deterministic for reproducibility, yet de-synchronised across
        partitions so retries do not stampede in lockstep.
        """
        base = min(self.max_delay_s,
                   self.base_delay_s * (2 ** max(0, attempt - 1)))
        if not self.jitter:
            return base
        rng = random.Random(f"backoff:{partition}:{attempt}")
        return base * (1.0 + self.jitter * rng.random())


@dataclass
class SchedulerStats:
    """Counters of the recovery machinery, for observability and tests.

    All counters accumulate over the scheduler's lifetime (across jobs);
    per-job budgets such as :attr:`RetryPolicy.max_pool_rebuilds` are
    tracked separately inside each :meth:`Scheduler.run` call.

    ``jobs`` / ``tasks_completed`` / ``job_time_s`` profile throughput:
    how many :meth:`Scheduler.run` calls executed (nested jobs included),
    how many partition tasks they completed, and their summed wall-clock
    — the scheduler-level counterpart of the kernel's per-partition
    :class:`~repro.inference.kernel.PhaseTimings`, letting a benchmark
    split engine overhead from map-phase work.

    ``input_bytes_shipped`` / ``input_bytes_read`` account for how input
    data reached the workers (maintained by the ingestion pipelines, not
    the dispatch loop): bytes of input payload the *driver* materialised
    and handed to partition tasks, versus bytes the *workers* read
    directly from source files via byte-range splits.  A run over a
    regular file ships a few hundred descriptor bytes and reads the
    whole file worker-side; a run over a pipe, whose lines the driver
    reads and deals out, is the mirror image — that contrast is the
    observable win of the input-split model (surfaced by the CLI's
    ``--timings``).

    ``checkpoints_loaded`` / ``checkpoints_saved`` /
    ``checkpoint_records_merged`` account for incremental maintenance
    (maintained by :mod:`repro.store` and the pipelines): how many
    persistent summaries entered this scheduler's merges, how many were
    written back, and how many already-summarised records those loads
    contributed — the records an update run *didn't* have to re-parse,
    i.e. the work incrementality saved.
    """

    retries: int = 0
    timeouts: int = 0
    pool_rebuilds: int = 0
    thread_pool_replacements: int = 0
    thread_fallbacks: int = 0
    faults_injected: int = 0
    jobs: int = 0
    tasks_completed: int = 0
    job_time_s: float = 0.0
    input_bytes_shipped: int = 0
    input_bytes_read: int = 0
    checkpoints_loaded: int = 0
    checkpoints_saved: int = 0
    checkpoint_records_merged: int = 0
    #: Compact summary wire format accounting (pipelines): bytes of
    #: flat-table-encoded summaries decoded at the driver — process-backend
    #: task results, journal replays and summary-cache hits.  Zero when
    #: every summary arrived by reference (thread backend or in-line).
    summary_wire_bytes_decoded: int = 0
    #: Cross-run summary cache accounting (pipelines, from the driver's
    #: probe of :class:`repro.store.summarycache.SummaryCache`):
    #: partitions replayed from cache versus dispatched to workers,
    #: entries newly stored this run, and the input bytes the hits never
    #: re-read — the map work content addressing skipped.  Zero when no
    #: cache is configured.
    cache_hits: int = 0
    cache_misses: int = 0
    cache_stores: int = 0
    cache_bytes_skipped: int = 0
    #: Statistics enrichment accounting (pipelines, from summary
    #: telemetry): partition summaries that arrived carrying a
    #: :class:`repro.inference.statistics.StatsBundle`.  Zero when
    #: ``stats_mode`` is off.
    stats_bundles_merged: int = 0
    #: Partition tasks attributed per worker (``pid<N>/<thread-name>``),
    #: maintained by the pipelines from summary telemetry — the
    #: observable spread of a job over the pool.
    tasks_per_worker: dict[str, int] = field(default_factory=dict)

    def reset(self) -> None:
        """Zero every counter."""
        zero = SchedulerStats()
        for counter in fields(self):
            setattr(self, counter.name, getattr(zero, counter.name))


def available_parallelism() -> int:
    """CPUs actually available to this process.

    ``os.cpu_count()`` reports the machine's cores; under a container
    quota, a cpuset, or ``taskset`` the process may be allowed far fewer.
    ``os.sched_getaffinity(0)`` reflects that restriction, so it is the
    honest default for sizing worker pools and the number benchmarks
    should record as ``cpu_count``.  Falls back to ``os.cpu_count()``
    where affinity is not exposed (macOS, Windows).
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return max(1, len(getaffinity(0)))
        except OSError:  # pragma: no cover - affinity query denied
            pass
    return max(1, os.cpu_count() or 1)


def _default_parallelism() -> int:
    return max(2, available_parallelism())


def _process_worker_init() -> None:
    """Run once in each worker process, right after it starts.

    Disables the cyclic garbage collector in the worker: partition tasks
    build immutable, acyclic data (type trees, summaries) that reference
    counting reclaims fully, while a cycle collection in a forked child
    would traverse — and, via copy-on-write, duplicate — the entire
    inherited parent heap.  Measurably faster on large inputs and safe for
    the engine's workloads.
    """
    gc.disable()


class _Dispatch:
    """One task attempt, bundled with its fault-injection coordinates.

    A module-level class (not a closure) so the process backend can pickle
    it; ``plan`` is ``None`` for the common uninjected dispatch, keeping
    the wrapper overhead to one attribute test.
    """

    __slots__ = ("task", "item", "partition", "attempt", "plan", "allow_kill")

    def __init__(self, task, item, partition, attempt, plan, allow_kill):
        self.task = task
        self.item = item
        self.partition = partition
        self.attempt = attempt
        self.plan = plan
        self.allow_kill = allow_kill

    def __call__(self):
        if self.plan is not None:
            self.plan.apply(self.partition, self.attempt, self.allow_kill)
        return self.task(self.item)

    def __getstate__(self):
        return (self.task, self.item, self.partition, self.attempt,
                self.plan, self.allow_kill)

    def __setstate__(self, state):
        (self.task, self.item, self.partition, self.attempt,
         self.plan, self.allow_kill) = state


class Scheduler:
    """Executes per-partition tasks, preserving partition order of results."""

    def __init__(
        self,
        parallelism: int | None = None,
        backend: str = "thread",
        retry_policy: RetryPolicy | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if parallelism is None:
            parallelism = _default_parallelism()
        if parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        self.parallelism = parallelism
        self.backend = backend
        self.retry_policy = retry_policy or RetryPolicy()
        self.fault_plan = fault_plan if fault_plan else None
        self.stats = SchedulerStats()
        self._pool: ThreadPoolExecutor | None = None
        self._process_pool: ProcessPoolExecutor | None = None
        # Futures abandoned on timeout that may still be running on a
        # thread-pool worker ("zombies"): each occupies a worker until
        # its task finishes, so once they cover the whole pool the pool
        # is replaced to keep queued retries runnable.
        self._thread_zombies: list[Future] = []
        # Re-entrancy guard: per-thread nesting depth of `run` (set while a
        # task body executes, on whichever thread executes it).
        self._local = threading.local()
        # Shippability verdicts, cached per task object.  Keyed weakly so
        # the cache never pins user functions; unhashable/unweakrefable
        # tasks simply skip the cache.
        self._shippable_cache: WeakKeyDictionary = WeakKeyDictionary()

    # ------------------------------------------------------------------
    # pools

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.parallelism,
                thread_name_prefix="repro-engine",
            )
        return self._pool

    def _ensure_process_pool(self) -> ProcessPoolExecutor:
        if self._process_pool is None:
            self._process_pool = ProcessPoolExecutor(
                max_workers=self.parallelism,
                initializer=_process_worker_init,
            )
        return self._process_pool

    def _ensure_live_thread_pool(self) -> ThreadPoolExecutor:
        """The thread pool, replaced first if hung tasks wedge all workers.

        A timed-out thread task cannot be interrupted; it keeps its
        worker until it finishes.  If such zombies ever occupy every
        worker, queued retries could never start — so the wedged pool is
        abandoned (its threads exit as their tasks do) and a fresh one
        takes over.
        """
        self._thread_zombies = [
            f for f in self._thread_zombies if not f.done()
        ]
        if (self._pool is not None
                and len(self._thread_zombies) >= self.parallelism):
            warnings.warn(
                "all thread-pool workers are occupied by timed-out tasks; "
                "replacing the pool so retries can proceed",
                RuntimeWarning,
                stacklevel=4,
            )
            self._pool.shutdown(wait=False)
            self._pool = None
            self._thread_zombies = []
            self.stats.thread_pool_replacements += 1
        return self._ensure_pool()

    def _rebuild_process_pool(self) -> None:
        """Discard a broken process pool so the next round gets a fresh one.

        Workers keep no state between tasks, so the in-flight partitions
        are simply re-dispatched to the fresh pool under the same
        :class:`RetryPolicy`.
        """
        if self._process_pool is not None:
            self._process_pool.shutdown(wait=False, cancel_futures=True)
            self._process_pool = None
        self.stats.pool_rebuilds += 1

    # ------------------------------------------------------------------
    # shippability

    def _shippable(self, task: Callable) -> bool:
        """Whether ``task`` can be sent to a worker process.

        The pickling probe is not free for large closures, so the verdict
        is cached per task object (weakly — the scheduler must not keep
        user functions alive).  Stable module-level functions such as the
        inference kernel's entry point hit the cache on every job.
        """
        try:
            return self._shippable_cache[task]
        except (KeyError, TypeError):
            pass
        try:
            pickle.dumps(task)
            verdict = True
        except Exception:
            verdict = False
        try:
            self._shippable_cache[task] = verdict
        except TypeError:
            pass  # unhashable or not weak-referenceable: just re-probe
        return verdict

    @staticmethod
    def _first_item_shippable(items: Sequence) -> bool:
        """Probe whether partition *data* can cross a process boundary.

        A picklable task over unpicklable items would die mid-dispatch
        with an opaque pool error; probing one representative item up
        front lets the scheduler fall back to threads with a clear
        warning instead.
        """
        if not items:
            return True
        try:
            pickle.dumps(items[0])
            return True
        except Exception:
            return False

    # ------------------------------------------------------------------
    # execution

    def run(
        self,
        task: Callable[[T], R],
        items: Sequence[T],
        on_result: Callable[[int, R], None] | None = None,
        stop_event: threading.Event | None = None,
    ) -> list[R]:
        """Apply ``task`` to every item (one task per partition), in parallel.

        Results come back in input order.  Exceptions raised by any task
        propagate to the caller after the retry policy is exhausted,
        mirroring a failed Spark job; transient failures, worker crashes
        and timeouts are recovered per :class:`RetryPolicy`.

        ``on_result(index, result)`` is invoked on the driver thread the
        first time each partition completes, *before* the job as a whole
        finishes — the seam the run journal hangs off: a summary is
        durable the moment its task succeeds, not when the job ends.  An
        exception from the callback fails the job (nothing swallows an
        ``ENOSPC`` from a journal append).

        ``stop_event`` requests a graceful drain: when it is set, queued
        attempts are cancelled, already-executing tasks are allowed to
        finish (and are delivered through ``on_result``), and the job
        raises :exc:`JobCancelled` instead of returning — the
        SIGINT/SIGTERM half of crash-safe runs.  A drain that leaves no
        partition unfinished returns the results as usual.

        Re-entrant calls (a task scheduling sub-tasks, as the shuffle
        does) run inline on the calling worker: handing them back to the
        pool could deadlock once every worker is waiting on a sub-task.
        The guard is an explicit per-thread depth flag — it recognises
        nested execution on any backend, not just threads with a
        particular name.  Inline execution cannot enforce
        ``task_timeout_s`` (there is no spare worker to abandon the task
        to), so non-nested sequential and single-item jobs run on the
        pool whenever a timeout is configured.
        """
        start = time.perf_counter()
        try:
            results = self._dispatch(task, items, on_result, stop_event)
        finally:
            self.stats.jobs += 1
            self.stats.job_time_s += time.perf_counter() - start
        self.stats.tasks_completed += len(results)
        return results

    def _dispatch(
        self,
        task: Callable[[T], R],
        items: Sequence[T],
        on_result: Callable[[int, R], None] | None = None,
        stop_event: threading.Event | None = None,
    ) -> list[R]:
        """Route a job to the inline, thread, or process execution path."""
        if self._depth() > 0:
            return self._run_inline(task, items, on_result, stop_event)
        if self.parallelism == 1 or len(items) <= 1:
            if self.retry_policy.task_timeout_s is None:
                return self._run_inline(task, items, on_result, stop_event)
            # Timeout enforcement needs a pool worker the driver can
            # abandon; the thread pool is enough for a sequential job.
            return self._run_with_recovery(
                task, items, use_process=False,
                on_result=on_result, stop_event=stop_event,
            )
        use_process = self.backend == "process" and self._shippable(task)
        if use_process and not self._first_item_shippable(items):
            warnings.warn(
                "partition items are not picklable; running the job on the "
                "thread pool instead of the process backend",
                RuntimeWarning,
                stacklevel=2,
            )
            use_process = False
        return self._run_with_recovery(
            task, items, use_process,
            on_result=on_result, stop_event=stop_event,
        )

    def _depth(self) -> int:
        return getattr(self._local, "depth", 0)

    def _enter_task(self, call: Callable[[], R]) -> R:
        """Execute one dispatch with the re-entrancy depth flag raised."""
        self._local.depth = self._depth() + 1
        try:
            return call()
        finally:
            self._local.depth -= 1

    def _run_inline(
        self,
        task: Callable[[T], R],
        items: Sequence[T],
        on_result: Callable[[int, R], None] | None = None,
        stop_event: threading.Event | None = None,
    ) -> list[R]:
        """Sequential execution with the same retry classification.

        Used for re-entrant calls always, and for ``parallelism=1`` /
        single-item jobs when no task timeout is configured (timeouts
        need a pool worker to abandon, so :meth:`run` routes those to
        the thread pool instead).  ``task_timeout_s`` is *not* enforced
        here.  Worker kills are injected as transient failures (there is
        no separate process to kill).  A ``stop_event`` is honoured
        between items: the current item always runs to completion (and
        reaches ``on_result``) before the drain raises.
        """
        results = []
        for index, item in enumerate(items):
            if stop_event is not None and stop_event.is_set():
                raise JobCancelled(len(results), len(items))
            attempt = 0
            deterministic_retry_used = False
            while True:
                call = _Dispatch(task, item, index, attempt,
                                 self.fault_plan, allow_kill=False)
                try:
                    result = self._enter_task(call)
                    if on_result is not None:
                        on_result(index, result)
                    results.append(result)
                    break
                except Exception as exc:
                    attempt, deterministic_retry_used = self._next_attempt(
                        exc, index, attempt, deterministic_retry_used
                    )
                    time.sleep(self.retry_policy.backoff_s(index, attempt))
        return results

    def _next_attempt(
        self,
        exc: BaseException,
        partition: int,
        attempt: int,
        deterministic_retry_used: bool,
    ) -> tuple[int, bool]:
        """Decide the fate of a failed attempt: retry (returning the next
        attempt number) or re-raise ``exc``."""
        if isinstance(exc, FaultInjected):
            self.stats.faults_injected += 1
        if self.retry_policy.is_retryable(exc):
            if attempt < self.retry_policy.max_retries:
                self.stats.retries += 1
                return attempt + 1, deterministic_retry_used
            raise exc
        if isinstance(exc, (JsonError, InvalidValueError)):
            raise exc
        # Deterministic user error: one retry proves determinism, then
        # fail fast — no point burning the full transient budget.
        if not deterministic_retry_used and self.retry_policy.max_retries > 0:
            self.stats.retries += 1
            return attempt + 1, True
        raise exc

    def _run_with_recovery(
        self,
        task: Callable[[T], R],
        items: Sequence[T],
        use_process: bool,
        on_result: Callable[[int, R], None] | None = None,
        stop_event: threading.Event | None = None,
    ) -> list[R]:
        """The retrying dispatch loop shared by both pool backends.

        Proceeds in rounds: submit every pending ``(partition, attempt)``,
        harvest results, classify failures, back off, repeat.  A broken
        process pool fails the whole round; the pool is rebuilt and the
        unfinished partitions are re-dispatched.

        A set ``stop_event`` drains rather than aborts: the harvest
        cancels attempts that have not started, waits for the executing
        ones, and their results still flow through ``on_result`` before
        :exc:`JobCancelled` is raised — nothing a worker finished is
        ever thrown away.  When those were the last partitions, the job
        returns instead.
        """
        policy = self.retry_policy
        results: dict[int, R] = {}
        pending: list[tuple[int, int]] = [(i, 0) for i in range(len(items))]
        deterministic_retry_used: set[int] = set()
        # The rebuild budget is per job: a long-lived scheduler must not
        # carry one job's crash history into the next (stats.pool_rebuilds
        # keeps the lifetime total for observability).
        rebuilds_this_job = 0

        while pending:
            if stop_event is not None and stop_event.is_set():
                raise JobCancelled(len(results), len(items))
            futures = self._submit_round(task, items, pending, use_process)
            outcomes = self._harvest_round(
                futures, policy.task_timeout_s, use_process, stop_event,
                on_result,
            )
            next_pending: list[tuple[int, int]] = []
            max_backoff = 0.0
            pool_broken = False
            fatal: BaseException | None = None

            for (index, attempt), future in futures.items():
                exc = outcomes[(index, attempt)]
                if exc is None:
                    # on_result already fired inside the harvest, at the
                    # moment the future resolved.
                    results[index] = future.result()
                    continue
                if isinstance(exc, _StopCancelled):
                    # Cancelled by the drain before it started: neither a
                    # success nor a failure — the partition stays for the
                    # resumed run.
                    continue
                if isinstance(exc, BrokenProcessPool):
                    pool_broken = True
                if isinstance(exc, TaskTimeoutError):
                    self.stats.timeouts += 1
                try:
                    next_attempt, det_used = self._next_attempt(
                        exc, index, attempt,
                        index in deterministic_retry_used,
                    )
                except BaseException as final_exc:
                    if fatal is None:
                        fatal = final_exc
                    continue
                if det_used:
                    deterministic_retry_used.add(index)
                next_pending.append((index, next_attempt))
                max_backoff = max(
                    max_backoff, policy.backoff_s(index, next_attempt)
                )

            if fatal is not None:
                for future in futures.values():
                    future.cancel()
                raise fatal
            if (stop_event is not None and stop_event.is_set()
                    and len(results) < len(items)):
                raise JobCancelled(len(results), len(items))
            if pool_broken and use_process:
                self._rebuild_process_pool()
                rebuilds_this_job += 1
                if rebuilds_this_job > policy.max_pool_rebuilds:
                    # Last resort: the process backend keeps dying; finish
                    # the job on threads.
                    warnings.warn(
                        "process pool crashed more than "
                        f"{policy.max_pool_rebuilds} times; falling back to "
                        "the thread backend for the remaining partitions",
                        RuntimeWarning,
                        stacklevel=3,
                    )
                    self.stats.thread_fallbacks += 1
                    use_process = False
            pending = next_pending
            if pending and max_backoff > 0:
                time.sleep(max_backoff)

        return [results[i] for i in range(len(items))]

    def _submit_round(
        self,
        task: Callable[[T], R],
        items: Sequence[T],
        pending: Sequence[tuple[int, int]],
        use_process: bool,
    ) -> dict[tuple[int, int], Future]:
        """Submit one attempt per pending partition to the active pool."""
        futures: dict[tuple[int, int], Future] = {}
        if use_process:
            pool: ProcessPoolExecutor | ThreadPoolExecutor = (
                self._ensure_process_pool()
            )
        else:
            pool = self._ensure_live_thread_pool()
        for index, attempt in pending:
            call = _Dispatch(task, items[index], index, attempt,
                             self.fault_plan, allow_kill=use_process)
            try:
                if use_process:
                    futures[(index, attempt)] = pool.submit(call)
                else:
                    futures[(index, attempt)] = pool.submit(
                        self._enter_task, call
                    )
            except BrokenProcessPool as exc:
                # A worker died while this round was still being submitted;
                # surface it as a pre-failed future so the harvest loop
                # rebuilds the pool and re-dispatches as usual.
                failed: Future = Future()
                failed.set_exception(exc)
                futures[(index, attempt)] = failed
        return futures

    def _harvest_round(
        self,
        futures: dict[tuple[int, int], Future],
        timeout: float | None,
        use_process: bool,
        stop_event: threading.Event | None = None,
        on_result: Callable[[int, R], None] | None = None,
    ) -> dict[tuple[int, int], BaseException | None]:
        """Collect every future of one round; per key, its exception or None.

        With a ``timeout``, each task is timed *individually from the
        moment the pool starts executing it* (observed via
        :meth:`Future.running`), so time a task spends queued behind
        other partitions never counts against its budget.  A task that
        exceeds the budget is cancelled and reported as
        :exc:`TaskTimeoutError`; one that is already running cannot be
        interrupted and is abandoned — it may finish in the background
        (harmless: tasks are pure) but keeps occupying its worker until
        it does, see the module notes on hung tasks.

        ``on_result`` is called here, the moment a future resolves
        successfully — not after the round completes — so a journal
        append hanging off it makes each summary durable while sibling
        tasks are still running.  A callback exception cancels the rest
        of the round and propagates.

        When ``stop_event`` fires mid-harvest, futures that have not
        started are cancelled (marked :exc:`_StopCancelled`) and the
        already-executing remainder is drained normally, so completed
        work still reaches the caller.
        """
        outcomes: dict[tuple[int, int], BaseException | None] = {}
        remaining = dict(futures)
        started: dict[tuple[int, int], float] = {}
        stop_seen = False
        # Poll granularity: fine enough that timeout detection lags the
        # budget by at most ~10% (and a stop request by ~50ms), without
        # busy-waiting.
        poll_s = (
            0.05 if timeout is None
            else max(0.001, min(0.05, timeout / 10.0))
        )
        while remaining:
            if timeout is None and (stop_event is None or stop_seen):
                # Nothing to poll for: block until the next resolution
                # (any resolution, so on_result fires promptly).
                wait(
                    remaining.values(),
                    return_when=(
                        "FIRST_COMPLETED" if on_result is not None
                        else "ALL_COMPLETED"
                    ),
                )
            else:
                wait(remaining.values(), timeout=poll_s)
            if (not stop_seen and stop_event is not None
                    and stop_event.is_set()):
                stop_seen = True
                for key in list(remaining):
                    if remaining[key].cancel():
                        outcomes[key] = _StopCancelled()
                        del remaining[key]
            now = time.monotonic()
            for key in list(remaining):
                future = remaining[key]
                if future.done():
                    exc = self._exception_of(future)
                    if exc is None and on_result is not None:
                        try:
                            on_result(key[0], future.result())
                        except BaseException:
                            for other in remaining.values():
                                other.cancel()
                            raise
                    outcomes[key] = exc
                    del remaining[key]
                elif timeout is None:
                    continue
                elif key not in started:
                    if future.running():
                        started[key] = now
                elif now - started[key] >= timeout:
                    if not future.cancel() and not use_process:
                        # Still running on a thread worker: abandoned,
                        # and holding that worker until it finishes.
                        self._thread_zombies.append(future)
                    index, attempt = key
                    outcomes[key] = TaskTimeoutError(index, attempt, timeout)
                    del remaining[key]
        return outcomes

    @staticmethod
    def _exception_of(future: Future) -> BaseException | None:
        """Block until ``future`` resolves; its exception, or None."""
        try:
            future.result()
            return None
        except BaseException as exc:
            return exc

    def shutdown(self) -> None:
        """Release the worker pools.  The scheduler can be reused afterwards.

        Does not block on abandoned (timed-out) thread tasks — their
        threads exit on their own when the tasks finish.  Queued
        process-pool work is cancelled (``cancel_futures=True``): a
        ``Context.__exit__`` racing an in-flight job must not block on
        tasks that have not even started, only on the ones already
        executing.
        """
        if self._pool is not None:
            self._thread_zombies = [
                f for f in self._thread_zombies if not f.done()
            ]
            self._pool.shutdown(wait=not self._thread_zombies)
            self._pool = None
            self._thread_zombies = []
        if self._process_pool is not None:
            self._process_pool.shutdown(wait=True, cancel_futures=True)
            self._process_pool = None

    def __enter__(self) -> "Scheduler":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()
