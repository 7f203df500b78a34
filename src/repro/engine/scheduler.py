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
layer's quarantine).  One loop runs every job, the way a cluster places
tasks on free executor slots: at most ``parallelism`` attempts are in
flight (one when they run in-line), a worker is handed the next attempt
only when it is free, and a failed attempt rejoins the queue once its
own backoff has passed while the other partitions keep running.

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
  whole pool; the scheduler rebuilds the pool and re-runs the attempts
  that were in flight.  After :attr:`RetryPolicy.max_pool_rebuilds`
  rebuilds it stops trusting the process backend and falls back to the
  thread pool for the remainder of the job — last resort, but the job
  finishes.
* **Per-task timeouts.**  With :attr:`RetryPolicy.task_timeout_s` set, an
  attempt that exceeds its budget is abandoned and retried.  Its clock
  starts when a worker takes it, on threads and processes alike — an
  attempt waits for a free worker before it is submitted, so time queued
  behind other partitions never counts against the budget.  An
  abandoned attempt cannot be interrupted and may still run to
  completion in the background — tasks must therefore be pure, which
  every engine workload is.  An abandoned attempt also keeps occupying
  its worker until it finishes; when genuinely hung tasks wedge *every*
  thread-pool worker this way, the scheduler walks away from that pool
  and starts a fresh one so queued retries keep moving (a hung
  *process* worker, by contrast, holds its slot until the pool crashes
  or is shut down — pair ``task_timeout_s`` with a small
  ``max_retries`` for hang-prone process-backend workloads).  Nested
  (re-entrant) jobs run inline on the calling worker and therefore
  cannot enforce a timeout at all.
* **Graceful drain.**  A set ``stop_event`` stops the loop from handing
  out attempts: the ones in flight finish and reach ``on_result``, and
  nothing else starts.
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
import heapq
import os
import pickle
import random
import threading
import time
import warnings
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, fields
from typing import Callable, Sequence, TypeVar

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
                stacklevel=5,
            )
            self._pool.shutdown(wait=False)
            self._pool = None
            self._thread_zombies = []
            self.stats.thread_pool_replacements += 1
        return self._ensure_pool()

    def _rebuild_process_pool(self) -> None:
        """Discard a broken process pool; the next attempt starts a fresh one.

        Workers keep no state between tasks, so the attempts that were in
        flight simply run again on the fresh pool under the same
        :class:`RetryPolicy`.
        """
        if self._process_pool is not None:
            self._process_pool.shutdown(wait=False, cancel_futures=True)
            self._process_pool = None
        self.stats.pool_rebuilds += 1

    @staticmethod
    def _picklable(obj: object) -> bool:
        """Whether ``obj`` can be sent to a worker process."""
        try:
            pickle.dumps(obj)
        except Exception:
            return False
        return True

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
        ``ENOSPC`` from a journal append).  Under retries the indexes can
        arrive out of order, in-line too: a retry waits out its backoff
        while later items run.

        ``stop_event`` requests a graceful drain: once it is set no
        further attempt starts, the attempts in flight finish (and are
        delivered through ``on_result``), and the job raises
        :exc:`JobCancelled` instead of returning — the SIGINT/SIGTERM
        half of crash-safe runs.  A drain that leaves no partition
        unfinished returns the results as usual.

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
            results = self._loop(task, items, self._dispatch(task, items),
                                 on_result, stop_event)
        finally:
            self.stats.jobs += 1
            self.stats.job_time_s += time.perf_counter() - start
        self.stats.tasks_completed += len(results)
        return results

    def _dispatch(self, task: Callable[[T], R], items: Sequence[T]) -> str:
        """Where the job's attempts run: ``"inline"``, ``"thread"`` or
        ``"process"``."""
        sequential = self.parallelism == 1 or len(items) <= 1
        if self._depth() > 0 or (
            sequential and self.retry_policy.task_timeout_s is None
        ):
            return "inline"
        # A sequential job gets here only with a timeout, which needs a
        # pool worker the driver can abandon; threads are enough.
        if (sequential or self.backend != "process"
                or not self._picklable(task)):
            return "thread"
        if not self._picklable(items[0]):
            # Probed up front: a picklable task over unpicklable items
            # would die mid-dispatch with an opaque pool error.
            warnings.warn(
                "partition items are not picklable; running the job on the "
                "thread pool instead of the process backend",
                RuntimeWarning,
                stacklevel=3,
            )
            return "thread"
        return "process"

    def _depth(self) -> int:
        return getattr(self._local, "depth", 0)

    def _enter_task(self, call: Callable[[], R]) -> R:
        """Execute one dispatch with the re-entrancy depth flag raised."""
        self._local.depth = self._depth() + 1
        try:
            return call()
        finally:
            self._local.depth -= 1

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

    def _loop(
        self,
        task: Callable[[T], R],
        items: Sequence[T],
        where: str,
        on_result: Callable[[int, R], None] | None,
        stop_event: threading.Event | None,
    ) -> list[R]:
        """Run every item to completion with at most ``parallelism``
        attempts in flight (one in-line).

        An attempt's timeout clock starts when a worker is seen executing
        it.  A failed attempt rejoins the queue once its backoff has
        passed; an error the policy does not retry cancels the attempts
        not yet started and propagates.  The first failure seen from a
        broken process pool rebuilds it — the pool's other attempts in
        flight fail the same way and are retried without another rebuild
        — and past the job's rebuild budget the rest of the job runs on
        threads.
        """
        policy = self.retry_policy
        timeout = policy.task_timeout_s
        slots = 1 if where == "inline" else self.parallelism
        # Poll often enough that a timeout fires within ~10% of its
        # budget and a stop request within 50 ms; otherwise block.
        poll = None
        if timeout is not None:
            poll = max(0.001, min(0.05, timeout / 10.0))
        elif stop_event is not None:
            poll = 0.05
        ready = deque((index, 0) for index in range(len(items)))
        backoff: list[tuple[float, int, int]] = []  # (due, index, attempt)
        running: dict[Future, tuple[int, int, object]] = {}
        started: dict[Future, float] = {}
        results: dict[int, R] = {}
        deterministic_retry_used: set[int] = set()
        # The rebuild budget is per job: a long-lived scheduler must not
        # carry one job's crash history into the next (stats.pool_rebuilds
        # keeps the lifetime total for observability).
        rebuilds_this_job = 0
        try:
            while len(results) < len(items):
                while backoff and backoff[0][0] <= time.monotonic():
                    ready.append(heapq.heappop(backoff)[1:])
                if stop_event is not None and stop_event.is_set():
                    if not running:
                        raise JobCancelled(len(results), len(items))
                else:
                    while ready and len(running) < slots:
                        index, attempt = ready.popleft()
                        future, pool = self._submit(
                            task, items[index], index, attempt, where
                        )
                        running[future] = (index, attempt, pool)
                delay = poll
                if backoff:
                    due = max(0.0, backoff[0][0] - time.monotonic())
                    delay = due if delay is None else min(delay, due)
                if running:
                    wait(running, timeout=delay, return_when=FIRST_COMPLETED)
                elif delay:
                    time.sleep(delay)
                now = time.monotonic()
                for future, (index, attempt, pool) in list(running.items()):
                    if future.done():
                        exc = future.exception()
                    elif (timeout is not None and future.running()
                          and now - started.setdefault(future, now)
                          >= timeout):
                        exc = TaskTimeoutError(index, attempt, timeout)
                        self.stats.timeouts += 1
                        if isinstance(pool, ThreadPoolExecutor):
                            # Abandoned, still holding its worker.
                            self._thread_zombies.append(future)
                    else:
                        continue
                    del running[future]
                    if exc is None:
                        result = future.result()
                        if on_result is not None:
                            on_result(index, result)
                        results[index] = result
                        continue
                    if (isinstance(exc, BrokenProcessPool)
                            and pool is not None
                            and pool is self._process_pool):
                        self._rebuild_process_pool()
                        rebuilds_this_job += 1
                        if rebuilds_this_job > policy.max_pool_rebuilds:
                            # Last resort: the process backend keeps
                            # dying; finish the job on threads.
                            warnings.warn(
                                "process pool crashed more than "
                                f"{policy.max_pool_rebuilds} times; falling "
                                "back to the thread backend for the "
                                "remaining partitions",
                                RuntimeWarning,
                                stacklevel=3,
                            )
                            self.stats.thread_fallbacks += 1
                            where = "thread"
                    attempt, det_used = self._next_attempt(
                        exc, index, attempt,
                        index in deterministic_retry_used,
                    )
                    if det_used:
                        deterministic_retry_used.add(index)
                    heapq.heappush(backoff, (
                        time.monotonic() + policy.backoff_s(index, attempt),
                        index, attempt,
                    ))
        except BaseException:
            for future in running:
                future.cancel()
            raise
        return [results[i] for i in range(len(items))]

    def _submit(
        self,
        task: Callable[[T], R],
        item: T,
        index: int,
        attempt: int,
        where: str,
    ) -> tuple[Future, ThreadPoolExecutor | ProcessPoolExecutor | None]:
        """Start one attempt: its future, and the pool it went to (``None``
        in-line, where it has already run)."""
        call = _Dispatch(task, item, index, attempt, self.fault_plan,
                         allow_kill=where == "process")
        if where == "thread":
            pool = self._ensure_live_thread_pool()
            return pool.submit(self._enter_task, call), pool
        future: Future = Future()
        if where == "process":
            pool = self._ensure_process_pool()
            try:
                return pool.submit(call), pool
            except BrokenProcessPool as exc:
                # A worker died since the last submit: fail this attempt
                # like the ones in flight, so the pool is rebuilt.
                future.set_exception(exc)
                return future, pool
        try:
            future.set_result(self._enter_task(call))
        except Exception as exc:
            future.set_exception(exc)
        return future, None

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
