"""Unit tests for the task scheduler (repro.engine.scheduler)."""

import os
import random
import threading
import time

import pytest

from repro.engine.faults import FaultPlan
from repro.engine.scheduler import BACKENDS, RetryPolicy, Scheduler


def _square(x):
    """Module-level so the process backend can pickle it."""
    return x * x


def _worker_pid(_):
    return os.getpid()


def _reciprocal(x):
    return 1 // x


class TestBasics:
    def test_results_in_input_order(self):
        with Scheduler(parallelism=4) as sched:
            assert sched.run(lambda x: x * 2, list(range(20))) == [
                x * 2 for x in range(20)
            ]

    def test_empty_items(self):
        with Scheduler(parallelism=2) as sched:
            assert sched.run(lambda x: x, []) == []

    def test_single_item_runs_inline(self):
        with Scheduler(parallelism=4) as sched:
            thread_names = sched.run(
                lambda _: threading.current_thread().name, [0]
            )
        assert not thread_names[0].startswith("repro-engine")

    def test_parallelism_one_runs_inline(self):
        with Scheduler(parallelism=1) as sched:
            names = sched.run(
                lambda _: threading.current_thread().name, [0, 1, 2]
            )
        assert all(not n.startswith("repro-engine") for n in names)

    def test_invalid_parallelism(self):
        with pytest.raises(ValueError):
            Scheduler(parallelism=0)

    def test_default_parallelism_positive(self):
        assert Scheduler().parallelism >= 2


class TestParallelExecution:
    def test_tasks_actually_overlap(self):
        """Two tasks sleeping 50ms should finish well under 100ms total."""
        with Scheduler(parallelism=2) as sched:
            start = time.perf_counter()
            sched.run(lambda _: time.sleep(0.05), [0, 1])
            elapsed = time.perf_counter() - start
        assert elapsed < 0.095

    def test_worker_threads_used(self):
        with Scheduler(parallelism=4) as sched:
            names = sched.run(
                lambda _: threading.current_thread().name, list(range(8))
            )
        assert any(n.startswith("repro-engine") for n in names)


class TestProcessBackend:
    def test_backends_constant(self):
        assert BACKENDS == ("thread", "process")

    def test_invalid_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            Scheduler(parallelism=2, backend="greenlet")

    def test_default_backend_is_thread(self):
        assert Scheduler(parallelism=2).backend == "thread"

    def test_results_in_input_order(self):
        with Scheduler(parallelism=2, backend="process") as sched:
            assert sched.run(_square, list(range(10))) == [
                x * x for x in range(10)
            ]

    def test_runs_in_worker_processes(self):
        with Scheduler(parallelism=2, backend="process") as sched:
            pids = sched.run(_worker_pid, list(range(4)))
        assert all(pid != os.getpid() for pid in pids)

    def test_unpicklable_task_falls_back_to_threads(self):
        """Closures (the RDD lineage) cannot ship to a process; the
        scheduler must run them on the thread pool instead of failing."""
        offset = 7
        with Scheduler(parallelism=2, backend="process") as sched:
            got = sched.run(lambda x: x + offset, [1, 2, 3, 4])
            pids = sched.run(lambda _: os.getpid(), [0, 1, 2, 3])
        assert got == [8, 9, 10, 11]
        assert all(pid == os.getpid() for pid in pids)

    def test_single_item_runs_inline(self):
        with Scheduler(parallelism=4, backend="process") as sched:
            assert sched.run(_worker_pid, [0]) == [os.getpid()]

    def test_exceptions_propagate(self):
        with Scheduler(parallelism=2, backend="process") as sched:
            with pytest.raises(ZeroDivisionError):
                sched.run(_reciprocal, [1, 0, 3])

    def test_reusable_after_shutdown(self):
        sched = Scheduler(parallelism=2, backend="process")
        assert sched.run(_square, [1, 2]) == [1, 4]
        sched.shutdown()
        assert sched.run(_square, [3, 4]) == [9, 16]
        sched.shutdown()


class TestReentrancy:
    def test_nested_run_does_not_deadlock(self):
        """A task scheduling sub-tasks (as the shuffle does) must not
        deadlock even when the pool is saturated."""
        with Scheduler(parallelism=2) as sched:
            def outer(i):
                return sum(sched.run(lambda x: x + i, [1, 2, 3]))

            got = sched.run(outer, list(range(8)))
        assert got == [6 + 3 * i for i in range(8)]


class TestErrorsAndShutdown:
    def test_exceptions_propagate(self):
        with Scheduler(parallelism=3) as sched:
            with pytest.raises(RuntimeError, match="boom"):
                sched.run(lambda _: (_ for _ in ()).throw(RuntimeError("boom")),
                          [0, 1, 2, 3])

    def test_reusable_after_shutdown(self):
        sched = Scheduler(parallelism=2)
        assert sched.run(lambda x: x, [1, 2]) == [1, 2]
        sched.shutdown()
        assert sched.run(lambda x: x, [3, 4]) == [3, 4]
        sched.shutdown()


class _Unpicklable:
    """An item that refuses to cross a process boundary."""

    def __reduce__(self):
        raise TypeError("not picklable, by design")


def _type_name(x):
    """Module-level (hence picklable) task for the item-probe test."""
    return type(x).__name__


class TestShippabilityProbes:
    def test_unpicklable_items_fall_back_with_warning(self):
        """A picklable task over unpicklable items must not die mid-dispatch
        with an opaque pool error: the scheduler probes one item up front
        and runs on threads instead."""
        items = [_Unpicklable() for _ in range(4)]
        with Scheduler(parallelism=2, backend="process") as sched:
            with pytest.warns(RuntimeWarning, match="not picklable"):
                got = sched.run(_type_name, items)
        assert got == ["_Unpicklable"] * 4


class TestExplicitReentrancyGuard:
    def test_nested_run_inline_on_process_backend(self):
        """The guard is a context-local depth flag, not a thread-name
        heuristic: nesting is detected whatever backend dispatched the
        outer task (here the closure falls back to the thread pool of a
        process-backed scheduler, whose workers the old name check would
        still catch — but the depth flag is what actually fires)."""
        with Scheduler(parallelism=2, backend="process") as sched:
            def outer(i):
                assert sched._depth() == 1
                return sum(sched.run(lambda x: x + i, [1, 2, 3]))

            got = sched.run(outer, list(range(6)))
        assert got == [6 + 3 * i for i in range(6)]

    def test_depth_resets_after_run(self):
        with Scheduler(parallelism=2) as sched:
            sched.run(lambda x: x, [1, 2, 3])
            assert sched._depth() == 0


class TestThroughputStats:
    def test_jobs_and_tasks_counted(self):
        with Scheduler(parallelism=2) as sched:
            sched.run(lambda x: x, [1, 2, 3])
            sched.run(lambda x: x * 2, [1, 2])
            assert sched.stats.jobs == 2
            assert sched.stats.tasks_completed == 5
            assert sched.stats.job_time_s > 0.0

    def test_nested_jobs_counted_too(self):
        with Scheduler(parallelism=2) as sched:
            def outer(i):
                return sum(sched.run(lambda x: x + i, [1, 2]))

            sched.run(outer, [0, 1, 2])
            # One outer job plus one nested job per outer task.
            assert sched.stats.jobs == 4
            assert sched.stats.tasks_completed == 3 + 3 * 2

    def test_failed_job_still_counts_as_a_job(self):
        with Scheduler(parallelism=2) as sched:
            with pytest.raises(ZeroDivisionError):
                sched.run(_reciprocal, [1, 0])
            assert sched.stats.jobs == 1
            assert sched.stats.tasks_completed == 0

    def test_reset_zeroes_throughput_counters(self):
        with Scheduler(parallelism=2) as sched:
            sched.run(lambda x: x, [1, 2])
            sched.stats.reset()
            assert sched.stats.jobs == 0
            assert sched.stats.tasks_completed == 0
            assert sched.stats.job_time_s == 0.0


def _generated_case(backend, seed):
    """Items, parallelism and a fail-only plan drawn from ``seed``; a
    process case is shaped so that the job reaches the pool."""
    rng = random.Random(f"scheduler-case:{backend}:{seed}")
    if backend == "process":
        items, parallelism = rng.randint(2, 12), rng.randint(2, 4)
    else:
        items, parallelism = rng.randint(0, 12), rng.randint(1, 4)
    plan = FaultPlan.random_plan(seed, items, rate=0.4,
                                 max_attempt=rng.randint(0, 2))
    return list(range(items)), parallelism, plan


def _faults_that_fire(plan, items):
    """Each partition fails at attempts 0, 1, ... up to its first
    unplanned attempt, where it succeeds."""
    fired = 0
    for partition in items:
        attempt = 0
        while plan.lookup(partition, attempt) is not None:
            attempt += 1
        fired += attempt
    return fired


class TestGeneratedFaultPlans:
    """Seeded fail-only plans over 0–12 items at parallelism 1–4 (threads,
    and in-line where the job is sequential), plus a few on processes.
    With a retry budget above the plan's highest attempt, every job is a
    plain map: each index reaches ``on_result`` once, every retry is an
    injected fault, and no pool breaks."""

    @pytest.mark.parametrize(
        "backend, seed",
        [("thread", seed) for seed in range(36)]
        + [("process", seed) for seed in range(4)],
    )
    def test_recovers_to_a_plain_map(self, backend, seed):
        items, parallelism, plan = _generated_case(backend, seed)
        policy = RetryPolicy(max_retries=plan.max_planned_attempt() + 1,
                             base_delay_s=0.001, max_delay_s=0.01)
        seen = []
        with Scheduler(parallelism, backend=backend, retry_policy=policy,
                       fault_plan=plan) as sched:
            got = sched.run(_square, items,
                            on_result=lambda i, r: seen.append(i))
            stats = sched.stats
        assert got == [x * x for x in items]
        assert sorted(seen) == list(range(len(items)))
        assert stats.retries == stats.faults_injected
        assert stats.faults_injected == _faults_that_fire(plan, items)
        assert stats.pool_rebuilds == 0
