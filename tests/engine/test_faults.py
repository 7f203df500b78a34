"""Fault-injection and recovery tests (repro.engine.faults + scheduler).

The CI fault-injection job runs this file with a nonzero
``REPRO_FAULT_SEED``, which reseeds the randomised plans below so the
recovery machinery is exercised along fresh paths on every push — still
deterministically, since every plan is a pure function of its seed.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.engine.faults import (
    FAULT_KINDS,
    Fault,
    FaultInjected,
    FaultPlan,
    TransientError,
)
from repro.engine.scheduler import (
    RetryPolicy,
    Scheduler,
    TaskTimeoutError,
)

#: Nonzero in the CI fault-injection job; any value yields a valid plan.
SEED = int(os.environ.get("REPRO_FAULT_SEED", "7"))


def _double(x):
    """Module-level so the process backend can pickle it."""
    return x * 2


def _reciprocal(x):
    return 1 // x


def _sleep_300ms(x):
    time.sleep(0.3)
    return x


class TestFaultPlan:
    def test_lookup_and_bool(self):
        plan = FaultPlan((Fault(2, 0), Fault(3, 1, kind="delay")))
        assert plan
        assert plan.lookup(2, 0).kind == "fail"
        assert plan.lookup(3, 1).kind == "delay"
        assert plan.lookup(2, 1) is None
        assert not FaultPlan.none()

    def test_duplicate_coordinates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FaultPlan((Fault(0, 0), Fault(0, 0, kind="delay")))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            Fault(0, 0, kind="meteor")

    def test_random_plan_deterministic(self):
        a = FaultPlan.random_plan(SEED, 16, rate=0.5)
        b = FaultPlan.random_plan(SEED, 16, rate=0.5)
        assert a == b
        c = FaultPlan.random_plan(SEED + 1, 16, rate=0.5)
        assert a != c  # overwhelmingly likely for 16 partitions

    def test_max_planned_attempt(self):
        assert FaultPlan.none().max_planned_attempt() == -1
        plan = FaultPlan((Fault(0, 0), Fault(1, 2)))
        assert plan.max_planned_attempt() == 2

    def test_from_env(self):
        assert not FaultPlan.from_env(8, environ={})
        assert not FaultPlan.from_env(8, environ={"REPRO_FAULT_SEED": "0"})
        plan = FaultPlan.from_env(
            8, environ={"REPRO_FAULT_SEED": "5", "REPRO_FAULT_RATE": "1.0"}
        )
        assert len(plan.faults) == 8

    def test_apply_noop_without_fault(self):
        FaultPlan.none().apply(0, 0, allow_kill=False)

    def test_apply_raises_fault_injected(self):
        plan = FaultPlan.transient_failures([1])
        with pytest.raises(FaultInjected) as excinfo:
            plan.apply(1, 0, allow_kill=False)
        assert isinstance(excinfo.value, TransientError)

    def test_kill_degrades_to_fail_without_kill_permission(self):
        plan = FaultPlan((Fault(0, 0, kind="kill"),))
        with pytest.raises(FaultInjected):
            plan.apply(0, 0, allow_kill=False)

    def test_plan_is_picklable(self):
        import pickle

        plan = FaultPlan.random_plan(SEED, 8, rate=0.5, kinds=FAULT_KINDS)
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_fault_injected_pickles(self):
        # A process worker's fault crosses back to the driver pickled.
        import pickle

        fault = FaultInjected(3, 1, "seed 7")
        clone = pickle.loads(pickle.dumps(fault))
        assert type(clone) is FaultInjected
        assert (clone.partition, clone.attempt, clone.message) == (
            3, 1, "seed 7"
        )
        assert str(clone) == str(fault)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=2.0)
        with pytest.raises(ValueError):
            RetryPolicy(task_timeout_s=0)

    def test_backoff_is_deterministic_and_capped(self):
        policy = RetryPolicy(base_delay_s=0.1, max_delay_s=0.5, jitter=0.5)
        assert policy.backoff_s(3, 2) == policy.backoff_s(3, 2)
        for attempt in range(1, 12):
            assert policy.backoff_s(0, attempt) <= 0.5 * 1.5

    def test_classification(self):
        policy = RetryPolicy()
        assert policy.is_retryable(TransientError("flaky"))
        assert policy.is_retryable(FaultInjected(0, 0, "x"))
        assert policy.is_retryable(TaskTimeoutError(0, 0, 1.0))
        assert not policy.is_retryable(ValueError("deterministic"))


FAST_RETRY = RetryPolicy(max_retries=4, base_delay_s=0.001, max_delay_s=0.01)


class TestThreadBackendRecovery:
    def test_transient_faults_recovered(self):
        plan = FaultPlan.transient_failures([0, 2, 5])
        with Scheduler(parallelism=4, retry_policy=FAST_RETRY,
                       fault_plan=plan) as sched:
            got = sched.run(lambda x: x + 1, list(range(8)))
            assert got == list(range(1, 9))
            assert sched.stats.retries >= 3
            assert sched.stats.faults_injected == 3

    def test_randomised_plan_recovered(self):
        plan = FaultPlan.random_plan(SEED, 12, rate=0.5, max_attempt=1)
        policy = RetryPolicy(max_retries=plan.max_planned_attempt() + 1 or 1,
                             base_delay_s=0.001)
        with Scheduler(parallelism=4, retry_policy=policy,
                       fault_plan=plan) as sched:
            assert sched.run(_double, list(range(12))) == [
                x * 2 for x in range(12)
            ]

    def test_retry_budget_exhaustion_propagates(self):
        plan = FaultPlan(tuple(Fault(0, a) for a in range(5)))
        policy = RetryPolicy(max_retries=2, base_delay_s=0.001)
        with Scheduler(parallelism=2, retry_policy=policy,
                       fault_plan=plan) as sched:
            with pytest.raises(FaultInjected):
                sched.run(_double, list(range(4)))

    def test_deterministic_error_fails_after_one_retry(self):
        calls = []
        lock = threading.Lock()

        def bad(x):
            with lock:
                calls.append(x)
            raise ValueError("deterministic")

        with Scheduler(parallelism=2, retry_policy=FAST_RETRY) as sched:
            with pytest.raises(ValueError, match="deterministic"):
                sched.run(bad, [10, 20])
        # One retry proves determinism; the transient budget (4) is not
        # burned on an error that will never go away.
        assert max(calls.count(10), calls.count(20)) == 2

    def test_inline_execution_also_recovers(self):
        plan = FaultPlan.transient_failures([0, 1])
        with Scheduler(parallelism=1, retry_policy=FAST_RETRY,
                       fault_plan=plan) as sched:
            assert sched.run(lambda x: x, [7, 8, 9]) == [7, 8, 9]
            assert sched.stats.retries >= 2

    def test_timeout_retried(self):
        plan = FaultPlan((Fault(1, 0, kind="delay", delay_s=0.5),))
        policy = RetryPolicy(max_retries=3, base_delay_s=0.001,
                             task_timeout_s=0.1)
        with Scheduler(parallelism=4, retry_policy=policy,
                       fault_plan=plan) as sched:
            assert sched.run(lambda x: x, [0, 1, 2, 3]) == [0, 1, 2, 3]
            assert sched.stats.timeouts >= 1

    def test_timeout_exhaustion_raises(self):
        plan = FaultPlan(tuple(
            Fault(0, a, kind="delay", delay_s=0.4) for a in range(3)
        ))
        policy = RetryPolicy(max_retries=2, base_delay_s=0.001,
                             task_timeout_s=0.05)
        with Scheduler(parallelism=2, retry_policy=policy,
                       fault_plan=plan) as sched:
            with pytest.raises(TaskTimeoutError):
                sched.run(lambda x: x, [0, 1])


class TestProcessBackendRecovery:
    def test_worker_kill_rebuilds_pool(self):
        plan = FaultPlan((Fault(1, 0, kind="kill"),))
        with Scheduler(parallelism=2, backend="process",
                       retry_policy=FAST_RETRY, fault_plan=plan) as sched:
            assert sched.run(_double, list(range(6))) == [
                x * 2 for x in range(6)
            ]
            assert sched.stats.pool_rebuilds >= 1

    def test_transient_faults_on_process_backend(self):
        plan = FaultPlan.transient_failures([0, 3])
        with Scheduler(parallelism=2, backend="process",
                       retry_policy=FAST_RETRY, fault_plan=plan) as sched:
            assert sched.run(_double, list(range(5))) == [
                x * 2 for x in range(5)
            ]

    def test_repeated_kills_fall_back_to_threads(self):
        plan = FaultPlan(tuple(
            Fault(0, a, kind="kill") for a in range(4)
        ))
        policy = RetryPolicy(max_retries=6, base_delay_s=0.001,
                             max_pool_rebuilds=1)
        with Scheduler(parallelism=2, backend="process",
                       retry_policy=policy, fault_plan=plan) as sched:
            with pytest.warns(RuntimeWarning, match="falling back"):
                got = sched.run(_double, list(range(4)))
        assert got == [x * 2 for x in range(4)]
        assert sched.stats.thread_fallbacks == 1

    def test_deterministic_error_still_fails_fast(self):
        with Scheduler(parallelism=2, backend="process",
                       retry_policy=FAST_RETRY) as sched:
            with pytest.raises(ZeroDivisionError):
                sched.run(_reciprocal, [2, 1, 0, 4])


class TestPerTaskTimeoutClock:
    """Timeouts are measured from task start, not from round submission."""

    def test_queue_time_does_not_count_against_budget(self):
        # 8 tasks of ~0.15s on 2 workers: with a shared round deadline of
        # 0.4s the backlog would spuriously time out; with per-task clocks
        # every task finishes well under budget.
        def slow(x):
            time.sleep(0.15)
            return x

        policy = RetryPolicy(max_retries=1, base_delay_s=0.001,
                             task_timeout_s=0.4)
        with Scheduler(parallelism=2, retry_policy=policy) as sched:
            assert sched.run(slow, list(range(8))) == list(range(8))
            assert sched.stats.timeouts == 0
            assert sched.stats.retries == 0

    def test_queue_time_does_not_count_on_processes(self):
        # 3 tasks of 0.3s on 2 warm workers: the third starts when a
        # worker frees at 0.3s, and only then does its 0.5s clock start.
        policy = RetryPolicy(max_retries=1, base_delay_s=0.001,
                             task_timeout_s=0.5)
        with Scheduler(parallelism=2, backend="process",
                       retry_policy=policy) as sched:
            assert sched.run(_double, [1, 2]) == [2, 4]
            assert sched.run(_sleep_300ms, [0, 1, 2]) == [0, 1, 2]
            assert sched.stats.timeouts == 0
            assert sched.stats.retries == 0

    def test_single_item_job_enforces_timeout(self):
        # Single-item jobs used to run inline with no timeout enforcement.
        plan = FaultPlan((Fault(0, 0, kind="delay", delay_s=0.5),))
        policy = RetryPolicy(max_retries=2, base_delay_s=0.001,
                             task_timeout_s=0.05)
        with Scheduler(parallelism=4, retry_policy=policy,
                       fault_plan=plan) as sched:
            start = time.monotonic()
            assert sched.run(_double, [21]) == [42]
            assert time.monotonic() - start < 0.5
            assert sched.stats.timeouts >= 1

    def test_parallelism_one_enforces_timeout(self):
        plan = FaultPlan(tuple(
            Fault(0, a, kind="delay", delay_s=0.5) for a in range(3)
        ))
        policy = RetryPolicy(max_retries=2, base_delay_s=0.001,
                             task_timeout_s=0.05)
        with Scheduler(parallelism=1, retry_policy=policy,
                       fault_plan=plan) as sched:
            with pytest.raises(TaskTimeoutError):
                sched.run(_double, [1, 2])

    def test_hung_tasks_do_not_wedge_thread_pool(self):
        # Partition 0 hangs on its first two attempts; the abandoned
        # attempts occupy both workers, so the scheduler must replace the
        # wedged pool for the third attempt to ever start.
        plan = FaultPlan(tuple(
            Fault(0, a, kind="delay", delay_s=0.6) for a in range(2)
        ))
        policy = RetryPolicy(max_retries=3, base_delay_s=0.001,
                             task_timeout_s=0.05)
        with Scheduler(parallelism=2, retry_policy=policy,
                       fault_plan=plan) as sched:
            with pytest.warns(RuntimeWarning, match="replacing the pool"):
                assert sched.run(_double, list(range(6))) == [
                    x * 2 for x in range(6)
                ]
            assert sched.stats.thread_pool_replacements >= 1
            assert sched.stats.timeouts >= 2


class TestPoolRebuildBudgetPerJob:
    def test_crash_history_not_carried_across_jobs(self):
        # Each job triggers exactly one pool rebuild.  The budget is
        # per job, so the second job must *not* fall back to threads even
        # though the scheduler's lifetime rebuild count exceeds it.
        plan = FaultPlan((Fault(0, 0, kind="kill"),))
        policy = RetryPolicy(max_retries=4, base_delay_s=0.001,
                             max_pool_rebuilds=1)
        with Scheduler(parallelism=2, backend="process",
                       retry_policy=policy, fault_plan=plan) as sched:
            for _ in range(2):
                assert sched.run(_double, list(range(4))) == [
                    x * 2 for x in range(4)
                ]
            assert sched.stats.pool_rebuilds == 2
            assert sched.stats.thread_fallbacks == 0
