"""The persistent worker pool: worker processes and threads outlive a
job, while every map task starts from a fresh accumulator.

Contracts pinned here:

* **Pool transparency** — consecutive jobs on one context, whose second
  job runs on the already-started ("warm") workers, equal the pure
  oracle ``fuse_all(infer_type(v))`` on both backends.
* **Crash safety** — killing a process worker in the second job of a
  context still yields the fault-free result after the pool rebuild
  and retry.
* **Machine-shaped defaults** — ``available_parallelism`` respects CPU
  affinity and survives platforms without ``sched_getaffinity``.
* **Prompt shutdown** — queued process-pool work is cancelled at
  shutdown instead of being executed.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.engine import Context, FaultPlan, RetryPolicy
from repro.engine.faults import Fault
from repro.engine.scheduler import BACKENDS, Scheduler, available_parallelism
from repro.inference.fusion import fuse_all
from repro.inference.infer import infer_type
from repro.inference.pipeline import infer_ndjson_file, run_inference
from tests.conftest import make_corpus, write_corpus

FAST_RETRY = RetryPolicy(max_retries=3, base_delay_s=0.001,
                         max_delay_s=0.01)


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("warm") / "corpus.ndjson"
    write_corpus(path, make_corpus(400, seed=11))
    return path


class TestWarmEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_consecutive_jobs_identical_to_cold(self, backend, corpus_file):
        """Cold is the pure oracle: no interner and no memo."""
        with open(corpus_file, encoding="utf-8") as handle:
            types = [infer_type(json.loads(line)) for line in handle]
        with Context(parallelism=2, backend=backend) as ctx:
            for _ in range(2):
                run = infer_ndjson_file(
                    corpus_file, context=ctx, num_partitions=8,
                    min_split_bytes=1,
                )
                assert run.schema == fuse_all(types)
                assert run.record_count == len(types)
                assert run.distinct_type_count == len(set(types))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_in_memory_jobs_identical_to_cold(self, backend):
        values = make_corpus(300, seed=5)
        baseline = run_inference(values)
        with Context(parallelism=2, backend=backend) as ctx:
            first = run_inference(values, context=ctx, num_partitions=6)
            second = run_inference(values, context=ctx, num_partitions=6)
        assert first.schema == second.schema == baseline.schema
        assert (first.distinct_type_count == second.distinct_type_count
                == baseline.distinct_type_count)


class TestCrashRecovery:
    def test_worker_kill_mid_job_with_warm_state(self, corpus_file):
        """A worker killed in the second job of a context, after the
        first has started the pool: the retried tasks, on a rebuilt
        pool, still produce the fault-free result."""
        with Context(parallelism=2, backend="process",
                     retry_policy=FAST_RETRY) as clean_ctx:
            clean = infer_ndjson_file(corpus_file, context=clean_ctx,
                                      num_partitions=6, min_split_bytes=1)
        plan = FaultPlan((
            Fault(1, 0, kind="kill"),
            Fault(4, 0, kind="fail"),
        ))
        with Context(parallelism=2, backend="process",
                     retry_policy=FAST_RETRY, fault_plan=plan) as ctx:
            # Start the pool with one job, then crash into the second.
            infer_ndjson_file(corpus_file, context=ctx, num_partitions=6,
                              min_split_bytes=1)
            faulty = infer_ndjson_file(corpus_file, context=ctx,
                                       num_partitions=6, min_split_bytes=1)
            stats = ctx.scheduler.stats
            assert stats.pool_rebuilds >= 1
        assert faulty.schema == clean.schema
        assert faulty.record_count == clean.record_count
        assert faulty.distinct_type_count == clean.distinct_type_count


class TestAvailableParallelism:
    def test_respects_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: {0, 1, 2, 3, 4}, raising=False)
        assert available_parallelism() == 5

    def test_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 7)
        assert available_parallelism() == 7

    def test_never_below_one(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert available_parallelism() == 1

    def test_scheduler_default_uses_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: {0, 1, 2, 3, 4, 5}, raising=False)
        with Scheduler() as scheduler:
            assert scheduler.parallelism == 6


class TestPoolLifecycle:
    def test_shutdown_cancels_queued_process_work(self):
        scheduler = Scheduler(1, backend="process")
        try:
            # A first job starts the worker.
            assert scheduler.run(abs, [-1]) == [1]
            pool = scheduler._ensure_process_pool()
            running = pool.submit(time.sleep, 0.2)
            queued = [pool.submit(time.sleep, 1) for _ in range(20)]
            start = time.perf_counter()
        finally:
            scheduler.shutdown()
        elapsed = time.perf_counter() - start
        # Shutdown waited for the running task but cancelled the queued
        # sleeps instead of executing them.  The pool's call queue may
        # already hold a couple, which can no longer be cancelled.
        assert elapsed < 10.0
        assert running.done()
        assert sum(f.cancelled() for f in queued) >= 15
