"""Graceful-stop dispatch, the ``on_result`` journal seam, and
process-level crash points (repro.engine.scheduler + repro.engine.faults).

``on_result`` is the durability seam: the scheduler calls it on the
driver thread at each task's *first* success, before the job completes,
so a journal append there makes the result crash-proof the moment it
exists.  ``stop_event`` is the graceful half of crash safety: no
further attempt starts, the attempts in flight drain (and hit
``on_result``), and the job raises :class:`JobCancelled` instead of
returning.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import threading
import time

import pytest

from repro.engine.faults import (
    CRASH_EXIT_CODE,
    CRASH_POINT_ENV,
    crash_due,
    reset_crash_points,
)
from repro.engine.scheduler import JobCancelled, Scheduler


def _double(x):
    """Module-level so the process backend can pickle it."""
    return x * 2


def _slow_double(x):
    time.sleep(0.05)
    return x * 2


def _sleep_300ms(x):
    time.sleep(0.3)
    return x


class TestOnResult:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_called_once_per_task_with_index(self, backend):
        seen = []
        with Scheduler(parallelism=2, backend=backend) as sched:
            results = sched.run(
                _double, list(range(8)),
                on_result=lambda i, r: seen.append((i, r)),
            )
        assert results == [x * 2 for x in range(8)]
        assert sorted(seen) == [(i, i * 2) for i in range(8)]

    def test_inline_path_calls_on_result(self):
        seen = []
        with Scheduler(parallelism=1) as sched:
            sched.run(_double, [1, 2, 3],
                      on_result=lambda i, r: seen.append((i, r)))
        assert seen == [(0, 2), (1, 4), (2, 6)]

    def test_on_result_exception_propagates(self):
        # The seam journals durable state; swallowing its errors (ENOSPC!)
        # would fake durability.  They must surface as job failures.
        def explode(index, result):
            raise OSError("no space left on device")

        with Scheduler(parallelism=2) as sched:
            with pytest.raises(OSError, match="no space"):
                sched.run(_double, list(range(4)), on_result=explode)

    def test_retried_task_reports_once(self):
        attempts = {}
        seen = []

        def flaky(x):
            attempts[x] = attempts.get(x, 0) + 1
            if x == 2 and attempts[x] == 1:
                raise ConnectionError("transient")
            return x * 2

        with Scheduler(parallelism=2) as sched:
            results = sched.run(flaky, list(range(4)),
                                on_result=lambda i, r: seen.append(i))
        assert results == [0, 2, 4, 6]
        assert sorted(seen) == [0, 1, 2, 3]  # exactly once each


class TestStopEvent:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_preset_event_cancels_before_work(self, backend):
        event = threading.Event()
        event.set()
        with Scheduler(parallelism=2, backend=backend) as sched:
            with pytest.raises(JobCancelled) as excinfo:
                sched.run(_double, list(range(6)), stop_event=event)
        assert excinfo.value.completed == 0
        assert excinfo.value.total == 6

    def test_inline_stop(self):
        event = threading.Event()
        seen = []

        def on_result(i, r):
            seen.append(i)
            if len(seen) == 2:
                event.set()

        with Scheduler(parallelism=1) as sched:
            with pytest.raises(JobCancelled) as excinfo:
                sched.run(_double, list(range(10)), stop_event=event,
                          on_result=on_result)
        assert excinfo.value.completed == 2
        assert seen == [0, 1]

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_drain_delivers_completed_results(self, backend):
        """Everything counted by JobCancelled was first seen by on_result."""
        event = threading.Event()
        delivered = []

        def on_result(i, r):
            delivered.append((i, r))
            event.set()  # stop after the first completion

        with Scheduler(parallelism=2, backend=backend) as sched:
            with pytest.raises(JobCancelled) as excinfo:
                sched.run(_slow_double, list(range(12)), stop_event=event,
                          on_result=on_result)
        assert 1 <= excinfo.value.completed < 12
        assert len(delivered) == excinfo.value.completed
        for index, result in delivered:
            assert result == index * 2

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_drain_stops_at_the_attempts_in_flight(self, backend):
        """Only ``parallelism`` attempts are ever handed out, so a stop
        at the first result finishes exactly the one still running."""
        event = threading.Event()
        delivered = []

        def on_result(i, r):
            delivered.append(i)
            event.set()

        with Scheduler(parallelism=2, backend=backend) as sched:
            with pytest.raises(JobCancelled) as excinfo:
                sched.run(_sleep_300ms, list(range(8)), stop_event=event,
                          on_result=on_result)
        assert excinfo.value.completed == 2
        assert sorted(delivered) == [0, 1]

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_stop_at_the_last_result_returns_everything(self, backend):
        """A drain that leaves no partition unfinished is a finished job:
        it returns its results instead of raising JobCancelled."""
        event = threading.Event()
        delivered = []

        def on_result(i, r):
            delivered.append(i)
            if len(delivered) == 4:
                event.set()

        with Scheduler(parallelism=2, backend=backend) as sched:
            results = sched.run(_slow_double, list(range(4)),
                                stop_event=event, on_result=on_result)
        assert results == [0, 2, 4, 6]
        assert sorted(delivered) == [0, 1, 2, 3]
        assert event.is_set()

    def test_unset_event_changes_nothing(self):
        event = threading.Event()
        with Scheduler(parallelism=2) as sched:
            assert sched.run(_double, list(range(6)), stop_event=event) == [
                x * 2 for x in range(6)
            ]

    def test_job_cancelled_pickles(self):
        clone = pickle.loads(pickle.dumps(JobCancelled(3, 10)))
        assert (clone.completed, clone.total) == (3, 10)
        assert "3/10" in str(clone)


class TestCrashPoints:
    def setup_method(self):
        reset_crash_points()

    def teardown_method(self):
        reset_crash_points()
        os.environ.pop(CRASH_POINT_ENV, None)

    def test_inactive_without_env(self):
        assert not crash_due("journal.append.post")

    def test_first_occurrence_by_default(self):
        os.environ[CRASH_POINT_ENV] = "journal.append.post"
        assert crash_due("journal.append.post")

    def test_other_names_unaffected(self):
        os.environ[CRASH_POINT_ENV] = "journal.append.post"
        assert not crash_due("checkpoint.pre_swap")

    def test_nth_occurrence(self):
        os.environ[CRASH_POINT_ENV] = "journal.append.post:3"
        assert not crash_due("journal.append.post")
        assert not crash_due("journal.append.post")
        assert crash_due("journal.append.post")
        # One-shot: the 4th hit does not fire again.
        assert not crash_due("journal.append.post")

    def test_reset_clears_hit_counts(self):
        os.environ[CRASH_POINT_ENV] = "p:2"
        assert not crash_due("p")
        reset_crash_points()
        assert not crash_due("p")
        assert crash_due("p")

    def test_bad_occurrence_rejected(self):
        os.environ[CRASH_POINT_ENV] = "p:zero"
        with pytest.raises(ValueError):
            crash_due("p")

    def test_crash_point_kills_the_process(self):
        program = (
            "from repro.engine.faults import crash_point\n"
            "crash_point('unit.test.point')\n"
            "print('survived')\n"
        )
        env = dict(os.environ, **{CRASH_POINT_ENV: "unit.test.point"})
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [env.get("PYTHONPATH"), "src"])
        )
        proc = subprocess.run(
            [sys.executable, "-c", program],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == CRASH_EXIT_CODE
        assert "survived" not in proc.stdout
