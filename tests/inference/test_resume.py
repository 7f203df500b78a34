"""Crash-matrix: kill the run at every durability boundary, resume, and
demand a byte-identical schema.

Each case launches a real subprocess with ``REPRO_CRASH_POINT`` set, so
the "crash" is a genuine ``os._exit`` mid-run — no cooperative cleanup,
no atexit, exactly what a power cut or OOM kill leaves behind.  The
resumed run must then produce the same printed schema and record count
as an uninterrupted run, on both backends and both split modes (fusion
commutativity/associativity, Theorems 5.4-5.5, is what makes the replay
exact).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.engine.faults import CRASH_EXIT_CODE, CRASH_POINT_ENV
from repro.store.checkpoint import load_checkpoint
from repro.store.journal import read_journal

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Driver the subprocesses run.  Prints "<schema> <record_count>" on
#: success; any crash point fires mid-run via REPRO_CRASH_POINT.
DRIVER = """
import json, sys
from repro.engine.context import Context
from repro.inference.pipeline import infer_ndjson_file
from repro.core.printer import print_type

cfg = json.loads(sys.argv[1])
kwargs = dict(
    num_partitions=4,
    split_mode=cfg["mode"],
    min_split_bytes=2048,
    journal_path=cfg["journal"],
    resume=cfg["resume"],
    checkpoint_to=cfg.get("checkpoint"),
)
if cfg["backend"] == "none":
    run = infer_ndjson_file(cfg["file"], **kwargs)
else:
    with Context(parallelism=2, backend=cfg["backend"]) as ctx:
        run = infer_ndjson_file(cfg["file"], context=ctx, **kwargs)
print(print_type(run.schema), run.record_count)
"""


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("resume") / "data.ndjson"
    with open(path, "w", encoding="utf-8") as handle:
        for i in range(600):
            record = {
                "id": i,
                "tags": [str(i), i] if i % 3 else [i],
                "meta": {"even": i % 2 == 0},
            }
            if i % 5 == 0:
                record["extra"] = {"depth": [{"x": i}]}
            handle.write(json.dumps(record) + "\n")
    return path


def run_driver(dataset, journal, mode="bytes", backend="thread",
               resume=False, checkpoint=None, crash_point=None):
    cfg = {
        "file": str(dataset),
        "journal": str(journal),
        "mode": mode,
        "backend": backend,
        "resume": resume,
    }
    if checkpoint is not None:
        cfg["checkpoint"] = str(checkpoint)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [REPO_SRC, env.get("PYTHONPATH")])
    )
    if crash_point is not None:
        env[CRASH_POINT_ENV] = crash_point
    else:
        env.pop(CRASH_POINT_ENV, None)
    # Capture through files, not pipes: a crash-killed driver can leave
    # orphaned pool workers holding inherited pipe FDs, which would make
    # pipe-based capture block long after the driver is gone.  The
    # driver leads its own session, so those workers die with it below.
    with tempfile.TemporaryFile("w+") as out, \
            tempfile.TemporaryFile("w+") as err:
        proc = subprocess.Popen(
            [sys.executable, "-c", DRIVER, json.dumps(cfg)],
            env=env, stdout=out, stderr=err, start_new_session=True,
        )
        try:
            proc.wait(timeout=120)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        out.seek(0)
        err.seek(0)
        return SimpleNamespace(
            returncode=proc.returncode,
            stdout=out.read(),
            stderr=err.read(),
        )


@pytest.fixture(scope="module")
def expected(dataset, tmp_path_factory):
    """The uninterrupted run's output, the identity every resume must hit."""
    journal = tmp_path_factory.mktemp("expected") / "run.journal"
    proc = run_driver(dataset, journal)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def crash_then_resume(dataset, tmp_path, crash_point, mode="bytes",
                      backend="thread", checkpoint=None):
    journal = tmp_path / "run.journal"
    crashed = run_driver(dataset, journal, mode=mode, backend=backend,
                         checkpoint=checkpoint, crash_point=crash_point)
    assert crashed.returncode == CRASH_EXIT_CODE, (
        f"crash point {crash_point!r} never fired:\n{crashed.stderr}"
    )
    resumed = run_driver(dataset, journal, mode=mode, backend=backend,
                         checkpoint=checkpoint, resume=True)
    assert resumed.returncode == 0, resumed.stderr
    return resumed.stdout


#: Every journal-boundary crash point, in execution order.
JOURNAL_POINTS = [
    "journal.create.post",
    "journal.append.torn:1",
    "journal.append.post:1",
    "journal.append.torn:3",
    "journal.append.post:4",
    "journal.commit.pre",
    "journal.commit.torn",
    "journal.commit.post",
]


class TestCrashMatrixJournal:
    @pytest.mark.parametrize("crash_point", JOURNAL_POINTS)
    def test_resume_is_identical(self, dataset, tmp_path, expected,
                                 crash_point):
        assert crash_then_resume(
            dataset, tmp_path, crash_point
        ) == expected

    def test_partial_progress_is_durable(self, dataset, tmp_path):
        journal = tmp_path / "run.journal"
        crashed = run_driver(dataset, journal,
                             crash_point="journal.append.post:2")
        assert crashed.returncode == CRASH_EXIT_CODE
        state = read_journal(journal)
        assert len(state.completed) == 2
        assert not state.committed

    def test_torn_crash_leaves_torn_tail(self, dataset, tmp_path):
        journal = tmp_path / "run.journal"
        crashed = run_driver(dataset, journal,
                             crash_point="journal.append.torn:2")
        assert crashed.returncode == CRASH_EXIT_CODE
        state = read_journal(journal)
        assert state.torn and state.torn_bytes > 0
        assert len(state.completed) == 1


class TestCrashMatrixBackendsAndModes:
    """One representative mid-run crash, across the full config grid."""

    @pytest.mark.parametrize("backend,mode", [
        ("thread", "bytes"),
        ("thread", "lines"),
        ("process", "bytes"),
        ("process", "lines"),
        ("none", "bytes"),
        ("none", "lines"),  # sequential streaming: a single journal task
    ])
    def test_resume_is_identical(self, dataset, tmp_path, expected,
                                 backend, mode):
        crash_point = (
            # The sequential lines run journals exactly one task, after
            # which only the commit boundary remains.
            "journal.commit.pre" if backend == "none" and mode == "lines"
            else "journal.append.post:1"
        )
        assert crash_then_resume(
            dataset, tmp_path, crash_point, mode=mode, backend=backend
        ) == expected


class TestCrashMatrixProcess:
    """Crashes on the process backend: right after the plan became
    durable, mid-append (a torn frame on disk) and after two summaries
    landed."""

    @pytest.mark.parametrize("crash_point", [
        "journal.create.post",
        "journal.append.torn:1",
        "journal.append.post:2",
    ])
    def test_resume_is_identical(self, dataset, tmp_path, expected,
                                 crash_point):
        assert crash_then_resume(
            dataset, tmp_path, crash_point, backend="process"
        ) == expected


class TestCrashMatrixCheckpoint:
    """Crashes inside the checkpoint save, with and without a previous
    checkpoint on disk (the latter exercises the retire-and-replace
    window, ``checkpoint.mid_swap``)."""

    @pytest.mark.parametrize("crash_point", [
        "checkpoint.pre_swap",
        "checkpoint.post_swap",
    ])
    def test_fresh_checkpoint_crash(self, dataset, tmp_path, expected,
                                    crash_point):
        ckpt = tmp_path / "ckpt"
        out = crash_then_resume(
            dataset, tmp_path, crash_point, checkpoint=ckpt
        )
        assert out == expected
        loaded = load_checkpoint(ckpt)
        assert loaded.record_count == 600

    @pytest.mark.parametrize("crash_point", [
        "checkpoint.pre_swap",
        "checkpoint.mid_swap",
        "checkpoint.post_swap",
    ])
    def test_overwrite_checkpoint_crash(self, dataset, tmp_path, expected,
                                        crash_point):
        ckpt = tmp_path / "ckpt"
        # Seed a previous checkpoint so the save takes the replace path.
        seed = run_driver(dataset, tmp_path / "seed.journal",
                          checkpoint=ckpt)
        assert seed.returncode == 0, seed.stderr
        out = crash_then_resume(
            dataset, tmp_path, crash_point, checkpoint=ckpt
        )
        assert out == expected
        loaded = load_checkpoint(ckpt)
        assert loaded.record_count == 600

    def test_mid_swap_crash_is_reported_by_fsck(self, dataset, tmp_path):
        from repro.store.checkpoint import fsck_checkpoint

        ckpt = tmp_path / "ckpt"
        seed = run_driver(dataset, tmp_path / "seed.journal",
                          checkpoint=ckpt)
        assert seed.returncode == 0, seed.stderr
        crashed = run_driver(dataset, tmp_path / "run.journal",
                             checkpoint=ckpt,
                             crash_point="checkpoint.mid_swap")
        assert crashed.returncode == CRASH_EXIT_CODE
        # The window leaves no target but both complete versions aside;
        # fsck sees the absence and the debris rather than a mixed state.
        report = fsck_checkpoint(ckpt)
        assert report["status"] == "not-found"
        assert report["orphans"]


class TestResumedTelemetry:
    def test_counts_only_the_tasks_it_ran(self, dataset, tmp_path):
        """Journal frames replay the dead run's summaries, not its
        workers or stage times: the resumed run's telemetry covers only
        the tasks it ran."""
        from repro.engine.context import Context
        from repro.inference.kernel import decode_summary
        from repro.inference.pipeline import infer_ndjson_file

        journal = tmp_path / "run.journal"
        crashed = run_driver(dataset, journal,
                             crash_point="journal.append.post:2")
        assert crashed.returncode == CRASH_EXIT_CODE
        replayed = sum(decode_summary(payload).record_count
                       for payload in read_journal(journal).completed.values())
        with Context(parallelism=2, backend="thread") as ctx:
            run = infer_ndjson_file(
                dataset, context=ctx, num_partitions=4, split_mode="bytes",
                min_split_bytes=2048, journal_path=journal, resume=True,
                collect_timings=True,
            )
            stats = ctx.scheduler.stats
            assert stats.tasks_completed == 2
            assert sum(stats.tasks_per_worker.values()) == 2
        assert run.record_count == 600
        assert run.phase_timings.records == 600 - replayed
