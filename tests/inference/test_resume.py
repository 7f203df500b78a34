"""Crash-matrix: kill the run at every durability boundary, resume, and
demand a byte-identical schema.

Each case launches a real subprocess with ``REPRO_CRASH_POINT`` set, so
the "crash" is a genuine ``os._exit`` mid-run — no cooperative cleanup,
no atexit, exactly what a power cut or OOM kill leaves behind.  The
resumed run must then produce the same printed schema and record count
as an uninterrupted run, on both backends and in-line (fusion
commutativity/associativity, Theorems 5.4-5.5, is what makes the replay
exact), and must map no split the journal already holds.
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
from repro.store.journal import KIND_TASK, _iter_frames, read_journal

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
    min_split_bytes=2048,
    journal_path=cfg["journal"],
    resume=cfg["resume"],
    checkpoint_to=cfg.get("checkpoint"),
    update_from=cfg.get("update"),
    summary_cache=cfg.get("cache"),
    permissive=cfg.get("permissive", False),
)
if cfg["backend"] == "none":
    run = infer_ndjson_file(cfg["file"], **kwargs)
else:
    with Context(parallelism=2, backend=cfg["backend"]) as ctx:
        run = infer_ndjson_file(cfg["file"], context=ctx, **kwargs)
    stats = ctx.scheduler.stats
print(print_type(run.schema), run.record_count)
if cfg.get("report"):
    print(json.dumps({
        "distinct": run.distinct_type_count,
        "bad_lines": [bad.line_number for bad in run.bad_records],
        "cache_hits": stats.cache_hits,
        "tasks": stats.tasks_completed,
    }))
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


def run_driver(dataset, journal, backend="thread",
               resume=False, checkpoint=None, crash_point=None, **extra):
    """Run :data:`DRIVER` in a subprocess; ``extra`` adds the optional
    config keys (``update``, ``cache``, ``permissive``, ``report``)."""
    cfg = {
        "file": str(dataset),
        "journal": str(journal),
        "backend": backend,
        "resume": resume,
        **extra,
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


def crash_then_resume(dataset, tmp_path, crash_point, backend="thread",
                      checkpoint=None):
    journal = tmp_path / "run.journal"
    crashed = run_driver(dataset, journal, backend=backend,
                         checkpoint=checkpoint, crash_point=crash_point)
    assert crashed.returncode == CRASH_EXIT_CODE, (
        f"crash point {crash_point!r} never fired:\n{crashed.stderr}"
    )
    resumed = run_driver(dataset, journal, backend=backend,
                         checkpoint=checkpoint, resume=True)
    assert resumed.returncode == 0, resumed.stderr
    # Every finished split was journaled once: the resume re-ran none.
    frames = _iter_frames(journal.read_bytes(), str(journal))
    assert sum(kind == KIND_TASK for _, kind, _ in frames) == len(
        read_journal(journal).completed
    )
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
    """One representative mid-run crash, across the full config grid.
    The ids keep the split mode these cases ran: a journal needs a
    regular file, which is always read as byte splits."""

    @pytest.mark.parametrize("backend,mode", [
        ("thread", "bytes"),
        ("process", "bytes"),
        ("none", "bytes"),
    ])
    def test_resume_is_identical(self, dataset, tmp_path, expected,
                                 backend, mode):
        assert crash_then_resume(
            dataset, tmp_path, "journal.append.post:1", backend=backend
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
                dataset, context=ctx, num_partitions=4,
                min_split_bytes=2048, journal_path=journal, resume=True,
                collect_timings=True,
            )
            stats = ctx.scheduler.stats
            assert stats.tasks_completed == 2
            assert sum(stats.tasks_per_worker.values()) == 2
        assert run.record_count == 600
        assert run.phase_timings.records == 600 - replayed


class TestResumeFromEverySource:
    """One resumed run fed by all four sources of a partial summary: the
    update's base checkpoint, summary-cache hits, journal frames and a
    fresh map task."""

    @staticmethod
    def _fixed_width(path, lines=1200):
        """Every line 23 bytes, every 37th malformed: a digit can turn
        into ``!`` (and back) without moving a byte offset, so the
        untouched splits keep their cache keys."""
        rows = [
            b'{"s": "%06d", "n": %s}' % (i, b"!" if i % 37 == 9
                                            else b"%d" % (i % 10))
            for i in range(lines)
        ]
        path.write_bytes(b"\n".join(rows) + b"\n")

    @staticmethod
    def _mutate(path, k):
        """Flip the ``"n"`` byte of the line in the middle of split
        ``k`` of the driver's cached plan, in place."""
        from repro.jsonio.splits import plan_splits

        split = plan_splits(path, 4, 2048, stable=True)[k]
        data = bytearray(path.read_bytes())
        start = data.index(b"\n", split.offset + split.length // 2) + 1
        flip = data.index(b"\n", start) - 2
        assert flip < split.end - 1
        data[flip] = ord("!") if chr(data[flip]).isdigit() else ord("7")
        path.write_bytes(bytes(data))

    @staticmethod
    def _files(directory):
        return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_matches_an_uncached_unjournaled_update(self, tmp_path, backend):
        import shutil

        from repro.core.printer import print_type
        from repro.engine.context import Context
        from repro.inference.pipeline import infer_ndjson_file
        from repro.jsonio.splits import plan_splits

        base_data = tmp_path / "base.ndjson"
        base_data.write_text("".join(
            '{"s": %d, "m": [%d, "x"]}\n' % (i, i) for i in range(50)
        ))
        base = tmp_path / "base_ckpt"
        infer_ndjson_file(base_data, checkpoint_to=base)
        resumed_ckpt, reference_ckpt = tmp_path / "a", tmp_path / "b"
        shutil.copytree(base, resumed_ckpt)
        shutil.copytree(base, reference_ckpt)

        data = tmp_path / "data.ndjson"
        self._fixed_width(data)
        n_splits = len(plan_splits(data, 4, 2048, stable=True))
        assert n_splits == 4
        cache = tmp_path / "cache"
        with Context(parallelism=2, backend="thread") as ctx:
            infer_ndjson_file(
                data, context=ctx, num_partitions=4, min_split_bytes=2048,
                permissive=True, summary_cache=cache,
            )
        self._mutate(data, 1)
        self._mutate(data, 2)

        cfg = dict(update=str(resumed_ckpt), cache=str(cache),
                   permissive=True, report=True)
        journal = tmp_path / "run.journal"
        crashed = run_driver(data, journal, backend=backend,
                             checkpoint=resumed_ckpt,
                             crash_point="journal.append.post:1", **cfg)
        assert crashed.returncode == CRASH_EXIT_CODE, crashed.stderr
        resumed = run_driver(data, journal, backend=backend,
                             checkpoint=resumed_ckpt, resume=True, **cfg)
        assert resumed.returncode == 0, resumed.stderr
        printed, report = resumed.stdout.splitlines()
        report = json.loads(report)

        with Context(parallelism=2, backend="thread") as ctx:
            reference = infer_ndjson_file(
                data, context=ctx, num_partitions=4, min_split_bytes=2048,
                permissive=True, update_from=reference_ckpt,
                checkpoint_to=reference_ckpt,
            )
        assert printed == (
            f"{print_type(reference.schema)} {reference.record_count}"
        )
        assert report["distinct"] == reference.distinct_type_count
        assert report["bad_lines"] == [
            bad.line_number for bad in reference.bad_records
        ]
        assert self._files(resumed_ckpt) == self._files(reference_ckpt)
        assert report["cache_hits"] == n_splits - 2
        assert report["tasks"] == 1
