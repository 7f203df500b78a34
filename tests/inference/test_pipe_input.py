"""Pipe input: the one path where the driver deals out line chunks.

A FIFO reports no size, so no byte splits can be planned over it: the
driver reads the numbered lines itself and, under a context, hands each
worker a chunk of them.  Regular files never take that path, so every
run here reads a FIFO fed by a writer thread and must equal the
regular-file run: schema text, counts and quarantine line numbers.  A
pipe cannot be read twice, so a journal over one is refused before it is
read, and a checkpoint records it without reading it.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.printer import print_type
from repro.engine import Context
from repro.inference.pipeline import infer_ndjson_file
from repro.store.checkpoint import load_checkpoint
from repro.store.journal import JournalError
from tests.conftest import fifo_of, make_corpus

pytestmark = pytest.mark.skipif(
    not hasattr(os, "mkfifo"), reason="needs os.mkfifo"
)

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

#: Where the malformed line sits (1-based).
BAD_LINE = 58


@pytest.fixture()
def corpus(tmp_path):
    lines = [json.dumps(value) for value in make_corpus(200, seed=21)]
    lines.insert(BAD_LINE - 1, '{"id": 57,')
    path = tmp_path / "corpus.ndjson"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def within(seconds, call, *args, **kwargs):
    """``call(*args, **kwargs)`` on a daemon thread: its result, or its
    exception raised here.  Fails the test instead of hanging it when the
    call is still blocked (opening a pipe whose writer is gone, say)
    after ``seconds``."""
    done = {}

    def run() -> None:
        try:
            done["value"] = call(*args, **kwargs)
        except BaseException as exc:  # re-raised below, in the test
            done["error"] = exc

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), f"still blocked after {seconds} s"
    if "error" in done:
        raise done["error"]
    return done["value"]


def outcome(run):
    return (
        print_type(run.schema), run.record_count, run.distinct_type_count,
        [bad.line_number for bad in run.bad_records],
    )


@pytest.mark.parametrize("backend", [None, "thread", "process"])
def test_fifo_run_equals_file_run(corpus, backend):
    expected = outcome(infer_ndjson_file(corpus, permissive=True))
    assert expected[3] == [BAD_LINE]
    with fifo_of(corpus) as fifo:
        if backend is None:
            run = infer_ndjson_file(fifo, permissive=True)
        else:
            with Context(parallelism=2, backend=backend) as ctx:
                run = infer_ndjson_file(
                    fifo, context=ctx, num_partitions=4, permissive=True,
                )
    assert outcome(run) == expected


def test_cli_reads_a_fifo_like_the_file(corpus, capsys):
    argv = ["infer", "{}", "--workers", "2", "--permissive"]
    assert main([a.format(corpus) for a in argv]) == 0
    expected = capsys.readouterr()
    with fifo_of(corpus) as fifo:
        assert main([a.format(fifo) for a in argv]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (expected.out, expected.err)
    assert "1 records skipped" in captured.err


class TestNoSecondRead:
    """A pipe's bytes reach the run once: nothing else may read them."""

    def test_journal_is_refused_before_the_pipe_is_read(self, corpus,
                                                        tmp_path):
        journal = tmp_path / "run.journal"
        with fifo_of(corpus) as fifo:
            with pytest.raises(JournalError, match="not a regular file"):
                within(30, infer_ndjson_file, fifo, permissive=True,
                       journal_path=journal)
            # Every byte is still in the pipe.
            with open(fifo, "rb") as handle:
                assert handle.read() == corpus.read_bytes()
        assert not journal.exists()

    def test_cli_refuses_a_journaled_pipe(self, corpus, tmp_path, capsys):
        journal = tmp_path / "run.journal"
        with fifo_of(corpus) as fifo:
            assert within(30, main, ["infer", fifo, "--permissive",
                                     "--journal", str(journal)]) == 1
            with open(fifo, "rb") as handle:
                assert handle.read() == corpus.read_bytes()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot journal")
        assert not journal.exists()

    def test_stdin_pipe_with_a_journal_exits_1(self, corpus, tmp_path):
        """``cat f | repro infer /dev/stdin --journal J``."""
        journal = tmp_path / "run.journal"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO_SRC), env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "infer", "/dev/stdin",
             "--permissive", "--journal", str(journal)],
            input=corpus.read_bytes(), capture_output=True, env=env,
            timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith(b"error: cannot journal")
        assert not journal.exists()

    @pytest.mark.parametrize("backend", [None, "thread"])
    def test_checkpoint_records_the_pipe_unread(self, corpus, tmp_path,
                                                backend):
        expected = outcome(infer_ndjson_file(corpus, permissive=True))
        checkpoint = tmp_path / "ckpt"
        kwargs = dict(permissive=True, checkpoint_to=checkpoint)
        with fifo_of(corpus) as fifo:
            if backend is None:
                run = within(30, infer_ndjson_file, fifo, **kwargs)
            else:
                with Context(parallelism=2, backend=backend) as ctx:
                    run = within(30, infer_ndjson_file, fifo, context=ctx,
                                 num_partitions=4, **kwargs)
        assert outcome(run) == expected
        (source,) = load_checkpoint(checkpoint).manifest.sources
        assert (source.path, source.size) == (fifo, 0)
        assert source.sha256 == hashlib.sha256(b"").hexdigest()
