"""Pipe input: the one path where the driver deals out line chunks.

A FIFO reports no size, so ``split_mode="auto"`` cannot plan byte
splits over it: the driver reads the numbered lines itself and, under a
context, hands each worker a chunk of them.  Regular files never take
that path, so every run here reads a FIFO fed by a writer thread and
must equal the regular-file run: schema text, counts and quarantine
line numbers.
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import contextmanager

import pytest

from repro.cli import main
from repro.core.printer import print_type
from repro.engine import Context
from repro.inference.pipeline import infer_ndjson_file
from tests.conftest import make_corpus

pytestmark = pytest.mark.skipif(
    not hasattr(os, "mkfifo"), reason="needs os.mkfifo"
)

#: Where the malformed line sits (1-based).
BAD_LINE = 58


@pytest.fixture()
def corpus(tmp_path):
    lines = [json.dumps(value) for value in make_corpus(200, seed=21)]
    lines.insert(BAD_LINE - 1, '{"id": 57,')
    path = tmp_path / "corpus.ndjson"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@contextmanager
def fifo_of(path):
    """A FIFO next to ``path`` that a daemon thread fills with its bytes."""
    fifo = path.with_suffix(".fifo")
    os.mkfifo(fifo)
    data = path.read_bytes()

    def feed() -> None:
        try:
            with open(fifo, "wb") as sink:
                sink.write(data)
        except BrokenPipeError:  # the reader gave up early
            pass

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        yield str(fifo)
    finally:
        writer.join(timeout=30)
        if writer.is_alive():
            # Nothing opened the FIFO: open and drop a reader so the
            # writer's open returns, then let the test fail.
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
            writer.join(timeout=30)
        os.unlink(fifo)
        assert not writer.is_alive(), "the FIFO writer never finished"


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
