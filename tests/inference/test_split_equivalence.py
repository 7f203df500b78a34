"""Differential tests: byte-range ingestion must be observationally
identical to line-oriented ingestion.

``split_mode="lines"`` (the driver reads the file and ships line text) is
the reference; ``split_mode="bytes"`` (workers read their own byte ranges)
must produce the same schema, the same record and skip counts, and
byte-identical quarantine records — absolute line numbers and error
strings included — on both scheduler backends.
"""

import os
import pickle
import threading

import pytest

from repro.core.printer import print_type
from repro.engine import Context
from repro.inference.kernel import accumulate_ndjson_item
from repro.inference.pipeline import (
    SPLIT_MODES,
    infer_ndjson_file,
    resolve_split_mode,
)
from repro.jsonio.errors import (
    DuplicateKeyError,
    ErrorRateExceeded,
    JsonSyntaxError,
)
from repro.jsonio.splits import FileSplit


def messy_file(tmp_path, n=300, terminator="\r\n", trailing=False):
    """An NDJSON file exercising every ingestion hazard at once: CRLF
    terminators, blank lines, malformed records, multibyte UTF-8, and
    (optionally) a missing trailing newline."""
    rows = []
    for i in range(n):
        if i % 41 == 11:
            rows.append('{"broken": ')
        elif i % 29 == 5:
            rows.append("")
        elif i % 3 == 0:
            rows.append('{"a": %d, "tag": "xé日"}' % i)
        else:
            rows.append('{"a": %d, "b": [1, 2.5], "c": {"d": true}}' % i)
    text = terminator.join(rows) + (terminator if trailing else "")
    path = tmp_path / "messy.ndjson"
    path.write_bytes(text.encode("utf-8"))
    return str(path)


def observables(run):
    return (
        print_type(run.schema),
        run.record_count,
        run.skipped_count,
        [(b.line_number, b.error, b.text) for b in run.bad_records],
    )


class TestPermissiveEquivalence:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("trailing", [True, False])
    def test_bytes_equals_lines(self, tmp_path, backend, trailing):
        path = messy_file(tmp_path, trailing=trailing)
        ref = infer_ndjson_file(path, permissive=True, split_mode="lines")
        with Context(parallelism=4, backend=backend) as ctx:
            run = infer_ndjson_file(
                path,
                context=ctx,
                num_partitions=7,
                permissive=True,
                split_mode="bytes",
                min_split_bytes=1,
            )
        assert observables(run) == observables(ref)

    def test_sequential_bytes_equals_lines(self, tmp_path):
        path = messy_file(tmp_path, terminator="\n")
        ref = infer_ndjson_file(path, permissive=True, split_mode="lines")
        run = infer_ndjson_file(path, permissive=True, split_mode="bytes")
        assert observables(run) == observables(ref)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_malformed_record_straddling_every_early_boundary(
        self, tmp_path, backend
    ):
        # Small file, many partitions: malformed records land at split
        # edges, where numbering and ownership bugs would live.
        rows = ['{"a": 1}', '{"bad', "", '{"a": 2}', "{", '{"a": 3}']
        path = tmp_path / "edges.ndjson"
        path.write_bytes("\r\n".join(rows).encode("utf-8"))
        ref = infer_ndjson_file(
            str(path), permissive=True, split_mode="lines"
        )
        with Context(parallelism=4, backend=backend) as ctx:
            run = infer_ndjson_file(
                str(path),
                context=ctx,
                num_partitions=12,
                permissive=True,
                split_mode="bytes",
                min_split_bytes=1,
            )
        assert observables(run) == observables(ref)


class TestStrictEquivalence:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_error_carries_absolute_line_number(self, tmp_path, backend):
        path = messy_file(tmp_path)
        with pytest.raises(JsonSyntaxError) as ref:
            infer_ndjson_file(path, split_mode="lines")
        with Context(parallelism=4, backend=backend) as ctx:
            with pytest.raises(JsonSyntaxError) as got:
                infer_ndjson_file(
                    path,
                    context=ctx,
                    num_partitions=6,
                    split_mode="bytes",
                    min_split_bytes=1,
                )
        # Different splits may surface *different* malformed records
        # first (partitions fail independently), but whichever surfaced
        # must be reported at its true absolute position.
        assert got.value.source == ref.value.source
        bad_lines = {
            b.line_number
            for b in infer_ndjson_file(
                path, permissive=True, split_mode="lines"
            ).bad_records
        }
        assert got.value.line in bad_lines
        assert f"line {got.value.line}," in str(got.value)


class TestZeroCopyShipping:
    def test_bytes_mode_ships_only_descriptors(self, tmp_path):
        path = messy_file(tmp_path, n=2000)
        file_size = len(open(path, "rb").read())
        with Context(parallelism=4, backend="process") as ctx:
            infer_ndjson_file(
                path,
                context=ctx,
                num_partitions=8,
                permissive=True,
                split_mode="bytes",
                min_split_bytes=1,
            )
            stats = ctx.scheduler.stats
        # Descriptors are a few hundred bytes however large the file;
        # the data itself is read worker-side.
        assert 0 < stats.input_bytes_shipped < file_size / 10
        assert stats.input_bytes_read >= file_size

    def test_lines_mode_ships_the_data(self, tmp_path):
        path = messy_file(tmp_path, n=2000)
        file_size = len(open(path, "rb").read())
        with Context(parallelism=4, backend="thread") as ctx:
            infer_ndjson_file(
                path,
                context=ctx,
                num_partitions=8,
                permissive=True,
                split_mode="lines",
            )
            assert ctx.scheduler.stats.input_bytes_shipped > file_size / 2


class TestTreeMerge:
    """48 partials on four workers: the driver folds them all, and the
    result equals the streaming reference's."""

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_many_partitions_trigger_scheduler_reduce(
        self, tmp_path, backend
    ):
        path = messy_file(tmp_path, n=600, terminator="\n")
        ref = infer_ndjson_file(path, permissive=True, split_mode="lines")
        with Context(parallelism=4, backend=backend) as ctx:
            run = infer_ndjson_file(
                path,
                context=ctx,
                num_partitions=48,
                permissive=True,
                split_mode="bytes",
                min_split_bytes=1,
            )
        assert observables(run) == observables(ref)
        assert run.distinct_type_count == ref.distinct_type_count


class TestSplitTask:
    def test_accumulate_ndjson_split_reports_counts(self, tmp_path):
        path = tmp_path / "f.ndjson"
        data = b'{"a":1}\n\n{"b":2}\n'
        path.write_bytes(data)
        summary = accumulate_ndjson_item(FileSplit(str(path), 0, len(data), 0))
        assert summary.record_count == 2
        assert summary.line_count == 3
        assert summary.bytes_read == len(data)

    def test_strict_error_in_later_split_is_absolute(self, tmp_path):
        path = tmp_path / "f.ndjson"
        data = b'{"a":1}\n{"a":2}\n{"a":3}\nnot json\n'
        path.write_bytes(data)
        offset = data.index(b"not json")
        split = FileSplit(str(path), offset, len(data) - offset, 1)
        with pytest.raises(JsonSyntaxError) as excinfo:
            accumulate_ndjson_item(split)
        assert excinfo.value.line == 4
        assert excinfo.value.source == str(path)


class TestResolveSplitMode:
    def test_modes(self):
        assert SPLIT_MODES == ("auto", "bytes", "lines")
        assert resolve_split_mode("auto", context=None) == "lines"
        assert resolve_split_mode("auto", context=object()) == "bytes"
        assert resolve_split_mode("lines", context=object()) == "lines"
        assert resolve_split_mode("bytes", context=None) == "bytes"
        with pytest.raises(ValueError):
            resolve_split_mode("chunks", context=None)

    @pytest.mark.parametrize(
        "case", ["context-auto", "sequential-cache", "explicit-bytes"]
    )
    def test_pipe_never_takes_byte_splits(self, case, tmp_path):
        """A FIFO reports ``st_size`` 0, so a byte-split plan over it
        would be empty and the run would infer ``(empty)``.  Line chunks
        (under a context) and the stream (without one) read it; an
        explicit byte-split request is refused."""
        fifo = tmp_path / "in.ndjson"
        os.mkfifo(fifo)

        def write():
            with open(fifo, "wb") as handle:
                handle.write(b'{"a": 1, "b": "x"}\n{"a": 2, "b": "y"}\n')

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        try:
            if case == "explicit-bytes":
                with Context(parallelism=2) as ctx:
                    with pytest.raises(ValueError, match="regular file"):
                        infer_ndjson_file(fifo, context=ctx,
                                          split_mode="bytes")
                return
            if case == "context-auto":
                with Context(parallelism=2) as ctx:
                    run = infer_ndjson_file(fifo, context=ctx)
            else:
                run = infer_ndjson_file(
                    fifo, summary_cache=tmp_path / "cache"
                )
            assert print_type(run.schema) == "{a: Num, b: Str}"
            assert run.record_count == 2
        finally:
            # If nothing read the pipe, hold a read end open so the
            # writer's blocking open returns and it can finish.
            reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
            try:
                writer.join(timeout=10)
            finally:
                os.close(reader)
            assert not writer.is_alive()


class TestErrorPickling:
    """Workers raise these across process-pool boundaries; the default
    exception reduction replays the formatted message into the
    constructor and dies with a TypeError."""

    def test_json_syntax_error(self):
        err = JsonSyntaxError("bad token", 7, 3, "f.ndjson")
        clone = pickle.loads(pickle.dumps(err))
        assert str(clone) == str(err)
        assert (clone.line, clone.column, clone.source) == (7, 3, "f.ndjson")

    def test_duplicate_key_error(self):
        err = DuplicateKeyError("k", 2, 5, "f.ndjson")
        clone = pickle.loads(pickle.dumps(err))
        assert str(clone) == str(err)
        assert clone.key == "k"

    def test_error_rate_exceeded(self):
        err = ErrorRateExceeded(3, 10, 0.1)
        clone = pickle.loads(pickle.dumps(err))
        assert str(clone) == str(err)
        assert (clone.skipped, clone.total) == (3, 10)
