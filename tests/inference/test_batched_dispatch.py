"""The partitioned dispatch path: one scheduler task per work item.

Contracts pinned here:

* **Strict-mode diagnostics** — the first malformed line fails the
  stream pass at its absolute line number, and a partitioned strict
  run, over byte splits or a pipe's line chunks, at the absolute line
  number of one of the malformed lines.
* **Dispatch pin** — the journal's task-frame count (one per mapped
  work item) and the scheduler counters of an uncached, a cold-cached
  and two warm-cached jobs, as literals.

Results against the pure oracle, per configuration point, are checked
in ``tests/test_oracle_gates.py``.
"""

from __future__ import annotations

import pytest

from contextlib import ExitStack

from repro.engine import Context
from repro.inference.kernel import accumulate_ndjson_partition
from repro.inference.pipeline import infer_ndjson_file
from repro.jsonio.errors import JsonSyntaxError
from repro.jsonio.ndjson import iter_numbered_lines
from tests.conftest import fifo_of, make_corpus


@pytest.fixture(scope="module")
def dirty_file(tmp_path_factory):
    """A corpus with malformed lines at known absolute positions."""
    path = tmp_path_factory.mktemp("batched") / "dirty.ndjson"
    records = make_corpus(900, seed=13)
    lines = []
    bad = []
    for i, record in enumerate(records, start=1):
        if i % 97 == 0:
            lines.append('{"id": %d, "broken":' % i)
            bad.append(i)
        else:
            from repro.jsonio.writer import dumps

            lines.append(dumps(record))
    path.write_text("\n".join(lines) + "\n")
    return path, bad


class TestStrictDiagnostics:
    #: ``bytes`` reads the file as byte splits, ``lines`` reads it
    #: through a pipe, whose line chunks the driver deals out.
    @pytest.mark.parametrize("split_mode", ["bytes", "lines"])
    def test_first_error_line_matches_sequential(
        self, split_mode, dirty_file
    ):
        path, bad = dirty_file
        with pytest.raises(JsonSyntaxError) as sequential:
            accumulate_ndjson_partition(
                iter_numbered_lines(path), source=str(path)
            )
        with Context(parallelism=2) as ctx, ExitStack() as stack:
            source = path
            if split_mode == "lines":
                source = stack.enter_context(fifo_of(path))
            with pytest.raises(JsonSyntaxError) as partitioned:
                infer_ndjson_file(
                    source, context=ctx, num_partitions=12,
                    min_split_bytes=1,
                )
        assert sequential.value.line == bad[0]
        # Parallel strict runs surface *a* malformed line with its exact
        # absolute position; which of the bad lines wins the race is
        # scheduling-dependent.
        assert partitioned.value.line in bad


class TestDispatchPin:
    """What any refactor of the partitioned dispatch path must not move.

    Four jobs run over one fixed dirty file, each in a fresh thread
    Context: uncached, then cold and warm against one summary cache,
    each with its own journal; then warm again without a journal.  Every
    task is one byte split (the ``1`` of the id; the id's ``bytes`` is
    the split mode of earlier releases), so a journal holds one task
    frame per split it mapped.  The journal's task-frame count
    (``None`` without a journal) and the scheduler counters are pinned
    as literals: both warm jobs replay every partition from the cache,
    so their counters are equal and the warm journal maps nothing.
    Relative paths keep the pickled split descriptors, and so
    ``input_bytes_shipped``, independent of the temporary directory.
    The wire-byte counter is the size of the wire v4 frames, whose
    distinct sets are 32-byte digests.
    """

    COUNTERS = (
        "tasks_completed", "input_bytes_shipped", "input_bytes_read",
        "cache_hits", "cache_misses", "cache_stores", "cache_bytes_skipped",
        "summary_wire_bytes_decoded",
    )
    #: (split_mode, items per task) -> per job: (task frames, counters).
    EXPECTED = {
        ("bytes", 1): [
            (6, [6, 248, 1158, 0, 0, 0, 0, 0]),
            (6, [6, 248, 1156, 0, 6, 6, 0, 0]),
            (0, [0, 5, 0, 6, 0, 0, 1156, 1984]),
            (None, [0, 5, 0, 6, 0, 0, 1156, 1984]),
        ],
    }

    @staticmethod
    def _lines():
        out = []
        for i in range(1, 49):
            if i % 11 == 0:
                out.append("oops %d" % i)
            elif i % 13 == 0:
                out.append("")
            elif i % 3 == 0:
                out.append('{"id": %d, "tags": ["a", %d]}' % (i, i))
            elif i % 3 == 1:
                out.append('{"id": %d, "name": "n%d", "ok": true}' % (i, i))
            else:
                out.append("[%d, null]" % i)
        return out

    @pytest.mark.parametrize("split_mode,items_per_task", EXPECTED)
    def test_journal_plan_and_counters(
        self, split_mode, items_per_task, tmp_path, monkeypatch
    ):
        from repro.inference import kernel
        from repro.store.journal import read_journal

        monkeypatch.chdir(tmp_path)
        # Summaries carry their worker's name (pid and thread name) into
        # the wire payloads the cache stores; a fixed name keeps the
        # wire-byte counters independent of the host's pid width.
        monkeypatch.setattr(kernel, "_worker_name", lambda: "worker")
        with open("dirty.ndjson", "w") as handle:
            handle.write("\n".join(self._lines()) + "\n")
        observed = []
        jobs = [(None, True), ("cache", True), ("cache", True),
                ("cache", False)]
        for job, (cache, journaled) in enumerate(jobs):
            journal = f"job{job}.journal" if journaled else None
            with Context(parallelism=2, backend="thread") as ctx:
                run = infer_ndjson_file(
                    "dirty.ndjson", context=ctx, num_partitions=6,
                    permissive=True,
                    min_split_bytes=1, journal_path=journal,
                    summary_cache=cache,
                )
            tasks = None
            if journaled:
                tasks = len(read_journal(journal).completed)
            assert [b.line_number for b in run.bad_records] == [
                11, 22, 33, 44,
            ]
            assert (run.record_count, run.distinct_type_count) == (41, 3)
            stats = ctx.scheduler.stats
            observed.append((
                tasks,
                [getattr(stats, name) for name in self.COUNTERS],
            ))
        assert observed == self.EXPECTED[(split_mode, items_per_task)]
