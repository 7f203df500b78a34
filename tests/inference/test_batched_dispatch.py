"""The partitioned dispatch path: one scheduler task per work item.

Contracts pinned here:

* **Strict-mode diagnostics** — the first malformed line fails a
  partitioned strict run with the same absolute line number as
  sequential.
* **Dispatch pin** — the journal's task plan (one work item per task)
  and the scheduler counters of an uncached, a cold-cached, a
  warm-cached and a run-level-replayed job, as literals.

Results against the pure oracle, per configuration point, are checked
in ``tests/test_oracle_gates.py``.
"""

from __future__ import annotations

import pytest

from repro.engine import Context
from repro.inference.pipeline import infer_ndjson_file
from repro.jsonio.errors import JsonSyntaxError
from tests.conftest import make_corpus


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
    @pytest.mark.parametrize("split_mode", ["bytes", "lines"])
    def test_first_error_line_matches_sequential(
        self, split_mode, dirty_file
    ):
        path, bad = dirty_file
        with pytest.raises(JsonSyntaxError) as sequential:
            infer_ndjson_file(path)
        with Context(parallelism=2) as ctx:
            with pytest.raises(JsonSyntaxError) as partitioned:
                infer_ndjson_file(
                    path, context=ctx, num_partitions=12,
                    split_mode=split_mode, min_split_bytes=1,
                )
        assert sequential.value.line == bad[0]
        # Parallel strict runs surface *a* malformed line with its exact
        # absolute position; which of the bad lines wins the race is
        # scheduling-dependent.
        assert partitioned.value.line in bad


class TestDispatchPin:
    """What any refactor of the partitioned dispatch path must not move.

    Each configuration runs four jobs over one fixed dirty file, each
    in a fresh thread Context: uncached, then cold and warm against one
    summary cache, each with its own journal; then warm again without a
    journal, so the run-level cache entry replays.  Every task is one
    work item (the ``1`` of each configuration), so the journal plan
    holds one ``[offset, length]`` (or ``[first line, count]``) list per
    task, the shape earlier releases wrote.  The journal header's task
    plan (``None`` without a journal) and the scheduler counters are
    pinned as literals: a run-level replay skips exactly the input bytes
    the journaled warm job's per-partition hits skip.  Relative paths
    keep the pickled split descriptors, and so ``input_bytes_shipped``,
    independent of the temporary directory.
    The wire-byte counters are the sizes of wire v4 frames, whose
    distinct sets are 32-byte digests.
    """

    COUNTERS = (
        "tasks_completed", "input_bytes_shipped", "input_bytes_read",
        "cache_hits", "cache_misses", "cache_stores", "cache_bytes_skipped",
        "summary_wire_bytes_encoded", "summary_wire_bytes_decoded",
    )
    BYTES_STABLE = [
        [[0, 186]], [[186, 186]], [[372, 186]],
        [[558, 186]], [[744, 186]], [[930, 185]],
    ]
    LINES = [[[1, 8]], [[9, 7]], [[17, 7]], [[24, 8]], [[33, 8]], [[42, 7]]]
    #: (split_mode, items per task) -> per job: (header tasks, counters).
    EXPECTED = {
        ("bytes", 1): [
            ([[[0, 186]], [[186, 186]], [[372, 186]], [[558, 185]],
              [[743, 186]], [[929, 186]]],
             [6, 248, 1158, 0, 0, 0, 0, 0, 0]),
            (BYTES_STABLE, [6, 248, 1156, 0, 6, 7, 0, 0, 0]),
            ([], [0, 5, 0, 6, 0, 0, 1156, 1984, 1984]),
            (None, [0, 0, 0, 6, 0, 0, 1156, 0, 0]),
        ],
        ("lines", 1): [
            (LINES, [6, 1067, 0, 0, 0, 0, 0, 0, 0]),
            (LINES, [6, 1067, 0, 0, 6, 7, 0, 0, 0]),
            ([], [0, 0, 0, 6, 0, 0, 1067, 1988, 1988]),
            (None, [0, 0, 0, 6, 0, 0, 1067, 0, 0]),
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
                    permissive=True, split_mode=split_mode,
                    min_split_bytes=1, journal_path=journal,
                    summary_cache=cache,
                )
            tasks = None
            if journaled:
                header = read_journal(journal).header
                assert (header["split_mode"], header["parse_lane"],
                        header["permissive"]) == (split_mode, "hooks", True)
                tasks = header["tasks"]
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
