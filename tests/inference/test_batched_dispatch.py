"""Batched task dispatch (worker-local folds before the driver merge).

Contracts pinned here:

* **Grouping invariance** — any ``batch_size``, over any split mode and
  backend, produces the same schema, counts and distinct set as the
  unbatched and sequential runs (fusion associativity, Theorem 5.5).
* **Quarantine exactness** — absolute 1-based line numbers of skipped
  records survive batching: batch tasks re-base split-local numbers
  intra-batch, the driver re-bases across tasks, and the composition is
  the identity the sequential run computes directly.
* **Strict-mode diagnostics** — the first malformed line fails a
  batched strict run with the same absolute line number as sequential.
* **Auto policy** — batching only engages when partitions far
  outnumber workers, so small jobs keep one task per partition.
"""

from __future__ import annotations

import pytest

from repro.engine import Context
from repro.engine.scheduler import BACKENDS
from repro.inference.kernel import accumulate_ndjson_batch
from repro.inference.pipeline import _plan_batches, infer_ndjson_file
from repro.jsonio.errors import JsonSyntaxError
from repro.jsonio.splits import plan_splits
from tests.conftest import make_corpus, write_corpus


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


class TestGroupingInvariance:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("split_mode", ["bytes", "lines"])
    @pytest.mark.parametrize("batch_size", [None, 1, 2, 5, 100])
    def test_identical_across_batch_sizes(
        self, backend, split_mode, batch_size, dirty_file
    ):
        path, bad = dirty_file
        reference = infer_ndjson_file(path, permissive=True)
        assert [b.line_number for b in reference.bad_records] == bad
        with Context(parallelism=2, backend=backend) as ctx:
            run = infer_ndjson_file(
                path, context=ctx, num_partitions=12, permissive=True,
                split_mode=split_mode, min_split_bytes=1,
                batch_size=batch_size,
            )
        assert run.schema == reference.schema
        assert run.record_count == reference.record_count
        assert run.distinct_type_count == reference.distinct_type_count
        assert [b.line_number for b in run.bad_records] == bad

    def test_clean_corpus_batched_vs_unbatched(self, tmp_path):
        path = tmp_path / "clean.ndjson"
        write_corpus(path, make_corpus(700, seed=29))
        with Context(parallelism=2) as ctx:
            batched = infer_ndjson_file(
                path, context=ctx, num_partitions=16, batch_size=4,
                split_mode="bytes", min_split_bytes=1,
            )
            unbatched = infer_ndjson_file(
                path, context=ctx, num_partitions=16, batch_size=1,
                split_mode="bytes", min_split_bytes=1,
            )
        assert batched.schema == unbatched.schema
        assert batched.record_count == unbatched.record_count == 700
        assert (batched.distinct_type_count
                == unbatched.distinct_type_count)


class TestStrictDiagnostics:
    @pytest.mark.parametrize("split_mode", ["bytes", "lines"])
    def test_first_error_line_matches_sequential(
        self, split_mode, dirty_file
    ):
        path, bad = dirty_file
        with pytest.raises(JsonSyntaxError) as sequential:
            infer_ndjson_file(path)
        with Context(parallelism=2) as ctx:
            with pytest.raises(JsonSyntaxError) as batched:
                infer_ndjson_file(
                    path, context=ctx, num_partitions=12,
                    split_mode=split_mode, min_split_bytes=1, batch_size=3,
                )
        assert sequential.value.line == bad[0]
        # Parallel strict runs surface *a* malformed line with its exact
        # absolute position; which of the bad lines wins the race is
        # scheduling-dependent.
        assert batched.value.line in bad


class TestBatchTasks:
    def test_split_batch_equals_per_split(self, tmp_path):
        from repro.inference.kernel import merge_summary_group
        from repro.jsonio.splits import rebase_bad_records

        path = tmp_path / "dirty.ndjson"
        lines = ['{"v": %d}' % i for i in range(1, 121)]
        lines[39] = "oops"
        lines[89] = "[un"
        path.write_text("\n".join(lines) + "\n")
        splits = plan_splits(path, 6, min_split_bytes=1)
        batched = accumulate_ndjson_batch(splits, permissive=True)
        partials = []
        base = 0
        for split in splits:
            summary = accumulate_ndjson_batch([split], permissive=True)
            if summary.skipped:
                from dataclasses import replace

                summary = replace(
                    summary,
                    skipped=rebase_bad_records(summary.skipped, base),
                )
            base += summary.line_count
            partials.append(summary)
        assert batched == merge_summary_group(partials)
        assert [b.line_number for b in batched.skipped] == [40, 90]

    def test_partition_batch_keeps_absolute_lines(self):
        parts = [
            [(1, '{"a": 1}'), (2, "bad")],
            [(3, '{"a": 2}'), (4, '{"a": "x"}')],
        ]
        summary = accumulate_ndjson_batch(parts, permissive=True)
        assert summary.record_count == 3
        assert [b.line_number for b in summary.skipped] == [2]


class TestAutoPolicy:
    def test_small_jobs_stay_unbatched(self):
        assert _plan_batches(list(range(4)), parallelism=2,
                             batch_size=None) is None
        assert _plan_batches(list(range(8)), parallelism=4,
                             batch_size=None) is None

    def test_many_partitions_fold(self):
        batches = _plan_batches(list(range(40)), parallelism=2,
                                batch_size=None)
        assert batches is not None
        assert sum(len(b) for b in batches) == 40
        # Roughly two tasks per worker remain.
        assert len(batches) <= 2 * 2 + 1

    def test_explicit_sizes(self):
        assert _plan_batches(list(range(10)), 2, batch_size=1) is None
        batches = _plan_batches(list(range(10)), 2, batch_size=4)
        assert [len(b) for b in batches] == [4, 4, 2]
        assert [b for batch in batches for b in batch] == list(range(10))


class TestDispatchPin:
    """What any refactor of the partitioned dispatch path must not move.

    Each configuration runs four jobs over one fixed dirty file, each
    in a fresh thread Context: uncached (batching engages at
    ``batch_size=3``), then cold and warm against one summary cache
    (which dispatches unbatched), each with its own journal; then warm
    again without a journal, so the run-level cache entry replays.  The
    journal header's task plan (``None`` without a journal) and the
    scheduler counters are pinned as literals: a run-level replay skips
    exactly the input bytes the journaled warm job's per-partition hits
    skip.  Relative paths keep the pickled split descriptors, and so
    ``input_bytes_shipped``, independent of the temporary directory.
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
    #: (split_mode, batch_size) -> per job: (header tasks, counters).
    EXPECTED = {
        ("bytes", 1): [
            ([[[0, 186]], [[186, 186]], [[372, 186]], [[558, 185]],
              [[743, 186]], [[929, 186]]],
             [6, 248, 1158, 0, 0, 0, 0, 0, 0]),
            (BYTES_STABLE, [6, 248, 1156, 0, 6, 7, 0, 0, 0]),
            ([], [0, 5, 0, 6, 0, 0, 1156, 1984, 1984]),
            (None, [0, 0, 0, 6, 0, 0, 1156, 0, 0]),
        ],
        ("bytes", 3): [
            ([[[0, 186], [186, 186], [372, 186]],
              [[558, 185], [743, 186], [929, 186]]],
             [2, 248, 1158, 0, 0, 0, 0, 0, 0]),
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
        ("lines", 3): [
            ([[[1, 8], [9, 7], [17, 7]], [[24, 8], [33, 8], [42, 7]]],
             [2, 1067, 0, 0, 0, 0, 0, 0, 0]),
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

    @pytest.mark.parametrize("batch_size", [1, 3])
    @pytest.mark.parametrize("split_mode", ["bytes", "lines"])
    def test_journal_plan_and_counters(
        self, split_mode, batch_size, tmp_path, monkeypatch
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
                    min_split_bytes=1, batch_size=batch_size,
                    journal_path=journal, summary_cache=cache,
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
        assert observed == self.EXPECTED[(split_mode, batch_size)]
