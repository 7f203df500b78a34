"""Cache transparency: a warm summary cache must change *nothing* but time.

Property under test (the tentpole's correctness bar): mutate exactly one
split between two runs and the warm re-run must (a) replay every other
split from the cache — exactly ``n_splits - 1`` hits, one miss — and
(b) produce observables byte-identical to a fresh uncached run over the
mutated file: printed schema, record/skip counts, and quarantine records
with absolute line numbers.  Holds across both scheduler backends.

Corruption must degrade to recomputation, never to wrong results: a
truncated or bit-flipped entry is a miss, and the recomputed run is
byte-identical to uncached.
"""

import errno
import shutil

import pytest

from repro.core.printer import print_type
from repro.engine import Context
from repro.inference.kernel import accumulate_ndjson_item
from repro.inference.pipeline import infer_ndjson_file
from repro.jsonio.splits import plan_splits, split_content_span

MIN_SPLIT = 1 << 10
N_PARTS = 8


def corpus(tmp_path, n=600):
    """Fixed-width NDJSON (every line 23 bytes): mutations can change
    content without moving any byte offset, so split boundaries — and
    therefore cache keys of untouched splits — stay put."""
    rows = []
    for i in range(n):
        if i % 37 == 9:
            rows.append(b'{"s": "%06d", "n": !}' % i)  # malformed, same width
        else:
            rows.append(b'{"s": "%06d", "n": %d}' % (i, i % 10))
    assert len({len(r) for r in rows}) == 1
    path = tmp_path / "cache_corpus.ndjson"
    path.write_bytes(b"\n".join(rows) + b"\n")
    return str(path)


def observables(run):
    return (
        print_type(run.schema),
        run.record_count,
        run.distinct_type_count,
        run.skipped_count,
        [(b.line_number, b.error, b.text) for b in run.bad_records],
    )


def mutate_one_split(path, k):
    """Flip one byte that exactly one split's dependency span covers.

    Toggles the width-stable ``"n"`` field of a line strictly inside
    split ``k``'s exclusive region (outside the boundary overlap with
    its neighbours) between a digit and ``!`` — flipping a record
    between good and quarantined without moving a single offset.
    """
    data = bytearray(open(path, "rb").read())
    splits = plan_splits(path, N_PARTS, min_split_bytes=MIN_SPLIT, stable=True)
    spans = [split_content_span(bytes(data), s) for s in splits]
    lo, hi = spans[k]
    if k > 0:
        lo = max(lo, spans[k - 1][1])
    if k + 1 < len(spans):
        hi = min(hi, spans[k + 1][0])
    start = data.index(b"\n", lo) + 1
    end = data.index(b"\n", start)
    assert lo < start and end < hi, "no full line inside the exclusive region"
    flip = end - 2  # the "n" field's value byte, two before the newline
    data[flip] = ord("!") if chr(data[flip]).isdigit() else ord("7")
    with open(path, "wb") as handle:
        handle.write(data)
    return len(splits)


def cached_run(path, backend, cache_dir, **kwargs):
    with Context(parallelism=4, backend=backend) as ctx:
        run = infer_ndjson_file(
            path,
            context=ctx,
            num_partitions=N_PARTS,
            permissive=True,
            min_split_bytes=MIN_SPLIT,
            summary_cache=cache_dir,
            **kwargs,
        )
        stats = ctx.scheduler.stats
        counters = (stats.cache_hits, stats.cache_misses, stats.cache_stores)
    return run, counters


def uncached_run(path):
    with Context(parallelism=4, backend="thread") as ctx:
        return infer_ndjson_file(
            path,
            context=ctx,
            num_partitions=N_PARTS,
            permissive=True,
            min_split_bytes=MIN_SPLIT,
        )


class TestSingleSplitMutation:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_one_miss_rest_hits_and_identical_output(
        self, tmp_path, backend
    ):
        path = corpus(tmp_path)
        cache_dir = tmp_path / "cache"

        _, (hits, cold_misses, stores) = cached_run(path, backend, cache_dir)
        # Every partition misses and is stored.
        assert hits == 0 and stores == cold_misses and cold_misses > 1

        n_splits = mutate_one_split(path, k=len(
            plan_splits(path, N_PARTS, min_split_bytes=MIN_SPLIT, stable=True)
        ) // 2)
        assert cold_misses == n_splits

        warm, (hits, misses, stores) = cached_run(path, backend, cache_dir)
        assert misses == 1 and stores == 1
        assert hits == cold_misses - 1
        assert observables(warm) == observables(uncached_run(path))

    def test_every_split_index(self, tmp_path):
        # Walk the mutation across every split, warming as we go: each
        # round must miss exactly the split mutated since the last run.
        path = corpus(tmp_path)
        cache_dir = tmp_path / "cache"
        _, (_, total, _) = cached_run(path, "thread", cache_dir)
        n_splits = len(
            plan_splits(path, N_PARTS, min_split_bytes=MIN_SPLIT, stable=True)
        )
        assert total == n_splits
        for k in range(n_splits):
            mutate_one_split(path, k)
            warm, (hits, misses, _) = cached_run(
                path, "thread", cache_dir
            )
            assert (hits, misses) == (n_splits - 1, 1), f"split {k}"
            assert observables(warm) == observables(
                uncached_run(path)
            )

    def test_unchanged_rerun_is_all_hits(self, tmp_path):
        path = corpus(tmp_path)
        cache_dir = tmp_path / "cache"
        cold, (_, total, _) = cached_run(path, "thread", cache_dir)
        warm, (hits, misses, stores) = cached_run(
            path, "thread", cache_dir
        )
        assert (hits, misses, stores) == (total, 0, 0)
        assert observables(warm) == observables(cold)


class TestHitsFromAnotherFile:
    """Entries are keyed by bytes, so a byte-identical copy of a file
    replays the original's entries: the records those hits quarantined
    must name the file the run reads, as an uncached run's do."""

    def test_copy_equals_an_uncached_run(self, tmp_path):
        original = corpus(tmp_path)
        copy = tmp_path / "copy" / "renamed.ndjson"
        copy.parent.mkdir()
        shutil.copyfile(original, copy)
        cache_dir = tmp_path / "cache"
        _, (_, total, _) = cached_run(original, "thread", cache_dir)

        warm, (hits, misses, _) = cached_run(
            str(copy), "thread", cache_dir,
            bad_records_path=tmp_path / "cached.bad",
        )
        assert (hits, misses) == (total, 0)
        with Context(parallelism=4, backend="thread") as ctx:
            plain = infer_ndjson_file(
                str(copy), context=ctx, num_partitions=N_PARTS,
                permissive=True, min_split_bytes=MIN_SPLIT,
                bad_records_path=tmp_path / "plain.bad",
            )
        assert warm.bad_records == plain.bad_records
        assert {b.path for b in warm.bad_records} == {str(copy)}
        assert (tmp_path / "cached.bad").read_bytes() == (
            tmp_path / "plain.bad"
        ).read_bytes()


class TestCorruptionFallback:
    def _partition_entries(self, cache_dir):
        return sorted((cache_dir / "objects").glob("*/*.sum"))

    def test_bit_flipped_entry_recomputes(self, tmp_path):
        path = corpus(tmp_path)
        cache_dir = tmp_path / "cache"
        cold, (_, total, _) = cached_run(path, "thread", cache_dir)
        # Flip a bit in one partition entry: it must classify as a
        # miss, and the run must recompute exactly the broken split.
        victim = self._partition_entries(cache_dir)[total // 2]
        blob = bytearray(victim.read_bytes())
        blob[-5] ^= 0x10
        victim.write_bytes(bytes(blob))

        warm, (hits, misses, stores) = cached_run(
            path, "thread", cache_dir
        )
        assert (hits, misses, stores) == (total - 1, 1, 1)
        assert observables(warm) == observables(cold)

    def test_truncated_entry_recomputes(self, tmp_path):
        path = corpus(tmp_path)
        cache_dir = tmp_path / "cache"
        cold, (_, total, _) = cached_run(path, "thread", cache_dir)
        victim = self._partition_entries(cache_dir)[0]
        victim.write_bytes(victim.read_bytes()[:20])

        warm, (hits, misses, _) = cached_run(
            path, "thread", cache_dir
        )
        assert (hits, misses) == (total - 1, 1)
        assert observables(warm) == observables(cold)

    def test_all_entries_garbage_recomputes_everything(self, tmp_path):
        path = corpus(tmp_path)
        cache_dir = tmp_path / "cache"
        cold, (_, total, _) = cached_run(path, "thread", cache_dir)
        for entry in (cache_dir / "objects").glob("*/*.sum"):
            entry.write_bytes(b"not a cache entry")

        warm, (hits, misses, _) = cached_run(
            path, "thread", cache_dir
        )
        assert (hits, misses) == (0, total)
        assert observables(warm) == observables(cold)


class TestReadOnlyCache:
    """A cache that is given is read and written.  A store that fails (a
    read-only directory, a full disk) is skipped, so a read-only cache
    still replays what it holds and recomputes the rest."""

    def test_failed_stores_still_replay(self, tmp_path, monkeypatch):
        from repro.store import summarycache

        path = corpus(tmp_path)
        cache_dir = tmp_path / "cache"
        _, (_, total, _) = cached_run(path, "thread", cache_dir)
        mutate_one_split(path, k=total // 2)

        def read_only(*args, **kwargs):
            raise OSError(errno.EROFS, "Read-only file system")

        monkeypatch.setattr(summarycache, "_write_file", read_only)
        warm, (hits, misses, stores) = cached_run(
            path, "thread", cache_dir
        )
        assert (hits, misses, stores) == (total - 1, 1, 0)
        assert observables(warm) == observables(uncached_run(path))


class TestReplayedTelemetry:
    """A replayed summary brings back content, never the stage times of
    the run that stored it."""

    def test_fully_cached_rerun_reports_no_phase_timings(self, tmp_path):
        path = corpus(tmp_path)
        cache = tmp_path / "cache"
        cold, _ = cached_run(path, "thread", cache,
                             collect_timings=True)
        assert cold.phase_timings.records == cold.record_count
        warm, (hits, misses, _) = cached_run(path, "thread", cache,
                                             collect_timings=True)
        assert (hits, misses) == (N_PARTS, 0)
        assert observables(warm) == observables(cold)
        assert warm.phase_timings is None

    def test_timed_run_replays_a_plain_runs_entries(self, tmp_path):
        """Timing collection is not part of the cache key: a replayed
        summary drops its timings anyway, so a ``--timings`` run hits
        every entry a plain run stored, and stores nothing."""
        path = corpus(tmp_path)
        cache = tmp_path / "cache"
        cold, (_, splits, _) = cached_run(path, "thread", cache)
        assert splits == N_PARTS
        timed, (hits, misses, stores) = cached_run(path, "thread", cache,
                                                   collect_timings=True)
        assert (hits, misses, stores) == (splits, 0, 0)
        assert observables(timed) == observables(cold)
        assert timed.phase_timings is None

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_partly_cached_run_times_only_what_it_mapped(self, tmp_path,
                                                         backend):
        path = corpus(tmp_path)
        cache = tmp_path / "cache"
        cached_run(path, backend, cache, collect_timings=True)
        mutate_one_split(path, 3)
        with Context(parallelism=4, backend=backend) as ctx:
            run = infer_ndjson_file(
                path, context=ctx, num_partitions=N_PARTS, permissive=True,
                min_split_bytes=MIN_SPLIT,
                summary_cache=cache, collect_timings=True,
            )
            stats = ctx.scheduler.stats
            assert (stats.cache_hits, stats.cache_misses) == (N_PARTS - 1, 1)
            assert sum(stats.tasks_per_worker.values()) == 1
        mapped = accumulate_ndjson_item(
            plan_splits(path, N_PARTS, min_split_bytes=MIN_SPLIT,
                        stable=True)[3],
            permissive=True,
        )
        assert run.phase_timings.records == mapped.record_count
        assert observables(run) == observables(uncached_run(path))
