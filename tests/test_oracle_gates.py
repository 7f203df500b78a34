"""Every configuration point of the NDJSON pipeline against one oracle.

Splitting, backends, cache replay, checkpoint updates and shard merges
all regroup one ``Fuse`` fold, which associativity and commutativity
(Theorems 5.4-5.5) make safe.  So each test here runs one configuration
over a paper corpus and compares it with the pure fold
``fuse_all(infer_type(v))`` over C-``json``-decoded values: schema
bytes, record count and distinct count.  Statistics bytes come from a
sequential ``PartitionAccumulator(stats_mode=...).add`` fold over the
same values, which is what the map phase does per record.

Corpora come from :mod:`repro.datasets` with fixed seeds, sized so each
check still exercises what it guards: at least four byte splits, at
least two cached splits, and a ``wikidata`` schema past the kernel's
2,000-node logarithmic-fold threshold.  The crash/resume points live in
``tests/inference/test_resume.py``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import pytest

from repro.core.printer import print_type
from repro.datasets import generate_list, mixed
from repro.engine import Context
from repro.engine.scheduler import BACKENDS
from repro.inference import statistics
from repro.inference.fusion import fuse_all
from repro.inference.infer import infer_type
from repro.inference.kernel import _LOG_FOLD_THRESHOLD, PartitionAccumulator
from repro.inference.pipeline import infer_ndjson_file
from repro.jsonio.ndjson import write_ndjson

#: Records per corpus: small enough for the pure fold, large enough for
#: every split and cache count asserted below.
SIZES = {"github": 300, "mixed": 1500, "wikidata": 60}

#: Worker count of every parallel context here.
WORKERS = 2


@dataclass(frozen=True)
class Outcome:
    """What a run must agree on with the oracle."""

    schema: str
    records: int
    distinct: int


def _values(path) -> list:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def oracle(path) -> Outcome:
    """The pure fold over ``path``'s C-decoded values."""
    types = [infer_type(v) for v in _values(path)]
    schema = fuse_all(types)
    return Outcome(print_type(schema), len(types), len(set(types)))


def stats_oracle(path, stats_mode: str) -> bytes:
    """The statistics bytes of a sequential fold over the values."""
    acc = PartitionAccumulator(stats_mode=stats_mode)
    for value in _values(path):
        acc.add(value)
    return acc.stats.to_bytes()


def outcome(run) -> Outcome:
    return Outcome(print_type(run.schema), run.record_count,
                   run.distinct_type_count)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """``corpus(name)`` -> ``(path, oracle)``, written and folded once."""
    root = tmp_path_factory.mktemp("oracle")
    made: dict = {}

    def get(name: str):
        if name not in made:
            n = SIZES[name]
            records = (mixed.generate_list(n) if name == "mixed"
                       else generate_list(name, n, seed=0))
            path = root / f"{name}.ndjson"
            write_ndjson(path, records)
            made[name] = (path, oracle(path))
        return made[name]

    return get


@pytest.fixture(scope="module")
def contexts():
    """One long-lived context per backend: every job after the first
    runs on the workers the first one started."""
    opened = {b: Context(parallelism=WORKERS, backend=b) for b in BACKENDS}
    yield opened
    for ctx in opened.values():
        ctx.stop()


def run_on(ctx, path, **kwargs):
    """One job on ``ctx`` with fresh counters; returns (run, stats)."""
    ctx.scheduler.stats.reset()
    run = infer_ndjson_file(path, context=ctx, **kwargs)
    return run, ctx.scheduler.stats


class TestParseLanes:
    """Was the ``mapfast-smoke`` CI job: the decode lane on ``mixed``.
    The ids keep the ``parse_lane`` values that job ran; the knob is
    gone and each case runs the one lane."""

    @pytest.mark.parametrize("lane,backend", [
        ("strict", "thread"), ("fast", "thread"), ("fast", "process"),
    ])
    def test_lane_matches_oracle(self, corpus, contexts, lane, backend):
        path, expected = corpus("mixed")
        run, stats = run_on(
            contexts[backend], path, num_partitions=4, min_split_bytes=1,
        )
        assert stats.tasks_completed == 4
        assert outcome(run) == expected


class TestSplitModes:
    """Was the ``split-equivalence`` CI job: both split modes on both
    backends."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("split_mode", ["lines", "bytes"])
    @pytest.mark.parametrize("name", ["mixed", "github"])
    def test_split_mode_matches_oracle(self, corpus, contexts, name,
                                       split_mode, backend):
        path, expected = corpus(name)
        run, stats = run_on(
            contexts[backend], path, num_partitions=8,
            split_mode=split_mode, min_split_bytes=1,
        )
        assert stats.tasks_completed == 8
        assert outcome(run) == expected


class TestManySplits:
    """Was the ``scaling-smoke`` CI job: eight byte splits per worker,
    twice on one context, so the second job runs on started workers."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("name", ["github", "mixed"])
    def test_consecutive_jobs_match_oracle(self, corpus, contexts, name,
                                           backend):
        path, expected = corpus(name)
        for _ in range(2):
            run, stats = run_on(
                contexts[backend], path, num_partitions=8 * WORKERS,
                split_mode="bytes", min_split_bytes=1,
            )
            assert stats.tasks_completed == 8 * WORKERS
            assert outcome(run) == expected

    def test_workers_map_and_the_driver_reduces(self, corpus, contexts):
        """48 partials fold at the driver: the run is one scheduler job
        of 48 map tasks, and no merge task follows it."""
        path, expected = corpus("github")
        run, stats = run_on(
            contexts["thread"], path, num_partitions=48,
            split_mode="bytes", min_split_bytes=1,
        )
        assert outcome(run) == expected
        assert (stats.jobs, stats.tasks_completed) == (1, 48)


class TestIncremental:
    """Was the ``incremental-equivalence`` CI job: a full run, a
    three-batch update chain and a three-shard checkpoint merge."""

    BATCHES = 3

    @pytest.fixture(scope="class")
    def batches(self, corpus, tmp_path_factory):
        root = tmp_path_factory.mktemp("batches")
        made = {}
        for name in ("github", "mixed", "wikidata"):
            path, _ = corpus(name)
            lines = path.read_text(encoding="utf-8").splitlines(True)
            bounds = [round(i * len(lines) / self.BATCHES)
                      for i in range(self.BATCHES + 1)]
            made[name] = []
            for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
                batch = root / f"{name}-{i}.ndjson"
                batch.write_text("".join(lines[lo:hi]), encoding="utf-8")
                made[name].append(batch)
        return made

    def test_wikidata_crosses_the_log_fold_threshold(self, batches):
        for batch in batches["wikidata"]:
            run = infer_ndjson_file(batch)
            assert run.schema.size > _LOG_FOLD_THRESHOLD
            assert outcome(run) == oracle(batch)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("name", ["github", "mixed", "wikidata"])
    def test_full_update_and_merge_match_oracle(
        self, corpus, contexts, batches, tmp_path, name, backend
    ):
        path, expected = corpus(name)
        ctx = contexts[backend]
        full, _ = run_on(ctx, path)
        assert outcome(full) == expected

        chain = tmp_path / "chain"
        for i, batch in enumerate(batches[name]):
            update, _ = run_on(ctx, batch, checkpoint_to=chain,
                               update_from=chain if i else None)
        assert outcome(update) == expected

        shards = []
        for i, batch in enumerate(batches[name]):
            shards.append(tmp_path / f"shard{i}")
            run_on(ctx, batch, checkpoint_to=shards[-1])
        merged = ctx.merge_checkpoints(shards)
        assert Outcome(print_type(merged.schema), merged.record_count,
                       merged.summary.distinct_type_count) == expected


class TestSummaryCache:
    """Was the ``cache-smoke`` CI job: a cold run, then an identical
    rerun that replays every split from the cache."""

    @pytest.mark.parametrize("name", ["github", "mixed"])
    def test_rerun_replays_and_matches_oracle(self, corpus, contexts,
                                              tmp_path, name):
        path, expected = corpus(name)
        kwargs = dict(
            num_partitions=4 * WORKERS, split_mode="bytes",
            min_split_bytes=1 << 14, summary_cache=tmp_path / "cache",
        )
        cold, stats = run_on(contexts["thread"], path, **kwargs)
        assert outcome(cold) == expected
        assert stats.cache_hits == 0 and stats.cache_misses >= 2
        splits = stats.cache_misses
        warm, stats = run_on(contexts["thread"], path, **kwargs)
        assert outcome(warm) == expected
        assert (stats.cache_hits, stats.cache_misses) == (splits, 0)
        assert stats.tasks_completed == 0


class TestStatistics:
    """Was the ``stats-smoke`` CI job.  Its timing bound (stats off
    within 2% of no argument) is the deterministic check that stats off
    builds no bundle and observes nothing; the end-to-end stats-off
    workloads guard the speed."""

    @pytest.mark.parametrize("mode", [None, "off", "basic", "sketches"])
    def test_schema_is_the_same_in_every_mode(self, corpus, mode):
        path, expected = corpus("mixed")
        kwargs = {} if mode is None else {"stats_mode": mode}
        run = infer_ndjson_file(path, **kwargs)
        assert outcome(run) == expected
        assert (run.stats is None) == (mode in (None, "off"))

    @pytest.mark.parametrize("name", ["github", "mixed"])
    def test_bundles_match_oracle_on_every_backend(self, corpus, contexts,
                                                   name):
        path, expected = corpus(name)
        want = stats_oracle(path, "sketches")
        sequential = infer_ndjson_file(path, stats_mode="sketches")
        assert outcome(sequential) == expected
        assert sequential.stats.record_count == expected.records
        assert sequential.stats.to_bytes() == want
        for backend in BACKENDS:
            run, stats = run_on(contexts[backend], path, num_partitions=4,
                                min_split_bytes=1, stats_mode="sketches")
            assert stats.stats_bundles_merged == 4
            assert outcome(run) == expected
            assert run.stats.to_bytes() == want

    def test_distinct_estimate_within_five_percent(self, tmp_path):
        n = 5000
        path = tmp_path / "ids.ndjson"
        write_ndjson(path, ({"id": i} for i in range(n)))
        run = infer_ndjson_file(path, stats_mode="sketches")
        assert run.stats.record_count == run.record_count == n
        estimate = run.stats.paths["$.id"].values.hll.estimate()
        assert abs(estimate - n) / n < 0.05

    def test_stats_off_builds_and_observes_nothing(self, corpus, contexts,
                                                   monkeypatch):
        counts = {"bundles": 0, "observed": 0}
        bundle_init = statistics.StatsBundle.__init__
        observe = statistics.StatsBundle.observe

        def counting_init(self, *args, **kwargs):
            counts["bundles"] += 1
            bundle_init(self, *args, **kwargs)

        def counting_observe(self, *args, **kwargs):
            counts["observed"] += 1
            observe(self, *args, **kwargs)

        monkeypatch.setattr(statistics.StatsBundle, "__init__",
                            counting_init)
        monkeypatch.setattr(statistics.StatsBundle, "observe",
                            counting_observe)
        path, expected = corpus("mixed")
        sequential = infer_ndjson_file(path)
        partitioned, _ = run_on(contexts["thread"], path,
                                num_partitions=4, min_split_bytes=1)
        assert outcome(sequential) == outcome(partitioned) == expected
        assert sequential.stats is None and partitioned.stats is None
        assert counts == {"bundles": 0, "observed": 0}
        infer_ndjson_file(path, stats_mode="basic")
        assert counts["bundles"] > 0
        assert counts["observed"] == expected.records
