"""Property harness for incremental schema maintenance.

The claims under test are the ones that make merge-on-update sound:

* **Partition-order invariance** — accumulating the same batches in any
  order yields the same schema and distinct set (Theorem 5.4).
* **Batch-split invariance** — inferring a corpus whole equals inferring
  any split of it and merging the partial summaries (Theorem 5.5); this
  is exactly what licenses both tree reduction and incremental updates.
* **Checkpoint round-trip identity** — persisting a summary and loading
  it back is invisible to fusion: ``fuse(load(save(S)), T) == fuse(S, T)``.
* **Byte-determinism** — the same data checkpoints to the same bytes,
  whatever partition order or backend produced the summary.
* **Batch-vs-update equivalence at the file level** — one full
  ``infer_ndjson_file`` run, a split-then-merge run, and a chain of
  ``--update`` style runs all print the identical schema, on both
  scheduler backends.
"""

import os
import tempfile

from hypothesis import given
from hypothesis import strategies as st
import pytest

from repro.core.printer import print_type
from repro.inference.kernel import (
    PartitionAccumulator,
    accumulate_partition,
    merge_summaries_full,
)
from repro.inference.pipeline import SchemaInferencer, infer_ndjson_file
from repro.store.checkpoint import (
    DIGEST_FILE,
    MANIFEST_FILE,
    SCHEMA_FILE,
    load_checkpoint,
    save_checkpoint,
)
from tests.conftest import (
    json_records,
    make_corpus,
    record_batches,
    write_corpus,
)


def _accumulate_batches(batches):
    acc = PartitionAccumulator()
    for batch in batches:
        acc.add_many(batch)
    return acc.summary()


class TestPartitionOrderInvariance:
    @given(record_batches, st.randoms(use_true_random=False))
    def test_any_batch_order_same_summary(self, batches, rng):
        forward = _accumulate_batches(batches)
        shuffled = list(batches)
        rng.shuffle(shuffled)
        permuted = _accumulate_batches(shuffled)
        assert forward.schema == permuted.schema
        assert forward.record_count == permuted.record_count
        assert forward.digest_set() == permuted.digest_set()

    @given(record_batches)
    def test_summary_merge_commutes(self, batches):
        summaries = [accumulate_partition(b) for b in batches]
        forward = merge_summaries_full(summaries)
        backward = merge_summaries_full(summaries[::-1])
        assert forward.schema == backward.schema
        assert forward.record_count == backward.record_count
        assert forward.digest_set() == backward.digest_set()


class TestBatchSplitInvariance:
    @given(
        st.lists(json_records, max_size=20),
        st.integers(min_value=0, max_value=20),
    )
    def test_split_then_merge_equals_whole(self, records, cut):
        cut = min(cut, len(records))
        whole = accumulate_partition(records)
        left = accumulate_partition(records[:cut])
        right = accumulate_partition(records[cut:])
        merged = merge_summaries_full([left, right])
        assert merged.schema == whole.schema
        assert merged.record_count == whole.record_count
        assert merged.digest_set() == whole.digest_set()

    @given(record_batches)
    def test_any_grouping_of_merges_agrees(self, batches):
        summaries = [accumulate_partition(b) for b in batches]
        left_fold = merge_summaries_full(summaries)
        pairwise = summaries
        while len(pairwise) > 1:
            pairwise = [
                merge_summaries_full(pairwise[i:i + 2])
                for i in range(0, len(pairwise), 2)
            ]
        tree = pairwise[0]
        assert tree.schema == left_fold.schema
        assert tree.record_count == left_fold.record_count

    @given(record_batches)
    def test_accumulator_adoption_equals_merge(self, batches):
        """add_summary (the update path's interning adoption) is exact."""
        summaries = [accumulate_partition(b) for b in batches]
        acc = PartitionAccumulator()
        for s in summaries:
            acc.add_summary(s)
        merged = merge_summaries_full(summaries)
        adopted = acc.summary()
        assert adopted.schema == merged.schema
        assert adopted.record_count == merged.record_count
        assert adopted.digest_set() == merged.digest_set()


class TestCheckpointRoundTripIdentity:
    @given(
        st.lists(json_records, max_size=12),
        st.lists(json_records, max_size=12),
    )
    def test_fuse_after_round_trip_is_invisible(self, first, second):
        s = accumulate_partition(first)
        t = accumulate_partition(second)
        with tempfile.TemporaryDirectory() as d:
            save_checkpoint(d, s)
            reloaded = load_checkpoint(d).summary
        direct = merge_summaries_full([s, t])
        via_disk = merge_summaries_full([reloaded, t])
        assert via_disk.schema == direct.schema
        assert via_disk.record_count == direct.record_count
        assert via_disk.digest_set() == direct.digest_set()

    @given(st.lists(json_records, max_size=12))
    def test_double_round_trip_is_fixpoint(self, records):
        summary = accumulate_partition(records)
        with tempfile.TemporaryDirectory() as d:
            save_checkpoint(os.path.join(d, "a"), summary)
            once = load_checkpoint(os.path.join(d, "a")).summary
            save_checkpoint(os.path.join(d, "b"), once)
            twice = load_checkpoint(os.path.join(d, "b")).summary
        assert once.schema == twice.schema
        assert once.distinct_digests == twice.distinct_digests


class TestByteDeterminism:
    @given(record_batches, st.randoms(use_true_random=False))
    def test_partition_order_never_reaches_disk(self, batches, rng):
        forward = _accumulate_batches(batches)
        shuffled = list(batches)
        rng.shuffle(shuffled)
        permuted = _accumulate_batches(shuffled)
        with tempfile.TemporaryDirectory() as d:
            save_checkpoint(os.path.join(d, "a"), forward)
            save_checkpoint(os.path.join(d, "b"), permuted)
            for name in (MANIFEST_FILE, SCHEMA_FILE, DIGEST_FILE):
                a = open(os.path.join(d, "a", name), "rb").read()
                b = open(os.path.join(d, "b", name), "rb").read()
                assert a == b, f"{name} depends on partition order"


@pytest.mark.parametrize("backend", ["thread", "process"])
class TestFileLevelEquivalence:
    """Full vs merged-batches vs update-chain, through the real pipeline."""

    CORPUS = make_corpus(120, seed=3)
    SPLITS = (0, 40, 80, 120)

    def _write_batches(self, tmp_path):
        paths = []
        for i, (lo, hi) in enumerate(zip(self.SPLITS, self.SPLITS[1:])):
            p = tmp_path / f"batch{i}.ndjson"
            write_corpus(p, self.CORPUS[lo:hi])
            paths.append(p)
        full = tmp_path / "full.ndjson"
        write_corpus(full, self.CORPUS)
        return full, paths

    def test_update_chain_matches_full_run(self, tmp_path, backend):
        from repro.engine.context import Context

        full, batches = self._write_batches(tmp_path)
        ckpt = tmp_path / "ckpt"
        with Context(parallelism=3, backend=backend) as ctx:
            reference = infer_ndjson_file(full, context=ctx)
            for i, batch in enumerate(batches):
                run = infer_ndjson_file(
                    batch,
                    context=ctx,
                    update_from=ckpt if i else None,
                    checkpoint_to=ckpt,
                )
        assert print_type(run.schema) == print_type(reference.schema)
        assert run.record_count == reference.record_count
        assert run.distinct_type_count == reference.distinct_type_count
        assert run.checkpoint_record_count == len(self.CORPUS) - (
            self.SPLITS[-1] - self.SPLITS[-2]
        )

    def test_inferencer_checkpoint_resume(self, tmp_path, backend):
        del backend  # the streaming inferencer is single-threaded
        ckpt = tmp_path / "ckpt"
        first = SchemaInferencer()
        first.add_many(self.CORPUS[:60])
        first.save_checkpoint(ckpt)
        resumed = SchemaInferencer.from_checkpoint(ckpt)
        resumed.add_many(self.CORPUS[60:])
        whole = SchemaInferencer()
        whole.add_many(self.CORPUS)
        assert resumed.schema == whole.schema
        assert resumed.record_count == whole.record_count
