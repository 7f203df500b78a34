"""Regenerate the format-2 golden checkpoint fixtures.

Run after an *intentional* on-disk format change, together with a
``FORMAT_VERSION`` (or ``STATS_BYTES_VERSION``) bump::

    PYTHONPATH=src python tests/store/regen_golden.py

Two fixtures are written from the same fixed corpus:

* ``tests/golden/checkpoint_format2`` — the stats-free layout;
* ``tests/golden/checkpoint_stats_format2`` — the stats-carrying layout
  (``stats_mode="sketches"``), pinning the canonical ``statistics.json``
  bytes and the manifest's stats fields.

``tests/golden/checkpoint`` and ``tests/golden/checkpoint_stats`` hold
the same corpus in format 1.  They are load fixtures, proving that
checkpoints written before format 2 keep loading, and this script never
touches them.
"""

from pathlib import Path

from repro.inference.kernel import accumulate_partition
from repro.store.checkpoint import save_checkpoint


def main() -> None:
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent.parent))
    from tests.conftest import make_corpus

    golden_root = Path(__file__).resolve().parent.parent / "golden"
    corpus = make_corpus(64, seed=7)

    summary = accumulate_partition(corpus)
    target = golden_root / "checkpoint_format2"
    checkpoint = save_checkpoint(target, summary)
    print(f"wrote {target} ({checkpoint.record_count} records, "
          f"{checkpoint.manifest.distinct_type_count} distinct types)")

    enriched = accumulate_partition(corpus, stats_mode="sketches")
    target = golden_root / "checkpoint_stats_format2"
    checkpoint = save_checkpoint(target, enriched)
    print(f"wrote {target} ({checkpoint.record_count} records, "
          f"stats {checkpoint.manifest.stats_mode})")


if __name__ == "__main__":
    main()
