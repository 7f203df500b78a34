"""Auditing a multi-source data lake: schemas, paths and presence stats.

Run with::

    python examples/data_lake_audit.py

A data engineer inherits four undocumented NDJSON feeds (the paper's four
datasets, synthesised here).  For each feed the audit answers the three
questions the paper's introduction poses:

  (i)  what fields exist anywhere in the collection?
  (ii) which of them are optional?
  (iii) which can always be selected?

plus the statistics enrichment of Section 7's future work: *how often* is
each optional field actually present.
"""

import tempfile
from pathlib import Path

from repro import Context, print_type
from repro.analysis.paths import iter_schema_paths
from repro.analysis.stats import succinctness_row
from repro.analysis.tables import render_table
from repro.datasets import DATASET_NAMES, write_dataset
from repro.inference import (
    fuse,
    infer_type,
    presence_report,
    run_inference,
)
from repro.jsonio import read_ndjson

RECORDS_PER_FEED = 400


def audit_feed(path: Path, name: str, ctx: Context) -> None:
    print(f"\n=== feed: {name} ({path.name}) ===")

    values = list(read_ndjson(path))

    # Schema inference on the engine, as a production audit would run it.
    schema = (
        ctx.ndjson_file(path, num_partitions=4)
        .map(infer_type)
        .tree_reduce(fuse)
    )

    row = succinctness_row(values, label=name)
    print(render_table(
        ["feed", "# types", "min", "max", "avg", "fused", "ratio"],
        [row.cells()],
    ))

    paths = list(iter_schema_paths(schema))
    mandatory = [p for p, guaranteed in paths if guaranteed]
    optional = [p for p, guaranteed in paths if not guaranteed]
    print(f"paths: {len(paths)} total, {len(mandatory)} always selectable, "
          f"{len(optional)} optional")

    # Presence statistics for the optional top-level fields.
    stats = run_inference(values, stats_mode="basic").stats
    report = presence_report(schema, stats)
    flaky = [
        entry for entry in report
        if entry.optional and entry.path.count(".") == 1 and entry.ratio > 0
    ]
    flaky.sort(key=lambda e: e.ratio)
    if flaky:
        print("least-present top-level fields:")
        for entry in flaky[:5]:
            print(f"  {entry.path:<28} present in {entry.ratio:6.1%} of records")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        with Context() as ctx:
            for name in sorted(DATASET_NAMES):
                path = tmp_path / f"{name}.ndjson"
                write_dataset(name, RECORDS_PER_FEED, path)
                audit_feed(path, name, ctx)


if __name__ == "__main__":
    main()
