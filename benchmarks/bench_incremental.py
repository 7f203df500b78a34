"""Incremental maintenance benchmark — update-in-place vs full recompute.

Three ways to obtain the schema of a dataset that arrived in batches,
all of which must agree *exactly* (Theorem 5.5 makes the equality a
theorem, this harness makes it a gate):

* **full** — one batch run over the concatenated file: the reference.
* **update** — a checkpointed chain: infer batch 0 with
  ``checkpoint_to``, then each later batch with ``update_from`` +
  ``checkpoint_to`` on the same directory.  Only the new batch is
  parsed each round; the stored summary rides the reduce.
* **merge** — shard independence: each batch checkpoints separately and
  ``merge_checkpoints`` unions the shards afterwards.

The headline number is the cost of maintaining the schema when one new
batch lands: the last ``update`` round versus recomputing ``full`` from
scratch — the update reads 1/k of the data, so it should approach ``k``
times cheaper as the corpus grows.

Run standalone for the full-size measurement (writes
``BENCH_incremental.json`` at the repository root)::

    python benchmarks/bench_incremental.py --n 100000

or as the CI equivalence gate (small n, exit non-zero unless every path
produced the identical schema and counts on both backends)::

    python benchmarks/bench_incremental.py --check --n 5000
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from _emit import envelope, write_report

DEFAULT_OUT = REPO_ROOT / "BENCH_incremental.json"

BACKENDS = ("thread", "process")
PATHS = ("full", "update", "merge")


def _digest(schema) -> str:
    from repro.core.printer import print_type

    return hashlib.sha256(print_type(schema).encode("utf-8")).hexdigest()


def _write_batches(tmp: str, n: int, batches: int, dataset: str):
    """One full file plus ``batches`` contiguous slices of it."""
    from repro.jsonio.ndjson import write_ndjson

    if dataset == "mixed":
        from repro.datasets import mixed

        records = mixed.generate_list(n)
    else:
        from repro.datasets import generate_list

        records = generate_list(dataset, n)
    full = os.path.join(tmp, "full.ndjson")
    write_ndjson(full, records)
    bounds = [round(i * n / batches) for i in range(batches + 1)]
    paths = []
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        p = os.path.join(tmp, f"batch{i}.ndjson")
        write_ndjson(p, records[lo:hi])
        paths.append(p)
    return full, paths


def _run_full(ctx, full: str) -> dict:
    from repro.inference.pipeline import infer_ndjson_file

    start = time.perf_counter()
    run = infer_ndjson_file(full, context=ctx)
    return {
        "path": "full",
        "seconds": round(time.perf_counter() - start, 4),
        "record_count": run.record_count,
        "distinct_type_count": run.distinct_type_count,
        "schema_sha256": _digest(run.schema),
    }


def _run_update(ctx, batch_paths, tmp: str) -> dict:
    from repro.inference.pipeline import infer_ndjson_file

    ckpt = os.path.join(tmp, f"ckpt-update-{ctx.backend}")
    start = time.perf_counter()
    last_seconds = 0.0
    for i, batch in enumerate(batch_paths):
        round_start = time.perf_counter()
        run = infer_ndjson_file(
            batch,
            context=ctx,
            update_from=ckpt if i else None,
            checkpoint_to=ckpt,
        )
        last_seconds = time.perf_counter() - round_start
    return {
        "path": "update",
        "seconds": round(time.perf_counter() - start, 4),
        "last_batch_seconds": round(last_seconds, 4),
        "record_count": run.record_count,
        "distinct_type_count": run.distinct_type_count,
        "schema_sha256": _digest(run.schema),
    }


def _run_merge(ctx, batch_paths, tmp: str) -> dict:
    from repro.inference.pipeline import infer_ndjson_file

    shards = []
    start = time.perf_counter()
    for i, batch in enumerate(batch_paths):
        shard = os.path.join(tmp, f"ckpt-shard-{ctx.backend}-{i}")
        infer_ndjson_file(batch, context=ctx, checkpoint_to=shard)
        shards.append(shard)
    merge_start = time.perf_counter()
    merged = ctx.merge_checkpoints(shards)
    merge_seconds = time.perf_counter() - merge_start
    return {
        "path": "merge",
        "seconds": round(time.perf_counter() - start, 4),
        "merge_seconds": round(merge_seconds, 4),
        "record_count": merged.record_count,
        "distinct_type_count": merged.summary.distinct_type_count,
        "schema_sha256": _digest(merged.schema),
    }


def run_backend(backend: str, full, batch_paths, tmp, partitions) -> dict:
    from repro.engine import Context

    with Context(parallelism=partitions, backend=backend) as ctx:
        rows = [
            _run_full(ctx, full),
            _run_update(ctx, batch_paths, tmp),
            _run_merge(ctx, batch_paths, tmp),
        ]
    identical = (
        len({r["schema_sha256"] for r in rows}) == 1
        and len({r["record_count"] for r in rows}) == 1
        and len({r["distinct_type_count"] for r in rows}) == 1
    )
    by_path = {r["path"]: r for r in rows}
    update_cost = by_path["update"]["last_batch_seconds"]
    by_path["update"]["update_speedup_vs_full"] = round(
        by_path["full"]["seconds"] / update_cost, 3
    ) if update_cost else None
    return {"backend": backend, "results_identical": identical,
            "paths": rows}


def run_benchmark(
    n: int,
    batches: int = 3,
    partitions: int = 4,
    out_path: Path | str | None = DEFAULT_OUT,
    dataset: str = "github",
) -> dict:
    import tempfile

    backends = []
    identical = True
    with tempfile.TemporaryDirectory(prefix="bench_incremental_") as tmp:
        full, batch_paths = _write_batches(tmp, n, batches, dataset)
        for backend in BACKENDS:
            row = run_backend(backend, full, batch_paths, tmp, partitions)
            identical &= row["results_identical"]
            backends.append(row)
    reference = backends[0]["paths"][0]["schema_sha256"]
    identical &= all(
        r["schema_sha256"] == reference
        for row in backends for r in row["paths"]
    )
    report = envelope(
        "incremental", n,
        schema_sha256=reference,
        results_identical=identical,
        dataset=dataset,
        batches=batches,
        partitions=partitions,
        backends=backends,
    )
    if out_path is not None:
        write_report(report, out_path)
    return report


def print_report(report: dict) -> None:
    from repro.analysis.tables import render_table

    for backend_row in report["backends"]:
        rows = [
            [
                r["path"],
                f"{r['seconds']:.2f}s",
                f"{r.get('last_batch_seconds', '-')}",
                f"{r['record_count']:,}",
                str(r["distinct_type_count"]),
                r["schema_sha256"][:12],
            ]
            for r in backend_row["paths"]
        ]
        print()
        print(render_table(
            ["path", "wall", "last batch", "records", "distinct",
             "schema sha"],
            rows,
            title=(
                f"incremental maintenance — {report['dataset']} "
                f"x{report['n']:,}, {report['batches']} batches, "
                f"{backend_row['backend']} backend"
            ),
        ))
        update = next(
            r for r in backend_row["paths"] if r["path"] == "update"
        )
        speedup = update.get("update_speedup_vs_full")
        if speedup:
            print(f"one-batch update vs full recompute: {speedup:.2f}x")
    print("results identical across paths and backends: "
          f"{report['results_identical']}")


def check_equivalence(n: int, batches: int = 3, partitions: int = 4) -> bool:
    """CI gate: full == update-chain == shard-merge, on both backends.

    Runs three corpora on purpose: ``github`` is the realistic feed (a
    small distinct set maintained over many records), ``mixed`` is
    the distinct-type stress case (nearly every record a new type), the
    shape most likely to expose a checkpoint dedup or round-trip bug,
    and ``wikidata`` is the key-explosion case, whose schema is wide
    enough that the kernel switches to its logarithmic fold order.
    """
    ok = True
    for dataset in ("github", "mixed", "wikidata"):
        report = run_benchmark(
            n, batches, partitions, out_path=None, dataset=dataset
        )
        print_report(report)
        ok &= report["results_identical"]
    return ok


def test_bench_incremental(benchmark):
    """Equivalence at the ladder scale, plus a stable in-process number:
    one update round over a fixed small batch."""
    from conftest import max_scale

    n = max_scale()
    report = run_benchmark(n, out_path=None)
    print_report(report)
    assert report["results_identical"]

    import tempfile

    from repro.engine import Context
    from repro.inference.pipeline import infer_ndjson_file

    with tempfile.TemporaryDirectory(prefix="bench_incremental_") as tmp:
        full, batch_paths = _write_batches(tmp, min(n, 2000), 2)
        ckpt = os.path.join(tmp, "ckpt")
        with Context(parallelism=2) as ctx:
            infer_ndjson_file(batch_paths[0], context=ctx,
                              checkpoint_to=ckpt)

            def update_round():
                return infer_ndjson_file(
                    batch_paths[1], context=ctx,
                    update_from=ckpt,
                )

            benchmark.pedantic(update_round, rounds=3, iterations=1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=100_000,
                        help="dataset size in records")
    parser.add_argument("--batches", type=int, default=3)
    parser.add_argument("--partitions", type=int, default=4)
    parser.add_argument("--dataset", default="github",
                        choices=["github", "twitter", "wikidata",
                                 "nytimes", "mixed"])
    parser.add_argument("--out", default=os.fspath(DEFAULT_OUT))
    parser.add_argument("--check", action="store_true",
                        help="equivalence gate: exit 1 unless full, "
                             "update and merge agree on both backends")
    args = parser.parse_args()

    if args.check:
        ok = check_equivalence(args.n, args.batches, args.partitions)
        print("incremental equivalence:", "OK" if ok else "MISMATCH")
        return 0 if ok else 1

    report = run_benchmark(
        args.n, args.batches, args.partitions, out_path=args.out,
        dataset=args.dataset,
    )
    print_report(report)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
