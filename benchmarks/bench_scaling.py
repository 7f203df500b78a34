"""Multi-core scaling benchmark — warm worker pool, batched dispatch,
compact summary wire format.

One end-to-end ``infer_ndjson_file`` measurement per variant, where a
variant is ``backend x workers x pool``:

* ``backend`` — ``thread`` / ``process`` scheduler backends.
* ``workers`` — pool width (default sweep 1/2/4/8).
* ``pool`` — ``cold`` is the seed dispatch path (one task per
  partition, no warm worker state) and ``warm`` is the warm-pool path:
  per-worker kernel state (interner, fusion memo, key cache) persists
  across tasks and jobs and small partitions are folded worker-locally
  in batches.  Both prestart the pool, and on the process backend both
  return summaries in the compact wire format.  Warm variants measure
  the *second* job on the context — that is the steady state a
  long-lived pool runs in.

Every variant runs in a fresh subprocess (no inherited heap or
interpreter state) and reports wall-clock records/s plus the
scheduler's warm-state and wire-format telemetry.  The report gates on
``results_identical``: every variant — both pools, both backends, every
width — must produce the same schema digest, record count and distinct
count as the sequential reference.

Honesty note: per-backend parallel efficiency is computed as
``rps(w) / (w * rps(1))`` from measured wall clocks and the report
records the *available* CPU count (``os.sched_getaffinity``, not just
``os.cpu_count``).  On a single-CPU host no backend can show real
multi-worker speedup; the efficiency table then mostly documents the
scheduling overhead of widening the pool, and the headline comparison
is warm-vs-cold at each width instead.

Run standalone for the full-size measurement (writes
``BENCH_scaling.json`` at the repository root)::

    python benchmarks/bench_scaling.py --n 100000

or as the CI equivalence gate (small n, both corpora, exit non-zero
unless the batched+warm path matches the seed path exactly)::

    python benchmarks/bench_scaling.py --check --n 5000
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from _emit import cpu_count, envelope, write_report

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_OUT = REPO_ROOT / "BENCH_scaling.json"
MAPFAST_PATH = REPO_ROOT / "BENCH_mapfast.json"

BACKENDS = ("thread", "process")
POOLS = ("cold", "warm")
DEFAULT_WIDTHS = (1, 2, 4, 8)


def _variant_kwargs(pool: str, workers: int) -> dict:
    """``infer_ndjson_file`` knobs for one pool flavour.

    ``cold`` pins the historical dispatch shape (one task per
    partition); ``warm`` leaves batching on its automatic default.
    Both plan ``8 x workers`` byte-range splits so the batcher has
    small partitions to fold.
    """
    kwargs = dict(
        num_partitions=workers * 8,
        split_mode="bytes",
        min_split_bytes=1,
    )
    if pool == "cold":
        kwargs.update(batch_size=1)
    return kwargs


def _measure(backend: str, workers: int, pool: str, data: str) -> dict:
    from repro.core.printer import print_type
    from repro.engine import Context
    from repro.inference.pipeline import infer_ndjson_file

    warm = pool == "warm"
    kwargs = _variant_kwargs(pool, workers)
    with Context(parallelism=workers, backend=backend, warm=warm) as ctx:
        start = time.perf_counter()
        ctx.prestart()
        prestart_seconds = time.perf_counter() - start
        if warm:
            # The measured job is the second on the context: worker
            # state built by the first job is reused, which is the
            # steady state of a long-lived pool.
            infer_ndjson_file(data, context=ctx, **kwargs)
            ctx.scheduler.stats.reset()
        start = time.perf_counter()
        run = infer_ndjson_file(data, context=ctx, **kwargs)
        seconds = time.perf_counter() - start
        stats = ctx.scheduler.stats
    digest = hashlib.sha256(print_type(run.schema).encode()).hexdigest()
    return {
        "seconds": round(seconds, 4),
        "prestart_seconds": round(prestart_seconds, 4),
        "records_per_s": round(run.record_count / seconds),
        "record_count": run.record_count,
        "distinct_type_count": run.distinct_type_count,
        "schema_sha256": digest,
        "tasks": sum(stats.tasks_per_worker.values()),
        "workers_used": len(stats.tasks_per_worker),
        "warm_state_builds": stats.warm_state_builds,
        "warm_state_reuses": stats.warm_state_reuses,
        "summary_wire_bytes": stats.summary_wire_bytes_decoded,
    }


def run_variant(backend: str, workers: int, pool: str, data: str) -> dict:
    """One timed variant; meant to run in a fresh process."""
    row = _measure(backend, workers, pool, data)
    row.update(backend=backend, workers=workers, pool=pool)
    return row


def _run_in_subprocess(
    backend: str, workers: int, pool: str, data: str
) -> dict:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [
            sys.executable, os.fspath(Path(__file__).resolve()),
            "--variant-backend", backend, "--variant-workers", str(workers),
            "--variant-pool", pool, "--data", data,
        ],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


def _sequential_reference(data: str) -> dict:
    from repro.core.printer import print_type
    from repro.inference.pipeline import infer_ndjson_file

    run = infer_ndjson_file(data)
    return {
        "schema_sha256": hashlib.sha256(
            print_type(run.schema).encode()
        ).hexdigest(),
        "record_count": run.record_count,
        "distinct_type_count": run.distinct_type_count,
    }


def _mapfast_baseline() -> "dict | None":
    """The recorded fast-thread row of BENCH_mapfast.json, if present."""
    if not MAPFAST_PATH.exists():
        return None
    report = json.loads(MAPFAST_PATH.read_text())
    for row in report.get("variants", ()):
        if row.get("variant") == "fast-thread":
            return {
                "n": report.get("n"),
                "records_per_s": row.get("records_per_s"),
                "seconds": row.get("seconds"),
            }
    return None


def _write_corpus(dataset: str, n: int, path: str) -> None:
    """Write ``n`` records of a corpus; ``mixed`` is the heterogeneous
    generator outside the named-dataset registry."""
    from repro.jsonio.ndjson import write_ndjson

    if dataset == "mixed":
        from repro.datasets import mixed

        write_ndjson(path, mixed.generate(n))
        return
    from repro.datasets.base import write_dataset

    write_dataset(dataset, n, path, seed=0)


def run_benchmark(
    n: int,
    widths: "tuple[int, ...]" = DEFAULT_WIDTHS,
    out_path: "Path | str | None" = DEFAULT_OUT,
    dataset: str = "mixed",
) -> dict:
    import tempfile

    with tempfile.TemporaryDirectory(prefix="bench_scaling_") as tmp:
        data = os.path.join(tmp, f"{dataset}.ndjson")
        _write_corpus(dataset, n, data)
        reference = _sequential_reference(data)
        rows = [
            _run_in_subprocess(backend, workers, pool, data)
            for backend in BACKENDS
            for workers in widths
            for pool in POOLS
        ]

    identical = all(
        row["schema_sha256"] == reference["schema_sha256"]
        and row["record_count"] == reference["record_count"]
        and row["distinct_type_count"] == reference["distinct_type_count"]
        for row in rows
    )
    by_key = {(r["backend"], r["workers"], r["pool"]): r for r in rows}
    for row in rows:
        base = by_key[(row["backend"], widths[0], row["pool"])]
        row["speedup_vs_1_worker"] = round(
            row["records_per_s"] / base["records_per_s"], 3
        )
        row["efficiency"] = round(
            row["records_per_s"]
            / (row["workers"] / widths[0] * base["records_per_s"]),
            3,
        )
        cold = by_key[(row["backend"], row["workers"], "cold")]
        row["speedup_vs_cold"] = round(
            row["records_per_s"] / cold["records_per_s"], 3
        )

    baseline = _mapfast_baseline()
    best = max(rows, key=lambda r: r["records_per_s"])
    report = envelope(
        "scaling",
        n,
        schema_sha256=reference["schema_sha256"],
        results_identical=identical,
        dataset=dataset,
        widths=list(widths),
        mapfast_fast_thread_baseline=baseline,
        best_variant=(
            f"{best['backend']}-{best['workers']}-{best['pool']}"
        ),
        best_records_per_s=best["records_per_s"],
        best_speedup_vs_mapfast_fast_thread=(
            round(best["records_per_s"] / baseline["records_per_s"], 3)
            if baseline and baseline.get("records_per_s") else None
        ),
        process_efficiency_at_4=(
            by_key[("process", 4, "warm")]["efficiency"]
            if ("process", 4, "warm") in by_key else None
        ),
        note=(
            f"measured with {cpu_count()} CPU(s) available to the "
            "process; with a single CPU, multi-worker efficiency is "
            "bounded by 1/workers regardless of backend, so the "
            "warm-vs-cold column (same width, same backend) is the "
            "meaningful comparison on this host"
        ),
        variants=rows,
    )
    if out_path is not None:
        write_report(report, out_path)
    return report


def print_report(report: dict) -> None:
    from repro.analysis.tables import render_table

    rows = [
        [
            f"{r['backend']}-{r['workers']}-{r['pool']}",
            f"{r['seconds']:.2f}s",
            f"{r['records_per_s']:,}",
            f"{r['speedup_vs_1_worker']:.2f}x",
            f"{r['efficiency']:.2f}",
            f"{r['speedup_vs_cold']:.2f}x",
            f"{r['warm_state_reuses']}",
            f"{r['summary_wire_bytes']:,}",
        ]
        for r in report["variants"]
    ]
    print(render_table(
        ["variant", "wall", "rec/s", "vs 1w", "eff", "vs cold",
         "warm reuses", "wire B"],
        rows,
        title=(
            f"scaling — {report['dataset']} x{report['n']:,}, "
            f"{report['cpu_count']} CPU(s) available"
        ),
    ))
    print(f"results identical across variants: "
          f"{report['results_identical']}")
    if report["best_speedup_vs_mapfast_fast_thread"] is not None:
        print(
            f"best: {report['best_variant']} at "
            f"{report['best_records_per_s']:,} rec/s "
            f"({report['best_speedup_vs_mapfast_fast_thread']}x the "
            "recorded BENCH_mapfast fast-thread rate)"
        )


def check_equivalence(n: int, workers: int = 2) -> bool:
    """CI gate: batched+warm equals the seed path, both backends.

    Runs in-process (small ``n``) over both a homogeneous corpus
    (``github``) and the worst-case heterogeneous one (``mixed``),
    comparing every variant against the sequential reference.
    """
    import tempfile

    ok = True
    for dataset in ("github", "mixed"):
        with tempfile.TemporaryDirectory(prefix="bench_scaling_") as tmp:
            data = os.path.join(tmp, f"{dataset}.ndjson")
            _write_corpus(dataset, n, data)
            reference = _sequential_reference(data)
            for backend in BACKENDS:
                for pool in POOLS:
                    row = run_variant(backend, workers, pool, data)
                    same = (
                        row["schema_sha256"] == reference["schema_sha256"]
                        and row["record_count"]
                        == reference["record_count"]
                        and row["distinct_type_count"]
                        == reference["distinct_type_count"]
                    )
                    status = "ok" if same else "MISMATCH"
                    print(
                        f"{dataset:>7} {backend:>7}-{workers}-{pool:<4} "
                        f"{row['records_per_s']:>8,} rec/s  "
                        f"wire {row['summary_wire_bytes']:>8,} B  {status}"
                    )
                    ok &= same
    print(f"scaling equivalence: {'PASS' if ok else 'FAIL'}")
    return ok


def test_bench_scaling(benchmark):
    """Equivalence across the dispatch matrix, and the warm pool's win.

    At full scale the warm process pool must beat the cold seed path at
    the same width; at any scale every variant must be bit-identical to
    the sequential reference.
    """
    from conftest import max_scale

    n = min(max_scale(), 20_000)
    assert check_equivalence(max(n // 10, 500))
    # Stable in-process number: one warm second job at a small size.
    import tempfile

    from repro.engine import Context
    from repro.inference.pipeline import infer_ndjson_file

    with tempfile.TemporaryDirectory(prefix="bench_scaling_") as tmp:
        data = os.path.join(tmp, "mixed.ndjson")
        _write_corpus("mixed", min(n, 2000), data)
        with Context(parallelism=2) as ctx:
            infer_ndjson_file(data, context=ctx, num_partitions=16,
                              split_mode="bytes", min_split_bytes=1)
            benchmark.pedantic(
                lambda: infer_ndjson_file(
                    data, context=ctx, num_partitions=16,
                    split_mode="bytes", min_split_bytes=1,
                ),
                rounds=3, iterations=1,
            )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=100_000,
                        help="dataset size in records")
    parser.add_argument("--widths", type=int, nargs="+",
                        default=list(DEFAULT_WIDTHS),
                        help="worker-pool widths to sweep")
    parser.add_argument("--dataset", default="mixed")
    parser.add_argument("--out", default=os.fspath(DEFAULT_OUT))
    parser.add_argument("--check", action="store_true",
                        help="equivalence gate: exit 1 unless every "
                             "variant matches the sequential reference")
    parser.add_argument("--variant-backend", choices=BACKENDS,
                        help=argparse.SUPPRESS)  # internal: subprocess mode
    parser.add_argument("--variant-workers", type=int,
                        help=argparse.SUPPRESS)
    parser.add_argument("--variant-pool", choices=POOLS,
                        help=argparse.SUPPRESS)
    parser.add_argument("--data", help=argparse.SUPPRESS)
    args = parser.parse_args()

    sys.path.insert(0, str(REPO_ROOT / "src"))
    if args.variant_backend:
        print(json.dumps(run_variant(
            args.variant_backend, args.variant_workers,
            args.variant_pool, args.data,
        )))
        return 0
    if args.check:
        return 0 if check_equivalence(args.n) else 1
    report = run_benchmark(args.n, tuple(args.widths), out_path=args.out,
                           dataset=args.dataset)
    print_report(report)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
