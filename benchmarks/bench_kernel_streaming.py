"""Streaming-kernel benchmark — kernel on threads vs. kernel on processes.

Compares two ways of running ``run_inference`` over the adversarial
``mixed`` dataset (~91% distinct types, the worst case for dedup-based
pipelines):

* ``kernel-thread``   — the streaming partition kernel on the thread pool:
  one pass per partition through a :class:`PartitionAccumulator`.
* ``kernel-process``  — the same kernel on the process pool
  (``backend="process"``), shipping raw partitions to worker processes.

Speedups are taken against ``kernel-thread``.  Each variant runs in a
*fresh subprocess* so no variant inherits the previous one's heap (a
forked worker pool copy-on-writes whatever garbage the parent
accumulated, which can easily swamp the effect being measured).  The
results — including a schema digest used to assert both variants
produce bit-identical ``InferenceRun`` outputs — are written to
``BENCH_kernel.json`` at the repository root.

Run standalone for the full-size measurement::

    python benchmarks/bench_kernel_streaming.py --n 100000

or through the harness (scales with ``REPRO_SCALE``)::

    REPRO_SCALE=100000 pytest benchmarks/bench_kernel_streaming.py --benchmark-only

The ``--mapfast`` mode benchmarks the two-lane map phase instead: the
same NDJSON file (written once, shared by every variant) is inferred
end-to-end with ``infer_ndjson_file`` under each parse lane and backend,
with per-phase (parse/type/fuse) attribution from the kernel's
:class:`PhaseTimings` in every row.  Results go to ``BENCH_mapfast.json``
with speedups against the ``kernel-thread`` (strict lane, thread pool)
baseline; ``--check`` exits non-zero unless every lane produced the same
``schema_sha256`` and counts — the CI smoke job runs exactly that at a
small ``--n``.
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

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_OUT = REPO_ROOT / "BENCH_kernel.json"


def _cpu_count() -> int:
    """CPUs *available* to this process (affinity-aware), not installed."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return len(getaffinity(0))
        except OSError:  # pragma: no cover
            pass
    return os.cpu_count() or 1
MAPFAST_OUT = REPO_ROOT / "BENCH_mapfast.json"

VARIANTS = ("kernel-thread", "kernel-process")

#: Map-phase lane benchmark: variant name -> (parse_lane, backend).
#: ``kernel-thread`` is the PR 1 baseline — the strict pure-Python
#: tokenize -> parse -> type pipeline on the thread pool.
MAPFAST_VARIANTS = {
    "kernel-thread": ("strict", "thread"),
    "fast-thread": ("fast", "thread"),
    "fast-process": ("fast", "process"),
}

_PRINTED = False


def run_variant(variant: str, n: int, partitions: int) -> dict:
    """One timed ``run_inference`` call; meant to run in a fresh process."""
    from repro.core.printer import print_type
    from repro.datasets import mixed
    from repro.engine import Context
    from repro.inference.pipeline import run_inference

    backend = "process" if variant == "kernel-process" else "thread"

    values = mixed.generate_list(n)
    with Context(parallelism=partitions, backend=backend) as ctx:
        start = time.perf_counter()
        run = run_inference(values, context=ctx, num_partitions=partitions)
        seconds = time.perf_counter() - start

    digest = hashlib.sha256(print_type(run.schema).encode()).hexdigest()
    return {
        "variant": variant,
        "backend": backend,
        "seconds": round(seconds, 4),
        "map_seconds": round(run.map_seconds, 4),
        "reduce_seconds": round(run.reduce_seconds, 4),
        "record_count": run.record_count,
        "distinct_type_count": run.distinct_type_count,
        "schema_sha256": digest,
    }


def _run_in_subprocess(variant: str, n: int, partitions: int) -> dict:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [
            sys.executable, os.fspath(Path(__file__).resolve()),
            "--variant", variant, "--n", str(n),
            "--partitions", str(partitions),
        ],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


def run_mapfast_variant(variant: str, data: str, partitions: int) -> dict:
    """One timed ``infer_ndjson_file`` call under a pinned parse lane."""
    from repro.core.printer import print_type
    from repro.engine import Context
    from repro.inference.pipeline import infer_ndjson_file

    lane, backend = MAPFAST_VARIANTS[variant]
    with Context(parallelism=partitions, backend=backend) as ctx:
        start = time.perf_counter()
        run = infer_ndjson_file(
            data, context=ctx, num_partitions=partitions, parse_lane=lane,
            collect_timings=True,
        )
        seconds = time.perf_counter() - start

    digest = hashlib.sha256(print_type(run.schema).encode()).hexdigest()
    timings = run.phase_timings
    return {
        "variant": variant,
        "parse_lane": lane,
        "resolved_lane": timings.lane if timings else None,
        "backend": backend,
        "seconds": round(seconds, 4),
        "map_seconds": round(run.map_seconds, 4),
        "reduce_seconds": round(run.reduce_seconds, 4),
        "parse_seconds": round(timings.parse_s, 4) if timings else None,
        "type_seconds": round(timings.type_s, 4) if timings else None,
        "fuse_seconds": round(timings.fuse_s, 4) if timings else None,
        "records_per_s": round(timings.records_per_s) if timings else None,
        "record_count": run.record_count,
        "distinct_type_count": run.distinct_type_count,
        "schema_sha256": digest,
    }


def _run_mapfast_in_subprocess(
    variant: str, data: str, partitions: int
) -> dict:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [
            sys.executable, os.fspath(Path(__file__).resolve()),
            "--mapfast-variant", variant, "--data", data,
            "--partitions", str(partitions),
        ],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


def run_mapfast_benchmark(
    n: int, partitions: int = 4, out_path: Path | str | None = MAPFAST_OUT
) -> dict:
    """Benchmark every parse lane over one shared NDJSON file."""
    import tempfile

    from repro.datasets import mixed
    from repro.jsonio.ndjson import write_ndjson

    with tempfile.TemporaryDirectory(prefix="bench_mapfast_") as tmp:
        data = os.path.join(tmp, "mixed.ndjson")
        write_ndjson(data, mixed.generate(n))
        rows = [
            _run_mapfast_in_subprocess(v, data, partitions)
            for v in MAPFAST_VARIANTS
        ]
    base = rows[0]["seconds"]
    for row in rows:
        row["speedup_vs_kernel_thread"] = round(base / row["seconds"], 3)
    identical = (
        len({r["schema_sha256"] for r in rows}) == 1
        and len({r["record_count"] for r in rows}) == 1
        and len({r["distinct_type_count"] for r in rows}) == 1
    )
    report = {
        "benchmark": "mapfast",
        "dataset": "mixed",
        "n": n,
        "partitions": partitions,
        "parallelism": partitions,
        "cpu_count": _cpu_count(),
        "results_identical": identical,
        "variants": rows,
    }
    if out_path is not None:
        Path(out_path).write_text(json.dumps(report, indent=2) + "\n")
    return report


def print_mapfast_report(report: dict) -> None:
    from repro.analysis.tables import render_table

    rows = [
        [
            r["variant"],
            r["resolved_lane"] or "-",
            f"{r['seconds']:.2f}s",
            f"{r['parse_seconds']:.2f}s",
            f"{r['type_seconds']:.2f}s",
            f"{r['fuse_seconds']:.2f}s",
            f"{r['records_per_s']:,}/s",
            f"{r['speedup_vs_kernel_thread']:.2f}x",
        ]
        for r in report["variants"]
    ]
    print()
    print(render_table(
        ["variant", "lane", "wall", "parse", "type", "fuse", "throughput",
         "speedup"],
        rows,
        title=(
            f"Map-phase lanes — mixed x{report['n']:,}, "
            f"{report['partitions']} partitions"
        ),
    ))
    print(f"results identical across lanes: {report['results_identical']}")


def run_benchmark(
    n: int, partitions: int = 4, out_path: Path | str | None = DEFAULT_OUT
) -> dict:
    """Run all variants (each in a clean subprocess) and collect a report."""
    rows = [_run_in_subprocess(v, n, partitions) for v in VARIANTS]
    base = rows[0]["seconds"]
    for row in rows:
        row["speedup_vs_kernel_thread"] = round(base / row["seconds"], 3)
    identical = (
        len({r["schema_sha256"] for r in rows}) == 1
        and len({r["record_count"] for r in rows}) == 1
        and len({r["distinct_type_count"] for r in rows}) == 1
    )
    report = {
        "benchmark": "kernel_streaming",
        "dataset": "mixed",
        "n": n,
        "partitions": partitions,
        "parallelism": partitions,
        "cpu_count": _cpu_count(),
        "results_identical": identical,
        "variants": rows,
    }
    if out_path is not None:
        Path(out_path).write_text(json.dumps(report, indent=2) + "\n")
    return report


def print_report(report: dict) -> None:
    from repro.analysis.tables import render_table

    rows = [
        [
            r["variant"],
            f"{r['seconds']:.2f}s",
            f"{r['map_seconds']:.2f}s",
            f"{r['reduce_seconds']:.2f}s",
            f"{r['speedup_vs_kernel_thread']:.2f}x",
        ]
        for r in report["variants"]
    ]
    print()
    print(render_table(
        ["variant", "wall", "map", "reduce", "speedup"],
        rows,
        title=(
            f"Streaming kernel — mixed x{report['n']:,}, "
            f"{report['partitions']} partitions"
        ),
    ))
    print(f"results identical across variants: {report['results_identical']}")


def test_bench_kernel_streaming(benchmark):
    from conftest import max_scale

    global _PRINTED
    n = max_scale()
    report = run_benchmark(n, partitions=4)
    if not _PRINTED:
        _PRINTED = True
        print_report(report)
    assert report["results_identical"]
    # Give pytest-benchmark a stable in-process number: one partition's
    # worth of streaming accumulation at a fixed small size.
    from repro.datasets import mixed
    from repro.inference.kernel import accumulate_partition

    values = mixed.generate_list(min(n, 2000))
    benchmark.pedantic(
        lambda: accumulate_partition(values), rounds=3, iterations=1
    )


def test_bench_mapfast_lanes_identical(benchmark):
    """All parse lanes must produce identical results; at full scale the
    fast lane must beat the strict kernel-thread baseline by >= 3x."""
    from conftest import max_scale

    n = max_scale()
    report = run_mapfast_benchmark(n, partitions=4, out_path=None)
    print_mapfast_report(report)
    assert report["results_identical"]
    if n >= 100_000:
        by_name = {r["variant"]: r for r in report["variants"]}
        assert by_name["fast-thread"]["speedup_vs_kernel_thread"] >= 3.0
    # Stable in-process number: one small partition through the fast lane.
    from repro.datasets import mixed
    from repro.inference.kernel import accumulate_ndjson_partition
    from repro.jsonio.writer import dumps as jdumps

    lines = [(i + 1, jdumps(v))
             for i, v in enumerate(mixed.generate_list(min(n, 2000)))]
    benchmark.pedantic(
        lambda: accumulate_ndjson_partition(lines, parse_lane="fast"),
        rounds=3, iterations=1,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=100_000)
    parser.add_argument("--partitions", type=int, default=4)
    parser.add_argument("--out", default=None)
    parser.add_argument(
        "--mapfast", action="store_true",
        help="benchmark the map-phase parse lanes instead of the kernel "
             "variants; writes BENCH_mapfast.json",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="with --mapfast: exit 1 unless every lane produced identical "
             "results (schema digest, record and distinct-type counts)",
    )
    parser.add_argument(
        "--variant", choices=VARIANTS, default=None,
        help="internal: run one variant in-process and print its JSON row",
    )
    parser.add_argument(
        "--mapfast-variant", choices=tuple(MAPFAST_VARIANTS), default=None,
        help="internal: run one map-lane variant over --data in-process",
    )
    parser.add_argument(
        "--data", default=None,
        help="internal: NDJSON file for --mapfast-variant",
    )
    args = parser.parse_args(argv)
    if args.variant is not None:
        print(json.dumps(run_variant(args.variant, args.n, args.partitions)))
        return 0
    if args.mapfast_variant is not None:
        print(json.dumps(run_mapfast_variant(
            args.mapfast_variant, args.data, args.partitions
        )))
        return 0
    if args.mapfast:
        out = args.out if args.out is not None else os.fspath(MAPFAST_OUT)
        report = run_mapfast_benchmark(args.n, args.partitions, out_path=out)
        print_mapfast_report(report)
        print(f"wrote {out}")
        if args.check and not report["results_identical"]:
            print("FAIL: parse lanes disagree", file=sys.stderr)
            return 1
        return 0
    out = args.out if args.out is not None else os.fspath(DEFAULT_OUT)
    report = run_benchmark(args.n, args.partitions, out_path=out)
    print_report(report)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
