"""Durability benchmark — journal overhead and the crash/resume gate.

Two questions, one harness:

* **What does the write-ahead run journal cost?**  The same inference
  job runs journal-off and journal-on; every append is fsync'd, so the
  overhead is real synchronous-I/O cost, not buffering noise.  The
  target is ≤10% on the 100k mixed corpus — partition summaries are
  tiny next to the work of producing them.
* **Does crash-at-a-boundary → resume reproduce the schema exactly?**
  ``--check`` kills a real subprocess (``os._exit`` via
  ``REPRO_CRASH_POINT``) at deterministic journal boundaries, resumes
  with ``--resume`` semantics, and gates on the resumed schema digest
  matching the uninterrupted run — on both backends.

Run standalone for the full-size measurement (writes
``BENCH_durability.json`` at the repository root)::

    python benchmarks/bench_durability.py --n 100000

or as the CI durability-smoke gate::

    python benchmarks/bench_durability.py --check --n 5000
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from _emit import envelope, write_report

DEFAULT_OUT = REPO_ROOT / "BENCH_durability.json"

BACKENDS = ("thread", "process")

#: The crash points the ``--check`` gate kills a run at: right after the
#: plan became durable, mid-append (a torn frame on disk), and after a
#: couple of summaries landed.
CHECK_CRASH_POINTS = (
    "journal.create.post",
    "journal.append.torn:1",
    "journal.append.post:2",
)

#: Subprocess driver for the crash gate (run with ``-c``); prints
#: "<schema> <record_count>" when it survives to the end.
_DRIVER = """
import json, sys
from repro.engine.context import Context
from repro.inference.pipeline import infer_ndjson_file
from repro.core.printer import print_type

cfg = json.loads(sys.argv[1])
with Context(parallelism=cfg["parallelism"], backend=cfg["backend"]) as ctx:
    run = infer_ndjson_file(
        cfg["file"], context=ctx, num_partitions=cfg["partitions"],
        min_split_bytes=4096, batch_size=1,
        journal_path=cfg["journal"], resume=cfg["resume"],
    )
print(print_type(run.schema), run.record_count)
"""


def _digest(schema) -> str:
    from repro.core.printer import print_type

    return hashlib.sha256(print_type(schema).encode("utf-8")).hexdigest()


def _write_corpus(tmp: str, n: int) -> str:
    from repro.datasets import mixed
    from repro.jsonio.ndjson import write_ndjson

    path = os.path.join(tmp, "mixed.ndjson")
    write_ndjson(path, mixed.generate_list(n))
    return path


def _timed_run(ctx, source: str, partitions: int, journal: str | None):
    from repro.inference.pipeline import infer_ndjson_file

    start = time.perf_counter()
    run = infer_ndjson_file(
        source, context=ctx, num_partitions=partitions,
        journal_path=journal,
    )
    seconds = time.perf_counter() - start
    return run, seconds


def run_backend(backend: str, source: str, n: int, tmp: str,
                partitions: int, parallelism: int) -> dict:
    from repro.engine import Context

    with Context(parallelism=parallelism, backend=backend) as ctx:
        # Warm-up pass so pool spin-up and cache warming do not land on
        # either measured run.
        _timed_run(ctx, source, partitions, None)
        off_run, off_s = _timed_run(ctx, source, partitions, None)
        journal = os.path.join(tmp, f"bench-{backend}.journal")
        on_run, on_s = _timed_run(ctx, source, partitions, journal)
        journal_bytes = os.path.getsize(journal)
    identical = (
        _digest(off_run.schema) == _digest(on_run.schema)
        and off_run.record_count == on_run.record_count
    )
    return {
        "backend": backend,
        "journal_off_seconds": round(off_s, 4),
        "journal_on_seconds": round(on_s, 4),
        "overhead_pct": round((on_s - off_s) / off_s * 100, 2) if off_s
        else None,
        "journal_off_records_per_s": round(n / off_s) if off_s else None,
        "journal_on_records_per_s": round(n / on_s) if on_s else None,
        "journal_bytes": journal_bytes,
        "results_identical": identical,
        "schema_sha256": _digest(on_run.schema),
    }


def run_benchmark(
    n: int,
    partitions: int = 8,
    parallelism: int = 4,
    out_path: Path | str | None = DEFAULT_OUT,
) -> dict:
    backends = []
    identical = True
    with tempfile.TemporaryDirectory(prefix="bench_durability_") as tmp:
        source = _write_corpus(tmp, n)
        for backend in BACKENDS:
            row = run_backend(
                backend, source, n, tmp, partitions, parallelism
            )
            identical &= row["results_identical"]
            backends.append(row)
    identical &= len({r["schema_sha256"] for r in backends}) == 1
    report = envelope(
        "durability", n,
        schema_sha256=backends[0]["schema_sha256"],
        results_identical=identical,
        dataset="mixed",
        partitions=partitions,
        parallelism=parallelism,
        backends=backends,
    )
    if out_path is not None:
        write_report(report, out_path)
    return report


def print_report(report: dict) -> None:
    from repro.analysis.tables import render_table

    rows = [
        [
            r["backend"],
            f"{r['journal_off_seconds']:.2f}s",
            f"{r['journal_on_seconds']:.2f}s",
            f"{r['overhead_pct']:+.1f}%",
            f"{r['journal_bytes']:,} B",
            str(r["results_identical"]),
        ]
        for r in report["backends"]
    ]
    print()
    print(render_table(
        ["backend", "journal off", "journal on", "overhead",
         "journal size", "identical"],
        rows,
        title=(
            f"run-journal overhead — {report['dataset']} "
            f"x{report['n']:,}, {report['parallelism']} workers"
        ),
    ))
    print("results identical journal-on vs journal-off: "
          f"{report['results_identical']}")


def _crash_subprocess(cfg: dict, crash_point: str | None):
    """Run the driver, capturing through files (a crash-killed driver
    can leave pool workers holding inherited pipe FDs).  The driver
    leads its own session, so its orphaned pool workers die with it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    if crash_point is not None:
        env["REPRO_CRASH_POINT"] = crash_point
    else:
        env.pop("REPRO_CRASH_POINT", None)
    with tempfile.TemporaryFile("w+") as out, \
            tempfile.TemporaryFile("w+") as err:
        proc = subprocess.Popen(
            [sys.executable, "-c", _DRIVER, json.dumps(cfg)],
            env=env, stdout=out, stderr=err, start_new_session=True,
        )
        try:
            proc.wait(timeout=300)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read(), err.read()


def check_crash_resume(n: int, parallelism: int = 2,
                       partitions: int = 4) -> bool:
    """CI gate: kill at each crash point, resume, demand the digest of
    the uninterrupted run — on both backends."""
    from repro.engine.faults import CRASH_EXIT_CODE

    ok = True
    with tempfile.TemporaryDirectory(prefix="bench_durability_") as tmp:
        source = _write_corpus(tmp, n)
        for backend in BACKENDS:
            base_cfg = {
                "file": source,
                "backend": backend,
                "parallelism": parallelism,
                "partitions": partitions,
                "resume": False,
            }
            code, expected, err = _crash_subprocess(
                dict(base_cfg, journal=os.path.join(
                    tmp, f"base-{backend}.journal"
                )),
                None,
            )
            if code != 0:
                print(f"[{backend}] baseline run failed:\n{err}")
                ok = False
                continue
            for i, crash_point in enumerate(CHECK_CRASH_POINTS):
                journal = os.path.join(tmp, f"{backend}-{i}.journal")
                cfg = dict(base_cfg, journal=journal)
                code, _, err = _crash_subprocess(cfg, crash_point)
                if code != CRASH_EXIT_CODE:
                    print(f"[{backend}] crash point {crash_point!r} did "
                          f"not fire (exit {code}):\n{err}")
                    ok = False
                    continue
                code, resumed, err = _crash_subprocess(
                    dict(cfg, resume=True), None
                )
                verdict = (
                    "OK" if code == 0 and resumed == expected
                    else "MISMATCH"
                )
                print(f"[{backend}] crash at {crash_point:<24} "
                      f"resume: {verdict}")
                if verdict != "OK":
                    print(err)
                    ok = False
    return ok


def test_bench_durability(benchmark):
    """Journal-on/off equivalence at the ladder scale, plus a stable
    in-process number: one journaled run over a fixed small corpus."""
    from conftest import max_scale

    n = max_scale()
    report = run_benchmark(n, out_path=None)
    print_report(report)
    assert report["results_identical"]

    from repro.engine import Context
    from repro.inference.pipeline import infer_ndjson_file

    with tempfile.TemporaryDirectory(prefix="bench_durability_") as tmp:
        source = _write_corpus(tmp, min(n, 2000))
        with Context(parallelism=2) as ctx:
            counter = iter(range(10 ** 9))

            def journaled_run():
                journal = os.path.join(tmp, f"j{next(counter)}.journal")
                return infer_ndjson_file(
                    source, context=ctx, journal_path=journal,
                )

            benchmark.pedantic(journaled_run, rounds=3, iterations=1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=100_000,
                        help="dataset size in records")
    parser.add_argument("--partitions", type=int, default=8)
    parser.add_argument("--parallelism", type=int, default=4)
    parser.add_argument("--out", default=os.fspath(DEFAULT_OUT))
    parser.add_argument("--check", action="store_true",
                        help="crash/resume gate: exit 1 unless every "
                             "crash-point resume reproduces the "
                             "uninterrupted schema on both backends")
    args = parser.parse_args()

    if args.check:
        ok = check_crash_resume(args.n, args.parallelism, args.partitions)
        print("durability crash/resume:", "OK" if ok else "MISMATCH")
        return 0 if ok else 1

    report = run_benchmark(
        args.n, args.partitions, args.parallelism, out_path=args.out,
    )
    print_report(report)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
