#!/usr/bin/env python3
"""End-to-end benchmark of ``repro infer`` on four paper-corpus workloads.

Run it from the repository root; it imports the package from ``src/``::

    python3 benchmarks/e2e/run.py --workload github-seq --seed 0 --seconds 24
    python3 benchmarks/e2e/run.py --workload all --trace 1
    python3 benchmarks/e2e/run.py compare parent.jsonl change.jsonl

A run generates each workload's input from ``--seed`` with
``repro.datasets`` and computes the oracle digests, then runs jobs in a
closed loop (one client, one job at a time, each job a fresh interpreter
running ``job.py``) for ``--seconds``, round-robin across the selected
workloads.  Every job's output is checked against the oracle.
Generation and oracle runs are harness time and are not measured.

``--trace 1`` alternates untraced jobs with traced ones (``tracing.py``
spans around the job's calls into each layer) and reports the
per-layer metrics instead of the end-to-end ones; it writes one Chrome
trace-event file per workload.

The last line of standard output is one JSON object per workload:
``{"correct", "attempted", "failed", "metrics"}``.  ``--out FILE``
appends a fuller report per workload (host, unscaled medians, every
job) as one JSON line; ``compare`` reads two such files.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
JOB = HERE / "job.py"
WORK = HERE / ".work"
RESULTS = HERE / "results"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: A job that has not finished by then is killed (with its workers) and
#: counted as failed.
JOB_TIMEOUT_S = 60.0
#: What ``job.host_probe`` takes on the reference host, the median
#: probe of the calibration runs (see host_scale).
REFERENCE_PROBE_S = 0.005


@dataclass(frozen=True)
class Workload:
    """One named input and the flags every job of it runs with."""

    dataset: str
    #: Records per job input (the base checkpoint for an update workload).
    n: int
    #: ``--workers 2 --backend process`` (four partitions); else the CLI
    #: default, a sequential streaming run.
    parallel: bool
    stats_mode: str = "off"
    #: Update workloads: records per batch folded onto the checkpoint,
    #: and how many distinct batches the jobs cycle through.
    batch: int = 0
    batches: int = 1


WORKLOADS = {
    "github-seq": Workload("github", 14_000, parallel=False),
    "wikidata-par": Workload("wikidata", 2_500, parallel=True),
    "twitter-stats": Workload(
        "twitter", 2_000, parallel=True, stats_mode="sketches"
    ),
    "nytimes-update": Workload(
        "nytimes", 2_800, parallel=True, batch=200, batches=4
    ),
}

#: Metric name -> unit.  ``--trace 0`` reports END_TO_END, ``--trace 1``
#: PER_LAYER; BENCHMARK.json lists the same names and units.
END_TO_END = {
    "records_per_s": "rec/s",
    "job_s": "s",
    "cpu_s_per_krec": "s",
    "peak_rss_mb": "MB",
    "worker_peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "jsonio.plan_s": "s",
    "jsonio.bytes_read": "bytes",
    "kernel.map_wall_s": "s",
    "kernel.map_busy_s": "s",
    "kernel.records_per_busy_s": "rec/s",
    "kernel.parse_type_s": "s",
    "kernel.fuse_s": "s",
    "kernel.distinct_types": "count",
    "kernel.tasks": "count",
    "wire.decode_s": "s",
    "wire.bytes": "bytes",
    "reduce.merge_s": "s",
    "reduce.partials": "count",
    "engine.overhead_s": "s",
    "engine.worker_skew": "ratio",
    "engine.retries": "count",
    "engine.pool_rebuilds": "count",
    "engine.shutdown_s": "s",
    "statistics.cost_ratio": "ratio",
    "statistics.bytes": "bytes",
    "statistics.bundles_merged": "count",
    "store.checkpoint_load_s": "s",
    "store.checkpoint_save_s": "s",
    "store.journal_s": "s",
    "store.bytes_written": "bytes",
    "store.write_amplification": "ratio",
    "core.parse_type_s": "s",
    "core.print_s": "s",
    "pipeline.self_s": "s",
    "trace.coverage": "fraction",
    "trace.overhead": "ratio",
    "trace.job_s": "s",
}
#: Per-layer counts that must repeat exactly on jobs over the same input.
REPEATING = (
    "kernel.distinct_types", "kernel.tasks", "reduce.partials",
    "statistics.bytes",
)
#: Fields of a job's output that must equal the oracle's.
CHECKED = ("record_count", "distinct", "schema_sha256", "stats_sha256")


# ----------------------------------------------------------------------
# set-up: inputs and oracle


def _write_ndjson(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False))
            handle.write("\n")


def oracle(paths: list[Path], stats_mode: str) -> dict:
    """Expected job output for the concatenation of ``paths``.

    A sequential run with the strict lane's typing and fusion: every line
    is decoded to a value and folded through ``PartitionAccumulator.add``,
    the call the strict lane makes per record (statistics included).  The
    decode uses the C ``json`` module instead of the strict lane's own
    parser, which takes ~2 ms per github record; on the generated corpora
    both decode to the same values.
    """
    from repro.core.printer import print_type
    from repro.inference.kernel import PartitionAccumulator

    acc = PartitionAccumulator(stats_mode=stats_mode)
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                if line.strip():
                    acc.add(json.loads(line))
    summary = acc.summary()
    stats = summary.stats
    return {
        "record_count": summary.record_count,
        "distinct": summary.distinct_type_count,
        "schema_sha256": hashlib.sha256(
            print_type(summary.schema).encode("utf-8")
        ).hexdigest(),
        "stats_sha256": (
            hashlib.sha256(stats.to_bytes()).hexdigest()
            if stats is not None else None
        ),
    }


@dataclass
class Prepared:
    """A workload's inputs on disk, with the oracle for each."""

    name: str
    workload: Workload
    work: Path
    inputs: list[Path]
    expected: list[dict]
    checkpoint: Path | None = None
    journal: Path | None = None
    pristine: Path | None = None

    def spec(self, job: int, index: int, trace: bool,
             stats_mode: str | None = None) -> dict:
        update = None
        if self.checkpoint is not None:
            update = {"checkpoint": str(self.checkpoint),
                      "journal": str(self.journal)}
        return {
            "job": job,
            "input": str(self.inputs[index]),
            "parallel": self.workload.parallel,
            "stats_mode": (
                self.workload.stats_mode if stats_mode is None else stats_mode
            ),
            "update": update,
            "trace": trace,
        }

    def reset(self) -> None:
        """Put the base checkpoint back byte for byte and drop the journal
        the previous update job left."""
        if self.checkpoint is None:
            return
        shutil.rmtree(self.checkpoint, ignore_errors=True)
        shutil.copytree(self.pristine, self.checkpoint)
        self.journal.unlink(missing_ok=True)


def prepare(name: str, seed: int, scale: int, work: Path) -> Prepared:
    from repro.datasets import generate
    from repro.inference.pipeline import infer_ndjson_file

    wl = WORKLOADS[name]
    work.mkdir(parents=True)
    n = max(1, wl.n // scale)
    records = generate(wl.dataset, n + wl.batch * wl.batches, seed)
    if not wl.batch:
        path = work / "input.ndjson"
        _write_ndjson(path, records)
        return Prepared(name, wl, work, [path],
                        [oracle([path], wl.stats_mode)])

    base = work / "base.ndjson"
    _write_ndjson(base, itertools.islice(records, n))
    batch = max(1, wl.batch // scale)
    inputs = []
    for k in range(wl.batches):
        path = work / f"batch-{k}.ndjson"
        _write_ndjson(path, itertools.islice(records, batch))
        inputs.append(path)
    pristine = work / "base.ckpt"
    infer_ndjson_file(base, checkpoint_to=pristine, stats_mode=wl.stats_mode)
    return Prepared(
        name, wl, work, inputs,
        [oracle([base, path], wl.stats_mode) for path in inputs],
        checkpoint=work / "ckpt", journal=work / "run.journal",
        pristine=pristine,
    )


# ----------------------------------------------------------------------
# jobs


def run_job(spec: dict, cwd: Path) -> dict:
    """Run one job process; returns its result or ``{"error": ...}``.

    The job runs in its own session, so that a timeout or a crash can
    kill its pool workers along with it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    spec = dict(spec, spawned_at=time.monotonic())
    proc = subprocess.Popen(
        [sys.executable, str(JOB), json.dumps(spec)],
        cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=JOB_TIMEOUT_S)
    except BaseException as exc:
        _kill_session(proc.pid)
        proc.communicate()
        if not isinstance(exc, subprocess.TimeoutExpired):
            raise
        return {"error": f"job {spec['job']} killed after "
                         f"{JOB_TIMEOUT_S:.0f}s"}
    if proc.returncode != 0:
        _kill_session(proc.pid)
        tail = err.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"job {spec['job']} exited {proc.returncode}: "
                         f"{tail[0]}"}
    return json.loads(out.strip().splitlines()[-1])


def _kill_session(pid: int) -> None:
    """SIGKILL whatever is left of a job's session (its pool workers)."""
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def mismatches(result: dict, expected: dict) -> list[str]:
    """The oracle fields the job got wrong, as ``field: got != want``."""
    if "error" in result:
        return [result["error"]]
    return [
        f"{field}: {result[field]!r} != oracle {expected[field]!r}"
        for field in CHECKED if result[field] != expected[field]
    ]


class Bench:
    """Runs the jobs of one workload and keeps their results."""

    def __init__(self, prepared: Prepared, trace: bool) -> None:
        self.p = prepared
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        #: What went wrong, naming the job and the field: failed jobs,
        #: and counts that should have repeated but did not.
        self.failures: list[str] = []
        #: Per round, the results that passed their checks: ``plain``
        #: (untraced), ``traced``, and ``off`` (the traced stats-off twin
        #: of a statistics workload's traced job).
        self.rounds: list[dict[str, dict]] = []

    def results(self, kind: str) -> list[dict]:
        return [r[kind] for r in self.rounds if kind in r]

    def paired(self, a: str, b: str) -> list[tuple[dict, dict]]:
        """Results of kinds ``a`` and ``b`` from the same round, which ran
        back to back on the same input."""
        return [(r[a], r[b]) for r in self.rounds if a in r and b in r]

    @property
    def plain(self) -> list[dict]:
        return self.results("plain")

    @property
    def traced(self) -> list[dict]:
        return self.results("traced")

    def _job(self, job: int, index: int, trace: bool,
             stats_mode: str | None = None) -> dict | None:
        self.p.reset()
        spec = self.p.spec(job, index, trace, stats_mode)
        result = run_job(spec, self.p.work)
        self.attempted += 1
        expected = dict(self.p.expected[index])
        if stats_mode == "off":
            expected["stats_sha256"] = None
        wrong = mismatches(result, expected)
        if not wrong and trace:
            from tracing import check_nesting

            wrong = check_nesting(result["spans"])
        if wrong:
            self.failed += 1
            self.failures.extend(
                f"{self.p.name} job {job} (input {index}): {w}"
                for w in wrong
            )
            return None
        result["input"] = index
        return result

    def round(self, number: int) -> None:
        """One round: an untraced job, and in a traced run a traced job
        (plus its stats-off twin on a statistics workload).  Odd rounds
        run them in reverse order, so neither side of a paired ratio
        always runs first."""
        index = number % len(self.p.inputs)
        job = number * 3
        runs = [("plain", job, False, None)]
        if self.trace:
            runs.append(("traced", job + 1, True, None))
            if self.p.workload.stats_mode != "off":
                runs.append(("off", job + 2, True, "off"))
        if number % 2:
            runs.reverse()
        results = {}
        for kind, job_id, trace, stats_mode in runs:
            result = self._job(job_id, index, trace, stats_mode)
            if result is not None:
                results[kind] = result
        self.rounds.append(results)

    # -- metrics -------------------------------------------------------

    def end_to_end(self, scaled: bool = True) -> dict:
        """The end-to-end metrics; with ``scaled``, each job's times are
        first scaled to the reference host speed (:func:`host_scale`)."""
        jobs = [
            (j, host_scale(j) if scaled else 1.0) for j in self.plain
        ]
        return {
            "records_per_s": _median(
                j["records"] / (j["job_s"] * k) for j, k in jobs
            ),
            "job_s": _median(j["job_s"] * k for j, k in jobs),
            "cpu_s_per_krec": _median(
                j["cpu_s"] * k * 1000 / j["records"] for j, k in jobs
            ),
            "peak_rss_mb": max(j["rss_mb"] for j, _ in jobs),
            "worker_peak_rss_mb": max(j["worker_rss_mb"] for j, _ in jobs),
            "setup_s": _median(j["setup_s"] * k for j, k in jobs),
        }

    def per_layer(self) -> dict:
        traced = self.traced
        metrics = {
            name: _median(j["layers"][name] for j in traced)
            for name in traced[0]["layers"]
        }
        for name in REPEATING:
            by_input: dict[int, set] = {}
            for j in traced:
                by_input.setdefault(j["input"], set()).add(j["layers"][name])
            if any(len(values) > 1 for values in by_input.values()):
                self.failures.append(
                    f"{self.p.name}: {name} differs between jobs on the "
                    f"same input: {sorted(by_input.items())}"
                )
        for name in ("engine.retries", "engine.pool_rebuilds"):
            if metrics[name]:
                self.failures.append(f"{self.p.name}: {name} is "
                                     f"{metrics[name]}, expected 0")
        # PhaseTimings leave statistics outside their stages, so the
        # cost of statistics is read off the map wall time.
        stats_pairs = self.paired("traced", "off")
        metrics["statistics.cost_ratio"] = _median(
            stats["layers"]["kernel.map_wall_s"]
            / off["layers"]["kernel.map_wall_s"]
            for stats, off in stats_pairs
        ) if stats_pairs else 1.0
        # Ratios of jobs that ran back to back need no host scaling.
        metrics["trace.job_s"] = _median(j["job_s"] for j in traced)
        metrics["trace.overhead"] = _median(
            t["job_s"] / p["job_s"] for p, t in self.paired("plain", "traced")
        )
        return metrics

    def spans(self) -> list[dict]:
        jobs = self.traced + self.results("off")
        return [span for j in jobs for span in j["spans"]]


def host_scale(job: dict) -> float:
    """Factor that turns a job's times into times on the reference host.

    The 2-vCPU VM this benchmark was calibrated on slows by up to 2x for
    seconds to minutes at a time as its neighbours load the machine, and
    wall and CPU times slow with it.  Each job times ``job.host_probe``,
    a fixed Python loop, just before its timed region.  Dividing by the
    probe takes the drift out; multiplying by REFERENCE_PROBE_S keeps
    the result in seconds.  README.md gives the spreads with and
    without this scaling.
    """
    return REFERENCE_PROBE_S / job["probe_s"]


def _median(values) -> float:
    return statistics.median(list(values))


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


# ----------------------------------------------------------------------
# reporting


def host_info() -> dict:
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": git_commit(),
        "loadavg_before": list(os.getloadavg()),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` (None outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def report(bench: Bench, args, host: dict) -> dict:
    """The full result of one workload; its ``metrics`` are empty when no
    job succeeded."""
    metrics = {}
    if bench.plain and (not bench.trace or bench.paired("plain", "traced")):
        if bench.trace:
            values, units = bench.per_layer(), PER_LAYER
        else:
            values, units = bench.end_to_end(), END_TO_END
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        }
    else:
        bench.failures.append(f"{bench.p.name}: no job succeeded")
    return {
        "workload": bench.p.name,
        "seed": args.seed,
        "trace": int(bench.trace),
        "seconds": args.seconds,
        "scale": args.scale,
        "host": host,
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "failures": bench.failures,
        "metrics": metrics,
        "unscaled": (
            bench.end_to_end(scaled=False)
            if metrics and not bench.trace else {}
        ),
        "jobs": [
            {k: v for k, v in j.items() if k != "spans"}
            for j in bench.plain + bench.traced
        ],
    }


def run(args) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else (
        args.workload.split(",")
    )
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2

    host = host_info()
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        benches = [
            Bench(prepare(name, args.seed, args.scale, work / name),
                  bool(args.trace))
            for name in names
        ]
        start = time.monotonic()
        for number in itertools.count():
            for bench in benches:
                bench.round(number)
            if number >= 1 and (
                args.smoke or time.monotonic() - start >= args.seconds
            ):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    host["loadavg_after"] = list(os.getloadavg())
    host["noisy"] = max(host["loadavg_before"][0],
                        host["loadavg_after"][0]) > host["cpus"]
    print(f"host: {json.dumps(host)}", file=sys.stderr)
    lines = []
    status = 0
    for bench in benches:
        result = report(bench, args, host)
        for line in bench.failures:
            print(f"FAILED {line}", file=sys.stderr)
        if bench.failures:
            status = 1
        _print_summary(result)
        if args.out:
            with open(args.out, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(result) + "\n")
        if bench.trace and bench.traced:
            args.trace_dir.mkdir(parents=True, exist_ok=True)
            from tracing import chrome_trace

            path = args.trace_dir / f"trace-{bench.p.name}.json"
            path.write_text(json.dumps(chrome_trace(bench.spans())))
            print(f"trace: {path}", file=sys.stderr)
        lines.append(json.dumps({
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": result["metrics"],
        }))
    for line in lines:
        print(line)
    return status


def _print_summary(result: dict) -> None:
    print(f"{result['workload']}: {result['attempted']} jobs attempted, "
          f"{result['failed']} failed", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"  {name:28} {metric['value']:>14.6g} {metric['unit']}",
              file=sys.stderr)


# ----------------------------------------------------------------------
# compare


def _load_runs(path: str) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                row = json.loads(line)
                if not row["trace"] and row["metrics"]:
                    runs.setdefault(row["workload"], []).append(row)
    return runs


def judge(parent: list[float], change: list[float], better: str,
          bound: float) -> tuple[str, float]:
    """Verdict on one metric of one workload, with the relative change of
    the medians.

    ``better``: at least 10 pairs, the change wins at least 9 in 10 of
    them (ties count for neither side), and the medians differ by more
    than the parent's interquartile range.  ``worse``: the change's median
    is worse than the parent's by more than ``bound``.  ``unresolved``: the
    spread of either side is wider than ``bound`` and not every change
    run beats every parent run.  Otherwise ``unchanged``.
    """
    sign = 1.0 if better == "higher" else -1.0
    med_a, med_b = statistics.median(parent), statistics.median(change)
    delta = (med_b - med_a) / med_a
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    q_a, q_b = _quartiles(parent), _quartiles(change)
    iqr_a = q_a[2] - q_a[0]
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
            and sign * (med_b - med_a) > iqr_a):
        return "better", delta
    if -sign * delta > bound:
        return "worse", delta
    spread = max(iqr_a / med_a, (q_b[2] - q_b[0]) / med_b)
    all_better = all(sign * (b - a) > 0 for a in parent for b in change)
    if spread > bound and not all_better:
        return "unresolved", delta
    return "unchanged", delta


def compare(args) -> int:
    spec = json.loads(BENCHMARK_JSON.read_text())
    parent, change = _load_runs(args.parent), _load_runs(args.change)
    worse = False
    for workload in sorted(set(parent) & set(change)):
        a, b = parent[workload], change[workload]
        pairs = min(len(a), len(b))
        cells = []
        for metric in spec["end_to_end"]:
            name = metric["name"]
            verdict, delta = judge(
                [r["metrics"][name]["value"] for r in a[:pairs]],
                [r["metrics"][name]["value"] for r in b[:pairs]],
                metric["better"], metric["bound"],
            )
            worse |= verdict == "worse"
            cells.append(f"{name} {verdict} ({delta:+.1%})")
        print(f"{workload} [{pairs} pairs]: " + ", ".join(cells))
    missing = sorted(set(parent) ^ set(change))
    if missing:
        print(f"only in one file: {', '.join(missing)}")
    return 1 if worse else 0


# ----------------------------------------------------------------------


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(
            prog="run.py compare",
            description="Compare two --out files run by run, one row per "
                        "workload, with the bounds of BENCHMARK.json.",
        )
        parser.add_argument("parent")
        parser.add_argument("change")
        return compare(parser.parse_args(argv[1:]))

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="a workload, a comma-separated list, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0,
                        help="how long the job loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="inputs at 1/50 of their size, 2 rounds "
                             "whatever --seconds says")
    parser.add_argument("--out", default=None,
                        help="append a full JSON report per workload")
    parser.add_argument("--trace-dir", type=Path, default=RESULTS)
    args = parser.parse_args(argv)
    args.scale = 50 if args.smoke else 1
    return run(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
