"""Self-test of the end-to-end benchmark harness at smoke size.

Runs ``run.py --smoke`` (inputs at 1/50 of their size, two rounds per
workload) untraced and traced, then checks what the harness promises:
every metric BENCHMARK.json names is emitted with its unit, no job fails
its oracle check, trace spans nest, and counts repeat across jobs.

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads(run.BENCHMARK_JSON.read_text())


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """``{trace: (reports, stdout lines)}`` plus the trace directory."""
    tmp = tmp_path_factory.mktemp("e2e")
    runs = {}
    for trace in (0, 1):
        out = tmp / f"trace{trace}.jsonl"
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "all",
             "--smoke", "--trace", str(trace), "--out", str(out),
             "--trace-dir", str(tmp)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        reports = [json.loads(line) for line in out.read_text().splitlines()]
        runs[trace] = (reports, proc.stdout.strip().splitlines())
    return runs, tmp


def test_every_metric_is_emitted_with_its_unit(smoke):
    runs, _ = smoke
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        reports, stdout = runs[trace]
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        assert [r["workload"] for r in reports] == list(run.WORKLOADS)
        for line in stdout[-len(reports):]:
            result = json.loads(line)
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want
            assert all(isinstance(v["value"], (int, float))
                       for v in result["metrics"].values())


def test_no_job_fails_its_oracle(smoke):
    runs, _ = smoke
    for reports, _ in runs.values():
        for report in reports:
            assert report["attempted"] >= 1
            assert report["failed"] == 0, report["failures"]
            assert report["correct"], report["failures"]


def test_trace_spans_nest(smoke):
    _, tmp = smoke
    for workload in run.WORKLOADS:
        events = json.loads(
            (tmp / f"trace-{workload}.json").read_text()
        )["traceEvents"]
        jobs: dict[int, list[dict]] = {}
        for e in events:
            jobs.setdefault(e["args"]["job"], []).append({
                "id": e["args"]["id"], "parent": e["args"]["parent"],
                "name": e["name"], "start": e["ts"],
                "end": e["ts"] + e["dur"],
            })
        assert jobs
        for spans in jobs.values():
            # Microsecond floats: allow a rounding error far below 1 ns.
            assert tracing.check_nesting(spans, slack=1e-3) == []


def test_counts_repeat_across_jobs(smoke):
    runs, _ = smoke
    reports, _ = runs[1]
    for report in reports:
        traced = [j for j in report["jobs"] if "layers" in j]
        assert len(traced) >= 2
        by_input: dict[int, set] = {}
        for job in traced:
            by_input.setdefault(job["input"], set()).add(
                job["layers"]["kernel.distinct_types"]
            )
        assert all(len(v) == 1 for v in by_input.values()), by_input


def test_compare_verdicts():
    parent = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.3 for v in parent]
    noisy = [0.7, 1.3, 0.7, 1.3, 0.7, 1.3, 0.7, 1.3, 0.7, 1.3]
    assert run.judge(parent, faster, "lower", 0.1)[0] == "better"
    assert run.judge(parent, slower, "lower", 0.1)[0] == "worse"
    assert run.judge(parent, parent, "lower", 0.1)[0] == "unchanged"
    assert run.judge(parent, noisy, "lower", 0.1)[0] == "unresolved"
    assert run.judge(parent, faster, "higher", 0.1)[0] == "worse"
