"""End-to-end fault tolerance of the inference pipelines.

Two contracts pinned here:

* **Fault transparency** — a run with K injected transient faults
  (K < max_retries per task) produces a schema *identical* to the
  fault-free run, on both scheduler backends.  Recomputation safety is the
  paper's associativity/commutativity of fusion (Section 5): re-running a
  partition cannot change the fused result.
* **Quarantine exactness** — permissive ingestion of a dirty file reports
  the exact number and location of skipped records, spills them to the
  sidecar verbatim, and strict mode still fails fast; the
  ``max_error_rate`` threshold aborts runs that are mostly garbage.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import InvalidValueError
from repro.core.printer import print_type
from repro.datasets import generate_list
from repro.engine import Context, FaultPlan, RetryPolicy
from repro.engine.faults import Fault
from repro.engine.scheduler import BACKENDS
from repro.inference.pipeline import infer_ndjson_file, run_inference
from repro.jsonio.errors import (
    DuplicateKeyError,
    ErrorRateExceeded,
    JsonSyntaxError,
)
from repro.jsonio.ndjson import read_ndjson, write_ndjson
from repro.jsonio.parser import loads
from tests.conftest import json_values

#: Nonzero in the CI fault-injection job (see .github/workflows/ci.yml).
SEED = int(os.environ.get("REPRO_FAULT_SEED", "7"))

FAST_RETRY = RetryPolicy(max_retries=3, base_delay_s=0.001,
                         max_delay_s=0.01)

json_value_lists = st.lists(json_values(8), max_size=20)


class TestFaultTransparency:
    """Injected faults must never change the inferred schema."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=10, deadline=None)
    @given(values=json_value_lists, seed_offset=st.integers(0, 3))
    def test_schema_identical_under_transient_faults(
        self, backend, values, seed_offset
    ):
        baseline = run_inference(values).schema
        # K faults per task with K (= max_attempt + 1 = 2) < max_retries.
        plan = FaultPlan.random_plan(
            SEED + seed_offset, num_partitions=4, rate=0.5, max_attempt=1
        )
        with Context(parallelism=2, backend=backend,
                     retry_policy=FAST_RETRY, fault_plan=plan) as ctx:
            faulty = run_inference(values, context=ctx, num_partitions=4)
        assert faulty.schema == baseline
        assert print_type(faulty.schema) == print_type(baseline)
        assert faulty.record_count == len(values)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_schema_identical_under_worker_kills(self, backend):
        values = [{"a": i, "b": [i, str(i)]} for i in range(200)]
        baseline = run_inference(values).schema
        plan = FaultPlan((
            Fault(0, 0, kind="kill"),
            Fault(2, 0, kind="fail"),
            Fault(3, 1, kind="kill"),
        ))
        with Context(parallelism=2, backend=backend,
                     retry_policy=FAST_RETRY, fault_plan=plan) as ctx:
            faulty = run_inference(values, context=ctx, num_partitions=4)
        with Context(parallelism=2, backend=backend,
                     retry_policy=FAST_RETRY) as clean_ctx:
            clean = run_inference(values, context=clean_ctx, num_partitions=4)
        assert faulty.schema == baseline == clean.schema
        assert faulty.record_count == 200
        assert faulty.distinct_type_count == clean.distinct_type_count

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_permissive_file_run_identical_under_faults(
        self, backend, tmp_path
    ):
        path = tmp_path / "dirty.ndjson"
        lines = []
        for i in range(300):
            lines.append('{"a": %d}' % i if i % 50 else "oops")
        path.write_text("\n".join(lines) + "\n")
        baseline = infer_ndjson_file(path, permissive=True)
        plan = FaultPlan.transient_failures([0, 1, 2, 3])
        with Context(parallelism=2, backend=backend,
                     retry_policy=FAST_RETRY, fault_plan=plan) as ctx:
            faulty = infer_ndjson_file(path, context=ctx, num_partitions=4,
                                       permissive=True)
        assert faulty.schema == baseline.schema
        assert faulty.skipped_count == baseline.skipped_count == 6
        assert [b.line_number for b in faulty.bad_records] == \
            [b.line_number for b in baseline.bad_records]


class TestInputErrorsFailOnce:
    """A malformed line, a duplicate key or a value that is not JSON is a
    fact about the input: its task fails on the first attempt, with the
    message a run without a context gives, and is never read twice."""

    @pytest.fixture()
    def malformed(self, tmp_path):
        path = tmp_path / "malformed.ndjson"
        write_ndjson(path, generate_list("twitter", 400))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"id": 1, oops}\n')
        return path

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_malformed_line(self, backend, malformed):
        with pytest.raises(JsonSyntaxError) as alone:
            infer_ndjson_file(malformed)
        with Context(parallelism=2, backend=backend,
                     retry_policy=FAST_RETRY) as ctx:
            with pytest.raises(JsonSyntaxError) as parallel:
                infer_ndjson_file(malformed, context=ctx, num_partitions=2,
                                  min_split_bytes=1)
            assert ctx.scheduler.stats.retries == 0
        assert str(parallel.value) == str(alone.value)
        assert "line 401, column 11" in str(parallel.value)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_value_that_is_not_json(self, backend):
        values = [{"a": i} for i in range(10)] + [{"a": {1, 2}}]
        with pytest.raises(InvalidValueError) as alone:
            run_inference(values)
        with Context(parallelism=2, backend=backend,
                     retry_policy=FAST_RETRY) as ctx:
            with pytest.raises(InvalidValueError) as parallel:
                run_inference(values, context=ctx, num_partitions=2)
            assert ctx.scheduler.stats.retries == 0
        assert str(parallel.value) == str(alone.value)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_duplicate_key(self, backend, tmp_path):
        line = '{"a": 3, "a": 4}'
        path = tmp_path / "duplicate.ndjson"
        path.write_text('{"a": 1}\n{"a": 2}\n' + line + "\n")
        with pytest.raises(DuplicateKeyError) as alone:
            loads(line)
        with Context(parallelism=2, backend=backend,
                     retry_policy=FAST_RETRY) as ctx:
            with pytest.raises(DuplicateKeyError) as parallel:
                ctx.ndjson_file(path, 2).collect()
            assert ctx.scheduler.stats.retries == 0
        assert str(parallel.value) == str(alone.value)

    def test_injected_faults_are_the_only_retries(self, malformed):
        plan = FaultPlan.random_plan(
            SEED, num_partitions=4, rate=0.5, max_attempt=1
        )
        for backend in BACKENDS:
            with Context(parallelism=2, backend=backend,
                         retry_policy=FAST_RETRY, fault_plan=plan) as ctx:
                with pytest.raises(JsonSyntaxError, match="line 401"):
                    infer_ndjson_file(malformed, context=ctx,
                                      num_partitions=4, min_split_bytes=1)
                stats = ctx.scheduler.stats
            assert stats.retries == stats.faults_injected, backend
            assert stats.pool_rebuilds == 0, backend


def _write_dirty(path, total, bad_every):
    """Write ``total`` lines, every ``bad_every``-th one malformed;
    returns (bad_count, bad_line_numbers)."""
    bad_lines = []
    with open(path, "w", encoding="utf-8") as handle:
        for i in range(1, total + 1):
            if i % bad_every == 0:
                handle.write('{"id": %d, "broken":\n' % i)
                bad_lines.append(i)
            else:
                handle.write('{"id": %d, "tags": ["t%d"]}\n' % (i, i % 3))
    return len(bad_lines), bad_lines


class TestQuarantine:
    def test_100k_records_with_1_percent_malformed(self, tmp_path):
        """The acceptance scenario: 100k records, 1% malformed, permissive
        mode completes and reports the exact skip count; strict mode
        raises on the first bad line."""
        path = tmp_path / "big.ndjson"
        bad_count, bad_lines = _write_dirty(path, 100_000, bad_every=100)
        assert bad_count == 1000

        run = infer_ndjson_file(path, permissive=True)
        assert run.record_count == 99_000
        assert run.skipped_count == 1000
        assert run.skip_rate == pytest.approx(0.01)
        assert run.skip_summary() == "1000 records skipped (1.0%)"
        assert [b.line_number for b in run.bad_records] == bad_lines

        with pytest.raises(JsonSyntaxError) as excinfo:
            infer_ndjson_file(path)
        assert excinfo.value.line == bad_lines[0]
        assert str(path) in str(excinfo.value)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_parallel_quarantine_pins_counts_and_sidecar(
        self, backend, tmp_path
    ):
        path = tmp_path / "feed.ndjson"
        bad_count, bad_lines = _write_dirty(path, 400, bad_every=80)
        sidecar = tmp_path / "bad.ndjson"
        with Context(parallelism=2, backend=backend,
                     retry_policy=FAST_RETRY) as ctx:
            run = infer_ndjson_file(
                path, context=ctx, num_partitions=4, permissive=True,
                bad_records_path=sidecar,
            )
        assert run.record_count == 400 - bad_count
        assert run.skipped_count == bad_count
        assert sum(run.skipped_per_partition.values()) == bad_count

        rows = list(read_ndjson(sidecar))
        assert [r["line"] for r in rows] == bad_lines
        assert all(r["path"] == str(path) for r in rows)
        assert all(r["text"].startswith('{"id"') for r in rows)
        assert all("line" in r["error"] for r in rows)

    def test_max_error_rate_aborts(self, tmp_path):
        path = tmp_path / "garbage.ndjson"
        _write_dirty(path, 100, bad_every=4)  # 25% malformed
        with pytest.raises(ErrorRateExceeded) as excinfo:
            infer_ndjson_file(path, permissive=True, max_error_rate=0.01)
        assert excinfo.value.skipped == 25
        assert excinfo.value.total == 100
        assert excinfo.value.rate == pytest.approx(0.25)

    def test_max_error_rate_tolerates_below_threshold(self, tmp_path):
        path = tmp_path / "mostly-clean.ndjson"
        _write_dirty(path, 100, bad_every=100)  # 1% malformed
        run = infer_ndjson_file(path, permissive=True, max_error_rate=0.05)
        assert run.skipped_count == 1

    def test_sidecar_written_even_when_rate_aborts(self, tmp_path):
        path = tmp_path / "garbage.ndjson"
        _write_dirty(path, 40, bad_every=2)
        sidecar = tmp_path / "bad.ndjson"
        with pytest.raises(ErrorRateExceeded):
            infer_ndjson_file(path, permissive=True, max_error_rate=0.1,
                              bad_records_path=sidecar)
        assert len(list(read_ndjson(sidecar))) == 20

    def test_strict_mode_on_engine_also_raises(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"a":1}\n{"a":2}\nnope\n')
        with Context(parallelism=2, retry_policy=FAST_RETRY) as ctx:
            with pytest.raises(JsonSyntaxError, match="line 3"):
                infer_ndjson_file(path, context=ctx, num_partitions=2)


class TestSequentialStreaming:
    """The context-less file path streams the iterator straight through."""

    def test_empty_file_sequential(self, tmp_path):
        path = tmp_path / "empty.ndjson"
        path.write_text("")
        run = infer_ndjson_file(path)
        assert run.record_count == 0
        assert run.skipped_count == 0
        assert print_type(run.schema) == "(empty)"

    def test_sequential_path_does_not_materialise_lines(
        self, tmp_path, monkeypatch
    ):
        # Guard against regressing to `list(iter_numbered_lines(...))` in
        # the sequential path: the pipeline must hand the generator to the
        # accumulator as-is, never a materialised list.
        import repro.inference.pipeline as pipeline_mod

        path = tmp_path / "rows.ndjson"
        path.write_text('{"a": 1}\n{"a": 2}\n')
        seen = {}
        original = pipeline_mod.accumulate_ndjson_partition

        def spy(numbered_lines, **kwargs):
            seen["type"] = type(numbered_lines)
            return original(numbered_lines, **kwargs)

        monkeypatch.setattr(
            pipeline_mod, "accumulate_ndjson_partition", spy
        )
        run = infer_ndjson_file(path)
        assert run.record_count == 2
        assert seen["type"] not in (list, tuple)
