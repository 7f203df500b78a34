"""The benchmark tracer's contract with the package.

``benchmarks/e2e/tracing.py`` records its spans by replacing module
attributes of the package, the names in its ``WRAPPED`` table.  A
change that removes or renames one of them breaks the traced benchmark
run, which the other tests never start.  Here the tracer is loaded from
its file, installed and removed again in this process: installing looks
up every wrapped name and raises on a missing one.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

TRACING = (
    Path(__file__).resolve().parent.parent
    / "benchmarks" / "e2e" / "tracing.py"
)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("e2e_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_wrapped_name_and_restores_it():
    tracing = _load_tracing()
    owners = [
        (tracing._resolve(owner), attr) for owner, attr, _ in tracing.WRAPPED
    ]
    before = [owner.__dict__.get(attr) for owner, attr in owners]
    tracer = tracing.Tracer(job=0)
    try:
        tracer.install()
        installed = [owner.__dict__[attr] for owner, attr in owners]
    finally:
        tracer.remove()
    assert all(new is not old for new, old in zip(installed, before))
    assert [owner.__dict__.get(attr) for owner, attr in owners] == before


def test_traced_runs_record_nested_spans(tmp_path):
    """A small sequential run and a small partitioned run under the
    tracer: the wrapped names are still the ones the pipeline calls,
    with the arguments and results the wrappers read, and the spans
    nest."""
    from repro.engine import Context
    from repro.inference import pipeline

    data = tmp_path / "data.ndjson"
    data.write_text(
        "".join('{"id": %d, "tags": ["t%d"]}\n' % (i, i) for i in range(40))
    )
    tracing = _load_tracing()
    tracer = tracing.Tracer(job=0).install()
    try:
        with tracer.span("job", "job"):
            pipeline.infer_ndjson_file(data, collect_timings=True)
            with Context(parallelism=2, backend="thread") as ctx:
                pipeline.infer_ndjson_file(
                    data, context=ctx, num_partitions=4, min_split_bytes=1,
                )
    finally:
        tracer.remove()
    names = {span["name"] for span in tracer.spans}
    assert {"pipeline.accumulate_ndjson_partition", "pipeline.plan_splits",
            "Scheduler.run", "pipeline.merge_summaries_full"} <= names
    # The sequential run is one task of 40 records; the partitioned one
    # reduces 4 partials.
    assert [records for *_, records in tracer.tasks] == [40]
    assert tracer.partials == [1, 4]
    assert tracing.check_nesting(tracer.spans) == []
