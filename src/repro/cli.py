"""Command-line interface: ``python -m repro`` / ``json-schema-infer``.

Sub-commands::

    infer FILE            infer and print the fused schema of an NDJSON file
    merge A B... -o C     union schema checkpoints (cross-shard merge)
    stats FILE            print a Tables 2-5 style succinctness report
    statistics SOURCE     per-path value statistics (counts, ranges,
                          distinct estimates) from a file or checkpoint
    generate NAME N OUT   write a synthetic dataset as NDJSON
    paths FILE            list every schema path with its optionality
    check-path FILE PATH  resolve a query path against the inferred schema
    diff OLD NEW          structural diff of two files' inferred schemas
    project FILE PATH...  prune records down to the given paths
    validate FILE         check records against a schema, reporting paths
    report FILE           full Markdown audit report for a feed
    fsck PATH...          classify checkpoint/journal health (see docs)

Run any sub-command with ``-h`` for its options.

Exit codes: ``0`` success, ``1`` failure, ``2`` usage error, and
``EXIT_RESUMABLE`` (75, after ``EX_TEMPFAIL``) when a journaled ``infer``
run was interrupted (Ctrl-C/SIGTERM) after draining in-flight work — the
journal holds every completed partition and ``infer --resume`` finishes
the run.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Callable, Sequence

from repro.analysis.diff import diff_schemas
from repro.analysis.paths import iter_schema_paths, resolve_path
from repro.analysis.projection import ProjectionError, Projector
from repro.analysis.report import build_report
from repro.analysis.stats import (
    SUCCINCTNESS_HEADERS,
    succinctness_row_from_run,
)
from repro.analysis.tables import render_table
from repro.core.errors import TypeSystemError
from repro.core.json_schema import to_json_schema
from repro.core.printer import pretty_print, print_type
from repro.core.type_parser import parse_type
from repro.core.validation import validate
from repro.datasets.base import DATASET_NAMES, write_dataset
from repro.inference.pipeline import (
    ResumableInterrupt,
    infer_ndjson_file,
    infer_schema,
)
from repro.jsonio.errors import JsonError
from repro.jsonio.ndjson import read_ndjson
from repro.jsonio.writer import dumps
from repro.store.checkpoint import CheckpointError
from repro.store.journal import JournalError
from repro.store.locks import LockHeldError

__all__ = ["EXIT_RESUMABLE", "main", "build_parser"]

#: Exit code for "interrupted but resumable": the run drained and
#: journaled its in-flight tasks before exiting, so ``infer --resume``
#: will finish it.  75 after BSD ``EX_TEMPFAIL`` ("try again"), and
#: distinct from 0/1/2 and the engine's crash/kill codes.
EXIT_RESUMABLE = 75


def _number(kind: type, valid: Callable[[float], bool], bound: str):
    """An argparse ``type=`` converter: parse ``kind``, then require
    ``valid(value)``.  A value out of range is then a usage error (exit
    2) that names the flag and states ``bound``, instead of a traceback
    or a silently misread setting."""
    def convert(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}"
            ) from None
        if not valid(value):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text!r}")
        return value
    return convert


_COUNT = _number(int, lambda n: n >= 0, "0 or more")
_SECONDS = _number(
    float, lambda s: 0 < s < math.inf, "a number of seconds above 0"
)
_RATE = _number(float, lambda r: 0 <= r <= 1, "a fraction from 0 to 1")
_SPLIT_MB = _number(
    float, lambda mb: 1 <= mb * (1 << 20) < math.inf,
    "at least one byte (1/1048576 MB)",
)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="json-schema-infer",
        description="Schema inference for massive JSON datasets (EDBT 2017).",
    )
    from repro import __version__
    parser.add_argument(
        "--version", action="version",
        version=f"%(prog)s {__version__}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_infer = sub.add_parser("infer", help="infer the schema of an NDJSON file")
    p_infer.add_argument("file", help="path to a newline-delimited JSON file")
    p_infer.add_argument(
        "--pretty", action="store_true",
        help="multi-line, indented schema output",
    )
    p_infer.add_argument(
        "--json-schema", action="store_true",
        help="emit a standard JSON Schema document instead of type syntax",
    )
    p_infer.add_argument(
        "--skip-invalid", action="store_true",
        help="silently drop lines that fail to parse",
    )
    p_infer.add_argument(
        "--permissive", action="store_true",
        help="quarantine malformed lines instead of failing, and report "
             "the skip count on stderr",
    )
    p_infer.add_argument(
        "--bad-records", metavar="PATH", default=None,
        help="with --permissive: spill quarantined lines to this NDJSON "
             "sidecar (line number, error, raw text)",
    )
    p_infer.add_argument(
        "--max-error-rate", type=_RATE, metavar="RATE", default=None,
        help="abort (exit 1) if more than this fraction of records is "
             "malformed, e.g. 0.01 for 1%%",
    )
    p_infer.add_argument(
        "--timings", action="store_true",
        help="collect and print per-phase map timings (parse/type/fuse, "
             "records/s) on stderr; off by default to keep the map loop "
             "free of per-record clock reads",
    )
    p_infer.add_argument(
        "--split-mode", choices=["auto", "bytes", "lines"], default="auto",
        help="input ingestion model: 'bytes' ships byte-range split "
             "descriptors and workers read the file themselves (zero-copy "
             "driver), 'lines' reads and distributes lines at the driver, "
             "'auto' picks bytes when --parallel is set and FILE is a "
             "regular file, not a pipe (default: auto)",
    )
    p_infer.add_argument(
        "--min-split-mb", type=_SPLIT_MB, metavar="MB", default=None,
        help="with --split-mode bytes/auto: smallest byte-range split to "
             "plan, in MiB (default: 1)",
    )
    p_infer.add_argument(
        "--checkpoint", metavar="DIR", default=None,
        help="persist the inferred summary (schema, counts, distinct "
             "types, source fingerprints) as a checkpoint directory "
             "after the run",
    )
    p_infer.add_argument(
        "--update", action="store_true",
        help="with --checkpoint: fuse the stored summary with the new "
             "file instead of inferring from scratch (merge-on-update; "
             "a missing checkpoint directory starts cold)",
    )
    p_infer.add_argument(
        "--parallel", "--workers", type=_COUNT, metavar="N", default=None,
        dest="parallel",
        help="run typing+fusion on the engine with N-way parallelism "
             "(0 = one worker per available CPU; --workers is an alias)",
    )
    p_infer.add_argument(
        "--backend", choices=["thread", "process"], default="thread",
        help="engine worker pool for --parallel: threads share memory, "
             "processes give CPU-bound work true parallelism (default: "
             "thread)",
    )
    p_infer.add_argument(
        "--journal", metavar="PATH", default=None,
        help="write-ahead run journal: record the task plan up front and "
             "each completed partition summary durably, so a crashed or "
             "interrupted run can be finished with --resume (Ctrl-C "
             "drains in-flight tasks and exits with code 75)",
    )
    p_infer.add_argument(
        "--resume", action="store_true",
        help="with --journal: replay the journal's completed summaries "
             "and execute only the remaining tasks; the result is "
             "byte-identical to an uninterrupted run (requires the same "
             "input file and flags as the original run)",
    )
    p_infer.add_argument(
        "--summary-cache", metavar="DIR", default=None,
        help="cross-run content-addressed partition-summary cache: probe "
             "each planned partition's content digest before dispatch and "
             "replay hits instead of re-typing their bytes, so a re-run "
             "over unchanged (or append-mostly) data does map work "
             "proportional to the delta; results are byte-identical to "
             "an uncached run",
    )
    p_infer.add_argument(
        "--stats", choices=["off", "basic", "sketches"], default="off",
        dest="stats_mode",
        help="enrich the run with mergeable per-path statistics "
             "(presence/kind counts, numeric and length ranges; "
             "'sketches' adds HyperLogLog distinct estimates and Bloom "
             "membership filters); they ride summaries, checkpoints and "
             "incremental updates, the schema itself is unchanged, and "
             "'off' (default) costs nothing",
    )
    p_infer.add_argument(
        "--max-retries", type=_COUNT, metavar="N", default=3,
        help="retries per partition task for transient failures "
             "(default: 3)",
    )
    p_infer.add_argument(
        "--task-timeout", type=_SECONDS, metavar="SECONDS", default=None,
        help="abandon and retry a partition task exceeding this wall-clock "
             "budget (default: unlimited)",
    )

    p_merge = sub.add_parser(
        "merge",
        help="union schema checkpoints into one (cross-shard merge)",
    )
    p_merge.add_argument(
        "checkpoints", nargs="+",
        help="checkpoint directories to merge (any order — the result "
             "is the same by associativity)",
    )
    p_merge.add_argument(
        "-o", "--out", required=True, metavar="DIR",
        help="directory to write the merged checkpoint to",
    )
    p_merge.add_argument(
        "--pretty", action="store_true",
        help="multi-line, indented schema output",
    )
    p_merge.add_argument(
        "--parallel", type=_COUNT, metavar="N", default=None,
        help="load and merge the checkpoints on the engine with N-way "
             "parallelism (0 merges in-line)",
    )

    p_stats = sub.add_parser(
        "stats", help="succinctness statistics (Tables 2-5 columns)"
    )
    p_stats.add_argument("file")
    p_stats.add_argument("--skip-invalid", action="store_true")

    p_statistics = sub.add_parser(
        "statistics",
        help="per-path value statistics report (counts, kind frequencies, "
             "ranges, distinct estimates)",
    )
    p_statistics.add_argument(
        "source",
        help="an NDJSON file to analyse, or a checkpoint directory saved "
             "by 'infer --stats ... --checkpoint DIR' (the report then "
             "needs no access to the original data)",
    )
    p_statistics.add_argument(
        "--stats", choices=["basic", "sketches"], default="sketches",
        dest="stats_mode",
        help="statistics depth when analysing a file (default: sketches; "
             "ignored for checkpoints, which carry their saved mode)",
    )
    p_statistics.add_argument("--skip-invalid", action="store_true")
    p_statistics.add_argument(
        "--max-paths", type=_COUNT, metavar="N", default=200,
        help="largest number of path rows to print (default: 200)",
    )

    p_gen = sub.add_parser("generate", help="write a synthetic dataset")
    p_gen.add_argument("dataset", choices=sorted(DATASET_NAMES))
    p_gen.add_argument("n", type=int, help="number of records")
    p_gen.add_argument("out", help="output NDJSON path")
    p_gen.add_argument("--seed", type=int, default=0)

    p_paths = sub.add_parser(
        "paths", help="list every schema path with its optionality"
    )
    p_paths.add_argument("file")
    p_paths.add_argument("--skip-invalid", action="store_true")

    p_check = sub.add_parser(
        "check-path", help="resolve a query path against the schema"
    )
    p_check.add_argument("file")
    p_check.add_argument("path", help="dotted path, e.g. user.name or tags[*]")
    p_check.add_argument("--skip-invalid", action="store_true")

    p_diff = sub.add_parser(
        "diff", help="structural diff of two files' inferred schemas"
    )
    p_diff.add_argument("old", help="NDJSON file with the old data")
    p_diff.add_argument("new", help="NDJSON file with the new data")
    p_diff.add_argument("--skip-invalid", action="store_true")

    p_project = sub.add_parser(
        "project", help="prune records down to the given paths"
    )
    p_project.add_argument("file")
    p_project.add_argument("paths", nargs="+",
                           help="paths to keep, e.g. user.name tags[*].text")
    p_project.add_argument("--skip-invalid", action="store_true")

    p_validate = sub.add_parser(
        "validate",
        help="check every record against a schema, reporting violations",
    )
    p_validate.add_argument("file")
    group = p_validate.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--schema", help="schema in type syntax, e.g. '{a: Num, b: Str?}'"
    )
    group.add_argument(
        "--schema-file", help="file containing the schema in type syntax"
    )
    p_validate.add_argument("--skip-invalid", action="store_true")
    p_validate.add_argument(
        "--max-reports", type=int, default=20,
        help="stop printing after this many violating records (default 20)",
    )

    p_report = sub.add_parser(
        "report", help="full Markdown audit report for an NDJSON feed"
    )
    p_report.add_argument("file")
    p_report.add_argument("--name", default=None,
                          help="dataset name for the report title")
    p_report.add_argument("--skip-invalid", action="store_true")

    p_fsck = sub.add_parser(
        "fsck",
        help="check the health of checkpoint directories and run journals",
    )
    p_fsck.add_argument(
        "paths", nargs="+",
        help="checkpoint directories and/or run-journal files to inspect",
    )
    p_fsck.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit one JSON report object per path instead of text",
    )

    return parser


class _GracefulStop:
    """SIGINT/SIGTERM → drain-and-journal instead of dying mid-write.

    Installed only around journaled runs: the first signal sets the
    scheduler's stop event (queued tasks are cancelled, in-flight tasks
    drain and journal); a second signal falls back to Python's default
    handling so a wedged run can still be killed interactively.
    """

    def __init__(self) -> None:
        import threading

        self.event = threading.Event()
        self._previous: dict[int, object] = {}

    def _handle(self, signum, frame) -> None:
        if self.event.is_set():
            # Second signal: restore the previous handlers and abort so
            # the user can still force an exit out of a wedged drain.
            self.__exit__(None, None, None)
            raise KeyboardInterrupt
        print(
            "interrupted: draining in-flight tasks (press again to force)",
            file=sys.stderr,
        )
        self.event.set()

    def __enter__(self) -> "_GracefulStop":
        import signal

        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                self._previous[signum] = signal.signal(signum, self._handle)
            except (ValueError, OSError):  # pragma: no cover - non-main thread
                pass
        return self

    def __exit__(self, *exc_info) -> None:
        import signal

        while self._previous:
            signum, previous = self._previous.popitem()
            try:
                signal.signal(signum, previous)
            except (ValueError, OSError):  # pragma: no cover
                pass


def _cmd_infer(args: argparse.Namespace) -> int:
    from contextlib import nullcontext

    from repro.engine import Context, RetryPolicy, available_parallelism
    from repro.jsonio.splits import DEFAULT_MIN_SPLIT_BYTES
    from repro.store import checkpoint_exists

    if args.update and not args.checkpoint:
        print("error: --update requires --checkpoint DIR", file=sys.stderr)
        return 2
    if args.resume and not args.journal:
        print("error: --resume requires --journal PATH", file=sys.stderr)
        return 2
    update_from = None
    if args.update and checkpoint_exists(args.checkpoint):
        update_from = args.checkpoint

    policy = RetryPolicy(
        max_retries=args.max_retries, task_timeout_s=args.task_timeout
    )
    permissive = args.permissive or args.skip_invalid
    kwargs = dict(
        permissive=permissive,
        bad_records_path=args.bad_records,
        max_error_rate=args.max_error_rate,
        collect_timings=args.timings,
        split_mode=args.split_mode,
        min_split_bytes=(
            int(args.min_split_mb * (1 << 20))
            if args.min_split_mb is not None else DEFAULT_MIN_SPLIT_BYTES
        ),
        update_from=update_from,
        checkpoint_to=args.checkpoint,
        journal_path=args.journal,
        resume=args.resume,
        summary_cache=args.summary_cache,
        stats_mode=args.stats_mode,
    )
    stats = None
    stop = _GracefulStop() if args.journal else nullcontext()
    with stop:
        if args.journal:
            kwargs["stop_event"] = stop.event
        if args.parallel is not None:
            # --parallel 0 means "size the pool to this machine".
            workers = args.parallel or available_parallelism()
            with Context(parallelism=workers, backend=args.backend,
                         retry_policy=policy) as ctx:
                stats = ctx.scheduler.stats
                run = infer_ndjson_file(
                    args.file, context=ctx,
                    num_partitions=workers * 2, **kwargs,
                )
        else:
            run = infer_ndjson_file(args.file, **kwargs)
    schema = run.schema
    if args.json_schema:
        print(dumps(to_json_schema(schema, title=args.file)))
    elif args.pretty:
        print(pretty_print(schema))
    else:
        print(print_type(schema))
    if args.permissive and run.skipped_count:
        print(run.skip_summary(), file=sys.stderr)
    if args.checkpoint:
        reused = (f" ({run.checkpoint_record_count:,} reused from "
                  f"the previous checkpoint)" if update_from else "")
        print(
            f"checkpoint: {run.record_count:,} records -> "
            f"{args.checkpoint}{reused}",
            file=sys.stderr,
        )
    if args.timings:
        detail = (f" ({run.phase_timings.describe()})"
                  if run.phase_timings is not None else "")
        print(f"map {run.map_seconds:.3f}s{detail} · "
              f"reduce {run.reduce_seconds:.3f}s", file=sys.stderr)
        if stats is not None:
            print(
                f"input: {stats.input_bytes_shipped:,} B shipped from the "
                f"driver · {stats.input_bytes_read:,} B read by workers",
                file=sys.stderr,
            )
            if stats.tasks_per_worker:
                spread = " ".join(
                    f"{worker}={count}" for worker, count in
                    sorted(stats.tasks_per_worker.items())
                )
                print(f"workers: {spread}", file=sys.stderr)
            if stats.summary_wire_bytes_decoded:
                print(
                    f"summary wire: {stats.summary_wire_bytes_encoded:,} B "
                    f"encoded · {stats.summary_wire_bytes_decoded:,} B "
                    f"decoded",
                    file=sys.stderr,
                )
            if stats.cache_hits or stats.cache_misses:
                print(
                    f"summary cache: {stats.cache_hits:,} hits · "
                    f"{stats.cache_misses:,} misses · "
                    f"{stats.cache_stores:,} stored · "
                    f"{stats.cache_bytes_skipped:,} B of input skipped",
                    file=sys.stderr,
                )
            if stats.stats_bundles_merged:
                print(
                    f"statistics: {stats.stats_bundles_merged:,} partition "
                    f"bundles merged",
                    file=sys.stderr,
                )
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    from repro.store import merge_checkpoints

    if args.parallel:
        from repro.engine import Context

        with Context(parallelism=args.parallel) as ctx:
            merged = ctx.merge_checkpoints(args.checkpoints, out=args.out)
    else:
        merged = merge_checkpoints(args.checkpoints, out=args.out)
    if args.pretty:
        print(pretty_print(merged.schema))
    else:
        print(print_type(merged.schema))
    print(
        f"merged {len(args.checkpoints)} checkpoints "
        f"({merged.record_count:,} records, "
        f"{merged.manifest.distinct_type_count:,} distinct types) -> "
        f"{args.out}",
        file=sys.stderr,
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    run = infer_ndjson_file(args.file, stats_mode="basic",
                            permissive=args.skip_invalid)
    row = succinctness_row_from_run(run, label=args.file)
    print(render_table(SUCCINCTNESS_HEADERS, [row.cells()]))
    print(f"records: {row.record_count:,}")
    print(f"map phase: {run.map_seconds:.3f}s  reduce phase: "
          f"{run.reduce_seconds:.3f}s")
    return 0


def _cmd_statistics(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis.report import render_statistics
    from repro.store import load_checkpoint

    source = Path(args.source)
    if source.is_dir():
        checkpoint = load_checkpoint(source)
        bundle = checkpoint.summary.stats
        if bundle is None:
            print(
                f"error: checkpoint at {args.source!r} carries no "
                f"statistics; re-run "
                f"'infer --stats basic|sketches --checkpoint {args.source}'",
                file=sys.stderr,
            )
            return 1
    else:
        run = infer_ndjson_file(
            args.source, permissive=args.skip_invalid,
            stats_mode=args.stats_mode,
        )
        bundle = run.stats
    print(render_statistics(bundle, name=args.source,
                            max_paths=args.max_paths))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    count = write_dataset(args.dataset, args.n, args.out, seed=args.seed)
    print(f"wrote {count:,} {args.dataset} records to {args.out}")
    return 0


def _cmd_paths(args: argparse.Namespace) -> int:
    schema = infer_ndjson_file(args.file, permissive=args.skip_invalid).schema
    for path, guaranteed in sorted(iter_schema_paths(schema)):
        marker = "mandatory" if guaranteed else "optional "
        print(f"{marker}  {path}")
    return 0


def _cmd_check_path(args: argparse.Namespace) -> int:
    schema = infer_ndjson_file(args.file, permissive=args.skip_invalid).schema
    info = resolve_path(schema, args.path)
    if not info.exists:
        print(f"{args.path}: not present in any record")
        return 1
    status = "in every record" if info.guaranteed else "optional"
    print(f"{args.path}: {status}, type {print_type(info.type)}")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    old = infer_ndjson_file(args.old, permissive=args.skip_invalid).schema
    new = infer_ndjson_file(args.new, permissive=args.skip_invalid).schema
    changes = diff_schemas(old, new)
    if not changes:
        print("schemas are identical")
        return 0
    for change in changes:
        print(change)
    return 0


def _cmd_project(args: argparse.Namespace) -> int:
    values = list(read_ndjson(args.file, skip_invalid=args.skip_invalid))
    projector = Projector(infer_schema(values), args.paths)
    for pruned in projector.project_many(values):
        print(dumps(pruned))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    values = list(read_ndjson(args.file, skip_invalid=args.skip_invalid))
    print(build_report(values, name=args.name or args.file))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    if args.schema is not None:
        schema = parse_type(args.schema)
    else:
        with open(args.schema_file, "r", encoding="utf-8") as handle:
            schema = parse_type(handle.read())

    bad_records = 0
    total = 0
    printed = 0
    for total, value in enumerate(
        read_ndjson(args.file, skip_invalid=args.skip_invalid), start=1
    ):
        violations = validate(value, schema)
        if violations:
            bad_records += 1
            if printed < args.max_reports:
                printed += 1
                print(f"record {total}:")
                for violation in violations:
                    print(f"  {violation}")
    if bad_records:
        print(f"{bad_records}/{total} records violate the schema")
        return 1
    print(f"all {total} records conform")
    return 0


def _cmd_fsck(args: argparse.Namespace) -> int:
    import json as _json
    from pathlib import Path

    from repro.store import (
        CACHE_MARKER_NAME,
        fsck_checkpoint,
        fsck_journal,
        fsck_summary_cache,
    )

    exit_code = 0
    for raw in args.paths:
        path = Path(raw)
        # A summary cache is a directory with the CACHE marker, any
        # other directory is a checkpoint, a journal is a file; for
        # missing paths, guess journal when the name looks like one so
        # the report's "kind" stays useful.
        if path.is_dir() and (path / CACHE_MARKER_NAME).is_file():
            report = fsck_summary_cache(path)
        elif path.is_dir():
            report = fsck_checkpoint(path)
        elif path.is_file() or "journal" in path.name:
            report = fsck_journal(path)
        else:
            report = fsck_checkpoint(path)
        if report["status"] != "ok" or report.get("lock") == "held":
            exit_code = 1
        if args.as_json:
            print(_json.dumps(report, sort_keys=True))
            continue
        line = f"{report['kind']:<10} {report['status']:<16} {raw}"
        if report.get("detail"):
            line += f" — {report['detail']}"
        if report.get("lock", "none") != "none":
            line += f" [lock: {report['lock']}]"
        if report.get("orphans"):
            line += f" [orphans: {len(report['orphans'])}]"
        print(line)
    return exit_code


_COMMANDS = {
    "infer": _cmd_infer,
    "merge": _cmd_merge,
    "stats": _cmd_stats,
    "statistics": _cmd_statistics,
    "generate": _cmd_generate,
    "paths": _cmd_paths,
    "check-path": _cmd_check_path,
    "diff": _cmd_diff,
    "project": _cmd_project,
    "validate": _cmd_validate,
    "report": _cmd_report,
    "fsck": _cmd_fsck,
}


#: What a sub-command may raise over bad input, a damaged, foreign or
#: locked store, or a failing file system: an expected outcome, reported
#: as ``error: <message>`` (each message names its path) with exit 1.
_INPUT_ERRORS = (
    JsonError,  # ErrorRateExceeded included
    TypeSystemError,
    CheckpointError,
    JournalError,
    LockHeldError,
    ProjectionError,
    OSError,
)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # Output was piped into something like `head`; not an error.
        return 0
    except ResumableInterrupt as exc:
        print(f"interrupted: {exc}", file=sys.stderr)
        return EXIT_RESUMABLE
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
