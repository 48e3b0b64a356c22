"""Run analyzer CLI.

Usage::

    python -m repro.obs results/run.jsonl
    python -m repro.obs results/run.jsonl --section stragglers --top 20
    python -m repro.obs results/run.jsonl --summary-only
    python -m repro.obs results/run.jsonl --json          # machine-readable
    python -m repro.obs results/run.jsonl --export-chrome trace.json
    python -m repro.obs results/run.jsonl --export-prom metrics.prom
    python -m repro.obs --demo /tmp/run.jsonl    # tiny run, then report
    python -m repro.obs watch run.jsonl --follow  # live dashboard
    python -m repro.obs diff base.jsonl cand.jsonl  # why slower?

Reads a transaction log written by ``repro.obs.txlog`` (see
``python -m repro.bench run --txlog ...``) and prints the straggler,
transfer-hotspot, cache-pressure and critical-path reports -- as
terminal tables, or as one JSON document with ``--json`` so CI and
other tools can consume the same analyses machine-readably.

Exit codes follow the one table in :mod:`repro.cli` (README "Exit
codes"): ``0`` report produced; ``2`` the log is unreadable or empty;
``3`` (with ``--strict``) the log's run did not complete -- aborted,
crashed, or truncated before the RUN_END footer.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .. import cli
from ..cli import EXIT_INCOMPLETE, EXIT_OK, InputError
from . import analyze

SECTIONS = analyze.SECTIONS


def _demo_run(path: str) -> None:
    """Generate a tiny DV3 run with the transaction log enabled."""
    import dataclasses

    from ..bench.runners import build_environment, run_scheduler
    from ..bench.workloads import build_workflow
    from ..hep.datasets import TABLE2

    spec = dataclasses.replace(TABLE2["DV3-Small"], name="DV3-demo",
                               n_tasks=40, input_bytes=1.5e9)
    env = build_environment(3, seed=5)
    workflow = build_workflow(spec, arity=4, seed=5)
    result = run_scheduler(env, workflow, "taskvine", txlog_path=path)
    print(f"demo run: {result.tasks_done} tasks, makespan "
          f"{result.makespan:.1f} s -> {path}", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Analyze a scheduler run's transaction log.")
    parser.add_argument("log", help="path to the run's JSONL "
                                    "transaction log")
    parser.add_argument("--section", action="append",
                        choices=SECTIONS, default=None,
                        help="report section(s) to print "
                             "(default: all)")
    parser.add_argument("--top", type=int, default=10,
                        help="rows per ranking table (default 10)")
    parser.add_argument("--summary-only", action="store_true",
                        help="print only the run summary")
    parser.add_argument("--json", action="store_true",
                        help="emit the selected sections as one JSON "
                             "document instead of terminal tables")
    parser.add_argument("--strict", action="store_true",
                        help="exit 3 when the log's run did not "
                             "complete (aborted/crashed/truncated)")
    parser.add_argument("--export-chrome", metavar="PATH",
                        help="also write a Chrome trace_event JSON "
                             "(open in Perfetto / about:tracing)")
    parser.add_argument("--compact", action="store_true",
                        help="with --export-chrome: drop schedule-wait "
                             "lanes and cached stage hits (recommended "
                             "beyond ~10k tasks)")
    parser.add_argument("--export-prom", metavar="PATH",
                        help="also write a Prometheus text exposition "
                             "rebuilt from the log")
    parser.add_argument("--demo", action="store_true",
                        help="first generate a tiny simulated run "
                             "into LOG, then analyze it")
    return parser


def _run_completed(log: "analyze.RunLog") -> bool:
    from . import events as ev
    footers = log.by_type.get(ev.RUN_END, [])
    if not footers:
        return False  # truncated: the run never wrote its footer
    return bool(footers[-1].get("completed", True))


def _diff_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs diff",
        description="Attribute the makespan delta between two runs "
                    "of the same workload.")
    parser.add_argument("baseline", help="baseline run's txlog (A)")
    parser.add_argument("candidate", help="candidate run's txlog (B)")
    parser.add_argument("--top", type=int, default=10)
    parser.add_argument("--json", action="store_true",
                        help="emit the full diff as JSON")
    return parser


def _diff(args) -> int:
    from .diff import diff_runs, render_diff
    result = diff_runs(args.baseline, args.candidate, top=args.top)
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True,
                         default=str))
    else:
        print(render_diff(result, top=args.top))
    return EXIT_OK


def main(argv: Optional[list] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # subcommand dispatch (same pattern as repro.bench): the plain
    # analyzer keeps its positional-log interface for compatibility
    if argv[:1] == ["watch"]:
        from .watch import main as watch_main
        return watch_main(argv[1:])
    if argv[:1] == ["diff"]:
        return cli.main(_diff_parser(), _diff, argv[1:])
    return cli.main(build_parser(), _analyze, argv)


def _analyze(args) -> int:
    if args.demo:
        _demo_run(args.log)
    sections = args.section
    if args.summary_only:
        sections = ["summary"]
    try:
        log = analyze.load(args.log)
    except OSError as exc:
        raise InputError(f"cannot read {args.log}: {exc}") from None
    if not log.records:
        raise InputError(f"{args.log}: no records "
                         f"(not a transaction log?)")
    status = log.read_status
    if status is not None and (status.skipped or status.partial_tail
                               or not status.complete):
        # a live or killed run's log: analysis covers the complete
        # prefix; say where the cut fell rather than raising
        print(f"{args.log}: truncated log, analyzing "
              + status.describe(), file=sys.stderr)

    if args.export_chrome:
        from .export import write_chrome_trace
        stats = write_chrome_trace(args.export_chrome, log.records,
                                   compact=args.compact)
        print(f"chrome trace -> {args.export_chrome} "
              f"({stats['tasks']} tasks, makespan "
              f"{stats['makespan_s']:.1f} s)", file=sys.stderr)
    if args.export_prom:
        from .export import prometheus_exposition, registry_from_txlog
        registry = registry_from_txlog(log.records)
        with open(args.export_prom, "w") as fh:
            fh.write(prometheus_exposition(registry,
                                           timestamp_s=log.makespan))
        print(f"prometheus exposition -> {args.export_prom}",
              file=sys.stderr)

    try:
        if args.json:
            print(json.dumps(analyze.report_data(
                log, top=args.top, sections=sections), indent=2,
                sort_keys=True, default=str))
        else:
            print(analyze.render_report(log, top=args.top,
                                        sections=sections))
    except BrokenPipeError:  # e.g. piped into `head`
        return EXIT_OK
    if args.strict and not _run_completed(log):
        print(f"{args.log}: run did not complete", file=sys.stderr)
        return EXIT_INCOMPLETE
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
