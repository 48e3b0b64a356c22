"""``python -m repro.obs watch``: live view of a running workload.

Follows a growing transaction log (the writer side needs no changes:
the txlog is append-only JSONL) and renders a refresh-in-place TTY
dashboard from a :class:`~repro.obs.live.LiveAnalyzer`::

    python -m repro.bench run DV3-Small --txlog /tmp/run.jsonl &
    python -m repro.obs watch /tmp/run.jsonl --follow

One-shot mode (no ``--follow``) reads whatever the log holds right
now -- complete records only, a partial trailing record is held back
-- and prints one frame, or with ``--json`` the full analyzer
snapshot, **byte-identical** to ``python -m repro.obs LOG --json``
once the run has finished.

``--slo policy.json`` re-evaluates a declarative SLO policy over the
stream as it arrives (independent of any monitoring the run itself
did) and appends the rule table to every frame.

Exit codes (README "Exit codes"): ``0`` run complete (or snapshot
printed); ``2`` no records or a bad ``--slo`` policy; ``3`` follow
mode gave up (``--timeout``) before RUN_END.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional

from .. import cli
from ..cli import EXIT_INCOMPLETE, EXIT_OK, EXIT_UNREADABLE  # noqa: F401
from . import events as ev
from .live import LiveAnalyzer
from .txlog import TailReader

#: ANSI: cursor home + clear to end of screen (refresh in place)
_CLEAR = "\x1b[H\x1b[J"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs watch",
        description="Watch a (possibly still growing) transaction "
                    "log live.")
    parser.add_argument("log", help="path to the run's JSONL "
                                    "transaction log")
    parser.add_argument("--follow", "-f", action="store_true",
                        help="keep polling for new records until the "
                             "RUN_END footer (or --timeout)")
    parser.add_argument("--interval", type=float, default=0.5,
                        help="seconds between polls in follow mode "
                             "(default 0.5)")
    parser.add_argument("--timeout", type=float, default=60.0,
                        help="give up following after this many wall "
                             "seconds (default 60; exit 3)")
    parser.add_argument("--top", type=int, default=None,
                        help="rows per ranking (default: 5 on the "
                             "dashboard, 10 -- the batch CLI's "
                             "default -- for --json)")
    parser.add_argument("--json", action="store_true",
                        help="print the final analyzer snapshot as "
                             "JSON instead of dashboard frames "
                             "(identical to the batch CLI's --json)")
    parser.add_argument("--slo", metavar="POLICY",
                        help="JSON SLO policy file to evaluate over "
                             "the stream (see repro.obs.slo)")
    parser.add_argument("--no-clear", action="store_true",
                        help="never emit ANSI clear codes (frames "
                             "scroll instead of refreshing)")
    return parser


def main(argv: Optional[list] = None) -> int:
    return cli.main(build_parser(), _watch, argv)


def _watch(args) -> int:
    monitor = None
    if args.slo is not None:
        from .slo import SLOMonitor
        monitor = SLOMonitor(args.slo)

    live = LiveAnalyzer()
    top = args.top if args.top is not None else 5
    clear = (sys.stdout.isatty() and not args.no_clear
             and not args.json)
    deadline = time.monotonic() + args.timeout
    frames = 0

    with TailReader(args.log) as reader:
        while True:
            batch = reader.poll()
            for record in batch:
                live.on_record(record)
                if monitor is not None:
                    type_ = record.get("type")
                    if type_ == ev.RUN:
                        monitor.expected_tasks = record.get("tasks")
                    elif type_ != ev.SLO_ALERT:
                        # re-derive alerts; never replay stamped ones
                        monitor.on_record(record)
            if batch and not args.json:
                frames += 1
                frame = live.render_dashboard(top=top,
                                              status=reader.status)
                if monitor is not None and monitor.alerts:
                    worst = monitor.alerts[-1]
                    frame += (f"\nslo[{len(monitor.alerts)}] last: "
                              f"{worst['rule']} -> {worst['status']}")
                print((_CLEAR if clear else "") + frame, flush=True)
            if live.complete or not args.follow:
                break
            if time.monotonic() >= deadline:
                break
            time.sleep(args.interval)
        status = reader.status

    if status.records == 0:
        raise cli.InputError(f"{args.log}: no records "
                             f"(not a transaction log?)")

    if monitor is not None:
        if live.complete:
            footer = live.folds.footer or {}
            monitor.finish(makespan=footer.get("makespan"))
        from .slo import render_slo_report

    if args.json:
        print(json.dumps(
            live.snapshot(top=args.top if args.top is not None
                          else 10), indent=2,
                         sort_keys=True, default=str))
    else:
        if frames == 0:  # nothing new arrived; still show the state
            print(live.render_dashboard(top=top, status=status))
        if monitor is not None:
            report = render_slo_report(monitor)
            if report:
                print("\n" + report)
        if status.truncated:
            print(f"log truncated: {status.describe()}",
                  file=sys.stderr)

    if args.follow and not live.complete:
        print(f"{args.log}: gave up after {args.timeout:.0f}s "
              f"without RUN_END", file=sys.stderr)
        return EXIT_INCOMPLETE
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
