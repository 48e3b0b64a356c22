"""The contract every ``python -m repro.*`` command line keeps.

``repro.bench``, ``repro.chaos``, ``repro.facility``, ``repro.serve``
and ``repro.obs`` (with its ``watch`` and ``diff`` subcommands) share
one exit-code table, defined below and listed in README ("Exit
codes"), one parent parser for the run options, and one ``main``
wrapper: input errors become one ``error: ...`` line on stderr, never
a traceback, and the signal handlers are installed in one place.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, List, Optional

EXIT_OK = 0            # report produced; the requested run completed
EXIT_UNREADABLE = 2    # unreadable input, caught before any log opens
EXIT_INCOMPLETE = 3    # the requested run did not complete
EXIT_KILLED = 137      # simulated SIGKILL; SIGTERM/SIGINT exit 128 + N


class InputError(ValueError):
    """Input from outside the program that it cannot use (exit 2)."""


class UnknownName(InputError, KeyError):
    """A name missing from a fixed table (workload, scenario); still a
    ``KeyError`` for callers that look names up."""

    # KeyError's own str() would quote the message
    __str__ = InputError.__str__


def positive(kind: Callable = int, zero_ok: bool = False) -> Callable:
    """An argparse ``type=`` for worker, tenant and submission counts
    and workload scales: parses ``kind`` and accepts only finite values
    > 0 (>= 0 with ``zero_ok``), so a bad value exits 2 at parse time
    instead of failing mid-run."""
    def parse(text: str):
        value = kind(text)
        if math.isfinite(value) and (value > 0 or (zero_ok and value == 0)):
            return value
        # imported here so simulations never load argparse
        from argparse import ArgumentTypeError
        raise ArgumentTypeError(
            f"must be {'>= 0' if zero_ok else '> 0'}, got {text!r}")
    parse.__name__ = kind.__name__  # argparse's "invalid int value"
    return parse


def run_options(workers: int, scale: float = 1.0,
                txlog: Optional[str] = "optional"):
    """The run options every run-driving CLI shares, as an argparse
    parent: ``--workload``, ``--scale``, ``--workers``, ``--seed``,
    ``--txlog`` (``txlog`` is ``"optional"``, ``"required"``, or None
    for a CLI that names its own logs) and ``--slo``."""
    import argparse
    parser = argparse.ArgumentParser(add_help=False)
    group = parser.add_argument_group("run options")
    group.add_argument("--workload", default="DV3-Small",
                       help="Table II configuration, case-insensitive "
                            "(default %(default)s)")
    group.add_argument("--scale", type=positive(float), default=scale,
                       help="scale n_tasks and input bytes by this "
                            "factor (default %(default)s)")
    group.add_argument("--workers", type=positive(int), default=workers,
                       help="simulated workers (default %(default)s)")
    group.add_argument("--seed", type=int, default=11)
    if txlog is not None:
        group.add_argument("--txlog", default=None,
                           required=txlog == "required",
                           help="write the run's JSONL transaction log "
                                "here (analyze: python -m repro.obs LOG)")
    group.add_argument("--slo", default=None, metavar="POLICY",
                       help="monitor a JSON SLO policy during the run; "
                            "alerts are stamped into the txlog "
                            "(see repro.obs.slo)")
    return parser


def main(parser, command: Callable, argv: Optional[List[str]] = None
         ) -> int:
    """Run one CLI under the contract: parse ``argv``, load ``--slo``
    (so a bad policy fails before anything runs or is written), install
    the SIGTERM/SIGINT handlers, and return ``command(args)``'s exit
    code.  An :class:`InputError` (a checkpoint error is one) or an
    ``OSError`` becomes one ``error:`` line on stderr and exit 2."""
    args = parser.parse_args(argv)
    # imported here, so that importing repro.cli loads nothing else
    from .obs.txlog import install_signal_handlers
    try:
        if getattr(args, "slo", None) is not None:
            from .obs.slo import load_policy
            args.slo = load_policy(args.slo)
        install_signal_handlers()
        return command(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNREADABLE
