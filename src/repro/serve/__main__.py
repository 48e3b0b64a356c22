"""Serve CLI: run an always-on campaign, kill it, restore it.

Usage::

    python -m repro.serve run --tenants 4 --submissions 2 \\
        --txlog serve.jsonl --checkpoint serve.ckpt \\
        --checkpoint-every 25 [--exit-after-tasks 40] [--json]
    python -m repro.serve restore --checkpoint serve.ckpt \\
        --txlog serve-epoch2.jsonl [--json]

``run`` drives an arrival campaign through the live service,
checkpointing every N committed tasks.  ``--exit-after-tasks N``
hard-kills the process (``os._exit(137)``, the SIGKILL exit status)
the instant the Nth task commits -- no cleanup, no log close: the
deterministic stand-in for ``kill -9`` the CI serve-smoke job and the
crash/restore tests use.  ``restore`` rebuilds the environment from
the checkpoint's embedded recipe and resumes at epoch N+1.

Exit codes follow the one table in :mod:`repro.cli` (README "Exit
codes"): 0 run/restore completed, every submission serviced; 2
unreadable input (unknown workload, bad arrival spec or SLO policy,
missing or corrupt checkpoint, a count or scale out of range); 3 the
campaign did not complete; 137 ``--exit-after-tasks`` fired.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
from typing import Optional

from .. import cli
from ..bench.runners import build_environment
from ..bench.serve import serve_campaign
from ..cli import EXIT_INCOMPLETE, EXIT_KILLED, EXIT_OK
from ..facility.report import fairness_summary
from .checkpoint import (CheckpointError, load_checkpoint,
                         restore_service, tenant_summaries)
from .client import run_campaign
from .service import FacilityService

_ENV_KEYS = ("tenants", "submissions", "workload", "scale", "arrival",
             "workers", "seed", "dynamic_every", "inflight_quota",
             "discipline")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Always-on facility service: run arrival "
                    "campaigns with checkpoint/restore.",
        epilog="exit codes: 0 ok, 2 unreadable input, "
               "3 campaign incomplete, 137 simulated SIGKILL")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="drive a campaign through the live service",
        parents=[cli.run_options(workers=4, scale=0.02,
                                 txlog="required")])
    run.add_argument("--tenants", type=cli.positive(int), default=4)
    run.add_argument("--submissions", type=cli.positive(int), default=2,
                     help="submissions per tenant (default 2)")
    run.add_argument("--arrival", default="burst",
                     help="poisson:RATE | burst[:SPACING] | "
                          "replay:PATH (default burst)")
    run.add_argument("--discipline", default="wfs",
                     choices=("wfs", "fifo", "priority"))
    run.add_argument("--dynamic-every", type=int, default=3,
                     help="every Nth task also commits an undeclared "
                          "result file (0 disables; default 3)")
    run.add_argument("--inflight-quota", type=int, default=None)
    run.add_argument("--checkpoint", default=None,
                     help="checkpoint sidecar path")
    run.add_argument("--checkpoint-every", type=int, default=None,
                     metavar="TASKS",
                     help="auto-checkpoint every N committed tasks")
    run.add_argument("--exit-after-tasks", type=int, default=None,
                     metavar="N",
                     help="simulate kill -9 after the Nth commit")
    run.add_argument("--json", action="store_true",
                     help="machine-readable report on stdout")

    restore = sub.add_parser("restore", help="resume a campaign from "
                                             "a checkpoint")
    restore.add_argument("--checkpoint", required=True)
    restore.add_argument("--txlog", required=True,
                         help="transaction log for the new epoch")
    restore.add_argument("--exit-after-tasks", type=int, default=None,
                         metavar="N",
                         help="simulate kill -9 after N more commits")
    restore.add_argument("--checkpoint-every", type=int, default=None,
                         metavar="TASKS")
    restore.add_argument("--json", action="store_true")
    return parser


def _install_crash(service: FacilityService,
                   after: Optional[int]) -> None:
    if after is None:
        return

    def _crash(count: int) -> None:
        if count >= after:
            # SIGKILL semantics: no flush, no close, no atexit --
            # whatever autoflush made durable is all that survives.
            os._exit(EXIT_KILLED)

    service.on_task_done.append(_crash)


def _report(service: FacilityService, result, as_json: bool) -> None:
    summaries = tenant_summaries(service.facility,
                                 set(service.manager.done))
    if as_json:
        payload = {
            "report": fairness_summary(result),
            "summaries": summaries,
            "progress": service.progress(),
            "txlog": service.txlog_path,
            "epoch": service.epoch,
        }
        print(json.dumps(payload, indent=2, sort_keys=True,
                         default=str))
        return
    from ..facility.report import render_facility_report
    print(render_facility_report(result))
    print()
    for tenant, row in sorted(summaries.items()):
        print(f"{tenant}: {row['submissions_done']}"
              f"/{row['submissions']} submissions, "
              f"{row['tasks_done']} tasks, "
              f"{len(row['outputs'])} outputs")
    print(f"\ntransaction log -> {service.txlog_path} "
          f"(epoch {service.epoch}, "
          f"{service.checkpoints} checkpoints)")


async def _run(args) -> int:
    tenants, arrivals = serve_campaign(
        n_tenants=args.tenants, per_tenant=args.submissions,
        workload=args.workload, scale=args.scale,
        arrival=args.arrival, seed=args.seed,
        dynamic_every=args.dynamic_every,
        inflight_quota=args.inflight_quota)
    env = build_environment(args.workers, seed=args.seed)
    service = FacilityService(
        env, tenants, discipline=args.discipline,
        txlog_path=args.txlog,
        txlog_meta={"workload": args.workload,
                    "arrival": args.arrival,
                    "submissions_per_tenant": args.submissions},
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        slo_policy=args.slo)
    service.env_meta = {key: getattr(args, key) for key in _ENV_KEYS}
    _install_crash(service, args.exit_after_tasks)
    await service.start()
    await run_campaign(service, arrivals, wait=False)
    result = await service.drain()
    _report(service, result, args.json)
    return EXIT_OK if result.completed else EXIT_INCOMPLETE


async def _restore(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    recipe = ckpt.get("env") or {}
    missing = [key for key in _ENV_KEYS if key not in recipe]
    if missing:
        raise CheckpointError(
            f"checkpoint lacks the environment recipe keys {missing}; "
            f"was it written by the serve CLI?")
    tenants, _arrivals = serve_campaign(
        n_tenants=recipe["tenants"],
        per_tenant=recipe["submissions"],
        workload=recipe["workload"], scale=recipe["scale"],
        arrival=recipe["arrival"], seed=recipe["seed"],
        dynamic_every=recipe["dynamic_every"],
        inflight_quota=recipe["inflight_quota"])
    env = build_environment(recipe["workers"], seed=recipe["seed"])
    service = await restore_service(
        args.checkpoint, env, tenants, txlog_path=args.txlog,
        discipline=recipe["discipline"],
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every)
    service.env_meta = dict(recipe)
    _install_crash(service, args.exit_after_tasks)
    result = await service.drain()
    _report(service, result, args.json)
    return EXIT_OK if result.completed else EXIT_INCOMPLETE


def _main(args) -> int:
    if args.command == "run":
        return asyncio.run(_run(args))
    return asyncio.run(_restore(args))


def main(argv: Optional[list] = None) -> int:
    return cli.main(build_parser(), _main, argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
