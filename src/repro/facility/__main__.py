"""Facility CLI: run an arrival trace, print the fairness/SLO report.

Usage::

    python -m repro.facility --tenants 4 --arrival poisson:0.05 \\
        --workload DV3-Small --scale 0.05 --workers 8
    python -m repro.facility --discipline fifo --txlog facility.jsonl
    python -m repro.facility --json > report.json

Every tenant submits the same (scaled) Table II workload, so the run
also exercises the cross-tenant shared cache; the report's slowdown
column is measured against one isolated run of the same DAG on an
identical idle cluster (skip with ``--no-baseline``).

Exit codes follow the one table in :mod:`repro.cli` (README "Exit
codes"): 0 the campaign completed; 2 unreadable input (unknown
workload, bad arrival spec or replay file, bad SLO policy, a count or
scale out of range); 3 the campaign ran but did not complete.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .. import cli
from ..bench.runners import build_environment, run_scheduler
from ..bench.workloads import build_arrivals, build_workflow, \
    make_schedule, workload_spec
from ..bench import calibration as cal
from ..cli import EXIT_INCOMPLETE, EXIT_OK, EXIT_UNREADABLE  # noqa: F401
from .facility import Facility
from .report import facility_report_data, render_facility_report
from .tenant import Tenant, TenantQuota


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.facility",
        description="Run a multi-tenant arrival trace on one shared "
                    "manager and print the fairness/SLO report.",
        parents=[cli.run_options(workers=8, scale=0.05)],
        epilog="exit codes (README): 0 completed, 2 unreadable input, "
               "3 campaign incomplete")
    parser.add_argument("--tenants", type=cli.positive(int), default=4,
                        help="number of concurrent tenants (default 4)")
    parser.add_argument("--arrival", default="poisson:0.05",
                        help="arrival process: poisson:RATE, "
                             "burst[:SPACING], replay:PATH "
                             "(default poisson:0.05)")
    parser.add_argument("--submissions", type=cli.positive(int),
                        default=1,
                        help="submissions per tenant (default 1)")
    parser.add_argument("--discipline", default="wfs",
                        choices=("wfs", "fifo", "priority"),
                        help="fair-share discipline (default wfs)")
    parser.add_argument("--inflight-quota", type=int, default=None,
                        help="per-tenant inflight-task quota "
                             "(default unlimited)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="skip the isolated baseline run (slowdown "
                             "falls back to fastest observed turnaround)")
    parser.add_argument("--json", action="store_true",
                        help="print the report as one JSON document "
                             "(repro.obs --json conventions)")
    return parser


def _main(args) -> int:
    spec = workload_spec(args.workload, args.scale)
    workflow = build_workflow(spec, arity=cal.REDUCTION_ARITY,
                              seed=args.seed)

    tenant_names = [f"t{i}" for i in range(args.tenants)]
    quota = TenantQuota(inflight_tasks=args.inflight_quota)
    tenants = [Tenant(name, quota=quota) for name in tenant_names]
    schedule = make_schedule(args.arrival, tenant_names,
                             args.submissions, seed=args.seed)
    arrivals = build_arrivals(schedule, lambda tenant: workflow,
                              tag_for=lambda tenant: spec.name)

    baselines = None
    if not args.no_baseline:
        iso_env = build_environment(args.workers, seed=args.seed)
        iso = run_scheduler(iso_env, workflow, "taskvine")
        if iso.completed:
            baselines = {spec.name: iso.makespan}

    env = build_environment(args.workers, seed=args.seed)
    facility = Facility(
        env, tenants, discipline=args.discipline,
        txlog_path=args.txlog,
        txlog_meta={"workload": spec.name,
                    "arrival": args.arrival,
                    "submissions_per_tenant": args.submissions},
        slo_policy=args.slo)
    result = facility.run(arrivals)
    if args.json:
        print(json.dumps(facility_report_data(result, baselines),
                         indent=2, sort_keys=True, default=str))
        return EXIT_OK if result.completed else EXIT_INCOMPLETE
    print(render_facility_report(result, baselines))
    slo = getattr(result, "slo_monitor", None)
    if slo is not None and slo.enabled:
        from ..obs.slo import render_slo_report
        print()
        print(render_slo_report(slo))
    if args.txlog:
        print()
        print(_tenant_chains(args.txlog))
        print(f"\ntransaction log -> {args.txlog} "
              f"(analyze: python -m repro.obs {args.txlog})")
    return EXIT_OK if result.completed else EXIT_INCOMPLETE


def main(argv: Optional[list] = None) -> int:
    return cli.main(build_parser(), _main, argv)


def _tenant_chains(txlog_path: str) -> str:
    """Per-tenant critical-path attribution: what each tenant's
    turnaround was actually spent on (causal chain from submit to its
    last task, see :func:`repro.obs.trace.critical_path_by_tenant`)."""
    from ..bench.report import format_table
    from ..obs.trace import critical_path_by_tenant
    chains = critical_path_by_tenant(txlog_path)
    rows = []
    for tenant, chain in sorted(chains.items()):
        phases = chain["phase_totals"]
        dominant = max(phases, key=phases.get) if phases else "-"
        rows.append((tenant, round(chain["total_s"], 1),
                     chain["tasks_on_path"],
                     f"{dominant} "
                     f"({phases.get(dominant, 0.0):.1f} s)"))
    return format_table(
        ["tenant", "chain (s)", "tasks on path", "dominant phase"],
        rows, title="per-tenant critical paths (from txlog)")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
