"""Command-line interface: regenerate any paper table/figure.

Usage::

    python -m repro.bench list
    python -m repro.bench table1
    python -m repro.bench fig14b --out results/
    python -m repro.bench fig11 --seed 7
    python -m repro.bench run --workload DV3-Small --scale 0.05 \\
        --workers 4 --txlog results/run.jsonl

Each command runs the corresponding experiment driver and prints the
paper-style report (optionally archiving it under ``--out``).  The
``run`` command executes a single scheduler run and can persist its
transaction log for ``python -m repro.obs``; it exits 3 when that run
did not complete.  Exit codes follow the one table in
:mod:`repro.cli` (README "Exit codes").  The simulator's own
wall-clock benchmark is ``benchmarks/ledger`` (see its README).
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, Optional

from .. import cli
from ..sim.viz import render_heatmap, render_timeline
from . import experiments as ex
from .report import format_table, write_report


def _table1(args) -> str:
    rows = ex.table1(n_workers=args.workers, seed=args.seed)
    return format_table(
        ["Stack", "Change", "Runtime (s)", "Speedup", "Paper (s)"],
        [(r["stack"], r["change"], round(r["runtime_s"]),
          f"{r['speedup']:.2f}x", round(r["paper_runtime_s"]))
         for r in rows],
        title="TABLE I: Overall Stack Performance")


def _table2(args) -> str:
    rows = ex.table2()
    return format_table(
        ["Workload", "App", "Input (GB)", "Tasks", "Initially ready"],
        [(r["name"], r["application"], round(r["input_gb"]),
          r["tasks_built"], r["initial_ready"]) for r in rows],
        title="TABLE II: Application configurations")


def _fig7(args) -> str:
    data = ex.fig7(n_workers=args.workers, seed=args.seed)
    parts = []
    for label in ("workqueue", "taskvine"):
        d = data[label]
        parts.append(render_heatmap(
            d["matrix_gb"], max_cells=40,
            title=f"{label}: bytes between node pairs "
                  f"(manager out mean "
                  f"{d['manager_out_per_worker_gb']['mean']:.1f} GB, "
                  f"peer max pair {d['peer_max_pair_gb']:.1f} GB)"))
    return "\n\n".join(parts)


def _fig8(args) -> str:
    data = ex.fig8(n_workers=args.workers, seed=args.seed)
    return format_table(
        ["Mode", "Median (s)", "Fraction 1-10 s"],
        [("standard tasks", round(data["standard_tasks"]["median"], 2),
          round(data["standard_tasks"]["frac_1_to_10s"], 2)),
         ("function calls", round(data["function_calls"]["median"], 2),
          round(data["function_calls"]["frac_1_to_10s"], 2))],
        title="FIG 8: task execution time distribution")


def _fig10(args) -> str:
    rows = ex.fig10()
    return format_table(
        ["Complexity", "Task (s)", "Speedup local", "Speedup VAST"],
        [(r["complexity"], round(r["task_seconds"], 2),
          f"{r['speedup_local']:.2f}x", f"{r['speedup_vast']:.2f}x")
         for r in rows],
        title="FIG 10: import hoisting speedup")


def _fig11(args) -> str:
    data = ex.fig11(seed=args.seed)
    return format_table(
        ["Reduction", "Makespan (s)", "Worker failures",
         "Peak cache (GB)"],
        [(label, round(d["makespan"]), d["worker_failures"],
          round(d["peak_cache_gb_max"])) for label, d in data.items()],
        title="FIG 11: flat vs tree reduction")


def _fig12(args) -> str:
    data = ex.fig12(n_workers=args.workers, seed=args.seed)
    parts = []
    for stack in (1, 2, 3, 4):
        parts.append(render_timeline(
            data["t"], data[f"stack{stack}"]["running"], width=60,
            height=8, title=f"Stack {stack}: running tasks "
                            f"(first 300 s)"))
    return "\n\n".join(parts)


def _fig13(args) -> str:
    rows = ex.fig13(seed=args.seed)
    return format_table(
        ["Stack", "Workers", "Makespan (s)", "Mean concurrency"],
        [(r["stack"], r["workers"], round(r["makespan"]),
          round(r["mean_concurrency"])) for r in rows],
        title="FIG 13: worker occupancy")


def _fig14a(args) -> str:
    rows = ex.fig14a(seed=args.seed)
    return format_table(
        ["Workload", "Cores", "TaskVine (s)", "Dask (s)"],
        [(r["workload"], r["cores"], round(r["taskvine_s"], 1),
          round(r["dask_s"], 1) if r["dask_completed"] else "DNF")
         for r in rows],
        title="FIG 14a: TaskVine vs Dask.Distributed")


def _fig14b(args) -> str:
    rows = ex.fig14b(seed=args.seed)
    return format_table(
        ["Workload", "Cores", "Runtime (s)"],
        [(r["workload"], r["cores"], round(r["runtime_s"], 1))
         for r in rows],
        title="FIG 14b: scaling to 2400 cores")


def _fig15(args) -> str:
    data = ex.fig15(seed=args.seed)
    chart = render_timeline(data["t"], data["running"], width=70,
                            height=10,
                            title="FIG 15: DV3-Huge running tasks")
    return (f"{chart}\n\nmakespan {data['makespan']:.0f} s, "
            f"peak concurrency {data['peak_concurrency']:.0f}, "
            f"{data['tasks']} tasks on {data['cores']} cores")


def _run(args):
    """One observable scheduler run (``--txlog`` feeds repro.obs);
    returns the report and whether the run completed."""
    from . import calibration as cal
    from .runners import build_environment, run_scheduler
    from .workloads import build_workflow, workload_spec

    spec = workload_spec(args.workload, args.scale)
    scenario = None
    if args.chaos:
        from ..chaos import get_scenario
        scenario = get_scenario(args.chaos)
    node = (cal.dask_sharded_node()
            if args.scheduler == "dask.distributed" else None)
    env = build_environment(args.workers, node=node, seed=args.seed)
    workflow = build_workflow(spec, arity=cal.REDUCTION_ARITY,
                              seed=args.seed)
    if args.tenants:
        # multi-tenant route: every tenant submits the workload to one
        # shared facility; the arrival spec + tenant count are stamped
        # in the txlog RUN header (same pattern as --chaos)
        if args.scheduler != "taskvine":
            raise cli.InputError("--tenants requires the taskvine "
                                 "scheduler (the facility shares one "
                                 "TaskVine manager)")
        from ..facility import Facility, Tenant, \
            render_facility_report
        from .workloads import build_arrivals, make_schedule
        tenant_names = [f"t{i}" for i in range(args.tenants)]
        schedule = make_schedule(args.arrival, tenant_names,
                                 per_tenant=1, seed=args.seed)
        arrivals = build_arrivals(schedule, lambda tenant: workflow,
                                  tag_for=lambda tenant: spec.name)
        facility = Facility(
            env, [Tenant(name) for name in tenant_names],
            txlog_path=args.txlog,
            txlog_meta={"tenants": args.tenants,
                        "arrival": args.arrival,
                        "workload": spec.name,
                        **({"chaos": scenario.describe()}
                           if scenario is not None else {})},
            slo_policy=args.slo)
        result = facility.run(arrivals, chaos=scenario)
        table = render_facility_report(result)
    else:
        result = run_scheduler(env, workflow, args.scheduler,
                               txlog_path=args.txlog, chaos=scenario,
                               slo_policy=args.slo)
        table = format_table(
            ["Workload", "Scheduler", "Workers", "Tasks done",
             "Failures", "Makespan (s)"],
            [(spec.name, args.scheduler, args.workers, result.tasks_done,
              result.task_failures,
              round(result.makespan, 1) if result.completed else "DNF")],
            title="RUN: single scheduler run")
    slo = getattr(result, "slo_monitor", None)
    if slo is not None and slo.enabled:
        from ..obs.slo import render_slo_report
        table += "\n\n" + render_slo_report(slo)
    if scenario is not None and not args.tenants:
        fired = getattr(result, "chaos_injections", [])
        table += (f"\nchaos scenario {scenario.name!r}: "
                  f"{len(fired)} injections fired "
                  f"(scorecard: python -m repro.chaos)")
    if args.txlog:
        table += (f"\ntransaction log -> {args.txlog} "
                  f"(analyze: python -m repro.obs {args.txlog})")
    return table, result.completed


COMMANDS: Dict[str, Callable] = {
    "table1": _table1, "table2": _table2, "fig7": _fig7,
    "fig8": _fig8, "fig10": _fig10, "fig11": _fig11, "fig12": _fig12,
    "fig13": _fig13, "fig14a": _fig14a, "fig14b": _fig14b,
    "fig15": _fig15, "run": _run,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.",
        parents=[cli.run_options(workers=200)],
        epilog="exit codes (README): 0 ok, 2 unreadable input, "
               "3 the `run` did not complete")
    parser.add_argument("command",
                        choices=sorted(COMMANDS) + ["list", "all"],
                        help="which experiment to run (--workers and "
                             "--seed apply to every one)")
    parser.add_argument("--out", default=None,
                        help="directory to archive the report into")
    group = parser.add_argument_group("run", "options for the `run` "
                                             "command")
    group.add_argument("--scheduler", default="taskvine",
                       choices=("taskvine", "workqueue",
                                "dask.distributed"))
    group.add_argument("--chaos", default=None, metavar="SCENARIO",
                       help="inject a repro.chaos fault scenario into "
                            "the run (recorded in the txlog RUN "
                            "header; see `python -m repro.chaos list`)")
    group.add_argument("--tenants", type=cli.positive(int, zero_ok=True),
                       default=0, metavar="N",
                       help="run the workload as N concurrent tenants "
                            "through the shared facility (recorded in "
                            "the txlog RUN header; 0 = single-tenant)")
    group.add_argument("--arrival", default="poisson:0.05",
                       metavar="SPEC",
                       help="arrival process with --tenants: "
                            "poisson:RATE, burst[:SPACING], or "
                            "replay:PATH (default poisson:0.05)")
    return parser


def _main(args) -> int:
    if args.command == "list":
        for name in sorted(COMMANDS):
            print(name)
        return cli.EXIT_OK
    code = cli.EXIT_OK
    if args.command == "all":  # every figure/table; not the ad-hoc run
        names = sorted(n for n in COMMANDS if n != "run")
    else:
        names = [args.command]
    for name in names:
        report = COMMANDS[name](args)
        if name == "run":
            report, completed = report
            code = cli.EXIT_OK if completed else cli.EXIT_INCOMPLETE
        print(report)
        print()
        if args.out:
            write_report(args.out, name, report)
    return code


def main(argv: Optional[list] = None) -> int:
    return cli.main(build_parser(), _main, argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
