"""Command line of the layered performance ledger.

``run`` (the default) measures the end-to-end metrics of one workload, or
of all four, with tracing off; ``trace`` (or ``--trace 1``) reruns the
same work under the boundary tracer and reports the per-layer metrics.
Every metric is printed as ``name value unit``; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit status is 0 when every output check passed, 1 when
one failed, and 2 when a workload process could not run at all.

Each set-up runs in its own workload process (see ``child.py``); load
comes from that one process and, on ``real-iterate``, its two forked
function-call slots.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

from .layers import PER_LAYER, LayerView, per_layer_metrics, unit_of
from .tracer import load_aggregates
from .workloads import WORKLOADS

#: the run length BENCHMARK.json declares as ``run_seconds``
DEFAULT_SECONDS = 20
#: set-ups per run, for the median ``setup_s``
MIN_SETUPS = 3
#: one invocation's wall-clock limit for a single workload
RUN_LIMIT_S = 170

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(LEDGER_DIR)
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".ledger")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class LedgerError(RuntimeError):
    """A workload process crashed or overran its time limit."""


def spawn(workload: str, seed: int, max_ops: Optional[int],
          budget_s: Optional[float], deadline: float,
          trace_dir: Optional[str] = None, probe: bool = True) -> dict:
    """Run one workload process to completion; return its report."""
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    spec = {"workload": workload, "seed": seed, "max_ops": max_ops,
            "budget_s": budget_s, "trace_dir": trace_dir, "probe": probe,
            "result": os.path.join(workdir, "result.json")}
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, BENCH_DIR]),
               TMPDIR=workdir, PYTHONHASHSEED="0")
    try:
        spec["spawn_t"] = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, "-m", "ledger.child", json.dumps(spec)],
            cwd=workdir, env=env, stdout=sys.stderr,
            start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise LedgerError(f"{workload}: workload process overran the "
                              f"{RUN_LIMIT_S} s limit") from None
        finally:
            _stop_group(proc)
        if code != 0:
            raise LedgerError(f"{workload}: workload process exited {code}")
        with open(spec["result"]) as fh:
            return json.load(fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill whatever the workload process left in its session (nothing,
    normally) and wait for the process itself."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def _problems(reports: List[dict]) -> List[str]:
    return [p for r in reports for op in r["ops"] for p in op["problems"]]


def measure(name: str, seed: int, seconds: float) -> dict:
    """Untraced run: timed operations for about ``seconds`` at reference
    host speed (``probe.py``), then extra set-up-only processes until
    ``MIN_SETUPS`` set-ups were timed.  Times are reported at reference
    speed, raw ones as detail."""
    workload = WORKLOADS[name]
    deadline = time.monotonic() + RUN_LIMIT_S
    reports, walls = [], []
    while not walls or sum(walls) + statistics.median(walls) <= seconds:
        report = spawn(name, seed, workload.ops_per_child,
                       seconds - sum(walls), deadline)
        reports.append(report)
        walls += [op["wall_s"] / (op["slowdown"] or 1.0)
                  for op in report["ops"]]
        if not report["ops"] or _problems([report]):
            break
    while len(reports) < MIN_SETUPS:
        reports.append(spawn(name, seed, 0, None, deadline))
    ops = [op for r in reports for op in r["ops"]]
    slowdowns = [op["slowdown"] or 1.0 for op in ops]
    setups = [r["setup_s"] / r["setup_slowdown"] for r in reports]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(
            r["peak_rss_mb"] for r in reports if r["ops"]),
    }
    detail = workload.summarize(walls, [op["detail"] for op in ops])
    detail.update(raw_wall_s=statistics.median(op["wall_s"] for op in ops),
                  raw_setup_s=statistics.median(r["setup_s"]
                                                for r in reports),
                  host_slowdown=statistics.median(slowdowns))
    return _result(name, seed, ops, _problems(reports), metrics, detail,
                   walls=walls, setups=setups,
                   rss=[r["peak_rss_mb"] for r in reports if r["ops"]])


def trace(name: str, seed: int, out_dir: str) -> dict:
    """Traced run: the same fixed work untraced, then traced."""
    workload = WORKLOADS[name]
    deadline = time.monotonic() + RUN_LIMIT_S
    os.makedirs(out_dir, exist_ok=True)
    for path in glob.glob(os.path.join(out_dir, f"{name}.spans*.jsonl")):
        os.unlink(path)
    plain = spawn(name, seed, workload.trace_ops, None, deadline,
                  probe=False)
    traced = spawn(name, seed, workload.trace_ops, None, deadline,
                   trace_dir=os.path.abspath(out_dir), probe=False)
    problems = _problems([plain, traced])
    counters = [op["counters"] for op in traced["ops"]]
    if counters != [op["counters"] for op in plain["ops"]]:
        problems.append(f"tracing changed the program's counters: "
                        f"{counters} untraced "
                        f"{[op['counters'] for op in plain['ops']]}")
    gap = traced["trace"]["self_time_gap"]
    if gap > 0.01:
        problems.append(f"self times miss the traced wall time by "
                        f"{gap:.2%}")
    program: Dict[str, float] = {}
    for row in counters:
        for key, value in row.items():
            program[key] = program.get(key, 0) + value
    main, children = load_aggregates(out_dir, name)
    view = LayerView(main, children, program,
                     traced_wall_s=sum(op["wall_s"] for op in traced["ops"]),
                     untraced_wall_s=sum(op["wall_s"]
                                         for op in plain["ops"]),
                     missing=traced["trace"]["missing"])
    metrics = per_layer_metrics(view)
    for metric in PER_LAYER:
        if metric.name not in metrics:
            print(f"ledger: warning: {metric.name} not measured (its "
                  f"boundary is missing); reported as 0", file=sys.stderr)
            metrics[metric.name] = 0.0
    return _result(name, seed, traced["ops"], problems, metrics, {},
                   trace_dir=out_dir)


def _result(name, seed, ops, problems, metrics, detail, **extra) -> dict:
    attempted = sum(op["attempted"] for op in ops)
    failed = sum(op["failed"] for op in ops)
    detail = dict(detail, ops=len(ops),
                  ops_failed_frac=failed / attempted if attempted else 1.0)
    return dict(workload=name, seed=seed,
                correct=bool(ops) and not problems and failed == 0,
                attempted=attempted, failed=failed, metrics=metrics,
                detail=detail, problems=problems, **extra)


def _unit(name: str) -> str:
    return END_TO_END.get(name) or unit_of(name) or ""


def _print(result: dict) -> None:
    detail_units = WORKLOADS[result["workload"]].detail_units
    print(f"{result['workload']} seed={result['seed']}: "
          f"{result['detail']['ops']} ops, {result['attempted']} attempted, "
          f"{result['failed']} failed")
    for name, value in result["metrics"].items():
        print(f"  {name:<34} {value!r} {_unit(name)}")
    for name, value in result["detail"].items():
        unit = detail_units.get(name) or (
            "s" if name.endswith("_s") else "ratio"
            if name.endswith(("frac", "slowdown")) else "count")
        print(f"  detail.{name:<27} {value!r} {unit}")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")


def _line(result: dict) -> dict:
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: {"value": value, "unit": _unit(name)}
                        for name, value in result["metrics"].items()}}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.ledger",
        description="Layered performance ledger: end-to-end metrics "
                    "(run) or per-layer metrics (trace) on four pinned "
                    "workloads, with every output checked.")
    parser.add_argument("command", nargs="?", choices=("run", "trace"),
                        default="run")
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=11,
                        help="input seed (default 11; the makespan "
                             "pins hold for 11 only)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="timed seconds per untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: same as the trace command")
    parser.add_argument("--out", default=os.path.join(WORK, "trace"),
                        help="span directory of a traced run")
    parser.add_argument("--json", metavar="OUT",
                        help="also write the full results here")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    traced = args.command == "trace" or args.trace == 1
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            result = (trace(name, args.seed, args.out) if traced
                      else measure(name, args.seed, args.seconds))
            _print(result)
            results.append(result)
    except LedgerError as exc:
        print(f"ledger: {exc}", file=sys.stderr)
        return 2
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(results[0] if len(results) == 1 else results, fh,
                      indent=1, sort_keys=True)
            fh.write("\n")
    if len(results) == 1:
        line = _line(results[0])
    else:
        line = {"correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "workloads": {r["workload"]: _line(r) for r in results}}
    print(json.dumps(line))
    return 0 if line["correct"] else 1
