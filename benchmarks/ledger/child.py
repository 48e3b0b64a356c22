"""One workload process: set up, run timed operations, check outputs.

The ledger's command line starts this as ``python -m ledger.child SPEC``
in a fresh work directory, one process per set-up, so peak RSS and the
set-up time (from process start) are clean.  SPEC is a JSON object; the
result is written as JSON to ``SPEC["result"]``.  Processes of an
untraced run sample the host's speed throughout (see ``probe.py``); those
of a traced run do not, so the probe adds nothing to the spans or to the
tracing overhead.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback

from .probe import SpeedProbe


def run(spec: dict, probe) -> dict:
    # imported once the probe runs: the imports are part of set-up
    from .workloads import WORKLOADS
    workload = WORKLOADS[spec["workload"]]
    seed = spec["seed"]
    tracer = None
    if spec["trace_dir"]:
        from .layers import BOUNDARIES
        from .tracer import Tracer
        tracer = Tracer(label=workload.name, child_dir=spec["trace_dir"])
        tracer.install(BOUNDARIES)

    def region(name):
        return tracer.root(name) if tracer else contextlib.nullcontext()

    with region("setup"):
        state = workload.setup(seed, os.getcwd())
    setup_s = time.monotonic() - spec["spawn_t"]
    report = {"setup_s": setup_s, "ops": [],
              "setup_slowdown": probe.slowdown() if probe else None}

    # the budget is in seconds at reference speed, so a run does the same
    # work however fast the host happens to be
    ops, timed = report["ops"], []
    max_ops, budget = spec["max_ops"], spec["budget_s"]
    while max_ops is None or len(ops) < max_ops:
        if (budget is not None and timed
                and sum(timed) + statistics.median(timed) > budget):
            break
        gc.collect()
        if probe:
            probe.reset()
        t0 = time.perf_counter()
        try:
            with region("run"):
                out = workload.op(state, len(ops))
        except Exception:
            ops.append({"wall_s": time.perf_counter() - t0, "slowdown": None,
                        "attempted": 1, "failed": 1,
                        "problems": [traceback.format_exc(limit=3)],
                        "counters": {}, "detail": {}})
            break
        wall = time.perf_counter() - t0
        slowdown = probe.slowdown() if probe else None
        timed.append(wall / (slowdown or 1.0))
        result = workload.check(state, out, seed)
        del out
        ops.append({"wall_s": wall, "slowdown": slowdown,
                    "attempted": result.attempted,
                    "failed": result.failed, "problems": result.problems,
                    "counters": result.counters, "detail": result.detail})
        if result.problems:
            break

    report["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.write(os.path.join(spec["trace_dir"],
                                  f"{workload.name}.spans.jsonl"))
        report["trace"] = {"self_time_gap": tracer.self_time_gap("run"),
                           "missing": tracer.missing}
        tracer.uninstall()
    return report


def main(argv) -> int:
    spec = json.loads(argv[1])
    probe = SpeedProbe().start() if spec["probe"] else None
    try:
        report = run(spec, probe)
    finally:
        if probe:
            probe.stop()
    with open(spec["result"], "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
