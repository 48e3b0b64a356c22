"""The ledger's four pinned workloads.

Each workload has a set-up (inputs generated from the seed, plus what
must exist before the timed region), a timed operation, and an output
check that runs after the timed region.  Program functions are called
through their modules (``runners.build_environment``), never through
names bound here, so the traced run's patches apply to these calls too.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import statistics
import time
from typing import Dict, List, Optional

from repro.apps.dv3 import DV3Processor
from repro.bench import calibration as cal
from repro.bench import runners
from repro.bench import serve as bench_serve
from repro.bench import workloads as bench_workloads
from repro.dag import partition
from repro.dag.daskvine import DaskVine
from repro.hep import datasets
from repro.hep.nanoevents import NanoEventsFactory
from repro.obs import analyze
from repro.obs import trace as obs_trace
from repro.obs.events import EventBus
from repro.obs.live import LiveAnalyzer
from repro.serve import checkpoint, run_campaign
from repro.serve.service import FacilityService

#: the makespans and turnarounds hold for this seed only
PIN_SEED = 11
PINNED: Dict[str, Dict[str, float]] = {
    "sim-fig15": {"sim_makespan_s": 2639.270089588381},
    "sim-recorded": {"sim_makespan_s": 239.81263630123587},
    "serve-campaign": {"sim_makespan_s": 220.32681444836126,
                       "turnaround_p50_s": 48.8303111428376,
                       "turnaround_p75_s": 62.71414217701356},
}


class SetupError(RuntimeError):
    """Set-up produced inputs that fail their own check."""


@dataclasses.dataclass
class OpResult:
    """What the output check found for one timed operation."""

    attempted: int
    failed: int = 0
    problems: List[str] = dataclasses.field(default_factory=list)
    #: exact program counters; a traced run must reproduce them
    counters: Dict[str, float] = dataclasses.field(default_factory=dict)
    detail: Dict[str, float] = dataclasses.field(default_factory=dict)

    def expect(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)


def _pins(result: OpResult, name: str, seed: int) -> None:
    if seed != PIN_SEED:
        return
    for key, pinned in PINNED[name].items():
        result.expect(result.detail[key] == pinned,
                      f"{key} = {result.detail[key]!r}, pinned "
                      f"{pinned!r} for seed {PIN_SEED}")


class Workload:
    name = ""
    #: timed operations per workload process (None: as the budget allows)
    ops_per_child: Optional[int] = 1
    #: operations of a traced run (fixed, so its counts repeat exactly)
    trace_ops = 1
    #: units of detail lines not named ``*_s`` (s), ``*frac`` (ratio)
    #: or counts
    detail_units: Dict[str, str] = {}

    def setup(self, seed: int, workdir: str):
        raise NotImplementedError

    def op(self, state, index: int):
        raise NotImplementedError

    def check(self, state, out, seed: int) -> OpResult:
        raise NotImplementedError

    def summarize(self, walls: List[float],
                  details: List[Dict[str, float]]) -> Dict[str, float]:
        """Workload-specific numbers over a run: medians of each op's."""
        keys = details[0] if details else {}
        return {k: statistics.median(d[k] for d in details) for k in keys}


class _Simulation(Workload):
    spec_name = ""
    n_workers = 0
    detail_units = {"sim_makespan_s": "sim-s"}

    def _build(self, seed: int, bus=None):
        spec = datasets.TABLE2[self.spec_name]
        env = runners.build_environment(
            self.n_workers,
            node=cal.campus_node(disk=spec.worker_disk, ram=spec.worker_ram),
            seed=seed, bus=bus)
        workflow = bench_workloads.build_workflow(
            spec, arity=cal.REDUCTION_ARITY, seed=seed)
        return env, workflow

    def _check_run(self, run, env, workflow) -> OpResult:
        n = len(workflow.tasks)
        result = OpResult(attempted=n, failed=n - run.tasks_done)
        result.expect(run.completed, f"run did not complete: {run.error}")
        result.expect(run.tasks_done == n,
                      f"{run.tasks_done} of {n} tasks done")
        result.counters["sim.events"] = env.sim.events_processed
        result.detail.update(sim_makespan_s=run.makespan, tasks=n)
        return result


class SimFig15(_Simulation):
    """The paper's Fig 15 point with recording off: nearly all wall time
    is the event kernel and the scheduler at the largest scale."""

    name = "sim-fig15"
    spec_name, n_workers = "DV3-Huge", 600

    def setup(self, seed, workdir):
        return self._build(seed)

    def op(self, state, index):
        env, workflow = state
        return runners.run_scheduler(env, workflow, "taskvine",
                                     cal.TASKVINE_FUNCTIONS_CONFIG)

    def check(self, state, out, seed):
        env, workflow = state
        result = self._check_run(out, env, workflow)
        _pins(result, self.name, seed)
        return result


class SimRecorded(_Simulation):
    """The same kernel and scheduler with recording on: bus -> txlog
    writes and live folds during the run, replay folds after it."""

    name = "sim-recorded"
    spec_name, n_workers = "DV3-Large", 200

    def setup(self, seed, workdir):
        bus = EventBus()
        env, workflow = self._build(seed, bus=bus)
        return env, workflow, LiveAnalyzer.install(bus)

    def op(self, state, index):
        env, workflow, _live = state
        path = "recorded.jsonl"
        run = runners.run_scheduler(env, workflow, "taskvine",
                                    cal.TASKVINE_FUNCTIONS_CONFIG,
                                    txlog_path=path)
        t0 = time.perf_counter()
        report = analyze.report_data(path)
        chain = obs_trace.critical_path_chain(obs_trace.build_spans(path))
        return {"run": run, "report": report, "chain": chain,
                "report_s": time.perf_counter() - t0,
                "txlog_bytes": os.path.getsize(path)}

    def check(self, state, out, seed):
        env, workflow, live = state
        run = out["run"]
        result = self._check_run(run, env, workflow)
        summary = out["report"]["summary"]
        progress = live.progress()
        result.expect(summary["tasks_ok"] == run.tasks_done
                      and summary["makespan_s"] == run.makespan,
                      f"post-hoc report {summary} disagrees with the run")
        result.expect(progress["tasks_ok"] == run.tasks_done
                      and progress["makespan_s"] == run.makespan,
                      "live analyzer disagrees with the run")
        result.expect(abs(out["chain"]["total_s"] - run.makespan)
                      <= 1e-9 * run.makespan,
                      f"critical path {out['chain']['total_s']} does not "
                      f"explain the makespan {run.makespan}")
        result.counters["obs.txlog.bytes"] = out["txlog_bytes"]
        result.counters["obs.txlog.records"] = out["report"]["records"]
        result.detail["report_s"] = out["report_s"]
        _pins(result, self.name, seed)
        return result


class ServeCampaign(Workload):
    """Many small shared DAGs arriving as an open Poisson stream through
    the facility and the live service, with checkpoints and a restore."""

    name = "serve-campaign"
    detail_units = {"sim_makespan_s": "sim-s", "turnaround_p50_s": "sim-s",
                    "turnaround_p75_s": "sim-s", "arrival_lag_max_s": "sim-s"}
    n_workers = 24

    def setup(self, seed, workdir):
        tenants, arrivals = bench_serve.serve_campaign(
            n_tenants=8, per_tenant=6, workload="DV3-Small", scale=0.25,
            arrival="poisson:0.05", seed=seed, dynamic_every=5)
        return seed, tenants, arrivals

    async def _campaign(self, seed, tenants, arrivals):
        env = runners.build_environment(self.n_workers, seed=seed)
        service = FacilityService(env, tenants, discipline="wfs",
                                  txlog_path="serve.jsonl",
                                  checkpoint_path="serve.ckpt",
                                  checkpoint_every=500)
        await service.start()
        futures = await run_campaign(service, arrivals)
        return service, futures, await service.drain()

    async def _restore(self, seed, tenants, arrivals):
        env = runners.build_environment(self.n_workers, seed=seed)
        service = await checkpoint.restore_service(
            "serve.ckpt", env, tenants, txlog_path="serve-restored.jsonl")
        # the client resubmits what arrived after the checkpoint
        seen: Dict[str, int] = {}
        for sub in service.facility.submissions.values():
            seen[sub.tenant] = seen.get(sub.tenant, 0) + 1
        late = []
        for tenant in sorted({a.tenant for a in arrivals}):
            mine = sorted((a for a in arrivals if a.tenant == tenant),
                          key=lambda a: a.t)
            late.extend(mine[seen.get(tenant, 0):])
        await run_campaign(service, late, wait=False)
        return service, await service.drain()

    def op(self, state, index):
        service, futures, result = asyncio.run(self._campaign(*state))
        t0 = time.perf_counter()
        restored, restored_result = asyncio.run(self._restore(*state))
        return {"service": service, "futures": futures, "result": result,
                "restored": restored, "restored_result": restored_result,
                "restore_s": time.perf_counter() - t0}

    def check(self, state, out, seed):
        _seed, _tenants, arrivals = state
        service, restored = out["service"], out["restored"]
        futures = list(out["futures"].values())
        rejected = sum(1 for f in futures if f.state == "rejected")
        unresolved = sum(1 for f in futures
                         if f.state != "rejected" and not f.done())
        result = OpResult(attempted=len(arrivals),
                          failed=rejected + unresolved)
        result.expect(len(futures) == len(arrivals),
                      f"{len(futures)} futures for {len(arrivals)} arrivals")
        result.expect(rejected == 0, f"{rejected} submissions rejected")
        result.expect(unresolved == 0, f"{unresolved} futures unresolved")
        result.expect(out["result"].completed
                      and out["restored_result"].completed,
                      "campaign or restored campaign did not complete")
        result.expect(service.checkpoints > 0, "no checkpoint was taken")
        summaries = checkpoint.tenant_summaries(
            service.facility, set(service.manager.done))
        restored_summaries = checkpoint.tenant_summaries(
            restored.facility, set(restored.manager.done))
        result.expect(restored_summaries == summaries,
                      "restored per-tenant summaries differ from the "
                      "uninterrupted run's")
        turnarounds, lag = _turnarounds(service.facility, arrivals)
        quartiles = statistics.quantiles(turnarounds, n=4)
        result.counters.update({
            "sim.events": (service.sim.events_processed
                           + restored.sim.events_processed),
            "obs.txlog.bytes": (os.path.getsize("serve.jsonl")
                                + os.path.getsize("serve-restored.jsonl")),
            "obs.txlog.records": (service.txlog.records_written
                                  + restored.txlog.records_written)})
        result.detail.update(
            sim_makespan_s=out["result"].run.makespan,
            turnaround_p50_s=quartiles[1], turnaround_p75_s=quartiles[2],
            arrival_lag_max_s=lag, restore_s=out["restore_s"],
            checkpoints=service.checkpoints)
        _pins(result, self.name, seed)
        return result


def _turnarounds(facility, arrivals):
    """Each submission's time from its *scheduled* arrival to completion
    (open loop: a stall also delays what was due behind it), and how late
    the generator injected any arrival."""
    due: Dict[str, List[float]] = {}
    for a in sorted(arrivals, key=lambda a: (a.t, a.tenant)):
        due.setdefault(a.tenant, []).append(a.t)
    subs: Dict[str, list] = {}
    for sub in sorted(facility.submissions.values(),
                      key=lambda s: int(s.sid.rsplit(".", 1)[1])):
        subs.setdefault(sub.tenant, []).append(sub)
    turnarounds, lag = [], 0.0
    for tenant, times in due.items():
        for t_due, sub in zip(times, subs.get(tenant, ())):
            lag = max(lag, sub.t_submit - t_due)
            if sub.t_done is not None:
                turnarounds.append(sub.t_done - t_due)
    return turnarounds, lag


class RealIterate(Workload):
    """One analyst (a closed loop) re-running DV3 on real events through
    fork-per-call functions: the engine, dag and hep layers, no simulator.
    The b-tag cut cycles so that no result can be reused."""

    name = "real-iterate"
    ops_per_child = None
    trace_ops = 20
    detail_units = {"analysis_events_per_s": "events/s"}
    CUTS = (0.5, 0.7, 0.85)
    SLOTS = 2
    FILES, EVENTS_PER_FILE = 5, 20_000

    def setup(self, seed, workdir):
        paths = datasets.write_dataset(
            os.path.join(workdir, "data"), "dv3", n_files=self.FILES,
            events_per_file=self.EVENTS_PER_FILE, seed=seed)
        chunks = NanoEventsFactory.from_root(paths, chunks_per_file=4)
        state = {"chunks": chunks,
                 "events": sum(c.nevents for c in chunks),
                 "refs": {cut: self._compute(chunks, cut, "serial")[0]
                          for cut in self.CUTS}}
        warm_up = self.check(state, self.op(state, 0), seed)
        if warm_up.problems:
            raise SetupError("warm-up iteration: "
                             + "; ".join(warm_up.problems))
        return state

    def _compute(self, chunks, cut: float, mode: str):
        graph = partition.build_analysis_graph(
            DV3Processor(btag_cut=cut), chunks, reduction_arity=None)
        manager = DaskVine(name="ledger", cores=self.SLOTS)
        options = {} if mode == "serial" else {
            "lib_resources": {"slots": self.SLOTS},
            "import_modules": ["numpy"]}
        hists = manager.compute(graph, task_mode=mode, reduction_arity=4,
                                **options)
        return hists, manager.last_stats["tasks"]

    def op(self, state, index):
        cut = self.CUTS[index % len(self.CUTS)]
        hists, tasks = self._compute(state["chunks"], cut, "function-calls")
        return {"cut": cut, "hists": hists, "tasks": tasks}

    def check(self, state, out, seed):
        reference = state["refs"][out["cut"]]
        differ = sorted(k for k in reference
                        if out["hists"].get(k) != reference[k])
        result = OpResult(attempted=1, failed=1 if differ else 0)
        result.expect(not differ, f"b-tag cut {out['cut']}: {differ} "
                                  f"differ from the serial reference")
        result.counters.update({"dag.tasks": out["tasks"],
                                "hep.events": state["events"]})
        return result

    def summarize(self, walls, details):
        quartiles = (statistics.quantiles(walls, n=4) if len(walls) > 1
                     else walls * 3)
        return {"iter_p75_s": quartiles[2], "iterations": len(walls),
                "analysis_events_per_s": self.FILES * self.EVENTS_PER_FILE
                / statistics.median(walls)}


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (SimFig15(), SimRecorded(), ServeCampaign(),
                        RealIterate())}
