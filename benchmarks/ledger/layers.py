"""The declared layer boundaries and the per-layer metrics built on them.

Layers are named after the program's modules.  ``chaos``, ``workqueue``
and ``daskdist`` are left out: they are baselines for the paper figures
and nobody waits on them in the near-interactive loop.

Every metric counts calls made inside the timed region (root ``run``),
except the ``bench`` layer, whose calls build the inputs and are counted
in set-up too.  A calls, self or total metric whose boundary no longer
exists in the program is absent (the tracer warns) rather than zero;
counters and samples read 0 when nothing reported them.
"""

from __future__ import annotations

import os
import statistics
from typing import Callable, Dict, List, NamedTuple, Optional

from .tracer import ROOT, Aggregate, Boundary as B


def _wire_bytes(tracer, args, result, t0) -> None:
    tracer.count("engine.wire.bytes", len(result))


def _checkpoint_bytes(tracer, args, result, t0) -> None:
    tracer.count("serve.checkpoint.bytes", os.path.getsize(args[1]))


def _call_latency(tracer, args, future, t0) -> None:
    clock = tracer.clock
    future.add_done_callback(
        lambda _f: tracer.sample("engine.call_latency", clock() - t0))


_QUEUES = ("repro.core.scheduling:TwoTierReadyQueue",
           "repro.facility.fairshare:WeightedFairShare")

#: (layer, boundary, "module:attr") -- patched where looked up
BOUNDARIES = (
    B("sim", "sim.run", "repro.sim.engine:Simulation.run_until_complete"),
    B("sim", "sim.run", "repro.sim.engine:Simulation.run"),
    # the serve pump steps the kernel in slices instead
    B("sim", "sim.run", "repro.serve.service:FacilityService._advance"),
    B("sim", "sim.network_transfer", "repro.sim.network:Network.transfer"),
    *(B("sim", "sim.trace_record", f"repro.sim.trace:TraceRecorder.{m}")
      for m in ("task", "transfer", "cache", "worker")),
    B("core", "core.manager_init",
      "repro.core.manager:TaskVineManager.__init__"),
    B("core", "core.dispatch", "repro.core.worker:WorkerAgent.assign"),
    *(B("core", "core.ready_queue", f"{cls}.{m}")
      for cls in _QUEUES for m in ("push", "pop", "defer")),
    B("core", "core.placement",
      "repro.core.worker:WorkerAgent.locality_bytes"),
    B("core", "core.worker_cache", "repro.core.worker:WorkerAgent.reserve"),
    B("core", "core.worker_cache", "repro.core.worker:WorkerAgent.remove"),
    *(B("core", "core.replica_index", f"repro.core.cache:ReplicaIndex.{m}")
      for m in ("add", "remove", "drop_node")),
    B("bench", "bench.build_environment",
      "repro.bench.runners:build_environment"),
    B("bench", "bench.build_workflow",
      "repro.bench.workloads:build_workflow"),
    B("bench", "bench.build_workflow", "repro.bench.serve:build_workflow"),
    B("bench", "bench.write_dataset", "repro.hep.datasets:write_dataset"),
    B("obs", "obs.emit", "repro.obs.events:EventBus.emit"),
    B("obs", "obs.txlog_record", "repro.obs.txlog:TransactionLog.record"),
    B("obs", "obs.live_fold", "repro.obs.live:LiveAnalyzer.on_event"),
    B("obs", "obs.report", "repro.obs.analyze:report_data"),
    B("obs", "obs.build_spans", "repro.obs.trace:build_spans"),
    B("obs", "obs.critical_path", "repro.obs.trace:critical_path_chain"),
    B("facility", "facility.submit",
      "repro.facility.facility:Facility.submit"),
    B("serve", "serve.build_checkpoint",
      "repro.serve.checkpoint:build_checkpoint"),
    B("serve", "serve.write_checkpoint",
      "repro.serve.checkpoint:write_checkpoint", _checkpoint_bytes),
    B("serve", "serve.load_checkpoint",
      "repro.serve.checkpoint:load_checkpoint"),
    B("serve", "serve.restore", "repro.serve.checkpoint:restore_service"),
    B("dag", "dag.build_graph",
      "repro.dag.partition:build_analysis_graph"),
    B("dag", "dag.cull", "repro.dag.daskvine:cull"),
    B("dag", "dag.rewrite", "repro.dag.daskvine:rewrite_reductions"),
    B("engine", "engine.library_start",
      "repro.engine.library:Library.start"),
    B("engine", "engine.call", "repro.engine.library:Library.call",
      _call_latency),
    B("engine", "engine.wire", "repro.engine.wire:dumps", _wire_bytes),
    B("engine", "engine.wire", "repro.engine.wire:loads"),
    # recorded inside the forked Library children
    B("hep", "hep.chunk_load", "repro.hep.nanoevents:EventChunk.load"),
    B("apps", "apps.process", "repro.apps.dv3:DV3Processor.process"),
    B("hep", "hep.hist_fill", "repro.hep.hist:Hist.fill"),
    B("hep", "hep.accumulate", "repro.dag.partition:accumulate"),
)

_LAYER = {b.name: b.layer for b in BOUNDARIES}
_LAYER[ROOT] = ROOT


class _Missing(Exception):
    """A metric depends on a boundary the program no longer has."""


class LayerView:
    """Read access to one traced run's totals."""

    def __init__(self, main: Aggregate, children: Aggregate,
                 program: Dict[str, float], traced_wall_s: float,
                 untraced_wall_s: float, missing=()):
        self.all = Aggregate().merge(main).merge(children)
        self.program = program
        self.traced_wall_s = traced_wall_s
        self.untraced_wall_s = untraced_wall_s
        self.missing = set(missing)

    def _row(self, name: str) -> List[float]:
        if name in self.missing:
            raise _Missing(name)
        regions = ("setup", "run") if _LAYER[name] == "bench" else ("run",)
        total = [0, 0.0, 0.0]
        for region in regions:
            row = self.all.calls.get((region, name))
            if row is not None:
                total = [a + b for a, b in zip(total, row)]
        return total

    def calls(self, name: str) -> int:
        return self._row(name)[0]

    def self_s(self, name: str) -> float:
        return self._row(name)[1]

    def total_s(self, name: str) -> float:
        return self._row(name)[2]

    def counter(self, name: str) -> float:
        """A program counter the workload reported, else a probe's."""
        if name in self.program:
            return self.program[name]
        return self.all.counters.get(("run", name), 0)

    def samples(self, name: str) -> List[float]:
        return self.all.samples.get(("run", name), [])

    def analysis_s(self) -> float:
        """Time the forked children spent loading, processing and
        accumulating events (histogram fills run inside ``process``)."""
        return (self.total_s("hep.chunk_load")
                + self.total_s("apps.process")
                + self.total_s("hep.accumulate"))


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _quantile(values: List[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    value: Callable[[LayerView], float]


def _calls(name):
    return Metric(f"{name}.calls", "count", "lower",
                  lambda v: v.calls(name))


def _self(name):
    return Metric(f"{name}.self_s", "s", "lower", lambda v: v.self_s(name))


def _total(name):
    return Metric(f"{name}.s", "s", "lower", lambda v: v.total_s(name))


M = Metric
PER_LAYER = (
    # sim: these move wall_s on sim-fig15
    M("sim.events", "count", "lower", lambda v: v.counter("sim.events")),
    _self("sim.run"),
    M("sim.events_per_self_s", "1/s", "higher",
      lambda v: _ratio(v.counter("sim.events"), v.self_s("sim.run"))),
    _calls("sim.network_transfer"), _self("sim.network_transfer"),
    _calls("sim.trace_record"), _self("sim.trace_record"),
    # core
    _total("core.manager_init"),
    _calls("core.dispatch"),
    _calls("core.ready_queue"), _self("core.ready_queue"),
    _calls("core.placement"), _self("core.placement"),
    _calls("core.worker_cache"), _self("core.worker_cache"),
    _calls("core.replica_index"), _self("core.replica_index"),
    # bench: these move setup_s
    _total("bench.build_environment"), _total("bench.build_workflow"),
    _total("bench.write_dataset"),
    # obs: 0 calls while the bus is off (sim-fig15)
    _calls("obs.emit"), _self("obs.emit"),
    _calls("obs.txlog_record"), _self("obs.txlog_record"),
    M("obs.txlog.bytes", "B", "lower",
      lambda v: v.counter("obs.txlog.bytes")),
    M("obs.txlog.bytes_per_record", "B", "lower",
      lambda v: _ratio(v.counter("obs.txlog.bytes"),
                       v.counter("obs.txlog.records"))),
    _self("obs.live_fold"),
    M("obs.records_per_s", "1/s", "higher",
      lambda v: _ratio(v.counter("obs.txlog.records"),
                       v.self_s("obs.emit") + v.self_s("obs.txlog_record")
                       + v.self_s("obs.live_fold"))),
    _total("obs.report"), _total("obs.build_spans"),
    _total("obs.critical_path"),
    # facility / serve
    _calls("facility.submit"), _self("facility.submit"),
    _calls("serve.build_checkpoint"), _total("serve.build_checkpoint"),
    _total("serve.write_checkpoint"),
    M("serve.checkpoint.bytes", "B", "lower",
      lambda v: v.counter("serve.checkpoint.bytes")),
    _total("serve.load_checkpoint"), _total("serve.restore"),
    # dag: these move wall_s on real-iterate
    _total("dag.build_graph"), _total("dag.cull"), _total("dag.rewrite"),
    M("dag.tasks", "count", "lower", lambda v: v.counter("dag.tasks")),
    # engine: the Fig 10 mechanism
    _total("engine.library_start"),
    _calls("engine.call"),
    M("engine.call_latency.p50_s", "s", "lower",
      lambda v: _quantile(v.samples("engine.call_latency"), 50)),
    M("engine.call_latency.p95_s", "s", "lower",
      lambda v: _quantile(v.samples("engine.call_latency"), 95)),
    M("engine.wire.bytes", "B", "lower",
      lambda v: v.counter("engine.wire.bytes")),
    _self("engine.wire"),
    M("engine.overhead_frac", "ratio", "lower",
      lambda v: 1.0 - _ratio(v.analysis_s(),
                             sum(v.samples("engine.call_latency")))
      if v.samples("engine.call_latency") else 0.0),
    # hep / apps, inside the forked children
    _self("hep.chunk_load"), _self("apps.process"),
    _calls("hep.hist_fill"), _self("hep.hist_fill"),
    _self("hep.accumulate"),
    M("hep.events_per_s", "1/s", "higher",
      lambda v: _ratio(v.counter("hep.events"), v.analysis_s())),
    # the tracer itself
    M("root.self_s", "s", "lower", lambda v: v.self_s(ROOT)),
    M("trace.overhead_frac", "ratio", "lower",
      lambda v: _ratio(v.traced_wall_s, v.untraced_wall_s) - 1.0),
)


def per_layer_metrics(view: LayerView) -> Dict[str, float]:
    """Every declared metric whose boundaries exist in the program."""
    out: Dict[str, float] = {}
    for metric in PER_LAYER:
        try:
            out[metric.name] = metric.value(view)
        except _Missing:
            continue
    return out


def unit_of(name: str) -> Optional[str]:
    for metric in PER_LAYER:
        if metric.name == name:
            return metric.unit
    return None
