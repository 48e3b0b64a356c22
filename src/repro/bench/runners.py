"""Assembly helpers: build a simulated cluster + scheduler and run it.

Each runner wires together the simulation substrate (kernel, network,
storage, cluster), the workload, and one scheduler, applying the
calibration constants.  All experiment drivers go through these.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..core.config import SchedulerConfig
from ..core.manager import RunResult, TaskVineManager
from ..core.spec import SimWorkflow
from ..daskdist.scheduler import DaskDistributedScheduler
from ..hep.datasets import DatasetSpec
from ..sim.cluster import Cluster, NodeSpec
from ..sim.engine import Simulation
from ..sim.network import Network
from ..sim.rng import RngRegistry
from ..sim.storage import (
    HDFS_PROFILE,
    VAST_PROFILE,
    SharedFilesystem,
    StorageProfile,
)
from ..sim.trace import TraceRecorder
from ..workqueue.manager import WORK_QUEUE_CONFIG, WorkQueueManager
from . import calibration as cal

__all__ = ["SimEnvironment", "build_environment", "run_scheduler"]

SCHEDULERS = {
    "taskvine": TaskVineManager,
    "workqueue": WorkQueueManager,
    "dask.distributed": DaskDistributedScheduler,
}


@dataclass
class SimEnvironment:
    """One assembled simulation: cluster + storage + trace."""

    sim: Simulation
    network: Network
    cluster: Cluster
    storage: SharedFilesystem
    trace: TraceRecorder
    n_workers: int
    cores_per_worker: int

    @property
    def total_cores(self) -> int:
        return self.n_workers * self.cores_per_worker


def build_environment(n_workers: int,
                      node: Optional[NodeSpec] = None,
                      storage_profile: StorageProfile = VAST_PROFILE,
                      seed: int = 11,
                      preemption_rate: float = cal.PREEMPTION_RATE,
                      heterogeneity: float = cal.HETEROGENEITY,
                      manager_nic_bw: float = cal.MANAGER_NIC_BW,
                      bus=None,
                      ) -> SimEnvironment:
    """Build the campus cluster of Section IV with ``n_workers``.

    Pass an :class:`~repro.obs.events.EventBus` as ``bus`` to mirror
    every trace record onto the observability bus as it is recorded.
    """
    node = node or cal.campus_node()
    sim = Simulation()
    trace = TraceRecorder(bus=bus)
    network = Network(sim, trace, latency=0.0005)
    cluster = Cluster(sim, network, trace, RngRegistry(seed),
                      manager_nic_bw=manager_nic_bw,
                      preemption_rate=preemption_rate,
                      heterogeneity=heterogeneity)
    storage = SharedFilesystem(sim, network, storage_profile,
                               trace=trace)
    cluster.provision(n_workers, node)
    return SimEnvironment(sim=sim, network=network, cluster=cluster,
                          storage=storage, trace=trace,
                          n_workers=n_workers,
                          cores_per_worker=node.cores)


def run_scheduler(env: SimEnvironment, workflow: SimWorkflow,
                  scheduler: str = "taskvine",
                  config: Optional[SchedulerConfig] = None,
                  limit: float = 5e5,
                  txlog_path: Optional[str] = None,
                  sample_interval: Optional[float] = None,
                  chaos=None,
                  chaos_horizon: Optional[float] = None,
                  slo_policy=None) -> RunResult:
    """Run one scheduler over a workflow in the given environment.

    Observability hooks (all optional, zero cost when unused; wired by
    :class:`~repro.obs.observed.ObservedRun`):

    * ``txlog_path`` -- write a JSONL transaction log of every
      lifecycle edge (readable with ``python -m repro.obs``).
    * ``sample_interval`` -- seconds of sim time between snapshots of
      the standard scheduler-health gauges, logged as METRIC_SAMPLE.
    * ``slo_policy`` -- an :class:`~repro.obs.slo.SLOPolicy` (or a
      path to its JSON file) to monitor on the run's event bus.
      Status changes are emitted as SLO_ALERT events (stamped into
      the txlog, when one is written) and the monitor is attached to
      the result as ``result.slo_monitor``.  An invalid policy raises
      :class:`~repro.cli.InputError` before the txlog is created.

    Fault injection:

    * ``chaos`` -- a :class:`~repro.chaos.scenario.Scenario` to execute
      against this run.  Injection times are resolved against
      ``chaos_horizon`` (seconds; typically the fault-free makespan --
      estimated from the workflow when omitted).  The scenario is
      recorded in the txlog RUN header and the injector's firing record
      is attached to the result as ``result.chaos_injections``.
    """
    try:
        scheduler_cls = SCHEDULERS[scheduler]
    except KeyError:
        raise ValueError(f"unknown scheduler {scheduler!r}; "
                         f"have {sorted(SCHEDULERS)}") from None

    observed = None
    if (txlog_path is not None or sample_interval is not None
            or slo_policy is not None or chaos is not None):
        # imported lazily so plain benchmark runs never assemble one
        from ..obs.observed import ObservedRun
        meta = {"scheduler": scheduler,
                "n_workers": env.n_workers,
                "cores_per_worker": env.cores_per_worker,
                "tasks": len(workflow.tasks)}
        if chaos is not None:
            meta["chaos"] = chaos.describe()
        observed = ObservedRun(env, txlog_path=txlog_path, meta=meta,
                               slo_policy=slo_policy,
                               expected_tasks=len(workflow.tasks),
                               sample_interval=sample_interval)

    # built after the bus is in place: the manager adopts trace.bus
    manager = scheduler_cls(env.sim, env.cluster, env.storage, workflow,
                            config=config, trace=env.trace)
    if observed is None:
        return manager.run(limit=limit)
    observed.start(manager, chaos, chaos_horizon, [(0.0, workflow)])
    try:
        result = manager.run(limit=limit)
    except Exception as exc:
        observed.abort(exc)
        raise
    return observed.finish(result)
