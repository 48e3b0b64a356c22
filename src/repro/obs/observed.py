"""One run's observers, wired once.

``run_scheduler``, :class:`~repro.facility.Facility` and
:class:`~repro.serve.FacilityService` all assemble a run through
:class:`ObservedRun` and close it in one order: sampler stopped, SLOs
judged, then the footer -- so final alerts are always in the log.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from .events import EventBus
from .metrics import MetricsRegistry, Sampler, install_standard_gauges
from .txlog import TransactionLog

__all__ = ["ObservedRun"]


class ObservedRun:
    """The bus, transaction log, SLO monitor, metrics sampler and chaos
    injector of one run.

    The SLO policy (an :class:`~repro.obs.slo.SLOPolicy` or a path) is
    validated before the log is created.  ``meta`` is the log's RUN
    header, in the caller's order.  A service ``epoch``
    (:mod:`repro.serve`) comes with ``autoflush``: only service logs
    have either, and a kill -9 must lose no committed record.
    """

    def __init__(self, env, txlog_path: Optional[str] = None,
                 meta: Optional[dict] = None,
                 epoch: Optional[int] = None,
                 slo_policy=None,
                 expected_tasks: Optional[int] = None,
                 sample_interval: Optional[float] = None):
        if slo_policy is not None:
            # imported only for a monitored run, so the rest never load it
            from .slo import SLOMonitor, load_policy
            slo_policy = load_policy(slo_policy)
        self.env = env
        bus = env.trace.bus
        if bus is None or not bus.enabled:
            bus = EventBus()
            env.trace.bus = bus
        self.bus = bus
        self.sampler: Optional[Sampler] = None
        if sample_interval is not None:
            self.sampler = Sampler(env.sim, MetricsRegistry().bind(bus),
                                   interval=sample_interval, bus=bus)
        self.txlog: Optional[TransactionLog] = None
        if txlog_path is not None:
            self.txlog = TransactionLog(txlog_path, meta=meta, epoch=epoch,
                                        autoflush=epoch is not None)
            self.txlog.attach(bus)
        self.slo_monitor = None
        if slo_policy is not None:
            self.slo_monitor = SLOMonitor.install(
                slo_policy, bus, expected_tasks=expected_tasks)
        self.injector = None

    def start(self, manager, chaos=None, horizon: Optional[float] = None,
              arrivals: Iterable[Tuple[float, object]] = ()) -> None:
        """Inject the chaos scenario ``chaos`` into the live manager,
        then start the sampler.  Injection times resolve against
        ``horizon``, else the last of ``arrivals`` (``(t, workflow)``
        pairs) plus each DAG's estimated fault-free makespan."""
        if chaos is not None:
            # imported lazily so fault-free runs never touch repro.chaos
            from ..chaos.inject import Injector, estimate_horizon
            if horizon is None:
                arrivals = list(arrivals)
                cores = self.env.total_cores
                horizon = (max((t for t, _ in arrivals), default=0.0)
                           + sum(estimate_horizon(workflow, cores)
                                 for _, workflow in arrivals))
            self.injector = Injector(manager, chaos, horizon)
            self.injector.start()
        if self.sampler is not None:
            install_standard_gauges(self.sampler.registry, manager)
            self.sampler.start()

    def finish(self, run):
        """Close after ``run`` (a RunResult) and attach the injector's
        firings and the SLO monitor to it."""
        if self.sampler is not None:
            self.sampler.stop()
        if self.slo_monitor is not None:
            self.slo_monitor.finish(makespan=run.makespan)
        if self.txlog is not None:
            self.txlog.close(completed=run.completed,
                             makespan=run.makespan,
                             tasks_done=run.tasks_done,
                             task_failures=run.task_failures,
                             error=run.error)
        if self.injector is not None:
            run.chaos_injections = self.injector.fired
        if self.slo_monitor is not None:
            run.slo_monitor = self.slo_monitor
        return run

    def abort(self, exc: BaseException) -> None:
        """Close after a failed drive: a ``completed: false`` footer
        carrying the error."""
        if self.sampler is not None:
            self.sampler.stop()
        if self.slo_monitor is not None:
            self.slo_monitor.finish()
        if self.txlog is not None:
            self.txlog.close(completed=False, error=repr(exc))
