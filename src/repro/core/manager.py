"""The TaskVine manager: task + data scheduler (the paper's contribution).

A single-threaded manager coordinates workers on a simulated cluster
(Section II.C / IV.B):

* **Data retention** -- task outputs stay in worker caches, tracked by a
  content-addressed :class:`~repro.core.cache.ReplicaMap`.
* **Locality scheduling** -- tasks are placed on workers already holding
  the most input bytes.
* **Peer transfers** -- missing intermediate inputs are pulled directly
  from peer workers (throttled per-worker), not through the manager or
  the shared filesystem.
* **Serverless execution** -- ``function-calls`` mode instantiates one
  library per worker (paying startup + hoisted imports once) and then
  runs tasks as cheap forked invocations; ``tasks`` mode pays interpreter
  startup and imports per task.
* **Recovery** -- preempted workers lose their cached replicas; the
  manager re-runs producing tasks transitively (lineage recovery) and
  retries the lost work elsewhere.

The Work Queue and Dask.Distributed baselines subclass this and change
the data-routing policies (see :mod:`repro.workqueue` and
:mod:`repro.daskdist`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import nsmallest
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set

from ..obs import events as obs
from ..sim.cluster import Cluster, WorkerNode
from ..sim.engine import (
    Event,
    Interrupt,
    Process,
    Resource,
    Simulation,
    SimulationError,
    Timeout,
)
from ..sim.storage import DiskFullError, SharedFilesystem
from ..sim.trace import TaskRecord, TraceRecorder, stable_trace_id
from .cache import ReplicaMap
from .config import TASK_MODE_FUNCTIONS, TASK_MODE_TASKS, SchedulerConfig
from .files import FileKind
from .scheduling import ReadyQueue, TwoTierReadyQueue
from .spec import SimTask, SimWorkflow
from .worker import WorkerAgent

__all__ = ["TaskVineManager", "RunResult", "SchedulerError",
           "UnrecoverableError", "stable_trace_id"]

MANAGER_NODE = 0


class SchedulerError(Exception):
    """The run cannot make progress (task exceeded retries, no workers)."""


class UnrecoverableError(SchedulerError):
    """The run ended without completing the workflow.

    Raised by :meth:`RunResult.raise_for_status` -- ``run()`` itself
    always returns a structured :class:`RunResult`.  The typed failure
    lets callers (and the chaos property tests) distinguish "declared
    defeat" from a hang or a silently dropped task.
    """


class _StagingLost(Exception):
    """An input replica vanished between dispatch and staging."""


class _TaskMeta:
    """Immutable per-task scheduling metadata, computed once.

    Task definitions never change after registration (dynamic workflows
    only *add* tasks), so the input-size map, the staging order, and the
    intermediate-input list can be derived once instead of on every
    dispatch/placement/completion of the task.
    """

    __slots__ = ("stage_order", "intermediates", "downstream",
                 "trace_id")

    def __init__(self, task: SimTask, files) -> None:
        # (file sizes live in the manager's shared ``_sizes`` map; a
        # per-task copy at 185 k tasks costs ~100 MB and real GC time)
        # largest-first staging; sorted() is stable, so ties keep the
        # task's declared input order exactly as the per-dispatch sort did
        self.stage_order = tuple(sorted(
            task.inputs, key=lambda n: -files[n].size))
        self.intermediates = tuple(
            name for name in task.inputs
            if files[name].kind != FileKind.INPUT)
        self.downstream = bool(self.intermediates)
        self.trace_id = stable_trace_id(task.id)


@dataclass
class RunResult:
    """Outcome of one scheduler run."""

    completed: bool
    makespan: float
    trace: TraceRecorder
    tasks_done: int
    task_failures: int
    error: Optional[str] = None

    def summary(self) -> Dict[str, float]:
        out = self.trace.summary()
        out["completed"] = float(self.completed)
        out["task_failures"] = float(self.task_failures)
        return out

    def raise_for_status(self) -> "RunResult":
        """Return self if the run completed, else raise
        :class:`UnrecoverableError` carrying the failure reason."""
        if not self.completed:
            raise UnrecoverableError(self.error or "run did not complete")
        return self


class TaskVineManager:
    """Schedules a :class:`SimWorkflow` onto a simulated cluster."""

    scheduler_name = "taskvine"

    def __init__(self, sim: Simulation, cluster: Cluster,
                 storage: SharedFilesystem, workflow: SimWorkflow,
                 config: Optional[SchedulerConfig] = None,
                 trace: Optional[TraceRecorder] = None,
                 policy: Optional["PlacementPolicy"] = None,
                 bus=None,
                 ready_queue: Optional[ReadyQueue] = None):
        self.sim = sim
        self.cluster = cluster
        self.storage = storage
        self.workflow = workflow
        self.config = config or SchedulerConfig()
        #: explicit placement policy; None uses the built-in fast path
        #: (locality when config.locality_scheduling, else round-robin).
        self.policy = policy
        self.trace = trace if trace is not None else cluster.trace
        #: observability bus for lifecycle edges (defaults to the
        #: trace's bus, else the zero-cost null bus).  When a bus is
        #: passed explicitly, the trace forwards onto it too so the
        #: transaction log sees transfers/cache/worker records as well.
        if bus is None:
            bus = getattr(self.trace, "bus", None) or obs.NULL_BUS
        elif getattr(self.trace, "bus", None) is None:
            self.trace.bus = bus
        self.bus = bus
        self.replicas = ReplicaMap(bus=self.bus,
                                   clock=lambda: self.sim.now)
        self.manager_cpu = Resource(sim, capacity=1)
        self.manager_pipe = Resource(
            sim, capacity=self.config.manager_transfer_slots)

        self.agents: Dict[int, WorkerAgent] = {}
        self.free_workers: Dict[int, None] = {}
        for node in cluster.workers.values():
            if node.alive:
                self._add_agent(node)
        cluster.on_preemption(self._on_preempt)
        # workers provisioned (or finishing their batch-system startup)
        # after this point join the pool dynamically
        cluster.on_join(self._on_join)

        # task state.  The ready-queue discipline is pluggable; the
        # default two-tier queue dispatches downstream tasks (consumers
        # of intermediates) before fresh processing tasks, so
        # accumulation keeps pace with processing and retained partials
        # do not pile up past worker disks.
        self.done: Set[str] = set()
        self.running: Set[str] = set()
        # `is not None`, not `or`: queues are falsy while empty, and a
        # pluggable discipline arrives empty
        self.ready_queue: ReadyQueue = (
            ready_queue if ready_queue is not None
            else TwoTierReadyQueue())
        self.queued: Set[str] = set()
        self.attempts: Dict[str, int] = {}
        self.ready_time: Dict[str, float] = {}
        self.task_procs: Dict[str, object] = {}
        #: per-task immutable metadata, built lazily (dynamic workflows
        #: grow; a task's meta is computed on its first touch)
        self._meta: Dict[str, _TaskMeta] = {}
        #: shared file-size map for placement scoring (one dict for the
        #: whole workflow; extended by :meth:`_track`)
        self._sizes: Dict[str, float] = {}
        #: per-file count of consumers not yet done -- the incremental
        #: form of "all(c in self.done for c in consumers[name])".
        #: Decremented on first completion of a consumer, incremented
        #: back when lineage recovery un-does one, extended by
        #: :meth:`_track` as the workflow grows.
        self._consumers_undone: Dict[str, int] = {}

        # Multi-tenant support (repro.facility).  A workflow that knows
        # its tenants exposes tenant_of/tenant_of_file/equivalents; the
        # manager then tags lifecycle events with the owning tenant and
        # satisfies staging from content-equivalent replicas cached by
        # other tenants.  Plain SimWorkflows leave these None and every
        # code path below is byte-identical to the single-tenant run.
        self._tenant_of: Optional[Callable[[str], str]] = getattr(
            workflow, "tenant_of", None)
        self._tenant_of_file: Optional[Callable[[str], str]] = getattr(
            workflow, "tenant_of_file", None)
        self._equivalents_of: Optional[Callable[[str], Iterable[str]]] = \
            getattr(workflow, "equivalents", None)
        #: while True, _workflow_complete() never fires: the facility
        #: holds the run open for submissions arriving over sim time.
        self.hold_open = False
        #: optional callback fired once per accepted task completion
        #: (the facility uses it for submission tracking + admission).
        self.on_task_done: Optional[Callable[[SimTask], None]] = None

        #: cached-input staging may shortcut past _fetch_to_worker only
        #: when no subclass has customised the fetch path (Work Queue
        #: bounces dataset files off the manager first, for instance).
        self._fetch_is_base = (
            type(self)._fetch_to_worker
            is TaskVineManager._fetch_to_worker)

        # Startup costs are pure functions of the (immutable) config;
        # fold the per-task branching out of the _startup hot path.
        cfg = self.config
        self._mode_tasks = cfg.mode == TASK_MODE_TASKS
        self._per_task_startup = cfg.task_startup + cfg.import_cost
        self._library_cost = cfg.library_startup + (
            cfg.import_cost if cfg.hoisting else 0.0)
        self._call_overhead = cfg.function_call_overhead + (
            0.0 if cfg.hoisting else cfg.import_cost)

        self._wake: Optional[Event] = None
        self._finished: Event = sim.event()
        self._error: Optional[str] = None
        self.task_failures = 0
        self._started = False
        #: task pipelines currently alive, dispatch through commit
        #: (plus replication pushes).  Zero with dispatch paused means
        #: quiescent: every dispatched task has either committed to the
        #: txlog or failed, and nothing new can start.  repro.serve
        #: pumps on this instead of draining the heap, which always
        #: holds future background events (worker preemption clocks).
        self.inflight = 0
        #: while True the dispatch loop assigns no new tasks; running
        #: tasks drain normally.  repro.serve raises this as the
        #: checkpoint barrier: paused + inflight == 0 is quiescent.
        self.paused = False

        self._track(workflow.tasks, workflow.files)

    # -- public entry -----------------------------------------------------------
    def start(self) -> None:
        """Begin executing without driving the clock.

        Enqueues the initial ready frontier and spawns the dispatch
        loop; the caller then advances the simulation itself (the
        resumable kernel entry point: :class:`repro.serve` pumps the
        event heap in slices between submissions).  :meth:`run` is
        exactly ``start()`` + ``run_until_complete``.  Idempotent.
        """
        if self._started:
            return
        if not self.agents and not self.cluster.workers:
            raise SchedulerError("no workers provisioned")
        self._started = True
        for task_id in self.workflow.initial_ready():
            self._enqueue(task_id)
        self.sim.process(self._dispatch_loop(), name="manager-dispatch")

    def run(self, limit: Optional[float] = None) -> RunResult:
        """Execute the workflow to completion; returns the run record."""
        self.start()
        try:
            self.sim.run_until_complete(self._finished, limit=limit)
            completed = self._error is None
        except Exception as exc:  # propagate as structured failure
            completed = False
            self._error = self._error or repr(exc)
        return self._run_result(completed)

    def _run_result(self, completed: bool) -> RunResult:
        return RunResult(
            completed=completed,
            makespan=self.trace.makespan if completed else self.sim.now,
            trace=self.trace,
            tasks_done=len(self.done),
            task_failures=self.task_failures,
            error=self._error,
        )

    def result(self) -> RunResult:
        """Structured outcome of a pumped run (no clock driving):
        what :meth:`run` would have returned at this point."""
        return self._run_result(self._finished.triggered
                                and self._error is None)

    @property
    def finished(self) -> bool:
        """True once the workflow completed or the run aborted."""
        return self._finished.triggered

    # -- dispatch barrier (repro.serve checkpointing) -----------------------
    def pause_dispatch(self) -> None:
        """Stop assigning new tasks; running tasks drain normally.

        With arrivals also held, pumping the heap dry reaches a
        quiescent point -- no task running, no transfer in flight --
        which is where a checkpoint is an exact state capture.
        """
        self.paused = True

    def resume_dispatch(self) -> None:
        self.paused = False
        self._wake_dispatcher()

    # -- agents ------------------------------------------------------------------
    def _add_agent(self, node: WorkerNode) -> None:
        agent = WorkerAgent(self.sim, node, self.trace,
                            transfer_slots=self.config.transfer_slots)
        agent.on_evict = (
            lambda name, node_id=node.node_id:
            self._evicted(name, node_id))
        self.agents[node.node_id] = agent
        self.free_workers[node.node_id] = None

    def _on_join(self, node: WorkerNode) -> None:
        """A new worker arrived mid-run: add it and hand it work."""
        if node.node_id in self.agents:
            return
        self._add_agent(node)
        self._wake_dispatcher()

    def _evicted(self, name: str, node_id: int) -> None:
        """A worker dropped a cached replica under disk pressure.

        Usually other copies (or the producer's retained copy) remain;
        if this was the last one and the file is still needed, lineage
        recovery re-runs the producer.
        """
        self.replicas.remove(name, node_id)
        if not self.replicas.available(name):
            self._recover_file(name)

    # -- readiness ----------------------------------------------------------
    def _available(self, name: str) -> bool:
        return self.replicas.available(name)

    def _task_meta(self, task_id: str) -> _TaskMeta:
        meta = self._meta.get(task_id)
        if meta is None:
            meta = self._meta[task_id] = _TaskMeta(
                self.workflow.tasks[task_id], self.workflow.files)
        return meta

    def _is_ready(self, task_id: str) -> bool:
        if (task_id in self.done or task_id in self.running
                or task_id in self.queued):
            return False
        return self.replicas.available_all(
            self.workflow.tasks[task_id].inputs)

    def _tenant_kw(self, task_id: str) -> Dict[str, str]:
        """Extra event fields for multi-tenant runs ({} otherwise)."""
        if self._tenant_of is None:
            return {}
        return {"tenant": self._tenant_of(task_id)}

    def extra_gauges(self) -> Dict[str, object]:
        """Stack-specific telemetry gauges, merged into the standard
        set by :func:`repro.obs.metrics.install_standard_gauges`.
        Subclasses return ``{name: callable}`` for state only their
        stack has (e.g. Work Queue's manager-disk bytes)."""
        return {}

    def _is_downstream(self, task: SimTask) -> bool:
        return self._task_meta(task.id).downstream

    def _enqueue(self, task_id: str) -> None:
        if task_id in self.queued:
            return
        task = self.workflow.tasks[task_id]
        meta = self._meta.get(task_id)
        if meta is None:
            meta = self._meta[task_id] = _TaskMeta(
                task, self.workflow.files)
        self.ready_queue.push(task_id, task, meta.downstream)
        self.queued.add(task_id)
        self.ready_time.setdefault(task_id, self.sim._now)
        if self.bus.enabled:
            self.bus.emit(obs.READY, self.sim.now, task=task_id,
                          category=task.category,
                          **self._tenant_kw(task_id))
        self._wake_dispatcher()

    def _wake_dispatcher(self) -> None:
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed()

    # -- dynamic submissions (repro.facility) -------------------------------
    def submission_added(self, task_ids: Sequence[str],
                         file_names: Sequence[str]) -> None:
        """The (growable) workflow gained tasks mid-run.

        Indexes only what is new (see :meth:`_track`) and enqueues
        whichever of the new tasks are immediately ready.  The DAG
        state itself is the workflow's, read live.
        """
        self._track(task_ids, file_names)
        for task_id in task_ids:
            if self._is_ready(task_id):
                self._enqueue(task_id)
        self._wake_dispatcher()

    def _track(self, task_ids: Iterable[str],
               file_names: Iterable[str]) -> None:
        """Index tasks and files the workflow gained: file sizes,
        dataset inputs as durable replicas on shared storage, and
        consumer countdowns.  Tasks already done (primed by
        :meth:`restore_committed`) count as no consumer."""
        files = self.workflow.files
        sizes = self._sizes
        undone = self._consumers_undone
        for name in file_names:
            file = files[name]
            sizes[name] = file.size
            undone[name] = 0
            if file.kind == FileKind.INPUT:
                # dataset inputs live on shared storage from the start
                self.replicas.add(name, self.storage.node_id)
        tasks = self.workflow.tasks
        done = self.done
        for task_id in task_ids:
            if task_id not in done:
                for name in tasks[task_id].inputs:
                    undone[name] += 1

    def close_submissions(self) -> None:
        """No more submissions will arrive; the run may now complete."""
        self.hold_open = False
        if (self._error is None and self._workflow_complete()
                and not self._finished.triggered):
            self._finished.succeed()
        self._wake_dispatcher()

    def restore_committed(self, done_ids: Iterable[str],
                          replica_nodes: Dict[str, Iterable[int]],
                          cache_entries: Dict[int, list]) -> None:
        """Prime manager state from a checkpoint (repro.serve restore).

        ``done_ids`` are tasks whose outputs were committed before the
        checkpoint: they join ``done`` and never re-execute.
        ``replica_nodes`` maps file name -> holder node ids at the
        checkpoint; ``cache_entries`` maps node id -> ``(name, size,
        retain)`` rows.  Worker caches are rebuilt through the normal
        :meth:`WorkerAgent.reserve` path so CACHE_PUT events land in
        the new epoch's txlog -- downstream folds (tenant cache
        accounting, cache-pressure analysis) then see exactly the
        restored occupancy.  Call after the workflow holds the restored
        tasks and before :meth:`submission_added` recomputes readiness.
        """
        self.done.update(done_ids)
        for node_id, entries in cache_entries.items():
            node_id = int(node_id)
            if node_id == MANAGER_NODE:
                for name, size, _retain in entries:
                    self.trace.cache(MANAGER_NODE, self.sim.now, size,
                                     name=name)
                continue
            agent = self.agents.get(node_id)
            if agent is None:
                continue
            for name, size, retain in entries:
                agent.reserve(name, size, retain=bool(retain))
        known = self.workflow.files
        for name, nodes in replica_nodes.items():
            if name not in known:
                continue
            for node_id in nodes:
                node_id = int(node_id)
                if (node_id == MANAGER_NODE
                        or node_id == self.storage.node_id
                        or node_id in self.agents):
                    self.replicas.add(name, node_id)

    # -- dispatch loop ------------------------------------------------------
    def _workflow_complete(self) -> bool:
        return (not self.hold_open
                and len(self.done) == len(self.workflow.tasks))

    def _dispatch_loop(self):
        # Hot loop: every task dispatch passes through here, so the
        # never-rebound collaborators are read into locals once.
        sim = self.sim
        ready_queue = self.ready_queue
        free_workers = self.free_workers
        queued = self.queued
        done = self.done
        running = self.running
        manager_cpu = self.manager_cpu
        config = self.config
        available = self.replicas.available
        while not self._workflow_complete() and self._error is None:
            progressed = False
            while not self.paused and ready_queue and free_workers:
                task_id = ready_queue.pop()
                if task_id is None:
                    # tasks are pending but none is eligible (e.g. every
                    # backlogged tenant is at quota): wait for a wake-up
                    break
                queued.discard(task_id)
                if task_id in done or task_id in running:
                    continue
                task = self.workflow.tasks[task_id]
                missing = [name for name in task.inputs
                           if not available(name)]
                if missing:
                    # Inputs were lost after this task became ready:
                    # recover lineage; the task re-queues when its
                    # producers complete.
                    for name in missing:
                        self._recover_file(name)
                    continue
                agent = self._pick_worker(task_id)
                if agent is None:
                    # no capacity right now: put it back and wait
                    ready_queue.defer(task_id, task,
                                      self._task_meta(task_id).downstream)
                    queued.add(task_id)
                    break
                # pay the manager's serial dispatch cost
                req = manager_cpu.request()
                yield req
                yield Timeout(sim, config.dispatch_overhead)
                manager_cpu.release(req)
                if not agent.alive:
                    ready_queue.defer(task_id, task,
                                      self._task_meta(task_id).downstream)
                    queued.add(task_id)
                    continue
                self._assign(task_id, agent)
                progressed = True
            if self._workflow_complete() or self._error is not None:
                break
            if not progressed:
                self._wake = self.sim.event()
                yield self._wake
                self._wake = None
        if self._error is None and self._workflow_complete():
            if not self._finished.triggered:
                self._finished.succeed()

    def _assign(self, task_id: str, agent: WorkerAgent) -> None:
        self.running.add(task_id)
        if self.bus.enabled:
            now = self.sim.now
            self.bus.emit(obs.DISPATCH, now, task=task_id,
                          worker=agent.node_id,
                          waited=now - self.ready_time.get(task_id, now),
                          attempt=self.attempts.get(task_id, 0) + 1,
                          **self._tenant_kw(task_id))
        self.ready_queue.task_running(
            task_id, self.workflow.tasks[task_id])
        agent.assign(task_id, self.workflow.tasks[task_id].cores)
        if agent.free_slots() <= 0:
            self.free_workers.pop(agent.node_id, None)
        proc = Process(
            self.sim, self._run_task(self.workflow.tasks[task_id], agent),
            name=task_id)
        self.task_procs[task_id] = proc

    # -- placement policy ---------------------------------------------------
    def _pick_worker(self, task_id: str) -> Optional[WorkerAgent]:
        task = self.workflow.tasks[task_id]
        need = task.cores
        if self.policy is not None:
            return self._pick_with_policy(task)
        if self.config.locality_scheduling:
            # Candidates are the workers holding at least one of the
            # task's intermediate inputs; each is scored exactly once
            # (O(holders), not O(inputs x locations x inputs)).  Ties on
            # cached bytes break to the lowest node id -- an explicit
            # rule, not set-iteration order, so placement is stable
            # across processes and index implementations.
            best: Optional[WorkerAgent] = None
            best_bytes = 0.0
            best_node = -1
            meta = self._task_meta(task_id)
            sizes = self._sizes
            inputs = task.inputs
            agents = self.agents
            iter_locations = self.replicas.iter_locations
            seen: Set[int] = set()
            for name in meta.intermediates:
                for node_id in iter_locations(name):
                    if node_id in seen:
                        continue
                    seen.add(node_id)
                    agent = agents.get(node_id)
                    if (agent is None or not agent.alive
                            or agent.free_slots() < need):
                        continue
                    local = agent.locality_bytes(inputs, sizes)
                    if local > best_bytes or (
                            local == best_bytes and best is not None
                            and node_id < best_node):
                        best, best_bytes = agent, local
                        best_node = node_id
            if best is not None:
                return best
        # fall back to the first free worker (rotating order)
        found = None
        stale = []
        for node_id in self.free_workers:
            agent = self.agents.get(node_id)
            if agent is None or not agent.alive:
                stale.append(node_id)
                continue
            slots = agent.free_slots()
            if slots >= need:
                found = agent
                break
            if slots <= 0:
                stale.append(node_id)
        for node_id in stale:
            self.free_workers.pop(node_id, None)
        return found

    def _pick_with_policy(self, task: SimTask) -> Optional[WorkerAgent]:
        """Generic (O(free workers)) path for injected policies."""
        candidates = []
        stale = []
        need = task.cores
        for node_id in self.free_workers:
            agent = self.agents.get(node_id)
            if agent is None or not agent.alive:
                stale.append(node_id)
                continue
            slots = agent.free_slots()
            if slots >= need:
                candidates.append(agent)
            elif slots <= 0:
                stale.append(node_id)
        for node_id in stale:
            self.free_workers.pop(node_id, None)
        if not candidates:
            return None
        return self.policy.choose(task, candidates, self.replicas,
                                  self._sizes)

    # -- task execution -----------------------------------------------------
    def _run_task(self, task: SimTask, agent: WorkerAgent):
        self.inflight += 1
        try:
            yield from self._task_pipeline(task, agent)
        finally:
            self.inflight -= 1

    def _task_pipeline(self, task: SimTask, agent: WorkerAgent):
        sim = self.sim
        t_dispatch = sim._now
        t_ready = self.ready_time.get(task.id, t_dispatch)
        pinned: List[str] = []
        t_start = None
        try:
            yield from self._stage_inputs(task, agent, pinned)
            # execution time as the worker observes it includes the
            # wrapper/startup cost (Fig 8 compares exactly this)
            t_start = sim._now
            if self.bus.enabled:
                self.bus.emit(obs.EXEC_START, t_start, task=task.id,
                              worker=agent.node_id,
                              attempt=self.attempts.get(task.id, 0) + 1,
                              **self._tenant_kw(task.id))
            yield from self._startup(task, agent)
            yield Timeout(sim, agent.node.scale_runtime(task.compute))
            yield from self._store_outputs(task, agent)
        except Interrupt:
            self._task_failed(task, agent, t_ready, t_dispatch,
                              t_start, "preempted", requeue=True)
            return
        except DiskFullError:
            # Fig 11 failure mode: the worker's cache overflowed.  The
            # node is lost exactly as if the batch system had evicted
            # it; recovery re-runs the work elsewhere.
            self._task_failed(task, agent, t_ready, t_dispatch,
                              t_start, "disk-overflow", requeue=True)
            self._overflow_worker(agent)
            return
        except (_StagingLost, ConnectionError):
            self._task_failed(task, agent, t_ready, t_dispatch,
                              t_start, "staging-lost", requeue=True)
            return
        finally:
            for name in pinned:
                agent.unpin(name)

        # success: free the slot, then pay the manager's collection cost
        t_end = sim._now
        self._release_slot(task.id, agent)
        req = self.manager_cpu.request()
        yield req
        yield Timeout(sim, self.config.collect_overhead)
        self.manager_cpu.release(req)
        # The producing worker may have been preempted between storing
        # the outputs and this collection message: if any output replica
        # is already gone, the attempt is void (recovery has or will
        # re-queue the task).
        if not self.replicas.available_all(task.outputs):
            self.task_failures += 1
            if task.id not in self.queued and self._is_ready(task.id):
                self._enqueue(task.id)
            return
        self._complete(task, agent, t_ready, t_dispatch, t_start, t_end)

    def _release_slot(self, task_id: str, agent: WorkerAgent) -> None:
        self.running.discard(task_id)
        self.ready_queue.task_released(
            task_id, self.workflow.tasks[task_id])
        self.task_procs.pop(task_id, None)
        agent.unassign(task_id)
        if agent.alive and agent.free_slots() > 0:
            self.free_workers.setdefault(agent.node_id, None)
        self._wake_dispatcher()

    def _complete(self, task: SimTask, agent: WorkerAgent,
                  t_ready, t_dispatch, t_start, t_end) -> None:
        meta = self._task_meta(task.id)
        first = task.id not in self.done
        self.done.add(task.id)
        self.ready_time.pop(task.id, None)
        attempt = self.attempts.get(task.id, 0) + 1
        self.trace.task(TaskRecord(
            task_id=meta.trace_id, category=task.category,
            worker=agent.node_id, t_ready=t_ready, t_dispatch=t_dispatch,
            t_start=t_start, t_end=t_end, ok=True, attempt=attempt))
        if self.bus.enabled:
            # EXEC_END carries the process-salted hashed id; this edge
            # keeps the *string* id so cross-process analyses (the chaos
            # scorecard's physics-accounting digest) can line tasks up.
            # The output list lets span reconstruction recover the
            # file -> producer map that critical-path chaining needs.
            self.bus.emit(obs.TASK_DONE, t_end, task=task.id,
                          category=task.category, worker=agent.node_id,
                          attempt=attempt, outputs=list(task.outputs),
                          **self._tenant_kw(task.id))
        if self.config.min_replicas > 1:
            for name in task.outputs:
                if name not in self.workflow.final:
                    self._maybe_replicate(name, agent)
        # dependents in insertion order: the consumers of each output
        consumers = self.workflow.consumers
        for name in task.outputs:
            for dep in consumers[name]:
                if self._is_ready(dep):
                    self._enqueue(dep)
        # Inputs whose consumers are all done no longer need retention;
        # workers may evict them under disk pressure.  The countdown is
        # the incremental form of "all consumers in self.done": only the
        # first completion of this task moves its inputs' counters.
        undone = self._consumers_undone
        for name in meta.intermediates:
            if first:
                undone[name] -= 1
            if undone[name] <= 0:
                for node_id in self.replicas.iter_locations(name):
                    holder = self.agents.get(node_id)
                    if holder is not None:
                        holder.release_retention(name)
        if self.on_task_done is not None:
            self.on_task_done(task)
        if self._workflow_complete() and not self._finished.triggered:
            self._finished.succeed()
        self._wake_dispatcher()

    def _task_failed(self, task: SimTask, agent: WorkerAgent,
                     t_ready, t_dispatch, t_start, reason: str,
                     requeue: bool) -> None:
        self.task_failures += 1
        self.trace.task(TaskRecord(
            task_id=self._task_meta(task.id).trace_id,
            category=task.category,
            worker=agent.node_id, t_ready=t_ready, t_dispatch=t_dispatch,
            t_start=t_start if t_start is not None else self.sim.now,
            t_end=self.sim.now, ok=False,
            attempt=self.attempts.get(task.id, 0) + 1))
        self._release_slot(task.id, agent)
        attempts = self.attempts.get(task.id, 0) + 1
        self.attempts[task.id] = attempts
        if attempts > self.config.max_task_retries:
            self._abort(f"task {task.id!r} failed {attempts} times "
                        f"(last: {reason})")
            return
        if requeue:
            if self._is_ready(task.id):
                self._enqueue(task.id)
            else:
                for name in self.workflow.tasks[task.id].inputs:
                    if not self._available(name):
                        self._recover_file(name)

    def _abort(self, message: str) -> None:
        self._error = message
        if not self._finished.triggered:
            self._finished.succeed()

    # -- staging ----------------------------------------------------------------
    def _transfer_sources(self, name: str, agent: WorkerAgent
                          ) -> List[int]:
        """Candidate source nodes, preference-ordered."""
        locations = self.replicas.iter_locations(name)
        peers = [n for n in locations
                 if n in self.agents and self.agents[n].alive
                 and n != agent.node_id]
        ordered: List[int] = []
        if self.config.peer_transfers:
            # fewest active outgoing flows first (manager-controlled
            # transfer balancing)
            peers.sort(key=lambda n: (
                self.cluster.network.active_flow_count(n), n))
            ordered.extend(peers)
        if self.storage.node_id in locations:
            ordered.append(self.storage.node_id)
        if MANAGER_NODE in locations:
            ordered.append(MANAGER_NODE)
        if not self.config.peer_transfers:
            ordered.extend(peers)  # last resort even for WQ
        return ordered

    def _local_equivalent(self, name: str,
                          agent: WorkerAgent) -> Optional[str]:
        """A content-equivalent replica (same cachename, different
        tenant namespace) already cached on ``agent``, or None."""
        if self._equivalents_of is None:
            return None
        for other in self._equivalents_of(name):
            if agent.has(other):
                return other
        return None

    def _stage_inputs(self, task: SimTask, agent: WorkerAgent,
                      pinned: List[str]):
        names = self._task_meta(task.id).stage_order
        fast = self._fetch_is_base
        cache = agent.cache
        for name in names:
            if fast and name in cache:
                # Cache hit: the file is already here, so the full fetch
                # generator (its dedup/transfer machinery) is pure
                # overhead -- pin and emit the same STAGE_IN edge inline.
                agent.pin(name)
                if self.bus.enabled:
                    now = self.sim.now
                    self.bus.emit(
                        obs.STAGE_IN, now, task=task.id,
                        worker=agent.node_id, file=name,
                        nbytes=self.workflow.files[name].size,
                        source=agent.node_id, t_start=now,
                        cached=True, **self._tenant_kw(task.id))
                pinned.append(name)
                continue
            # _fetch_to_worker leaves the file present AND pinned once;
            # it returns the *physical* name pinned, which differs from
            # ``name`` when a peer tenant's equivalent replica was used.
            held = yield from self._fetch_to_worker(name, agent,
                                                    task_id=task.id)
            pinned.append(held if held is not None else name)

    def _fetch_to_worker(self, name: str, agent: WorkerAgent,
                         task_id: Optional[str] = None):
        """Ensure ``name`` is cached on ``agent`` with one pin held.

        Returns the physical cache-entry name holding the pin (``name``
        itself, or a content-equivalent entry owned by another tenant).
        """
        sim = self.sim
        t_fetch = sim._now
        while True:
            if name in agent.cache:
                agent.pin(name)
                if self.bus.enabled:
                    self.bus.emit(
                        obs.STAGE_IN, self.sim.now, task=task_id,
                        worker=agent.node_id, file=name,
                        nbytes=self.workflow.files[name].size,
                        source=agent.node_id, t_start=t_fetch,
                        cached=True,
                        **(self._tenant_kw(task_id)
                           if task_id is not None else {}))
                return name
            equiv = self._local_equivalent(name, agent)
            if equiv is not None:
                # shared cache hit: the bytes are already here under a
                # peer tenant's name -- pin that entry instead of
                # transferring an identical copy.
                agent.pin(equiv)
                if self.bus.enabled:
                    kw = {}
                    if self._tenant_of_file is not None:
                        kw["peer_tenant"] = self._tenant_of_file(equiv)
                    if task_id is not None:
                        kw.update(self._tenant_kw(task_id))
                    self.bus.emit(
                        obs.STAGE_IN, self.sim.now, task=task_id,
                        worker=agent.node_id, file=name,
                        nbytes=self.workflow.files[name].size,
                        source=agent.node_id, t_start=t_fetch,
                        cached=True, **kw)
                return equiv
            pending = agent.inflight.get(name)
            if pending is None:
                break
            # a sibling task (or a replication push) is already
            # fetching it here; wait, then re-check -- on failure we
            # fall through and fetch it ourselves.
            yield pending
        pending = Event(sim)
        agent.inflight[name] = pending
        size = self.workflow.files[name].size
        slot = agent.transfers.request()
        try:
            yield slot
            for attempt in range(3):
                sources = self._transfer_sources(name, agent)
                if not sources:
                    raise _StagingLost(name)
                source = sources[0]
                # born pinned, so concurrent reserves cannot evict it
                # while the transfer is in flight
                agent.reserve(name, size, pinned=True)
                try:
                    if source == self.storage.node_id:
                        yield self.storage.read(agent.node_id, size)
                    elif source == MANAGER_NODE:
                        yield from self._manager_transfer(
                            MANAGER_NODE, agent.node_id, size, "data")
                    else:
                        yield self.cluster.network.transfer(
                            source, agent.node_id, size, kind="peer")
                    self.replicas.add(name, agent.node_id)
                    if self.bus.enabled:
                        self.bus.emit(
                            obs.STAGE_IN, self.sim.now, task=task_id,
                            worker=agent.node_id, file=name,
                            nbytes=size, source=source,
                            t_start=t_fetch, cached=False,
                            **(self._tenant_kw(task_id)
                               if task_id is not None else {}))
                    return name
                except ConnectionError:
                    # source (or we) died mid-transfer; if we are dead
                    # the Interrupt arrives separately.
                    agent.unpin(name)
                    agent.remove(name)
                    if not agent.alive:
                        raise
                    continue
            raise _StagingLost(name)
        finally:
            agent.inflight.pop(name, None)
            if not pending.triggered:
                pending.succeed()
            if slot in agent.transfers._users:
                agent.transfers.release(slot)
            else:
                slot.cancel()

    # -- startup & outputs -----------------------------------------------------
    def _startup(self, task: SimTask, agent: WorkerAgent):
        sim = self.sim
        if self._mode_tasks:
            yield Timeout(sim, agent.node.scale_runtime(
                self._per_task_startup))
            return
        # serverless: one library per worker
        if not agent.library_ready:
            if agent.library_starting:
                while not agent.library_ready:
                    if not agent.alive:
                        raise _StagingLost("library lost")
                    yield Timeout(sim, 0.05)
            else:
                agent.library_starting = True
                cost = self._library_cost
                yield Timeout(sim, agent.node.scale_runtime(cost))
                agent.library_ready = True
                if self.bus.enabled:
                    self.bus.emit(obs.LIBRARY_START, sim.now,
                                  worker=agent.node_id,
                                  startup_s=agent.node.scale_runtime(cost))
        yield Timeout(sim, agent.node.scale_runtime(self._call_overhead))

    def _store_outputs(self, task: SimTask, agent: WorkerAgent):
        results_to_manager = self.config.results_to_manager
        disk = agent.node.disk
        node_id = agent.node_id
        replicas = self.replicas
        sizes = self._sizes
        final = self.workflow.final
        for name in task.outputs:
            size = sizes[name]
            # outputs are retained until their consumers finish
            agent.reserve(name, size, retain=True)  # may raise DiskFull
            yield disk.write(size)
            replicas.add(name, node_id)
            if results_to_manager or name in final:
                t_retr = self.sim.now
                yield from self._manager_transfer(
                    agent.node_id, MANAGER_NODE, size, "result")
                self.replicas.add(name, MANAGER_NODE)
                # the manager's disk is a cache node too (Fig 7)
                self.trace.cache(MANAGER_NODE, self.sim.now, size,
                                 name=name)
                if self.bus.enabled:
                    self.bus.emit(obs.RETRIEVE, self.sim.now,
                                  task=task.id, worker=agent.node_id,
                                  file=name, nbytes=size,
                                  t_start=t_retr,
                                  **self._tenant_kw(task.id))
        if task.dynamic_outputs:
            yield from self._store_dynamic_outputs(task, agent)

    def _store_dynamic_outputs(self, task: SimTask, agent: WorkerAgent):
        """Commit the task's runtime-discovered result files.

        Each (name, size) pair is registered with the workflow on
        first commit (producer + lineage cachename, so recovery and
        peer-cache equivalence work), announced as OUTPUT_DISCOVERED,
        and retrieved to the manager like any declared final output.
        Re-commits after lineage recovery skip the announcement.
        """
        node_id = agent.node_id
        for name, size in task.dynamic_outputs:
            fresh = self.workflow.register_dynamic(task.id, name, size)
            self._sizes[name] = size
            agent.reserve(name, size, retain=True)
            yield agent.node.disk.write(size)
            self.replicas.add(name, node_id)
            if fresh and self.bus.enabled:
                self.bus.emit(obs.OUTPUT_DISCOVERED, self.sim.now,
                              task=task.id, file=name, nbytes=size,
                              worker=node_id,
                              **self._tenant_kw(task.id))
            t_retr = self.sim.now
            yield from self._manager_transfer(
                node_id, MANAGER_NODE, size, "result")
            self.replicas.add(name, MANAGER_NODE)
            self.trace.cache(MANAGER_NODE, self.sim.now, size,
                             name=name)
            if self.bus.enabled:
                self.bus.emit(obs.RETRIEVE, self.sim.now,
                              task=task.id, worker=node_id,
                              file=name, nbytes=size, t_start=t_retr,
                              **self._tenant_kw(task.id))

    def _manager_transfer(self, src: int, dst: int, size: float,
                          kind: str):
        """A transfer touching the manager, bounded by its connection
        multiplexing limit."""
        slot = self.manager_pipe.request()
        try:
            yield slot
            yield self.cluster.network.transfer(src, dst, size, kind=kind)
        finally:
            if slot in self.manager_pipe._users:
                self.manager_pipe.release(slot)
            else:
                slot.cancel()

    # -- replication ---------------------------------------------------------
    def _maybe_replicate(self, name: str, source: WorkerAgent) -> None:
        """Best-effort: push extra copies of a fresh intermediate to
        peers so its loss costs a transfer, not a recomputation."""
        holders = {n for n in self.replicas.iter_locations(name)
                   if n in self.agents}
        missing = self.config.min_replicas - len(holders)
        if missing <= 0:
            return
        # documented equivalent of sorted(...)[:missing], without
        # sorting the whole agent population per fresh intermediate
        targets = nsmallest(
            missing,
            (a for a in self.agents.values()
             if a.alive and a.node_id not in holders),
            key=lambda a: (a.cached_bytes(), a.node_id))
        size = self.workflow.files[name].size
        for target in targets:
            self.sim.process(
                self._replicate_proc(name, size, source, target),
                name=f"replicate-{name}")

    def _replicate_proc(self, name: str, size: float,
                        source: WorkerAgent, target: WorkerAgent):
        self.inflight += 1
        try:
            yield from self._replicate_pipeline(name, size, source,
                                                target)
        finally:
            self.inflight -= 1

    def _replicate_pipeline(self, name: str, size: float,
                            source: WorkerAgent, target: WorkerAgent):
        try:
            if target.has(name) or name in target.inflight:
                return
            # Either endpoint may have been preempted in the instant
            # between scheduling this push and it starting -- its pipe
            # is then gone and transfer() would raise SimulationError.
            if (not source.alive or not target.alive
                    or not source.has(name)):
                return
            pending = self.sim.event()
            target.inflight[name] = pending
            try:
                # replicas are evictable (retain=False): best effort
                target.reserve(name, size, pinned=True)
                yield self.cluster.network.transfer(
                    source.node_id, target.node_id, size, kind="replica")
                self.replicas.add(name, target.node_id)
            finally:
                target.unpin(name)
                target.inflight.pop(name, None)
                if not pending.triggered:
                    pending.succeed()
        except (ConnectionError, DiskFullError, SimulationError):
            # source/target died or the target is full: replication is
            # best-effort, give up quietly
            if target.has(name) and not self.replicas.holders_among(
                    name, [target.node_id]):
                target.remove(name)

    # -- failure handling ---------------------------------------------------
    def _overflow_worker(self, agent: WorkerAgent) -> None:
        """A cache overflow kills the worker (Fig 11)."""
        if agent.alive:
            self.cluster.preempt(agent.node)

    def _on_preempt(self, node: WorkerNode) -> None:
        agent = self.agents.pop(node.node_id, None)
        self.free_workers.pop(node.node_id, None)
        if agent is None:
            return
        for task_id in list(agent.assigned):
            proc = self.task_procs.get(task_id)
            if proc is not None and proc.is_alive:
                proc.interrupt("preempted")
        lost = self.replicas.drop_node(node.node_id)
        for name in lost:
            self._recover_file(name)
        if not self.agents and not self._workflow_complete():
            self._abort("all workers lost; workflow cannot proceed")
        self._wake_dispatcher()

    def _recover_file(self, name: str) -> None:
        """Lineage recovery: re-run the producer of a lost file."""
        if self._available(name):
            return
        file = self.workflow.files[name]
        if file.kind == FileKind.INPUT:
            # dataset files are durable on shared storage
            self.replicas.add(name, self.storage.node_id)
            return
        needed = (name in self.workflow.final
                  or self._consumers_undone[name] > 0)
        if not needed:
            return
        producer = self.workflow.producer[name]
        if producer in self.running or producer in self.queued:
            return
        if producer in self.done:
            self.done.remove(producer)
            # the producer will run (and complete) again: its inputs
            # regain one not-yet-done consumer each
            undone = self._consumers_undone
            for g in self._task_meta(producer).intermediates:
                undone[g] += 1
        if self.bus.enabled:
            self.bus.emit(obs.RECOVERY, self.sim.now, file=name,
                          task=producer, **self._tenant_kw(producer))
        missing = [g for g in self.workflow.tasks[producer].inputs
                   if not self._available(g)]
        if missing:
            for g in missing:
                self._recover_file(g)
        if self._is_ready(producer):
            self._enqueue(producer)
