"""The always-on facility service: an asyncio front-end over one
continuously-pumped simulation.

:meth:`Facility.run` is batch: it replays a fixed arrival trace and
drives the clock to completion in one call.  :class:`FacilityService`
inverts that control flow for near-interactive use -- the TaskVine
paper's "always-on" submission model.  The service owns the facility
and pumps its event heap in bounded slices on an asyncio loop;
between slices, client coroutines run: they :meth:`submit` DAGs (the
arrival process is now *live*), await the returned
:class:`~repro.serve.futures.SubmissionFuture`, or ask for a
:meth:`checkpoint`.

Everything stays deterministic: one thread, one loop, and the sim
heap's total ``(time, priority, seq)`` order is unaffected by slice
boundaries -- slicing changes *when wall-clock code observes* the
simulation, never what the simulation does.  The exception is the
checkpoint barrier (:meth:`checkpoint`): it pauses dispatch and pumps
the heap dry, which is a genuine scheduling fence.  Restored runs are
therefore compared to uninterrupted ones on *content* -- per-tenant
completion summaries and the physics-accounting pseudo-histogram --
not on event timing (see ``tests/serve/test_checkpoint_restore.py``).

The service's transaction log is written with ``autoflush`` (every
record durable at commit) and an ``epoch`` header; a restore opens
epoch N+1 and stamps a RESTORE record, so the log chain replays
cleanly across a kill -9.
"""

from __future__ import annotations

import asyncio
import heapq
from typing import Callable, Dict, List, Optional

from ..facility.facility import Facility, FacilityResult
from ..facility.tenant import Queued, Rejected
from ..obs import events as obs
from .checkpoint import CheckpointFolds, workflow_to_dict
from .futures import SubmissionFuture

__all__ = ["FacilityService", "ServiceError"]


class ServiceError(RuntimeError):
    """The service was driven outside its lifecycle contract."""


class FacilityService:
    """One facility, held open and pumped on an asyncio loop.

    Lifecycle::

        service = FacilityService(env, tenants, txlog_path=...)
        await service.start()
        fut = await service.submit("t0", workflow, tag="dv3")
        summary = await fut                  # resolves as tasks commit
        await service.checkpoint("run.ckpt") # quiescent snapshot
        result = await service.drain()       # close arrivals, finish

    ``slice_events`` bounds how many sim events run between yields to
    the loop -- the interactivity/throughput knob.
    """

    def __init__(self, env, tenants,
                 discipline: str = "wfs",
                 config=None,
                 txlog_path: Optional[str] = None,
                 txlog_meta: Optional[dict] = None,
                 epoch: int = 1,
                 slo_policy=None,
                 checkpoint_path: Optional[str] = None,
                 checkpoint_every: Optional[int] = None,
                 slice_events: int = 512,
                 **facility_kwargs):
        self.env = env
        self.sim = env.sim
        self.epoch = int(epoch)
        self.txlog_path = txlog_path
        self.facility = Facility(env, tenants, discipline=discipline,
                                 config=config, txlog_path=txlog_path,
                                 txlog_meta=txlog_meta, epoch=self.epoch,
                                 slo_policy=slo_policy,
                                 **facility_kwargs)
        self.manager = self.facility.manager
        self.bus = self.facility.bus
        self.txlog = self.facility.observed.txlog
        #: restore state folded from the event stream the txlog
        #: records, live: seeded with the RUN header (which never
        #: crosses the bus), then subscribed right behind the log
        self.checkpoint_folds: Optional[CheckpointFolds] = None
        if self.txlog is not None:
            self.checkpoint_folds = CheckpointFolds()
            self.checkpoint_folds.add(self.txlog.header)
            self.bus.subscribe_all(self.checkpoint_folds.on_event)
        self.checkpoint_path = checkpoint_path
        #: checkpoint automatically every N committed tasks
        self.checkpoint_every = checkpoint_every
        self.slice_events = max(1, int(slice_events))

        #: sid -> SubmissionFuture for every non-rejected submission
        self.futures: Dict[str, SubmissionFuture] = {}
        #: sid -> {tenant, tag, t_submit, workflow(dict)} -- the DAG
        #: journal checkpoints persist (the txlog records lifecycle
        #: edges, not DAG structure)
        self.journal: Dict[str, dict] = {}
        #: committed state inherited from restored epochs
        #: (task id -> outputs); this epoch's txlog only covers epoch N
        self.restored_done: Dict[str, List[str]] = {}
        self.restored_discovered: List[dict] = []
        #: CLI-owned environment recipe, embedded in checkpoints so
        #: ``serve restore`` can rebuild the identical cluster
        self.env_meta: dict = {}
        #: TASK_DONE count this epoch (auto-checkpoint cadence)
        self.tasks_done = 0
        self.checkpoints = 0
        self.last_checkpoint: Optional[dict] = None
        #: hooks called with the running TASK_DONE count (crash
        #: injection, cadence policies); they run *inside* the slice.
        self.on_task_done: List[Callable[[int], None]] = []

        self._inbox: list = []
        self._inbox_seq = 0
        self._ckpt_marker = 0
        self._loop = None
        self._wake: Optional[asyncio.Event] = None
        self._pump_task = None
        self._stopping = False
        self._drained: Optional[asyncio.Future] = None
        self._result: Optional[FacilityResult] = None

        self.bus.subscribe(obs.ADMIT, self._on_admit)
        self.bus.subscribe(obs.TASK_DONE, self._on_task_done)
        self.bus.subscribe(obs.OUTPUT_DISCOVERED, self._on_discovered)
        self.bus.subscribe(obs.SUBMISSION_DONE, self._on_submission_done)

    # -- lifecycle ----------------------------------------------------------
    async def start(self) -> "FacilityService":
        """Start the manager and the pump; idempotent."""
        if self._pump_task is not None:
            return self
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._drained = self._loop.create_future()
        self.facility.begin_service()
        self._pump_task = self._loop.create_task(
            self._pump(), name="repro-serve-pump")
        return self

    async def submit(self, tenant: str, workflow, tag: str = "",
                     at: Optional[float] = None) -> SubmissionFuture:
        """Submit one DAG; returns its future immediately.

        ``at`` schedules the arrival at a sim time (past times clamp
        to now); the admission decision lands once the pump reaches
        it -- ``await fut.decision()`` to observe it.
        """
        if self._pump_task is None:
            raise ServiceError("service not started")
        if self._stopping:
            raise ServiceError("service is draining; submission refused")
        fut = SubmissionFuture(tenant, tag, self._loop)
        t = self.sim.now if at is None else max(float(at), self.sim.now)
        self._inbox_seq += 1
        heapq.heappush(self._inbox, (t, self._inbox_seq, {
            "tenant": tenant, "workflow": workflow, "tag": tag,
            "future": fut}))
        self._wake.set()
        return fut

    async def checkpoint(self, path: Optional[str] = None) -> dict:
        """Quiesce and snapshot; returns the checkpoint dict.

        Pauses dispatch, pumps until in-flight work commits (running
        tasks and transfers drain; nothing new starts), snapshots the
        live checkpoint fold into restore state, writes the sidecar
        atomically, stamps a CHECKPOINT record, and resumes.
        """
        if self._pump_task is None:
            raise ServiceError("service not started")
        return self._checkpoint_sync(path or self.checkpoint_path)

    async def drain(self) -> FacilityResult:
        """No further arrivals; run the backlog down and finalize."""
        if self._pump_task is None:
            raise ServiceError("service not started")
        self._stopping = True
        self._wake.set()
        return await asyncio.shield(self._drained)

    @property
    def result(self) -> Optional[FacilityResult]:
        """The finalized result once :meth:`drain` completed."""
        return self._result

    def progress(self) -> dict:
        """Cheap service-level headline numbers."""
        return {
            "t": self.sim.now,
            "epoch": self.epoch,
            "submissions": len(self.facility.submissions),
            "tasks_committed": len(self.manager.done),
            "tasks_done_epoch": self.tasks_done,
            "pending_arrivals": len(self._inbox),
            "checkpoints": self.checkpoints,
            "last_checkpoint": self.last_checkpoint,
            "draining": self._stopping,
            "finished": self.manager.finished,
        }

    # -- the pump -----------------------------------------------------------
    def _work_pending(self) -> bool:
        """True while any submission still owes work.

        The heap being non-empty is NOT the work signal: it always
        holds future background events (per-worker preemption clocks),
        and pumping through those with nothing to run would fast-forward
        the campaign into the far future, killing every worker on the
        way.  Batch runs stop at the finish event and never see them;
        the service must stop on the same boundary.
        """
        if self.manager.inflight:
            return True
        return any(s.t_done is None and s.rejected_reason is None
                   for s in self.facility.submissions.values())

    async def _pump(self) -> None:
        sim = self.sim
        try:
            while True:
                while self._inbox and self._inbox[0][0] <= sim.now:
                    # popped once injected: if the submit raises, the
                    # failure path below still fails its future
                    self._inject(self._inbox[0][2])
                    heapq.heappop(self._inbox)
                if self._auto_checkpoint_due():
                    self._checkpoint_sync(self.checkpoint_path)
                if self._inbox:
                    # events between now and the arrival (including any
                    # preemptions) fire exactly as a batch replay would
                    self._advance(until=self._inbox[0][0],
                                  stop=self._auto_checkpoint_due)
                elif self._work_pending() and sim._heap:
                    self._advance(
                        until=None,
                        stop=lambda: (not self._work_pending()
                                      or self._auto_checkpoint_due()))
                elif self._stopping:
                    break
                else:
                    # idle until a client submits, drains, or stops
                    self._wake.clear()
                    await self._wake.wait()
                    continue
                await asyncio.sleep(0)
            self.facility.end_of_arrivals()
            while not self.manager.finished and sim._heap:
                if self._auto_checkpoint_due():
                    self._checkpoint_sync(self.checkpoint_path)
                self._advance(
                    until=None,
                    stop=lambda: (self.manager.finished
                                  or self._auto_checkpoint_due()))
                await asyncio.sleep(0)
            self._result = self.facility.finalize(self.manager.result())
            self._drained.set_result(self._result)
        except (asyncio.CancelledError, SystemExit,
                KeyboardInterrupt):
            # loop shutdown or process termination (the txlog signal
            # handler raises SystemExit), not a service failure: the
            # exception must reach the loop so the process exits
            raise
        except BaseException as exc:
            self.facility.observed.abort(exc)
            for fut in self.futures.values():
                fut._failed(exc)
            # arrivals not yet injected: their clients await too
            for _t, _seq, entry in self._inbox:
                entry["future"]._failed(exc)
            self._inbox.clear()
            if not self._drained.done():
                self._drained.set_exception(exc)

    def _advance(self, until: Optional[float],
                 stop: Optional[Callable[[], bool]] = None) -> None:
        """Run up to ``slice_events`` heap events, bounded by ``until``
        (and jump the clock there when the heap runs dry first).
        ``stop`` is re-checked after every event so a slice never
        overshoots a completion boundary into background events."""
        sim = self.sim
        budget = self.slice_events
        heap = sim._heap
        while budget and heap:
            if until is not None and heap[0][0] > until:
                break
            sim.step()
            budget -= 1
            if stop is not None and stop():
                return
        if (budget and until is not None and sim.now < until
                and (not heap or heap[0][0] > until)):
            sim.run(until=until)  # no events left below: clock jump

    def _inject(self, entry: dict) -> None:
        fut: SubmissionFuture = entry["future"]
        decision = self.facility.submit(entry["tenant"],
                                        entry["workflow"],
                                        tag=entry["tag"])
        fut.sid = decision.submission_id
        if isinstance(decision, Rejected):
            fut._rejected(decision.reason)
            return
        sid = decision.submission_id
        self.futures[sid] = fut
        self.journal[sid] = {
            "tenant": entry["tenant"], "tag": entry["tag"],
            "t_submit": self.sim.now,
            "workflow": workflow_to_dict(entry["workflow"])}
        if isinstance(decision, Queued):
            fut._queued(decision)
        else:
            fut._admitted(decision)

    # -- checkpointing ------------------------------------------------------
    def _auto_checkpoint_due(self) -> bool:
        # a draining service still checkpoints -- the backlog runs for
        # a while after the last arrival and stays crashable
        return (self.checkpoint_every is not None
                and self.checkpoint_path is not None
                and not self.manager.finished
                and self.tasks_done - self._ckpt_marker
                >= self.checkpoint_every)

    def _checkpoint_sync(self, path: Optional[str]) -> dict:
        # imported per call: the ledger's traced run patches these
        # module attributes
        from .checkpoint import build_checkpoint, write_checkpoint
        if path is None:
            raise ServiceError("no checkpoint path configured")
        if self.txlog_path is None:
            raise ServiceError(
                "checkpointing requires a transaction log "
                "(pass txlog_path)")
        sim = self.sim
        self.manager.pause_dispatch()
        try:
            # quiesce: with dispatch paused, pump until every task
            # pipeline has committed or failed.  Background events
            # (preemption clocks) beyond that point stay unfired.
            while self.manager.inflight and sim._heap:
                sim.step()
            ckpt = build_checkpoint(self)
            write_checkpoint(ckpt, path)
            self.bus.emit(obs.CHECKPOINT, sim.now, epoch=self.epoch,
                          path=str(path), sequence=self.checkpoints,
                          tasks_committed=len(self.manager.done),
                          submissions=len(self.facility.submissions))
            self.checkpoints += 1
            self._ckpt_marker = self.tasks_done
            self.last_checkpoint = {
                "t": sim.now, "path": str(path),
                "tasks_committed": len(self.manager.done)}
        finally:
            self.manager.resume_dispatch()
        return ckpt

    # -- bus handlers -------------------------------------------------------
    def _on_admit(self, type: str, t: float, fields: dict) -> None:
        if fields.get("decision") != "admitted":
            return
        fut = self.futures.get(fields.get("submission"))
        if fut is not None and fut.state == "queued":
            # backlog drain: the Queued future flips to running
            fut.state = "running"
            fut.position = None

    def _on_task_done(self, type: str, t: float, fields: dict) -> None:
        self.tasks_done += 1
        task = fields.get("task", "")
        sid, _, _rest = task.partition("/")
        fut = self.futures.get(sid)
        if fut is not None:
            for phys in fields.get("outputs", ()):
                visible = phys.partition("/")[2] or phys
                fut._output_committed(visible, {
                    "file": visible, "task": task, "t": t})
        for hook in list(self.on_task_done):
            hook(self.tasks_done)

    def _on_discovered(self, type: str, t: float, fields: dict) -> None:
        task = fields.get("task", "")
        sid = task.partition("/")[0]
        fut = self.futures.get(sid)
        if fut is not None:
            phys = fields.get("file", "")
            visible = phys.partition("/")[2] or phys
            fut._output_committed(
                visible, {"file": visible, "task": task, "t": t,
                          "nbytes": fields.get("nbytes")},
                discovered=True)

    def _on_submission_done(self, type: str, t: float,
                            fields: dict) -> None:
        fut = self.futures.get(fields.get("submission"))
        if fut is not None:
            fut._completed({k: v for k, v in fields.items()
                            if k != "type"})

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<FacilityService epoch={self.epoch} "
                f"t={self.sim.now:.1f} "
                f"subs={len(self.facility.submissions)} "
                f"done={len(self.manager.done)}>")
