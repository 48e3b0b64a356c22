"""Checkpoint/restore on the replay-faithful transaction log.

A checkpoint is taken at a *quiescent* point (dispatch paused, event
heap pumped dry: no task running, no transfer in flight) and has two
halves:

* a CHECKPOINT record stamped into the service's transaction log --
  the durable marker later analysis and the restore chain key on, and
* a compact JSON sidecar whose restore state is **folded from the
  event stream the txlog records** (:class:`CheckpointFolds`,
  embedding the analyzer's :class:`~repro.obs.analyze.Folds`):
  committed tasks from TASK_DONE, per-node cache residency from
  CACHE_PUT/CACHE_EVICT, runtime-discovered outputs from
  OUTPUT_DISCOVERED.  What the log replays is what the checkpoint
  restores -- there is no second source of truth for execution state.

Each service owns one fold for its whole lifetime, seeded with the
log's RUN header (which never crosses the bus) and then subscribed to
the bus behind the log, so it sees every record the log writes, in
order.  A checkpoint therefore costs the state it saves, not a re-read
of the log written so far; :meth:`CheckpointFolds.feed` over
:func:`~repro.obs.txlog.read_records` is the batch reference the live
fold is tested against.

The sidecar additionally journals each submission's DAG (tasks,
files, dynamic outputs) and admission timeline, because the txlog
records lifecycle *edges*, not DAG structure.

``restore_service`` rebuilds a fresh service at epoch N+1: same
submission ids, committed tasks in ``manager.done`` (they never
re-execute), worker caches re-reserved through the normal agent path
(so the new epoch's log carries the restored occupancy as CACHE_PUT
records and tenant cache accounting re-primes itself), and a RESTORE
record stamped before work resumes.  Futures for already-committed
outputs -- including runtime-discovered ones -- resolve immediately.
"""

from __future__ import annotations

import asyncio
import json
import os
import tempfile
from typing import Dict, Iterable, List, Optional, Set

from ..cli import InputError
from ..core.files import SimFile
from ..core.manager import MANAGER_NODE
from ..core.spec import SimTask, SimWorkflow
from ..facility.tenant import Admitted, Queued
from ..obs import events as ev
from ..obs.analyze import Folds
from .futures import SubmissionFuture

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "CheckpointFolds",
    "workflow_to_dict",
    "workflow_from_dict",
    "build_checkpoint",
    "write_checkpoint",
    "load_checkpoint",
    "restore_service",
    "tenant_summaries",
]

CHECKPOINT_VERSION = 1


class CheckpointError(InputError):
    """Unreadable or structurally invalid checkpoint."""


# -- DAG journal --------------------------------------------------------------
def workflow_to_dict(workflow: SimWorkflow) -> dict:
    """Serialize a tenant-visible DAG for the checkpoint journal."""
    return {
        "tasks": [{
            "id": t.id, "compute": t.compute,
            "inputs": list(t.inputs), "outputs": list(t.outputs),
            "category": t.category, "function": t.function,
            "cores": t.cores,
            "dynamic_outputs": [[n, s] for n, s in t.dynamic_outputs],
        } for t in workflow.tasks.values()],
        "files": [{"name": f.name, "size": f.size, "kind": f.kind}
                  for f in workflow.files.values()],
    }


def workflow_from_dict(data: dict) -> SimWorkflow:
    try:
        tasks = [SimTask(
            id=t["id"], compute=t["compute"],
            inputs=tuple(t["inputs"]), outputs=tuple(t["outputs"]),
            category=t.get("category", "proc"),
            function=t.get("function", ""),
            cores=t.get("cores", 1),
            dynamic_outputs=tuple(
                (n, s) for n, s in t.get("dynamic_outputs", ())),
        ) for t in data["tasks"]]
        files = [SimFile(f["name"], f["size"], f["kind"])
                 for f in data["files"]]
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"malformed workflow journal: {exc}")
    return SimWorkflow(tasks, files)


# -- folding the log ----------------------------------------------------------
class CheckpointFolds:
    """Restore state folded from one epoch's event stream.

    Embeds the analyzer's :class:`Folds` (same per-record handlers
    the batch/live analyzers run, so the checkpoint's ``analyzer``
    block agrees with ``python -m repro.obs`` on the same log) and
    adds the three folds restore needs that the analyzer's bounded
    aggregates deliberately forget: the committed-task map, per-node
    cache residency, and runtime-discovered outputs.

    Feed it live with :meth:`on_event` (the bus-subscriber entry
    point) or from parsed txlog records with :meth:`add` /
    :meth:`feed`; both reach the same fold.
    """

    def __init__(self):
        self.folds = Folds()
        #: node id -> {file name: bytes} resident at the fold point
        self.resident: Dict[int, Dict[str, float]] = {}
        #: committed task id -> declared output names
        self.done: Dict[str, List[str]] = {}
        #: OUTPUT_DISCOVERED records: {task, file, nbytes}
        self.discovered: List[dict] = []

    def on_event(self, type: str, t: float, fields: dict) -> None:
        """Fold one event (the bus-subscriber entry point)."""
        self.folds.records += 1
        self.folds.add_event(type, t, fields)
        if type == ev.CACHE_PUT:
            name = fields.get("file")
            if name is not None:
                node = self.resident.setdefault(
                    int(fields["worker"]), {})
                node[name] = fields["nbytes"]
        elif type == ev.CACHE_EVICT:
            name = fields.get("file")
            if name is not None:
                self.resident.get(int(fields["worker"]),
                                  {}).pop(name, None)
        elif type == ev.TASK_DONE:
            self.done[fields["task"]] = list(
                fields.get("outputs", ()))
        elif type == ev.OUTPUT_DISCOVERED:
            self.discovered.append({
                "task": fields["task"], "file": fields["file"],
                "nbytes": fields.get("nbytes", 0.0)})

    def add(self, record: dict) -> None:
        self.on_event(record.get("type", "?"), record.get("t", 0.0), record)

    def feed(self, records: Iterable[dict]) -> int:
        n = 0
        for record in records:
            self.add(record)
            n += 1
        return n


# -- summaries (the crash-equivalence contract) -------------------------------
def tenant_summaries(facility, done: Set[str]) -> dict:
    """Content-based per-tenant outcome: what each tenant *got*.

    Compared across an uninterrupted run and a kill -9 + restore
    chain, these must be equal: submission/task counts, the sorted
    result-file set (declared and discovered), and the bin-exact
    physics-accounting pseudo-histogram over committed task ids
    (:func:`repro.chaos.scorecard.pseudo_histogram` -- string ids, so
    the digest lines up across processes).
    """
    from ..chaos.scorecard import N_BINS, pseudo_histogram
    composite = facility.composite
    out = {}
    for tenant in sorted(facility.tenants):
        ids = sorted(t for t in done
                     if composite._tenant_by_task.get(t) == tenant)
        hist = [0] * N_BINS
        for tid in ids:
            for i, v in enumerate(pseudo_histogram(tid)):
                hist[i] += int(v)
        outputs = sorted(
            name for name in composite.final
            if composite.tenant_of_file(name) == tenant
            and composite.producer.get(name) in done)
        subs = [s for s in facility.submissions.values()
                if s.tenant == tenant and s.rejected_reason is None]
        out[tenant] = {
            "tenant": tenant,
            "submissions": len(subs),
            "submissions_done": sum(1 for s in subs
                                    if s.t_done is not None),
            "tasks_done": len(ids),
            "outputs": outputs,
            "histogram": hist,
        }
    return out


# -- building -----------------------------------------------------------------
def build_checkpoint(service) -> dict:
    """Snapshot a quiescent service (see module docstring)."""
    cf = service.checkpoint_folds
    # chain: committed state inherited from prior epochs is not in
    # this epoch's log as TASK_DONE records (caches *are*: restore
    # re-reserves them, which re-emits CACHE_PUT into the new log)
    done: Dict[str, List[str]] = dict(service.restored_done)
    done.update(cf.done)
    discovered = {d["file"]: d for d in service.restored_discovered}
    for d in cf.discovered:
        discovered[d["file"]] = d

    facility = service.facility
    submissions = []
    for sid, sub in facility.submissions.items():
        if sub.rejected_reason is not None:
            continue
        entry = service.journal.get(sid)
        if entry is None:  # pragma: no cover - journal is write-through
            raise CheckpointError(f"submission {sid} missing from "
                                  f"the DAG journal")
        submissions.append({
            "sid": sid, "tenant": sub.tenant, "tag": sub.tag,
            "t_submit": sub.t_submit, "t_admit": sub.t_admit,
            "t_done": sub.t_done,
            "status": "queued" if sub.t_admit is None else "admitted",
            "workflow": entry["workflow"],
        })
    folds = cf.folds
    return {
        "version": CHECKPOINT_VERSION,
        "t": service.sim.now,
        "epoch": service.epoch,
        "txlog": str(service.txlog_path),
        "discipline": facility.discipline_name,
        "env": dict(service.env_meta),
        "submissions": submissions,
        "done": {task: done[task] for task in sorted(done)},
        "discovered": sorted(discovered.values(),
                             key=lambda d: d["file"]),
        "cache": {str(node): sorted(
            [name, size] for name, size in resident.items())
            for node, resident in sorted(cf.resident.items())
            if resident},
        "analyzer": {
            "records": folds.records,
            "tasks_ok": len(folds.exec_ok),
            "tasks_failed": folds.exec_failed,
            "makespan": folds.makespan,
            "transfer_gb": folds.transfer_total / 1e9,
            "evictions": folds.evictions,
        },
        "summaries": tenant_summaries(facility, set(done)),
    }


def write_checkpoint(ckpt: dict, path: str) -> None:
    """Atomic write: temp file in the target directory + rename, so a
    crash mid-checkpoint leaves the previous checkpoint intact.

    One unindented ``json.dumps`` call, so CPython's C encoder does the
    work (``json.dump`` and ``indent`` both take the pure-Python one).
    """
    text = json.dumps(ckpt, sort_keys=True, separators=(",", ":"))
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ckpt-",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load_checkpoint(path: str) -> dict:
    try:
        with open(path) as fh:
            ckpt = json.load(fh)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint: {exc}")
    except ValueError as exc:
        raise CheckpointError(f"corrupt checkpoint {path!r}: {exc}")
    if not isinstance(ckpt, dict) or "version" not in ckpt:
        raise CheckpointError(f"{path!r} is not a serve checkpoint")
    if ckpt["version"] > CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {ckpt['version']} is newer than "
            f"this code ({CHECKPOINT_VERSION})")
    for key in ("t", "epoch", "submissions", "done", "cache"):
        if key not in ckpt:
            raise CheckpointError(f"checkpoint missing {key!r}")
    return ckpt


# -- restoring ----------------------------------------------------------------
def _retain_at_restore(composite, name: str, done: Set[str]) -> bool:
    """Should a restored replica be retention-protected?  Generated
    files still feeding undone consumers, and final results, must not
    be LRU victims -- exactly the live manager's retention rule."""
    if composite.producer.get(name) is None:
        return False  # dataset input: evictable, re-stageable
    if any(c not in done for c in composite.consumers[name]):
        return True
    return name in composite.final


async def restore_service(path: str, env, tenants, *,
                          txlog_path: Optional[str] = None,
                          **service_kwargs):
    """Rebuild a running service from a checkpoint at epoch N+1.

    ``env``/``tenants`` must describe the same cluster and tenant set
    the checkpointed service ran (the sidecar does not persist the
    hardware model; the CLI re-derives both from its own arguments).
    Returns the started :class:`FacilityService`; per-submission
    futures (committed work already resolved) are in ``service.futures``.
    """
    from .service import FacilityService
    ckpt = load_checkpoint(path)
    service_kwargs.setdefault("discipline",
                              ckpt.get("discipline", "wfs"))
    service = FacilityService(env, tenants,
                              epoch=int(ckpt["epoch"]) + 1,
                              txlog_path=txlog_path,
                              **service_kwargs)
    loop = asyncio.get_running_loop()
    facility, manager, sim = (service.facility, service.manager,
                              service.sim)
    sim.run(until=float(ckpt["t"]))  # empty heap: pure clock jump
    facility.begin_service()

    done: Set[str] = set(ckpt["done"])
    done_by_sid: Dict[str, List[str]] = {}
    for tid in ckpt["done"]:
        done_by_sid.setdefault(tid.partition("/")[0], []).append(tid)
    all_ids: List[str] = []
    all_files: List[str] = []
    for sub in ckpt["submissions"]:
        workflow = workflow_from_dict(sub["workflow"])
        sid, tenant = sub["sid"], sub["tenant"]
        queued = sub.get("status") == "queued"
        ids, files = facility.restore_submission(
            sid, tenant, sub.get("tag", ""), sub["t_submit"],
            workflow,
            done_tasks=done_by_sid.get(sid, ()),
            t_admit=sub.get("t_admit"), t_done=sub.get("t_done"),
            queued=queued)
        all_ids.extend(ids)
        all_files.extend(files)
        service.journal[sid] = {
            "tenant": tenant, "tag": sub.get("tag", ""),
            "t_submit": sub["t_submit"],
            "workflow": sub["workflow"]}
        fut = SubmissionFuture(tenant, sub.get("tag", ""), loop)
        fut.sid = sid
        if queued:
            fut._queued(Queued(sid, tenant, sub["t_submit"],
                               position=len(facility._backlog[tenant])))
        else:
            fut._admitted(Admitted(sid, tenant, sub.get("t_admit")))
        service.futures[sid] = fut

    # runtime-discovered outputs of committed tasks: re-register so
    # replicas/retention/lineage see them (undone tasks re-announce
    # their own on commit)
    composite = facility.composite
    for tid in sorted(done):
        task = composite.tasks.get(tid)
        if task is None:
            raise CheckpointError(
                f"checkpoint marks unknown task {tid!r} done")
        for name, size in task.dynamic_outputs:
            if composite.register_dynamic(tid, name, size):
                all_files.append(name)

    # committed manager state: done set, replica map, worker caches
    replica_nodes: Dict[str, List[int]] = {}
    cache_entries: Dict[int, list] = {}
    for node_str, rows in ckpt["cache"].items():
        node = int(node_str)
        entries = cache_entries.setdefault(node, [])
        for name, size in rows:
            if name not in composite.files:
                continue  # e.g. file of a since-rejected submission
            replica_nodes.setdefault(name, []).append(node)
            entries.append((name, size,
                            _retain_at_restore(composite, name, done)))
    manager.restore_committed(done, replica_nodes, cache_entries)
    manager.submission_added(all_ids, all_files)
    slo = facility.observed.slo_monitor
    if slo is not None and getattr(slo, "enabled", False):
        # committed progress never crosses this epoch's bus
        slo.prime(len(done), t=sim.now)

    # resolve futures for work committed before the checkpoint --
    # including runtime-discovered outputs
    for tid, outputs in ckpt["done"].items():
        fut = service.futures.get(tid.partition("/")[0])
        if fut is None:
            continue
        for phys in outputs:
            visible = phys.partition("/")[2] or phys
            fut._output_committed(visible, {
                "file": visible, "task": tid, "t": float(ckpt["t"]),
                "restored": True})
    for d in ckpt.get("discovered", ()):
        fut = service.futures.get(d["task"].partition("/")[0])
        if fut is not None:
            visible = d["file"].partition("/")[2] or d["file"]
            fut._output_committed(
                visible, {"file": visible, "task": d["task"],
                          "t": float(ckpt["t"]),
                          "nbytes": d.get("nbytes"), "restored": True},
                discovered=True)
    for sub in ckpt["submissions"]:
        if sub.get("t_done") is not None:
            service.futures[sub["sid"]]._completed({
                "tenant": sub["tenant"], "submission": sub["sid"],
                "turnaround": sub["t_done"] - sub["t_submit"],
                "restored": True})

    service.restored_done = dict(ckpt["done"])
    service.restored_discovered = list(ckpt.get("discovered", ()))
    service.env_meta = dict(ckpt.get("env", {}))
    service.bus.emit(ev.RESTORE, sim.now,
                     epoch=service.epoch, checkpoint=str(path),
                     checkpoint_t=float(ckpt["t"]),
                     tasks_committed=len(done),
                     submissions=len(ckpt["submissions"]))
    # quotas may fit queued submissions now that committed work needs
    # no further service; nothing else would trigger the drain
    for tenant in facility.tenants:
        facility._drain_backlog(tenant)
    await service.start()
    return service
