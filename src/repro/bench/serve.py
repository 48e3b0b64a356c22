"""Arrival-driven workloads and benchmarks for the serve facility.

Builds multi-tenant campaigns for :mod:`repro.serve`: the same
Table II DAGs and arrival schedules the batch facility replays, plus
a *dynamic-output* decoration -- every Nth task also commits a result
file the DAG never declared, exercising the service's
runtime-discovered-output futures end to end.

``restore_latency_rows`` is the EXPERIMENTS.md harness: checkpoint a
campaign at increasing backlog sizes and measure the wall-clock cost
of ``restore_service`` (checkpoint parse + composite rebuild + cache
re-reservation).
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..facility.tenant import Tenant, TenantQuota
from . import calibration as cal
from .workloads import (build_arrivals, build_workflow, make_schedule,
                        workload_spec)

__all__ = [
    "with_dynamic_outputs",
    "serve_campaign",
    "restore_latency_rows",
]


def with_dynamic_outputs(workflow, every: int = 3,
                         size: float = 2e6):
    """A copy of ``workflow`` where every ``every``-th task (in sorted
    id order) also commits one undeclared ``<task>.extra.root`` result
    at runtime.  Deterministic, so crashed and uninterrupted runs
    discover identical files."""
    from ..core.spec import SimWorkflow
    tasks = []
    for index, task_id in enumerate(sorted(workflow.tasks)):
        task = workflow.tasks[task_id]
        if every > 0 and index % every == 0:
            task = dataclasses.replace(
                task,
                dynamic_outputs=task.dynamic_outputs
                + ((f"{task_id}.extra.root", float(size)),))
        tasks.append(task)
    return SimWorkflow(tasks, list(workflow.files.values()))


def serve_campaign(n_tenants: int = 4,
                   per_tenant: int = 2,
                   workload: str = "DV3-Small",
                   scale: float = 0.02,
                   arrival: str = "burst",
                   seed: int = 11,
                   dynamic_every: int = 0,
                   inflight_quota: Optional[int] = None,
                   max_queued: int = 8
                   ) -> Tuple[List[Tenant], list]:
    """Tenants + arrival trace for one serve campaign.

    Deterministic in all arguments: the crash/restore equivalence
    tests rebuild the identical campaign on both sides of a kill -9.
    """
    spec = workload_spec(workload, scale)
    workflow = build_workflow(spec, arity=cal.REDUCTION_ARITY,
                              seed=seed)
    if dynamic_every:
        workflow = with_dynamic_outputs(workflow, every=dynamic_every)
    tenant_names = [f"t{i}" for i in range(n_tenants)]
    quota = TenantQuota(inflight_tasks=inflight_quota,
                        max_queued=max_queued)
    tenants = [Tenant(name, quota=quota) for name in tenant_names]
    schedule = make_schedule(arrival, tenant_names, per_tenant,
                             seed=seed)
    arrivals = build_arrivals(schedule, lambda tenant: workflow,
                              tag_for=lambda tenant: spec.name)
    return tenants, arrivals


def restore_latency_rows(backlogs: Sequence[int] = (1, 2, 4, 8),
                         workers: int = 4,
                         workload: str = "DV3-Small",
                         scale: float = 0.02,
                         seed: int = 11) -> List[Dict[str, float]]:
    """Measure restore wall-clock latency against backlog size.

    For each backlog ``b``: run a campaign of ``b`` submissions per
    tenant, checkpoint at the *first* quiescent opportunity (so most
    of the campaign is still ahead -- the worst case a restore must
    swallow), then time ``restore_service`` from that sidecar.
    Returns EXPERIMENTS.md table rows.
    """
    import asyncio
    import os
    import tempfile

    from ..serve import restore_service
    from ..serve.service import FacilityService
    from ..serve.client import run_campaign
    from .runners import build_environment

    rows: List[Dict[str, float]] = []
    for backlog in backlogs:
        tenants, arrivals = serve_campaign(
            n_tenants=4, per_tenant=backlog, workload=workload,
            scale=scale, seed=seed)
        with tempfile.TemporaryDirectory() as tmp:
            txlog = os.path.join(tmp, "serve.jsonl")
            ckpt = os.path.join(tmp, "serve.ckpt")

            async def _run():
                env = build_environment(workers, seed=seed)
                service = FacilityService(env, tenants,
                                          txlog_path=txlog,
                                          checkpoint_path=ckpt,
                                          checkpoint_every=1)
                await service.start()
                # take exactly one checkpoint, as early as possible,
                # so the restore has the whole backlog ahead of it
                service.on_task_done.append(
                    lambda n: service.checkpoints and setattr(
                        service, "checkpoint_every", None))
                futures = await run_campaign(service, arrivals,
                                             wait=False)
                await service.drain()
                return futures

            asyncio.run(_run())

            async def _restore():
                env = build_environment(workers, seed=seed)
                t0 = time.perf_counter()
                service = await restore_service(
                    ckpt, env, tenants,
                    txlog_path=os.path.join(tmp, "serve-e2.jsonl"))
                wall = time.perf_counter() - t0
                pending = sum(
                    1 for s in service.facility.submissions.values()
                    if s.t_done is None
                    and s.rejected_reason is None)
                await service.drain()
                return wall, pending

            wall, pending = asyncio.run(_restore())
            rows.append({
                "submissions": 4 * backlog,
                "pending_at_checkpoint": pending,
                "checkpoint_bytes": os.path.getsize(ckpt),
                "restore_wall_ms": wall * 1e3,
            })
    return rows
