"""Always-on facility service: async submission, futures, restore.

The batch facility (:mod:`repro.facility`) replays a fixed arrival
trace; this package keeps the same facility *open*: an asyncio
front-end (:class:`FacilityService`) pumps the simulation kernel in
bounded slices while clients submit DAGs live and hold
:class:`SubmissionFuture` / :class:`OutputFuture` handles that
resolve as tasks commit -- including result files the DAG never
declared (runtime-discovered outputs).

Durability rides the transaction log: the service writes with
autoflush and an epoch header, :meth:`FacilityService.checkpoint`
stamps a quiescent CHECKPOINT record plus a JSON sidecar folded live
from the event stream the log records, and :func:`restore_service`
resumes a killed campaign at epoch N+1 without re-executing committed
work.

CLI: ``python -m repro.serve run|restore`` (see ``--help``).
"""

from .futures import AdmissionRejected, OutputFuture, SubmissionFuture
from .service import FacilityService, ServiceError
from .client import ServeClient, run_campaign
from .checkpoint import (
    CheckpointError,
    CheckpointFolds,
    build_checkpoint,
    load_checkpoint,
    restore_service,
    tenant_summaries,
    workflow_from_dict,
    workflow_to_dict,
    write_checkpoint,
)

__all__ = [
    "FacilityService", "ServiceError",
    "ServeClient", "run_campaign",
    "SubmissionFuture", "OutputFuture", "AdmissionRejected",
    "CheckpointError", "CheckpointFolds",
    "build_checkpoint", "write_checkpoint", "load_checkpoint",
    "restore_service", "tenant_summaries",
    "workflow_to_dict", "workflow_from_dict",
]
