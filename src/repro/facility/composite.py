"""A growable, tenant-namespaced union of :class:`SimWorkflow`.

The facility runs one shared manager; every admitted submission is
merged into a single :class:`CompositeWorkflow` whose task and file
names are prefixed ``<tenant>.<seq>/`` so identical DAGs from
different tenants (the common case: everyone iterates on the same
ntuple) never collide.

The composite *is* a :class:`SimWorkflow`: each submission is one
:meth:`~SimWorkflow.extend`, so the DAG state the manager reads lives
once and grows in place.  What the composite adds is tenancy (task and
file owners, task -> submission) and a content index.

Content identity survives the renaming: each physical file keeps the
*tenant-visible* cachename, the one its own SimWorkflow computed from
the unprefixed name (name + size + lineage,
:func:`repro.core.files.cachename`), and the composite indexes physical
names by cachename.  :meth:`equivalents` is the hook the manager uses
to satisfy staging from a peer tenant's bytes already on the worker --
the cross-tenant shared cache.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.spec import SimWorkflow

__all__ = ["CompositeWorkflow"]


class CompositeWorkflow(SimWorkflow):
    """Union of namespaced submissions with a shared content index."""

    def __init__(self):
        super().__init__()
        self._tenant_by_task: Dict[str, str] = {}
        self._tenant_by_file: Dict[str, str] = {}
        self._submission_by_task: Dict[str, str] = {}
        #: cachename -> physical file names holding those bytes, in
        #: admission order (deterministic equivalence probing)
        self._by_content: Dict[str, List[str]] = {}

    # -- growth -------------------------------------------------------------
    def add_submission(self, tenant: str, submission_id: str,
                       workflow: SimWorkflow
                       ) -> Tuple[List[str], List[str]]:
        """Merge one submission; returns (new task ids, new file names)."""
        prefix = f"{submission_id}/"
        files = [replace(file, name=prefix + file.name)
                 for file in workflow.files.values()]
        tasks = [replace(
            task, id=prefix + task.id,
            inputs=tuple(prefix + n for n in task.inputs),
            outputs=tuple(prefix + n for n in task.outputs),
            dynamic_outputs=tuple(
                (prefix + n, size) for n, size in task.dynamic_outputs))
            for task in workflow.tasks.values()]
        self.extend(tasks, files)
        task_ids = [task.id for task in tasks]
        file_names = [file.name for file in files]
        for task_id in task_ids:
            self._tenant_by_task[task_id] = tenant
            self._submission_by_task[task_id] = submission_id
        for name in file_names:
            self._index_file(name, tenant)
        return task_ids, file_names

    def register_dynamic(self, task_id: str, name: str,
                         size: float) -> bool:
        """Register a runtime-discovered output under its producing
        task's tenant namespace (``name`` is already physical: the
        manager sees only prefixed task specs).  Idempotent."""
        fresh = super().register_dynamic(task_id, name, size)
        if fresh:
            self._index_file(name, self._tenant_by_task[task_id])
        return fresh

    def _index_file(self, name: str, tenant: str) -> None:
        self._tenant_by_file[name] = tenant
        self._by_content.setdefault(self.cachenames[name], []).append(name)

    def _content_name(self, name: str) -> str:
        # the tenant-visible name: identity ignores the namespace, so
        # identical chunks collide across tenants (DESIGN "Shared cache")
        return name.partition("/")[2]

    # -- tenancy ------------------------------------------------------------
    def tenant_of(self, task_id: str) -> str:
        return self._tenant_by_task[task_id]

    def tenant_of_file(self, name: str) -> Optional[str]:
        return self._tenant_by_file.get(name)

    def submission_of(self, task_id: str) -> str:
        return self._submission_by_task[task_id]

    def equivalents(self, name: str) -> Iterable[str]:
        """Physical names (other tenants' or other submissions') whose
        bytes are content-identical to ``name``."""
        peers = self._by_content.get(self.cachenames.get(name, ""), ())
        return [p for p in peers if p != name]
