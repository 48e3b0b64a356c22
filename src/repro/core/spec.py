"""Abstract workflow specification consumed by the simulated schedulers.

A :class:`SimWorkflow` is the scheduler-facing view of an analysis DAG:
tasks with nominal compute costs, the files they consume and produce,
and the lineage between them.  The benchmark harness builds these from
the paper's Table II configurations; tests build tiny ones by hand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .files import FileKind, SimFile, cachename

__all__ = ["SimTask", "SimWorkflow", "WorkflowError"]


class WorkflowError(Exception):
    """Inconsistent workflow specification."""


@dataclass(frozen=True)
class SimTask:
    """One schedulable unit of work."""

    id: str
    compute: float                      # nominal seconds of pure compute
    inputs: Tuple[str, ...] = ()        # file names consumed
    outputs: Tuple[str, ...] = ()       # file names produced
    category: str = "proc"              # "proc" | "accum" | free-form
    function: str = ""                  # serverless routing (library fn)
    cores: int = 1                      # resource requirement
    #: (name, size) result files the task produces *beyond* its
    #: declared outputs -- nothing in the DAG consumes them, so they
    #: are registered only when the task commits (the parsl
    #: DataFuture/DynamicFileList pattern: tasks appending result
    #: files the submitter learns about through futures).
    dynamic_outputs: Tuple[Tuple[str, float], ...] = ()

    def __post_init__(self):
        if self.compute < 0:
            raise ValueError(f"task {self.id!r} has negative compute")
        if self.cores < 1:
            raise ValueError(f"task {self.id!r} needs >= 1 core")
        for name, size in self.dynamic_outputs:
            if size < 0:
                raise ValueError(
                    f"task {self.id!r} dynamic output {name!r} "
                    f"has negative size")


class SimWorkflow:
    """A validated, growable DAG of :class:`SimTask` over :class:`SimFile`.

    The derived state -- ``producer``, ``consumers``, ``final`` and
    ``cachenames`` -- lives here once, in insertion order, and is
    extended in place by :meth:`extend`.  A task's dependents are the
    consumers of its outputs.  Every container is live: the manager
    holds references taken at construction and sees growth (facility
    submissions, runtime-discovered outputs) without re-wiring.
    """

    def __init__(self, tasks: Iterable[SimTask] = (),
                 files: Iterable[SimFile] = ()):
        self.tasks: Dict[str, SimTask] = {}
        self.files: Dict[str, SimFile] = {}
        #: file name -> producing task id (inputs have no producer)
        self.producer: Dict[str, str] = {}
        #: file name -> consuming task ids, in insertion order (one
        #: entry per input slot)
        self.consumers: Dict[str, List[str]] = {}
        #: files nobody consumes (the results the manager fetches), in
        #: insertion order: a dict used as an ordered set
        self.final: Dict[str, None] = {}
        #: content-addressed identities, computed once per file
        self.cachenames: Dict[str, str] = {}
        self.extend(tasks, files)

    def extend(self, tasks: Iterable[SimTask],
               files: Iterable[SimFile]) -> None:
        """Validate and index new tasks and files.

        The work is O(new tasks + new files): nothing already indexed
        is revisited.  Every check runs before anything is indexed, so
        a rejected extension leaves the workflow as it was.  New tasks
        may read existing files, but existing tasks never gain inputs,
        so a cycle can only run through new tasks.
        """
        new_tasks: Dict[str, SimTask] = {}
        for task in tasks:
            if task.id in self.tasks or task.id in new_tasks:
                raise WorkflowError(f"duplicate task id {task.id!r}")
            new_tasks[task.id] = task
        new_files: Dict[str, SimFile] = {}
        for file in files:
            if file.name in self.files or file.name in new_files:
                raise WorkflowError(f"duplicate file {file.name!r}")
            new_files[file.name] = file

        producer: Dict[str, str] = {}
        consumers: Dict[str, List[str]] = {name: [] for name in new_files}
        reads_old: List[Tuple[str, str]] = []
        for task in new_tasks.values():
            for name in task.inputs:
                users = consumers.get(name)
                if users is not None:
                    users.append(task.id)
                elif name in self.files:
                    reads_old.append((name, task.id))
                else:
                    raise WorkflowError(
                        f"task {task.id!r} consumes unknown file {name!r}")
            for name in task.outputs:
                file = new_files.get(name) or self.files.get(name)
                if file is None:
                    raise WorkflowError(
                        f"task {task.id!r} produces unknown file {name!r}")
                if name in producer or name in self.producer:
                    first = producer.get(name, self.producer.get(name))
                    raise WorkflowError(
                        f"file {name!r} produced twice "
                        f"({first!r} and {task.id!r})")
                if file.kind == FileKind.INPUT:
                    raise WorkflowError(
                        f"input file {name!r} cannot be produced")
                producer[name] = task.id
            for name, _size in task.dynamic_outputs:
                if name in new_files or name in self.files:
                    raise WorkflowError(
                        f"task {task.id!r} dynamic output {name!r} "
                        f"collides with a declared file")
        for name, file in new_files.items():
            if file.kind != FileKind.INPUT and name not in producer:
                raise WorkflowError(
                    f"{file.kind} file {name!r} has no producer")
        order = _parents_first(new_tasks, producer, consumers)

        self.tasks.update(new_tasks)
        self.files.update(new_files)
        self.producer.update(producer)
        self.consumers.update(consumers)
        for name, task_id in reads_old:
            self.consumers[name].append(task_id)
            self.final.pop(name, None)
        names = self.cachenames
        for name, file in new_files.items():
            if file.kind == FileKind.INPUT:
                names[name] = cachename(self._content_name(name), file.size)
            elif not consumers[name]:
                self.final[name] = None
        for task_id in order:
            task = new_tasks[task_id]
            lineage = [names[parent] for parent in task.inputs]
            for name in task.outputs:
                names[name] = cachename(
                    self._content_name(name), new_files[name].size,
                    lineage)

    # -- dynamic outputs (repro.serve) -------------------------------------
    def register_dynamic(self, task_id: str, name: str,
                         size: float) -> bool:
        """Register a runtime-discovered output of ``task_id``.

        Called by the manager when the producing task commits: the file
        becomes a final OUTPUT with full lineage identity, so staging,
        retrieval and recovery treat it exactly like a declared result.
        Idempotent per name (re-commits after lineage recovery); returns
        whether the name was new.
        """
        if name in self.files:
            return False
        self.files[name] = SimFile(name, size, FileKind.OUTPUT)
        self.producer[name] = task_id
        self.consumers[name] = []
        self.final[name] = None
        lineage = [self.cachenames[parent]
                   for parent in self.tasks[task_id].inputs]
        self.cachenames[name] = cachename(
            self._content_name(name), size, lineage)
        return True

    # -- structure -------------------------------------------------------------
    def task_dependencies(self, task_id: str) -> Set[str]:
        """Task ids that must complete before ``task_id`` can start."""
        deps = set()
        for name in self.tasks[task_id].inputs:
            producer_id = self.producer.get(name)
            if producer_id is not None:
                deps.add(producer_id)
        return deps

    def initial_ready(self) -> List[str]:
        """Tasks whose inputs are all dataset files."""
        producer = self.producer
        return [tid for tid, task in self.tasks.items()
                if not any(name in producer for name in task.inputs)]

    def final_files(self) -> List[str]:
        """Files nobody consumes (the results the manager fetches)."""
        return list(self.final)

    def total_input_bytes(self) -> float:
        return sum(f.size for f in self.files.values()
                   if f.kind == FileKind.INPUT)

    def total_intermediate_bytes(self) -> float:
        return sum(f.size for f in self.files.values()
                   if f.kind == FileKind.INTERMEDIATE)

    def total_generated_bytes(self) -> float:
        """All task-produced data (intermediates plus final outputs)."""
        return sum(f.size for f in self.files.values()
                   if f.kind != FileKind.INPUT)

    def categories(self) -> Set[str]:
        return {t.category for t in self.tasks.values()}

    def __len__(self) -> int:
        return len(self.tasks)

    def _content_name(self, name: str) -> str:
        """The name a file's cachename is derived from."""
        return name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<{type(self).__name__} {len(self.tasks)} tasks, "
                f"{len(self.files)} files>")


def _parents_first(tasks: Dict[str, SimTask], producer: Dict[str, str],
                   consumers: Dict[str, List[str]]) -> List[str]:
    """Task ids ordered so that producers precede their consumers.

    ``producer`` and ``consumers`` cover only the files these tasks
    brought; a task left unplaced sits on a cycle.  Depth first: a task
    is placed as soon as its last producer is, so a chain is walked in
    one go.  Breadth first, the lineage lookups that follow stride
    across memory, which made building DV3-Huge measurably slower.
    """
    waiting = dict.fromkeys(tasks, 0)
    for name in producer:
        for user in consumers[name]:
            waiting[user] += 1
    ready = [tid for tid, n in waiting.items() if not n]
    ready.reverse()  # popped in insertion order
    order = []
    while ready:
        tid = ready.pop()
        order.append(tid)
        for name in tasks[tid].outputs:
            for user in consumers[name]:
                waiting[user] -= 1
                if not waiting[user]:
                    ready.append(user)
    if len(order) < len(tasks):
        stuck = next(tid for tid, n in waiting.items() if n)
        raise WorkflowError(f"cycle through task {stuck!r}")
    return order
