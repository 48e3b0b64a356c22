"""Workload generation: Table II rows -> scheduler-ready workflows.

Builds the Fig 3 topology for a :class:`~repro.hep.datasets.DatasetSpec`:
``n_datasets`` independent slices, each with processing tasks over input
chunks followed by an accumulation (flat or k-ary tree), then a final
cross-dataset merge.  Task durations are sampled lognormally around the
spec's mean so that the bulk of tasks lands in the paper's 1-10 s band
(Fig 8) while preserving stragglers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..cli import InputError, UnknownName
from ..core.files import FileKind, SimFile
from ..core.spec import SimTask, SimWorkflow
from ..hep.datasets import TABLE2, DatasetSpec
from ..sim.rng import RngRegistry

__all__ = [
    "workload_spec",
    "build_workflow",
    "proc_task_count",
    "Arrival",
    "poisson_schedule",
    "burst_schedule",
    "replay_schedule",
    "make_schedule",
    "build_arrivals",
]


def workload_spec(name: str, scale: float = 1.0) -> DatasetSpec:
    """The Table II configuration ``name`` (case-insensitive) with its
    task count and input bytes scaled by ``scale``; an unknown name
    raises :class:`~repro.cli.UnknownName`."""
    by_lower = {key.lower(): key for key in TABLE2}
    try:
        spec = TABLE2[by_lower[name.lower()]]
    except KeyError:
        raise UnknownName(f"unknown workload {name!r}; "
                          f"have {sorted(TABLE2)}") from None
    if scale != 1.0:
        spec = replace(
            spec, name=f"{spec.name}-x{scale:g}",
            n_tasks=max(1, int(spec.n_tasks * scale)),
            input_bytes=spec.input_bytes * scale)
    return spec


def proc_task_count(total_tasks: int, arity: Optional[int]) -> int:
    """Processing tasks such that proc + accumulation ~= total_tasks.

    A k-ary reduction over n leaves needs ~n/(k-1) internal tasks, so
    n * k/(k-1) ~= total.  A flat reduction adds one task per dataset.
    """
    if arity is None:
        return max(1, total_tasks - 1)
    return max(1, int(round(total_tasks * (arity - 1) / arity)))


def _tree_levels(leaves: List[str], arity: int) -> List[List[Tuple[str, List[str]]]]:
    """Group keys into reduction rounds: [(output, inputs), ...]."""
    levels = []
    level = list(leaves)
    round_no = 0
    while len(level) > 1:
        groups = []
        for i in range(0, len(level), arity):
            group = level[i:i + arity]
            groups.append(group)
        this_level = []
        next_level = []
        for gi, group in enumerate(groups):
            if len(group) == 1 and len(groups) > 1:
                next_level.append(group[0])
                continue
            out = f"{group[0]}@r{round_no}g{gi}"
            this_level.append((out, group))
            next_level.append(out)
        if this_level:
            levels.append(this_level)
        level = next_level
        round_no += 1
    return levels


def build_workflow(spec: DatasetSpec, arity: Optional[int] = 8,
                   n_datasets: int = 1, seed: int = 7,
                   accum_seconds: float = 0.8,
                   duration_sigma: float = 0.55) -> SimWorkflow:
    """Build the scheduler workflow for one Table II configuration.

    Parameters
    ----------
    arity:
        Reduction fan-in per accumulation task; ``None`` reduces each
        dataset with a single flat task (the Fig 11a anti-pattern).
    n_datasets:
        Independent dataset slices, each reduced separately before a
        final merge (RS-TriPhoton reduces 20 datasets, Section IV.C).
    """
    if n_datasets < 1:
        raise ValueError("n_datasets must be >= 1")
    rng = RngRegistry(seed).stream(f"workload-{spec.name}")
    stages = max(1, spec.stages)
    # chains * stages processing tasks plus ~chains/(arity-1) reduction
    # tasks should total spec.n_tasks.
    tree_factor = (1.0 / (arity - 1)) if arity else 0.0
    n_chains = max(1, int(round(spec.n_tasks / (stages + tree_factor))))
    n_proc_total = n_chains * stages
    chunk_bytes = spec.input_bytes / n_chains
    out_bytes = spec.intermediate_bytes_per_task

    # Lognormal with the requested mean: mu = ln(mean) - sigma^2/2.
    mu = math.log(spec.mean_task_seconds) - duration_sigma ** 2 / 2.0
    durations = rng.lognormal(mean=mu, sigma=duration_sigma,
                              size=n_chains * stages)

    files: List[SimFile] = []
    tasks: List[SimTask] = []

    per_dataset = np.full(n_datasets, n_chains // n_datasets)
    per_dataset[: n_chains % n_datasets] += 1

    dataset_results: List[str] = []
    proc_index = 0
    for ds in range(n_datasets):
        partials: List[str] = []
        for _ in range(int(per_dataset[ds])):
            chunk = f"chunk-{proc_index}"
            files.append(SimFile(chunk, chunk_bytes, FileKind.INPUT))
            previous = chunk
            # a chain of `stages` dependent computations per chunk
            # (DV3-Huge: deeper analysis over the same data, Fig 15)
            for stage in range(stages):
                out = (f"partial-{proc_index}" if stage == stages - 1
                       else f"stage-{proc_index}-{stage}")
                files.append(SimFile(out, out_bytes,
                                     FileKind.INTERMEDIATE))
                tasks.append(SimTask(
                    id=f"proc-{proc_index}-{stage}" if stages > 1
                    else f"proc-{proc_index}",
                    compute=float(
                        durations[proc_index * stages + stage]),
                    inputs=(previous,), outputs=(out,),
                    category="proc", function="process"))
                previous = out
            partials.append(previous)
            proc_index += 1
        if not partials:
            continue
        if arity is None:
            # flat: one task pulls every partial of the dataset at once
            result = f"dsresult-{ds}"
            files.append(SimFile(result, out_bytes,
                                 FileKind.INTERMEDIATE))
            tasks.append(SimTask(
                id=f"accum-flat-{ds}",
                compute=accum_seconds * max(1, len(partials) // 4),
                inputs=tuple(partials), outputs=(result,),
                category="accum", function="accumulate"))
            dataset_results.append(result)
        else:
            levels = _tree_levels(partials, arity)
            last_out = partials[0]
            for level in levels:
                for out, group in level:
                    files.append(SimFile(out, out_bytes,
                                         FileKind.INTERMEDIATE))
                    tasks.append(SimTask(
                        id=f"accum-{out}",
                        compute=accum_seconds,
                        inputs=tuple(group), outputs=(out,),
                        category="accum", function="accumulate"))
                    last_out = out
            dataset_results.append(last_out)

    # final cross-dataset merge (also the file the manager fetches)
    final = "final-result"
    files.append(SimFile(final, out_bytes, FileKind.OUTPUT))
    tasks.append(SimTask(
        id="final-merge", compute=accum_seconds,
        inputs=tuple(dataset_results), outputs=(final,),
        category="accum", function="accumulate"))
    return SimWorkflow(tasks, files)


# -- arrival processes (repro.facility) -------------------------------------
@dataclass(frozen=True)
class Arrival:
    """One tenant submission arriving at sim time ``t``."""

    t: float
    tenant: str
    workflow: SimWorkflow
    #: workload label shared by identical DAGs (baseline matching)
    tag: str = ""


def poisson_schedule(tenant_names: Sequence[str], rate: float,
                     per_tenant: int, seed: int = 11
                     ) -> List[Tuple[float, str]]:
    """Each tenant submits ``per_tenant`` times with independent
    exponential inter-arrival gaps at ``rate`` submissions/second.
    Deterministic for a fixed seed; merged and sorted by time."""
    if rate <= 0:
        raise ValueError("rate must be > 0")
    schedule: List[Tuple[float, str]] = []
    for idx, tenant in enumerate(tenant_names):
        rng = np.random.default_rng([seed, idx])
        t = 0.0
        for _ in range(per_tenant):
            t += float(rng.exponential(1.0 / rate))
            schedule.append((t, tenant))
    schedule.sort(key=lambda pair: (pair[0], pair[1]))
    return schedule


def burst_schedule(tenant_names: Sequence[str], per_tenant: int,
                   at: float = 0.0, spacing: float = 0.0
                   ) -> List[Tuple[float, str]]:
    """Everyone submits (nearly) at once -- the Monday-morning rush.
    ``spacing`` optionally staggers tenants by a fixed offset."""
    schedule = [(at + i * spacing, tenant)
                for i, tenant in enumerate(tenant_names)
                for _ in range(per_tenant)]
    schedule.sort(key=lambda pair: (pair[0], pair[1]))
    return schedule


def replay_schedule(pairs: Iterable[Tuple[float, str]]
                    ) -> List[Tuple[float, str]]:
    """Replay explicit ``(t, tenant)`` pairs (e.g. from a trace file
    of ``t,tenant`` lines)."""
    schedule = [(float(t), str(tenant)) for t, tenant in pairs]
    schedule.sort(key=lambda pair: (pair[0], pair[1]))
    return schedule


def make_schedule(spec: str, tenant_names: Sequence[str],
                  per_tenant: int, seed: int = 11
                  ) -> List[Tuple[float, str]]:
    """Parse an arrival spec: ``poisson:RATE``, ``burst``,
    ``burst:SPACING``, or ``replay:PATH`` (CSV of ``t,tenant``).  A
    malformed spec raises :class:`~repro.cli.InputError`; an unreadable
    replay file, ``OSError``."""
    kind, _, arg = spec.partition(":")
    try:
        if kind == "poisson":
            rate = float(arg) if arg else 0.05
            return poisson_schedule(tenant_names, rate, per_tenant, seed)
        if kind == "burst":
            spacing = float(arg) if arg else 0.0
            return burst_schedule(tenant_names, per_tenant,
                                  spacing=spacing)
        if kind == "replay":
            if not arg:
                raise ValueError("replay arrival needs a path: "
                                 "replay:FILE")
            pairs = []
            with open(arg) as fh:
                for line in fh:
                    line = line.strip()
                    if not line or line.startswith("#"):
                        continue
                    t, tenant = line.split(",", 1)
                    pairs.append((float(t), tenant.strip()))
            return replay_schedule(pairs)
    except ValueError as exc:
        raise InputError(f"bad arrival spec {spec!r}: {exc}") from None
    raise InputError(f"unknown arrival process {spec!r}; expected "
                     f"poisson:RATE, burst[:SPACING], or replay:PATH")


def build_arrivals(schedule: Sequence[Tuple[float, str]],
                   workflow_for: Callable[[str], SimWorkflow],
                   tag_for: Optional[Callable[[str], str]] = None
                   ) -> List[Arrival]:
    """Materialise a ``(t, tenant)`` schedule into :class:`Arrival`
    objects, building each submission's workflow via ``workflow_for``.
    """
    return [Arrival(t=t, tenant=tenant,
                    workflow=workflow_for(tenant),
                    tag=tag_for(tenant) if tag_for else "")
            for t, tenant in schedule]

