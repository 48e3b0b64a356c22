"""Differential run diagnosis: *why* did this run get slower?

A benchmark says *that* a workload got slower; this module explains
it.  :func:`diff_runs` aligns two runs of the same workload
-- two transaction logs, span builders, or record lists -- task by
task (task ids are deterministic per workload, so identity alignment
is exact), decomposes every task's final successful attempt into the
same schedule-wait / stage-in / execute phases the critical-path
chain uses, and attributes the makespan delta:

* **per phase** -- did execution itself get slower, or did tasks
  wait longer for a worker / for their inputs?
* **per category** -- is the inflation uniform or concentrated in
  one tier of the DAG (e.g. "reduction tier 2")?
* **per worker / per file** -- a single slow node or a single hot
  file shows up here, not in the aggregates.

:func:`explain_diff` compresses the result into a one-line verdict
("execute flat, schedule-wait +38%, concentrated in reduce-2"), and
:func:`render_diff` is the full terminal report behind
``python -m repro.obs diff A.jsonl B.jsonl``.

Convention throughout: run **A is the baseline**, run **B is the
candidate**; positive deltas mean B is slower/bigger.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from . import events as ev
from .trace import (SCHEDULE_WAIT, EXECUTE, SpanBuilder,
                    _attempt_phases, _final_attempt)
from .txlog import read_records

__all__ = ["diff_runs", "explain_diff", "render_diff"]

PHASES = ("schedule_wait", "stage_in", "execute")

_PHASE_KEY = {SCHEDULE_WAIT: "schedule_wait", "stage-in": "stage_in",
              EXECUTE: "execute"}

Source = Union[str, SpanBuilder, List[dict]]


def _profile(source: Source) -> dict:
    """One run reduced to alignable facts.

    Returns ``meta``, ``makespan``, per-task ``{category, worker,
    phases}``, and per-file stage-in byte/second totals -- everything
    the diff needs, one pass over the stream.
    """
    builder = source if isinstance(source, SpanBuilder) else None
    categories: Dict[str, str] = {}
    if builder is None:
        builder = SpanBuilder()
        records = (read_records(source) if isinstance(source, str)
                   else source)
        for record in records:
            if record.get("type") == ev.READY:
                task = record.get("task")
                if task is not None:
                    categories[task] = record.get("category", "")
            builder.on_record(record)
    builder.forest()   # stamp root ends

    tasks: Dict[str, dict] = {}
    files: Dict[str, dict] = {}
    for task, root in builder.roots.items():
        attempt = _final_attempt(root)
        if attempt is None:
            continue
        phases = {k: 0.0 for k in PHASES}
        for seg in _attempt_phases(attempt):
            key = _PHASE_KEY.get(seg["phase"])
            if key is not None and seg["end"] is not None:
                phases[key] += max(0.0, seg["end"] - seg["start"])
        for child in attempt.children:
            if child.kind == "input-transfer" and child.file:
                entry = files.setdefault(
                    child.file, {"seconds": 0.0, "bytes": 0.0,
                                 "stages": 0})
                entry["seconds"] += child.duration
                entry["bytes"] += child.nbytes or 0.0
                entry["stages"] += 1
        tasks[task] = {
            "category": categories.get(task, ""),
            "worker": attempt.worker,
            "phases": phases,
            "turnaround": sum(phases.values()),
        }
    return {
        "meta": dict(builder.meta),
        "makespan": builder.makespan,
        "tasks": tasks,
        "files": files,
    }


def _delta_table(rows_a: Dict[str, float],
                 rows_b: Dict[str, float], top: int) -> List[dict]:
    keys = set(rows_a) | set(rows_b)
    out = []
    for key in keys:
        a = rows_a.get(key, 0.0)
        b = rows_b.get(key, 0.0)
        out.append({"key": key, "a_s": a, "b_s": b, "delta_s": b - a})
    out.sort(key=lambda r: (-abs(r["delta_s"]), str(r["key"])))
    return out[:top]


def diff_runs(a: Source, b: Source, top: int = 10) -> dict:
    """Attribute the makespan delta between two runs of one workload.

    ``a`` is the baseline, ``b`` the candidate.  Only tasks present
    in both runs participate in the phase attribution (the common
    set is reported, and with deterministic task ids it is normally
    everything); makespan/meta come from the whole runs.
    """
    pa, pb = _profile(a), _profile(b)
    common = sorted(set(pa["tasks"]) & set(pb["tasks"]))

    phase_a = {k: 0.0 for k in PHASES}
    phase_b = {k: 0.0 for k in PHASES}
    cat_a: Dict[str, float] = {}
    cat_b: Dict[str, float] = {}
    cat_phase: Dict[str, Dict[str, float]] = {}
    worker_a: Dict[object, float] = {}
    worker_b: Dict[object, float] = {}
    task_delta: List[dict] = []
    for task in common:
        ta, tb = pa["tasks"][task], pb["tasks"][task]
        cat = tb["category"] or ta["category"]
        for key in PHASES:
            phase_a[key] += ta["phases"][key]
            phase_b[key] += tb["phases"][key]
            cat_phase.setdefault(cat, {k: 0.0 for k in PHASES})[key] \
                += tb["phases"][key] - ta["phases"][key]
        cat_a[cat] = cat_a.get(cat, 0.0) + ta["turnaround"]
        cat_b[cat] = cat_b.get(cat, 0.0) + tb["turnaround"]
        worker_a[ta["worker"]] = (worker_a.get(ta["worker"], 0.0)
                                  + ta["turnaround"])
        worker_b[tb["worker"]] = (worker_b.get(tb["worker"], 0.0)
                                  + tb["turnaround"])
        task_delta.append({
            "task": task, "category": cat,
            "a_s": ta["turnaround"], "b_s": tb["turnaround"],
            "delta_s": tb["turnaround"] - ta["turnaround"],
            "worker_a": ta["worker"], "worker_b": tb["worker"]})
    task_delta.sort(key=lambda r: (-abs(r["delta_s"]), r["task"]))

    phases = {}
    for key in PHASES:
        a_s, b_s = phase_a[key], phase_b[key]
        phases[key] = {
            "a_s": a_s, "b_s": b_s, "delta_s": b_s - a_s,
            "ratio": (b_s / a_s) if a_s > 0 else
                     (float("inf") if b_s > 0 else 1.0),
        }

    file_a = {f: v["seconds"] for f, v in pa["files"].items()}
    file_b = {f: v["seconds"] for f, v in pb["files"].items()}

    makespan_a, makespan_b = pa["makespan"], pb["makespan"]
    result = {
        "makespan": {
            "a_s": makespan_a, "b_s": makespan_b,
            "delta_s": makespan_b - makespan_a,
            "ratio": (makespan_b / makespan_a if makespan_a > 0
                      else 1.0),
        },
        "tasks": {"a": len(pa["tasks"]), "b": len(pb["tasks"]),
                  "common": len(common)},
        "phases": phases,
        "by_category": _delta_table(cat_a, cat_b, top),
        "category_phases": cat_phase,
        "by_worker": _delta_table(worker_a, worker_b, top),
        "by_file": _delta_table(file_a, file_b, top),
        "top_tasks": task_delta[:top],
        "meta": {"a": pa["meta"], "b": pb["meta"]},
    }
    result["explanation"] = explain_diff(result)
    return result


def explain_diff(diff: dict, flat_band: float = 0.02) -> str:
    """One sentence naming where the delta lives.

    Phases within ``flat_band`` (relative to the baseline phase
    total) are called flat; the dominant inflated phase is localised
    to its most inflated category when one category holds the
    majority of that phase's delta.
    """
    makespan = diff["makespan"]
    direction = ("slower" if makespan["delta_s"] > 0 else
                 "faster" if makespan["delta_s"] < 0 else "unchanged")
    head = (f"makespan {makespan['b_s']:.1f}s vs "
            f"{makespan['a_s']:.1f}s "
            f"({makespan['delta_s']:+.1f}s, {direction})")
    parts = []
    dominant = None
    for key in PHASES:
        p = diff["phases"][key]
        label = key.replace("_", "-")
        base = p["a_s"]
        if base <= 0 and p["delta_s"] == 0:
            continue
        rel = p["delta_s"] / base if base > 0 else float("inf")
        if abs(rel) <= flat_band:
            parts.append(f"{label} flat")
        else:
            parts.append(f"{label} {rel:+.0%}")
            if dominant is None or abs(p["delta_s"]) > abs(
                    diff["phases"][dominant]["delta_s"]):
                dominant = key
    tail = ""
    if dominant is not None:
        d_total = diff["phases"][dominant]["delta_s"]
        best_cat, best_share = None, 0.0
        for cat, deltas in diff["category_phases"].items():
            share = (deltas[dominant] / d_total) if d_total else 0.0
            if share > best_share:
                best_cat, best_share = cat, share
        if best_cat and best_share > 0.5:
            tail = (f", concentrated in {best_cat} "
                    f"({best_share:.0%} of the "
                    f"{dominant.replace('_', '-')} delta)")
    return head + ": " + ", ".join(parts) + tail if parts else head


def render_diff(diff: dict, top: int = 10) -> str:
    """Full terminal report for ``python -m repro.obs diff``."""
    from ..bench.report import banner, format_table

    parts = [banner("DIFFERENTIAL DIAGNOSIS: B vs baseline A")]
    parts.append(diff["explanation"])
    tasks = diff["tasks"]
    if tasks["common"] < max(tasks["a"], tasks["b"]):
        parts.append(f"aligned {tasks['common']} common tasks "
                     f"(A has {tasks['a']}, B has {tasks['b']})")
    parts.append(format_table(
        ["Phase", "A (s)", "B (s)", "Delta (s)", "Ratio"],
        [(k.replace("_", "-"), f"{p['a_s']:.1f}", f"{p['b_s']:.1f}",
          f"{p['delta_s']:+.1f}",
          "-" if p["ratio"] == float("inf") else f"{p['ratio']:.2f}x")
         for k, p in diff["phases"].items()],
        title="aggregate phase time over common tasks"))
    for key, title, label in (
            ("by_category", "per-category turnaround delta",
             "Category"),
            ("by_worker", "per-worker busy-time delta", "Worker"),
            ("by_file", "per-file stage-in seconds delta", "File")):
        rows = [r for r in diff[key][:top] if r["delta_s"] != 0.0]
        if rows:
            parts.append(format_table(
                [label, "A (s)", "B (s)", "Delta (s)"],
                [(r["key"], f"{r['a_s']:.1f}", f"{r['b_s']:.1f}",
                  f"{r['delta_s']:+.1f}") for r in rows],
                title=title))
    if diff["top_tasks"]:
        parts.append(format_table(
            ["Task", "Category", "A (s)", "B (s)", "Delta (s)",
             "Worker A->B"],
            [(r["task"], r["category"], f"{r['a_s']:.1f}",
              f"{r['b_s']:.1f}", f"{r['delta_s']:+.1f}",
              (f"{r['worker_a']}" if r["worker_a"] == r["worker_b"]
               else f"{r['worker_a']}->{r['worker_b']}"))
             for r in diff["top_tasks"]],
            title="most-shifted tasks"))
    return "\n\n".join(parts)
