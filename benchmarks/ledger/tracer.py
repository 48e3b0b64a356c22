"""Boundary tracer: times calls into the program's layers from outside.

The traced run never edits the program.  :meth:`Tracer.install` takes a
declared table of :class:`Boundary` rows, each naming one attribute as
``"module:Class.attr"`` or ``"module:function"``, and replaces that
attribute with a timing wrapper.  A name is patched where it is looked
up at call time: ``repro.dag.daskvine:cull`` rather than
``repro.dag.optimize:cull``, because ``daskvine`` imported the name.

Spans
    Each wrapped call is a span: name, layer, start, end, parent.  Every
    thread keeps its own span stack (the serverless ``Library`` resolves
    futures on a collector thread).  A span's *self time* is its
    duration minus the durations of the wrapped calls made inside it.

Regions
    Nothing is recorded outside a root span.  The workload process opens
    the root ``setup`` around its set-up and the root ``run`` around each
    timed operation, so the ``run`` root's self time is the time no
    wrapped boundary covers, and self times in that region sum to the
    traced wall time.

Memory
    Aggregates (calls, self and total seconds per boundary) count every
    call.  Full span records are kept for the first ``MAX_SPANS`` calls
    of each boundary on each thread, so a 185k-task simulation does not
    hold millions of span objects; :meth:`write` dumps them with one
    aggregate record.

Forked children
    A process forked while a tracer is installed (the ``Library`` process
    and its per-call children) starts with empty state and leaves via
    ``os._exit``, so it appends its spans and an aggregate delta to
    ``<child_dir>/<label>.spans-<pid>.jsonl`` each time its outermost
    span closes.  :func:`load_aggregates` merges all files of one run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import json
import os
import threading
import time
import warnings
import weakref
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

__all__ = ["Boundary", "Tracer", "Aggregate", "load_aggregates", "ROOT"]

#: boundary name of the root spans the workload process opens
ROOT = "root"
#: full span records kept per boundary and thread
MAX_SPANS = 2000

Key = Tuple[str, str]  # (region, boundary name)


class Boundary(NamedTuple):
    """One wrapped attribute.  Several rows may share a ``name``; their
    calls then aggregate together."""

    layer: str
    name: str
    target: str
    #: called as ``probe(tracer, args, result, t_start)`` after each
    #: traced call, to count bytes or sample latencies
    probe: Optional[Callable] = None


class Aggregate:
    """Per-(region, boundary) totals, mergeable across threads and
    processes."""

    def __init__(self):
        #: (region, name) -> [calls, self_s, total_s]
        self.calls: Dict[Key, list] = {}
        self.counters: Dict[Key, float] = {}
        self.samples: Dict[Key, List[float]] = {}

    def merge(self, other: "Aggregate") -> "Aggregate":
        for key, (calls, own, total) in other.calls.items():
            row = self.calls.setdefault(key, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += own
            row[2] += total
        for key, value in other.counters.items():
            self.counters[key] = self.counters.get(key, 0) + value
        for key, values in other.samples.items():
            self.samples.setdefault(key, []).extend(values)
        return self

    def to_json(self) -> dict:
        return {
            "calls": [[*key, *row] for key, row in self.calls.items()],
            "counters": [[*key, v] for key, v in self.counters.items()],
            "samples": [[*key, v] for key, v in self.samples.items()],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Aggregate":
        agg = cls()
        for region, name, calls, own, total in data["calls"]:
            agg.calls[(region, name)] = [calls, own, total]
        for region, name, value in data["counters"]:
            agg.counters[(region, name)] = value
        for region, name, values in data["samples"]:
            agg.samples[(region, name)] = list(values)
        return agg


class _ThreadState(Aggregate):
    """One thread's span stack, retained spans and totals."""

    def __init__(self):
        super().__init__()
        self.stack: list = []
        self.spans: list = []
        self.kept: Dict[str, int] = {}
        self.thread = threading.get_ident()


#: installed tracers, reset in forked children by the at-fork hook
_LIVE: "weakref.WeakSet[Tracer]" = weakref.WeakSet()


def _after_fork_in_child() -> None:
    for tracer in list(_LIVE):
        tracer._forked()


os.register_at_fork(after_in_child=_after_fork_in_child)


class Tracer:
    """Wraps declared boundaries and aggregates their spans."""

    def __init__(self, label: str = "trace",
                 child_dir: Optional[str] = None,
                 clock: Callable[[], float] = time.perf_counter):
        self.label = label
        self.child_dir = child_dir
        self.clock = clock
        #: region of the open root span; ``None`` disables recording
        self.region: Optional[str] = None
        self.layer_of: Dict[str, str] = {ROOT: ROOT}
        #: boundary names none of whose targets exist in the program
        self.missing: List[str] = []
        self._installed: list = []
        self._ids = itertools.count(1)
        self._child_file: Optional[str] = None
        self._root_state: Optional[_ThreadState] = None
        self._reset_state()

    def _reset_state(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
            return state

    # -- installing ---------------------------------------------------------
    def install(self, boundaries) -> "Tracer":
        """Wrap every boundary that exists; warn about the others."""
        found: Dict[str, bool] = {}
        for boundary in boundaries:
            self.layer_of[boundary.name] = boundary.layer
            try:
                owner, attr, raw = _resolve(boundary.target)
            except (ImportError, AttributeError) as exc:
                warnings.warn(f"ledger: boundary {boundary.target} not "
                              f"found ({exc}); {boundary.name} is not "
                              f"measured", stacklevel=2)
                found.setdefault(boundary.name, False)
                continue
            found[boundary.name] = True
            original = getattr(owner, attr)
            setattr(owner, attr,
                    self._wrap(boundary.name, original, boundary.probe))
            self._installed.append((owner, attr, raw))
        self.missing = sorted(n for n, ok in found.items() if not ok)
        _LIVE.add(self)
        return self

    def uninstall(self) -> None:
        """Put every wrapped attribute back."""
        for owner, attr, raw in reversed(self._installed):
            if raw is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)
        self._installed.clear()
        _LIVE.discard(self)

    def _wrap(self, name: str, fn: Callable,
              probe: Optional[Callable]) -> Callable:
        tracer = self
        clock = self.clock

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                region = tracer.region
                if region is None:
                    return await fn(*args, **kwargs)
                state, frame = tracer._open()
                t0 = clock()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    tracer._close(state, frame, name, region, t0, clock())
                if probe is not None:
                    probe(tracer, args, result, t0)
                return result
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            region = tracer.region
            if region is None:
                return fn(*args, **kwargs)
            state, frame = tracer._open()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(state, frame, name, region, t0, clock())
            if probe is not None:
                probe(tracer, args, result, t0)
            return result
        return wrapper

    # -- spans --------------------------------------------------------------
    def _open(self):
        state = self._state()
        stack = state.stack
        # frame: [child seconds, span id, parent span id]
        frame = [0.0, next(self._ids), stack[-1][1] if stack else None]
        stack.append(frame)
        return state, frame

    def _close(self, state: _ThreadState, frame: list, name: str,
               region: str, t0: float, t1: float) -> None:
        stack = state.stack
        if stack[-1] is frame:
            stack.pop()
        else:  # an awaited wrapper resumed after another span opened
            stack.remove(frame)
        duration = t1 - t0
        own = duration - frame[0]
        row = state.calls.get((region, name))
        if row is None:
            row = state.calls[(region, name)] = [0, 0.0, 0.0]
        row[0] += 1
        row[1] += own
        row[2] += duration
        if stack:
            stack[-1][0] += duration
        kept = state.kept.get(name, 0)
        if kept < MAX_SPANS:
            state.kept[name] = kept + 1
            state.spans.append((frame[1], frame[2], name, region,
                                t0, t1, own, state.thread))
        if not stack and self._child_file is not None:
            self._flush_child(state)

    @contextlib.contextmanager
    def root(self, region: str):
        """Open the root span of ``region`` on the calling thread."""
        previous = self.region
        self.region = region
        state, frame = self._open()
        self._root_state = state
        t0 = self.clock()
        try:
            yield
        finally:
            self._close(state, frame, ROOT, region, t0, self.clock())
            self.region = previous

    def count(self, name: str, value: float) -> None:
        """Add ``value`` to a counter of the current region."""
        counters = self._state().counters
        key = (self.region, name)
        counters[key] = counters.get(key, 0) + value

    def sample(self, name: str, value: float) -> None:
        """Record one sample (a latency) in the current region."""
        self._state().samples.setdefault(
            (self.region, name), []).append(value)

    # -- results ------------------------------------------------------------
    def aggregate(self) -> Aggregate:
        """Totals of this process, all threads merged."""
        total = Aggregate()
        with self._lock:
            states = list(self._states)
        for state in states:
            total.merge(state)
        return total

    def self_time_gap(self, region: str) -> float:
        """Relative gap between the root spans' total duration and the
        self times recorded on the root's thread in ``region`` (the
        per-layer split accounts for the whole traced wall time when
        this is ~0)."""
        state = self._root_state
        if state is None:
            return 0.0
        roots = state.calls.get((region, ROOT))
        if not roots or roots[2] <= 0:
            return 0.0
        own = sum(row[1] for (reg, _n), row in state.calls.items()
                  if reg == region)
        return abs(own - roots[2]) / roots[2]

    def span_records(self, spans) -> List[dict]:
        return [{"id": sid, "parent": parent, "name": name,
                 "layer": self.layer_of.get(name, "?"), "region": region,
                 "start": t0, "end": t1, "self_s": own,
                 "pid": os.getpid(), "thread": thread}
                for sid, parent, name, region, t0, t1, own, thread
                in spans]

    def write(self, path: str) -> None:
        """Write this process's retained spans, then one aggregate
        record, as JSON lines."""
        with self._lock:
            states = list(self._states)
        with open(path, "w") as fh:
            for state in states:
                for record in self.span_records(state.spans):
                    fh.write(json.dumps(record) + "\n")
            fh.write(json.dumps(
                {"aggregate": self.aggregate().to_json(),
                 "pid": os.getpid(), "missing": self.missing}) + "\n")

    # -- forked children ----------------------------------------------------
    def _forked(self) -> None:
        self._reset_state()
        self._root_state = None
        if self.child_dir is not None:
            self._child_file = os.path.join(
                self.child_dir, f"{self.label}.spans-{os.getpid()}.jsonl")

    def _flush_child(self, state: _ThreadState) -> None:
        lines = [json.dumps(r) for r in self.span_records(state.spans)]
        lines.append(json.dumps({"aggregate": state.to_json(),
                                 "pid": os.getpid()}))
        with open(self._child_file, "a") as fh:
            fh.write("\n".join(lines) + "\n")
        state.calls.clear()
        state.counters.clear()
        state.samples.clear()
        state.spans.clear()


_INHERITED = object()


def _resolve(target: str):
    """``"pkg.mod:Class.attr"`` -> (owner, attr, raw attribute or
    ``_INHERITED`` when the class only inherits it)."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    getattr(owner, attr)  # raises AttributeError when absent
    if isinstance(owner, type):
        return owner, attr, owner.__dict__.get(attr, _INHERITED)
    return owner, attr, getattr(owner, attr)


def load_aggregates(directory: str, label: str) -> Tuple[Aggregate,
                                                         Aggregate]:
    """Merge the aggregate records of one traced run:
    ``(main process, forked children)``."""
    main, children = Aggregate(), Aggregate()
    for name in sorted(os.listdir(directory)):
        if not name.startswith(f"{label}.spans"):
            continue
        target = main if name == f"{label}.spans.jsonl" else children
        with open(os.path.join(directory, name)) as fh:
            for line in fh:
                if line.startswith('{"aggregate"'):
                    target.merge(Aggregate.from_json(
                        json.loads(line)["aggregate"]))
    return main, children
