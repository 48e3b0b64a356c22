"""TaskVine-style transaction log: one JSONL record per lifecycle edge.

The paper's entire evaluation (Figs 7-15) is derived from TaskVine's
transaction and debug logs; this module is the reproduction's
equivalent.  A :class:`TransactionLog` subscribes to an
:class:`~repro.obs.events.EventBus` and appends one JSON object per
event::

    {"type": "RUN", "t": 0.0, "schema": 1, "scheduler": "taskvine", ...}
    {"type": "READY", "t": 0.0, "task": "proc-0", "category": "proc"}
    {"type": "DISPATCH", "t": 0.004, "task": "proc-0", "worker": 3, ...}
    {"type": "STAGE_IN", "t": 0.61, "task": "proc-0", "worker": 3,
     "file": "chunk-0", "nbytes": 3.1e8, "source": -1, "t_start": 0.02}
    {"type": "EXEC_END", "t": 5.2, "task": 123, "worker": 3, "ok": true,
     "t_ready": 0.0, "t_dispatch": 0.004, "t_start": 0.61, "t_end": 5.2}
    ...
    {"type": "RUN_END", "t": 5.2, "records": 6}

The log is durable and self-describing: :func:`replay` reconstructs a
:class:`~repro.sim.trace.TraceRecorder` from disk whose aggregations
(``summary()``, ``transfer_matrix()``, ``cache_series()``, ...) match
the live recorder's exactly, so every post-hoc analysis that works on a
live run works on an archived one.
"""

from __future__ import annotations

import json
import os
import signal as _signal
import threading
import weakref
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, List, Optional, Union

from ..sim.trace import TaskRecord, TraceRecorder, TransferRecord
from . import events as ev

__all__ = ["TransactionLog", "ReadStatus", "TailReader",
           "read_records", "replay", "run_meta",
           "install_signal_handlers", "close_open_logs"]

SCHEMA_VERSION = 1

#: every open TransactionLog, for the graceful-shutdown signal path.
#: Weak so a dropped log never leaks through this registry.
_OPEN_LOGS: "weakref.WeakSet[TransactionLog]" = weakref.WeakSet()


#: A shutdown signal that landed inside a log write, waiting for that
#: write to finish its line (0: none).  Signal handlers run on the main
#: thread between bytecodes; one that touched the file mid-write would
#: leave a half-finished line or re-enter a buffered writer that is
#: mid-flush (``RuntimeError: reentrant call``).  A log's lock is held
#: by a thread exactly while that thread writes or closes the log.
_deferred_signal = 0


def _coerce(value):
    """JSON fallback for numpy scalars and other oddballs."""
    for cast in (int, float):
        try:
            return cast(value)
        except (TypeError, ValueError):
            continue
    return str(value)


class TransactionLog:
    """Durable JSONL sink for observability events.

    Use as a context manager, or call :meth:`close` explicitly.  Safe to
    write from a background thread (the real serverless library delivers
    results off-thread).
    """

    def __init__(self, path: Optional[str] = None, meta: Optional[dict] = None,
                 fh: Optional[IO[str]] = None,
                 epoch: Optional[int] = None,
                 autoflush: bool = False):
        if (path is None) == (fh is None):
            raise ValueError("pass exactly one of path or fh")
        self.path = path
        self._fh = fh if fh is not None else open(path, "w")
        self._owns_fh = fh is None
        # reentrant: close() writes its footer through _write
        self._lock = threading.RLock()
        self._closed = False
        self._mid_write = False
        self._autoflush = autoflush
        self.records_written = 0
        self.last_t = 0.0
        self.epoch = epoch
        header = {"type": ev.RUN, "t": 0.0, "schema": SCHEMA_VERSION}
        if epoch is not None:
            # service epochs (repro.serve): epoch N+1 resumes from a
            # checkpoint of epoch N's log.  Absent outside serve, so
            # batch-run headers are byte-identical to earlier schemas.
            header["epoch"] = int(epoch)
        header.update(meta or {})
        #: the RUN record as written; it never crosses the bus, so
        #: bus-fed folds of this log seed themselves with it
        self.header = header
        self._write(header)
        _OPEN_LOGS.add(self)

    # -- writing -------------------------------------------------------------
    def record(self, type: str, t: float, **fields) -> None:
        """Append one record (also the bus-subscriber entry point)."""
        row = {"type": type, "t": t}
        row.update(fields)
        self._write(row)
        if t > self.last_t:
            self.last_t = t

    def _on_event(self, type: str, t: float, fields: dict) -> None:
        self.record(type, t, **fields)

    def attach(self, bus: ev.EventBus) -> "TransactionLog":
        """Subscribe to every event the bus publishes."""
        bus.subscribe_all(self._on_event)
        return self

    def _write(self, row: dict) -> None:
        line = json.dumps(row, separators=(",", ":"), default=_coerce)
        with self._lock:
            if self._closed:
                return
            # stays set only if the write raised part-way
            self._mid_write = True
            self._fh.write(line + "\n")
            self._mid_write = False
            self.records_written += 1
            if self._autoflush:
                self._fh.flush()
        if _deferred_signal and not self._lock._is_owned():
            _terminate_deferred()

    # -- lifecycle -----------------------------------------------------------
    def close(self, **footer_fields) -> None:
        """Write the RUN_END footer and release the file handle.

        If an earlier write raised part-way, its open line is terminated
        first (readers skip the fragment), so a :class:`TailReader` sees
        the footer instead of holding back a partial tail forever.
        """
        with self._lock:
            if self._closed:
                return
            if self._mid_write:
                self._fh.write("\n")
                self._mid_write = False
            self.record(ev.RUN_END, self.last_t,
                        records=self.records_written, **footer_fields)
            self._closed = True
            self._fh.flush()
            if self._owns_fh:
                self._fh.close()
        _OPEN_LOGS.discard(self)
        if _deferred_signal and not self._lock._is_owned():
            _terminate_deferred()

    def __enter__(self) -> "TransactionLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def close_open_logs(reason: str = "terminated") -> int:
    """Flush and footer every open :class:`TransactionLog`.

    Returns how many logs were closed.  The graceful-shutdown path for
    txlog-writing CLIs: after this, every log on disk ends with a
    RUN_END footer (``completed: false, terminated: <reason>``) and no
    reader ever waits on a partial tail.
    """
    closed = 0
    for log in list(_OPEN_LOGS):
        log.close(completed=False, terminated=reason)
        closed += 1
    return closed


def install_signal_handlers(signals=(_signal.SIGTERM,
                                     _signal.SIGINT)) -> None:
    """Make SIGTERM/SIGINT terminate txlog-writing CLIs cleanly.

    On either signal every open transaction log is flushed and
    footered (see :func:`close_open_logs`), then the process exits
    with the conventional ``128 + signum`` status.  A signal that lands
    inside a log write on the main thread is acted on as soon as that
    write has finished its line.  Call once at CLI startup, after
    argument parsing; only the main thread may install signal handlers.
    """
    def _handler(signum, frame):
        global _deferred_signal
        if any(log._lock._is_owned() for log in list(_OPEN_LOGS)):
            _deferred_signal = signum
            return
        _terminate(signum)

    for sig in signals:
        _signal.signal(sig, _handler)


def _terminate_deferred() -> None:
    """Act on a deferred signal, on the main thread where it landed."""
    global _deferred_signal
    if threading.current_thread() is not threading.main_thread():
        return
    signum, _deferred_signal = _deferred_signal, 0
    _terminate(signum)


def _terminate(signum: int) -> None:
    close_open_logs(reason=_signal.Signals(signum).name)
    raise SystemExit(128 + signum)


@dataclass
class ReadStatus:
    """What a (possibly truncated) read of a transaction log covered.

    A live run's log is *always* truncated -- the consumer races the
    writer -- so truncation is a reportable condition, not an error:

    * ``records`` -- complete records parsed and handed out.
    * ``skipped`` -- newline-terminated lines that were not valid JSON
      (corruption mid-file).
    * ``partial_tail`` -- the file ended inside a record (no trailing
      newline); the fragment is held back, never guessed at.
    * ``cut_offset`` -- byte offset just past the last complete record:
      where analysis stopped, and where a tail reader resumes.
    * ``complete`` -- the RUN_END footer was seen (the run closed its
      log; nothing more will arrive).
    """

    records: int = 0
    skipped: int = 0
    partial_tail: bool = False
    cut_offset: int = 0
    complete: bool = False

    @property
    def truncated(self) -> bool:
        return not self.complete

    def describe(self) -> str:
        parts = [f"{self.records} records up to byte {self.cut_offset}"]
        if self.skipped:
            parts.append(f"{self.skipped} corrupt line(s) skipped")
        if self.partial_tail:
            parts.append("partial trailing record held back")
        return ", ".join(parts)


def read_records(path: str,
                 status: Optional[ReadStatus] = None) -> Iterator[dict]:
    """Stream the complete records of a transaction log from disk.

    Robust against partial logs (a live run still writing, a run
    killed mid-write): blank lines and corrupt newline-terminated
    lines are skipped, and a trailing line without its newline is held
    back rather than parsed -- the writer appends each record plus the
    newline in one call, so an unterminated tail is by definition
    still in flight.  Pass a :class:`ReadStatus` to learn where the
    read stopped and why.
    """
    if status is None:
        status = ReadStatus()
    offset = 0
    with open(path, "rb") as fh:
        for raw in fh:
            terminated = raw.endswith(b"\n")
            offset += len(raw)
            line = raw.strip()
            if not line:
                if terminated:
                    status.cut_offset = offset
                continue
            if not terminated:
                status.partial_tail = True
                break
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                status.skipped += 1
                status.cut_offset = offset
                continue
            status.records += 1
            status.cut_offset = offset
            if record.get("type") == ev.RUN_END:
                status.complete = True
            yield record


class TailReader:
    """Incremental reader for a transaction log that is still growing.

    Call :meth:`poll` repeatedly; each call returns the complete
    records appended since the last call (possibly none).  Partial
    trailing lines are buffered until their newline arrives, and a
    log file that does not exist yet simply yields nothing -- so a
    watcher can be started before the run it watches.  ``status``
    carries the cumulative :class:`ReadStatus`.
    """

    def __init__(self, path: str):
        self.path = path
        self.status = ReadStatus()
        self._fh: Optional[IO[bytes]] = None
        self._buf = b""

    def poll(self) -> List[dict]:
        if self._fh is None:
            if not os.path.exists(self.path):
                return []
            self._fh = open(self.path, "rb")
        chunk = self._fh.read()
        if not chunk and not self._buf:
            return []
        buf = self._buf + chunk
        # one split per poll, not one buffer copy per line: the
        # unterminated remainder becomes the new buffer
        *lines, self._buf = buf.split(b"\n")
        status = self.status
        status.cut_offset += len(buf) - len(self._buf)
        out: List[dict] = []
        for line in lines:
            stripped = line.strip()
            if not stripped:
                continue
            try:
                record = json.loads(stripped)
            except json.JSONDecodeError:
                status.skipped += 1
                continue
            status.records += 1
            if record.get("type") == ev.RUN_END:
                status.complete = True
            out.append(record)
        status.partial_tail = bool(self._buf.strip())
        return out

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "TailReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


Source = Union[str, Iterable[dict]]


def _records(source: Source) -> Iterable[dict]:
    if isinstance(source, str):
        return read_records(source)
    return source


def run_meta(source: Source) -> dict:
    """The RUN header of a log (empty dict if missing)."""
    for record in _records(source):
        if record.get("type") == ev.RUN:
            return record
        break
    return {}


def replay(source: Source) -> TraceRecorder:
    """Reconstruct a :class:`TraceRecorder` from a transaction log.

    Only the four trace-level record types participate (EXEC_END,
    TRANSFER, CACHE_PUT/EVICT, WORKER_*); the finer lifecycle edges are
    analyzer fodder and are ignored here.  The result's aggregations
    match the live recorder's for the same run.
    """
    trace = TraceRecorder()
    for r in _records(source):
        type_ = r.get("type")
        if type_ == ev.EXEC_END:
            trace.task(TaskRecord(
                task_id=r["task"], category=r.get("category", ""),
                worker=r["worker"], t_ready=r["t_ready"],
                t_dispatch=r["t_dispatch"], t_start=r["t_start"],
                t_end=r["t_end"], ok=r.get("ok", True),
                attempt=r.get("attempt", 1)))
        elif type_ == ev.TRANSFER:
            trace.transfer(TransferRecord(
                src=r["src"], dst=r["dst"], nbytes=r["nbytes"],
                t_start=r["t_start"], t_end=r["t_end"],
                kind=r.get("kind", "data")))
        elif type_ == ev.CACHE_PUT:
            trace.cache(r["worker"], r["t"], r["nbytes"],
                        name=r.get("file"))
        elif type_ == ev.CACHE_EVICT:
            trace.cache(r["worker"], r["t"], -r["nbytes"],
                        name=r.get("file"))
        elif type_ in (ev.WORKER_JOIN, ev.WORKER_PREEMPT,
                       ev.WORKER_LEAVE):
            trace.worker(r["worker"], r["t"], r["kind"])
    return trace
