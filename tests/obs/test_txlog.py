"""Tests for the JSONL transaction log: writing, reading, replay.

The headline guarantee is round-trip fidelity: a TraceRecorder
reconstructed from disk answers the figure-level queries exactly like
the live recorder that produced the log.
"""

import dataclasses
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench.runners import build_environment, run_scheduler
from repro.bench.workloads import build_workflow
from repro.hep.datasets import TABLE2
from repro.obs.events import EXEC_END, RUN, RUN_END, EventBus
from repro.obs.txlog import (ReadStatus, TailReader, TransactionLog,
                             read_records, replay, run_meta)


def tiny_spec(n_tasks=24, input_bytes=1.5e9):
    return dataclasses.replace(TABLE2["DV3-Small"], name="tiny",
                               n_tasks=n_tasks, input_bytes=input_bytes)


class TestWriting:
    def test_header_and_footer(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with TransactionLog(path, meta={"scheduler": "taskvine"}) as log:
            log.record("READY", 0.5, task="a")
        records = list(read_records(path))
        assert records[0]["type"] == RUN
        assert records[0]["schema"] == 1
        assert records[0]["scheduler"] == "taskvine"
        assert records[-1]["type"] == RUN_END
        assert records[-1]["records"] == 2  # header + READY

    def test_footer_carries_last_t(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with TransactionLog(path) as log:
            log.record("READY", 7.25, task="a")
        assert list(read_records(path))[-1]["t"] == 7.25

    def test_requires_exactly_one_sink(self, tmp_path):
        with pytest.raises(ValueError):
            TransactionLog()
        with pytest.raises(ValueError):
            TransactionLog(str(tmp_path / "x.jsonl"), fh=io.StringIO())

    def test_write_to_fh(self):
        fh = io.StringIO()
        log = TransactionLog(fh=fh, meta={"k": 1})
        log.record("READY", 0.0, task="a")
        log.close()
        lines = fh.getvalue().strip().splitlines()
        assert len(lines) == 3
        assert json.loads(lines[1])["task"] == "a"

    def test_close_idempotent(self):
        log = TransactionLog(fh=io.StringIO())
        log.close()
        log.close()  # must not raise or double-write

    def test_writes_after_close_dropped(self):
        fh = io.StringIO()
        log = TransactionLog(fh=fh)
        log.close()
        log.record("READY", 1.0)
        assert len(fh.getvalue().strip().splitlines()) == 2

    def test_bus_attachment(self):
        fh = io.StringIO()
        bus = EventBus()
        log = TransactionLog(fh=fh).attach(bus)
        bus.emit("DISPATCH", 1.0, task="a", worker=3)
        log.close()
        rows = [json.loads(line) for line in
                fh.getvalue().strip().splitlines()]
        assert rows[1] == {"type": "DISPATCH", "t": 1.0, "task": "a",
                           "worker": 3}

    def test_numpy_scalars_coerced(self):
        import numpy as np

        fh = io.StringIO()
        log = TransactionLog(fh=fh)
        log.record("TRANSFER", 1.0, nbytes=np.float64(3.5),
                   src=np.int64(2))
        log.close()
        row = json.loads(fh.getvalue().strip().splitlines()[1])
        assert row["nbytes"] == 3.5
        assert row["src"] == 2

    def test_thread_safe_writes(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        log = TransactionLog(path)

        def pump(k):
            for i in range(200):
                log.record("READY", float(i), task=f"{k}-{i}")

        threads = [threading.Thread(target=pump, args=(k,))
                   for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        log.close()
        records = list(read_records(path))
        assert len(records) == 4 * 200 + 2
        assert all("type" in r for r in records)


class TestReading:
    def test_skips_blank_and_truncated_lines(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"type": "RUN", "t": 0.0}\n'
                        '\n'
                        '{"type": "READY", "t": 1.0, "task"')
        records = list(read_records(str(path)))
        assert len(records) == 1

    def test_run_meta(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with TransactionLog(path, meta={"scheduler": "workqueue"}):
            pass
        assert run_meta(path)["scheduler"] == "workqueue"

    def test_run_meta_missing_header(self):
        assert run_meta([{"type": "READY", "t": 0.0}]) == {}


def _log_lines():
    """A small closed log, one bytes line per record."""
    fh = io.StringIO()
    log = TransactionLog(fh=fh, meta={"scheduler": "taskvine"})
    for i in range(12):
        log.record("READY", float(i), task=f"t{i}", category="proc")
        log.record("DISPATCH", i + 0.25, task=f"t{i}", worker=i % 3)
        log.record(EXEC_END, i + 1.5, task=f"t{i}", worker=i % 3,
                   ok=i % 5 != 4, t_ready=float(i), t_dispatch=i + 0.25,
                   t_start=i + 0.5, t_end=i + 1.5)
    log.close(completed=True)
    return [line.encode() + b"\n"
            for line in fh.getvalue().splitlines()]


_LINES = _log_lines()


class TestTailReader:
    @settings(max_examples=60, deadline=None)
    @given(footer=st.booleans(),
           blank_at=st.integers(1, len(_LINES)),
           corrupt_at=st.integers(1, len(_LINES)),
           truncate=st.integers(0, 40),
           cuts=st.lists(st.integers(0, 6000), max_size=12))
    # a whitespace-only remainder is a blank line, not a held-back record
    @example(footer=False, blank_at=len(_LINES), corrupt_at=1, truncate=1,
             cuts=[])
    def test_piecewise_polls_equal_one_read(self, footer, blank_at,
                                            corrupt_at, truncate, cuts):
        """However the writer's bytes arrive -- cut mid-record, with a
        blank line and a corrupt line, footer or not, the writer dead
        mid-record -- the records the polls return and the final status
        equal ``read_records`` on the whole file."""
        lines = list(_LINES if footer else _LINES[:-1])
        lines.insert(min(blank_at, len(lines)), b" \n")
        lines.insert(min(corrupt_at, len(lines)),
                     b'{"type": "READY", "t": \n')
        blob = b"".join(lines)
        blob = blob[:len(blob) - truncate]
        bounds = [0, *sorted(min(c, len(blob)) for c in cuts), len(blob)]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "run.jsonl")
            with TailReader(path) as tail:
                assert tail.poll() == []  # not created yet
                polled = []
                with open(path, "wb") as fh:
                    for start, end in zip(bounds, bounds[1:]):
                        fh.write(blob[start:end])
                        fh.flush()
                        polled.extend(tail.poll())
                status = ReadStatus()
                assert polled == list(read_records(path, status=status))
                assert tail.status == status


class TestReplayFidelity:
    def test_replay_matches_live_recorder(self, tmp_path):
        """The acceptance criterion: summary() of the replayed log
        equals the live recorder's for a DV3 sim run."""
        path = str(tmp_path / "run.jsonl")
        env = build_environment(3, seed=9)
        workflow = build_workflow(tiny_spec(), arity=4, seed=9)
        result = run_scheduler(env, workflow, "taskvine",
                               txlog_path=path)
        assert result.completed

        replayed = replay(path)
        assert replayed.summary() == env.trace.summary()
        n = 3 + 1  # workers + manager
        assert (replayed.transfer_matrix(n)
                == env.trace.transfer_matrix(n)).all()
        assert replayed.peak_cache() == env.trace.peak_cache()
        live_ts, live_levels = env.trace.concurrency_series()
        rep_ts, rep_levels = replayed.concurrency_series()
        assert (live_ts == rep_ts).all()
        assert (live_levels == rep_levels).all()

    def test_replay_fidelity_workqueue(self, tmp_path):
        """Satellite: the workqueue stack logs the same record types."""
        path = str(tmp_path / "run.jsonl")
        env = build_environment(3, seed=4)
        workflow = build_workflow(tiny_spec(n_tasks=16), arity=4, seed=4)
        result = run_scheduler(env, workflow, "workqueue",
                               txlog_path=path)
        assert result.completed
        replayed = replay(path)
        assert replayed.summary() == env.trace.summary()
        # manager-centric staging shows up as manager cache deltas
        assert 0 in replayed.peak_cache()
        assert replayed.peak_cache() == env.trace.peak_cache()

    def test_replay_ignores_lifecycle_edges(self):
        records = [
            {"type": "RUN", "t": 0.0, "schema": 1},
            {"type": "READY", "t": 0.0, "task": "a"},
            {"type": "DISPATCH", "t": 0.1, "task": "a", "worker": 1},
            {"type": EXEC_END, "t": 5.0, "task": "a", "category": "p",
             "worker": 1, "t_ready": 0.0, "t_dispatch": 0.1,
             "t_start": 0.2, "t_end": 5.0, "ok": True},
        ]
        trace = replay(records)
        assert len(trace.tasks) == 1
        assert trace.makespan == 5.0

    def test_replay_worker_events(self):
        records = [
            {"type": "WORKER_JOIN", "t": 0.0, "worker": 1,
             "kind": "spawn"},
            {"type": "WORKER_PREEMPT", "t": 9.0, "worker": 1,
             "kind": "preempt"},
        ]
        trace = replay(records)
        assert [e.kind for e in trace.worker_events] == ["spawn",
                                                         "preempt"]
        assert len(trace.failures()) == 1


#: a child process: SIGTERM lands inside the third record's write or
#: flush, through a handle that, like io.BufferedWriter, raises on
#: re-entry from a signal handler
_SIGNAL_INSIDE_WRITE = r"""
import os, signal, sys
from repro.obs.txlog import TransactionLog, install_signal_handlers

class Handle:
    def __init__(self, fh, where):
        self.fh, self.where, self.calls, self.busy = fh, where, 0, False

    def _io(self, op, *args):
        if self.busy:
            raise RuntimeError(f"reentrant call inside {op}")
        self.busy = True
        try:
            out = getattr(self.fh, op)(*args)
            if op == "flush" == self.where:
                self._signal()  # inside the flush, as in a real one
        finally:
            self.busy = False
        if op == "write" == self.where:
            self._signal()  # the bytes are written, the call not done
        return out

    def write(self, text):
        return self._io("write", text)

    def flush(self):
        return self._io("flush")

    def _signal(self):
        self.calls += 1
        if self.calls == 3:
            os.kill(os.getpid(), signal.SIGTERM)

install_signal_handlers()
log = TransactionLog(fh=Handle(open(sys.argv[1], "w"), sys.argv[2]),
                     autoflush=True)
for i in range(10):
    log.record("X", float(i), i=i)
"""


class TestSignalInsideWrite:
    @pytest.mark.parametrize("where", ["write", "flush"])
    def test_sigterm_finishes_the_line_then_exits(self, tmp_path, where):
        path = str(tmp_path / "run.jsonl")
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        proc = subprocess.run(
            [sys.executable, "-c", _SIGNAL_INSIDE_WRITE, path, where],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=60)
        assert proc.returncode == 128 + signal.SIGTERM, proc.stderr
        with open(path) as fh:
            lines = fh.read().split("\n")
        assert lines.pop() == ""  # the file ends with a newline
        assert all(lines), "blank line in the log"
        records = [json.loads(line) for line in lines]
        assert records[-1]["type"] == RUN_END
        assert records[-1]["terminated"] == "SIGTERM"
        assert [r["type"] for r in records[:-1]].count("X") == 2
