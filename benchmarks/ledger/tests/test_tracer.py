"""Self-tests of the boundary tracer."""

import os
import sys
import threading
import time
import types

import pytest

from ..layers import PER_LAYER, LayerView, per_layer_metrics
from ..probe import SpeedProbe
from ..tracer import ROOT, Aggregate, Boundary, Tracer, load_aggregates


class FakeClock:
    """A clock only the toy functions advance, so times are exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def toy():
    """A throwaway module whose functions the tracer can patch."""
    module = types.ModuleType("ledger_toy")
    module.clock = FakeClock()

    def work(seconds):
        module.clock.now += seconds

    def inner(seconds):
        work(seconds)

    def middle():
        work(2)
        module.inner(3)

    def outer():
        work(1)
        module.middle()
        module.inner(4)

    module.inner, module.middle, module.outer = inner, middle, outer
    sys.modules["ledger_toy"] = module
    yield module
    del sys.modules["ledger_toy"]


def _install(toy, **kwargs):
    return Tracer(clock=toy.clock, **kwargs).install([
        Boundary("toy", "toy.outer", "ledger_toy:outer"),
        Boundary("toy", "toy.middle", "ledger_toy:middle"),
        Boundary("toy", "toy.inner", "ledger_toy:inner"),
    ])


def test_self_time_arithmetic_on_a_nested_call_tree(toy):
    tracer = _install(toy)
    with tracer.root("run"):
        toy.clock.now += 0.5  # root's own work
        toy.outer()
    calls = tracer.aggregate().calls
    # outer 1 + middle (2 + inner 3) + inner 4 = 10, plus 0.5 in root
    assert calls[("run", ROOT)] == [1, 0.5, 10.5]
    assert calls[("run", "toy.outer")] == [1, 1.0, 10.0]
    assert calls[("run", "toy.middle")] == [1, 2.0, 5.0]
    assert calls[("run", "toy.inner")] == [2, 7.0, 7.0]
    assert tracer.self_time_gap("run") == 0.0
    tracer.uninstall()


def test_nothing_is_recorded_outside_a_root(toy):
    tracer = _install(toy)
    toy.outer()
    assert tracer.aggregate().calls == {}
    tracer.uninstall()
    assert not hasattr(toy.outer, "__wrapped__")


def test_each_thread_keeps_its_own_stack(toy):
    opened, done = threading.Event(), threading.Event()

    def hold():  # keeps its span open while another thread works
        opened.set()
        assert done.wait(10)

    toy.hold = hold
    tracer = Tracer().install([
        Boundary("toy", "toy.hold", "ledger_toy:hold"),
        Boundary("toy", "toy.inner", "ledger_toy:inner")])
    with tracer.root("run"):
        holder = threading.Thread(target=toy.hold)
        holder.start()
        assert opened.wait(10)
        worker = threading.Thread(target=toy.inner, args=(1,))
        worker.start()
        worker.join(10)
        done.set()
        holder.join(10)
    assert not holder.is_alive() and not worker.is_alive()
    spans = {s[2]: s for st in tracer._states for s in st.spans}
    assert spans["toy.inner"][1] is None  # not a child of toy.hold
    assert spans["toy.hold"][1] is None   # nor of the root's thread
    hold_row = tracer.aggregate().calls[("run", "toy.hold")]
    assert hold_row[1] == hold_row[2]     # no foreign child time
    tracer.uninstall()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_flushes_its_spans(toy, tmp_path):
    tracer = _install(toy, label="toy", child_dir=str(tmp_path))
    with tracer.root("run"):
        pid = os.fork()
        if pid == 0:  # child: two outermost spans, then no cleanup
            try:
                toy.inner(1)
                toy.inner(2)
            finally:
                os._exit(0)
        _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    tracer.write(str(tmp_path / "toy.spans.jsonl"))
    tracer.uninstall()
    lines = (tmp_path / f"toy.spans-{pid}.jsonl").read_text().splitlines()
    assert len(lines) == 4  # a span and an aggregate per flush
    main, children = load_aggregates(str(tmp_path), "toy")
    assert children.calls[("run", "toy.inner")] == [2, 3.0, 3.0]
    assert ("run", "toy.inner") not in main.calls
    assert main.calls[("run", ROOT)][0] == 1


def test_the_speed_probe_samples_on_its_timer_until_stopped():
    probe = SpeedProbe(interval=0.005).start()
    try:
        deadline = time.monotonic() + 0.2
        while time.monotonic() < deadline:
            pass
    finally:
        probe.stop()
    assert len(probe.samples) >= 5
    first = probe.slowdown()
    assert first > 0 and probe.samples == []
    time.sleep(0.02)
    assert probe.samples == []
    assert probe.slowdown() == first  # no new sample: the last repeats


def test_a_missing_boundary_warns_and_its_metric_is_absent(toy):
    with pytest.warns(UserWarning, match="not found"):
        tracer = Tracer().install([
            Boundary("toy", "toy.inner", "ledger_toy:inner"),
            Boundary("core", "core.placement", "ledger_toy:gone"),
            Boundary("core", "core.dispatch", "no_such_module_xyz:f")])
    assert tracer.missing == ["core.dispatch", "core.placement"]
    tracer.uninstall()
    view = LayerView(Aggregate(), Aggregate(), {}, 1.0, 1.0,
                     missing=tracer.missing)
    metrics = per_layer_metrics(view)
    assert "core.placement.calls" not in metrics
    assert "core.dispatch.calls" not in metrics
    assert metrics["core.ready_queue.calls"] == 0
    assert len(metrics) == len(PER_LAYER) - 3
