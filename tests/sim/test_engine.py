"""Unit tests for the discrete-event kernel."""

import contextlib
import gc

import pytest

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Container,
    Interrupt,
    Resource,
    Simulation,
    SimulationError,
    Store,
)


@pytest.fixture
def sim():
    return Simulation()


class TestClockAndTimeouts:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_timeout_advances_clock(self, sim):
        def proc():
            yield sim.timeout(5)

        sim.process(proc())
        sim.run()
        assert sim.now == 5

    def test_timeout_value_passthrough(self, sim):
        results = []

        def proc():
            value = yield sim.timeout(1, value="hello")
            results.append(value)

        sim.process(proc())
        sim.run()
        assert results == ["hello"]

    def test_negative_timeout_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(-1)

    def test_run_until_stops_clock_exactly(self, sim):
        def proc():
            yield sim.timeout(100)

        sim.process(proc())
        sim.run(until=30)
        assert sim.now == 30

    def test_run_until_past_raises(self, sim):
        def proc():
            yield sim.timeout(10)

        sim.process(proc())
        sim.run()
        with pytest.raises(SimulationError):
            sim.run(until=5)

    def test_sequential_timeouts_accumulate(self, sim):
        def proc():
            yield sim.timeout(3)
            yield sim.timeout(4)

        sim.process(proc())
        sim.run()
        assert sim.now == 7

    def test_same_time_events_fire_in_schedule_order(self, sim):
        order = []

        def proc(tag):
            yield sim.timeout(5)
            order.append(tag)

        for tag in "abc":
            sim.process(proc(tag))
        sim.run()
        assert order == ["a", "b", "c"]


class TestEvents:
    def test_manual_succeed(self, sim):
        ev = sim.event()
        results = []

        def waiter():
            value = yield ev
            results.append(value)

        def firer():
            yield sim.timeout(2)
            ev.succeed(42)

        sim.process(waiter())
        sim.process(firer())
        sim.run()
        assert results == [42]
        assert ev.ok and ev.value == 42

    def test_fail_propagates_into_process(self, sim):
        ev = sim.event()
        caught = []

        def waiter():
            try:
                yield ev
            except ValueError as exc:
                caught.append(str(exc))

        def firer():
            yield sim.timeout(1)
            ev.fail(ValueError("boom"))

        sim.process(waiter())
        sim.process(firer())
        sim.run()
        assert caught == ["boom"]

    def test_double_trigger_rejected(self, sim):
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)
        with pytest.raises(SimulationError):
            ev.fail(RuntimeError("x"))

    def test_fail_requires_exception(self, sim):
        ev = sim.event()
        with pytest.raises(SimulationError):
            ev.fail("not an exception")

    def test_value_before_trigger_raises(self, sim):
        ev = sim.event()
        with pytest.raises(SimulationError):
            _ = ev.value
        with pytest.raises(SimulationError):
            _ = ev.ok

    def test_yield_already_processed_event_resumes_immediately(self, sim):
        ev = sim.event()
        ev.succeed("ready")
        results = []

        def late_waiter():
            yield sim.timeout(10)
            value = yield ev
            results.append((sim.now, value))

        sim.process(late_waiter())
        sim.run()
        assert results == [(10, "ready")]

    def test_yield_non_event_fails_process(self, sim):
        def bad():
            yield 42

        proc = sim.process(bad())
        # Nobody is waiting on the process, so the error surfaces.
        with pytest.raises(SimulationError, match="non-event"):
            sim.run()
        assert proc.triggered and not proc.ok

    def test_unwatched_failure_raises_from_run(self, sim):
        def bad():
            yield sim.timeout(1)
            raise ValueError("lost")

        sim.process(bad())
        with pytest.raises(ValueError, match="lost"):
            sim.run()


class TestProcesses:
    def test_return_value_becomes_process_value(self, sim):
        def proc():
            yield sim.timeout(1)
            return "done"

        p = sim.process(proc())
        sim.run()
        assert p.value == "done"

    def test_process_is_waitable_event(self, sim):
        def inner():
            yield sim.timeout(5)
            return 99

        results = []

        def outer():
            value = yield sim.process(inner())
            results.append(value)

        sim.process(outer())
        sim.run()
        assert results == [99]

    def test_run_until_complete_returns_value(self, sim):
        def proc():
            yield sim.timeout(3)
            return "v"

        p = sim.process(proc())
        assert sim.run_until_complete(p) == "v"

    def test_run_until_complete_raises_failure(self, sim):
        def proc():
            yield sim.timeout(1)
            raise RuntimeError("died")

        p = sim.process(proc())
        with pytest.raises(RuntimeError, match="died"):
            sim.run_until_complete(p)

    def test_run_until_complete_deadlock_detected(self, sim):
        ev = sim.event()

        def proc():
            yield ev

        p = sim.process(proc())
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run_until_complete(p)

    def test_run_until_complete_time_limit(self, sim):
        def proc():
            yield sim.timeout(1000)

        p = sim.process(proc())
        with pytest.raises(SimulationError, match="limit"):
            sim.run_until_complete(p, limit=10)

    def test_uncaught_exception_fails_process_event(self, sim):
        def proc():
            yield sim.timeout(1)
            raise KeyError("k")

        p = sim.process(proc())
        waiter_caught = []

        def waiter():
            try:
                yield p
            except KeyError:
                waiter_caught.append(True)

        sim.process(waiter())
        sim.run()
        assert waiter_caught == [True]


class TestInterrupts:
    def test_interrupt_delivers_cause(self, sim):
        causes = []

        def victim():
            try:
                yield sim.timeout(100)
            except Interrupt as interrupt:
                causes.append((interrupt.cause, sim.now))

        v = sim.process(victim())

        def attacker():
            yield sim.timeout(5)
            v.interrupt("preempted")

        sim.process(attacker())
        sim.run()
        assert causes == [("preempted", 5)]

    def test_interrupted_process_can_continue(self, sim):
        log = []

        def victim():
            try:
                yield sim.timeout(100)
            except Interrupt:
                log.append(("interrupted", sim.now))
            yield sim.timeout(10)
            log.append(("done", sim.now))

        v = sim.process(victim())

        def attacker():
            yield sim.timeout(5)
            v.interrupt()

        sim.process(attacker())
        sim.run()
        assert log == [("interrupted", 5), ("done", 15)]

    def test_interrupt_dead_process_rejected(self, sim):
        def victim():
            yield sim.timeout(1)

        v = sim.process(victim())
        sim.run()
        with pytest.raises(SimulationError):
            v.interrupt()

    def test_same_instant_interrupt_is_deterministic(self, sim):
        resumes = []

        def victim():
            try:
                yield sim.timeout(10)
                resumes.append("timeout")
            except Interrupt:
                resumes.append("interrupt")
            yield sim.timeout(50)
            resumes.append("end")

        v = sim.process(victim())

        def attacker():
            yield sim.timeout(10)  # same instant as the victim's timeout
            if v.is_alive:
                v.interrupt()

        sim.process(attacker())
        # The victim's timeout (scheduled first) resumes it first, so the
        # interrupt lands at the *second* yield, outside the try block,
        # killing the process with an unhandled Interrupt.
        with pytest.raises(Interrupt):
            sim.run()
        assert resumes == ["timeout"]
        assert not v.ok and isinstance(v.value, Interrupt)


class TestConditions:
    def test_all_of_waits_for_all(self, sim):
        times = []

        def proc():
            yield AllOf(sim, [sim.timeout(3), sim.timeout(7)])
            times.append(sim.now)

        sim.process(proc())
        sim.run()
        assert times == [7]

    def test_any_of_fires_on_first(self, sim):
        times = []

        def proc():
            yield AnyOf(sim, [sim.timeout(3), sim.timeout(7)])
            times.append(sim.now)

        sim.process(proc())
        sim.run()
        assert times == [3]

    def test_and_or_operators(self, sim):
        times = []

        def proc():
            yield sim.timeout(2) & sim.timeout(4)
            times.append(sim.now)
            yield sim.timeout(10) | sim.timeout(1)
            times.append(sim.now)

        sim.process(proc())
        sim.run()
        assert times == [4, 5]

    def test_all_of_empty_fires_immediately(self, sim):
        times = []

        def proc():
            yield AllOf(sim, [])
            times.append(sim.now)

        sim.process(proc())
        sim.run()
        assert times == [0]

    def test_all_of_fails_fast(self, sim):
        ev = sim.event()
        caught = []

        def proc():
            try:
                yield AllOf(sim, [ev, sim.timeout(100)])
            except RuntimeError:
                caught.append(sim.now)

        def failer():
            yield sim.timeout(2)
            ev.fail(RuntimeError("bad"))

        sim.process(proc())
        sim.process(failer())
        sim.run()
        assert caught == [2]


class TestResource:
    def test_capacity_enforced(self, sim):
        res = Resource(sim, capacity=2)
        active = []
        peak = []

        def user(uid):
            req = res.request()
            yield req
            active.append(uid)
            peak.append(len(active))
            yield sim.timeout(10)
            active.remove(uid)
            res.release(req)

        for uid in range(5):
            sim.process(user(uid))
        sim.run()
        assert max(peak) == 2
        assert sim.now == 30  # 5 users, 2 at a time, 10s each

    def test_fifo_ordering(self, sim):
        res = Resource(sim, capacity=1)
        order = []

        def user(uid):
            req = res.request()
            yield req
            order.append(uid)
            yield sim.timeout(1)
            res.release(req)

        for uid in range(4):
            sim.process(user(uid))
        sim.run()
        assert order == [0, 1, 2, 3]

    def test_priority_queue_order(self, sim):
        res = Resource(sim, capacity=1)
        order = []

        def holder():
            req = res.request()
            yield req
            yield sim.timeout(10)
            res.release(req)

        def user(uid, priority):
            yield sim.timeout(1)  # queue up behind the holder
            req = res.request(priority=priority)
            yield req
            order.append(uid)
            res.release(req)

        sim.process(holder())
        sim.process(user("low", priority=5))
        sim.process(user("high", priority=-5))
        sim.run()
        assert order == ["high", "low"]

    def test_release_without_hold_rejected(self, sim):
        res = Resource(sim, capacity=1)

        def proc():
            req = res.request()
            yield req
            res.release(req)
            with pytest.raises(SimulationError):
                res.release(req)

        sim.process(proc())
        sim.run()

    def test_bad_capacity_rejected(self, sim):
        with pytest.raises(SimulationError):
            Resource(sim, capacity=0)

    def test_cancel_queued_request(self, sim):
        res = Resource(sim, capacity=1)
        got = []

        def holder():
            req = res.request()
            yield req
            yield sim.timeout(10)
            res.release(req)

        def impatient():
            yield sim.timeout(1)
            req = res.request()
            yield sim.timeout(1) | req
            if not req.triggered:
                req.cancel()
            else:
                got.append("got it")

        def patient():
            yield sim.timeout(2)
            req = res.request()
            yield req
            got.append(("patient", sim.now))
            res.release(req)

        sim.process(holder())
        sim.process(impatient())
        sim.process(patient())
        sim.run()
        # The impatient request was withdrawn, so patient got the slot.
        assert got == [("patient", 10)]


class TestContainer:
    def test_put_get_levels(self, sim):
        box = Container(sim, capacity=100, init=50)

        def proc():
            yield box.get(30)
            assert box.level == 20
            yield box.put(60)
            assert box.level == 80

        sim.process(proc())
        sim.run()
        assert box.level == 80

    def test_get_blocks_until_available(self, sim):
        box = Container(sim, capacity=100, init=0)
        times = []

        def getter():
            yield box.get(10)
            times.append(sim.now)

        def putter():
            yield sim.timeout(5)
            yield box.put(10)

        sim.process(getter())
        sim.process(putter())
        sim.run()
        assert times == [5]

    def test_put_blocks_at_capacity(self, sim):
        box = Container(sim, capacity=10, init=10)
        times = []

        def putter():
            yield box.put(5)
            times.append(sim.now)

        def drainer():
            yield sim.timeout(3)
            yield box.get(5)

        sim.process(putter())
        sim.process(drainer())
        sim.run()
        assert times == [3]

    def test_bad_amounts_rejected(self, sim):
        box = Container(sim, capacity=10)
        with pytest.raises(SimulationError):
            box.put(-1)
        with pytest.raises(SimulationError):
            box.get(-1)
        with pytest.raises(SimulationError):
            Container(sim, capacity=0)
        with pytest.raises(SimulationError):
            Container(sim, capacity=5, init=6)


class TestStore:
    def test_fifo_items(self, sim):
        store = Store(sim)
        got = []

        def producer():
            for item in "abc":
                yield store.put(item)
                yield sim.timeout(1)

        def consumer():
            for _ in range(3):
                item = yield store.get()
                got.append(item)

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert got == ["a", "b", "c"]

    def test_get_blocks_on_empty(self, sim):
        store = Store(sim)
        times = []

        def consumer():
            yield store.get()
            times.append(sim.now)

        def producer():
            yield sim.timeout(7)
            yield store.put("x")

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert times == [7]

    def test_capacity_blocks_put(self, sim):
        store = Store(sim, capacity=1)
        times = []

        def producer():
            yield store.put("a")
            yield store.put("b")
            times.append(sim.now)

        def consumer():
            yield sim.timeout(4)
            yield store.get()

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert times == [4]


class TestDeterminism:
    def test_identical_runs_produce_identical_event_counts(self):
        def build_and_run():
            sim = Simulation()
            res = Resource(sim, capacity=3)
            log = []

            def user(uid):
                req = res.request()
                yield req
                log.append((sim.now, uid))
                yield sim.timeout(1 + uid % 3)
                res.release(req)

            for uid in range(20):
                sim.process(user(uid))
            sim.run()
            return log, sim.events_processed

        first = build_and_run()
        second = build_and_run()
        assert first == second


# -- how a process can end a kernel loop -------------------------------------
def _returns(sim):
    yield sim.timeout(1)
    return 7


def _overruns(sim):
    yield sim.timeout(100)


def _deadlocks(sim):
    yield sim.event()


def _raises(sim):
    yield sim.timeout(1)
    raise ValueError("unhandled")


def _exits(sim):
    yield sim.timeout(1)
    raise SystemExit(143)


LOOPS = ("run_until_complete", "run")

#: process body -> what run_until_complete(p, limit=10) and
#: run(until=10) raise (None: they return)
ENDINGS = {
    _returns: (None, None),
    _overruns: (SimulationError, None),   # past the limit
    _deadlocks: (SimulationError, None),  # the heap drained first
    _raises: (ValueError, ValueError),
    _exits: (SystemExit, SystemExit),
}


@pytest.fixture
def collector():
    """Hand the cyclic collector back as the test found it."""
    was_enabled = gc.isenabled()
    yield
    (gc.enable if was_enabled else gc.disable)()


class TestCollectorPause:
    """The two kernel loops run with the cyclic collector paused and
    restore the caller's setting however they end (DESIGN.md,
    "Performance engineering")."""

    @pytest.mark.parametrize("enabled", [True, False],
                             ids=["caller-enabled", "caller-disabled"])
    @pytest.mark.parametrize("loop", LOOPS)
    @pytest.mark.parametrize("body", ENDINGS,
                             ids=lambda body: body.__name__[1:])
    def test_paused_inside_restored_after(self, collector, body, loop,
                                          enabled):
        raises = ENDINGS[body][LOOPS.index(loop)]
        (gc.enable if enabled else gc.disable)()
        sim = Simulation()
        seen = []

        def proc():
            seen.append(gc.isenabled())
            return (yield from body(sim))

        p = sim.process(proc())
        expect = (pytest.raises(raises) if raises
                  else contextlib.nullcontext())
        with expect:
            if loop == "run":
                sim.run(until=10)
            else:
                sim.run_until_complete(p, limit=10)
        assert seen == [False]
        assert gc.isenabled() is enabled


class TestExitSignals:
    """``SystemExit`` and ``KeyboardInterrupt`` raised inside a process
    unwind the kernel loop.  Turned into a process failure they could
    reach nothing once the waiter had moved on (a SIGTERM deferred
    inside a txlog write raises exactly this ``SystemExit``)."""

    @pytest.mark.parametrize("signal", [SystemExit(143),
                                        KeyboardInterrupt()],
                             ids=["SystemExit", "KeyboardInterrupt"])
    @pytest.mark.parametrize("loop", LOOPS)
    def test_signal_after_waiter_moved_on(self, sim, loop, signal):
        def child():
            yield sim.timeout(2)
            raise signal

        def parent():
            yield sim.timeout(1) | sim.process(child())
            yield sim.timeout(5)

        p = sim.process(parent())
        with pytest.raises(type(signal)) as caught:
            if loop == "run_until_complete":
                sim.run_until_complete(p)
            else:
                sim.run()
        assert caught.value is signal
        assert sim.now == 2 and p.is_alive
