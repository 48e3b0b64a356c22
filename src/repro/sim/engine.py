"""Discrete-event simulation kernel.

A small, self-contained process-based discrete-event engine in the style
of SimPy.  Every other simulated subsystem in this repository (network,
storage, cluster, schedulers) is built on the primitives here:

* :class:`Simulation` -- the event loop and simulated clock.
* :class:`Event` -- a one-shot occurrence carrying a value or an error.
* :class:`Process` -- a Python generator driven by the events it yields.
* :class:`Resource`, :class:`Container`, :class:`Store` -- shared-resource
  primitives with FIFO (optionally prioritised) wait queues.

The kernel is deterministic: events scheduled for the same simulated time
fire in schedule order (a monotonically increasing sequence number breaks
ties), so repeated runs with the same seed produce identical traces.
"""

from __future__ import annotations

import gc
import heapq
from bisect import insort
from heapq import heappop, heappush
from types import GeneratorType
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Simulation",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "AllOf",
    "AnyOf",
    "Resource",
    "PriorityResource",
    "Preempted",
    "Container",
    "Store",
    "SimulationError",
]


class SimulationError(Exception):
    """Raised for misuse of kernel primitives (double trigger, bad yield)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The ``cause`` attribute carries the object passed to ``interrupt()``,
    typically a reason string or the preempting entity.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Priorities for events scheduled at the same instant.  Urgent events
# (process resumption after an interrupt) run before normal ones so that
# an interrupted process observes a consistent world state.
URGENT = 0
NORMAL = 1

# Sentinel for "no value yet".  A module global (rather than a class
# attribute) so the hot-path identity checks skip a dict lookup.
_PENDING = object()


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *untriggered*.  Calling :meth:`succeed` or
    :meth:`fail` triggers it, which schedules its callbacks to run at the
    current simulated instant.  Once the callbacks have run the event is
    *processed* and its :attr:`value` is final.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_scheduled")

    _PENDING = _PENDING

    def __init__(self, sim: "Simulation"):
        self.sim = sim
        #: callables invoked with this event when it fires; ``None`` once
        #: the event has been processed.
        self.callbacks: Optional[list] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._scheduled = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value (succeed/fail was called)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run and the value is final."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        if not self.triggered:
            raise SimulationError("event not yet triggered")
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The success value, or the exception if the event failed."""
        if self._value is _PENDING:
            raise SimulationError("event not yet triggered")
        return self._value

    # -- triggering --------------------------------------------------------
    # succeed/fail inline _schedule: they are the two hottest kernel
    # entry points and the double-schedule guard is subsumed by the
    # already-triggered check (every scheduled event is triggered).
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self._scheduled = True
        sim = self.sim
        sim._seq += 1
        heappush(sim._heap, (sim._now, NORMAL, sim._seq, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self._scheduled = True
        sim = self.sim
        sim._seq += 1
        heappush(sim._heap, (sim._now, NORMAL, sim._seq, self))
        return self

    # -- composition --------------------------------------------------------
    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.sim, [self, other])

    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.sim, [self, other])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed" if self.processed
            else "triggered" if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` simulated time units after creation."""

    __slots__ = ("delay",)

    # Flattened constructor (no super().__init__/_schedule calls): one
    # Timeout is born per yield in every modelled latency, so this is
    # the single most-allocated kernel object.
    def __init__(self, sim: "Simulation", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._scheduled = True
        self.delay = delay
        sim._seq += 1
        heappush(sim._heap, (sim._now + delay, NORMAL, sim._seq, self))


class Initialize(Event):
    """Internal: kicks off a newly created process at the current time."""

    __slots__ = ()

    def __init__(self, sim: "Simulation", process: "Process"):
        self.sim = sim
        self.callbacks = [process._resume]
        self._value = None
        self._ok = True
        self._scheduled = True
        sim._seq += 1
        heappush(sim._heap, (sim._now, URGENT, sim._seq, self))


class Process(Event):
    """A generator-driven simulated process.

    The generator yields :class:`Event` instances; the process suspends
    until each yielded event fires, then resumes with the event's value
    (or the exception thrown in, if the event failed).  The process object
    is itself an event that fires when the generator returns: its value is
    the generator's return value.
    """

    __slots__ = ("_generator", "_target", "name")

    # Flattened constructor: one Process (plus its Initialize kick-off
    # event, inlined below) is born per simulated activity.
    def __init__(self, sim: "Simulation", generator: Generator,
                 name: Optional[str] = None):
        if type(generator) is not GeneratorType and \
                not hasattr(generator, "throw"):
            raise SimulationError(
                f"process requires a generator, got {generator!r}")
        self.sim = sim
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._scheduled = False
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: the event this process is currently waiting on.
        self._target: Optional[Event] = None
        Initialize(sim, self)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The process must be alive.  Interrupting a process that is about
        to resume anyway is allowed; the interrupt wins.
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt dead process {self.name}")
        if self._target is self:
            raise SimulationError("process cannot interrupt itself")
        # Detach from the event we were waiting on so that the event's own
        # firing does not resume us a second time.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None
        interrupt_event = Event(self.sim)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event.callbacks.append(self._resume)
        self.sim._schedule(interrupt_event, URGENT)

    # -- internal -----------------------------------------------------------
    def _resume(self, event: Event) -> None:
        # Hottest kernel loop: one call per scheduled resume, one lap
        # per yield.  Property accesses are inlined and the generator is
        # held in a local on purpose.
        if self._value is not _PENDING:
            return  # already finished (e.g. raced interrupt)
        sim = self.sim
        generator = self._generator
        sim._active_process = self
        try:
            while True:
                try:
                    if event is None or event._ok:
                        value = None if event is None else event._value
                        target = generator.send(value)
                    else:
                        exc = event._value
                        target = generator.throw(exc)
                except StopIteration as stop:
                    self._target = None
                    self.succeed(stop.value)
                    return
                except (SystemExit, KeyboardInterrupt):
                    # a signal, not a process error: unwind the loop
                    raise
                except BaseException as exc:
                    # The generator raised (or re-raised an interrupt)
                    # without handling it: the process dies with that
                    # error.  If nothing is waiting on the process, the
                    # error is re-raised out of Simulation.step().
                    self._target = None
                    self.fail(exc)
                    return
                try:
                    # Only kernel events have a ``callbacks`` slot, so
                    # this doubles as the yielded-a-non-event check.
                    target_callbacks = target.callbacks
                except AttributeError:
                    exc = SimulationError(
                        f"process {self.name!r} yielded non-event "
                        f"{target!r}")
                    generator.close()
                    self._target = None
                    self.fail(exc)
                    return
                if target_callbacks is not None:
                    # Not yet processed: wait for it.
                    target_callbacks.append(self._resume)
                    self._target = target
                    return
                # Already processed: resume immediately with its value.
                event = target
        finally:
            sim._active_process = None


class ConditionEvent(Event):
    """Base for AllOf/AnyOf composite events.

    An event counts as settled for condition purposes only once it has
    been *processed* (its callbacks have run).  ``Timeout`` objects carry
    their value from creation, so testing ``triggered`` would make a
    future timeout look complete.
    """

    __slots__ = ("events", "_remaining")

    def __init__(self, sim: "Simulation", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        for ev in self.events:
            if ev.sim is not sim:
                raise SimulationError("cannot mix events across simulations")
        pending = [ev for ev in self.events if ev.callbacks is not None]
        self._remaining = len(pending)
        self._post_init()
        if not self.triggered:
            for ev in pending:
                ev.callbacks.append(self._on_fire)

    def _post_init(self) -> None:
        raise NotImplementedError

    def _on_fire(self, event: Event) -> None:
        self._remaining -= 1
        if not self.triggered:
            self._check(event)

    def _check(self, event: Event) -> None:
        raise NotImplementedError

    def _processed_events(self) -> list:
        return [ev for ev in self.events if ev.callbacks is None]

    def _values(self) -> dict:
        return {ev: ev._value for ev in self.events if ev.triggered}


class AllOf(ConditionEvent):
    """Fires when every component event has fired; fails on first failure."""

    __slots__ = ()

    def _post_init(self) -> None:
        for ev in self._processed_events():
            if ev._ok is False:
                self.fail(ev._value)
                return
        if self._remaining == 0:
            self.succeed(self._values())

    def _check(self, event: Event) -> None:
        if event._ok is False:
            self.fail(event._value)
        elif self._remaining == 0:
            self.succeed(self._values())


class AnyOf(ConditionEvent):
    """Fires when the first component event fires (success or failure).

    An empty AnyOf succeeds immediately (there is nothing to wait for).
    """

    __slots__ = ()

    def _post_init(self) -> None:
        done = self._processed_events()
        if done:
            self._settle(done[0])
        elif not self.events:
            self.succeed({})

    def _check(self, event: Event) -> None:
        self._settle(event)

    def _settle(self, event: Event) -> None:
        if event._ok is False:
            self.fail(event._value)
        else:
            self.succeed(self._values())


class Simulation:
    """The discrete-event loop and simulated clock.

    Typical use::

        sim = Simulation()

        def ping():
            yield sim.timeout(5)
            return "pong"

        proc = sim.process(ping())
        sim.run()
        assert sim.now == 5 and proc.value == "pong"
    """

    def __init__(self):
        self._now: float = 0.0
        self._heap: list = []
        self._seq: int = 0
        self._active_process: Optional[Process] = None
        #: count of events processed, for diagnostics.
        self.events_processed: int = 0

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    # -- factories -----------------------------------------------------------
    def event(self) -> Event:
        """Create an untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator,
                name: Optional[str] = None) -> Process:
        """Start a new process driving ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling ------------------------------------------------------------
    def _schedule(self, event: Event, priority: int,
                  delay: float = 0.0) -> None:
        if event._scheduled:
            raise SimulationError(f"{event!r} scheduled twice")
        event._scheduled = True
        self._seq += 1
        heapq.heappush(
            self._heap, (self._now + delay, priority, self._seq, event))

    # -- execution ---------------------------------------------------------------
    def step(self) -> None:
        """Process the single next event.  Raises IndexError when empty."""
        when, _priority, _seq, event = heappop(self._heap)
        self._now = when
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        self.events_processed += 1
        # A process that died with an unhandled exception and that nobody
        # was waiting on: surface the error instead of losing it.
        if (event._ok is False and not callbacks
                and isinstance(event, Process)):
            raise event._value

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._heap[0][0] if self._heap else float("inf")

    def run(self, until: Optional[float] = None) -> None:
        """Run until the event queue drains or ``until`` is reached.

        When ``until`` is given, the clock is advanced exactly to that
        time even if no event falls on it.
        """
        if until is not None and until < self._now:
            raise SimulationError(
                f"until={until!r} is in the past (now={self._now!r})")
        heap = self._heap
        step = self.step
        gc_was_enabled = gc.isenabled()
        gc.disable()  # see run_until_complete
        try:
            while heap:
                if until is not None and heap[0][0] > until:
                    break
                step()
        finally:
            if gc_was_enabled:
                gc.enable()
        if until is not None and self._now < until:
            self._now = until

    def run_until_complete(self, event: Event,
                           limit: Optional[float] = None) -> Any:
        """Run until ``event`` fires; return its value or raise its error.

        ``limit`` bounds simulated time as a safety net against deadlock;
        exceeding it raises :class:`SimulationError`.
        """
        # The main driver loop: step() is inlined here (and the event
        # counter batched) because this processes every event of a full
        # run -- per-event call overhead is the kernel's constant factor.
        # The kernel makes no reference cycles, so the cyclic collector
        # would only walk the live run: it waits (test_cyclic_garbage.py).
        heap = self._heap
        processed = 0
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            while event.callbacks is not None:  # i.e. not yet processed
                if not heap:
                    raise SimulationError(
                        "event queue drained before target event fired "
                        "(deadlock?)")
                if limit is not None and heap[0][0] > limit:
                    raise SimulationError(
                        f"simulated time limit {limit} exceeded")
                when, _priority, _seq, ev = heappop(heap)
                self._now = when
                callbacks, ev.callbacks = ev.callbacks, None
                for callback in callbacks:
                    callback(ev)
                processed += 1
                if (ev._ok is False and not callbacks
                        and isinstance(ev, Process)):
                    raise ev._value
            # Let same-instant callbacks (bookkeeping) settle.
            now = self._now
            while heap and heap[0][0] <= now:
                when, _priority, _seq, ev = heappop(heap)
                self._now = when
                callbacks, ev.callbacks = ev.callbacks, None
                for callback in callbacks:
                    callback(ev)
                processed += 1
                if (ev._ok is False and not callbacks
                        and isinstance(ev, Process)):
                    raise ev._value
        finally:
            self.events_processed += processed
            if gc_was_enabled:
                gc.enable()
        if event._ok:
            return event._value
        raise event._value


# ---------------------------------------------------------------------------
# Shared-resource primitives
# ---------------------------------------------------------------------------


class _Request(Event):
    """A pending claim on a :class:`Resource` slot."""

    __slots__ = ("resource", "priority", "key")

    # Flattened constructor: one request per resource acquisition.
    def __init__(self, resource: "Resource", priority: float = 0.0):
        self.sim = resource.sim
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._scheduled = False
        self.resource = resource
        self.priority = priority
        resource._seq += 1
        self.key = (priority, resource._seq)

    def __lt__(self, other: "_Request") -> bool:
        return self.key < other.key

    def cancel(self) -> None:
        """Withdraw an ungranted request (e.g. after an interrupt)."""
        if self in self.resource._queue:
            self.resource._queue.remove(self)


class Resource:
    """A counted resource with ``capacity`` interchangeable slots.

    Processes call :meth:`request` and yield the returned event; when it
    fires the slot is held until :meth:`release` is called with the same
    request object.
    """

    def __init__(self, sim: Simulation, capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._users: set = set()
        self._queue: list = []
        self._seq = 0

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queued(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._queue)

    def request(self, priority: float = 0.0) -> _Request:
        """Claim a slot; the returned event fires when granted."""
        req = _Request(self, priority)
        # Keys (priority, seq) are unique, so keeping the queue sorted at
        # insert time grants in exactly the order the old sort-per-grant
        # did, without re-sorting the whole queue on every dispatch.
        insort(self._queue, req)
        self._dispatch()
        return req

    def release(self, request: _Request) -> None:
        """Return the slot held by ``request``."""
        if request not in self._users:
            raise SimulationError("releasing a request that holds no slot")
        self._users.discard(request)
        if self._queue:
            self._dispatch()

    def _dispatch(self) -> None:
        queue = self._queue
        users = self._users
        while queue and len(users) < self.capacity:
            req = queue.pop(0)
            users.add(req)
            req.succeed()


class Preempted(Exception):
    """Cause attached to the interrupt of a preempted resource holder."""

    def __init__(self, by: Any):
        super().__init__(by)
        self.by = by


class PriorityResource(Resource):
    """A resource whose wait queue is ordered by request priority.

    Lower ``priority`` values are served first.  (No slot preemption:
    queued order only.  Preemption of running work is modelled at the
    cluster layer instead, where it maps to worker eviction.)
    """


class Container:
    """A continuous store of a single substance (e.g. bytes of disk).

    ``put`` and ``get`` return events that fire when the requested amount
    could be added/removed without violating the bounds [0, capacity].
    """

    def __init__(self, sim: Simulation, capacity: float = float("inf"),
                 init: float = 0.0):
        if capacity <= 0:
            raise SimulationError("capacity must be positive")
        if not 0 <= init <= capacity:
            raise SimulationError("init outside [0, capacity]")
        self.sim = sim
        self.capacity = capacity
        self._level = init
        self._getters: list = []
        self._putters: list = []

    @property
    def level(self) -> float:
        return self._level

    def put(self, amount: float) -> Event:
        if amount < 0:
            raise SimulationError("negative put amount")
        ev = Event(self.sim)
        self._putters.append((ev, amount))
        self._dispatch()
        return ev

    def get(self, amount: float) -> Event:
        if amount < 0:
            raise SimulationError("negative get amount")
        ev = Event(self.sim)
        self._getters.append((ev, amount))
        self._dispatch()
        return ev

    def _dispatch(self) -> None:
        progress = True
        while progress:
            progress = False
            if self._putters:
                ev, amount = self._putters[0]
                if self._level + amount <= self.capacity:
                    self._putters.pop(0)
                    self._level += amount
                    ev.succeed(amount)
                    progress = True
            if self._getters:
                ev, amount = self._getters[0]
                if self._level - amount >= 0:
                    self._getters.pop(0)
                    self._level -= amount
                    ev.succeed(amount)
                    progress = True


class Store:
    """A FIFO queue of discrete items with optional capacity."""

    def __init__(self, sim: Simulation, capacity: float = float("inf")):
        if capacity <= 0:
            raise SimulationError("capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.items: list = []
        self._getters: list = []
        self._putters: list = []

    def put(self, item: Any) -> Event:
        ev = Event(self.sim)
        self._putters.append((ev, item))
        self._dispatch()
        return ev

    def get(self) -> Event:
        ev = Event(self.sim)
        self._getters.append(ev)
        self._dispatch()
        return ev

    def __len__(self) -> int:
        return len(self.items)

    def _dispatch(self) -> None:
        progress = True
        while progress:
            progress = False
            if self._putters and len(self.items) < self.capacity:
                ev, item = self._putters.pop(0)
                self.items.append(item)
                ev.succeed(item)
                progress = True
            if self._getters and self.items:
                ev = self._getters.pop(0)
                ev.succeed(self.items.pop(0))
                progress = True
