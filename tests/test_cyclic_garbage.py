"""The event kernel makes no reference cycles.

``Simulation.run_until_complete`` and ``Simulation.run`` pause CPython's
cyclic collector while they drain the heap (DESIGN.md, "Performance
engineering").  That is sound only while a run leaves no cyclic garbage:
a cycle made per event would pile up, uncollected, for a whole loop.

Each case runs a small simulation once to warm lazy imports, then again
with the collector off, and counts what a full collection finds
unreachable (``gc.DEBUG_SAVEALL`` keeps it in ``gc.garbage``).  The count
is taken while the run is still referenced: a dropped run is one large
cycle by design (events link back to their simulation, a waiting
process to its generator), and only a full collection frees it.  The
budget is zero.
"""

import asyncio
import collections
import gc
import itertools

import pytest

from repro.bench.runners import build_environment, run_scheduler
from repro.bench.serve import serve_campaign
from repro.bench.workloads import build_workflow, workload_spec
from repro.chaos.scenario import get_scenario
from repro.facility import Facility
from repro.obs.events import EventBus
from repro.obs.live import LiveAnalyzer
from repro.serve import FacilityService, restore_service
from repro.serve.client import run_campaign

#: 23 tasks on 4 workers: about 10 ms a run
SPEC = workload_spec("DV3-Small", 0.05)


def assert_cycle_free(run) -> None:
    """Fail, naming the types, if a full collection finds anything
    unreachable after ``run()`` while its return value is referenced."""
    run()
    gc.collect()
    was_enabled, debug = gc.isenabled(), gc.get_debug()
    gc.disable()
    try:
        kept = run()  # noqa: F841 -- referenced through the collection
        gc.garbage.clear()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        garbage = collections.Counter(type(o).__name__
                                      for o in gc.garbage)
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    assert not garbage, (f"{sum(garbage.values())} objects in "
                         f"reference cycles: {dict(garbage)}")


@pytest.fixture
def fresh_path(tmp_path):
    """A new file path under ``tmp_path`` on every call."""
    counter = itertools.count()
    return lambda name: str(tmp_path / f"{next(counter)}-{name}")


def small_campaign():
    return serve_campaign(n_tenants=2, per_tenant=2, scale=0.02,
                          arrival="poisson:0.05")


class TestZeroCyclicGarbage:
    def test_plain_run(self):
        def run():
            env = build_environment(4, seed=11)
            return env, run_scheduler(env, build_workflow(SPEC, seed=11))

        assert_cycle_free(run)

    def test_recorded_run(self, fresh_path):
        def run():
            bus = EventBus()
            env = build_environment(4, seed=11, bus=bus)
            live = LiveAnalyzer.install(bus)
            result = run_scheduler(env, build_workflow(SPEC, seed=11),
                                   txlog_path=fresh_path("run.jsonl"))
            assert live.progress()["tasks_ok"] == result.tasks_done
            return env, live, result

        assert_cycle_free(run)

    def test_chaos_run(self):
        def run():
            env = build_environment(4, seed=11)
            result = run_scheduler(env, build_workflow(SPEC, seed=11),
                                   chaos=get_scenario("preempt-storm-50"))
            assert result.chaos_injections
            return env, result

        assert_cycle_free(run)

    def test_batch_facility_run(self):
        def run():
            tenants, arrivals = small_campaign()
            facility = Facility(build_environment(4, seed=11), tenants)
            return facility, facility.run(arrivals)

        assert_cycle_free(run)

    def test_serve_campaign_with_restore(self, fresh_path):
        def run():
            tenants, arrivals = small_campaign()
            ckpt = fresh_path("serve.ckpt")

            async def first():
                service = FacilityService(
                    build_environment(4, seed=11), tenants,
                    txlog_path=fresh_path("serve.jsonl"),
                    checkpoint_path=ckpt, checkpoint_every=20)
                await service.start()
                futures = await run_campaign(service, arrivals)
                return service, futures, await service.drain()

            async def second():
                service = await restore_service(
                    ckpt, build_environment(4, seed=11), tenants,
                    txlog_path=fresh_path("restored.jsonl"))
                return service, await service.drain()

            served = asyncio.run(first())
            assert served[0].checkpoints == 1
            return served, asyncio.run(second())

        assert_cycle_free(run)
