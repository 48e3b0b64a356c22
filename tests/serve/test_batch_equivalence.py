"""Batch ``Facility.run`` and the serve pump are one run.

DESIGN.md ("Service architecture"): a campaign driven through the live
service is event-for-event identical to ``Facility.run`` on the same
trace.  The logs prove it record for record, footers included; only
the RUN headers differ (the service's carries ``epoch`` and ``serve``).
Event counts are not compared: the batch arrival process schedules
timeouts of its own.
"""

import asyncio

from repro.bench.runners import build_environment
from repro.bench.serve import serve_campaign
from repro.facility import Facility
from repro.obs import events as ev
from repro.obs.txlog import read_records
from repro.serve import FacilityService, run_campaign


def _campaign():
    return serve_campaign(n_tenants=4, per_tenant=2, scale=0.05,
                          arrival="burst", dynamic_every=3)


def test_serve_pump_writes_the_batch_records(tmp_path):
    batch_log = str(tmp_path / "batch.jsonl")
    tenants, arrivals = _campaign()
    Facility(build_environment(8, seed=11), tenants,
             txlog_path=batch_log).run(arrivals)

    served_log = str(tmp_path / "served.jsonl")
    tenants, arrivals = _campaign()

    async def serve():
        service = FacilityService(build_environment(8, seed=11), tenants,
                                  txlog_path=served_log)
        await service.start()
        await run_campaign(service, arrivals, wait=False)
        return await service.drain()

    assert asyncio.run(serve()).completed
    batch = list(read_records(batch_log))
    served = list(read_records(served_log))
    assert batch[0]["type"] == served[0]["type"] == ev.RUN
    assert {k: v for k, v in served[0].items()
            if k not in ("epoch", "serve")} == batch[0]
    assert served[-1]["type"] == ev.RUN_END
    assert served[1:] == batch[1:]
