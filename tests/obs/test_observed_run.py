"""Close ordering, stated once for the three entry points that assemble
a run through :class:`repro.obs.observed.ObservedRun`: ``run_scheduler``,
``Facility.run`` and the serve pump.

A run that finishes judges its SLOs before the footer, so the monitor's
alerts are exactly the log's SLO_ALERT records and the footer is the
run's result.  A run that raises still ends its log with a
``completed: false`` footer carrying the error.
"""

import asyncio
import os
import subprocess
import sys

import pytest

from repro.bench.runners import build_environment, run_scheduler
from repro.bench.serve import serve_campaign
from repro.bench.workloads import build_workflow, workload_spec
from repro.core.manager import TaskVineManager
from repro.facility import Facility
from repro.obs import events as ev
from repro.obs.slo import SLOPolicy
from repro.obs.txlog import read_records
from repro.serve import FacilityService, run_campaign

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")
POLICY = "examples/slo.json"
FOOTER_KEYS = ("completed", "makespan", "tasks_done", "task_failures",
               "error")


class Boom(RuntimeError):
    pass


def _single(path, policy=POLICY):
    # 202 tasks on 2 workers: examples/slo.json burns and recovers
    spec = workload_spec("DV3-Small", 0.5)
    result = run_scheduler(build_environment(2, seed=11),
                           build_workflow(spec, arity=4, seed=11),
                           "taskvine", txlog_path=path,
                           slo_policy=policy)
    return result, result


def _campaign():
    return serve_campaign(n_tenants=4, per_tenant=2, scale=0.25,
                          arrival="burst")


def _batch(path, policy=POLICY):
    tenants, arrivals = _campaign()
    result = Facility(build_environment(2, seed=11), tenants,
                      txlog_path=path, slo_policy=policy).run(arrivals)
    return result.run, result


def _served(path, policy=POLICY, hook=None):
    tenants, arrivals = _campaign()

    async def go():
        service = FacilityService(build_environment(2, seed=11), tenants,
                                  txlog_path=path, slo_policy=policy)
        if hook is not None:
            service.on_task_done.append(hook)
        await service.start()
        await run_campaign(service, arrivals, wait=False)
        return await service.drain()

    result = asyncio.run(go())
    return result.run, result


ENTRIES = [_single, _batch, _served]


@pytest.mark.parametrize("entry", ENTRIES)
def test_alerts_in_log_and_footer_equals_result(tmp_path, entry):
    path = str(tmp_path / "run.jsonl")
    run, result = entry(path)
    records = list(read_records(path))
    alerts = [{k: v for k, v in r.items() if k != "type"}
              for r in records if r["type"] == ev.SLO_ALERT]
    assert alerts, "the policy should fire on this run"
    assert alerts == result.slo_monitor.alerts
    footer = records[-1]
    assert footer["type"] == ev.RUN_END
    assert {k: footer[k] for k in FOOTER_KEYS} == {
        k: getattr(run, k) for k in FOOTER_KEYS}


def _raising_manager(monkeypatch):
    def run(self, limit=5e5):
        raise Boom("manager died")
    monkeypatch.setattr(TaskVineManager, "run", run)


def _raising_hook(count):
    if count >= 5:
        raise Boom("manager died")


@pytest.mark.parametrize("entry", ENTRIES)
def test_a_raising_run_footers_its_log_failed(tmp_path, monkeypatch,
                                              entry):
    path = str(tmp_path / "run.jsonl")
    if entry is _served:
        with pytest.raises(Boom):
            entry(path, hook=_raising_hook)
    else:
        _raising_manager(monkeypatch)
        with pytest.raises(Boom):
            entry(path)
    footer = list(read_records(path))[-1]
    assert footer["type"] == ev.RUN_END
    assert footer["completed"] is False
    assert footer["error"] == repr(Boom("manager died"))


def test_an_empty_policy_monitors_nothing_and_still_closes(tmp_path):
    path = str(tmp_path / "run.jsonl")
    run, _ = _single(path, policy=SLOPolicy())
    footer = list(read_records(path))[-1]
    assert footer["type"] == ev.RUN_END and footer["completed"] is True
    assert not run.slo_monitor.enabled


def test_an_unobserved_run_assembles_nothing():
    """Plain benchmark runs stay zero-cost: no assembly, SLO or chaos
    module is imported (checked in a fresh interpreter)."""
    probe = (
        "import sys\n"
        "from repro.bench.runners import build_environment, "
        "run_scheduler\n"
        "from repro.bench.workloads import build_workflow, "
        "workload_spec\n"
        "spec = workload_spec('DV3-Small', 0.02)\n"
        "run_scheduler(build_environment(2, seed=3),\n"
        "              build_workflow(spec, arity=4, seed=3))\n"
        "print(sorted(m for m in sys.modules if m.startswith(\n"
        "    ('repro.obs.observed', 'repro.obs.slo', 'repro.chaos'))))\n")
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True,
                         timeout=60).stdout
    assert out.strip() == "[]"
