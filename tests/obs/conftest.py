"""Shared txlog fixtures for the live-telemetry test suite.

The streaming == batch acceptance gate runs over three representative
logs -- a fig14b-scale run (DV3-Large at 200 workers, the dominant
component of the 2400-core point), a chaos run with mid-run
preemptions and re-executions, and the 8-tenant facility workload --
plus a small smoke run with a deliberately tight SLO policy so
SLO_ALERT records appear in-log.  The runs are seconds each but not
free, so every log is generated once per session and shared.
"""

import dataclasses

import pytest

from repro.bench import calibration as cal
from repro.bench.runners import build_environment, run_scheduler
from repro.bench.serve import serve_campaign
from repro.bench.workloads import build_workflow
from repro.chaos.scenario import PreemptionStorm, Scenario
from repro.facility import Facility
from repro.hep.datasets import TABLE2
from repro.obs.slo import SLOPolicy
from repro.obs.txlog import read_records

#: the smoke fixture's policy: thresholds chosen so the deadline rule
#: is certain to be violated and the queue rule certain to stay quiet
#: (tests assert both the alerts and their replay idempotency)
SMOKE_SLO_RULES = {
    "name": "tight",
    "rules": [
        {"name": "deadline", "kind": "makespan_deadline",
         "threshold": 1.0},
        {"name": "queue", "kind": "queue_wait_ceiling",
         "threshold": 1e9, "budget_fraction": 0.5},
    ],
}

#: lands mid-run for the chaos fixture's workload (see chaos_txlog)
STORM = Scenario("storm", (
    PreemptionStorm(at=0.3, fraction=0.6, duration=0.2),
), seed=13)


def _small_spec(n_tasks: int, name: str):
    return dataclasses.replace(TABLE2["DV3-Small"], name=name,
                               n_tasks=n_tasks, input_bytes=1.5e9)


@pytest.fixture(scope="session")
def smoke_txlog(tmp_path_factory):
    """Tiny DV3 run, SLO-monitored: alerts stamped into the log."""
    path = str(tmp_path_factory.mktemp("txlogs") / "smoke.jsonl")
    env = build_environment(4, seed=5)
    workflow = build_workflow(_small_spec(60, "live-smoke"),
                              arity=4, seed=5)
    result = run_scheduler(env, workflow, "taskvine", txlog_path=path,
                           slo_policy=SLOPolicy.from_dict(
                               SMOKE_SLO_RULES))
    result.raise_for_status()
    return path


@pytest.fixture(scope="session")
def chaos_txlog(tmp_path_factory):
    """A run with mid-run preemptions, failed attempts and retries."""
    path = str(tmp_path_factory.mktemp("txlogs") / "chaos.jsonl")
    env = build_environment(6, seed=9, preemption_rate=0.0)
    workflow = build_workflow(_small_spec(80, "live-chaos"),
                              arity=4, seed=9)
    result = run_scheduler(env, workflow, "taskvine", txlog_path=path,
                           chaos=STORM)
    result.raise_for_status()
    return path


@pytest.fixture(scope="session")
def facility8_txlog(tmp_path_factory):
    """8 tenants share one manager: DV3-Small x0.25 on 24 workers,
    one Poisson-arriving submission each."""
    path = str(tmp_path_factory.mktemp("txlogs") / "facility8.jsonl")
    tenants, arrivals = serve_campaign(
        n_tenants=8, per_tenant=1, workload="DV3-Small", scale=0.25,
        arrival="poisson:0.05", seed=11)
    result = Facility(build_environment(24, seed=11), tenants,
                      txlog_path=path).run(arrivals)
    result.run.raise_for_status()
    return path


@pytest.fixture(scope="session")
def fig14b_txlog(tmp_path_factory):
    """DV3-Large at 200 workers with function calls: the dominant
    component of the 2400-core Fig 14b point."""
    path = str(tmp_path_factory.mktemp("txlogs") / "fig14b.jsonl")
    spec = TABLE2["DV3-Large"]
    env = build_environment(
        200, node=cal.campus_node(disk=spec.worker_disk,
                                  ram=spec.worker_ram), seed=7)
    workflow = build_workflow(spec, arity=cal.REDUCTION_ARITY, seed=7)
    result = run_scheduler(env, workflow, "taskvine",
                           cal.TASKVINE_FUNCTIONS_CONFIG,
                           txlog_path=path)
    result.raise_for_status()
    return path


@pytest.fixture(scope="session")
def smoke_records(smoke_txlog):
    return list(read_records(smoke_txlog))


@pytest.fixture(scope="session")
def chaos_records(chaos_txlog):
    return list(read_records(chaos_txlog))


@pytest.fixture(scope="session")
def facility8_records(facility8_txlog):
    return list(read_records(facility8_txlog))
