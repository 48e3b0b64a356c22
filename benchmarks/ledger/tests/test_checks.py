"""Output checks, failure accounting, and the metric declarations."""

import json
import os
import re
from types import SimpleNamespace

from .. import cli
from ..layers import PER_LAYER
from ..workloads import PIN_SEED, PINNED, WORKLOADS

BENCHMARK_JSON = os.path.join(os.path.dirname(__file__), os.pardir,
                              os.pardir, os.pardir, "BENCHMARK.json")
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _benchmark():
    with open(BENCHMARK_JSON) as fh:
        return json.load(fh)


def test_every_metric_name_is_well_formed():
    names = [*cli.END_TO_END, *(m.name for m in PER_LAYER)]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)


def test_benchmark_json_declares_what_the_ledger_reports():
    doc = _benchmark()
    assert doc["run_seconds"] == cli.DEFAULT_SECONDS
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} \
        == cli.END_TO_END
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in PER_LAYER]


def _fig15_check(tasks_done, makespan, seed):
    workflow = SimpleNamespace(tasks=dict.fromkeys(range(10)))
    env = SimpleNamespace(sim=SimpleNamespace(events_processed=42))
    run = SimpleNamespace(completed=True, error=None, makespan=makespan,
                          tasks_done=tasks_done)
    return WORKLOADS["sim-fig15"].check((env, workflow), run, seed)


PINNED_MAKESPAN = PINNED["sim-fig15"]["sim_makespan_s"]


def test_a_complete_run_with_the_pinned_makespan_passes():
    result = _fig15_check(10, PINNED_MAKESPAN, PIN_SEED)
    assert result.problems == [] and result.failed == 0
    assert result.counters == {"sim.events": 42}


def test_missing_tasks_fail_the_check_and_count_as_failed():
    result = _fig15_check(7, PINNED_MAKESPAN, PIN_SEED)
    assert result.failed == 3 and result.attempted == 10
    assert any("7 of 10" in p for p in result.problems)


def test_the_makespan_pin_holds_for_its_seed_only():
    assert _fig15_check(10, 1.0, PIN_SEED).problems
    assert _fig15_check(10, 1.0, PIN_SEED + 1).problems == []


def test_a_histogram_off_by_one_bin_fails_the_iteration():
    from repro.hep.hist import Hist
    workload = WORKLOADS["real-iterate"]

    def hist(extra):
        h = Hist.new.Reg(4, 0.0, 4.0, name="x").Double()
        return h.fill(x=[0.5, 1.5] + extra)

    state = {"refs": {0.7: {"mass": hist([])}}, "events": 100}
    good = workload.check(state, {"cut": 0.7, "hists": {"mass": hist([])},
                                  "tasks": 3}, PIN_SEED)
    broken = workload.check(state, {"cut": 0.7,
                                    "hists": {"mass": hist([2.5])},
                                    "tasks": 3}, PIN_SEED)
    assert good.problems == [] and good.failed == 0
    assert broken.failed == 1 and "mass" in broken.problems[0]


def test_a_failed_check_makes_the_run_incorrect():
    ok = {"attempted": 10, "failed": 0, "problems": []}
    bad = {"attempted": 10, "failed": 10, "problems": ["broken"]}
    passed = cli._result("sim-fig15", 11, [ok], [], {"wall_s": 1.0}, {})
    failed = cli._result("sim-fig15", 11, [ok, bad], ["broken"],
                         {"wall_s": 1.0}, {})
    assert passed["correct"] and passed["detail"]["ops_failed_frac"] == 0
    assert not failed["correct"]
    assert failed["detail"]["ops_failed_frac"] == 0.5
    line = cli._line(failed)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"]["wall_s"] == {"value": 1.0, "unit": "s"}
