"""One exit-code contract for every CLI (``repro.cli``; README "Exit
codes"), checked table-driven and in-process.

Bad input exits 2 with exactly one ``error:`` line on stderr and no
traceback -- and, where the command writes a transaction log, before
the log is created: an SLO policy is validated before anything opens.
"""

import signal

import pytest

from repro.bench.__main__ import main as bench_main
from repro.bench.runners import build_environment, run_scheduler
from repro.bench.serve import serve_campaign
from repro.bench.workloads import build_workflow, workload_spec
from repro.chaos.__main__ import main as chaos_main
from repro.cli import EXIT_INCOMPLETE, EXIT_UNREADABLE, InputError
from repro.facility import Facility
from repro.facility.__main__ import main as facility_main
from repro.serve import FacilityService
from repro.serve.__main__ import main as serve_main

MAINS = {"bench": bench_main, "chaos": chaos_main,
         "facility": facility_main, "serve": serve_main}

MISSING = "/nonexistent/slo.json"
SMALL = ["--scale", "0.02", "--workers", "2"]

#: (cli, argv, a word the error line names, writes a --txlog)
BAD_INPUT = [
    ("chaos", ["run", "--scenario", "nope"], "scenario", False),
    ("chaos", ["run", "--workload", "nope"], "workload", False),
    ("chaos", ["run", "--slo", MISSING], "SLO policy", False),
    ("bench", ["run", "--workload", "nope"], "workload", True),
    ("bench", ["run", "--chaos", "nope"], "scenario", True),
    ("bench", ["run", "--slo", MISSING], "SLO policy", True),
    ("bench", ["run", "--tenants", "2", "--arrival", "bogus"],
     "arrival", True),
    ("facility", ["--slo", MISSING], "SLO policy", True),
    ("facility", ["--workload", "nope"], "workload", True),
    ("facility", ["--arrival", "bogus"], "arrival", True),
    ("facility", ["--arrival", "replay:/does/not/exist"],
     "/does/not/exist", True),
    ("serve", ["run", "--slo", MISSING], "SLO policy", True),
    ("serve", ["run", "--arrival", "bogus"], "arrival", True),
    ("serve", ["run", "--workload", "nope"], "workload", True),
    ("serve", ["restore", "--checkpoint", "nowhere.ckpt"],
     "checkpoint", True),
]


@pytest.fixture(autouse=True)
def restored_handlers():
    # every main() installs the txlog signal handlers; don't leak them
    saved = {sig: signal.getsignal(sig)
             for sig in (signal.SIGTERM, signal.SIGINT)}
    yield
    for sig, handler in saved.items():
        signal.signal(sig, handler)


@pytest.mark.parametrize("cli,argv,names,writes_log", BAD_INPUT,
                         ids=[f"{c[0]}-{'-'.join(c[1])}"
                              for c in BAD_INPUT])
def test_bad_input_exits_two_with_one_error_line(
        tmp_path, capsys, cli, argv, names, writes_log):
    log = tmp_path / "run.jsonl"
    extra = ["--out", str(tmp_path)] if cli == "chaos" else []
    if writes_log:
        extra = ["--txlog", str(log)]
    if cli in ("bench", "facility") or argv[0] == "run":
        extra += SMALL
    assert MAINS[cli](argv + extra) == EXIT_UNREADABLE
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert names in lines[0]
    assert not log.exists()


def test_bench_run_that_does_not_complete_exits_three(capsys):
    # dask.distributed's crash envelope: 350 workers is a DNF
    code = bench_main(["run", "--scheduler", "dask.distributed",
                       "--workers", "350", "--scale", "0.02"])
    assert code == EXIT_INCOMPLETE
    assert "DNF" in capsys.readouterr().out


def _run_scheduler(path, policy):
    spec = workload_spec("DV3-Small", 0.02)
    run_scheduler(build_environment(2, seed=3),
                  build_workflow(spec, arity=4, seed=3), "taskvine",
                  txlog_path=path, slo_policy=policy)


def _facility(path, policy):
    tenants, _ = serve_campaign(n_tenants=2, per_tenant=1)
    Facility(build_environment(2, seed=3), tenants, txlog_path=path,
             slo_policy=policy)


def _service(path, policy):
    tenants, _ = serve_campaign(n_tenants=2, per_tenant=1)
    FacilityService(build_environment(2, seed=3), tenants,
                    txlog_path=path, slo_policy=policy)


@pytest.mark.parametrize("entry", [_run_scheduler, _facility, _service])
@pytest.mark.parametrize("text", [None, "{not json", "[]"],
                         ids=["missing", "not-json", "not-an-object"])
def test_bad_policy_is_a_typed_error_before_the_log_opens(
        tmp_path, entry, text):
    policy = MISSING
    if text is not None:
        policy = str(tmp_path / "bad.json")
        with open(policy, "w") as fh:
            fh.write(text)
    log = tmp_path / "run.jsonl"
    with pytest.raises(InputError, match="SLO policy"):
        entry(str(log), policy)
    assert not log.exists()
