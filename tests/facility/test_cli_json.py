"""``python -m repro.facility``: --json payload and exit codes.

The documented contract (module docstring of the CLI): 0 when the
campaign completed, 2 on unreadable input, 3 when the campaign ran
but did not finish.  These are in-process ``main()`` calls so the
suite stays fast; the subprocess/signal path is covered by
``tests/obs/test_signal_close.py``.
"""

import json
import signal

import pytest

from repro.facility.__main__ import (EXIT_INCOMPLETE, EXIT_OK,
                                     EXIT_UNREADABLE, main)

FAST = ["--tenants", "2", "--submissions", "1", "--scale", "0.02",
        "--workers", "2", "--arrival", "burst", "--no-baseline"]


@pytest.fixture(autouse=True)
def restored_handlers():
    # main() installs txlog signal handlers; don't leak them into the
    # rest of the suite
    saved = {sig: signal.getsignal(sig)
             for sig in (signal.SIGTERM, signal.SIGINT)}
    yield
    for sig, handler in saved.items():
        signal.signal(sig, handler)


class TestExitCodes:
    def test_completed_campaign_exits_zero(self, capsys):
        assert main(FAST) == EXIT_OK
        assert "FACILITY REPORT" in capsys.readouterr().out

    def test_unknown_workload_exits_two(self, capsys):
        code = main(FAST + ["--workload", "NoSuchDV"])
        assert code == EXIT_UNREADABLE
        assert "unknown workload" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--workers", "0"), ("--scale", "-1"), ("--tenants", "0"),
        ("--submissions", "0")])
    def test_out_of_range_number_exits_two(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(FAST + [flag, value])
        assert exc.value.code == EXIT_UNREADABLE
        assert f"argument {flag}: must be > 0" in capsys.readouterr().err

    def test_bad_arrival_replay_exits_two(self, capsys):
        code = main(FAST + ["--arrival", "replay:/does/not/exist"])
        assert code == EXIT_UNREADABLE
        assert "error" in capsys.readouterr().err

    def test_incomplete_campaign_exits_three(self, capsys,
                                             monkeypatch):
        """A campaign cut off by the simulation horizon is a DNF."""
        from repro.facility.facility import Facility
        real_run = Facility.run

        def horizon_cut(self, arrivals, **kwargs):
            kwargs["limit"] = 0.5  # sim-seconds: nothing finishes
            return real_run(self, arrivals, **kwargs)

        monkeypatch.setattr(Facility, "run", horizon_cut)
        code = main(FAST + ["--json"])
        assert code == EXIT_INCOMPLETE
        payload = json.loads(capsys.readouterr().out)
        assert payload["completed"] is False


class TestJsonPayload:
    def test_payload_shape(self, capsys):
        assert main(FAST + ["--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        for key in ("discipline", "completed", "makespan_s",
                    "tenants", "tasks_done", "task_failures",
                    "error"):
            assert key in payload
        assert payload["completed"] is True
        assert payload["error"] is None
        tenants = {row["tenant"] for row in payload["tenants"]}
        assert tenants == {"t0", "t1"}
        for row in payload["tenants"]:
            assert row["submitted"] == 1
            assert row["tasks_done"] > 0

    def test_json_mode_prints_nothing_else(self, capsys):
        """--json must emit exactly one JSON document on stdout --
        machine consumers pipe it straight into a parser."""
        main(FAST + ["--json"])
        out = capsys.readouterr().out
        json.loads(out)  # the whole stream is one document

    def test_slo_block_present_when_monitored(self, tmp_path, capsys):
        policy = tmp_path / "slo.json"
        policy.write_text(json.dumps({
            "rules": [{"name": "loose-deadline",
                       "kind": "makespan_deadline",
                       "threshold": 1e9}]}))
        code = main(FAST + ["--json", "--slo", str(policy)])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert "slo" in payload
