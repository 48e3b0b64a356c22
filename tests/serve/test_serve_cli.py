"""Exit codes and --json payloads of ``python -m repro.serve``."""

import json
import os
import subprocess
import sys

import pytest

from repro.serve.checkpoint import (CheckpointError, load_checkpoint,
                                    workflow_from_dict,
                                    workflow_to_dict)

from .conftest import small_workflow

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def _serve(tmp, *argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-m", "repro.serve", *argv],
        cwd=str(tmp), env=env, capture_output=True, text=True,
        timeout=120)


SMALL = ["--tenants", "2", "--submissions", "1", "--workers", "2",
         "--scale", "0.02", "--seed", "7"]


class TestRunCommand:
    def test_completed_run_exits_zero_with_json(self, tmp_path):
        proc = _serve(tmp_path, "run", *SMALL,
                      "--txlog", "run.jsonl", "--json")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        for key in ("report", "summaries", "progress", "txlog",
                    "epoch"):
            assert key in payload
        assert payload["epoch"] == 1
        assert (tmp_path / "run.jsonl").exists()

    def test_unknown_workload_exits_two(self, tmp_path):
        proc = _serve(tmp_path, "run", "--workload", "NoSuchDV",
                      "--txlog", "run.jsonl")
        assert proc.returncode == 2
        assert "workload" in proc.stderr.lower()

    @pytest.mark.parametrize("flag,value", [
        ("--workers", "0"), ("--scale", "-1"), ("--tenants", "0"),
        ("--submissions", "0")])
    def test_out_of_range_number_exits_two(self, tmp_path, flag, value):
        proc = _serve(tmp_path, "run", *SMALL, flag, value,
                      "--txlog", "run.jsonl")
        assert proc.returncode == 2
        assert f"argument {flag}: must be > 0" in proc.stderr
        assert not (tmp_path / "run.jsonl").exists()

    def test_exit_after_tasks_dies_with_137(self, tmp_path):
        proc = _serve(tmp_path, "run", *SMALL,
                      "--txlog", "run.jsonl",
                      "--checkpoint", "run.ckpt",
                      "--checkpoint-every", "4",
                      "--exit-after-tasks", "10")
        assert proc.returncode == 137


class TestRestoreCommand:
    def test_missing_checkpoint_exits_two(self, tmp_path):
        proc = _serve(tmp_path, "restore",
                      "--checkpoint", "nowhere.ckpt",
                      "--txlog", "e2.jsonl")
        assert proc.returncode == 2
        assert "checkpoint" in proc.stderr.lower()

    def test_corrupt_checkpoint_exits_two(self, tmp_path):
        (tmp_path / "bad.ckpt").write_text("{not json")
        proc = _serve(tmp_path, "restore",
                      "--checkpoint", "bad.ckpt",
                      "--txlog", "e2.jsonl")
        assert proc.returncode == 2


class TestCheckpointCodec:
    def test_workflow_roundtrip(self):
        wf = small_workflow(dynamic=(1,))
        back = workflow_from_dict(workflow_to_dict(wf))
        assert sorted(back.tasks) == sorted(wf.tasks)
        for tid, task in wf.tasks.items():
            other = back.tasks[tid]
            assert other.inputs == task.inputs
            assert other.outputs == task.outputs
            assert other.dynamic_outputs == task.dynamic_outputs
            assert other.compute == task.compute
        assert {f.name: f.size for f in back.files.values()} == \
               {f.name: f.size for f in wf.files.values()}

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(str(tmp_path / "absent.ckpt"))

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("]")
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_load_rejects_future_version(self, tmp_path):
        path = tmp_path / "future.ckpt"
        path.write_text(json.dumps({
            "version": 999, "t": 0, "epoch": 1,
            "submissions": [], "done": {}, "cache": {}}))
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(str(path))
        assert "version" in str(err.value)

    def test_load_rejects_missing_keys(self, tmp_path):
        path = tmp_path / "partial.ckpt"
        path.write_text(json.dumps({"version": 1, "t": 0.0}))
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(str(path))
        assert "missing" in str(err.value)

    def test_malformed_workflow_journal(self):
        with pytest.raises(CheckpointError):
            workflow_from_dict({"tasks": [{"id": "x"}], "files": []})
