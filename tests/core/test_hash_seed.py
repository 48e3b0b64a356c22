"""A run's transaction log depends only on its inputs, not on the
per-process string hash (``PYTHONHASHSEED``).

Paper DAGs have one consumer per file, so the golden capture cannot
see dispatch order under fan-out.  Here one root task writes a file
that twelve leaves read: if any set of task ids decided the order in
which the leaves become ready, the four processes below would write
different logs.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

FAN_OUT_RUN = r"""
import sys
from repro.bench.runners import build_environment, run_scheduler
from repro.core.files import FileKind, SimFile
from repro.core.spec import SimTask, SimWorkflow

files = [SimFile("in", 100e6, FileKind.INPUT),
         SimFile("mid", 50e6, FileKind.INTERMEDIATE)]
tasks = [SimTask(id="root", compute=2.0, inputs=("in",), outputs=("mid",))]
for i in range(12):
    files.append(SimFile(f"out-{i}", 1e6, FileKind.OUTPUT))
    tasks.append(SimTask(id=f"leaf-{i}", compute=0.5 + 0.1 * i,
                         inputs=("mid",), outputs=(f"out-{i}",)))
run_scheduler(build_environment(2, seed=11), SimWorkflow(tasks, files),
              "taskvine", txlog_path=sys.argv[1]).raise_for_status()
"""


def test_fan_out_txlog_is_independent_of_the_hash_seed(tmp_path):
    paths = [str(tmp_path / f"seed-{seed}.jsonl") for seed in (1, 2, 3, 4)]
    procs = [subprocess.Popen(
        [sys.executable, "-c", FAN_OUT_RUN, path],
        env=dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=str(seed)),
        stderr=subprocess.PIPE, text=True)
        for seed, path in zip((1, 2, 3, 4), paths)]
    for proc in procs:
        _out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
    logs = []
    for path in paths:
        with open(path, "rb") as fh:
            logs.append(fh.read())
    assert b'"completed":true' in logs[0].splitlines()[-1]
    assert all(log == logs[0] for log in logs[1:])
