"""The performance ledger still runs on this program.

The ledger (``benchmarks/ledger/``, declared by ``BENCHMARK.json``)
imports the facility, serve and restore entry points by name and
checks seed-11 pins of the serve campaign: a run exits 0 only when
every output check passed, 1 when one failed and 2 when a workload
process crashed (a renamed entry point, for instance).  One short
``serve-campaign`` run puts that contract into every tier-1 run.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..", "..")


def test_serve_campaign_runs_clean():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py",
         "--workload", "serve-campaign", "--seconds", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
