"""Scaled-down smoke tests of every experiment driver.

The full-scale drivers run under ``pytest benchmarks/``; here each runs
at toy scale so ``pytest tests/`` exercises the same code paths in
seconds.
"""

import numpy as np
import pytest

from repro.bench import experiments as ex


@pytest.fixture(scope="module", autouse=True)
def fresh_cache():
    ex._STACK_CACHE.clear()
    yield
    ex._STACK_CACHE.clear()


pytestmark = pytest.mark.slow


class TestScaledDrivers:
    def test_table1_small_cluster(self):
        rows = ex.table1(n_workers=10, seed=2)
        assert len(rows) == 4
        runtimes = [r["runtime_s"] for r in rows]
        assert runtimes[3] < runtimes[0]

    def test_fig7_shapes(self):
        data = ex.fig7(n_workers=10, seed=2)
        assert (data["workqueue"]["manager_total_gb"]
                > 100 * data["taskvine"]["manager_total_gb"])

    def test_fig8_distribution(self):
        data = ex.fig8(n_workers=10, seed=2)
        assert (data["standard_tasks"]["median"]
                > data["function_calls"]["median"])

    def test_fig10_two_points(self):
        rows = ex.fig10(n_tasks=500, complexities=(0.125, 32),
                        n_workers=4, cores=8)
        assert rows[0]["speedup_local"] > rows[-1]["speedup_local"]

    def test_fig11_scaled(self):
        data = ex.fig11(n_workers=15, n_datasets=20, seed=11)
        assert data["tree"]["makespan"] < data["flat"]["makespan"]

    def test_fig12_series_lengths(self):
        data = ex.fig12(n_workers=10, seed=2, until=100, step=20)
        assert len(data["t"]) == 6
        for stack in (1, 2, 3, 4):
            assert len(data[f"stack{stack}"]["running"]) == 6

    def test_fig14a_single_point(self):
        rows = ex.fig14a(core_counts=(60,), seed=2)
        assert len(rows) == 2  # Small + Medium
        assert all(r["taskvine_s"] > 0 for r in rows)

    def test_fig14b_single_point(self):
        rows = ex.fig14b(core_counts=(240,), seed=2)
        assert len(rows) == 2
        assert all(r["completed"] for r in rows)

    def test_stack_cache_memoises(self):
        ex.stack_run(4, n_workers=10, seed=2)
        assert (4, 10, 2, "DV3-Large") in ex._STACK_CACHE
        # second call returns the identical object
        first, _ = ex.stack_run(4, n_workers=10, seed=2)
        second, _ = ex.stack_run(4, n_workers=10, seed=2)
        assert first is second
