"""Service lifecycle: pumping, idling, checkpoint barrier, drain."""

import json
import math
import shutil

import pytest

from repro.bench.serve import serve_campaign
from repro.facility import Tenant
from repro.obs import events as ev
from repro.obs.txlog import read_records
from repro.serve import (CheckpointFolds, FacilityService, ServeClient,
                         ServiceError, checkpoint, restore_service,
                         run_campaign)

from .conftest import drive, make_env, small_workflow


class TestLifecycle:
    def test_submit_before_start_raises(self):
        async def body():
            service = FacilityService(make_env(), [Tenant("a")])
            with pytest.raises(ServiceError):
                await service.submit("a", small_workflow())

        drive(body())

    def test_submit_while_draining_raises(self):
        async def body():
            service = FacilityService(make_env(), [Tenant("a")])
            await service.start()
            service._stopping = True
            with pytest.raises(ServiceError):
                await service.submit("a", small_workflow())
            await service.drain()

        drive(body())

    def test_drain_with_no_submissions_completes(self):
        async def body():
            service = FacilityService(make_env(), [Tenant("a")])
            await service.start()
            result = await service.drain()
            assert result.completed
            assert service.result is result

        drive(body())

    def test_start_is_idempotent(self):
        async def body():
            service = FacilityService(make_env(), [Tenant("a")])
            await service.start()
            await service.start()
            await service.drain()

        drive(body())

    def test_progress_keys(self):
        async def body():
            service = FacilityService(make_env(), [Tenant("a")])
            await service.start()
            fut = await service.submit("a", small_workflow())
            await fut
            progress = service.progress()
            for key in ("t", "epoch", "submissions", "tasks_committed",
                        "checkpoints", "draining", "finished"):
                assert key in progress
            assert progress["epoch"] == 1
            assert progress["tasks_committed"] == 4
            await service.drain()

        drive(body())


class TestClockDiscipline:
    def test_drain_stops_at_completion_not_heap_exhaustion(self):
        """Regression: the heap always holds far-future background
        events (per-worker preemption clocks).  Draining must stop at
        the completion boundary, not fast-forward the clock through
        them -- that killed every worker and aborted the run."""
        async def body():
            service = FacilityService(make_env(), [Tenant("a")])
            await service.start()
            await (await service.submit("a", small_workflow()))
            result = await service.drain()
            assert result.completed
            assert result.run.error is None
            # preemption horizon is ~1/3e-6 s; completion is seconds
            assert service.sim.now < 1000.0

        drive(body())

    def test_idle_service_does_not_advance_clock(self):
        async def body():
            service = FacilityService(make_env(), [Tenant("a")])
            await service.start()
            fut = await service.submit("a", small_workflow())
            await fut
            t_done = service.sim.now
            # idle: nothing submitted, pump parked
            for _ in range(50):
                import asyncio
                await asyncio.sleep(0)
            assert service.sim.now == t_done
            await service.drain()

        drive(body())


class TestPumpFailure:
    def test_failure_fails_arrivals_still_in_the_inbox(self):
        """A pump failure fails every future, including arrivals not
        yet injected, so no client await hangs."""
        import asyncio

        def boom(n):
            raise RuntimeError("hook failed")

        async def body():
            service = FacilityService(make_env(), [Tenant("a")])
            service.on_task_done.append(boom)
            await service.start()
            first = await service.submit("a", small_workflow())
            later = await service.submit("a", small_workflow(), at=1e6)
            with pytest.raises(RuntimeError, match="hook failed"):
                await asyncio.wait_for(first, timeout=10)
            with pytest.raises(RuntimeError, match="hook failed"):
                await asyncio.wait_for(later.decision(), timeout=10)

        drive(body())


class TestCheckpointBarrier:
    def test_checkpoint_requires_txlog(self):
        async def body():
            service = FacilityService(make_env(), [Tenant("a")])
            await service.start()
            with pytest.raises(ServiceError):
                await service.checkpoint("nowhere.ckpt")
            await service.drain()

        drive(body())

    def test_checkpoint_stamps_record_and_writes_sidecar(self, tmp_path):
        txlog = tmp_path / "serve.jsonl"
        sidecar = tmp_path / "serve.ckpt"

        async def body():
            service = FacilityService(make_env(), [Tenant("a")],
                                      txlog_path=str(txlog))
            await service.start()
            await (await service.submit("a", small_workflow()))
            ckpt = await service.checkpoint(str(sidecar))
            assert service.checkpoints == 1
            assert service.last_checkpoint["path"] == str(sidecar)
            await service.drain()
            return ckpt

        ckpt = drive(body())
        assert sidecar.exists()
        on_disk = json.loads(sidecar.read_text())
        assert on_disk == ckpt
        assert sorted(ckpt["done"]) == [
            "a.0/accum", "a.0/proc-0", "a.0/proc-1", "a.0/proc-2"]
        stamps = [r for r in read_records(str(txlog))
                  if r["type"] == ev.CHECKPOINT]
        assert len(stamps) == 1
        assert stamps[0]["tasks_committed"] == 4

    def test_quiescent_checkpoint_commits_inflight_work(self, tmp_path):
        """The barrier drains running tasks: everything dispatched
        before the checkpoint is either committed in the sidecar or
        failed -- never silently in flight."""
        txlog = tmp_path / "serve.jsonl"
        sidecar = tmp_path / "serve.ckpt"

        async def body():
            service = FacilityService(make_env(), [Tenant("a")],
                                      txlog_path=str(txlog),
                                      slice_events=8)
            await service.start()
            fut = await service.submit("a", small_workflow())
            # let a few slices run, then checkpoint mid-campaign
            import asyncio
            for _ in range(6):
                await asyncio.sleep(0)
            ckpt = await service.checkpoint(str(sidecar))
            assert service.manager.inflight == 0
            await fut
            await service.drain()
            return ckpt

        ckpt = drive(body())
        committed = set(ckpt["done"])
        running_at_ckpt = set()  # nothing may be mid-pipeline
        assert committed <= {"a.0/proc-0", "a.0/proc-1", "a.0/proc-2",
                             "a.0/accum"}
        assert running_at_ckpt == set()


def _assert_fold_matches_log(service):
    """The service's live fold equals a batch fold of its own log."""
    live = service.checkpoint_folds
    batch = CheckpointFolds()
    batch.feed(read_records(service.txlog_path))
    assert live.done == batch.done
    assert live.resident == batch.resident
    assert live.discovered == batch.discovered
    for name in ("records", "exec_ok", "exec_failed", "makespan",
                 "transfer_total", "evictions"):
        assert (getattr(live.folds, name)
                == getattr(batch.folds, name)), name


def _cache_rows(fold):
    """A fold's residency in the sidecar's ``cache`` layout."""
    return {str(node): sorted([name, size]
                              for name, size in resident.items())
            for node, resident in sorted(fold.resident.items())
            if resident}


class TestLiveCheckpointFold:
    """A service folds its restore state live off the bus; at every
    checkpoint that fold must equal the batch fold of the log it
    recorded, in a campaign and in a restored epoch that checkpoints
    again."""

    def test_live_fold_equals_batch_fold(self, tmp_path, monkeypatch):
        compared = []
        build = checkpoint.build_checkpoint
        write = checkpoint.write_checkpoint

        def checked_build(service):
            _assert_fold_matches_log(service)
            compared.append(service.epoch)
            return build(service)

        def kept_write(ckpt, path):
            write(ckpt, path)
            shutil.copy(path, f"{path}.{len(compared)}")

        monkeypatch.setattr(checkpoint, "build_checkpoint", checked_build)
        monkeypatch.setattr(checkpoint, "write_checkpoint", kept_write)
        tenants, arrivals = serve_campaign(
            n_tenants=3, per_tenant=2, scale=0.02,
            arrival="poisson:0.05", seed=5, dynamic_every=3)
        sidecar = str(tmp_path / "serve.ckpt")
        first = f"{sidecar}.1"

        async def epoch1():
            service = FacilityService(
                make_env(2, seed=5), tenants,
                txlog_path=str(tmp_path / "e1.jsonl"),
                checkpoint_path=sidecar, checkpoint_every=10)
            await service.start()
            await run_campaign(service, arrivals, wait=False)
            assert (await service.drain()).completed
            return service.checkpoints, len(service.manager.done)

        checkpoints, n_tasks = drive(epoch1())
        assert checkpoints >= 3

        async def epoch2():
            # restore from the first checkpoint: most work is ahead
            service = await restore_service(
                first, make_env(2, seed=5), tenants,
                txlog_path=str(tmp_path / "e2.jsonl"),
                checkpoint_path=sidecar, checkpoint_every=10)
            # the re-reserved caches reached the fold as CACHE_PUTs
            with open(first) as fh:
                cache = json.load(fh)["cache"]
            assert cache
            assert _cache_rows(service.checkpoint_folds) == cache
            # the client resubmits what arrived after the checkpoint
            seen = {}
            for sub in service.facility.submissions.values():
                seen[sub.tenant] = seen.get(sub.tenant, 0) + 1
            late = []
            for tenant in sorted({a.tenant for a in arrivals}):
                mine = sorted((a for a in arrivals if a.tenant == tenant),
                              key=lambda a: a.t)
                late.extend(mine[seen.get(tenant, 0):])
            await run_campaign(service, late, wait=False)
            assert (await service.drain()).completed
            return len(service.manager.done)

        assert drive(epoch2()) == n_tasks
        assert compared.count(1) == checkpoints
        assert compared.count(2) >= 2


class TestServeClient:
    def test_client_binds_default_tenant(self):
        async def body():
            service = FacilityService(make_env(),
                                      [Tenant("a"), Tenant("b")])
            await service.start()
            client = ServeClient(service, "b")
            fut = await client.submit(small_workflow())
            summary = await fut
            assert summary["tenant"] == "b"
            assert not math.isnan(summary["turnaround"])
            await service.drain()

        drive(body())
