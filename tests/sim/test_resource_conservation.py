"""Resource conservation through whole simulations, checked by a scan oracle.

Each run keeps the ``REPRO_VERIFY_TOTALS`` oracle on (every utilization
read re-scans the boxes and the rack maxima table) and is stopped mid-trace
so :mod:`tests.sim.state_oracle` can re-derive every cached quantity from
the boxes and links.  A run that drains its trace must hand back every unit
and every Gb/s it took, through drops and commit rollbacks on an
oversubscribed cluster as well.  Checkpoint continuations and rollbacks
must leave no trace.
"""

import pytest

from repro.config import paper_default, tiny_test
from repro.schedulers import PAPER_SCHEDULERS
from repro.sim import DDCSimulator, EventLog
from repro.topology import cluster as cluster_module
from repro.types import ResourceType
from repro.workloads import SyntheticWorkloadParams, generate_synthetic
from tests.sim.state_oracle import assert_all_released, assert_consistent


@pytest.fixture(autouse=True)
def _verify_totals(monkeypatch):
    monkeypatch.setattr(cluster_module, "_VERIFY_TOTALS", True)


def trace(count, seed):
    return generate_synthetic(SyntheticWorkloadParams(count=count), seed=seed)


def run_with_midpoint_check(spec, scheduler, vms):
    """Run to the median arrival, check the state, then finish."""
    sim = DDCSimulator(spec, scheduler)
    sim.start_run(vms)
    sim.advance(until=sorted(vm.arrival for vm in vms)[len(vms) // 2])
    assert any(used for row in sim.cluster.snapshot() for used in row)
    assert_consistent(sim.cluster, sim.fabric)
    result = sim.finish()
    return sim, result


class TestRandomTraceConservation:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("scheduler", PAPER_SCHEDULERS)
    def test_all_paper_schedulers_release_everything(self, scheduler, seed):
        """All four paper schedulers, seeds 0-9: consistent mid-run, and
        everything placed is released by the end."""
        vms = trace(90, seed)
        sim, result = run_with_midpoint_check(paper_default(), scheduler, vms)
        summary = result.summary
        assert summary.scheduled_vms + summary.dropped_vms == len(vms)
        assert summary.scheduled_vms > 0
        assert_all_released(sim.cluster, sim.fabric)


class TestOversubscriptionConservation:
    @pytest.mark.parametrize("scheduler", PAPER_SCHEDULERS)
    def test_drop_and_rollback_paths(self, scheduler):
        """An oversubscribed tiny cluster forces drops (and scheduler commit
        rollbacks); a dropped VM must leave nothing reserved behind."""
        vms = trace(200, 1)
        sim, result = run_with_midpoint_check(tiny_test(), scheduler, vms)
        assert result.summary.dropped_vms > 0  # the path is actually exercised
        assert_all_released(sim.cluster, sim.fabric)

    def test_consistent_after_every_departure_run(self, monkeypatch):
        """The state matches the scan oracle after every batch of
        departures, not only at the checkpoints above."""
        original = DDCSimulator._handle_departure_batch
        checked = []

        def checking(self, batch):
            original(self, batch)
            assert_consistent(self.cluster, self.fabric)
            checked.append(len(batch))

        monkeypatch.setattr(DDCSimulator, "_handle_departure_batch", checking)
        sim = DDCSimulator(tiny_test(), "risa")
        result = sim.run(trace(150, 2))
        assert sum(checked) == result.summary.scheduled_vms > 0
        assert_all_released(sim.cluster, sim.fabric)


class TestForkRestoreConservation:
    @pytest.mark.parametrize("scheduler", PAPER_SCHEDULERS)
    def test_fork_continuation_bit_identical(self, scheduler):
        """Interrupt mid-trace, checkpoint, finish; then restore and replay
        the remainder: the continuation equals the straight-through run."""
        spec = tiny_test()
        vms = trace(120, 7)
        cut = sorted(vm.arrival for vm in vms)[60]
        log = EventLog()
        sim = DDCSimulator(spec, scheduler, event_log=log)
        sim.start_run(vms)
        sim.advance(until=cut)
        cp = sim.full_checkpoint()
        result = sim.finish()
        uninterrupted = (log.digest(), result.summary.as_dict())
        sim.restore_run(cp)
        assert_consistent(sim.cluster, sim.fabric)
        replay = sim.finish()
        replayed = (log.digest(), replay.summary.as_dict())
        for _, summary in (uninterrupted, replayed):
            summary.pop("scheduler_time_s")
        assert uninterrupted == replayed
        assert_all_released(sim.cluster, sim.fabric)

    def test_checkpoint_rollback_leaves_no_trace(self):
        """checkpoint -> oversubscribe -> rollback restores cluster, fabric,
        and rack maxima exactly."""
        spec = tiny_test()
        all_vms = trace(120, 3)
        sim = DDCSimulator(spec, "risa")
        sim.run(all_vms[:40], until=all_vms[39].arrival + 1.0)
        cp = sim.checkpoint()
        maxima_before = [
            [rack.max_avail(rtype) for rtype in ResourceType]
            for rack in sim.cluster.racks
        ]
        sim.run(all_vms[40:], stream=False)
        sim.rollback(cp)
        assert sim.cluster.snapshot() == cp.cluster
        assert sim.fabric.snapshot() == cp.fabric
        maxima_after = [
            [rack.max_avail(rtype) for rtype in ResourceType]
            for rack in sim.cluster.racks
        ]
        assert maxima_after == maxima_before
        assert_consistent(sim.cluster, sim.fabric)
