"""Departure batches and lazy gauges: checkpoint cuts inside deferred state.

The flat engine hands each run of consecutive departures to the simulator
as one batch, and the gauge bank defers integral folds into a pending
register.  Both regroup the same arithmetic, so a checkpoint / restore /
fork cut placed *inside* a deferred-gauge interval or *inside* a departure
burst — the two places where deferred state could leak across a snapshot
boundary — must leave every observable (event digest, summary, end time)
equal to the uncut run.  The uncut runs themselves are pinned by
``test_golden_runs.py``.
"""

import pytest

from repro.config import paper_default
from repro.network import NetworkFabric
from repro.schedulers import PAPER_SCHEDULERS, RISAScheduler
from repro.sim import DDCSimulator, EventLog
from repro.topology import build_cluster
from repro.workloads import SyntheticWorkloadParams, generate_synthetic


def trace(count=60, seed=0):
    return generate_synthetic(SyntheticWorkloadParams(count=count), seed=seed)


def masked(summary):
    d = summary.as_dict()
    d.pop("scheduler_time_s")  # wall clock: legitimately nondeterministic
    return d


def run_once(spec, scheduler, vms):
    log = EventLog()
    result = DDCSimulator(spec, scheduler, event_log=log).run(vms)
    return log.digest(), masked(result.summary), result.end_time


class TestCutsInsideDeferredState:
    """Checkpoint / restore / fork cuts where deferred state is in flight."""

    def _uncut(self, spec, scheduler, vms):
        return run_once(spec, scheduler, vms)

    def _mid_gauge_interval(self, vms):
        """A non-event time strictly between two arrivals: the gauge bank
        has an open pending interval (clock ahead of the last fold)."""
        times = sorted(vm.arrival for vm in vms)
        mid = len(times) // 2
        return (times[mid] + times[mid + 1]) / 2.0

    def _mid_departure_burst(self, vms):
        """A time inside the departure tail: the cut splits what would
        otherwise drain as a single batch."""
        departures = sorted(vm.departure for vm in vms)
        return departures[len(departures) // 2]

    @pytest.mark.parametrize("scheduler", PAPER_SCHEDULERS)
    @pytest.mark.parametrize("seed", range(5))
    def test_restore_inside_deferred_gauge_interval(self, scheduler, seed):
        """Checkpoint between events — mid pending-gauge interval — then
        finish, rewind, and re-finish: all three match the uncut run."""
        spec = paper_default()
        vms = trace(seed=seed)
        digest, summary, end = self._uncut(spec, scheduler, vms)
        log = EventLog()
        sim = DDCSimulator(spec, scheduler, event_log=log)
        sim.start_run(vms)
        sim.advance(until=self._mid_gauge_interval(vms))
        checkpoint = sim.full_checkpoint()
        first = sim.finish()
        assert log.digest() == digest
        assert masked(first.summary) == summary
        sim.restore_run(checkpoint)
        resumed = sim.finish()
        assert log.digest() == digest
        assert masked(resumed.summary) == summary
        assert resumed.end_time == end

    @pytest.mark.parametrize("scheduler", PAPER_SCHEDULERS)
    @pytest.mark.parametrize("seed", range(5))
    def test_restore_inside_departure_burst(self, scheduler, seed):
        """Cut the departure tail in half with an advance/checkpoint: the
        batch boundary forced by the cut must not change a bit."""
        spec = paper_default()
        vms = trace(seed=seed)
        digest, summary, end = self._uncut(spec, scheduler, vms)
        log = EventLog()
        sim = DDCSimulator(spec, scheduler, event_log=log)
        sim.start_run(vms)
        sim.advance(until=self._mid_departure_burst(vms))
        checkpoint = sim.full_checkpoint()
        first = sim.finish()
        assert log.digest() == digest
        assert masked(first.summary) == summary
        sim.restore_run(checkpoint)
        resumed = sim.finish()
        assert log.digest() == digest
        assert masked(resumed.summary) == summary
        assert resumed.end_time == end

    @pytest.mark.parametrize("scheduler", PAPER_SCHEDULERS)
    def test_fork_inside_departure_burst(self, scheduler):
        """A fork taken mid-burst and its parent both finish identically."""
        spec = paper_default()
        vms = trace(seed=3)
        digest, summary, end = self._uncut(spec, scheduler, vms)
        log = EventLog()
        sim = DDCSimulator(spec, scheduler, event_log=log)
        sim.start_run(vms)
        sim.advance(until=self._mid_departure_burst(vms))
        clone = sim.fork()
        clone_result = clone.finish()
        parent_result = sim.finish()
        assert clone.event_log.digest() == digest
        assert log.digest() == digest
        assert masked(clone_result.summary) == summary
        assert masked(parent_result.summary) == summary
        assert clone_result.end_time == parent_result.end_time == end

    @pytest.mark.parametrize("scheduler", PAPER_SCHEDULERS)
    def test_fork_at_gauge_quiescent_boundary(self, scheduler):
        """Fork exactly at an event time, where the pending gauge register
        was just folded (quiescent: clock == last fold).  Regression for
        ``GaugeBank.restore`` rebuilding the register state verbatim —
        a restore that re-folded or dropped the register would shift every
        later integral."""
        spec = paper_default()
        vms = trace(seed=11)
        digest, summary, end = self._uncut(spec, scheduler, vms)
        times = sorted(vm.arrival for vm in vms)
        log = EventLog()
        sim = DDCSimulator(spec, scheduler, event_log=log)
        sim.start_run(vms)
        sim.advance(until=times[len(times) // 2])  # events at the cut run
        clone = sim.fork()
        clone_result = clone.finish()
        parent_result = sim.finish()
        assert clone.event_log.digest() == digest
        assert log.digest() == digest
        assert masked(clone_result.summary) == summary
        assert masked(parent_result.summary) == summary
        assert clone_result.end_time == parent_result.end_time == end

    @pytest.mark.parametrize("scheduler", ("nulb", "nalb"))
    def test_fork_with_single_departure_batches(self, monkeypatch, scheduler):
        """Cuts agree with the uncut run when every departure arrives as
        its own batch — batch grouping and checkpoints must not interact."""
        spec = paper_default()
        vms = trace(seed=7)
        reference = self._uncut(spec, scheduler, vms)
        original = DDCSimulator._handle_departure_batch

        def one_at_a_time(self, batch):
            for event in batch:
                original(self, [event])

        monkeypatch.setattr(DDCSimulator, "_handle_departure_batch", one_at_a_time)
        log = EventLog()
        sim = DDCSimulator(spec, scheduler, event_log=log)
        sim.start_run(vms)
        sim.advance(until=self._mid_departure_burst(vms))
        clone = sim.fork()
        clone_result = clone.finish()
        parent_result = sim.finish()
        assert (log.digest(), masked(parent_result.summary),
                parent_result.end_time) == reference
        assert (clone.event_log.digest(), masked(clone_result.summary),
                clone_result.end_time) == reference


def test_overridden_release_is_called_per_departure():
    """A scheduler that overrides ``release`` keeps it: every departure goes
    through it, and the run still matches the stock batched release."""
    released = []

    class RecordingRISA(RISAScheduler):
        def release(self, placement):
            released.append(placement.vm_id)
            super().release(placement)

    spec = paper_default()
    vms = trace(seed=4)
    cluster = build_cluster(spec)
    fabric = NetworkFabric(spec, cluster)
    log = EventLog()
    sim = DDCSimulator(spec, RecordingRISA(spec, cluster, fabric),
                       cluster=cluster, fabric=fabric, event_log=log)
    result = sim.run(vms)
    assert len(released) == result.summary.scheduled_vms > 0
    assert (log.digest(), masked(result.summary), result.end_time) == run_once(
        spec, "risa", vms)
