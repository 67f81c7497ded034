"""Indexed vs reference search: placements must be identical.

The capacity index (and the bundle free-link trees) replace every linear
placement scan; these tests pin the contract that makes that safe — on any
trace, each registered scheduler and its reference search
(:mod:`repro.schedulers.reference`, the paper's linear scans) produce the
*same* event stream (EventLog digest), the same summary (modulo wall-clock
scheduler time), and the same end state, for all four paper schedulers.
Random synthetic traces over seeds 0-19 cover steady-state behavior; an
oversubscribed tiny cluster exercises the drop + commit-rollback paths; a
checkpoint/rollback round-trip pins the index-rebuild path.
"""

import pytest

from repro.config import paper_default, tiny_test
from repro.schedulers import PAPER_SCHEDULERS
from repro.sim import DDCSimulator
from repro.types import ResourceType
from repro.workloads import SyntheticWorkloadParams, generate_synthetic
from tests.sim.reference_runs import run_sim


def run_both(spec, scheduler, vms, until=None):
    return {
        "indexed": run_sim(spec, scheduler, vms, until=until),
        "reference": run_sim(spec, scheduler, vms, reference=True, until=until),
    }


def assert_equivalent(out):
    idx_digest, idx_summary, idx_end, _ = out["indexed"]
    ref_digest, ref_summary, ref_end, _ = out["reference"]
    assert idx_digest == ref_digest
    assert idx_summary == ref_summary
    assert idx_end == ref_end


class TestRandomTraceEquivalence:
    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("scheduler", PAPER_SCHEDULERS)
    def test_all_paper_schedulers_bit_identical(self, scheduler, seed):
        """All four paper schedulers, seeds 0-19: index-invariant digests."""
        vms = generate_synthetic(SyntheticWorkloadParams(count=90), seed=seed)
        assert_equivalent(run_both(paper_default(), scheduler, vms))

    @pytest.mark.parametrize("scheduler", ["nulb_rack_affinity", "nalb_rack_affinity"])
    def test_rack_affinity_variants_bit_identical(self, scheduler):
        """The text-faithful same-rack-first variants take different index
        query paths (home-rack-first + exclusion); pin those too."""
        vms = generate_synthetic(SyntheticWorkloadParams(count=150), seed=4)
        assert_equivalent(run_both(paper_default(), scheduler, vms))


class TestOversubscriptionEquivalence:
    @pytest.mark.parametrize("scheduler", PAPER_SCHEDULERS)
    def test_drop_and_rollback_paths(self, scheduler):
        """An oversubscribed tiny cluster forces drops (and scheduler commit
        rollbacks); both searches must agree on every drop decision."""
        vms = generate_synthetic(SyntheticWorkloadParams(count=200), seed=1)
        out = run_both(tiny_test(), scheduler, vms)
        assert_equivalent(out)
        _, summary, _, _ = out["indexed"]
        assert summary["dropped_vms"] > 0  # the path is actually exercised

    def test_capacity_identical_after_run(self):
        """Post-run cluster/fabric state matches across searches; mid-trace,
        with VMs live, every brick and link matches too (digests record
        racks, not boxes, so this pins the box and link choices)."""
        vms = generate_synthetic(SyntheticWorkloadParams(count=150), seed=2)
        out = run_both(tiny_test(), "risa", vms)
        idx_sim, ref_sim = out["indexed"][3], out["reference"][3]
        for rtype in ResourceType:
            assert idx_sim.cluster.total_avail(rtype) == ref_sim.cluster.total_avail(rtype)
        assert (
            idx_sim.fabric.intra_rack_utilization()
            == ref_sim.fabric.intra_rack_utilization()
        )
        for scheduler in PAPER_SCHEDULERS:
            out = run_both(paper_default(), scheduler, vms, until=vms[100].arrival)
            idx_sim, ref_sim = out["indexed"][3], out["reference"][3]
            assert idx_sim.cluster.snapshot() == ref_sim.cluster.snapshot()
            assert idx_sim.fabric.snapshot() == ref_sim.fabric.snapshot()


class TestCheckpointRollback:
    @pytest.mark.parametrize("scheduler", ["risa", "nalb"])
    def test_rollback_rewinds_compute_and_network(self, scheduler):
        """checkpoint -> oversubscribe -> rollback leaves no trace, and the
        rebuilt indexes answer exactly as before the what-if run."""
        spec = tiny_test()
        all_vms = generate_synthetic(SyntheticWorkloadParams(count=120), seed=3)
        sim = DDCSimulator(spec, scheduler)
        sim.run(all_vms[:40], until=all_vms[39].arrival + 1.0)
        cp = sim.checkpoint()
        frontier_before = {
            rtype: sim.cluster.capacity_index.first_fit(rtype, 1)
            for rtype in ResourceType
        }
        # What-if: push the remaining trace through the loaded cluster.
        sim.run(all_vms[40:], stream=False)
        sim.rollback(cp)
        assert sim.cluster.snapshot() == cp.cluster
        assert sim.fabric.snapshot() == cp.fabric
        for rtype in ResourceType:
            assert (
                sim.cluster.capacity_index.first_fit(rtype, 1)
                is frontier_before[rtype]
            )

    def test_rollback_restores_tier_counters(self):
        spec = tiny_test()
        vms = generate_synthetic(SyntheticWorkloadParams(count=60), seed=5)
        sim = DDCSimulator(spec, "nulb")
        cp = sim.checkpoint()
        sim.run(vms, until=200.0)
        sim.rollback(cp)
        assert sim.fabric.intra_rack_utilization() == 0.0
        assert sim.fabric.inter_rack_utilization() == 0.0
