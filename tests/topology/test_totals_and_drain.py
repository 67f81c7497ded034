"""Cluster running totals (the O(1) utilization contract) and rack drains."""

import pytest

import repro.topology.cluster as cluster_module
from repro.config import tiny_pod_test, tiny_test
from repro.errors import TopologyError
from repro.sim import DDCSimulator
from repro.topology import build_cluster
from repro.types import RESOURCE_ORDER, ResourceType
from repro.workloads import SyntheticWorkloadParams, generate_synthetic


class TestRunningTotals:
    def test_totals_match_scan_after_churn(self):
        """The incremental on_box_change totals equal a fresh box scan after
        an allocate/release/drain/restore workout."""
        sim = DDCSimulator(tiny_test(), "risa")
        vms = generate_synthetic(SyntheticWorkloadParams(count=80), seed=0)
        mid = sorted(vm.departure for vm in vms)[40]
        sim.run(vms, until=mid)
        cluster = sim.cluster
        for rtype in RESOURCE_ORDER:
            assert cluster.verify_totals(rtype)
        snap = cluster.snapshot()
        cluster.drain_racks(range(cluster.num_racks))
        for rtype in RESOURCE_ORDER:
            assert cluster.verify_totals(rtype)
            assert cluster.total_avail(rtype) == 0
            assert cluster.utilization(rtype) == 1.0
        cluster.restore(snap)
        for rtype in RESOURCE_ORDER:
            assert cluster.verify_totals(rtype)

    def test_debug_assert_scan_is_env_gated(self, monkeypatch):
        """REPRO_VERIFY_TOTALS=1 turns every utilization read into an
        asserted scan; corrupted totals then fail loudly."""
        cluster = build_cluster(tiny_test())
        monkeypatch.setattr(cluster_module, "_VERIFY_TOTALS", True)
        assert cluster.utilization(ResourceType.CPU) == 0.0  # scan agrees
        cluster._total_avail[ResourceType.CPU] -= 1  # corrupt the counter
        with pytest.raises(AssertionError, match="running totals diverged"):
            cluster.utilization(ResourceType.CPU)


class TestDrainRacks:
    def test_drain_blocks_new_placements_but_releases_survive(self):
        spec = tiny_pod_test(num_pods=2, racks_per_pod=2)
        sim = DDCSimulator(spec, "risa")
        vms = generate_synthetic(SyntheticWorkloadParams(count=40), seed=1)
        mid = sorted(vm.departure for vm in vms)[20]
        sim.run(vms, until=mid)
        cluster = sim.cluster
        lo, hi = cluster.pod_rack_range(0)
        drained = cluster.drain_racks(range(lo, hi))
        assert drained > 0
        for rack in cluster.pod_racks(0):
            for rtype in RESOURCE_ORDER:
                assert rack.max_avail(rtype) == 0
        # The capacity index agrees: nothing fits in the drained pod.
        for rtype in RESOURCE_ORDER:
            assert cluster.capacity_index.pod_max_avail(rtype, 0) == 0

    def test_drain_is_sticky_across_releases(self):
        """A tenant departing from a drained rack frees nothing: the drain
        re-occupies the units on the spot (a failed pod stays failed)."""
        cluster = build_cluster(tiny_test())
        box = cluster.racks[0].all_boxes()[0]
        receipt = box.allocate(1)
        cluster.drain_racks([0])
        assert cluster.drained_racks == {0}
        assert box.avail_units == 0
        box.release(receipt)  # the receipt releases cleanly...
        assert box.avail_units == 0  # ...but the drain holds the units
        for rtype in RESOURCE_ORDER:
            assert cluster.verify_totals(rtype)
            assert cluster.racks[0].max_avail(rtype) == 0

    def test_restore_lifts_drain_stickiness(self):
        """Restoring a pre-drain snapshot rewinds the stickiness too."""
        cluster = build_cluster(tiny_test())
        snap = cluster.snapshot()
        cluster.drain_racks([0])
        cluster.restore(snap)
        assert not cluster.drained_racks
        box = cluster.racks[0].all_boxes()[0]
        box.release(box.allocate(1))
        assert box.avail_units > 0

    def test_drain_unknown_rack_raises(self):
        cluster = build_cluster(tiny_test())
        with pytest.raises(TopologyError, match="no rack"):
            cluster.drain_racks([999])
        # Negative indices would wrap to a real rack but store an alias the
        # sticky re-drain check could never match; they are rejected.
        with pytest.raises(TopologyError, match="no rack"):
            cluster.drain_racks([-1])

    def test_drain_is_idempotent(self):
        cluster = build_cluster(tiny_test())
        first = cluster.drain_racks([0])
        assert first > 0
        assert cluster.drain_racks([0]) == 0
