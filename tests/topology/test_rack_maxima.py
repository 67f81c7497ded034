"""The cluster's rack maxima table and atomic occupancy restores.

The table (``Cluster.rack_maxima``) is what RISA's INTRA_RACK_POOL and
SUPER_RACK tests read, so after every mutation — allocate, release, batched
release, drain, restore — each ``(type, rack)`` entry must equal the
largest availability among that rack's boxes of the type.  The oracle here
is a plain scan over the boxes, independent of the incremental updates.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import paper_default, pod_scale, tiny_test, vl2
from repro.errors import NetworkAllocationError, TopologyError
from repro.experiments.scenarios import PodFailure
from repro.network import NetworkFabric
from repro.sim import DDCSimulator
from repro.topology import build_cluster
from repro.topology import cluster as cluster_module
from repro.types import RESOURCE_ORDER, ResourceVector
from repro.workloads import SyntheticWorkloadParams, generate_synthetic

PRESETS = {"tiny": tiny_test, "paper": paper_default, "vl2": vl2}
_CLUSTERS = {}


def fresh_cluster(preset):
    """A new cluster of ``preset`` (specs are built once per preset)."""
    if preset not in _CLUSTERS:
        _CLUSTERS[preset] = PRESETS[preset]()
    return build_cluster(_CLUSTERS[preset])


def assert_table_matches_scan(cluster):
    table = cluster.rack_maxima()
    for tpos, rtype in enumerate(RESOURCE_ORDER):
        for rack in cluster.racks:
            expected = max((b.avail_units for b in rack.boxes(rtype)), default=0)
            assert table[tpos][rack.index] == expected, (rtype, rack.index)
            assert rack.max_avail(rtype) == expected
        assert cluster.verify_totals(rtype)


OPS = ("alloc", "alloc", "alloc", "release", "batch", "drain", "snapshot", "restore")


@settings(max_examples=40, deadline=None)
@given(preset=st.sampled_from(sorted(PRESETS)), data=st.data())
def test_table_tracks_every_mutation(preset, data):
    cluster = fresh_cluster(preset)
    boxes = cluster.all_boxes()
    receipts = []
    saved = None
    for _ in range(data.draw(st.integers(1, 40), label="steps")):
        op = data.draw(st.sampled_from(OPS), label="op")
        if op == "alloc":
            box = boxes[data.draw(st.integers(0, len(boxes) - 1), label="box")]
            units = data.draw(st.integers(1, box.capacity_units), label="units")
            if box.can_fit(units):
                receipts.append(box.allocate(units))
        elif op == "release" and receipts:
            i = data.draw(st.integers(0, len(receipts) - 1), label="receipt")
            receipt = receipts.pop(i)
            cluster.box(receipt.box_id).release(receipt)
        elif op == "batch" and receipts:
            sizes = data.draw(
                st.lists(st.integers(1, 3), min_size=1, max_size=4), label="groups"
            )
            groups = []
            for size in sizes:
                group = tuple(receipts[:size])
                del receipts[:size]
                if group:
                    groups.append(group)
            rows = cluster.apply_release_batch(groups)
            assert len(rows) == len(groups)
            assert rows[-1] == [cluster.utilization(t) for t in RESOURCE_ORDER]
        elif op == "drain":
            rack = data.draw(st.integers(0, cluster.num_racks - 1), label="rack")
            cluster.drain_racks([rack])
        elif op == "snapshot":
            saved = (cluster.snapshot(), list(receipts))
        elif op == "restore" and saved is not None:
            cluster.restore(saved[0])
            receipts = list(saved[1])
        assert_table_matches_scan(cluster)


def test_batched_release_rows_follow_each_departure():
    cluster = fresh_cluster("tiny")
    cpu = cluster.rack(0).boxes(RESOURCE_ORDER[0])[0]
    ram = cluster.rack(1).boxes(RESOURCE_ORDER[1])[0]
    first = (cpu.allocate(4), ram.allocate(2))
    second = (cpu.allocate(1),)
    expected = []
    for group in (first, second):
        for receipt in group:
            cluster.box(receipt.box_id).release(receipt)
        expected.append([cluster.utilization(t) for t in RESOURCE_ORDER])
    for group in (first, second):  # replay the same releases as one batch
        for receipt in group:
            cluster.box(receipt.box_id).allocate(receipt.units)
    assert cluster.apply_release_batch([first, second]) == expected
    assert_table_matches_scan(cluster)


def test_batched_release_onto_drained_rack_stays_drained():
    cluster = fresh_cluster("tiny")
    box = cluster.rack(0).boxes(RESOURCE_ORDER[0])[0]
    receipt = box.allocate(3)
    cluster.drain_racks([0])
    cluster.apply_release_batch([(receipt,)])
    assert box.avail_units == 0
    assert cluster.rack(0).max_avail(RESOURCE_ORDER[0]) == 0
    assert not cluster.rack(0).can_host(ResourceVector(cpu=1, ram=0, storage=0))
    assert_table_matches_scan(cluster)


def test_rack_max_drops_with_its_box():
    cluster = fresh_cluster("tiny")
    cluster.rack(0).boxes(RESOURCE_ORDER[0])[0].allocate(5)
    assert cluster.rack(0).max_avail(RESOURCE_ORDER[0]) == 3
    assert cluster.capacity_index.rack_max_avail(RESOURCE_ORDER[0], 0) == 3


def test_verify_totals_oracle_flags_a_stale_table():
    cluster = fresh_cluster("tiny")
    cluster.rack_maxima()[0][1] += 1
    assert not cluster.verify_totals(RESOURCE_ORDER[0])


def test_simulation_keeps_the_table_exact(monkeypatch):
    """With the ``REPRO_VERIFY_TOTALS`` oracle on, every utilization read
    of a pod-failure run re-scans the boxes — including reads taken after
    batched releases onto the drained pod."""
    monkeypatch.setattr(cluster_module, "_VERIFY_TOTALS", True)
    vms = generate_synthetic(SyntheticWorkloadParams(count=300), seed=2)
    sim = DDCSimulator(pod_scale(), "risa")
    sim.schedule_fault(sorted(vm.arrival for vm in vms)[100], PodFailure(0))
    sim.run(vms)
    assert sim.cluster.drained_racks
    assert_table_matches_scan(sim.cluster)


class TestAtomicRestore:
    """A corrupt snapshot must fail before anything is written."""

    def _busy_cluster(self):
        cluster = fresh_cluster("paper")
        for rack in (0, 3, 7):
            for rtype in RESOURCE_ORDER:
                cluster.rack(rack).boxes(rtype)[0].allocate(5)
        cluster.drain_racks([2])
        return cluster

    @pytest.mark.parametrize("bad_row", ("short", "negative", "overfull"))
    def test_cluster_bad_row_changes_nothing(self, bad_row):
        cluster = self._busy_cluster()
        before = cluster.snapshot()
        corrupt = [tuple(0 for _ in row) for row in before]  # a valid rewind...
        last = len(corrupt) - 1
        if bad_row == "short":
            corrupt[last] = corrupt[last][:-1]
        elif bad_row == "negative":
            corrupt[last] = (-1,) + corrupt[last][1:]
        else:
            corrupt[last] = (10**6,) + corrupt[last][1:]
        with pytest.raises(TopologyError, match=f"box {last}"):
            cluster.restore(tuple(corrupt))  # ...spoiled by its last row
        assert cluster.snapshot() == before
        assert cluster.drained_racks == frozenset({2})
        assert_table_matches_scan(cluster)

    def test_cluster_wrong_length_changes_nothing(self):
        cluster = self._busy_cluster()
        before = cluster.snapshot()
        with pytest.raises(TopologyError, match="shape"):
            cluster.restore(before[:-1])
        assert cluster.snapshot() == before

    def test_fabric_bad_row_changes_nothing(self):
        spec = tiny_test()
        cluster = build_cluster(spec)
        fabric = NetworkFabric(spec, cluster)
        cpu = cluster.rack(0).boxes(RESOURCE_ORDER[0])[0]
        ram = cluster.rack(1).boxes(RESOURCE_ORDER[1])[0]
        assert fabric.allocate_flow(cpu.box_id, ram.box_id, 25.0) is not None
        before = fabric.snapshot()
        tiers_before = [fabric.tier_used_gbps(t) for t in fabric.tiers]
        corrupt = [0.0] * len(before)
        corrupt[-1] = -1.0
        with pytest.raises(NetworkAllocationError, match="negative occupancy"):
            fabric.restore(tuple(corrupt))
        assert fabric.snapshot() == before
        assert [fabric.tier_used_gbps(t) for t in fabric.tiers] == tiers_before
