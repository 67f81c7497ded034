"""Tests for NALB's bandwidth-aware modifications."""

import pytest

from repro.config import paper_default
from repro.network import LinkSelectionPolicy, NetworkFabric
from repro.schedulers import NALBScheduler, NULBScheduler
from repro.schedulers.reference import ReferenceNALB
from repro.topology import build_cluster
from repro.types import ResourceType
from repro.workloads import resolve
from tests.conftest import make_vm


@pytest.fixture
def env():
    spec = paper_default()
    cluster = build_cluster(spec)
    fabric = NetworkFabric(spec, cluster)
    return spec, cluster, fabric


def test_link_policy_is_most_available():
    assert NALBScheduler.link_policy is LinkSelectionPolicy.MOST_AVAILABLE
    assert NULBScheduler.link_policy is LinkSelectionPolicy.FIRST_FIT


def test_within_rack_boxes_sorted_by_uplink_bandwidth(env):
    spec, cluster, fabric = env
    reference = ReferenceNALB(spec, cluster, fabric)
    # Load box 0's uplinks in rack 0 (RAM boxes are ids per type order).
    ram0, ram1 = cluster.rack(0).boxes(ResourceType.RAM)
    for link in fabric.box_bundle(ram0.box_id).links:
        link.reserve(50.0)
    candidates = list(
        reference._neighbor_candidates(ResourceType.RAM, home_rack=0, rack_filter=None)
    )
    # Within rack 0 the unloaded box must now come first.
    rack0_candidates = [b for b in candidates if b.rack_index == 0]
    assert rack0_candidates[0] is ram1
    # The indexed search picks the same box without sorting the list.
    scheduler = NALBScheduler(spec, cluster, fabric)
    assert scheduler._neighbor_box(ResourceType.RAM, 1, 0, None) is ram1


def test_rack_major_frontier_preserved(env):
    """NALB keeps NULB's rack-major order between racks (default mode)."""
    spec, cluster, fabric = env
    reference = ReferenceNALB(spec, cluster, fabric)
    candidates = list(
        reference._neighbor_candidates(ResourceType.CPU, home_rack=0, rack_filter=None)
    )
    racks = [b.rack_index for b in candidates]
    assert racks == sorted(racks)


def test_circuits_spread_across_links(env):
    """NALB's network phase balances load across parallel links."""
    spec, cluster, fabric = env
    scheduler = NALBScheduler(spec, cluster, fabric)
    placements = [
        scheduler.schedule(resolve(make_vm(vm_id=i), spec)) for i in range(4)
    ]
    assert all(p is not None for p in placements)
    # The CPU-RAM circuits of consecutive VMs placed on the same boxes
    # should use distinct links under MOST_AVAILABLE.
    same_pair = [
        p for p in placements
        if (p.cpu.box_id, p.ram.box_id)
        == (placements[0].cpu.box_id, placements[0].ram.box_id)
    ]
    if len(same_pair) >= 2:
        assert same_pair[0].circuits[0].links[0] is not same_pair[1].circuits[0].links[0]


def test_nalb_matches_nulb_outcomes_on_fresh_cluster(env):
    """On an empty cluster the bandwidth sort is a no-op: NALB and NULB
    choose the same boxes (ties keep box-id order)."""
    spec, _, _ = env
    results = {}
    for cls in (NULBScheduler, NALBScheduler):
        cluster = build_cluster(spec)
        fabric = NetworkFabric(spec, cluster)
        scheduler = cls(spec, cluster, fabric)
        placement = scheduler.schedule(resolve(make_vm(), spec))
        results[cls.name] = (
            placement.cpu.box_id,
            placement.ram.box_id,
            placement.storage.box_id,
        )
    assert results["nulb"] == results["nalb"]
