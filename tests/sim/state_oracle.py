"""An independent consistency oracle for live cluster and fabric state.

Every check here recomputes a cached quantity by a plain scan of the
objects it summarises and compares it with what the fast path keeps: box
occupancy against its bricks, cluster totals and the rack maxima table
against the boxes, capacity-index answers against a leftmost-fit scan, and
bundle aggregates, free-link maxima and tier totals against the links.
"""

from __future__ import annotations

import pytest

from repro.types import RESOURCE_ORDER

#: Unit demands the capacity index is probed with (leftmost fit).
INDEX_PROBES = (1, 3, 8, 16, 64)


def assert_cluster_consistent(cluster) -> None:
    index = cluster.capacity_index
    table = cluster.rack_maxima()
    for tpos, rtype in enumerate(RESOURCE_ORDER):
        boxes = cluster.boxes(rtype)
        for box in boxes:
            for brick in box.bricks:
                assert 0 <= brick.used_units <= brick.capacity_units, box.box_id
            assert box.used_units == sum(b.used_units for b in box.bricks), box.box_id
            assert box.avail_units == box.capacity_units - box.used_units
        assert cluster.total_avail(rtype) == sum(b.avail_units for b in boxes)
        for rack in cluster.racks:
            expected = max((b.avail_units for b in rack.boxes(rtype)), default=0)
            assert table[tpos][rack.index] == expected, (rtype, rack.index)
            assert rack.total_avail(rtype) == sum(
                b.avail_units for b in rack.boxes(rtype)
            )
        for units in INDEX_PROBES:
            scan = next((b for b in boxes if b.avail_units >= units), None)
            assert index.first_fit(rtype, units) is scan, (rtype, units)


def assert_fabric_consistent(fabric) -> None:
    by_tier = {tier: 0.0 for tier in fabric.tiers}
    for level in range(fabric.num_tiers):
        for bundle in fabric.tier_bundles(level):
            for link in bundle.links:
                assert 0.0 <= link.used_gbps <= link.capacity_gbps, link.link_id
                by_tier[link.tier] += link.used_gbps
            member_sum = sum(link.used_gbps for link in bundle.links)
            assert bundle.used_gbps == pytest.approx(member_sum, abs=1e-6)
            assert bundle.max_link_avail_gbps() == pytest.approx(
                max(link.avail_gbps for link in bundle.links), abs=1e-6
            )
    for tier in fabric.tiers:
        assert fabric.tier_used_gbps(tier) == pytest.approx(by_tier[tier], abs=1e-6)


def assert_consistent(cluster, fabric) -> None:
    assert_cluster_consistent(cluster)
    assert_fabric_consistent(fabric)


def assert_all_released(cluster, fabric) -> None:
    """Every unit and every Gb/s is free again (no drained racks)."""
    assert all(used == 0 for row in cluster.snapshot() for used in row)
    for rtype in RESOURCE_ORDER:
        assert cluster.total_avail(rtype) == cluster.total_capacity(rtype)
    assert fabric.snapshot() == pytest.approx((0.0,) * len(fabric.snapshot()), abs=1e-6)
    assert_consistent(cluster, fabric)
