"""Bundle free-link indexes: indexed select must mirror a linear scan.

The per-bundle max segment tree answers FIRST_FIT by leftmost descent and
MOST_AVAILABLE by a pruned fold of the epsilon tie-breaking scan; random
reserve/free churn pins both policies, ``can_fit`` and
``max_link_avail_gbps`` to the plain linear-scan oracle below.  Also covers
the fabric-level release guard: tier under-accounting raises instead of
silently clamping.
"""

import random

import pytest

from repro.config import tiny_test
from repro.errors import NetworkAllocationError
from repro.network import Link, LinkBundle, LinkSelectionPolicy, NetworkFabric
from repro.network.link import BANDWIDTH_EPS
from repro.topology import build_cluster
from repro.types import LinkTier


def scan_select(links, demand, policy):
    """The linear link scan: first fitting link, or the most available one
    (a candidate must beat the running best by more than epsilon)."""
    if policy is LinkSelectionPolicy.FIRST_FIT:
        return next((link for link in links if link.can_fit(demand)), None)
    best, best_avail = None, -1.0
    for link in links:
        if link.avail_gbps > best_avail + BANDWIDTH_EPS and link.can_fit(demand):
            best, best_avail = link, link.avail_gbps
    return best


def make_bundle(n=6, capacity=100.0):
    links = [Link(i, LinkTier.INTRA_RACK, capacity, "box:0", "rack:0") for i in range(n)]
    return LinkBundle("bundle", links)


@pytest.mark.parametrize("policy", list(LinkSelectionPolicy))
@pytest.mark.parametrize("seed", range(5))
def test_select_equivalence_under_churn(policy, seed):
    """Property: random reserve/free sequences keep the indexed bundle
    choosing the link the linear scan chooses for the same demand."""
    rng = random.Random(seed)
    bundle = make_bundle()
    links = bundle.links
    reserved = []  # (link_pos, gbps)
    for _ in range(300):
        op = rng.random()
        if op < 0.5 and len(reserved) < 40:
            pos = rng.randrange(len(links))
            demand = rng.choice([0.0, 1.0, 2.5, 5.0, 10.0, 40.0])
            if links[pos].can_fit(demand):
                links[pos].reserve(demand)
                reserved.append((pos, demand))
        elif op < 0.8 and reserved:
            pos, demand = reserved.pop(rng.randrange(len(reserved)))
            links[pos].free(demand)
        demand = rng.choice([0.0, 1.0, 5.0, 25.0, 60.0, 99.0, 101.0])
        assert bundle.select(demand, policy) is scan_select(links, demand, policy)
        assert bundle.can_fit(demand) == any(link.can_fit(demand) for link in links)
        assert bundle.used_gbps == pytest.approx(sum(link.used_gbps for link in links))
        assert bundle.max_link_avail_gbps() == pytest.approx(
            max(link.avail_gbps for link in links)
        )


def test_select_does_not_scan_stale_state():
    """Direct link mutation (no bundle call in between) is still observed."""
    bundle = make_bundle(n=3)
    bundle.links[0].reserve(95.0)
    assert bundle.select(10.0, LinkSelectionPolicy.FIRST_FIT) is bundle.links[1]
    bundle.links[0].free(95.0)
    assert bundle.select(10.0, LinkSelectionPolicy.FIRST_FIT) is bundle.links[0]


class TestFabricReleaseGuard:
    def test_double_release_raises(self):
        spec = tiny_test()
        cluster = build_cluster(spec)
        fabric = NetworkFabric(spec, cluster)
        boxes = cluster.all_boxes()
        circuit = fabric.allocate_flow(boxes[0].box_id, boxes[1].box_id, 10.0)
        assert circuit is not None
        fabric.release(circuit)
        # The tier counter is now empty; releasing the same circuit again is
        # under-accounting and must raise, not clamp to zero.
        with pytest.raises(NetworkAllocationError):
            fabric.release(circuit)

    def test_tier_underflow_raises_even_when_links_hold_bandwidth(self):
        """The tier-level guard fires on its own: a circuit whose bandwidth
        was reserved outside the fabric's accounting releases fine at the
        link level but underflows the tier counter."""
        from repro.network import Circuit

        spec = tiny_test()
        cluster = build_cluster(spec)
        fabric = NetworkFabric(spec, cluster)
        bundle = fabric.box_bundle(cluster.all_boxes()[0].box_id)
        link = bundle.links[0]
        link.reserve(30.0)  # direct reservation: tier counter never saw it
        rogue = Circuit(
            links=(link,), demand_gbps=30.0, switch_ports=(64,), intra_rack=True
        )
        with pytest.raises(NetworkAllocationError):
            fabric.release(rogue)

    def test_sub_epsilon_residue_clamps_to_zero(self):
        spec = tiny_test()
        cluster = build_cluster(spec)
        fabric = NetworkFabric(spec, cluster)
        boxes = cluster.all_boxes()
        a, b = boxes[0].box_id, boxes[1].box_id
        for _ in range(50):
            circuit = fabric.allocate_flow(a, b, 0.1)
            fabric.release(circuit)
        assert fabric.tier_used_gbps(LinkTier.INTRA_RACK) == 0.0

    def test_fabric_snapshot_restore_round_trip(self):
        spec = tiny_test()
        cluster = build_cluster(spec)
        fabric = NetworkFabric(spec, cluster)
        boxes = cluster.all_boxes()
        snap = fabric.snapshot()
        circuit = fabric.allocate_flow(boxes[0].box_id, boxes[1].box_id, 25.0)
        assert circuit is not None
        assert fabric.snapshot() != snap
        fabric.restore(snap)
        assert fabric.snapshot() == snap
        assert fabric.tier_used_gbps(LinkTier.INTRA_RACK) == 0.0
        # Bundle aggregates and free-link indexes followed the restore.
        bundle = fabric.box_bundle(boxes[0].box_id)
        assert bundle.used_gbps == 0.0
        assert bundle.max_link_avail_gbps() == pytest.approx(
            spec.network.link_bandwidth_gbps
        )
