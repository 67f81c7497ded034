"""Randomized operation streams on live cluster and fabric state.

One random stream of box allocate/release, circuit reserve/release, batched
departures, and snapshot/restore is applied to a tiny cluster.  After every
step the scan oracle in :mod:`tests.sim.state_oracle` re-derives box
occupancy, cluster and rack totals, the rack maxima table, capacity-index
answers, bundle aggregates, free-link maxima and tier totals, and each
restore must reproduce its snapshot exactly.  A second stream drives two
identical worlds in lockstep, one releasing departures through the batch
entry points and one a receipt at a time; they must never diverge.
"""

import random

import pytest

from repro.config import tiny_test
from repro.sim import DDCSimulator
from repro.types import RESOURCE_ORDER
from tests.sim.state_oracle import assert_consistent

DEMANDS = (5.0, 12.5, 25.0, 50.0)
OPS = ("alloc", "free", "flow", "unflow", "depart", "checkpoint", "restore")
WEIGHTS = (30, 15, 25, 10, 10, 5, 5)


class World:
    """A cluster+fabric plus the receipts and circuits needed to undo."""

    def __init__(self):
        sim = DDCSimulator(tiny_test(), "risa")
        self.cluster = sim.cluster
        self.fabric = sim.fabric
        self.allocations = []
        self.circuits = []

    def observables(self):
        cluster, fabric = self.cluster, self.fabric
        return {
            "cluster": cluster.snapshot(),
            "fabric": fabric.snapshot(),
            "rack_max": [list(row) for row in cluster.rack_maxima()],
            "tiers": [fabric.tier_used_gbps(t) for t in fabric.tiers],
            "utils": [cluster.utilization(t) for t in RESOURCE_ORDER],
        }


def random_walk(seed, steps=250):
    """Apply one random stream to a world, checking it after every step."""
    rng = random.Random(seed)
    world = World()
    cluster, fabric = world.cluster, world.fabric
    box_ids = [b.box_id for b in cluster.all_boxes()]
    checkpoints = []
    exercised = set()

    for step in range(steps):
        op = rng.choices(OPS, weights=WEIGHTS)[0]
        if op == "alloc":
            box = cluster.box(rng.choice(box_ids))
            units = rng.choice((1, 3, 8, 16))
            if box.can_fit(units):
                world.allocations.append(box.allocate(units))
        elif op == "free" and world.allocations:
            receipt = world.allocations.pop(rng.randrange(len(world.allocations)))
            cluster.box(receipt.box_id).release(receipt)
        elif op == "flow":
            a, b = rng.sample(box_ids, 2)
            circuit = fabric.allocate_flow(a, b, rng.choice(DEMANDS))
            if circuit is not None:
                world.circuits.append(circuit)
        elif op == "unflow" and world.circuits:
            fabric.release(world.circuits.pop(rng.randrange(len(world.circuits))))
        elif op == "depart" and (world.allocations or world.circuits):
            # Up to three departures, each a pair of receipts and a circuit.
            groups, circuit_groups = [], []
            for _ in range(rng.randint(1, 3)):
                groups.append(tuple(world.allocations[:2]))
                del world.allocations[:2]
                circuit_groups.append(tuple(world.circuits[:1]))
                del world.circuits[:1]
            compute_rows = cluster.apply_release_batch(groups)
            net_rows = fabric.release_batch(circuit_groups)
            assert compute_rows[-1] == [cluster.utilization(t) for t in RESOURCE_ORDER]
            assert net_rows[-1] == [fabric.tier_utilization(t) for t in fabric.tiers]
        elif op == "checkpoint":
            checkpoints.append((cluster.snapshot(), fabric.snapshot()))
        elif op == "restore" and checkpoints:
            cluster_snap, fabric_snap = rng.choice(checkpoints)
            cluster.restore(cluster_snap)
            fabric.restore(fabric_snap)
            assert cluster.snapshot() == cluster_snap, f"step {step}"
            assert fabric.snapshot() == fabric_snap, f"step {step}"
            # Receipts straddling the restore are void; start fresh.
            world.allocations.clear()
            world.circuits.clear()
        else:
            continue
        exercised.add(op)
        assert_consistent(cluster, fabric)
    return exercised


@pytest.mark.parametrize("seed", range(4))
def test_random_walk_keeps_state_consistent(seed):
    assert random_walk(seed) == set(OPS)


def test_batched_and_single_releases_in_lockstep():
    """The batch entry points and one-at-a-time releases of the same
    departures leave identical state after every step."""
    rng = random.Random(99)
    batched, single = World(), World()
    box_ids = [b.box_id for b in batched.cluster.all_boxes()]
    departures = 0
    for step in range(300):
        if rng.random() < 0.7:
            box_id = rng.choice(box_ids)
            units = rng.choice((1, 2, 4))
            a, b = rng.sample(box_ids, 2)
            demand = rng.choice(DEMANDS)
            for w in (batched, single):
                box = w.cluster.box(box_id)
                if box.can_fit(units):
                    w.allocations.append(box.allocate(units))
                circuit = w.fabric.allocate_flow(a, b, demand)
                if circuit is not None:
                    w.circuits.append(circuit)
        else:
            k = rng.randint(1, 4)
            groups = [tuple(batched.allocations[i:i + 1]) for i in range(k)]
            circuit_groups = [tuple(batched.circuits[i:i + 1]) for i in range(k)]
            del batched.allocations[:k], batched.circuits[:k]
            batched.cluster.apply_release_batch(groups)
            batched.fabric.release_batch(circuit_groups)
            for receipt in single.allocations[:k]:
                single.cluster.box(receipt.box_id).release(receipt)
            for circuit in single.circuits[:k]:
                single.fabric.release(circuit)
            del single.allocations[:k], single.circuits[:k]
            departures += k
        assert batched.observables() == single.observables(), f"step {step}"
    assert departures > 0
    assert_consistent(batched.cluster, batched.fabric)
