"""Parallel-link bundles and link-selection policies.

Adjacent switches are connected by several parallel 200 Gb/s links.  The
baselines differ in how they pick one: NULB takes "the first available link",
NALB "the link with the most available bandwidth" (Section 4.1).  Both
policies are exposed here so schedulers can request either.

Selection does not scan the links: each bundle keeps a small max segment
tree over per-link availability (maintained through the links' change
listeners), so FIRST_FIT is a leftmost-fit descent and MOST_AVAILABLE a
pruned fold that reproduces a linear scan's epsilon tie-breaking exactly.
Aggregate used/available bandwidth is maintained incrementally, making
NALB's bandwidth sort keys O(1) reads.
"""

from __future__ import annotations

import enum

from ..errors import NetworkAllocationError
from ..topology.capacity_index import MaxSegmentTree
from .link import BANDWIDTH_EPS, Link


class LinkSelectionPolicy(enum.Enum):
    """How to choose a link within a bundle for a new circuit."""

    FIRST_FIT = "first_fit"  # NULB semantics
    MOST_AVAILABLE = "most_available"  # NALB semantics


class LinkBundle:
    """An ordered group of parallel links between the same two switches."""

    __slots__ = (
        "name",
        "links",
        "_capacity_gbps",
        "_used_gbps",
        "_pos",
        "_tree",
    )

    def __init__(self, name: str, links: list[Link]) -> None:
        if not links:
            raise NetworkAllocationError(f"bundle {name} has no links")
        self.name = name
        self.links = links
        self._capacity_gbps = sum(l.capacity_gbps for l in links)
        self._used_gbps = sum(l.used_gbps for l in links)
        self._pos = {id(link): pos for pos, link in enumerate(links)}
        self._tree = MaxSegmentTree([l.avail_gbps for l in links])
        for link in links:
            link.bind_listener(self._on_link_change)

    def _on_link_change(self, link: Link, delta_used: float) -> None:
        """Keep the aggregate and the free-link index in step with a link."""
        self._used_gbps += delta_used
        self._tree.update(self._pos[id(link)], link.avail_gbps)

    @property
    def capacity_gbps(self) -> float:
        """Aggregate capacity across the bundle."""
        return self._capacity_gbps

    @property
    def used_gbps(self) -> float:
        """Aggregate reserved bandwidth across the bundle (O(1))."""
        return self._used_gbps

    @property
    def avail_gbps(self) -> float:
        """Aggregate available bandwidth across the bundle (O(1))."""
        return self._capacity_gbps - self._used_gbps

    def set_link_capacities(self, capacities_gbps: tuple[float, ...] | list[float]) -> None:
        """Resize every member link, keeping the bundle aggregates and the
        free-link index consistent (the what-if oversubscription path).

        Capacity may shrink below a link's current reservation: existing
        circuits are grandfathered (their release accounting is unchanged)
        and the link simply offers no headroom until enough departs.  The
        aggregate capacity is recomputed with the construction-time fold, so
        perturb-then-restore round-trips are bit-exact.
        """
        if len(capacities_gbps) != len(self.links):
            raise NetworkAllocationError(
                f"bundle {self.name}: {len(capacities_gbps)} capacities for "
                f"{len(self.links)} links"
            )
        for capacity in capacities_gbps:
            if capacity <= 0:
                raise NetworkAllocationError(
                    f"link capacity must be positive, got {capacity}"
                )
        for pos, (link, capacity) in enumerate(zip(self.links, capacities_gbps)):
            link.capacity_gbps = capacity
            self._tree.update(pos, link.avail_gbps)
        self._capacity_gbps = sum(l.capacity_gbps for l in self.links)

    def max_link_avail_gbps(self) -> float:
        """Availability of the emptiest link (what a new circuit could get)."""
        return self._tree.max_all()

    def can_fit(self, demand_gbps: float) -> bool:
        """True when *some single link* can carry ``demand_gbps`` (circuits
        are not split across links)."""
        return self._tree.max_all() >= demand_gbps - BANDWIDTH_EPS

    def select(self, demand_gbps: float, policy: LinkSelectionPolicy) -> Link | None:
        """Pick a link able to carry ``demand_gbps`` under ``policy``;
        returns None when no single link fits (does not reserve)."""
        if policy is LinkSelectionPolicy.FIRST_FIT:
            pos = self._tree.leftmost_at_least(demand_gbps - BANDWIDTH_EPS)
        else:
            pos = self._tree.most_available(demand_gbps, BANDWIDTH_EPS)
        return None if pos is None else self.links[pos]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LinkBundle({self.name}, {len(self.links)} links)"

