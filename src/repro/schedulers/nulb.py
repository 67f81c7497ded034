"""NULB — Network-Unaware Locality-Based scheduling (Zervas et al. 2018).

Algorithm 2 of the paper: find the most contended resource type by CR, take
the *first* box (global rack-major order) that fits that slice, then search
for the remaining slices with BFS.  Network phase: first available link per
hop; a compute or network failure drops the VM (no retry).

Interpretation note (DESIGN.md Section 5): the paper's prose says the BFS
looks "in the same rack" first, but its quantitative results — ~50 %
inter-rack assignments, 226 ns average CPU-RAM latency on Azure-3000 — are
only reproducible when the non-scarce resources are taken from the global
first-fit frontier (lowest box id anywhere), which is also what the paper's
criticism of NULB ("the way the compute resource search is prioritized ...
encourages inter-rack VM assignments") and toy example 1 describe.  We
therefore default to the global order and expose the strictly text-faithful
behaviour as ``rack_affinity = True`` (class attribute), under which
non-scarce slices prefer the scarce slice's rack.

Every box search is an O(log n) query against the cluster's capacity
index.  The paper's linear first-fit scans, which Figures 11-12 time, are
:class:`~repro.schedulers.reference.ReferenceNULB`.
"""

from __future__ import annotations

from typing import ClassVar, Mapping

from ..network import LinkSelectionPolicy
from ..topology import Box
from ..types import RESOURCE_ORDER, ResourceType
from ..workloads import ResolvedRequest
from .base import Placement, Scheduler
from .contention import most_contended


class NULBScheduler(Scheduler):
    """The network-unaware baseline (first-fit everywhere)."""

    name = "nulb"
    link_policy = LinkSelectionPolicy.FIRST_FIT
    #: When True, non-scarce slices search the scarce slice's rack first
    #: (the paper's prose); when False (default), they take the global
    #: first-fit frontier (the paper's measured behaviour).
    rack_affinity: ClassVar[bool] = False

    # ------------------------------------------------------------------ #
    # Box search (capacity-index queries; the paper's scans live in
    # ``reference.py``)
    # ------------------------------------------------------------------ #

    def _scarce_box(
        self, rtype: ResourceType, units: int, rack_filter: frozenset[int] | None
    ) -> Box | None:
        """The scarce slice's box: global (or filtered) first-fit frontier."""
        return self.cluster.capacity_index.first_fit_in_racks(rtype, units, rack_filter)

    def _neighbor_box(
        self,
        rtype: ResourceType,
        units: int,
        home_rack: int,
        rack_filter: frozenset[int] | None,
    ) -> Box | None:
        """A non-scarce slice's box, honoring the ``rack_affinity`` mode."""
        index = self.cluster.capacity_index
        if not self.rack_affinity:
            return index.first_fit_in_racks(rtype, units, rack_filter)
        # Text-faithful BFS: the scarce slice's rack first (unfiltered),
        # then outward by tier distance ring by ring (same pod, same spine
        # group, ...) — each ring is a handful of contiguous rack ranges,
        # answered by one O(log n) segment-tree query per run.  Two-tier
        # fabrics have a single ring (every remote rack), the legacy
        # frontier.
        box = index.first_fit_in_rack(rtype, units, home_rack)
        if box is not None:
            return box
        for ring in self.fabric.rack_rings(home_rack):
            box = index.first_fit_in_rack_runs(rtype, units, ring, rack_filter)
            if box is not None:
                return box
        return None

    # ------------------------------------------------------------------ #
    # Core allocation (shared with RISA's fallback)
    # ------------------------------------------------------------------ #

    def allocate(
        self,
        request: ResolvedRequest,
        rack_filter: Mapping[ResourceType, frozenset[int]] | None = None,
    ) -> Placement | None:
        """Run Algorithm 2 for one VM, optionally restricted per type to the
        SUPER_RACK lists.  Commits on success, returns None on drop."""
        units = request.units
        scarce = most_contended(self.cluster, units)

        def filter_for(rtype: ResourceType) -> frozenset[int] | None:
            if rack_filter is None:
                return None
            return rack_filter.get(rtype)

        scarce_box = self._scarce_box(scarce, units.get(scarce), filter_for(scarce))
        if scarce_box is None:
            return None
        home_rack = scarce_box.rack_index

        chosen: dict[ResourceType, Box] = {scarce: scarce_box}
        for rtype in RESOURCE_ORDER:
            if rtype is scarce:
                continue
            needed = units.get(rtype)
            if needed == 0:
                continue
            box = self._neighbor_box(rtype, needed, home_rack, filter_for(rtype))
            if box is None:
                return None
            chosen[rtype] = box

        cpu_box = chosen.get(ResourceType.CPU)
        ram_box = chosen.get(ResourceType.RAM)
        storage_box = chosen.get(ResourceType.STORAGE)
        if cpu_box is None or ram_box is None:
            return None
        return self._commit(request, cpu_box, ram_box, storage_box)

    def schedule(self, request: ResolvedRequest) -> Placement | None:
        """Schedule over the whole cluster."""
        return self.allocate(request, rack_filter=None)


class NULBRackAffinityScheduler(NULBScheduler):
    """NULB with the strictly text-faithful same-rack-first BFS."""

    name = "nulb_rack_affinity"
    rack_affinity = True
