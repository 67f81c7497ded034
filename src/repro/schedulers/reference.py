"""The paper's linear-scan searches, kept as reference schedulers.

Figures 11-12 time the algorithms *as the paper implemented them*: NULB and
RISA walk candidate boxes in order and take the first that fits, and NALB
sorts every candidate list by available uplink bandwidth before scanning
it.  The registered schedulers answer the same questions from the
cluster's capacity index in O(log n), which would erase the figures'
subject, so the timing drivers run these subclasses instead.  Each one
overrides only the box search of its indexed parent and keeps the parent's
``name``, so summaries and figure rows are keyed the same.  Link selection
and everything else are shared with the indexed classes.

These classes are not registered scheduler names (:data:`REFERENCE_SCHEDULERS`
maps each paper name to its class): pass an instance to
``DDCSimulator(spec, scheduler, cluster=..., fabric=...)``.  The
equivalence tests pin each one bit-identical to its indexed parent.
"""

from __future__ import annotations

from typing import Iterable

from ..topology import Box, Rack
from ..types import ResourceType
from .nalb import NALBScheduler
from .nulb import NULBScheduler
from .risa import RISABFScheduler, RISAScheduler


def _first_fit(candidates: Iterable[Box], units: int) -> Box | None:
    """First candidate able to hold ``units``."""
    for box in candidates:
        if box.can_fit(units):
            return box
    return None


class ReferenceNULB(NULBScheduler):
    """NULB with the paper's first-fit scans over ordered candidate boxes."""

    def _neighbor_candidates(
        self,
        rtype: ResourceType,
        home_rack: int,
        rack_filter: frozenset[int] | None,
    ) -> Iterable[Box]:
        """Boxes considered for a non-scarce slice, in search order.

        The rack-affinity BFS walks outward by tier distance: the home rack
        first, then the rings the fabric hierarchy defines (same pod, same
        spine group, ...), racks in index order within each ring.  A
        two-tier fabric has a single ring holding every remote rack, which
        is exactly the legacy "home rack, then global frontier" order.
        """
        if self.rack_affinity:
            yield from self.cluster.rack(home_rack).boxes(rtype)
            for ring in self.fabric.rack_rings(home_rack):
                for lo, hi in ring:
                    for rack_index in range(lo, hi):
                        if rack_filter is not None and rack_index not in rack_filter:
                            continue
                        yield from self.cluster.rack(rack_index).boxes(rtype)
            return
        for box in self.cluster.boxes(rtype):
            if rack_filter is not None and box.rack_index not in rack_filter:
                continue
            yield box

    def _scarce_box(
        self, rtype: ResourceType, units: int, rack_filter: frozenset[int] | None
    ) -> Box | None:
        boxes: Iterable[Box] = self.cluster.boxes(rtype)
        if rack_filter is not None:
            boxes = (b for b in boxes if b.rack_index in rack_filter)
        return _first_fit(boxes, units)

    def _neighbor_box(
        self,
        rtype: ResourceType,
        units: int,
        home_rack: int,
        rack_filter: frozenset[int] | None,
    ) -> Box | None:
        return _first_fit(self._neighbor_candidates(rtype, home_rack, rack_filter), units)


class ReferenceNALB(ReferenceNULB, NALBScheduler):
    """NALB with the paper's sort-then-scan over bandwidth-ordered boxes."""

    def _neighbor_candidates(
        self,
        rtype: ResourceType,
        home_rack: int,
        rack_filter: frozenset[int] | None,
    ) -> Iterable[Box]:
        if not self.rack_affinity:
            # Keep NULB's global rack-major frontier but reorder boxes
            # *within* each rack (one BFS depth tier) by available uplink
            # bandwidth — "reorders neighbors ... in descending order of
            # their available bandwidth" (Section 4.1).
            ordered: list[Box] = []
            for rack in self.cluster.racks:
                if rack_filter is not None and rack.index not in rack_filter:
                    continue
                ordered.extend(sorted(rack.boxes(rtype), key=self._box_sort_key))
            return ordered
        ordered = sorted(
            self.cluster.rack(home_rack).boxes(rtype), key=self._box_sort_key
        )
        for rack_index in self._remote_rack_order(home_rack, rack_filter):
            ordered.extend(
                sorted(self.cluster.rack(rack_index).boxes(rtype), key=self._box_sort_key)
            )
        return ordered


class ReferenceRISA(RISAScheduler):
    """RISA with the paper's scans of the chosen rack's boxes and a
    :class:`ReferenceNULB` inter-rack fallback."""

    fallback_class = ReferenceNULB

    def _pick_box(self, rack: Rack, rtype: ResourceType, units: int) -> Box | None:
        if units == 0:
            return None
        boxes = rack.boxes(rtype)
        if not self.best_fit:
            return _first_fit(boxes, units)
        best: Box | None = None
        for box in boxes:
            if box.can_fit(units) and (best is None or box.avail_units < best.avail_units):
                best = box
        return best


class ReferenceRISABF(ReferenceRISA, RISABFScheduler):
    """RISA-BF (Algorithm 3) with the paper's best-fit scan of the rack."""


#: The reference search of each paper scheduler, keyed by its ``name``.
REFERENCE_SCHEDULERS = {
    cls.name: cls for cls in (ReferenceNULB, ReferenceNALB, ReferenceRISA, ReferenceRISABF)
}
