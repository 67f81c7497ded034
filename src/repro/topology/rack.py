"""Racks — groups of single-resource boxes with per-type max-avail queries.

RISA's INTRA_RACK_POOL test needs, for every rack, "the boxes with the
maximum amount of each resource" (Section 4.2).  Those maxima live in one
table owned by the :class:`~repro.topology.cluster.Cluster` (per type, a
plain list indexed by rack) and maintained on every box change; a rack reads
its own column of that table, so it must be attached to a cluster before
answering max-avail queries.
"""

from __future__ import annotations

from ..errors import TopologyError
from ..types import RESOURCE_ORDER, ResourceType, ResourceVector
from .box import _TPOS, Box


class Rack:
    """A rack: per-type box lists plus availability aggregates."""

    __slots__ = (
        "index",
        "pod_index",
        "_boxes_by_type",
        "_total_avail",
        "_rack_max",
    )

    def __init__(self, index: int, pod_index: int = 0) -> None:
        self.index = index
        #: Which pod (level-2 fabric group) this rack belongs to.  The
        #: builder assigns it from the fabric topology; two-tier fabrics
        #: put every rack in pod 0 (the whole cluster is one pod).
        self.pod_index = pod_index
        self._boxes_by_type: dict[ResourceType, list[Box]] = {
            t: [] for t in RESOURCE_ORDER
        }
        self._total_avail: dict[ResourceType, int] = {t: 0 for t in RESOURCE_ORDER}
        self._rack_max: tuple[list[int], ...] | None = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def attach_box(self, box: Box) -> None:
        """Register a box with this rack (builder-time only)."""
        if box.rack_index != self.index:
            raise TopologyError(
                f"box {box.box_id} belongs to rack {box.rack_index}, "
                f"not rack {self.index}"
            )
        self._boxes_by_type[box.rtype].append(box)
        self._total_avail[box.rtype] += box.avail_units

    def bind_rack_max(self, table: tuple[list[int], ...]) -> None:
        """Read max-avail from the cluster's per-type rack maxima table
        (``table[tpos][rack_index]``); called by the cluster at build time."""
        self._rack_max = table

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def boxes(self, rtype: ResourceType) -> list[Box]:
        """Boxes of ``rtype`` in this rack, in index order."""
        return self._boxes_by_type[rtype]

    def all_boxes(self) -> list[Box]:
        """All boxes in this rack, grouped by type in RESOURCE_ORDER."""
        out: list[Box] = []
        for rtype in RESOURCE_ORDER:
            out.extend(self._boxes_by_type[rtype])
        return out

    def max_avail(self, rtype: ResourceType) -> int:
        """Largest single-box availability of ``rtype`` in this rack."""
        return self._rack_max[_TPOS[rtype]][self.index]

    def total_avail(self, rtype: ResourceType) -> int:
        """Summed availability of ``rtype`` across the rack's boxes (O(1))."""
        return self._total_avail[rtype]

    def can_host(self, request: ResourceVector) -> bool:
        """True when *one box per type* in this rack can hold the whole VM —
        the INTRA_RACK_POOL membership test (Section 4.2)."""
        cpu_max, ram_max, storage_max = self._rack_max
        i = self.index
        return (
            request.cpu <= cpu_max[i]
            and request.ram <= ram_max[i]
            and request.storage <= storage_max[i]
        )

    def has_box_for(self, rtype: ResourceType, units: int) -> bool:
        """True when some box of ``rtype`` here can hold ``units`` — the
        SUPER_RACK membership test for one resource type."""
        return units <= self.max_avail(rtype)

    # ------------------------------------------------------------------ #
    # Cache maintenance (called by the cluster's box listener)
    # ------------------------------------------------------------------ #

    def on_box_change(self, box: Box, delta: int) -> None:
        """Fold ``box``'s availability change of ``delta`` units (positive =
        release, negative = allocate) into the rack total."""
        self._total_avail[box.rtype] += delta

    def rebuild_cache(self) -> None:
        """Recompute the per-type totals from live box state."""
        for rtype in RESOURCE_ORDER:
            self._total_avail[rtype] = sum(
                b.avail_units for b in self._boxes_by_type[rtype]
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(
            f"{t.value}:{self._total_avail[t]}" for t in RESOURCE_ORDER
        )
        return f"Rack({self.index}, avail {parts})"
