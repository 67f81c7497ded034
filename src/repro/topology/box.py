"""Single-resource boxes — the allocation granule of the DDC.

Each box holds one resource type, subdivided into bricks (Section 3.1).  A
box keeps an integer ``used_units`` counter (the hot-path quantity) plus
per-brick occupancy, and notifies its parent rack/cluster so their cached
aggregates stay O(1) to read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..errors import CapacityError
from ..types import RESOURCE_ORDER, ResourceType
from .brick import Brick

#: Resource type -> its position in ``RESOURCE_ORDER``.
_TPOS = {rtype: i for i, rtype in enumerate(RESOURCE_ORDER)}


@dataclass(frozen=True, slots=True)
class BoxAllocation:
    """Receipt for units taken from one box.

    ``brick_slices`` maps brick index -> units taken from that brick; it sums
    to ``units``.  The receipt is required to release, ensuring symmetric
    accounting.
    """

    box_id: int
    rtype: ResourceType
    units: int
    brick_slices: tuple[tuple[int, int], ...]


class Box:
    """A single-resource box with brick-granular occupancy.

    Parameters
    ----------
    box_id:
        Globally unique integer id (rack-major ordering; this is the
        "first box" order used by NULB's first-fit search).
    rtype:
        The single resource type this box holds.
    rack_index / index_in_rack:
        Position in the cluster; ``index_in_rack`` counts boxes *of this
        type* within the rack (matching Table 3's per-type box ids).
    bricks:
        Brick subdivision; capacities must sum to the box capacity.
    """

    __slots__ = (
        "box_id",
        "rtype",
        "rack_index",
        "index_in_rack",
        "capacity_units",
        "used_units",
        "bricks",
        "tpos",
        "_on_change",
    )

    def __init__(
        self,
        box_id: int,
        rtype: ResourceType,
        rack_index: int,
        index_in_rack: int,
        bricks: list[Brick],
        on_change: Callable[["Box", int], None] | None = None,
    ) -> None:
        if not bricks:
            raise CapacityError("a box must contain at least one brick")
        self.box_id = box_id
        self.rtype = rtype
        self.rack_index = rack_index
        self.index_in_rack = index_in_rack
        self.bricks = bricks
        self.capacity_units = sum(b.capacity_units for b in bricks)
        self.used_units = 0
        #: Position of ``rtype`` in ``RESOURCE_ORDER`` (indexes per-type
        #: tables such as the cluster's rack maxima without an enum hash).
        self.tpos = _TPOS[rtype]
        self._on_change = on_change

    # ------------------------------------------------------------------ #

    def bind_listener(self, on_change: Callable[["Box", int], None] | None) -> None:
        """Attach the availability-change listener (cluster wiring).

        The listener receives ``(box, delta)`` with positive deltas for
        releases and negative for allocations; every occupancy mutation on
        this box — allocate, release, or :meth:`set_occupancy` — reports
        through it, which is what keeps the cluster totals, rack caches, and
        the capacity index coherent.
        """
        self._on_change = on_change

    @property
    def avail_units(self) -> int:
        """Units currently free in this box."""
        return self.capacity_units - self.used_units

    def can_fit(self, units: int) -> bool:
        """True when ``units`` would fit in this box right now."""
        return 0 <= units <= self.avail_units

    def allocate(self, units: int) -> BoxAllocation:
        """Take ``units`` from this box (first-fit across bricks).

        Returns a :class:`BoxAllocation` receipt; raises
        :class:`CapacityError` when the box cannot fit the request.
        """
        if units <= 0:
            raise CapacityError(f"allocation must be positive, got {units}")
        if units > self.avail_units:
            raise CapacityError(
                f"box {self.box_id} ({self.rtype.value}): requested {units} "
                f"units, only {self.avail_units} available"
            )
        remaining = units
        slices: list[tuple[int, int]] = []
        for brick in self.bricks:
            if remaining == 0:
                break
            take = min(remaining, brick.avail_units)
            if take > 0:
                brick.allocate(take)
                slices.append((brick.index, take))
                remaining -= take
        assert remaining == 0, "box/brick accounting diverged"
        self.used_units += units
        delta = -units
        if self._on_change is not None:
            self._on_change(self, delta)
        return BoxAllocation(
            box_id=self.box_id,
            rtype=self.rtype,
            units=units,
            brick_slices=tuple(slices),
        )

    def release(self, allocation: BoxAllocation) -> None:
        """Return a previous allocation's units to the box."""
        if allocation.box_id != self.box_id:
            raise CapacityError(
                f"allocation for box {allocation.box_id} released on box "
                f"{self.box_id}"
            )
        if allocation.units > self.used_units:
            raise CapacityError(
                f"box {self.box_id}: releasing {allocation.units} units but "
                f"only {self.used_units} in use"
            )
        for brick_index, take in allocation.brick_slices:
            self.bricks[brick_index].release(take)
        self.used_units -= allocation.units
        if self._on_change is not None:
            self._on_change(self, allocation.units)

    def set_occupancy(self, brick_used: tuple[int, ...] | list[int]) -> None:
        """Overwrite per-brick occupancy wholesale (snapshot-restore path).

        Unlike poking ``brick.used_units`` directly, this validates the new
        occupancy and fires the change listener with the net delta, so rack
        caches, cluster totals, and the capacity index cannot be bypassed.
        """
        self._validate_occupancy(brick_used)
        old_used = self.used_units
        for brick, used in zip(self.bricks, brick_used):
            brick.used_units = used
        self.used_units = sum(brick_used)
        delta = old_used - self.used_units
        if delta != 0 and self._on_change is not None:
            self._on_change(self, delta)

    def _validate_occupancy(self, brick_used: tuple[int, ...] | list[int]) -> None:
        if len(brick_used) != len(self.bricks):
            raise CapacityError(
                f"box {self.box_id}: occupancy has {len(brick_used)} entries "
                f"for {len(self.bricks)} bricks"
            )
        for brick, used in zip(self.bricks, brick_used):
            if used < 0 or used > brick.capacity_units:
                raise CapacityError(
                    f"box {self.box_id} brick {brick.index}: occupancy {used} "
                    f"outside [0, {brick.capacity_units}]"
                )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Box(id={self.box_id}, {self.rtype.value}, rack={self.rack_index}, "
            f"avail={self.avail_units}/{self.capacity_units})"
        )

