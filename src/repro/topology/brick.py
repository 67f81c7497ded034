"""Brick-level resource accounting.

A brick is the smallest hardware building block (16 units in the paper,
Table 1).  VM slices are smaller than a box, and the paper schedules at box
granularity; we nevertheless track per-brick occupancy inside each box so the
SiP-module/bandwidth bookkeeping and fragmentation analyses have a physical
substrate.  Brick selection inside a box is first-fit and does not influence
scheduling decisions (documented in DESIGN.md Section 5).
"""

from __future__ import annotations

from ..errors import CapacityError
from ..types import ResourceType


class Brick:
    """One brick: ``capacity_units`` of a single resource type."""

    __slots__ = ("index", "rtype", "capacity_units", "used_units")

    def __init__(
        self,
        index: int,
        rtype: ResourceType,
        capacity_units: int,
        used_units: int = 0,
    ) -> None:
        self.index = index
        self.rtype = rtype
        self.capacity_units = capacity_units
        self.used_units = used_units

    @property
    def avail_units(self) -> int:
        """Units currently free in this brick."""
        return self.capacity_units - self.used_units

    def allocate(self, units: int) -> None:
        """Take ``units`` from this brick; raises :class:`CapacityError` on
        overflow."""
        if units < 0:
            raise CapacityError(f"cannot allocate negative units: {units}")
        if units > self.avail_units:
            raise CapacityError(
                f"brick {self.index}: requested {units} units, only "
                f"{self.avail_units} available"
            )
        self.used_units += units

    def release(self, units: int) -> None:
        """Return ``units`` to this brick; raises :class:`CapacityError` on
        underflow."""
        if units < 0:
            raise CapacityError(f"cannot release negative units: {units}")
        if units > self.used_units:
            raise CapacityError(
                f"brick {self.index}: releasing {units} units but only "
                f"{self.used_units} in use"
            )
        self.used_units -= units

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Brick(index={self.index}, rtype={self.rtype}, "
            f"capacity_units={self.capacity_units}, used_units={self.used_units})"
        )

