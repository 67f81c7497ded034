"""The cluster: racks, global box order, and cluster-wide aggregates.

The cluster keeps O(1) total-availability counters per resource type — the
denominators of NULB/NALB's contention ratio (Section 4.1) — and exposes the
rack-major global box ordering that defines "the first box" for first-fit
searches.

It also owns the rack maxima table: for each resource type, a plain list
holding every rack's largest single-box availability.  RISA's
INTRA_RACK_POOL and SUPER_RACK tests (Section 4.2) read it directly, and
:meth:`Rack.max_avail`, :meth:`Rack.can_host`, and
:meth:`CapacityIndex.rack_max_avail` all answer from it.  Python ints, not
numpy: the table is written once per box change and read a few values at a
time, where per-element numpy access costs more than it saves.
"""

from __future__ import annotations

import os
from typing import Iterable, Sequence

from ..errors import CapacityError, TopologyError
from ..types import RESOURCE_ORDER, ResourceType, ResourceVector
from .box import _TPOS, Box, BoxAllocation
from .capacity_index import CapacityIndex
from .rack import Rack

#: With ``REPRO_VERIFY_TOTALS=1`` every :meth:`Cluster.utilization` read
#: asserts the O(1) running totals and the rack maxima table against a full
#: box scan — the debug oracle for the incremental ``on_box_change``
#: accounting (the scan is what they replaced; it must never run on the hot
#: path otherwise).
_VERIFY_TOTALS = os.environ.get("REPRO_VERIFY_TOTALS", "") == "1"


class Cluster:
    """A built DDC cluster (use :func:`repro.topology.builder.build_cluster`)."""

    __slots__ = (
        "racks",
        "_boxes_by_type",
        "_box_by_id",
        "_total_avail",
        "_total_capacity",
        "_capacity_index",
        "_pod_rack_ranges",
        "_drained_racks",
        "_rack_max",
        "_version",
    )

    def __init__(self, racks: list[Rack]) -> None:
        self.racks = racks
        self._boxes_by_type: dict[ResourceType, list[Box]] = {
            t: [] for t in RESOURCE_ORDER
        }
        self._box_by_id: dict[int, Box] = {}
        self._total_avail: dict[ResourceType, int] = {t: 0 for t in RESOURCE_ORDER}
        self._total_capacity: dict[ResourceType, int] = {t: 0 for t in RESOURCE_ORDER}
        for rack in racks:
            for rtype in RESOURCE_ORDER:
                for box in rack.boxes(rtype):
                    self._register_box(box)
        self._pod_rack_ranges = self._derive_pod_ranges(racks)
        self._drained_racks: set[int] = set()
        self._version = 0
        self._rack_max: tuple[list[int], ...] = tuple(
            [0] * len(racks) for _ in RESOURCE_ORDER
        )
        self._rebuild_rack_max()
        for rack in racks:
            rack.bind_rack_max(self._rack_max)
        self._capacity_index = CapacityIndex(self)

    @staticmethod
    def _derive_pod_ranges(racks: list[Rack]) -> tuple[tuple[int, int], ...]:
        """Contiguous rack-index ranges per pod, from the racks' pod ids.

        Pods must partition the rack order into contiguous runs with pod
        ids 0, 1, 2, ... — the shape every fabric topology produces.  Racks
        built outside a topology (all ``pod_index`` 0) form a single pod.
        """
        ranges: list[tuple[int, int]] = []
        for i, rack in enumerate(racks):
            pod = rack.pod_index
            if pod == len(ranges):  # next pod starts at this rack
                if ranges:
                    ranges[-1] = (ranges[-1][0], i)
                ranges.append((i, len(racks)))
            elif pod != len(ranges) - 1:
                raise TopologyError(
                    f"rack {rack.index} has pod {pod}; pods must be "
                    "contiguous runs numbered from 0"
                )
        if not ranges:
            ranges.append((0, len(racks)))
        return tuple(ranges)

    def _register_box(self, box: Box) -> None:
        if box.box_id in self._box_by_id:
            raise TopologyError(f"duplicate box id {box.box_id}")
        self._box_by_id[box.box_id] = box
        self._boxes_by_type[box.rtype].append(box)
        self._total_avail[box.rtype] += box.avail_units
        self._total_capacity[box.rtype] += box.capacity_units

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    @property
    def num_racks(self) -> int:
        """Number of racks in the cluster."""
        return len(self.racks)

    @property
    def num_pods(self) -> int:
        """Number of pods (level-2 fabric groups); 1 under a two-tier fabric."""
        return len(self._pod_rack_ranges)

    def pod_rack_range(self, pod_index: int) -> tuple[int, int]:
        """The contiguous ``[lo, hi)`` rack-index range of one pod.

        Negative indices are rejected rather than wrapped — a pod-failure
        study that silently drained the *last* pod for ``-1`` would report
        plausible-looking results for the wrong scenario.
        """
        if pod_index < 0 or pod_index >= len(self._pod_rack_ranges):
            raise TopologyError(f"no pod with index {pod_index}")
        return self._pod_rack_ranges[pod_index]

    def pod_rack_ranges(self) -> tuple[tuple[int, int], ...]:
        """Every pod's rack-index range, in pod order."""
        return self._pod_rack_ranges

    def pod_racks(self, pod_index: int) -> list[Rack]:
        """The racks of one pod, in rack-index order."""
        lo, hi = self.pod_rack_range(pod_index)
        return self.racks[lo:hi]

    def pod_of_rack(self, rack_index: int) -> int:
        """The pod a rack belongs to."""
        return self.racks[rack_index].pod_index

    @property
    def capacity_index(self) -> CapacityIndex:
        """The O(log n) placement index every scheduler searches through."""
        return self._capacity_index

    def rack_maxima(self) -> tuple[list[int], ...]:
        """The rack maxima table: ``table[tpos][rack_index]`` is the largest
        single-box availability of ``RESOURCE_ORDER[tpos]`` in that rack.

        The lists are live (updated in place on every box change); callers
        must only read them.
        """
        return self._rack_max

    @property
    def version(self) -> int:
        """Monotone counter bumped on every occupancy change — lets callers
        (the metrics collector) skip re-sampling unchanged state."""
        return self._version

    def rack(self, index: int) -> Rack:
        """Rack by index."""
        return self.racks[index]

    def box(self, box_id: int) -> Box:
        """Box by global id."""
        try:
            return self._box_by_id[box_id]
        except KeyError:
            raise TopologyError(f"no box with id {box_id}") from None

    def boxes(self, rtype: ResourceType) -> list[Box]:
        """All boxes of ``rtype`` in rack-major (global first-fit) order."""
        return self._boxes_by_type[rtype]

    def all_boxes(self) -> list[Box]:
        """Every box, iterating types in RESOURCE_ORDER then rack-major."""
        out: list[Box] = []
        for rtype in RESOURCE_ORDER:
            out.extend(self._boxes_by_type[rtype])
        return out

    def total_avail(self, rtype: ResourceType) -> int:
        """Cluster-wide available units of ``rtype`` (O(1))."""
        return self._total_avail[rtype]

    def total_capacity(self, rtype: ResourceType) -> int:
        """Cluster-wide capacity of ``rtype`` in units (O(1))."""
        return self._total_capacity[rtype]

    def avail_vector(self) -> ResourceVector:
        """Availability of all three types as a :class:`ResourceVector`."""
        return ResourceVector(
            cpu=self._total_avail[ResourceType.CPU],
            ram=self._total_avail[ResourceType.RAM],
            storage=self._total_avail[ResourceType.STORAGE],
        )

    def utilization(self, rtype: ResourceType) -> float:
        """Fraction of ``rtype`` capacity currently in use.

        O(1): both the availability and capacity totals are running counters
        maintained through ``on_box_change`` — this is sampled by the metrics
        gauges on *every* simulation event, so it must never rescan boxes.
        The scan survives only as a debug assert (``REPRO_VERIFY_TOTALS=1``).
        """
        if _VERIFY_TOTALS:
            assert self.verify_totals(rtype), (
                f"{rtype.value} running totals diverged from the box scan: "
                f"avail {self._total_avail[rtype]} vs "
                f"{sum(b.avail_units for b in self._boxes_by_type[rtype])}, "
                f"rack maxima {self._rack_max[_TPOS[rtype]]} vs "
                f"{self._scan_rack_max(rtype)}"
            )
        cap = self._total_capacity[rtype]
        if cap == 0:
            return 0.0
        return 1.0 - self._total_avail[rtype] / cap

    def verify_totals(self, rtype: ResourceType) -> bool:
        """O(n) oracle: do the running totals and the rack maxima table
        match a fresh box scan?"""
        boxes = self._boxes_by_type[rtype]
        return (
            self._total_avail[rtype] == sum(b.avail_units for b in boxes)
            and self._total_capacity[rtype] == sum(b.capacity_units for b in boxes)
            and self._rack_max[_TPOS[rtype]] == self._scan_rack_max(rtype)
        )

    def _scan_rack_max(self, rtype: ResourceType) -> list[int]:
        """Every rack's largest box availability of ``rtype``, by full scan."""
        return [
            max((b.avail_units for b in rack.boxes(rtype)), default=0)
            for rack in self.racks
        ]

    def _rebuild_rack_max(self) -> None:
        """Refill the rack maxima table in place from live box state."""
        for rtype, row in zip(RESOURCE_ORDER, self._rack_max):
            row[:] = self._scan_rack_max(rtype)

    # ------------------------------------------------------------------ #
    # Cache maintenance
    # ------------------------------------------------------------------ #

    def on_box_change(self, box: Box, delta: int) -> None:
        """Box availability changed by ``delta``; update cluster totals, the
        capacity index, and the owning rack's cache.

        Drains are sticky: units freed on a drained rack (a departing tenant
        of a failed pod) are re-occupied immediately, so the rack never
        re-offers capacity until a restore rewinds the drain.  The nested
        ``set_occupancy`` re-enters this listener once; the second pass sees
        zero availability and stops.
        """
        self._version += 1
        self._total_avail[box.rtype] += delta
        self._capacity_index.update_box(box)
        rack_index = box.rack_index
        rack = self.racks[rack_index]
        rack.on_box_change(box, delta)
        maxima = self._rack_max[box.tpos]
        avail = box.avail_units
        if avail > maxima[rack_index]:
            maxima[rack_index] = avail
        elif delta < 0 and avail - delta == maxima[rack_index]:
            # The box that held the maximum shrank: rescan this rack's boxes
            # of the type (2 in the paper config).
            maxima[rack_index] = max(b.avail_units for b in rack.boxes(box.rtype))
        if (
            delta > 0
            and self._drained_racks
            and box.rack_index in self._drained_racks
            and box.avail_units
        ):
            box.set_occupancy([brick.capacity_units for brick in box.bricks])

    def apply_release_batch(
        self, groups: Sequence[Sequence[BoxAllocation]]
    ) -> list[list[float]]:
        """Release a run of departures' compute receipts, in event order.

        ``groups`` holds one sequence of :class:`BoxAllocation` receipts per
        departing VM.  Each receipt releases through its box, so listeners,
        drain stickiness, and version counting behave exactly as for
        one-at-a-time releases.  Returns one row per departure: the
        utilization of every type in ``RESOURCE_ORDER`` right after it,
        computed with the same expression as :meth:`utilization`.
        """
        box_by_id = self._box_by_id
        avail = self._total_avail
        caps = [self._total_capacity[rtype] for rtype in RESOURCE_ORDER]
        rows: list[list[float]] = []
        for receipts in groups:
            for receipt in receipts:
                box_by_id[receipt.box_id].release(receipt)
            rows.append([
                1.0 - avail[rtype] / cap if cap else 0.0
                for rtype, cap in zip(RESOURCE_ORDER, caps)
            ])
        if _VERIFY_TOTALS:
            for rtype in RESOURCE_ORDER:
                self.utilization(rtype)
        return rows

    def rebuild_caches(self) -> None:
        """Recompute every derived structure — cluster totals, rack caches,
        and the capacity index — from live box/brick state in O(n).

        The incremental paths (``on_box_change``, which :meth:`restore` also
        drives through the public Box API) keep everything coherent on their
        own; this is a defensive bulk lever for external callers that mutate
        bricks directly, and the invariant check the property tests lean on.
        """
        self._version += 1
        for rtype in RESOURCE_ORDER:
            self._total_avail[rtype] = sum(
                b.avail_units for b in self._boxes_by_type[rtype]
            )
        for rack in self.racks:
            rack.rebuild_cache()
        self._rebuild_rack_max()
        self._capacity_index.rebuild()

    # ------------------------------------------------------------------ #
    # Fault injection (scenario studies)
    # ------------------------------------------------------------------ #

    @property
    def drained_racks(self) -> frozenset[int]:
        """Indices of racks currently held drained (sticky until restore)."""
        return frozenset(self._drained_racks)

    def drain_racks(self, rack_indices: Iterable[int]) -> int:
        """Mark every box of the given racks fully occupied (a drain).

        The pod-failure lever of the scenario engine: no new VM can land on
        a drained rack, while VMs already placed there keep their receipts —
        their departures release cleanly, but the drain is *sticky*: the
        freed units are re-occupied on the spot (via :meth:`on_box_change`),
        so a failed pod never quietly comes back online mid-branch.  Runs
        through the listener-backed
        :meth:`~repro.topology.box.Box.set_occupancy` API, so rack caches,
        cluster totals, and the capacity index all follow; :meth:`restore`
        rewinds both the occupancy and the stickiness.

        Returns the number of units newly marked occupied.
        """
        drained = 0
        for rack_index in rack_indices:
            # Reject negatives instead of letting Python's index wraparound
            # store an alias that box.rack_index would never match.
            if rack_index < 0 or rack_index >= len(self.racks):
                raise TopologyError(f"no rack with index {rack_index}")
            rack = self.racks[rack_index]
            self._drained_racks.add(rack_index)
            for box in rack.all_boxes():
                drained += box.avail_units
                box.set_occupancy([brick.capacity_units for brick in box.bricks])
        return drained

    # ------------------------------------------------------------------ #
    # Snapshots (what-if analysis and test invariants)
    # ------------------------------------------------------------------ #

    def snapshot(self) -> tuple[tuple[int, ...], ...]:
        """Capture per-box, per-brick occupancy; restorable and comparable."""
        return tuple(
            tuple(brick.used_units for brick in self._box_by_id[bid].bricks)
            for bid in sorted(self._box_by_id)
        )

    def restore(self, snap: tuple[tuple[int, ...], ...]) -> None:
        """Restore occupancy captured by :meth:`snapshot`, rebuilding all
        cached aggregates (including the capacity index).

        The whole snapshot is validated before anything is written: a bad
        row raises :class:`TopologyError` and leaves occupancy, drains, and
        every cache exactly as they were.

        Any active drain is lifted first — a snapshot captures occupancy, so
        restoring one rewinds a :meth:`drain_racks` perturbation wholesale
        (callers that need the drain to survive, like
        ``DDCSimulator.fork``/``restore_run``, re-apply it from their own
        checkpoint after restoring).
        """
        boxes = [self._box_by_id[bid] for bid in sorted(self._box_by_id)]
        if len(snap) != len(boxes):
            raise TopologyError("snapshot shape does not match cluster")
        for box, brick_used in zip(boxes, snap):
            try:
                box._validate_occupancy(brick_used)
            except CapacityError as exc:
                raise TopologyError(
                    f"snapshot invalid for box {box.box_id}: {exc}"
                ) from exc
        self._drained_racks.clear()
        self._version += 1
        for box, brick_used in zip(boxes, snap):
            # The public occupancy API notifies the change listener, so the
            # cluster totals, rack caches, rack maxima, and capacity index
            # all follow.
            box.set_occupancy(brick_used)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(
            f"{t.value}:{self._total_avail[t]}/{self._total_capacity[t]}"
            for t in RESOURCE_ORDER
        )
        return f"Cluster({self.num_racks} racks, avail {parts})"
