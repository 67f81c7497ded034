"""RISA — Round-robin Intra-rack friendly Scheduling Algorithm (Algorithm 1).

RISA keeps, per rack, the box with the maximum availability of each resource
(maintained incrementally in the cluster's rack maxima table, see
:meth:`~repro.topology.cluster.Cluster.rack_maxima`).  For each
VM it builds INTRA_RACK_POOL — the racks whose max-boxes can hold the entire
VM — and walks it round-robin from a persistent cursor, committing the first
rack where both the compute slices and the intra-rack network fit.  When the
pool is empty (or no pool rack has network capacity), it builds SUPER_RACK —
per-resource lists of racks with *any* box that fits that slice — and falls
back to NULB restricted to those racks (inter-rack assignment).

Box choice inside the chosen rack is first-fit in box-index order; RISA-BF
(Algorithm 3) overrides it to best-fit (ascending availability) to reduce
resource stranding.  Both are capacity-index range queries; the paper's
linear scans are the reference schedulers in
:mod:`repro.schedulers.reference`.
"""

from __future__ import annotations

from itertools import chain, compress, repeat
from operator import ge
from typing import ClassVar, Iterator

from ..config import ClusterSpec
from ..errors import SchedulerError
from ..network import LinkSelectionPolicy, NetworkFabric
from ..topology import Box, Cluster, Rack
from ..types import RESOURCE_ORDER, ResourceType
from ..workloads import ResolvedRequest
from .base import Placement, Scheduler
from .nulb import NULBScheduler


class RISAScheduler(Scheduler):
    """Algorithm 1 (first-fit box packing inside the chosen rack)."""

    name = "risa"
    link_policy = LinkSelectionPolicy.FIRST_FIT
    #: Box-selection mode inside the chosen rack; RISA-BF overrides.
    best_fit = False
    #: The inter-rack fallback run over SUPER_RACK.
    fallback_class: ClassVar[type[NULBScheduler]] = NULBScheduler

    def __init__(self, spec: ClusterSpec, cluster: Cluster, fabric: NetworkFabric) -> None:
        super().__init__(spec, cluster, fabric)
        self._cursor = 0
        self._fallback = self.fallback_class(spec, cluster, fabric)
        self._all_racks = frozenset(range(cluster.num_racks))

    def snapshot_state(self) -> object | None:
        """The round-robin cursor (NULB fallback is stateless)."""
        return self._cursor

    def restore_state(self, state: object | None) -> None:
        if not isinstance(state, int):
            raise SchedulerError(
                f"{type(self).__name__} expects an int cursor snapshot, got {state!r}"
            )
        self._cursor = state

    # ------------------------------------------------------------------ #
    # Intra-rack placement
    # ------------------------------------------------------------------ #

    def _pick_box(self, rack: Rack, rtype: ResourceType, units: int) -> Box | None:
        """Choose a box of ``rtype`` in ``rack`` for ``units``.

        First-fit in index order for RISA; best-fit (smallest sufficient
        availability, Algorithm 3's ascending sort) for RISA-BF.  Both are
        single O(log n) range queries against the capacity index; the
        paper's scans of the rack's boxes are
        :class:`~repro.schedulers.reference.ReferenceRISA`.
        """
        if units == 0:
            return None
        index = self.cluster.capacity_index
        if self.best_fit:
            return index.best_fit_in_rack(rtype, units, rack.index)
        return index.first_fit_in_rack(rtype, units, rack.index)

    def _try_rack(self, rack: Rack, request: ResolvedRequest) -> Placement | None:
        """Attempt a fully intra-rack assignment in one pool rack."""
        units = request.units
        cpu_box = self._pick_box(rack, ResourceType.CPU, units.cpu)
        ram_box = self._pick_box(rack, ResourceType.RAM, units.ram)
        if cpu_box is None or ram_box is None:
            return None
        storage_box = (
            self._pick_box(rack, ResourceType.STORAGE, units.storage)
            if units.storage > 0
            else None
        )
        if units.storage > 0 and storage_box is None:
            return None
        return self._commit(request, cpu_box, ram_box, storage_box)

    # ------------------------------------------------------------------ #
    # Algorithm 1
    # ------------------------------------------------------------------ #

    def schedule(self, request: ResolvedRequest) -> Placement | None:
        """Round-robin over INTRA_RACK_POOL, else NULB over SUPER_RACK."""
        units = request.units
        cluster = self.cluster
        num_racks = cluster.num_racks
        if num_racks:
            for rack_index in self._pool(units.cpu, units.ram, units.storage):
                placement = self._try_rack(cluster.rack(rack_index), request)
                if placement is not None:
                    self._cursor = (rack_index + 1) % num_racks
                    return placement
        # Pool empty, or every pool rack failed on network capacity: build
        # SUPER_RACK and fall back to the inter-rack path (Algorithm 1).
        super_rack = self._super_rack(request)
        if super_rack is None:
            return None
        return self._fallback_allocate(request, super_rack)

    def _fallback_allocate(
        self,
        request: ResolvedRequest,
        super_rack: dict[ResourceType, frozenset[int]],
    ) -> Placement | None:
        """The inter-rack assignment step: NULB restricted to SUPER_RACK.

        Subclasses override this hook to reshape the fallback (e.g. the
        pod-local variant) without duplicating the pool walk above.
        """
        return self._fallback.allocate(request, rack_filter=super_rack)

    def _pool(self, cpu: int, ram: int, storage: int) -> Iterator[int]:
        """INTRA_RACK_POOL: racks whose max-boxes hold the whole VM, in
        round-robin order from the cursor.

        Lazy, so the common case — the cursor rack hosts the VM — reads one
        rack's maxima; a failed try rolls its compute back, so later racks
        see the same maxima they would have seen up front.
        """
        cpu_max, ram_max, storage_max = self.cluster.rack_maxima()
        if max(cpu_max) < cpu:
            return  # no rack can hold the CPU slice: skip the walk
        start = self._cursor % len(cpu_max)
        for i in chain(range(start, len(cpu_max)), range(start)):
            if cpu_max[i] >= cpu and ram_max[i] >= ram and storage_max[i] >= storage:
                yield i

    def _super_rack(
        self, request: ResolvedRequest
    ) -> dict[ResourceType, frozenset[int]] | None:
        """Per-resource sets of racks with a box that fits that slice, or
        None when some needed resource fits in no rack (the VM drops)."""
        units = request.units
        all_racks = self._all_racks
        out: dict[ResourceType, frozenset[int]] = {}
        for rtype, maxima in zip(RESOURCE_ORDER, self.cluster.rack_maxima()):
            needed = units.get(rtype)
            if min(maxima, default=0) >= needed:
                out[rtype] = all_racks
                continue
            racks = frozenset(compress(range(len(maxima)), map(ge, maxima, repeat(needed))))
            if not racks:
                return None
            out[rtype] = racks
        return out


class RISABFScheduler(RISAScheduler):
    """Algorithm 3: RISA with best-fit packing inside the chosen rack."""

    name = "risa_bf"
    best_fit = True
