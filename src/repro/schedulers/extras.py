"""Ablation schedulers beyond the paper's four.

These isolate individual design choices of RISA so the ablation benchmarks
can attribute its wins:

- :class:`FirstFitRackScheduler` — RISA without the round-robin cursor
  (always scans racks from index 0): measures what load balancing buys.
- :class:`BestFitGlobalScheduler` — best-fit packing per resource type over
  the whole cluster with no locality preference: measures what rack affinity
  buys.
- :class:`WorstFitGlobalScheduler` — worst-fit (emptiest box) per type:
  a load-spreading strawman.
- :class:`RandomScheduler` — uniformly random feasible boxes per type:
  the no-information baseline.
- :class:`RISAPodAffinityScheduler` — RISA whose inter-rack fallback stays
  pod-local when it can: the tier-distance extension of RISA's locality
  preference for pod/spine fabrics.
"""

from __future__ import annotations

import copy

import numpy as np

from ..config import ClusterSpec
from ..errors import SchedulerError
from ..network import LinkSelectionPolicy, NetworkFabric
from ..topology import Box, Cluster
from ..types import RESOURCE_ORDER, ResourceType
from ..workloads import ResolvedRequest
from .base import Placement, Scheduler
from .risa import RISAScheduler


class FirstFitRackScheduler(RISAScheduler):
    """RISA with the round-robin cursor pinned to rack 0 (no balancing)."""

    name = "first_fit_rack"

    def schedule(self, request: ResolvedRequest) -> Placement | None:
        self._cursor = 0
        placement = super().schedule(request)
        self._cursor = 0
        return placement


class RISAPodAffinityScheduler(RISAScheduler):
    """RISA with a pod-local inter-rack fallback (tier-distance locality).

    The intra-rack pool walk is Algorithm 1 unchanged; only the
    ``_fallback_allocate`` hook differs.  The SUPER_RACK fallback first
    restricts itself to one pod at a time — walking pods round-robin from
    the cursor's pod, so an inter-rack VM still spans as few fabric tiers
    as possible — and only then retries the unrestricted SUPER_RACK.  On a
    two-tier fabric (one pod) this is exactly RISA.
    """

    name = "risa_pod"

    def _fallback_allocate(
        self,
        request: ResolvedRequest,
        super_rack: dict[ResourceType, frozenset[int]],
    ) -> Placement | None:
        units = request.units
        cluster = self.cluster
        index = cluster.capacity_index
        num_pods = cluster.num_pods
        start_pod = cluster.pod_of_rack(self._cursor % cluster.num_racks)
        for offset in range(num_pods):
            pod = (start_pod + offset) % num_pods
            if any(
                units.get(rtype) > 0
                and index.pod_max_avail(rtype, pod) < units.get(rtype)
                for rtype in RESOURCE_ORDER
            ):
                continue  # some slice fits no box in this pod: O(log n) skip
            lo, hi = cluster.pod_rack_range(pod)
            pod_racks = frozenset(range(lo, hi))
            pod_filter = {
                rtype: super_rack[rtype] & pod_racks for rtype in RESOURCE_ORDER
            }
            if any(
                units.get(rtype) > 0 and not pod_filter[rtype]
                for rtype in RESOURCE_ORDER
            ):
                continue
            placement = self._fallback.allocate(request, rack_filter=pod_filter)
            if placement is not None:
                return placement
        if num_pods > 1:
            # Cross-pod last resort: the unrestricted SUPER_RACK fallback.
            return super()._fallback_allocate(request, super_rack)
        return None


class _GlobalBoxScheduler(Scheduler):
    """Shared machinery: pick one box per type from the global list."""

    link_policy = LinkSelectionPolicy.FIRST_FIT

    def _pick(self, rtype: ResourceType, units: int) -> Box | None:
        raise NotImplementedError

    def schedule(self, request: ResolvedRequest) -> Placement | None:
        units = request.units
        chosen: dict[ResourceType, Box | None] = {}
        for rtype in RESOURCE_ORDER:
            needed = units.get(rtype)
            if needed == 0:
                chosen[rtype] = None
                continue
            box = self._pick(rtype, needed)
            if box is None:
                return None
            chosen[rtype] = box
        cpu_box = chosen[ResourceType.CPU]
        ram_box = chosen[ResourceType.RAM]
        if cpu_box is None or ram_box is None:
            return None
        return self._commit(request, cpu_box, ram_box, chosen[ResourceType.STORAGE])


class BestFitGlobalScheduler(_GlobalBoxScheduler):
    """Tightest-fitting box per type, anywhere in the cluster."""

    name = "best_fit_global"

    def _pick(self, rtype: ResourceType, units: int) -> Box | None:
        return self.cluster.capacity_index.best_fit(rtype, units)


class WorstFitGlobalScheduler(_GlobalBoxScheduler):
    """Emptiest box per type, anywhere in the cluster."""

    name = "worst_fit_global"

    def _pick(self, rtype: ResourceType, units: int) -> Box | None:
        return self.cluster.capacity_index.worst_fit(rtype, units)


class RandomScheduler(_GlobalBoxScheduler):
    """Uniformly random feasible box per type (seeded, reproducible)."""

    name = "random"

    def __init__(
        self,
        spec: ClusterSpec,
        cluster: Cluster,
        fabric: NetworkFabric,
        seed: int | None = 0,
    ) -> None:
        super().__init__(spec, cluster, fabric)
        self._rng = np.random.default_rng(seed)

    def snapshot_state(self) -> object | None:
        """A deep copy of the RNG state (forked draws must replay exactly)."""
        return copy.deepcopy(self._rng.bit_generator.state)

    def restore_state(self, state: object | None) -> None:
        if not isinstance(state, dict):
            raise SchedulerError(
                f"{type(self).__name__} expects an RNG state snapshot, got {state!r}"
            )
        self._rng.bit_generator.state = copy.deepcopy(state)

    def _pick(self, rtype: ResourceType, units: int) -> Box | None:
        # Fitting boxes in global order, so the seeded draw is reproducible.
        feasible = self.cluster.capacity_index.fitting_boxes(rtype, units)
        if not feasible:
            return None
        return feasible[int(self._rng.integers(len(feasible)))]
