"""Scheduler interface and the shared commit path.

Every scheduler turns a :class:`~repro.workloads.vm.ResolvedRequest` into a
:class:`Placement` (boxes per resource type plus committed network circuits)
or None (the VM is dropped).  The commit path is shared: compute slices are
allocated first, then the CPU<->RAM and RAM<->storage circuits atomically;
any network failure rolls the compute allocation back, so a scheduler's
failed attempt never leaks state — the invariant the property tests pin.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import ClassVar

from ..config import ClusterSpec
from ..errors import SchedulerError
from ..network import Circuit, LinkSelectionPolicy, NetworkFabric
from ..topology import Box, BoxAllocation, Cluster
from ..types import ResourceType
from ..workloads import ResolvedRequest


@dataclass(frozen=True, slots=True)
class Placement:
    """A committed VM assignment."""

    request: ResolvedRequest
    cpu: BoxAllocation
    ram: BoxAllocation
    storage: BoxAllocation | None
    circuits: tuple[Circuit, ...]
    cpu_rack: int
    ram_rack: int
    storage_rack: int | None

    @property
    def vm_id(self) -> int:
        """Underlying VM id."""
        return self.request.vm_id

    @property
    def racks(self) -> frozenset[int]:
        """The set of racks this VM's slices occupy."""
        racks = {self.cpu_rack, self.ram_rack}
        if self.storage_rack is not None:
            racks.add(self.storage_rack)
        return frozenset(racks)

    @property
    def intra_rack(self) -> bool:
        """True when the whole VM sits in a single rack — the Figure 5/7
        "intra-rack VM assignment" criterion."""
        return len(self.racks) == 1

    @property
    def cpu_ram_intra(self) -> bool:
        """True when CPU and RAM share a rack (the Figure 10 latency case)."""
        return self.cpu_rack == self.ram_rack

    @property
    def tier_distance(self) -> int:
        """Locality of the whole VM in fabric tiers: the highest level any
        of its circuits climbs (1 = same rack, 2 = crosses the rack tier,
        3 = crosses pods, ...).  The N-tier generalization of the paper's
        binary intra/inter-rack criterion."""
        return max(circuit.lca_level for circuit in self.circuits)


class Scheduler(abc.ABC):
    """Abstract online VM scheduler over a cluster + fabric pair."""

    #: Registry name; subclasses must override.
    name: ClassVar[str] = "abstract"
    #: Link-selection policy used when committing circuits.
    link_policy: ClassVar[LinkSelectionPolicy] = LinkSelectionPolicy.FIRST_FIT

    def __init__(self, spec: ClusterSpec, cluster: Cluster, fabric: NetworkFabric) -> None:
        self.spec = spec
        self.cluster = cluster
        self.fabric = fabric

    @abc.abstractmethod
    def schedule(self, request: ResolvedRequest) -> Placement | None:
        """Place one VM; returns the committed placement or None (dropped)."""

    # ------------------------------------------------------------------ #
    # Fork support
    # ------------------------------------------------------------------ #

    def snapshot_state(self) -> object | None:
        """Capture scheduler-private mutable state (cursors, RNGs).

        Most schedulers are pure functions of cluster/fabric state and
        return ``None``; stateful ones (RISA's round-robin cursor, the
        random baseline's RNG) override this pair so a forked run continues
        bit-identically.  The returned object must be immutable or a private
        copy.
        """
        return None

    def restore_state(self, state: object | None) -> None:
        """Rewind state captured by :meth:`snapshot_state`."""
        if state is not None:
            raise SchedulerError(
                f"{type(self).__name__} is stateless but got a state snapshot"
            )

    def release(self, placement: Placement) -> None:
        """Return a placement's compute units and network bandwidth.

        The simulator releases departures through the cluster's and
        fabric's batch entry points (``Cluster.apply_release_batch`` /
        ``NetworkFabric.release_batch``), which do the same per-receipt and
        per-circuit releases; it calls this method only when a subclass
        overrides it.
        """
        self.cluster.box(placement.cpu.box_id).release(placement.cpu)
        self.cluster.box(placement.ram.box_id).release(placement.ram)
        if placement.storage is not None:
            self.cluster.box(placement.storage.box_id).release(placement.storage)
        for circuit in placement.circuits:
            self.fabric.release(circuit)

    # ------------------------------------------------------------------ #
    # Shared commit machinery
    # ------------------------------------------------------------------ #

    def _commit(
        self,
        request: ResolvedRequest,
        cpu_box: Box,
        ram_box: Box,
        storage_box: Box | None,
    ) -> Placement | None:
        """Allocate compute slices then circuits; roll back on any failure."""
        units = request.units
        if cpu_box.rtype is not ResourceType.CPU or ram_box.rtype is not ResourceType.RAM:
            raise SchedulerError("box/resource type mismatch in commit")
        if units.storage > 0 and storage_box is None:
            raise SchedulerError(
                f"VM {request.vm_id} needs storage but no storage box chosen"
            )
        if not cpu_box.can_fit(units.cpu) or not ram_box.can_fit(units.ram):
            return None
        if storage_box is not None and not storage_box.can_fit(units.storage):
            return None

        cpu_alloc = cpu_box.allocate(units.cpu)
        ram_alloc = ram_box.allocate(units.ram)
        storage_alloc: BoxAllocation | None = None
        if storage_box is not None and units.storage > 0:
            storage_alloc = storage_box.allocate(units.storage)

        flows: list[tuple[int, int, float]] = [
            (cpu_box.box_id, ram_box.box_id, request.cpu_ram_gbps)
        ]
        if storage_alloc is not None:
            flows.append(
                (ram_box.box_id, storage_box.box_id, request.ram_storage_gbps)
            )
        circuits = self.fabric.allocate_flows(flows, self.link_policy)
        if circuits is None:
            cpu_box.release(cpu_alloc)
            ram_box.release(ram_alloc)
            if storage_alloc is not None:
                storage_box.release(storage_alloc)
            return None
        return Placement(
            request=request,
            cpu=cpu_alloc,
            ram=ram_alloc,
            storage=storage_alloc,
            circuits=tuple(circuits),
            cpu_rack=cpu_box.rack_index,
            ram_rack=ram_box.rack_index,
            storage_rack=None if storage_alloc is None else storage_box.rack_index,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"
