"""Run summaries — the figure-level quantities, one dataclass per run.

:func:`summarize` reduces a :class:`~repro.metrics.collector.MetricsCollector`
to the scalar metrics every paper figure reports, with NumPy doing the
vectorized reductions over per-VM records.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from ..types import ResourceType
from .collector import MetricsCollector


@dataclass(frozen=True, slots=True)
class RunSummary:
    """Scalar outcomes of one (scheduler, workload) simulation run."""

    scheduler: str
    total_vms: int
    scheduled_vms: int
    dropped_vms: int
    inter_rack_assignments: int
    inter_rack_percent: float
    avg_cpu_ram_latency_ns: float
    avg_intra_net_utilization: float
    avg_inter_net_utilization: float
    peak_intra_net_utilization: float
    peak_inter_net_utilization: float
    avg_cpu_utilization: float
    avg_ram_utilization: float
    avg_storage_utilization: float
    total_optical_energy_j: float
    switch_energy_j: float
    transceiver_energy_j: float
    avg_optical_power_kw: float
    #: Wall time inside ``Scheduler.schedule`` summed over arrivals (the
    #: Figure 11/12 quantity): the box search *and* the commit — box
    #: allocation, ``allocate_flows`` and path resolution — not the search
    #: alone.
    scheduler_time_s: float
    makespan: float
    #: Per-tier time-weighted network utilization, keyed by gauge name
    #: (``intra_net``, ``pod_net``, ..., ``inter_net``).  Two-tier runs hold
    #: exactly the intra/inter pair mirrored in the scalar fields above.
    avg_tier_net_utilization: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """Plain-dict form for JSON serialization."""
        return asdict(self)


def aggregate_summaries(summaries: Sequence[RunSummary]) -> dict:
    """Merge per-run summaries into mean metrics (multi-seed aggregation).

    Every numeric :class:`RunSummary` field is averaged across runs; the
    ``scheduler`` label is kept when uniform (the usual per-scheduler sweep
    axis) and reported as ``"mixed"`` otherwise.  ``runs`` counts the inputs.
    """
    if not summaries:
        raise ValueError("aggregate_summaries needs at least one summary")
    schedulers = {s.scheduler for s in summaries}
    out: dict = {
        "scheduler": summaries[0].scheduler if len(schedulers) == 1 else "mixed",
        "runs": len(summaries),
    }
    dicts = [s.as_dict() for s in summaries]
    for key, value in dicts[0].items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            out[key] = float(np.mean([d[key] for d in dicts]))
        elif isinstance(value, dict) and value:
            # Per-tier maps average key-wise (tier sets agree within a sweep).
            out[key] = {
                tier: float(np.mean([d[key][tier] for d in dicts]))
                for tier in value
            }
    return out


def summarize(scheduler_name: str, collector: MetricsCollector) -> RunSummary:
    """Reduce a collector to a :class:`RunSummary`.

    With ``keep_records=True`` (the default) the per-VM record list is the
    source of truth, exactly as before; a record-free collector summarizes
    from its incremental tallies instead — same quantities, O(1) memory.
    """
    if collector.keep_records:
        records = collector.records
        total = len(records)
        scheduled = [r for r in records if r.scheduled]
        n_scheduled = len(scheduled)
        dropped = total - n_scheduled
        inter = sum(1 for r in scheduled if not r.intra_rack)
        latencies = np.array(
            [r.cpu_ram_latency_ns for r in scheduled if r.cpu_ram_latency_ns is not None],
            dtype=float,
        )
        avg_latency = float(latencies.mean()) if latencies.size else 0.0
    else:
        total = collector.total_requests
        n_scheduled = collector.scheduled_count
        dropped = total - n_scheduled
        inter = collector.inter_rack_count
        avg_latency = (
            collector.latency_sum_ns / collector.latency_count
            if collector.latency_count
            else 0.0
        )
    compute = collector.compute_utilization_averages()
    makespan = collector.makespan
    tier_avgs = {
        name: collector.average_utilization(name)
        for name in collector.net_gauge_names()
    }
    return RunSummary(
        scheduler=scheduler_name,
        total_vms=total,
        scheduled_vms=n_scheduled,
        dropped_vms=dropped,
        inter_rack_assignments=inter,
        inter_rack_percent=100.0 * inter / total if total else 0.0,
        avg_cpu_ram_latency_ns=avg_latency,
        avg_intra_net_utilization=collector.average_utilization("intra_net"),
        avg_inter_net_utilization=collector.average_utilization("inter_net"),
        peak_intra_net_utilization=collector.peak_utilization("intra_net"),
        peak_inter_net_utilization=collector.peak_utilization("inter_net"),
        avg_cpu_utilization=compute[ResourceType.CPU],
        avg_ram_utilization=compute[ResourceType.RAM],
        avg_storage_utilization=compute[ResourceType.STORAGE],
        total_optical_energy_j=collector.power.total_energy_j,
        switch_energy_j=collector.power.switch_energy_j,
        transceiver_energy_j=collector.power.transceiver_energy_j,
        avg_optical_power_kw=collector.power.average_power_kw(makespan),
        scheduler_time_s=collector.scheduler_time_s,
        makespan=makespan,
        avg_tier_net_utilization=tier_avgs,
    )
