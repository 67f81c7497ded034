"""Run a scheduler or its reference (paper linear-scan) search for the
equivalence tests.

The registered schedulers search through the capacity index and the bundle
free-link trees; :mod:`repro.schedulers.reference` keeps the paper's scans.
The rack-affinity and pod variants have no reference class of their own:
they compose here, by subclassing the reference search with the variant's
class (which supplies its ``name`` and search mode).
"""

from __future__ import annotations

from repro.network import NetworkFabric
from repro.schedulers import (
    NALBRackAffinityScheduler,
    NULBRackAffinityScheduler,
    RISAPodAffinityScheduler,
)
from repro.schedulers.reference import (
    REFERENCE_SCHEDULERS,
    ReferenceNALB,
    ReferenceNULB,
    ReferenceRISA,
)
from repro.sim import DDCSimulator, EventLog
from repro.topology import build_cluster


class ReferenceNULBRackAffinity(ReferenceNULB, NULBRackAffinityScheduler):
    pass


class ReferenceNALBRackAffinity(ReferenceNALB, NALBRackAffinityScheduler):
    pass


class ReferenceRISAPod(ReferenceRISA, RISAPodAffinityScheduler):
    pass


#: Reference search per registered scheduler name.
REFERENCE = {
    **REFERENCE_SCHEDULERS,
    **{
        cls.name: cls
        for cls in (ReferenceNULBRackAffinity, ReferenceNALBRackAffinity, ReferenceRISAPod)
    },
}


def run_sim(spec, scheduler, vms, reference=False, until=None):
    """One run of ``scheduler`` by name, or of its reference search:
    (event digest, summary without wall time, end time, simulator)."""
    log = EventLog()
    if reference:
        cluster = build_cluster(spec)
        fabric = NetworkFabric(spec, cluster)
        instance = REFERENCE[scheduler](spec, cluster, fabric)
        sim = DDCSimulator(spec, instance, cluster=cluster, fabric=fabric, event_log=log)
    else:
        sim = DDCSimulator(spec, scheduler, event_log=log)
    result = sim.run(vms, until=until)
    summary = result.summary.as_dict()
    summary.pop("scheduler_time_s")  # the one legitimately nondeterministic field
    return log.digest(), summary, result.end_time, sim
