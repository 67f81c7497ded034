"""One repetition of a workload, its output checks, and the end-to-end metrics.

A repetition generates the workload's trace, then runs the four paper
schedulers one after another on it in this process, each on a freshly built
cluster.  Set-up (trace generation plus building each simulator) is timed
apart from ``DDCSimulator.run``.  Untraced runs carry a host-speed probe
(see :mod:`probe`), and every host-time metric is reported in
reference-host seconds.
"""

from __future__ import annotations

import gc
import hashlib
import json
import statistics
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.memstats import peak_rss_bytes
from repro.metrics import MetricsCollector, RunSummary
from repro.sim import DDCSimulator
from repro.types import RESOURCE_ORDER

from probe import HostProbe
from suite import SCHEDULERS, Workload

#: Candidate percentiles for the reported tail, lowest first.
PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99, 99.999)
#: Samples that must lie beyond a percentile before it may be reported.
MIN_TAIL_SAMPLES = 10


@dataclass
class SchedulerRun:
    """One scheduler's pass over the trace."""

    scheduler: str
    summary: RunSummary
    setup_s: float
    run_s: float
    problems: list[str]
    #: Reference-host seconds per host second during the run (see probe.py).
    scale: float = 1.0
    #: Per-arrival ``Scheduler.schedule`` times (host seconds).
    decision_s: array = field(default_factory=lambda: array("d"))

    @property
    def events(self) -> int:
        """Simulated arrivals plus departures."""
        return self.summary.total_vms + self.summary.scheduled_vms

    @property
    def events_per_s(self) -> float:
        """Events per reference-host second of ``DDCSimulator.run``."""
        return self.events / (self.run_s * self.scale)

    @property
    def decision_mean_us(self) -> float:
        """``scheduler_time_s / total_vms`` in reference-host microseconds."""
        return 1e6 * self.summary.scheduler_time_s * self.scale / self.summary.total_vms


@dataclass
class Rep:
    """One repetition: the four scheduler runs on one generated trace."""

    #: Trace generation (and building the spec), once per repetition.
    generate_s: float
    runs: list[SchedulerRun]
    #: Host time of the repetition, probes excluded (seconds).
    wall_s: float = 0.0
    #: Process high-water RSS when the repetition ended (bytes).
    peak_rss: int = 0

    @property
    def setup_s(self) -> float:
        """Everything paid before the first event of each run, in
        reference-host seconds (generation at the first run's scale)."""
        return (self.generate_s * self.runs[0].scale
                + sum(run.setup_s * run.scale for run in self.runs))

    @property
    def digest(self) -> str:
        return sim_digest([run.summary for run in self.runs])

    def run(self, scheduler: str) -> SchedulerRun:
        return next(run for run in self.runs if run.scheduler == scheduler)

    def summary(self, scheduler: str) -> RunSummary:
        return self.run(scheduler).summary


def sim_digest(summaries: list[RunSummary]) -> str:
    """Hash of every simulated ``RunSummary`` field (not ``scheduler_time_s``).

    Host-speed changes must leave it bit-identical: floats are hashed via
    ``json``'s shortest round-trip ``repr``.
    """
    h = hashlib.sha256()
    for summary in summaries:
        fields = summary.as_dict()
        fields.pop("scheduler_time_s")
        h.update(json.dumps(fields, sort_keys=True).encode())
    return h.hexdigest()[:16]


def check_run(sim: DDCSimulator, summary: RunSummary, arrivals: int,
              decisions: int | None = None) -> list[str]:
    """Output checks for one drained run; returns the problems found."""
    problems = []
    if summary.total_vms != arrivals:
        problems.append(f"{summary.total_vms} VMs recorded for {arrivals} arrivals")
    if summary.scheduled_vms + summary.dropped_vms != summary.total_vms:
        problems.append(
            f"scheduled {summary.scheduled_vms} + dropped {summary.dropped_vms} "
            f"!= arrivals {summary.total_vms}"
        )
    if decisions is not None and decisions != arrivals:
        problems.append(f"{decisions} scheduler decisions for {arrivals} arrivals")
    cluster = sim.cluster
    for rtype in RESOURCE_ORDER:
        avail, cap = cluster.total_avail(rtype), cluster.total_capacity(rtype)
        if avail != cap:
            problems.append(f"{rtype.name}: {avail} of {cap} units free after drain")
    for tier in sim.fabric.tiers:
        used = sim.fabric.tier_used_gbps(tier)
        if used != 0.0:
            problems.append(f"tier {tier.name}: {used} Gb/s still reserved after drain")
    return problems


@contextmanager
def decision_samples(out: array, probe: HostProbe | None = None):
    """Collect each arrival's scheduler time as the simulator measures it.

    The simulator already reads one clock pair around every
    ``Scheduler.schedule`` call and hands the difference to
    ``MetricsCollector.add_scheduler_time``; this tees those values into
    ``out`` and ticks ``probe``, outside the simulator's clock pair.
    ``MetricsCollector`` has ``__slots__``, so the tee sits on the class for
    the duration and is removed afterwards.
    """
    original = MetricsCollector.add_scheduler_time
    tick = probe.tick if probe is not None else (lambda: None)

    def add_scheduler_time(self, seconds: float) -> None:
        out.append(seconds)
        original(self, seconds)
        tick()

    MetricsCollector.add_scheduler_time = add_scheduler_time
    try:
        yield
    finally:
        MetricsCollector.add_scheduler_time = original


def run_rep(workload: Workload, seed: int, limit: int | None = None,
            tracer=None) -> Rep:
    """Generate the trace and run every paper scheduler over it once.

    With a ``tracer`` (see :mod:`spans`), generation and each run are
    recorded as spans and the tracer's wrappers are live during each run;
    traced runs carry no host-speed probe, so their scale is 1.
    """
    wall = start = time.perf_counter()
    if tracer is None:
        cols = workload.trace(seed, limit)
    else:
        cols = tracer.call("workloads.generate", workload.trace, seed, limit)
    spec = workload.spec()
    generate_s = time.perf_counter() - start
    rep = Rep(generate_s=generate_s, runs=[])
    probe_s = 0.0
    for name in SCHEDULERS:
        gc.collect()
        decisions = array("d")
        probe = HostProbe() if tracer is None else None
        start = time.perf_counter()
        sim = DDCSimulator(spec, name, keep_records=False)
        setup_s = time.perf_counter() - start
        with decision_samples(decisions, probe):
            if tracer is None:
                start = time.perf_counter()
                summary = sim.run(cols).summary
                end = time.perf_counter()
            else:
                with tracer.installed(sim):
                    start = time.perf_counter()
                    summary = tracer.call("sim.run", sim.run, cols).summary
                    end = time.perf_counter()
        problems = check_run(sim, summary, len(cols), len(decisions))
        if tracer is not None:
            problems += tracer.finish_run(summary)
        spent = probe.spent if probe is not None else 0.0
        probe_s += spent
        rep.runs.append(SchedulerRun(
            name, summary, setup_s, end - start - spent, problems,
            probe.scale if probe is not None else 1.0, decisions))
        del sim
    rep.wall_s = time.perf_counter() - wall - probe_s
    rep.peak_rss = peak_rss_bytes()
    return rep


# --------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------- #


def tail_percentile(n: int) -> float | None:
    """The highest percentile with at least ten samples beyond it."""
    best = None
    for p in PERCENTILES:
        # Rounded, so that e.g. 10000 * (100 - 99.9) / 100 counts as 10.
        if round(n * (100.0 - p) / 100.0, 6) >= MIN_TAIL_SAMPLES:
            best = p
    return best


def ratio_pct(risa: float, baselines: list[float]) -> float:
    """``100 * RISA / mean(baselines)``: 100 minus the paper's saving."""
    return 100.0 * risa / statistics.fmean(baselines)


def energy_per_vm(summary: RunSummary) -> float:
    """Optical energy per placed VM (joules)."""
    return summary.total_optical_energy_j / summary.scheduled_vms


def outcome_metrics(rep: Rep) -> dict[str, float]:
    """Simulated statistics of one repetition (repeat exactly per seed).

    Energy is compared per placed VM, not as average power: on workloads
    that drop, average power mostly counts how many VMs each scheduler
    placed.  With no drops and equal makespans (``paper_azure``) the two
    ratios are the same number.
    """
    risa = rep.summary("risa")
    base = [rep.summary("nulb"), rep.summary("nalb")]
    total = sum(run.summary.total_vms for run in rep.runs)
    placed = sum(run.summary.scheduled_vms for run in rep.runs)
    return {
        "energy_ratio_pct": ratio_pct(energy_per_vm(risa),
                                      [energy_per_vm(s) for s in base]),
        "rtt_ratio_pct": ratio_pct(risa.avg_cpu_ram_latency_ns,
                                   [s.avg_cpu_ram_latency_ns for s in base]),
        "placed_pct": 100.0 * placed / total,
    }


def paper_savings(rep: Rep) -> tuple[float, float]:
    """The paper's RISA savings, ``100 * (1 - RISA / mean(NULB, NALB))``,
    on average optical power and on CPU-RAM round-trip latency."""
    risa = rep.summary("risa")
    base = [rep.summary("nulb"), rep.summary("nalb")]
    return (
        100.0 - ratio_pct(risa.avg_optical_power_kw,
                          [s.avg_optical_power_kw for s in base]),
        100.0 - ratio_pct(risa.avg_cpu_ram_latency_ns,
                          [s.avg_cpu_ram_latency_ns for s in base]),
    )


def end_to_end_metrics(reps: list[Rep]) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics over a run's repetitions, as (value, unit)."""
    out: dict[str, tuple[float, str]] = {}
    for name in SCHEDULERS:
        out[f"events_per_s.{name}"] = (
            statistics.median(rep.run(name).events_per_s for rep in reps), "events/s")
    for name in SCHEDULERS:
        out[f"decision_mean_us.{name}"] = (
            statistics.median(rep.run(name).decision_mean_us for rep in reps), "us")
    n = len(reps[0].runs[0].decision_s)
    tail = tail_percentile(n)
    if tail is None or tail < 99.0:
        raise ValueError(f"{n} decisions are too few to report a p99")
    for p in (50.0, 99.0):
        out[f"decision_us.p{p:g}"] = (decision_percentile_us(reps, p), "us")
    out["setup_s"] = (statistics.median(rep.setup_s for rep in reps), "s")
    # After the first repetition the simulator's high-water mark is set;
    # later ones add only this benchmark's own decision samples.
    out["peak_rss_mb"] = (reps[0].peak_rss / 2**20, "MiB")
    for key, value in outcome_metrics(reps[0]).items():
        out[key] = (value, "%")
    return out


def typical_decisions(reps: list[Rep], scheduler: str) -> np.ndarray:
    """Each arrival's median decision time over the repetitions
    (reference-host seconds).

    The simulation is deterministic, so arrival ``i`` asks the scheduler the
    same question in every repetition.  A host hiccup slows it in a few
    repetitions and the median drops that, while a decision that is slow
    every time stays slow.
    """
    runs = [rep.run(scheduler) for rep in reps]
    return np.median([np.asarray(run.decision_s) * run.scale for run in runs], axis=0)


def decision_percentile_us(reps: list[Rep], p: float) -> float:
    """The ``p``-th percentile of each scheduler's typical decision times,
    averaged over the four schedulers (reference-host us).

    The schedulers are averaged rather than pooled because pooling fails on
    bimodal mixes: on ``saturated_128`` NULB and NALB decide in about 3 us
    and RISA in about 21 us, each on exactly half the samples, so a pooled
    median falls into the gap between them and jumps by a fifth between
    runs of the same code.
    """
    return 1e6 * statistics.fmean(
        float(np.percentile(typical_decisions(reps, name), p)) for name in SCHEDULERS)


def decision_tail(reps: list[Rep]) -> tuple[int, float, float]:
    """(samples per run, highest reportable percentile, its value in us)."""
    n = len(reps[0].runs[0].decision_s)
    tail = tail_percentile(n)
    return n, tail, decision_percentile_us(reps, tail)
