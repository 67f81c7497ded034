"""Tests of the benchmark itself: ``python -m pytest perfbench -q``."""

from __future__ import annotations

import json
import random
import sys
import time
from array import array
from dataclasses import fields, replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from repro.config import paper_default  # noqa: E402
from repro.metrics import RunSummary  # noqa: E402
from repro.network import NetworkFabric  # noqa: E402
from repro.schedulers import RISAScheduler  # noqa: E402
from repro.sim import DDCSimulator  # noqa: E402
from repro.topology import build_cluster  # noqa: E402

from measure import (  # noqa: E402
    Rep,
    SchedulerRun,
    check_run,
    end_to_end_metrics,
    outcome_metrics,
    paper_savings,
    run_rep,
    tail_percentile,
)
from probe import INTERVAL_S, NOMINAL_S, HostProbe  # noqa: E402
from spans import Tracer, self_times  # noqa: E402
from suite import SCHEDULERS, WORKLOADS  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


# --------------------------------------------------------------------- #
# Percentile rule
# --------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0),
     (9999, 99.0), (10_000, 99.9), (100_000, 99.99)],
)
def test_tail_percentile_needs_ten_samples_beyond_it(n, expected):
    assert tail_percentile(n) == expected


# --------------------------------------------------------------------- #
# Self time
# --------------------------------------------------------------------- #


def test_self_time_subtracts_nested_children():
    # root [0, 10] with children [1, 3] and [4, 8]; [4, 8] has child [5, 6].
    start = [0.0, 1.0, 4.0, 5.0]
    end = [10.0, 3.0, 8.0, 6.0]
    parent = [-1, 0, 0, 2]
    assert self_times(start, end, parent) == [4.0, 2.0, 3.0, 1.0]


def test_self_time_clips_and_merges_misbehaving_children():
    # Overlapping children and one sticking out of the parent: the covered
    # part is the union clipped to [0, 10], i.e. [2, 10].
    start = [0.0, 2.0, 5.0, 8.0]
    end = [10.0, 6.0, 9.0, 12.0]
    parent = [-1, 0, 0, 0]
    assert self_times(start, end, parent)[0] == 2.0


@pytest.mark.parametrize("seed", range(20))
def test_child_sum_never_exceeds_parent(seed):
    rng = random.Random(seed)
    start, end, parent = [], [], []
    for i in range(60):
        s = rng.uniform(0.0, 100.0)
        start.append(s)
        end.append(s + rng.uniform(0.0, 30.0))
        parent.append(rng.randrange(-1, i) if i else -1)
    for i, own in enumerate(self_times(start, end, parent)):
        assert -1e-9 <= own <= end[i] - start[i] + 1e-12


# --------------------------------------------------------------------- #
# Savings formulas
# --------------------------------------------------------------------- #


def _summary(scheduler: str, **values) -> RunSummary:
    blank = {f.name: 0 for f in fields(RunSummary)}
    blank.update(scheduler=scheduler, avg_tier_net_utilization={})
    return replace(RunSummary(**blank), **values)


def _rep(**per_scheduler) -> Rep:
    runs = [SchedulerRun(name, _summary(name, **per_scheduler[name]), 0.0, 1.0, [])
            for name in SCHEDULERS]
    return Rep(generate_s=0.0, runs=runs)


def test_paper_savings_and_ratios():
    common = dict(total_vms=100, scheduled_vms=100)
    rep = _rep(
        risa=dict(avg_optical_power_kw=2.0, total_optical_energy_j=200.0,
                  avg_cpu_ram_latency_ns=110.0, **common),
        risa_bf=dict(common),
        nulb=dict(avg_optical_power_kw=2.5, total_optical_energy_j=250.0,
                  avg_cpu_ram_latency_ns=208.0, **common),
        nalb=dict(avg_optical_power_kw=3.5, total_optical_energy_j=350.0,
                  avg_cpu_ram_latency_ns=196.0, **common),
    )
    power, rtt = paper_savings(rep)
    assert power == pytest.approx(100.0 * (1.0 - 2.0 / 3.0))
    assert rtt == pytest.approx(100.0 * (1.0 - 110.0 / 202.0))
    outcome = outcome_metrics(rep)
    # Nothing dropped: the per-VM energy ratio is the power ratio.
    assert outcome["energy_ratio_pct"] == pytest.approx(100.0 - power)
    assert outcome["rtt_ratio_pct"] == pytest.approx(100.0 - rtt)
    assert outcome["placed_pct"] == 100.0


def test_energy_ratio_is_per_placed_vm():
    rep = _rep(
        risa=dict(total_optical_energy_j=100.0, scheduled_vms=50, total_vms=100,
                  avg_cpu_ram_latency_ns=1.0),
        risa_bf=dict(scheduled_vms=100, total_vms=100),
        nulb=dict(total_optical_energy_j=100.0, scheduled_vms=25, total_vms=100,
                  avg_cpu_ram_latency_ns=1.0),
        nalb=dict(total_optical_energy_j=100.0, scheduled_vms=25, total_vms=100,
                  avg_cpu_ram_latency_ns=1.0),
    )
    outcome = outcome_metrics(rep)
    assert outcome["energy_ratio_pct"] == pytest.approx(50.0)
    assert outcome["placed_pct"] == pytest.approx(50.0)


# --------------------------------------------------------------------- #
# Host-speed probe
# --------------------------------------------------------------------- #


def test_probe_runs_once_per_interval_and_scales_by_its_median():
    probe = HostProbe()
    assert probe.scale == 1.0
    start = time.perf_counter()
    while time.perf_counter() - start < 2.5 * INTERVAL_S:
        probe.tick()
    # At the first tick, then once per interval after the previous probe ends.
    assert 2 <= len(probe.times) <= 3
    assert probe.spent == pytest.approx(sum(probe.times))
    probe.times = array("d", [1.0, 4.0, 2.0])
    assert probe.scale == pytest.approx(NOMINAL_S / 2.0)


def test_host_times_are_scaled_and_exclude_the_probe():
    rep = run_rep(WORKLOADS["paper_azure"], 5, limit=1000)
    for run in rep.runs:
        assert run.scale > 0.0 and run.scale != 1.0
        assert sum(run.decision_s) < run.run_s
    metrics = end_to_end_metrics([rep])
    risa = rep.run("risa")
    assert metrics["events_per_s.risa"][0] == pytest.approx(
        risa.events / (risa.run_s * risa.scale))
    assert metrics["decision_mean_us.risa"][0] == pytest.approx(
        1e6 * risa.summary.scheduler_time_s * risa.scale / 1000)
    assert rep.setup_s == pytest.approx(
        rep.generate_s * risa.scale + sum(r.setup_s * r.scale for r in rep.runs))


# --------------------------------------------------------------------- #
# Output checks
# --------------------------------------------------------------------- #


class LeakyRISA(RISAScheduler):
    """Forgets to return the CPU slice of the first VM that departs."""

    leaked = False

    def release(self, placement):
        if not self.leaked:
            self.leaked = True
            self.cluster.box(placement.ram.box_id).release(placement.ram)
            if placement.storage is not None:
                self.cluster.box(placement.storage.box_id).release(placement.storage)
            for circuit in placement.circuits:
                self.fabric.release(circuit)
            return
        super().release(placement)


def _run(scheduler_cls, cols):
    spec = paper_default()
    cluster = build_cluster(spec)
    fabric = NetworkFabric(spec, cluster)
    scheduler = scheduler_cls(spec, cluster, fabric)
    sim = DDCSimulator(spec, scheduler, cluster=cluster, fabric=fabric, keep_records=False)
    return sim, sim.run(cols).summary


def test_checks_pass_on_a_clean_run():
    cols = WORKLOADS["paper_azure"].trace(3, limit=200)
    sim, summary = _run(RISAScheduler, cols)
    assert check_run(sim, summary, len(cols), decisions=len(cols)) == []


def test_check_fires_on_a_leaked_allocation():
    cols = WORKLOADS["paper_azure"].trace(3, limit=200)
    sim, summary = _run(LeakyRISA, cols)
    problems = check_run(sim, summary, len(cols))
    assert len(problems) == 1 and problems[0].startswith("CPU:")


def test_check_fires_on_lost_arrivals_and_decisions():
    cols = WORKLOADS["paper_azure"].trace(3, limit=200)
    sim, summary = _run(RISAScheduler, cols)
    problems = check_run(sim, summary, len(cols) + 1, decisions=len(cols) - 1)
    assert len(problems) == 2


# --------------------------------------------------------------------- #
# Smoke runs and the BENCHMARK.json contract
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_of_each_workload(name):
    workload = WORKLOADS[name]
    first = run_rep(workload, 5, limit=1000)
    again = run_rep(workload, 5, limit=1000)
    assert [run.problems for run in first.runs] == [[]] * len(SCHEDULERS)
    assert first.digest == again.digest
    metrics = end_to_end_metrics([first, again])
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(metrics)
    for metric in BENCHMARK["end_to_end"]:
        assert metrics[metric["name"]][1] == metric["unit"]
        assert metrics[metric["name"]][0] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_smoke_run_restores_every_wrapper(name):
    workload = WORKLOADS[name]
    allocate_flows = NetworkFabric.allocate_flows
    plain = run_rep(workload, 5, limit=300)
    tracer = Tracer()
    traced = run_rep(workload, 5, limit=300, tracer=tracer)
    assert NetworkFabric.allocate_flows is allocate_flows
    assert traced.digest == plain.digest
    assert [run.problems for run in traced.runs] == [[]] * len(SCHEDULERS)
    assert tracer.negative_self == 0
    layers = tracer.layer_metrics()
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert set(per_layer) == set(layers) | {"trace.overhead_pct"}
    for key, (value, unit) in layers.items():
        assert unit == per_layer[key] and value >= 0
    assert layers["schedulers.decisions"][0] == 4 * 300
