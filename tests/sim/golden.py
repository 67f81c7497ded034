"""Golden run pins: the cell matrix, one cell's run, and the recorder.

A *cell* is one ``DDCSimulator.run`` of a paper scheduler over a
``generate_synthetic`` trace on a preset cluster.  Its pin is the
``EventLog`` digest, the end time, and a SHA-256 of the run summary with the
wall-clock ``scheduler_time_s`` removed; seed-0 cells also keep the full
summary so a failing replay shows which field moved.
``test_golden_runs.py`` replays every cell against ``golden_runs.json``,
once per departure path (see :data:`RELEASE_PATHS`); the test never writes
the file.

Re-record (only when a change is *meant* to move simulated outcomes)::

    PYTHONPATH=src python tests/sim/golden.py --write

The pins were first recorded while a generator-process reference engine, a
per-departure release mode, an eager-gauge mode and a struct-of-arrays state
backend still existed; all of them agreed with these values cell for cell.
The pod-failure cell was recorded while drained states still released one
departure at a time, so it pins the batched release onto drained racks to
that per-departure result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from repro.config import PRESETS
from repro.experiments.scenarios import PodFailure
from repro.network import NetworkFabric
from repro.schedulers import scheduler_class
from repro.sim import DDCSimulator, EventLog
from repro.topology import build_cluster
from repro.workloads import SyntheticWorkloadParams, generate_synthetic

GOLDEN_PATH = Path(__file__).with_name("golden_runs.json")

PRESET_NAMES = ("paper", "pod-scale", "vl2", "fat-tree")
SCHEDULERS = ("risa", "risa_bf", "nulb", "nalb")
SEEDS = range(20)
TRACE_COUNT = 60

#: The simulator's two departure paths.  ``batched`` is the stock one: each
#: run of departures goes through the cluster, fabric and collector batch
#: entry points.  ``per-departure`` gives the scheduler a ``release``
#: override (with the stock body), which sends every departure through
#: ``Scheduler.release`` and ``MetricsCollector.record_release`` one at a
#: time.  Both must reproduce the same pins.
RELEASE_PATHS = ("batched", "per-departure")


@dataclass(frozen=True)
class Cell:
    """One pinned run: preset x scheduler x synthetic trace (x horizon)."""

    preset: str
    scheduler: str
    seed: int
    count: int = TRACE_COUNT
    #: Stop the run at the median departure time instead of draining it.
    truncated: bool = False
    #: Drain this pod at the arrival of the VM a third of the way into the
    #: trace; its tenants keep departing onto the sticky drain.
    pod_failure: int | None = None

    @property
    def key(self) -> str:
        key = f"{self.preset}/{self.scheduler}/seed{self.seed}/n{self.count}"
        if self.pod_failure is not None:
            key += f"/pod{self.pod_failure}-failure"
        return key + "/until-median" if self.truncated else key


def cells() -> list[Cell]:
    """Every pinned cell, in recording order."""
    out = [
        Cell(preset, scheduler, seed)
        for preset in PRESET_NAMES
        for scheduler in SCHEDULERS
        for seed in SEEDS
    ]
    # An oversubscribed cluster: drops and scheduler commit rollbacks.
    out += [Cell("tiny", scheduler, 1, count=200) for scheduler in SCHEDULERS]
    # A run cut mid-trace: ``until`` semantics and mid-run state.
    out.append(Cell("paper", "risa", 3, count=200, truncated=True))
    # A pod failure while arrivals and departures interleave: runs of two
    # or more departures release onto drained racks.
    out.append(Cell("pod-scale", "risa", 1, count=1000, pod_failure=0))
    return out


def load() -> dict:
    """The recorded pins, by cell key."""
    return json.loads(GOLDEN_PATH.read_text())["cells"]


def summary_sha256(summary: dict) -> str:
    return hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest()


def per_departure_scheduler(name: str, spec, cluster, fabric):
    """Scheduler ``name`` with ``release`` overridden by its own stock body,
    so the simulator releases its departures one at a time."""
    base = scheduler_class(name)

    class PerDeparture(base):
        def release(self, placement):
            super().release(placement)

    return PerDeparture(spec, cluster, fabric)


def run_cell(cell: Cell, release: str = "batched") -> dict:
    """Run one cell down one of :data:`RELEASE_PATHS` and return its pin
    (plus the full summary)."""
    vms = generate_synthetic(SyntheticWorkloadParams(count=cell.count), seed=cell.seed)
    until = None
    if cell.truncated:
        until = sorted(vm.departure for vm in vms)[len(vms) // 2]
    log = EventLog()
    spec = PRESETS[cell.preset]()
    if release == "batched":
        sim = DDCSimulator(spec, cell.scheduler, event_log=log)
    elif release == "per-departure":
        cluster = build_cluster(spec)
        fabric = NetworkFabric(spec, cluster)
        scheduler = per_departure_scheduler(cell.scheduler, spec, cluster, fabric)
        sim = DDCSimulator(spec, scheduler, cluster=cluster, fabric=fabric,
                           event_log=log)
    else:
        raise ValueError(f"unknown release path {release!r}; "
                         f"known: {RELEASE_PATHS}")
    if cell.pod_failure is not None:
        when = sorted(vm.arrival for vm in vms)[len(vms) // 3]
        sim.schedule_fault(when, PodFailure(cell.pod_failure))
    result = sim.run(vms, until=until)
    if until is None:
        log.audit()
    summary = result.summary.as_dict()
    summary.pop("scheduler_time_s")  # wall clock: legitimately nondeterministic
    return {
        "digest": log.digest(),
        "end_time": result.end_time,
        "summary_sha256": summary_sha256(summary),
        "summary": summary,
    }


def record() -> dict:
    """Run every cell and return its pin by cell key."""
    for var in list(os.environ):
        if var.startswith("REPRO_"):
            del os.environ[var]
    entries = {}
    for cell in cells():
        pin = run_cell(cell)
        entry = {
            "digest": pin["digest"],
            "end_time": pin["end_time"],
            "summary_sha256": pin["summary_sha256"],
        }
        if cell.seed == 0:
            entry["summary"] = pin["summary"]
        entries[cell.key] = entry
    return entries


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help=f"record every cell into {GOLDEN_PATH.name}")
    args = parser.parse_args(argv)
    if not args.write:
        parser.error("nothing to do: pass --write to re-record the pins")
    entries = record()
    # One line per cell keeps re-recording diffs readable.
    lines = [f"{json.dumps(key)}: {json.dumps(entry, sort_keys=True)}"
             for key, entry in entries.items()]
    GOLDEN_PATH.write_text('{"cells": {\n' + ",\n".join(lines) + "\n}}\n")
    print(f"wrote {len(entries)} cells to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
