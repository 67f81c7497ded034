"""Golden run pins: the cell matrix, one cell's run, and the recorder.

A *cell* is one ``DDCSimulator.run`` of a paper scheduler over a
``generate_synthetic`` trace on a preset cluster.  Its pin is the
``EventLog`` digest, the end time, and a SHA-256 of the run summary with the
wall-clock ``scheduler_time_s`` removed; seed-0 cells also keep the full
summary so a failing replay shows which field moved.
``test_golden_runs.py`` replays every cell against ``golden_runs.json``;
the test never writes the file.

Re-record (only when a change is *meant* to move simulated outcomes)::

    PYTHONPATH=src python tests/sim/golden.py --write

While recording, every cell also runs on the objects state backend, and
the recorder refuses to write unless it agrees with the default stack.  The
pins were first recorded while a generator-process reference engine, a
per-departure release mode and an eager-gauge mode still existed; all of
them agreed with these values cell for cell.
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
from repro.sim import DDCSimulator, EventLog
from repro.state import state_backend
from repro.workloads import SyntheticWorkloadParams, generate_synthetic

GOLDEN_PATH = Path(__file__).with_name("golden_runs.json")

PRESET_NAMES = ("paper", "pod-scale", "vl2", "fat-tree")
SCHEDULERS = ("risa", "risa_bf", "nulb", "nalb")
SEEDS = range(20)
TRACE_COUNT = 60


@dataclass(frozen=True)
class Cell:
    """One pinned run: preset x scheduler x synthetic trace (x horizon)."""

    preset: str
    scheduler: str
    seed: int
    count: int = TRACE_COUNT
    #: Stop the run at the median departure time instead of draining it.
    truncated: bool = False

    @property
    def key(self) -> str:
        key = f"{self.preset}/{self.scheduler}/seed{self.seed}/n{self.count}"
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
    return out


def load() -> dict:
    """The recorded pins, by cell key."""
    return json.loads(GOLDEN_PATH.read_text())["cells"]


def summary_sha256(summary: dict) -> str:
    return hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest()


def run_cell(cell: Cell) -> dict:
    """Run one cell (the simulator latches the caller's state backend)."""
    vms = generate_synthetic(SyntheticWorkloadParams(count=cell.count), seed=cell.seed)
    until = None
    if cell.truncated:
        until = sorted(vm.departure for vm in vms)[len(vms) // 2]
    log = EventLog()
    sim = DDCSimulator(PRESETS[cell.preset](), cell.scheduler, event_log=log)
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
    """Run every cell, cross-check it, and return its pin by cell key."""
    for var in list(os.environ):
        if var.startswith("REPRO_"):
            del os.environ[var]
    entries = {}
    for cell in cells():
        pin = run_cell(cell)
        with state_backend("objects"):
            if run_cell(cell) != pin:
                raise SystemExit(f"{cell.key}: the objects backend disagrees")
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
