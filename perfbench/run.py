"""Benchmark entry point for the RISA simulator.

    python3 perfbench/run.py --workload paper_azure --seed 1 --seconds 30 --trace 0

Runs the named workload (see ``suite.py``) with the four paper schedulers,
one after another in this process: once, untimed, on a short prefix of the
trace, then repeating the whole set until ``--seconds`` is used up.  Host
times are reported in reference-host seconds (see ``probe.py``).  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates an untraced and a traced repetition and reports the per-layer
metrics plus the tracing overhead.
Every run's output is checked (see ``measure.check_run``); the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``, and the exit code is non-zero when any check
failed.  README.md in this directory documents every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: The implementation-selecting knobs and their defaults (None: unset).
#: ``REPRO_LAZY_GAUGES`` follows ``REPRO_EVENT_BATCHING`` when unset.
KNOB_DEFAULTS = {
    "REPRO_SIM_ENGINE": "flat",
    "REPRO_STATE_BACKEND": "arrays",
    "REPRO_PLACEMENT_INDEX": "indexed",
    "REPRO_EVENT_BATCHING": "on",
    "REPRO_LAZY_GAUGES": "on",
    "REPRO_WORKLOAD_CACHE": None,
    "REPRO_VERIFY_TOTALS": None,
}

#: The paper's reported RISA savings against NULB/NALB (Section 5.2).
PAPER_POWER_SAVING_PCT = 33.0
PAPER_RTT_SAVING_PCT = 50.0


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_repro() -> None:
    """Put this checkout's ``src/`` first on the path and import from it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"no simulator sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        fail(f"imported repro from {repro.__file__}, not from {SRC}")


def git_sha() -> str | None:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def manifest(workload, args) -> dict:
    import numpy

    knobs = {name: os.environ.get(name) for name in KNOB_DEFAULTS}
    off_default = sorted(
        name for name, value in knobs.items()
        if value is not None and value != KNOB_DEFAULTS[name]
    )
    return {
        "workload": workload.name,
        "params": workload.params,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "knobs": knobs,
        "knobs_off_default": off_default,
    }


#: Arrivals in the untimed warm-up repetition that precedes every run.
WARMUP_VMS = 1000


def warm_up(workload, seed: int) -> int:
    """One short untimed repetition, so that first-call costs (lazy imports,
    allocator growth) stay out of the timed ones; returns its failed runs."""
    from measure import run_rep

    rep = run_rep(workload, seed, limit=WARMUP_VMS)
    for run in rep.runs:
        for problem in run.problems:
            print(f"CHECK FAILED [warm-up {run.scheduler}]: {problem}")
    return sum(bool(run.problems) for run in rep.runs)


def repeat(step, seconds: float) -> list:
    """Call ``step()`` at least once, and again while another call is
    expected to finish within ``seconds`` of the first."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(step())
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(results) > seconds:
            return results


def failed_runs(reps, reference) -> int:
    """Runs with a failed check or a summary that differs from ``reference``."""
    from measure import sim_digest

    failed = 0
    for rep in reps:
        for run, ref in zip(rep.runs, reference.runs):
            for problem in run.problems:
                print(f"CHECK FAILED [{run.scheduler}]: {problem}")
            if sim_digest([run.summary]) != sim_digest([ref.summary]):
                print(f"CHECK FAILED [{run.scheduler}]: summary differs between "
                      "repetitions of one seed")
                run.problems.append("non-deterministic summary")
            failed += bool(run.problems)
    return failed


def report_untraced(workload, args):
    from measure import decision_tail, end_to_end_metrics, paper_savings, run_rep

    warm_failed = warm_up(workload, args.seed)
    reps = repeat(lambda: run_rep(workload, args.seed), args.seconds)
    failed = warm_failed + failed_runs(reps, reps[0])
    metrics = end_to_end_metrics(reps)
    print(f"{workload.name}: {len(reps)} repetitions x 4 schedulers, "
          f"sim_digest {reps[0].digest}")
    print_scales(reps)
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.4f} {unit}")
    n, tail, tail_us = decision_tail(reps)
    print(f"  decisions: n={n} per scheduler run, highest reportable percentile "
          f"p{tail:g} = {tail_us:.2f} us (per-arrival medians, mean over schedulers)")
    print(f"  drop_pct {100.0 - metrics['placed_pct'][0]:.4f} %")
    power, rtt = paper_savings(reps[0])
    print(f"  RISA saving vs mean(NULB, NALB): power {power:.2f}% "
          f"(paper {PAPER_POWER_SAVING_PCT:g}%), CPU-RAM RTT {rtt:.2f}% "
          f"(paper {PAPER_RTT_SAVING_PCT:g}%)")
    return 4 * (len(reps) + 1), failed, metrics


def spread(values: list[float]) -> float:
    """Interquartile range over median (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def print_scales(reps) -> None:
    """The host-speed scales applied to the untraced runs (see probe.py), and
    how much they steady the repetitions' throughput."""
    from suite import SCHEDULERS

    scales = [run.scale for rep in reps for run in rep.runs]
    print(f"  host-speed scale: median {statistics.median(scales):.3f}, range "
          f"{min(scales):.3f}-{max(scales):.3f} reference-host s per host s")
    steadied = []
    for name in SCHEDULERS:
        runs = [rep.run(name) for rep in reps]
        raw = spread([run.events / run.run_s for run in runs])
        steadied.append(f"{name} {raw:.3f} -> {spread([r.events_per_s for r in runs]):.3f}")
    print("  events/s spread over repetitions, host s -> reference-host s: "
          + ", ".join(steadied))


def report_traced(workload, args):
    from measure import run_rep
    from spans import Tracer

    def pair():
        plain = run_rep(workload, args.seed)
        tracer = Tracer()
        traced = run_rep(workload, args.seed, tracer=tracer)
        return plain, traced, tracer

    warm_failed = warm_up(workload, args.seed)
    pairs = repeat(pair, args.seconds)
    reps = [rep for plain, traced, _ in pairs for rep in (plain, traced)]
    failed = warm_failed + failed_runs(reps, reps[0])
    negative = sum(tracer.negative_self for _, _, tracer in pairs)
    if negative:
        print(f"CHECK FAILED: {negative} spans have negative self time")
        failed += 1
    per_pair = [tracer.layer_metrics() for _, _, tracer in pairs]
    metrics = {
        name: (statistics.median(m[name][0] for m in per_pair), unit)
        for name, (_, unit) in per_pair[0].items()
    }
    metrics["trace.overhead_pct"] = (
        statistics.median(100.0 * (t.wall_s / p.wall_s - 1.0) for p, t, _ in pairs),
        "%")
    print(f"{workload.name}: {len(pairs)} untraced + traced repetition pairs, "
          f"sim_digest {reps[0].digest}")
    print_scales([plain for plain, _, _ in pairs])
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    return 4 * (len(reps) + 1), failed, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")
    import_repro()
    sys.path.insert(0, str(HERE))
    from suite import DEFAULT_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seed is None:
        args.seed = DEFAULT_SEED
    workload = WORKLOADS[args.workload]
    info = manifest(workload, args)
    print("manifest: " + json.dumps(info, sort_keys=True))
    for name in info["knobs_off_default"]:
        warning = (f"WARNING: {name}={os.environ[name]} is not the default stack; "
                   "these numbers do not measure the default build")
        print(warning)
        print(warning, file=sys.stderr)
    report = report_traced if args.trace else report_untraced
    attempted, failed, metrics = report(workload, args)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
