"""Span tracing of one simulator run from outside ``src/``.

:class:`Tracer` wraps the public entry points of each layer for the
duration of one run and restores them afterwards.  Wrappers go on the
instance where the class allows it (``Scheduler``), and on the live
object's class where ``__slots__`` refuses an instance attribute
(``NetworkFabric``, ``Box``, ``Cluster``, ``MetricsCollector``,
``PowerReport``, ``GaugeBank``, ``CapacityIndex``).  Module functions that
another module calls through a global name (``summarize``,
``resolve_columns``, ``path_switch_energy_j``) are swapped in the calling
module.

Every wrapped call records a span (name, start, end, parent span, VM id)
in flat arrays that stay in memory until the run ends; :meth:`finish_run`
then reduces them to per-name counts, total time and self time (duration
minus the part of it covered by child spans).  Counter-only wrappers
(capacity-index queries, gauge folds, per-path energy) record no span, so
their time stays with the caller.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from contextlib import contextmanager

from repro.metrics import RunSummary
from repro.metrics.gauges import GaugeBank
from repro.photonics import power_report
from repro.sim import simulator
from repro.workloads import columns

#: CapacityIndex methods that answer a placement query.
INDEX_QUERIES = (
    "first_fit", "first_fit_in_rack", "first_fit_in_racks", "first_fit_in_rack_runs",
    "first_fit_in_pod", "best_fit_in_pod", "pod_max_avail", "best_fit",
    "best_fit_in_rack", "worst_fit", "rack_max_avail", "fitting_boxes",
    "fitting_boxes_in_rack",
)


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent's interval and overlapping
    children are merged first, so the covered part never exceeds the
    parent's duration (up to float rounding).
    """
    n = len(start)
    children: dict[int, list[int]] = {}
    for i in range(n):
        p = parent[i]
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = [end[i] - start[i] for i in range(n)]
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered = 0.0
        run_lo = run_hi = None
        for k in sorted(kids, key=lambda k: start[k]):
            s, e = max(start[k], lo), min(end[k], hi)
            if e <= s:
                continue
            if run_hi is None or s > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = s, e
            else:
                run_hi = max(run_hi, e)
        if run_hi is not None:
            covered += run_hi - run_lo
        out[p] -= covered
    return out


class Tracer:
    """Span recorder plus the per-name totals of every finished run."""

    def __init__(self) -> None:
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("H")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("l")
        self._vm = array("q")
        self._stack: list[int] = []
        self._depth = 0
        self._fused_before = 0
        self._patches: list[tuple[object, str, bool, object]] = []
        #: name -> [calls, total seconds, self seconds], summed over runs.
        self.totals: dict[str, list[float]] = {}
        self.counts: Counter = Counter()
        self.negative_self = 0

    def _clear(self) -> None:
        # In place: live wrappers hold references to these containers.
        for spans in (self._name, self._start, self._end, self._parent, self._vm):
            del spans[:]
        self._stack.clear()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    # ------------------------------------------------------------------ #
    # Wrappers
    # ------------------------------------------------------------------ #

    def spanned(self, name: str, fn, vm_of=None, on_result=None):
        """``fn`` wrapped to record one span per call."""
        nid = self._name_id(name)
        clock = time.perf_counter
        names, starts, ends, parents, vms = (
            self._name, self._start, self._end, self._parent, self._vm)
        stack = self._stack

        def wrapper(*args, **kwargs):
            idx = len(names)
            parent = stack[-1] if stack else -1
            names.append(nid)
            parents.append(parent)
            if vm_of is not None:
                vms.append(vm_of(args))
            else:
                vms.append(vms[parent] if parent >= 0 else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def counted(self, key: str, fn):
        """``fn`` wrapped to bump ``counts[key]`` on outermost calls only."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self._depth == 0:
                counts[key] += 1
            self._depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1

        return wrapper

    def call(self, name: str, fn, *args):
        """Call ``fn(*args)`` inside a span named ``name``."""
        return self.spanned(name, fn)(*args)

    def _patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` with ``make(original)`` until restore."""
        own = vars(owner)
        had_own = attr in own
        self._patches.append((owner, attr, had_own, own.get(attr)))
        setattr(owner, attr, make(getattr(owner, attr)))

    def _restore(self) -> None:
        while self._patches:
            owner, attr, had_own, original = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    @contextmanager
    def installed(self, sim):
        """Wrap every layer entry point reachable from ``sim`` for one run."""
        self._fused_before = self.counts["fused_departures"]
        span, count, patch = self.spanned, self.counted, self._patch
        counts = self.counts
        try:
            sched = sim.scheduler

            def placed(args, placement):
                if placement is not None:
                    counts["placements"] += 1
                    counts["useful_allocs"] += 2 + (placement.storage is not None)

            patch(sched, "schedule", lambda f: span(
                "scheduler.schedule", f, vm_of=lambda a: a[0].vm_id, on_result=placed))
            patch(sched, "release", lambda f: span(
                "scheduler.release", f, vm_of=lambda a: a[0].vm_id))
            for box_cls in {type(box) for box in sim.cluster.all_boxes()}:
                patch(box_cls, "allocate", lambda f: span("box.allocate", f))
                patch(box_cls, "release", lambda f: span("box.release", f))
            patch(type(sim.cluster), "apply_release_batch",
                  lambda f: span("cluster.apply_release_batch", f))
            index = sim.cluster.capacity_index
            if index is not None:
                for attr in INDEX_QUERIES:
                    patch(type(index), attr, lambda f: count("index_queries", f))

            def flows_failed(args, circuits):
                if circuits is None:
                    counts["flow_alloc_failures"] += 1

            fabric_cls = type(sim.fabric)
            patch(fabric_cls, "allocate_flows", lambda f: span(
                "fabric.allocate_flows", f, on_result=flows_failed))
            patch(fabric_cls, "release", lambda f: span("fabric.release", f))
            patch(fabric_cls, "release_batch", lambda f: span("fabric.release_batch", f))

            def fused(args, _):
                counts["fused_departures"] += len(args[1])

            collector_cls = type(sim.collector)
            patch(collector_cls, "record_assignment",
                  lambda f: span("collector.record_assignment", f))
            patch(collector_cls, "record_drop", lambda f: span("collector.record_drop", f))
            patch(collector_cls, "record_release",
                  lambda f: span("collector.record_release", f))
            patch(collector_cls, "record_release_batch", lambda f: span(
                "collector.record_release_batch", f, on_result=fused))
            patch(GaugeBank, "update_all", lambda f: count("gauge_update_all", f))
            patch(GaugeBank, "advance_all", lambda f: count("gauge_advance_all", f))
            patch(type(sim.collector.power), "record_vm",
                  lambda f: span("power.record_vm", f))
            patch(power_report, "path_switch_energy_j",
                  lambda f: count("path_energy_calls", f))
            patch(simulator, "summarize", lambda f: span("metrics.summarize", f))
            patch(columns, "resolve_columns",
                  lambda f: span("workloads.resolve_columns", f))
            yield self
        finally:
            self._restore()

    # ------------------------------------------------------------------ #
    # Reduction
    # ------------------------------------------------------------------ #

    def finish_run(self, summary: RunSummary) -> list[str]:
        """Fold the run's spans into :attr:`totals`; returns check problems."""
        selfs = self_times(self._start, self._end, self._parent)
        per_run: dict[str, list[float]] = {}
        for i, nid in enumerate(self._name):
            row = per_run.setdefault(self._names[nid], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += self._end[i] - self._start[i]
            row[2] += selfs[i]
        # Tolerate float rounding in the child sum, nothing more.
        self.negative_self += sum(1 for s in selfs if s < -1e-9)
        for name, row in per_run.items():
            total = self.totals.setdefault(name, [0, 0.0, 0.0])
            for j in range(3):
                total[j] += row[j]
        self._clear()

        def calls(name):
            return per_run.get(name, [0])[0]

        arrivals = calls("collector.record_assignment") + calls("collector.record_drop")
        fused = self.counts["fused_departures"] - self._fused_before
        departures = calls("collector.record_release") + fused
        self.counts["arrivals"] += arrivals
        self.counts["departures"] += departures
        problems = []
        if arrivals != summary.total_vms:
            problems.append(f"traced {arrivals} arrivals, summary has {summary.total_vms}")
        if departures != summary.scheduled_vms:
            problems.append(
                f"traced {departures} departures for {summary.scheduled_vms} placements")
        return problems

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics pooled over every finished run."""
        t, c = self.totals, self.counts

        def calls(name):
            return t.get(name, [0, 0.0, 0.0])[0]

        def total(name):
            return t.get(name, [0, 0.0, 0.0])[1]

        def own(name):
            return t.get(name, [0, 0.0, 0.0])[2]

        def share(part, whole):
            return part / whole if whole else 0.0

        decisions = calls("scheduler.schedule")
        box_allocs = calls("box.allocate")
        flow_allocs = calls("fabric.allocate_flows")
        scalar_departures = calls("collector.record_release")
        folds = c["gauge_update_all"]
        return {
            "sim.events": (c["arrivals"] + c["departures"], "count"),
            "sim.self_s": (own("sim.run"), "s"),
            "sim.fused_departure_share": (
                share(c["fused_departures"], c["fused_departures"] + scalar_departures),
                "ratio"),
            "schedulers.decisions": (decisions, "count"),
            "schedulers.search_self_s": (own("scheduler.schedule"), "s"),
            "schedulers.place_ratio": (share(c["placements"], decisions), "ratio"),
            "schedulers.index_queries": (c["index_queries"], "count"),
            "schedulers.release_s": (total("scheduler.release"), "s"),
            "topology.box_allocs": (box_allocs, "count"),
            "topology.box_alloc_s": (total("box.allocate"), "s"),
            "topology.box_releases": (calls("box.release"), "count"),
            "topology.box_release_s": (total("box.release"), "s"),
            "topology.alloc_useful_ratio": (share(c["useful_allocs"], box_allocs), "ratio"),
            "topology.release_batch_s": (total("cluster.apply_release_batch"), "s"),
            "network.flow_allocs": (flow_allocs, "count"),
            "network.flow_alloc_s": (total("fabric.allocate_flows"), "s"),
            "network.flow_alloc_fail_ratio": (
                share(c["flow_alloc_failures"], flow_allocs), "ratio"),
            "network.releases": (calls("fabric.release"), "count"),
            "network.release_s": (total("fabric.release"), "s"),
            "network.release_batch_s": (total("fabric.release_batch"), "s"),
            "metrics.assign_s": (own("collector.record_assignment"), "s"),
            "metrics.drop_s": (total("collector.record_drop"), "s"),
            "metrics.release_s": (
                total("collector.record_release")
                + total("collector.record_release_batch"), "s"),
            "metrics.gauge_fold_ratio": (
                share(folds, folds + c["gauge_advance_all"]), "ratio"),
            "metrics.summarize_s": (total("metrics.summarize"), "s"),
            "photonics.vm_energy_calls": (calls("power.record_vm"), "count"),
            "photonics.vm_energy_s": (total("power.record_vm"), "s"),
            "photonics.path_energy_calls": (c["path_energy_calls"], "count"),
            "workloads.generate_s": (total("workloads.generate"), "s"),
            "workloads.resolve_s": (total("workloads.resolve_columns"), "s"),
        }
