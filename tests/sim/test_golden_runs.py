"""Replay every golden cell against its recorded pin, down both departure paths.

``golden_runs.json`` holds the event digest, end time, and summary hash of
each cell in :func:`golden.cells` (4 paper schedulers x seeds 0-19 x the
paper / pod-scale / VL2 / fat-tree presets on a 60-VM synthetic trace, plus
an oversubscribed tiny cluster, a run truncated mid-trace, and a pod-failure
run whose departure runs release onto drained racks).  Each cell replays
once per :data:`golden.RELEASE_PATHS` entry: the batched release and the
one-at-a-time release a scheduler's ``release`` override selects are pinned
to the same recorded values.
Re-record with ``PYTHONPATH=src python tests/sim/golden.py --write``.
"""

import pytest

from repro.metrics import MetricsCollector
from repro.topology import Cluster
from tests.sim.golden import RELEASE_PATHS, Cell, cells, load, run_cell

PINS = load()
CELLS = cells()


def test_fixture_covers_every_cell():
    assert sorted(PINS) == sorted(cell.key for cell in CELLS)


@pytest.mark.parametrize("release", RELEASE_PATHS)
@pytest.mark.parametrize("cell", CELLS, ids=lambda cell: cell.key)
def test_replay_matches_pin(cell, release):
    got = run_cell(cell, release)
    pin = PINS[cell.key]
    if "summary" in pin:
        assert got["summary"] == pin["summary"]  # readable field-level diff
    assert got["summary_sha256"] == pin["summary_sha256"]
    assert got["digest"] == pin["digest"]
    assert got["end_time"] == pin["end_time"]


def test_oversubscribed_cells_drop():
    for cell in CELLS:
        if cell.preset == "tiny":
            assert run_cell(cell)["summary"]["dropped_vms"] > 0, cell.key


@pytest.mark.parametrize("release", RELEASE_PATHS)
def test_release_path_is_taken(monkeypatch, release):
    """The two replays above pin two departure paths only if ``batched``
    releases runs of departures through the collector's batch entry point
    and ``per-departure`` releases every departure on its own."""
    calls = {"batch": [], "single": 0}
    record_batch = MetricsCollector.record_release_batch
    record_single = MetricsCollector.record_release

    def counting_batch(self, times, values):
        calls["batch"].append(len(times))
        return record_batch(self, times, values)

    def counting_single(self, now):
        calls["single"] += 1
        return record_single(self, now)

    monkeypatch.setattr(MetricsCollector, "record_release_batch", counting_batch)
    monkeypatch.setattr(MetricsCollector, "record_release", counting_single)
    got = run_cell(Cell("paper", "nulb", 0), release)
    departures = got["summary"]["scheduled_vms"]
    if release == "batched":
        assert calls["single"] == 0
        assert sum(calls["batch"]) == departures
        assert max(calls["batch"]) >= 2
    else:
        assert calls["batch"] == []
        assert calls["single"] == departures


def test_pod_failure_cell_batches_drained_departures(monkeypatch):
    """The pod-failure pin covers drain stickiness on the batch path only
    if runs of two or more departures really release onto drained racks."""
    cell = next(cell for cell in CELLS if cell.pod_failure is not None)
    drained_runs = []
    original = Cluster.apply_release_batch

    def counting(self, groups):
        drained = self.drained_racks
        if len(groups) >= 2 and any(
            self.box(receipt.box_id).rack_index in drained
            for receipts in groups
            for receipt in receipts
        ):
            drained_runs.append(len(groups))
        return original(self, groups)

    monkeypatch.setattr(Cluster, "apply_release_batch", counting)
    run_cell(cell)
    assert len(drained_runs) >= 10
