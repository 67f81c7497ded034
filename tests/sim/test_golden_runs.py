"""Replay every golden cell against its recorded pin, on both state backends.

``golden_runs.json`` holds the event digest, end time, and summary hash of
each cell in :func:`golden.cells` (4 paper schedulers x seeds 0-19 x the
paper / pod-scale / VL2 / fat-tree presets on a 60-VM synthetic trace, plus
an oversubscribed tiny cluster and a run truncated mid-trace).  The
``arrays`` backend drains departure bursts through the fused batch; the
``objects`` backend takes the scalar per-departure loop, so the two replays
pin the fused and scalar release paths to the same recorded values.
Re-record with ``PYTHONPATH=src python tests/sim/golden.py --write``.
"""

import pytest

from repro.metrics import MetricsCollector
from repro.state import state_backend
from tests.sim.golden import Cell, cells, load, run_cell

PINS = load()
CELLS = cells()


def test_fixture_covers_every_cell():
    assert sorted(PINS) == sorted(cell.key for cell in CELLS)


@pytest.mark.parametrize("backend", ("arrays", "objects"))
@pytest.mark.parametrize("cell", CELLS, ids=lambda cell: cell.key)
def test_replay_matches_pin(cell, backend):
    with state_backend(backend):
        got = run_cell(cell)
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


@pytest.mark.parametrize("backend, fused", (("arrays", True), ("objects", False)))
def test_backend_selects_release_path(monkeypatch, backend, fused):
    """The replays above are only a fused-vs-scalar check if the arrays
    backend really takes the fused batch and objects never does."""
    batches = []
    original = MetricsCollector.record_release_batch

    def counting(self, times, values):
        batches.append(len(times))
        return original(self, times, values)

    monkeypatch.setattr(MetricsCollector, "record_release_batch", counting)
    with state_backend(backend):
        run_cell(Cell("paper", "nulb", 0))
    assert bool(batches) is fused
