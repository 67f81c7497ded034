"""Smoke test for ``examples/admission_queue.py``: its retry queue is a plain
``heapq`` event loop, and these are the placed/turned-away counts it reported
when the same loop ran as one generator process per VM."""

import importlib.util
from pathlib import Path

EXAMPLE = Path(__file__).resolve().parents[2] / "examples" / "admission_queue.py"


def load_example():
    spec = importlib.util.spec_from_file_location("admission_queue", EXAMPLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_retry_queue_matches_recorded_counts():
    example = load_example()
    assert example.run_queued(0.0) == example.run_gated(None) == (1488, 512)
    assert example.run_queued(300.0) == (1562, 438)
