"""Host-speed probe: divides the shared host's speed out of the host times.

The benchmark's hosts are shared.  Their speed moves by up to 1.7x from one
second to the next and can stay low for minutes, so raw host times measure
the neighbours as much as the simulator.  The slowdowns come from the
memory system: a fixed loop that chases pointers through a table larger
than the CPU caches slows down with the simulator (log-log slope about 1,
correlation above 0.9 over many runs), while a cache-resident loop does
not (slope about 0.5).

A ``HostProbe`` times that loop (``work``) at the first arrival of each
untraced run and then at the first arrival after every ``INTERVAL_S``, from
inside the benchmark's decision tee.  The probe's
own time is taken out of the run's host time, and the run's host times are
multiplied by ``scale``: ``NOMINAL_S`` over the median probe time.  Host
times are thus reported in *reference-host seconds*, seconds on a host that
runs the probe in ``NOMINAL_S``.  The probe calls nothing under ``src/``,
so a change to the simulator moves scaled times just as it moves raw ones.
"""

from __future__ import annotations

import heapq
import random
import statistics
import time
from array import array

#: The probe's median time on the reference host: a 2-vCPU x86-64 VM at
#: 2.1 GHz, Python 3.11, while no neighbour loads its memory system.
NOMINAL_S = 0.0025
#: Host time between probes (seconds): the probe takes about 6% of a run.
INTERVAL_S = 0.04
#: Objects in the probe's table: several MiB, beyond the private caches.
TABLE_SIZE = 50_000
#: Table lookups per probe.
LOOKUPS = 2_000


class _Slot:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y


_table: dict[int, _Slot] = {}
_keys: list[int] = []


def work() -> float:
    """Fixed work: random lookups into a large table of small objects,
    with heap and float traffic like the simulator's event loop."""
    if not _table:
        _table.update((i, _Slot(float(i), 1.0)) for i in range(TABLE_SIZE))
        rng = random.Random(TABLE_SIZE)
        _keys.extend(rng.randrange(TABLE_SIZE) for _ in range(LOOKUPS))
    heap: list[tuple[float, int]] = []
    total = 0.0
    for i, key in enumerate(_keys):
        slot = _table[key]
        heapq.heappush(heap, (slot.x + i, key))
        if len(heap) > 100:
            total += heapq.heappop(heap)[0]
        slot.y = slot.y * 0.999 + 1.0
    return total


class HostProbe:
    """The probe timings of one run."""

    def __init__(self) -> None:
        self.times = array("d")
        self.next_at = 0.0

    def tick(self) -> None:
        """Called once per arrival; runs the probe when one is due."""
        start = time.perf_counter()
        if start >= self.next_at:
            work()
            end = time.perf_counter()
            self.times.append(end - start)
            self.next_at = end + INTERVAL_S

    @property
    def spent(self) -> float:
        """Host time the probes took (seconds)."""
        return sum(self.times)

    @property
    def scale(self) -> float:
        """Reference-host seconds per host second during the run."""
        return NOMINAL_S / statistics.median(self.times) if self.times else 1.0
