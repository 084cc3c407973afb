"""Host-speed probe: a fixed slice of interpreter work timed next to the ops.

The benchmark host's speed swings by up to ~1.5x over seconds to minutes
(other tenants on shared cores), long enough that a whole run can sit in a
slow or a fast phase.  Every timing the benchmark reports is therefore the
measured time scaled by ``PROBE_REFERENCE_S / probe time measured next to
it``: the time the op would have taken on a host that runs the probe in
``PROBE_REFERENCE_S``.  The probe is plain CPython work (calls, dict and
list traffic, small-int arithmetic), the kind of work the tool flow does,
so a slow phase stretches both alike.  The raw times are kept alongside.

The probe is timed in the CPU time of the thread that runs it
(``time.thread_time``), not in wall time.  Its CPU time follows the core's
speed, but leaves out whatever other threads run while the probe waits for
the interpreter lock or the core.  A probe taken between the requests of a
multi-threaded workload therefore does not absorb the program's own work:
a slower request handler does not slow the probe.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time
from typing import List

#: Probe CPU time that defines the reference host speed: about the probe's
#: typical time between ops on a 2-vCPU VM with CPython 3.11, so scaled
#: figures read close to raw ones there.
PROBE_REFERENCE_S = 0.0005

#: Wall seconds between probes taken by :meth:`HostSpeed.maybe_sample`.
SAMPLE_INTERVAL_S = 0.05

#: Probes around an instant whose median gives the local speed.
NEIGHBOURS = 9


def _probe_work() -> int:
    table = {}
    items = []
    total = 0
    for i in range(1800):
        key = (i * 7919) % 211
        table[key] = table.get(key, 0) + i
        items.append(key)
        if len(items) > 32:
            total += sum(items[-8:]) % 97
            items = items[-16:]
    for key in sorted(table):
        total ^= _mix(key, table[key])
    return total


def _mix(a: int, b: int) -> int:
    return (a * 31 + b) & 0xFFFF


class HostSpeed:
    """A timeline of probe samples and the speed factor at any instant.

    Safe to sample from several threads.
    """

    def __init__(self, interval_s: float = SAMPLE_INTERVAL_S):
        self.interval_s = interval_s
        self.times: List[float] = []
        self.durations: List[float] = []
        self._last = float("-inf")
        self._lock = threading.Lock()

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            start = time.perf_counter()
            cpu_start = time.thread_time()
            _probe_work()
            cpu = time.thread_time() - cpu_start
            end = time.perf_counter()
            with self._lock:
                index = bisect.bisect(self.times, (start + end) / 2)
                self.times.insert(index, (start + end) / 2)
                self.durations.insert(index, cpu)
                self._last = max(self._last, end)

    def maybe_sample(self) -> None:
        """Take a probe when the last one is older than the interval."""
        if time.perf_counter() - self._last >= self.interval_s:
            self.sample()

    def factor_at(self, instant: float) -> float:
        """Reference over local probe time: the median of the nearest probes."""
        index = bisect.bisect(self.times, instant)
        half = NEIGHBOURS // 2
        nearby = self.durations[max(0, index - half) : index + half]
        if not nearby:
            return 1.0
        return PROBE_REFERENCE_S / statistics.median(nearby)

    def scaled(self, start: float, duration: float) -> float:
        """``duration`` of an op that started at ``start``, at reference speed."""
        return duration * self.factor_at(start + duration / 2)
