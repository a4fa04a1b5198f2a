"""Drift control: time work in slices and rescale it to reference speed.

On a shared machine the interpreter's speed drifts by tens of percent,
both within a run and between runs (a fixed pure-Python loop was seen
taking 36-61 ms per 100 ms slice inside one run).  The benchmark therefore
never reports a bare wall time.  Work is timed in short slices; between
slices a fixed reference kernel runs, and every slice is rescaled by

    corrected = wall * NOMINAL_KERNEL_S / kernel_time_next_to_it

where the kernel time next to a slice is the mean of the kernel probes
just before and just after it.  The kernel is pure Python and imports
nothing from ``repro``, so no change to the program can move it; a change
to the program moves only the slices.

The kernel is a call-heavy loop with a small dict store.  Of the kernels
tried (string building and sorting, a bare arithmetic loop, calls plus
dict stores), this one tracked the program's slice times most closely:
over eight 8 s runs on the reference VM, a matching loop's per-slice time
spread 18% between runs raw and 1.8% corrected.

``NOMINAL_KERNEL_S`` is a constant, not a measurement: it fixes the
"reference speed" every corrected figure is quoted at.  It is close to
the kernel's median on the 2-core x86-64 VM the README's reference
figures come from.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Tuple, TypeVar

#: Fixed nominal kernel time; corrected figures are quoted at this speed.
NOMINAL_KERNEL_S = 0.00100

#: Kernel runs per probe; the median rejects a single interrupt.
_KERNEL_REPS = 3

#: Slice time that may pile up between kernel probes.  A probe costs
#: about 3 ms, so this keeps the kernel's share of a run near 6%.
WINDOW_S = 0.05

T = TypeVar("T")


def _step(acc: int, value: int) -> int:
    return acc ^ value


def reference_kernel() -> int:
    """A fixed pure-Python workload: function calls and dict stores."""
    table: Dict[int, int] = {}
    acc = 0
    for i in range(7000):
        acc = _step(acc, i)
        table[i & 63] = acc
    return acc + len(table)


def probe_kernel() -> float:
    """Median wall time of a few back-to-back kernel runs (seconds)."""
    times = []
    for _ in range(_KERNEL_REPS):
        started = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - started)
    times.sort()
    return times[len(times) // 2]


def timed_setup(build: Callable[[], T]) -> Tuple[T, float, float]:
    """Run ``build`` between two kernel probes.

    Returns ``(result, wall seconds, seconds at reference speed)``."""
    before = probe_kernel()
    started = time.perf_counter()
    result = build()
    wall = time.perf_counter() - started
    after = probe_kernel()
    return result, wall, wall * NOMINAL_KERNEL_S / ((before + after) / 2.0)


class DriftClock:
    """Collects raw slice samples and rescales them to reference speed.

    ``record(series, seconds)`` files a raw wall-time sample: a slice's
    duration, or a latency measured inside a slice.  ``checkpoint()`` runs
    the kernel and rescales every sample filed since the previous
    checkpoint by the mean of the kernel probes around them.  Callers put
    checkpoints between slices, outside anything they time;
    ``maybe_checkpoint()`` does so once ``WINDOW_S`` of slice time has
    piled up.
    """

    def __init__(self) -> None:
        self.raw: Dict[str, List[float]] = {}
        self.corrected: Dict[str, List[float]] = {}
        self.kernel_probes = 0
        self._pending: List[Tuple[str, float]] = []
        self._pending_s = 0.0
        self._last_kernel = self._probe()

    def _probe(self) -> float:
        self.kernel_probes += 1
        return probe_kernel()

    def record(self, series: str, seconds: float, fills_window: bool = True) -> None:
        """File one raw sample.  Samples that overlap a slice already
        filed (latencies inside it) pass ``fills_window=False``."""
        self._pending.append((series, seconds))
        if fills_window:
            self._pending_s += seconds

    def maybe_checkpoint(self) -> None:
        if self._pending_s >= WINDOW_S:
            self.checkpoint()

    def checkpoint(self) -> None:
        if not self._pending:
            return
        kernel = self._probe()
        factor = NOMINAL_KERNEL_S / ((self._last_kernel + kernel) / 2.0)
        for series, seconds in self._pending:
            self.raw.setdefault(series, []).append(seconds)
            self.corrected.setdefault(series, []).append(seconds * factor)
        self._last_kernel = kernel
        self._pending = []
        self._pending_s = 0.0

    def total(self, series: str, corrected: bool = True) -> float:
        source = self.corrected if corrected else self.raw
        return sum(source.get(series, ()))

    def samples(self, series: str, corrected: bool = True) -> List[float]:
        source = self.corrected if corrected else self.raw
        return list(source.get(series, ()))
