"""The round runner every workload runs under.

A run is a sequence of whole rounds.  Each round sets the workload up
(timed: ``setup_s``), collects garbage and freezes what set-up built so
the collector does not rescan it while the round measures, measures a
fixed amount of work in drift-corrected slices, checks every operation
against the workload's oracle, and tears down.  Rounds repeat until
``--seconds`` of wall time have passed; every round does the same
operations on the same inputs, so the share of failed operations cannot
depend on how many rounds fit.

With tracing on, rounds alternate untraced and traced.  End-to-end
figures come only from untraced rounds, the per-layer ledger only from
traced ones, and the ratio of the two rounds' corrected times is the
tracing overhead.

Every end-to-end figure is a median over rounds: throughput of each
round's rate, ``setup_s`` of each round's set-up, and each latency
percentile of that percentile taken within each round.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Tuple

from drift import DriftClock, timed_setup
from ledger import LayerTracer

Metric = Tuple[float, str]


@dataclass
class RoundResult:
    """What one round did: operations checked, failed, and the units of
    work the throughput counts (events, clicks)."""

    attempted: int
    failed: int
    work_units: float
    correct: bool = True
    notes: Dict[str, float] = field(default_factory=dict)


class Workload(Protocol):
    name: str
    #: DriftClock series whose total is the round's measured time.
    throughput_series: Tuple[str, ...]
    #: DriftClock series whose samples are the latency distribution.
    latency_series: str

    def prepare(self, seed: int) -> None: ...

    def setup(self) -> object: ...

    def measure(self, state: object, clock: DriftClock,
                tracer: Optional[LayerTracer]) -> RoundResult: ...

    def teardown(self, state: object) -> None: ...

    def layer_metrics(self, tracer: LayerTracer, traced: List[RoundResult],
                      speed: float) -> Dict[str, Metric]: ...

    def close(self) -> None: ...


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (fraction in [0, 1])."""
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(fraction * len(ordered))))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class RunSummary:
    attempted: int
    failed: int
    correct: bool
    metrics: Dict[str, Metric]
    report: List[str]


def drive(workload: Workload, seed: int, seconds: float, trace: bool,
          tracer_targets: list) -> RunSummary:
    """Run whole rounds for ``seconds`` and reduce them to metrics."""
    workload.prepare(seed)
    clock = DriftClock()
    tracer = LayerTracer() if trace else None
    setups_wall: List[float] = []
    setups: List[float] = []
    plain: List[RoundResult] = []
    traced: List[RoundResult] = []
    # Per round: (units, corrected seconds, raw seconds), by traced or not.
    rates: Dict[bool, List[Tuple[float, float, float]]] = {False: [], True: []}
    # Latency samples of each untraced round: (corrected, raw).
    latencies: List[Tuple[List[float], List[float]]] = []
    attempted = failed = 0
    correct = True
    min_rounds = 2 if trace else 1
    started = time.perf_counter()
    rounds = 0
    while rounds < min_rounds or time.perf_counter() - started < seconds:
        with_trace = trace and rounds % 2 == 1
        state, wall, corrected = timed_setup(workload.setup)
        setups_wall.append(wall)
        setups.append(corrected)
        gc.collect()
        gc.freeze()
        before = [(clock.total(s), clock.total(s, False)) for s in workload.throughput_series]
        latency_mark = len(clock.samples(workload.latency_series))
        if with_trace:
            tracer.install(tracer_targets)
        try:
            result = workload.measure(state, clock, tracer if with_trace else None)
        finally:
            if with_trace:
                tracer.uninstall()
        clock.checkpoint()
        spent = [0.0, 0.0]
        for series, (corrected_before, raw_before) in zip(workload.throughput_series, before):
            spent[0] += clock.total(series) - corrected_before
            spent[1] += clock.total(series, False) - raw_before
        rates[with_trace].append((result.work_units, spent[0], spent[1]))
        if not with_trace:
            latencies.append((clock.samples(workload.latency_series)[latency_mark:],
                              clock.samples(workload.latency_series, False)[latency_mark:]))
        (traced if with_trace else plain).append(result)
        attempted += result.attempted
        failed += result.failed
        correct = correct and result.correct
        workload.teardown(state)
        state = None
        gc.unfreeze()
        gc.collect()
        rounds += 1
    workload.close()

    def median_rate(traced_rounds: bool, column: int) -> float:
        """Median over rounds of units per second; column 1 divides by the
        corrected time, column 2 by the raw wall time."""
        return statistics.median(row[0] / row[column] for row in rates[traced_rounds])

    def latency_ms(fraction: float, corrected: bool = True) -> float:
        """Median over untraced rounds of each round's percentile: a host
        stall that slows one round's samples moves one round, not the
        run's figure."""
        return 1e3 * statistics.median(
            percentile(samples[0 if corrected else 1], fraction) for samples in latencies)

    throughput = median_rate(False, 1)
    metrics: Dict[str, Metric]
    report = [
        f"workload {workload.name} seed {seed}: {rounds} rounds "
        f"({len(plain)} untraced, {len(traced)} traced), "
        f"{clock.kernel_probes} kernel probes",
        f"setup_s            corrected {statistics.median(setups):.4f}  "
        f"raw {statistics.median(setups_wall):.4f}",
        f"throughput_per_s   corrected {throughput:.2f}  raw {median_rate(False, 2):.2f}  "
        f"(median of rounds: "
        + " ".join(f"{u / c:.1f}" for u, c, _r in rates[False]) + ")",
        f"latency_p50_ms     corrected {latency_ms(0.50):.4f}  raw {latency_ms(0.50, False):.4f}",
        f"latency_p90_ms     corrected {latency_ms(0.90):.4f}  raw {latency_ms(0.90, False):.4f}  "
        f"({sum(len(samples[0]) for samples in latencies)} samples; "
        f"p99 corrected {latency_ms(0.99):.4f})",
    ]
    if trace:
        speed = sum(c for _u, c, _r in rates[True]) / sum(r for _u, _c, r in rates[True])
        metrics = workload.layer_metrics(tracer, traced, speed)
        metrics["trace.overhead_pct"] = (
            100.0 * (throughput / median_rate(True, 1) - 1.0), "%")
        for name in sorted(metrics):
            value, unit = metrics[name]
            report.append(f"{name:36s} {value:14.4f} {unit}")
        path = f"perfbench/out/trace-{workload.name}-seed{seed}.json"
        tracer.dump(path, {"workload": workload.name, "seed": seed,
                           "speed_factor": speed})
        report.append(f"spans written to {path} "
                      f"({len(tracer.spans)} kept, {tracer.spans_dropped} not kept)")
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "throughput_per_s": (throughput, "1/s"),
            "latency_p50_ms": (latency_ms(0.50), "ms"),
            "latency_p90_ms": (latency_ms(0.90), "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    report.append(f"peak_rss_mb        {peak_rss_mb():.2f}")
    report.append(f"operations attempted {attempted}, failed {failed}")
    return RunSummary(attempted, failed, correct, metrics, report)
