"""wire-line: publish -> delivery through two real TCP brokers.

Two ``BrokerServer``s run in this process's event loop as a b0-b1 line
over loopback TCP.  One subscriber session on b1 holds 6,000 Section 5.3
subscriptions over 1,000 topics; one publisher session on b0 publishes.
This is the real codec, framing, server, routing decision and fan-out
path with nothing simulated.  Process-per-broker is left out on purpose:
a generator plus two broker processes on a 2-core machine measures the
scheduler, not the program.

A round is ``CYCLES`` cycles of two slices each:

* a throughput slice: a closed loop over ``publish_many`` batches with at
  most ``WINDOW`` batches in flight, ended when the subscriber holds every
  delivery (``publish_many`` is acked at ingress, not at delivery, so the
  slice waits for the deliveries themselves);
* latency windows: an open loop of single ``publish`` calls at a fixed
  ``RATE`` far below capacity, each timed from its due time (not its send
  time) to its delivery, so a stall also delays the samples behind it.

The kernel probe runs after every ``WINDOW_EVENTS``-event window, when
nothing is in flight, and every 50 ms of throughput slice.
"""

from __future__ import annotations

import asyncio
import random
import time
from typing import Dict, List, Optional, Tuple

from drift import DriftClock
from harness import Metric, RoundResult, percentile
from layers import layer_table
from ledger import LayerTracer
from workload_gen import BruteForceOracle, delivery_failures, make_event, make_subscriptions

from repro.net.client import BrokerClient, connect
from repro.net.server import BrokerServer
from repro.pubsub.events import Event

TOPICS = 1000
SUBSCRIPTIONS = 6000
CYCLES = 10
BATCH = 50
WINDOW = 4
BATCHES_PER_SLICE = 8
LATENCY_EVENTS = 100
WINDOW_EVENTS = 25
RATE = 400.0
HOST = "127.0.0.1"
#: Longest wait for a slice's deliveries before its missing events are
#: counted as failed.
DELIVERY_TIMEOUT_S = 10.0


class _State:
    def __init__(self, b0: BrokerServer, b1: BrokerServer, sink: BrokerClient) -> None:
        self.b0 = b0
        self.b1 = b1
        self.sink = sink
        self.source: Optional[BrokerClient] = None
        self.consumer: Optional[asyncio.Task] = None
        self.delivered: Dict[str, List[str]] = {}
        self.frames = 0
        self.frames_target = 0
        self.arrived = asyncio.Event()
        self.latencies: Optional[List[float]] = None
        self.lags: List[float] = []
        # Raw throughput-phase time, and the part of it the traced layers
        # covered (the loop residual is the difference).
        self.throughput_raw_s = 0.0
        self.throughput_layers_s = 0.0


class WireLine:
    name = "wire-line"
    throughput_series = ("throughput",)
    latency_series = "latency"

    def prepare(self, seed: int) -> None:
        rng = random.Random(seed)
        self.subscriptions = make_subscriptions(rng, SUBSCRIPTIONS, TOPICS, lambda _i: "sink")
        oracle = BruteForceOracle(self.subscriptions)
        self.expected: Dict[str, Tuple[str, ...]] = {}
        self.slices: List[List[List[Event]]] = []
        self.windows: List[List[Event]] = []
        serial = 0
        for _cycle in range(CYCLES):
            batches = []
            for _batch in range(BATCHES_PER_SLICE):
                batch = []
                for _ in range(BATCH):
                    event = make_event(rng, TOPICS, f"e{serial}", float(serial))
                    serial += 1
                    self.expected[event.event_id] = oracle.expected(event)
                    batch.append(event)
                batches.append(batch)
            self.slices.append(batches)
            window = []
            while len(window) < LATENCY_EVENTS:
                event = make_event(rng, TOPICS, f"e{serial}", float(serial))
                serial += 1
                wanted = oracle.expected(event)
                if wanted:  # a latency sample needs a delivery
                    self.expected[event.event_id] = wanted
                    window.append(event)
            self.windows.append(window)
        self.loop = asyncio.new_event_loop()

    # -- round lifecycle ---------------------------------------------------

    def setup(self) -> _State:
        return self.loop.run_until_complete(self._setup())

    async def _setup(self) -> _State:
        b1 = BrokerServer("b1", host=HOST)
        await b1.start()
        b0 = BrokerServer("b0", host=HOST, dial={"b1": (HOST, b1.port)})
        await b0.start()
        sink = await connect(HOST, b1.port, name="sink", reconnect=False)
        state = _State(b0, b1, sink)
        state.consumer = asyncio.ensure_future(self._consume(state))
        await sink.subscribe_many(self.subscriptions)
        state.source = await connect(HOST, b0.port, name="source", reconnect=False)
        deadline = time.monotonic() + 60.0
        while len(b0.node.remote_engines.get("b1", ())) < SUBSCRIPTIONS:
            if time.monotonic() > deadline:
                raise RuntimeError("b0 never learned b1's subscriptions")
            await asyncio.sleep(0.001)
        return state

    def measure(self, state: _State, clock: DriftClock,
                tracer: Optional[LayerTracer]) -> RoundResult:
        self.loop.run_until_complete(self._measure(state, clock, tracer))
        failed, stray = delivery_failures(self.expected, state.delivered)
        return RoundResult(
            attempted=len(self.expected),
            failed=failed,
            work_units=float(CYCLES * BATCHES_PER_SLICE * BATCH),
            correct=stray == 0,
            notes={
                "events": float(len(self.expected)),
                "throughput_raw_s": state.throughput_raw_s,
                "throughput_layers_s": state.throughput_layers_s,
                "lag_p99_s": percentile(state.lags, 0.99),
            },
        )

    def teardown(self, state: _State) -> None:
        self.loop.run_until_complete(self._teardown(state))

    async def _teardown(self, state: _State) -> None:
        await state.source.close()
        await state.sink.close()
        await state.b0.shutdown(drain=False)
        await state.b1.shutdown(drain=False)
        await state.consumer
        # Let the servers' connection handlers see their sockets close.
        for _ in range(5):
            await asyncio.sleep(0)

    def close(self) -> None:
        leftovers = asyncio.all_tasks(self.loop)
        for task in leftovers:
            task.cancel()
        if leftovers:
            self.loop.run_until_complete(
                asyncio.gather(*leftovers, return_exceptions=True))
        self.loop.run_until_complete(self.loop.shutdown_asyncgens())
        self.loop.close()

    # -- measured phase ----------------------------------------------------

    async def _consume(self, state: _State) -> None:
        async for delivery in state.sink.events():
            state.delivered.setdefault(delivery.event.event_id, []).extend(
                delivery.subscription_ids)
            if state.latencies is not None:
                state.latencies.append(delivery.received_at - delivery.origin_ts)
            state.frames += 1
            if state.frames >= state.frames_target:
                state.arrived.set()

    async def _await_deliveries(self, state: _State, events: List[Event]) -> None:
        state.frames_target += sum(1 for e in events if self.expected[e.event_id])
        if state.frames < state.frames_target:
            state.arrived.clear()
            try:
                await asyncio.wait_for(state.arrived.wait(), DELIVERY_TIMEOUT_S)
            except asyncio.TimeoutError:
                # Missing deliveries fail their events in the oracle check.
                state.frames_target = state.frames

    async def _measure(self, state: _State, clock: DriftClock,
                       tracer: Optional[LayerTracer]) -> None:
        for cycle in range(CYCLES):
            if tracer is not None:
                tracer.work_id = 2 * cycle
            # Segments between kernel probes: a probe pauses the loop with
            # batches in flight, so the probe's time is in no segment.
            layers_before = tracer.top_level_s() if tracer is not None else 0.0
            started = time.perf_counter()
            in_flight = set()
            for batch in self.slices[cycle]:
                if len(in_flight) >= WINDOW:
                    done, in_flight = await asyncio.wait(
                        in_flight, return_when=asyncio.FIRST_COMPLETED)
                    for task in done:
                        task.result()
                    started = self._segment(state, clock, started)
                in_flight.add(asyncio.ensure_future(state.source.publish_many(batch)))
            for task in in_flight:
                await task
            await self._await_deliveries(
                state, [e for batch in self.slices[cycle] for e in batch])
            self._segment(state, clock, started)
            clock.checkpoint()
            if tracer is not None:
                state.throughput_layers_s += tracer.top_level_s() - layers_before

            if tracer is not None:
                tracer.work_id = 2 * cycle + 1
            window = self.windows[cycle]
            for start in range(0, len(window), WINDOW_EVENTS):
                await self._open_loop(state, clock, window[start:start + WINDOW_EVENTS])

    async def _open_loop(self, state: _State, clock: DriftClock, events: List[Event]) -> None:
        """One short open-loop window; the kernel probe follows it, so the
        machine's speed is sampled every ``WINDOW_EVENTS / RATE`` seconds."""
        state.latencies = []
        started = time.perf_counter()
        first_due = time.monotonic() + 0.001
        sends = []
        for index, event in enumerate(events):
            due = first_due + index / RATE
            # Spin through the loop instead of sleeping: an idle vCPU
            # wakes late, and that wake-up is the machine, not the program.
            while time.monotonic() < due:
                await asyncio.sleep(0)
            state.lags.append(time.monotonic() - due)
            sends.append(asyncio.ensure_future(
                state.source.publish(event, origin_ts=due)))
        for task in sends:
            await task
        await self._await_deliveries(state, events)
        clock.record("window", time.perf_counter() - started)
        for latency in state.latencies:
            clock.record("latency", latency, fills_window=False)
        state.latencies = None
        clock.checkpoint()

    @staticmethod
    def _segment(state: _State, clock: DriftClock, started: float) -> float:
        """File the throughput time since ``started``, probe the kernel if
        a window's worth has piled up, and return the next segment start."""
        elapsed = time.perf_counter() - started
        state.throughput_raw_s += elapsed
        clock.record("throughput", elapsed)
        clock.maybe_checkpoint()
        return time.perf_counter()

    # -- ledger ------------------------------------------------------------

    def layer_metrics(self, tracer: LayerTracer, traced: List[RoundResult],
                      speed: float) -> Dict[str, Metric]:
        events = sum(r.notes["events"] for r in traced)
        closed_loop_events = float(len(traced) * CYCLES * BATCHES_PER_SLICE * BATCH)
        residual_s = sum(r.notes["throughput_raw_s"] - r.notes["throughput_layers_s"]
                         for r in traced)
        return layer_table(tracer, speed, rounds=len(traced), events=events,
                           cycles=0, extra={
            # Closed-loop phase only: the open loop spins while it waits.
            "net.loop_residual_us_per_event": (
                1e6 * speed * residual_s / closed_loop_events, "us"),
            "net.generator_lag_ms": (
                1e3 * max(r.notes["lag_p99_s"] for r in traced), "ms"),
        })

