"""sim-mesh-churn: one point of experiment C2 from the public cluster API.

A 5-broker mesh with replication factor 2, a ``DurabilityManager`` with
replay, Poisson crash churn seen through a ``FailureDetector``, and
``publish_many_at`` batches.  Failover and failback rewrite the routing
fabric while events are read through it, and dedup, the durable log and
replay waste all live here; ``repro.net`` is not touched.

Set-up builds the mesh and places the replicated subscriptions.  The
measured phase runs the simulation in fixed slices of simulated time
through churn, heal, the whole-log replay and the final drain; each
slice's wall time is one latency sample.  Every published event must
reach every matching subscription exactly once on the durability
manager's deduped stream.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Optional, Tuple

from drift import DriftClock
from harness import Metric, RoundResult
from layers import layer_table
from ledger import LayerTracer
from workload_gen import BruteForceOracle, delivery_failures, make_event, make_subscriptions

from repro.cluster.broker_cluster import BrokerCluster, build_cluster_topology
from repro.cluster.durable import DurabilityManager
from repro.cluster.faults import FaultInjector, FaultPlan, crash, recover
from repro.cluster.recovery import FailureDetector
from repro.cluster.replication import ReplicationManager
from repro.pubsub.events import Event
from repro.sim.engine import SimulationEngine

BROKERS = 5
REPLICAS = 2
TOPICS = 40
SUBSCRIPTIONS = 2000
EVENTS = 1500
PUBLISH_BATCH = 32
CHURN_S = 6.0
CRASHES_PER_BROKER = 3
FAULT_SEED = 0
RECOVERY_S = 0.3
SERVICE_RATE = 4000.0
MAILBOX_BATCH = 4
LINK_LATENCY_S = 0.002
HEARTBEAT_S = 0.02
DETECT_TIMEOUT_S = 0.08
#: Simulated seconds per measured slice.
SLICE_S = 0.01


class _State:
    def __init__(self, cluster: BrokerCluster, durability: DurabilityManager,
                 replication: ReplicationManager) -> None:
        self.cluster = cluster
        self.durability = durability
        self.replication = replication


class MeshChurn:
    name = "sim-mesh-churn"
    throughput_series = ("slice", "unsliced")
    latency_series = "slice"

    def prepare(self, seed: int) -> None:
        rng = random.Random(seed)
        self.names = [f"b{index}" for index in range(BROKERS)]
        self.subscriptions = make_subscriptions(
            rng, SUBSCRIPTIONS, TOPICS, lambda index: f"user{index % 200}")
        self.homes = [rng.choice(self.names) for _ in self.subscriptions]
        events = [make_event(rng, TOPICS, f"e{i}", float(i)) for i in range(EVENTS)]
        oracle = BruteForceOracle(self.subscriptions)
        self.expected = {event.event_id: oracle.expected(event) for event in events}
        # Poisson arrivals, one ingress broker per batch.
        self.batches: List[Tuple[float, str, List[Event]]] = []
        at = 0.0
        for start in range(0, EVENTS, PUBLISH_BATCH):
            chunk = events[start:start + PUBLISH_BATCH]
            for _ in chunk:
                at += rng.expovariate(EVENTS / CHURN_S)
            self.batches.append((at, rng.choice(self.names), chunk))
        self.last_publish = at
        # Poisson crash churn conditioned on its count: every broker crashes
        # CRASHES_PER_BROKER times at uniformly random instants of
        # [8%, 75%] of the churn window, each outage lasting RECOVERY_S
        # and one broker's outages never overlapping.
        self.faults = []
        rng = random.Random(FAULT_SEED)
        start, end = 0.08 * CHURN_S, 0.75 * CHURN_S
        for name in self.names:
            slack = end - start - CRASHES_PER_BROKER * RECOVERY_S
            offsets = sorted(rng.uniform(0.0, slack) for _ in range(CRASHES_PER_BROKER))
            for index, offset in enumerate(offsets):
                at = start + offset + index * RECOVERY_S
                self.faults += [crash(at, name), recover(at + RECOVERY_S, name)]

    def setup(self) -> _State:
        cluster = BrokerCluster(
            sim=SimulationEngine(),
            service_rate=SERVICE_RATE,
            batch_size=MAILBOX_BATCH,
            link_latency=LINK_LATENCY_S,
            allow_cycles=True,
        )
        build_cluster_topology("mesh", BROKERS, cluster)
        durability = DurabilityManager(cluster)
        replication = ReplicationManager(cluster, replication_factor=REPLICAS)
        for home, subscription in zip(self.homes, self.subscriptions):
            replication.subscribe(home, subscription)
        return _State(cluster, durability, replication)

    def measure(self, state: _State, clock: DriftClock,
                tracer: Optional[LayerTracer]) -> RoundResult:
        cluster = state.cluster
        durability = state.durability
        delivered: Dict[str, List[str]] = {}

        def tally(_broker, _subscriber, event, subscription) -> None:
            delivered.setdefault(event.event_id, []).append(subscription.subscription_id)

        durability.on_delivery(tally)
        plan = FaultPlan(self.faults)
        heal_at = (max(CHURN_S, plan.last_time) + DETECT_TIMEOUT_S
                   + 6 * HEARTBEAT_S + 0.25)
        run_until = max(heal_at, self.last_publish + 1.0)
        peaks = [0, 0]

        def timed(series: str, work) -> None:
            started = time.perf_counter()
            work()
            clock.record(series, time.perf_counter() - started)
            if tracer is not None:
                tracer.work_id += 1
                peaks[0] = max(peaks[0], sum(len(log) for log in durability.logs.values()))
                peaks[1] = max(peaks[1], len(durability.client_seen))
            clock.maybe_checkpoint()

        def drain() -> None:
            while cluster.sim.pending:
                timed("slice", lambda: cluster.run(until=cluster.sim.now + SLICE_S))

        def set_up_run() -> None:
            for at, broker, chunk in self.batches:
                cluster.publish_many_at(at, broker, chunk)
            FaultInjector(cluster, plan).schedule()
            FailureDetector(cluster, period=HEARTBEAT_S,
                            timeout=DETECT_TIMEOUT_S).start(until=run_until)

        timed("unsliced", set_up_run)
        steps = int(round(run_until / SLICE_S))
        for step in range(1, steps + 1):
            timed("slice", lambda: cluster.run(until=min(step * SLICE_S, run_until)))
        drain()
        timed("unsliced", durability.replay_at_risk)
        drain()

        failed, stray = delivery_failures(self.expected, delivered)
        return RoundResult(
            attempted=len(self.expected),
            failed=failed,
            work_units=float(len(self.expected)),
            correct=stray == 0,
            notes={
                "deliveries": float(durability.deliveries),
                "suppressed": float(durability.client_duplicates_suppressed),
                "replayed": float(durability.events_replayed),
                "log_peak": float(peaks[0]),
                "dedup_peak": float(peaks[1]),
            },
        )

    def teardown(self, state: _State) -> None:
        state.durability.close()

    def close(self) -> None:
        pass

    def layer_metrics(self, tracer: LayerTracer, traced: List[RoundResult],
                      speed: float) -> Dict[str, Metric]:
        events = float(len(self.expected) * len(traced))

        def total(key: str) -> float:
            return sum(r.notes[key] for r in traced)

        deliveries = total("deliveries")
        return layer_table(tracer, speed, rounds=len(traced), events=events,
                           cycles=0, extra={
            "cluster.useful_delivery_ratio": (
                deliveries / (deliveries + total("suppressed")), "ratio"),
            "cluster.dedup_suppressed_per_event": (total("suppressed") / events, "count"),
            "cluster.replayed_per_event": (total("replayed") / events, "count"),
            "cluster.durable_log_peak_entries": (
                max(r.notes["log_peak"] for r in traced), "count"),
            "cluster.dedup_peak_entries": (
                max(r.notes["dedup_peak"] for r in traced), "count"),
        })
