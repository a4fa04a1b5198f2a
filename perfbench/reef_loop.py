"""reef-loop: the paper's own loop through ``CentralizedReef``.

Click -> attention upload -> crawl + recommendation -> subscribe ->
feed publication -> delivery -> sidebar reaction, over the calibrated
browsing dataset, for enough simulated days that history-length costs
show: the subscription frontend rescans every sidebar item ever
delivered, so run time grows far faster than clicks.  The cluster and
wire layers are not touched.

Set-up builds the synthetic web and users and constructs the
``CentralizedReef``.  The measured phase is ``CentralizedReef.run``; a
marker on the simulation clock at half past every hour cuts it into
one-hour slices, each holding one crawl + recommend cycle and one
poll + react cycle.  Each slice's wall time is a latency sample.

The oracle records every subscribe, unsubscribe and publish the loop
makes on its ``PubSubSystem`` and checks, after the round:

* every subscription placed answers a subscribe recommendation;
* each ``publish`` returned exactly the subscriptions, among those
  active at that moment, for which ``Subscription.matches`` holds;
* the sidebars hold exactly the deliveries ``publish`` returned, so no
  delivery reached an unsubscribed subscription;
* the clicks the server stored equal the clicks the browsers made.

An operation is one ``publish``; a failed round-level property fails
every operation of the round.
"""

from __future__ import annotations

import dataclasses
import time
from collections import Counter
from typing import Dict, List, Optional, Tuple

from drift import DriftClock
from harness import Metric, RoundResult
from layers import layer_table
from ledger import LayerTracer

from repro.core.centralized import CentralizedReef
from repro.core.config import ReefConfig
from repro.datasets.browsing import BrowsingDatasetConfig, build_browsing_dataset
from repro.pubsub.api import PubSubSystem
from repro.sim.rng import SeededRNG

#: Dataset shape: the paper's five users and the calibrated web at 30%
#: of full size, over ten simulated days.
SCALE = 0.3
USERS = 5
DAYS = 10
HOUR_S = 3600.0


class _Recorder:
    """Logs the loop's calls on one ``PubSubSystem``, in order, by
    shadowing its three verbs on the instance, and counts the clicks the
    browsers emit through their public visit hook."""

    def __init__(self, pubsub: PubSubSystem, users) -> None:
        self.log: List[tuple] = []
        self.clicks_emitted = 0
        for user in users.values():
            user.browser.add_visit_listener(self._count_click)
        cls = type(pubsub)
        log = self.log

        def subscribe(subscription):
            log.append(("sub", subscription))
            return cls.subscribe(pubsub, subscription)

        def unsubscribe(subscription_id):
            removed = cls.unsubscribe(pubsub, subscription_id)
            log.append(("unsub", subscription_id, removed))
            return removed

        def publish(event):
            deliveries = cls.publish(pubsub, event)
            log.append(("pub", event, deliveries))
            return deliveries

        pubsub.subscribe = subscribe
        pubsub.unsubscribe = unsubscribe
        pubsub.publish = publish

    def _count_click(self, _url, _timestamp, _page) -> None:
        self.clicks_emitted += 1


class ReefLoop:
    name = "reef-loop"
    throughput_series = ("slice",)
    latency_series = "slice"

    def prepare(self, seed: int) -> None:
        # The web and the users' browsing come from the dataset's own
        # calibration seed; --seed drives the loop's randomness (which
        # feeds publish when, how users react to sidebar items).  Drawn
        # from --seed, the dataset moved a round's click count by 13%
        # between seeds, more than any bound here could absorb.
        self.config = dataclasses.replace(
            BrowsingDatasetConfig().scaled(SCALE), num_users=USERS, duration_days=DAYS)
        self.seed = seed

    def setup(self) -> Tuple[CentralizedReef, _Recorder]:
        dataset = build_browsing_dataset(self.config)
        reef = CentralizedReef(dataset.web, dataset.users, SeededRNG(self.seed),
                               config=ReefConfig(), http=dataset.http)
        return reef, _Recorder(reef.pubsub, dataset.users)

    def measure(self, state, clock: DriftClock,
                tracer: Optional[LayerTracer]) -> RoundResult:
        reef, recorder = state
        end = DAYS * 86400.0 + HOUR_S
        marks = [time.perf_counter(), 0]

        def marker(engine) -> None:
            now = time.perf_counter()
            clock.record("slice", now - marks[0])
            marks[1] += 1
            if tracer is not None:
                tracer.work_id = marks[1]
            clock.maybe_checkpoint()
            if engine.now + HOUR_S <= end:
                engine.schedule_in(HOUR_S, marker, label="bench-marker")
            marks[0] = time.perf_counter()

        reef.engine.schedule_at(HOUR_S / 2, marker, label="bench-marker")
        marks[0] = time.perf_counter()
        reef.run(days=DAYS)
        clock.record("slice", time.perf_counter() - marks[0])
        clock.checkpoint()

        clicks = reef.server.store.total_clicks()
        failed, publishes = self._check(reef, recorder, clicks)
        return RoundResult(
            attempted=publishes,
            failed=failed,
            work_units=float(clicks),
            notes={
                "cycles": float(marks[1] + 1),
                "sidebar": float(sum(len(c.frontend.sidebar) for c in reef.clients.values())),
            },
        )

    def _check(self, reef: CentralizedReef, recorder: _Recorder,
               clicks: int) -> Tuple[int, int]:
        recommended = {
            rec.subscription.subscription_id: rec.subscription
            for rec in reef.server.recommendations_sent if rec.is_subscribe
        }
        active: Dict[str, object] = {}
        returned: Counter = Counter()
        publishes = failed = 0
        round_ok = True
        for entry in recorder.log:
            if entry[0] == "sub":
                subscription = entry[1]
                if recommended.get(subscription.subscription_id) is not subscription:
                    round_ok = False
                active[subscription.subscription_id] = subscription
            elif entry[0] == "unsub":
                if entry[2]:
                    del active[entry[1]]
            else:
                _, event, deliveries = entry
                publishes += 1
                wanted = sorted(sid for sid, s in active.items() if s.matches(event))
                got = sorted(d.subscription_id for d in deliveries)
                if got != wanted or any(d.composite is not None for d in deliveries):
                    failed += 1
                returned.update((event.event_id, d.subscription_id) for d in deliveries)
        shown = Counter(
            (item.event_id, item.subscription_id)
            for client in reef.clients.values() for item in client.frontend.sidebar
        )
        if shown != returned or clicks != recorder.clicks_emitted:
            round_ok = False
        if not round_ok:
            failed = publishes
        return failed, publishes

    def teardown(self, state) -> None:
        pass

    def close(self) -> None:
        pass

    def layer_metrics(self, tracer: LayerTracer, traced: List[RoundResult],
                      speed: float) -> Dict[str, Metric]:
        cycles = sum(r.notes["cycles"] for r in traced)
        events = float(tracer.outer_calls.get("pubsub.publish", 0))
        return layer_table(tracer, speed, rounds=len(traced), events=events,
                           cycles=cycles, extra={
            "core.sidebar_peak_items": (max(r.notes["sidebar"] for r in traced), "count"),
        })
