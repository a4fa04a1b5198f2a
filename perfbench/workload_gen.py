"""Seeded inputs and the brute-force oracle shared by wire-line and
sim-mesh-churn.

Inputs have the paper's Section 5.3 shape: every subscription holds a
topic equality and 30% add a ``priority >= k`` range bound; every event
carries a topic, a priority in 1..10 and a source.  They come from
``random.Random(seed)`` in this file, so the program receives only the
generated objects.

The oracle evaluates ``Subscription.matches`` for every subscription on
the event's topic: no ``MatchingEngine``, no covering.  Restricting to the
topic bucket is exact, because every generated subscription has exactly
one topic equality predicate and so cannot match any other topic.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

from repro.pubsub.events import Event
from repro.pubsub.subscriptions import Operator, Predicate, Subscription

EVENT_TYPE = "news.story"
SOURCES = ("ABC", "CNN", "BBC")


def make_subscriptions(rng: random.Random, count: int, topics: int,
                       subscriber_of) -> List[Subscription]:
    subscriptions = []
    for index in range(count):
        predicates = [Predicate("topic", Operator.EQ, f"topic{rng.randrange(topics):04d}")]
        if rng.random() < 0.3:
            predicates.append(Predicate("priority", Operator.GE, rng.randint(1, 5)))
        subscriptions.append(Subscription(
            event_type=EVENT_TYPE,
            predicates=tuple(predicates),
            subscriber=subscriber_of(index),
            subscription_id=f"s{index}",
        ))
    return subscriptions


def make_event(rng: random.Random, topics: int, event_id: str, timestamp: float) -> Event:
    return Event(
        event_type=EVENT_TYPE,
        attributes={
            "topic": f"topic{rng.randrange(topics):04d}",
            "priority": rng.randint(1, 10),
            "source": rng.choice(SOURCES),
        },
        timestamp=timestamp,
        event_id=event_id,
    )


class BruteForceOracle:
    """Expected subscription ids per event, from ``Subscription.matches``."""

    def __init__(self, subscriptions: Sequence[Subscription]) -> None:
        self._by_topic: Dict[str, List[Subscription]] = {}
        for subscription in subscriptions:
            topics = [p.value for p in subscription.predicates
                      if p.attribute == "topic" and p.operator is Operator.EQ]
            if len(topics) != 1:
                raise ValueError("oracle needs exactly one topic equality per subscription")
            self._by_topic.setdefault(topics[0], []).append(subscription)

    def expected(self, event: Event) -> Tuple[str, ...]:
        candidates = self._by_topic.get(event.get("topic"), ())
        return tuple(sorted(s.subscription_id for s in candidates if s.matches(event)))


def delivery_failures(expected: Dict[str, Tuple[str, ...]],
                      delivered: Dict[str, List[str]]) -> Tuple[int, int]:
    """Compare per-event delivered subscription ids (with multiplicity)
    against the oracle.  Returns ``(events that failed, deliveries for
    events never published)``: an event fails unless every expected pair
    arrived exactly once and nothing else arrived."""
    failed = 0
    for event_id, wanted in expected.items():
        got = delivered.get(event_id, ())
        if len(got) != len(wanted) or tuple(sorted(got)) != wanted:
            failed += 1
    stray = sum(len(ids) for event_id, ids in delivered.items() if event_id not in expected)
    return failed, stray
