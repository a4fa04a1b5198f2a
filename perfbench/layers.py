"""The program functions the traced run wraps, one layer name each.

Every workload wraps the same list, so a layer a workload never reaches
reads zero on it: that is the ledger saying the workload bypasses it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ledger import LayerTracer, Target, count

#: Every per-layer metric and its unit, in the order BENCHMARK.json lists them.
LAYER_METRICS: Dict[str, str] = {
    "net.encode_us_per_event": "us",
    "net.decode_us_per_event": "us",
    "net.bytes_per_event": "B",
    "net.frames_per_event": "count",
    "net.loop_residual_us_per_event": "us",
    "net.generator_lag_ms": "ms",
    "pubsub.match_us_per_event": "us",
    "pubsub.route_probe_us_per_event": "us",
    "cluster.control_us_per_op": "us",
    "cluster.control_ops_per_round": "count",
    "cluster.useful_delivery_ratio": "ratio",
    "cluster.dedup_suppressed_per_event": "count",
    "cluster.replayed_per_event": "count",
    "cluster.durable_log_peak_entries": "count",
    "cluster.dedup_peak_entries": "count",
    "sim.messages_per_event": "count",
    "core.attention_us_per_click": "us",
    "core.recommend_us_per_cycle": "us",
    "core.frontend_us_per_cycle": "us",
    "core.lifecycle_us_per_cycle": "us",
    "core.sidebar_peak_items": "count",
    "pubsub.proxy_poll_us_per_feed": "us",
    "pubsub.publish_us_per_event": "us",
    "web.crawl_us_per_uri": "us",
    "ir.analyze_us_per_page": "us",
    "web.generator_us_per_click": "us",
    "trace.overhead_pct": "%",
}


def targets() -> List[Target]:
    from repro.cluster.routing import RoutingFabric
    from repro.core.attention import AttentionStore
    from repro.core.frontend import SubscriptionFrontend
    from repro.core.lifecycle import SubscriptionLifecycleManager
    from repro.core.recommender import RecommendationService
    from repro.ir.tokenize import TextAnalyzer
    from repro.net import wire
    from repro.pubsub.api import PubSubSystem
    from repro.pubsub.broker import Broker
    from repro.pubsub.matching import MatchingEngine
    from repro.pubsub.proxy import FeedEventsProxy
    from repro.sim.network import SimulatedNetwork
    from repro.web.crawler import Crawler
    from repro.web.feeds import FeedPublisher
    from repro.web.user_model import BrowsingUser

    found: List[Target] = [(wire, "encode_frame", "net.encode", _count_frame)]
    for name in sorted(vars(wire)):
        if name.endswith("_frame") and name != "encode_frame":
            found.append((wire, name, "net.encode", None))
    found += [
        (wire.FrameDecoder, "feed", "net.decode", None),
        (wire, "decode_payload", "net.decode", None),
        (wire, "decode_event", "net.decode", None),
        (wire, "decode_subscription", "net.decode", None),
        (MatchingEngine, "match", "pubsub.match", None),
        (MatchingEngine, "match_batch", "pubsub.match", None),
        (MatchingEngine, "match_batch_cached", "pubsub.match", None),
        (Broker, "interested_neighbours", "pubsub.route_probe", None),
        (MatchingEngine, "matches_any_cached", "pubsub.route_probe", None),
        (RoutingFabric, "next_hops", "pubsub.route_probe", None),
        (RoutingFabric, "subscribe_at", "cluster.control", None),
        (RoutingFabric, "subscribe_many_at", "cluster.control", None),
        (RoutingFabric, "unsubscribe_at", "cluster.control", None),
        (RoutingFabric, "unsubscribe_many_at", "cluster.control", None),
        (RoutingFabric, "connect", "cluster.control", None),
        (RoutingFabric, "disconnect", "cluster.control", None),
        (SimulatedNetwork, "send", "sim.send", None),
        (AttentionStore, "store_batch", "core.attention",
         count("core.clicks_stored", lambda args, result: result)),
        (RecommendationService, "recommend_for", "core.recommend", None),
        (SubscriptionFrontend, "expire_items", "core.frontend", None),
        (SubscriptionFrontend, "click_item", "core.frontend", None),
        (SubscriptionFrontend, "delete_item", "core.frontend", None),
        (SubscriptionFrontend, "unread_items", "core.frontend", None),
        (SubscriptionLifecycleManager, "apply_unsubscribe_policy",
         "core.lifecycle", None),
        (FeedEventsProxy, "poll_all", "pubsub.proxy_poll",
         count("pubsub.feeds_polled", lambda args, result: len(args[0].watched_feeds()))),
        (PubSubSystem, "publish", "pubsub.publish", None),
        (Crawler, "crawl_batch", "web.crawl",
         count("web.uris_crawled", lambda args, result: len(args[1]))),
        (TextAnalyzer, "analyze", "ir.analyze", None),
        (FeedPublisher, "publish_round", "web.generator", None),
        (BrowsingUser, "browse_days", "web.generator", None),
    ]
    return found


def _count_frame(tracer, args, result) -> None:
    """Every wire frame is built by ``encode_frame``: count it there."""
    tracer.counts["net.frames"] += 1
    tracer.counts["net.bytes"] += len(result)


def layer_table(tracer: LayerTracer, speed: float, rounds: int, events: float,
                cycles: float, extra: Dict[str, Tuple[float, str]],
                ) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric of LAYER_METRICS but ``trace.overhead_pct``.

    Times are self times at reference speed (``speed`` is the traced
    rounds' corrected/raw ratio).  ``rounds`` counts the traced rounds,
    ``events`` their published events and ``cycles`` their Reef-loop
    one-hour slices.
    Workload-specific metrics come in ``extra``; a layer the workload
    never reached reads zero."""
    self_s = tracer.self_s
    calls = tracer.outer_calls
    counts = tracer.counts

    def per(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def us_per(layer: str, denominator: float) -> float:
        return per(1e6 * speed * self_s.get(layer, 0.0), denominator)

    clicks = counts.get("core.clicks_stored", 0.0)
    values = {
        "net.encode_us_per_event": us_per("net.encode", events),
        "net.decode_us_per_event": us_per("net.decode", events),
        "net.bytes_per_event": per(counts.get("net.bytes", 0.0), events),
        "net.frames_per_event": per(counts.get("net.frames", 0.0), events),
        "pubsub.match_us_per_event": us_per("pubsub.match", events),
        "pubsub.route_probe_us_per_event": us_per("pubsub.route_probe", events),
        "cluster.control_us_per_op": us_per("cluster.control", calls.get("cluster.control", 0)),
        "cluster.control_ops_per_round": per(calls.get("cluster.control", 0), rounds),
        "sim.messages_per_event": per(calls.get("sim.send", 0), events),
        "core.attention_us_per_click": us_per("core.attention", clicks),
        "core.recommend_us_per_cycle": us_per("core.recommend", cycles),
        "core.frontend_us_per_cycle": us_per("core.frontend", cycles),
        "core.lifecycle_us_per_cycle": us_per("core.lifecycle", cycles),
        "pubsub.proxy_poll_us_per_feed": us_per(
            "pubsub.proxy_poll", counts.get("pubsub.feeds_polled", 0.0)),
        "pubsub.publish_us_per_event": us_per(
            "pubsub.publish", calls.get("pubsub.publish", 0)),
        "web.crawl_us_per_uri": us_per("web.crawl", counts.get("web.uris_crawled", 0.0)),
        "ir.analyze_us_per_page": us_per("ir.analyze", calls.get("ir.analyze", 0)),
        "web.generator_us_per_click": us_per("web.generator", clicks),
    }
    table = {name: (values.get(name, 0.0), unit) for name, unit in LAYER_METRICS.items()
             if name != "trace.overhead_pct"}
    table.update(extra)
    return table
