"""Per-layer ledger: spans around the program's public functions.

The traced run wraps a fixed list of the program's functions, one layer
name each (``net.encode``, ``pubsub.match``, ``core.frontend``, ...), by
replacing the attribute on its class or module for the length of a traced
round and restoring it afterwards.  Nothing in ``repro`` is edited.

Every call made while wrapped becomes a span (name, start, end, parent
span, work-item id).  Spans are kept in memory, up to ``KEEP_SPANS`` of
them for the JSON dump written at the end; the per-layer totals are kept
for every span.  A layer's self time is a span's duration minus the time
its child spans cover, so nested calls (``crawl_batch`` calling
``analyze``) are never counted twice.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: (owner class or module, attribute, layer, observer or None).  An
#: observer is called as ``observer(tracer, args, result)`` after the
#: call, to count work (bytes, URIs, feeds) where it happens.
Target = Tuple[Any, str, str, Optional[Callable[..., None]]]

#: Spans kept for the JSON dump; later spans still count in the totals.
KEEP_SPANS = 200_000


class LayerTracer:
    """In-memory span recorder with per-layer self time and counters."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.outer_calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.spans: List[Optional[tuple]] = []
        self.spans_dropped = 0
        self.work_id = 0
        self._stack: List[list] = []
        self._depth: Dict[str, int] = defaultdict(int)
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- installation ------------------------------------------------------

    def install(self, targets: Sequence[Target]) -> None:
        for owner, attribute, layer, observer in targets:
            original = owner.__dict__[attribute]
            if not callable(original):
                raise TypeError(f"cannot trace {owner!r}.{attribute}")
            name = f"{getattr(owner, '__name__', owner)}.{attribute}"
            setattr(owner, attribute, self._wrap(original, name, layer, observer))
            self._patches.append((owner, attribute, original))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches = []

    def _wrap(self, function, name: str, layer: str, observer):
        tracer = self
        stack = self._stack
        depth = self._depth
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if len(spans) < KEEP_SPANS:
                index = len(spans)
                spans.append(None)
            else:
                index = -1
                tracer.spans_dropped += 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, index]
            stack.append(frame)
            depth[layer] += 1
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[layer] -= 1
                duration = end - start
                tracer.self_s[layer] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if depth[layer] == 0:
                    tracer.outer_calls[layer] += 1
                if index >= 0:
                    spans[index] = (name, start, end, parent, tracer.work_id)
            if observer is not None:
                observer(tracer, args, result)
            return result

        traced.__wrapped__ = function
        return traced

    # -- reading -----------------------------------------------------------

    def top_level_s(self) -> float:
        """Time covered by all layers together (sum of self times)."""
        return sum(self.self_s.values())

    def dump(self, path: str, extra: Dict[str, Any]) -> None:
        """Write the kept spans and the per-layer totals as JSON."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = dict(extra)
        payload["spans_fields"] = ["name", "start_s", "end_s", "parent", "work_id"]
        payload["spans"] = [span for span in self.spans if span is not None]
        payload["spans_dropped"] = self.spans_dropped
        payload["layer_self_s"] = dict(self.self_s)
        payload["layer_outer_calls"] = dict(self.outer_calls)
        payload["counts"] = dict(self.counts)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
            handle.write("\n")


def count(key: str, measure: Optional[Callable[[tuple, Any], float]] = None):
    """An observer adding ``measure(args, result)`` (default 1) to
    ``tracer.counts[key]``."""

    def observer(tracer: LayerTracer, args: tuple, result: Any) -> None:
        tracer.counts[key] += 1.0 if measure is None else measure(args, result)

    return observer
