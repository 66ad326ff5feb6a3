"""The metrics registry: hierarchical spans, counters, gauges, series.

A :class:`MetricsRegistry` is an in-process, thread-safe store for the
four instrument kinds of the observability layer:

* **spans** — nested wall-clock timers opened by :meth:`trace`.  Spans
  form a tree: a span entered while another is open on the same thread
  becomes its child, and repeated spans under the same parent aggregate
  into one node (count / total / min / max seconds).
* **counters** — monotonically increasing floats (:meth:`add`), e.g.
  optimizer iterations, cache hits, saturated kernel lanes.
* **gauges** — last-value-wins scalars (:meth:`set_gauge`), e.g. the
  shape of the most recent kernel batch.
* **series** — bounded value lists holding the most recent
  observations (:meth:`observe`), e.g. the residual trajectory of the
  EDF fixed point or per-cell runtimes.

Everything serializes to a plain-dict :meth:`snapshot` (JSON- and
pickle-safe), and snapshots :meth:`merge` back into any registry —
that is how per-cell metrics recorded inside ``multiprocessing``
workers are aggregated into the parent process after the pool joins.

The registry is **disabled by default** and every mutating method
returns immediately when disabled; :meth:`trace` then hands out a
shared no-op context manager, so instrumented hot paths cost one
attribute lookup and one predictable branch (asserted to be <2% of a
representative grid's runtime by ``benchmarks/test_bench_obs.py``).
"""

from __future__ import annotations

import json
import math
import threading
import time
from collections import deque
from typing import Any, Iterator, Mapping

#: Schema tag of serialized snapshots.
SNAPSHOT_SCHEMA = "repro.metrics/1"

#: Hard cap on the length of one series, so a runaway loop cannot grow a
#: snapshot without bound.  A full series drops its *oldest* values: a
#: long-running service's latency series shows recent requests.
SERIES_CAP = 4096


def _new_span_node() -> dict[str, Any]:
    return {
        "count": 0,
        "total_s": 0.0,
        "min_s": math.inf,
        "max_s": 0.0,
        "children": {},
    }


class _NoopSpan:
    """Shared do-nothing context manager handed out while disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


class _Span:
    """One live span: times itself and records into the registry on exit."""

    __slots__ = ("_registry", "_name", "_start")

    def __init__(self, registry: "MetricsRegistry", name: str) -> None:
        self._registry = registry
        self._name = name

    def __enter__(self) -> "_Span":
        self._registry._push(self._name)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        elapsed = time.perf_counter() - self._start
        self._registry._pop(elapsed)
        return False


#: What :meth:`MetricsRegistry.trace` hands out: a live span while
#: enabled, the shared no-op otherwise.  Both close via ``with``.
Span = _Span | _NoopSpan


class MetricsRegistry:
    """Thread-safe in-process metrics store (see module docstring)."""

    def __init__(self, enabled: bool = False) -> None:
        self._enabled = bool(enabled)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._spans: dict[str, dict[str, Any]] = {}
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, Any] = {}
        self._series: dict[str, deque[float]] = {}

    # ------------------------------------------------------------------ #
    # switching
    # ------------------------------------------------------------------ #

    def enabled(self) -> bool:
        return self._enabled

    def enable(self, on: bool = True) -> None:
        self._enabled = bool(on)

    def disable(self) -> None:
        self._enabled = False

    # ------------------------------------------------------------------ #
    # spans
    # ------------------------------------------------------------------ #

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _push(self, name: str) -> None:
        self._stack().append(name)

    def _pop(self, elapsed: float) -> None:
        stack = self._stack()
        path = tuple(stack)
        stack.pop()
        with self._lock:
            children = self._spans
            node: dict[str, Any] | None = None
            for name in path:
                node = children.get(name)
                if node is None:
                    node = children[name] = _new_span_node()
                children = node["children"]
            assert node is not None
            node["count"] += 1
            node["total_s"] += elapsed
            node["min_s"] = min(node["min_s"], elapsed)
            node["max_s"] = max(node["max_s"], elapsed)

    def trace(self, name: str) -> "_Span | _NoopSpan":
        """A context manager timing ``name`` (no-op while disabled)."""
        if not self._enabled:
            return NOOP_SPAN
        return _Span(self, name)

    # ------------------------------------------------------------------ #
    # counters / gauges / series
    # ------------------------------------------------------------------ #

    def add(self, name: str, value: float = 1.0) -> None:
        """Increment counter ``name`` by ``value`` (no-op while disabled)."""
        if not self._enabled:
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + value

    def set_gauge(self, name: str, value: Any) -> None:
        """Set gauge ``name`` (last write wins; no-op while disabled)."""
        if not self._enabled:
            return
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Append ``value`` to series ``name``; past ``SERIES_CAP``
        values the oldest one is dropped."""
        if not self._enabled:
            return
        with self._lock:
            self._series_named(name).append(float(value))

    def _series_named(self, name: str) -> deque[float]:
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = deque(maxlen=SERIES_CAP)
        return series

    # ------------------------------------------------------------------ #
    # snapshots
    # ------------------------------------------------------------------ #

    @staticmethod
    def _copy_span(node: Mapping[str, Any]) -> dict[str, Any]:
        return {
            "count": node["count"],
            "total_s": node["total_s"],
            "min_s": node["min_s"] if node["count"] else 0.0,
            "max_s": node["max_s"],
            "children": {
                name: MetricsRegistry._copy_span(child)
                for name, child in node["children"].items()
            },
        }

    def snapshot(self) -> dict[str, Any]:
        """A deep, JSON- and pickle-serializable copy of all metrics."""
        with self._lock:
            return {
                "schema": SNAPSHOT_SCHEMA,
                "spans": {
                    name: self._copy_span(node)
                    for name, node in self._spans.items()
                },
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "series": {k: list(v) for k, v in self._series.items()},
            }

    def to_json(self, **kwargs: Any) -> str:
        """The snapshot as a JSON string."""
        return json.dumps(self.snapshot(), sort_keys=True, **kwargs)

    @staticmethod
    def _merge_span(target: dict[str, Any], source: Mapping[str, Any]) -> None:
        target["count"] += source["count"]
        target["total_s"] += source["total_s"]
        if source["count"]:
            target["min_s"] = min(target["min_s"], source["min_s"])
            target["max_s"] = max(target["max_s"], source["max_s"])
        for name, child in source.get("children", {}).items():
            node = target["children"].get(name)
            if node is None:
                node = target["children"][name] = _new_span_node()
            MetricsRegistry._merge_span(node, child)

    def merge(self, snapshot: Mapping[str, Any]) -> None:
        """Fold a :meth:`snapshot` into this registry.

        Counters add, gauges take the incoming value, series extend
        (keeping the most recent ``SERIES_CAP`` values), and span trees
        merge node by node.  Merging ignores the enabled flag:
        aggregation of already-collected worker snapshots must work even
        if live collection has been switched off in the meantime.
        """
        with self._lock:
            for name, value in snapshot.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0.0) + value
            for name, value in snapshot.get("gauges", {}).items():
                self._gauges[name] = value
            for name, values in snapshot.get("series", {}).items():
                self._series_named(name).extend(float(v) for v in values)
            for name, node in snapshot.get("spans", {}).items():
                target = self._spans.get(name)
                if target is None:
                    target = self._spans[name] = _new_span_node()
                self._merge_span(target, node)

    def reset(self) -> None:
        """Drop every recorded metric (the enabled flag is untouched)."""
        with self._lock:
            self._spans = {}
            self._counters = {}
            self._gauges = {}
            self._series = {}

    # ------------------------------------------------------------------ #
    # introspection helpers (used by tests and the CLI summary line)
    # ------------------------------------------------------------------ #

    def counter(self, name: str) -> float:
        """Current value of counter ``name`` (0.0 if never incremented)."""
        with self._lock:
            return self._counters.get(name, 0.0)

    def gauge(self, name: str) -> Any:
        with self._lock:
            return self._gauges.get(name)

    def series(self, name: str) -> list[float]:
        with self._lock:
            return list(self._series.get(name, ()))

    def span_names(self) -> Iterator[str]:
        with self._lock:
            return iter(list(self._spans))

    def __repr__(self) -> str:
        state = "enabled" if self._enabled else "disabled"
        return (
            f"MetricsRegistry({state}: {len(self._spans)} span roots, "
            f"{len(self._counters)} counters)"
        )
