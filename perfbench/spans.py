"""Spans around the program's public functions, for the traced run.

:func:`install` rebinds each listed public function to a wrapper that
records a span (layer, function, start, end, parent span) in memory.
Every binding of the function object in a loaded ``repro`` module is
rebound, so names pulled in with ``from module import name`` are
traced too.  Parents come from a :mod:`contextvars` variable, which
each asyncio task and each thread sees separately.  Two kinds of span
open a scope: a served request (``BoundService.bounds``/``admissible``)
gets a request id that its nested spans share, and a solver flush
(``coalescer.solve_spec``, on the solver thread) gets a flush id shared
by the solver spans under it.

:func:`summarize` turns the spans into per-layer call counts, self
time (duration minus the time covered by child spans) and shares, plus
the layer-specific extras named in ``perfbench/README.md``.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Iterable

from common import median

#: Layers of the per-layer table, in report order.
LAYERS = (
    "service.http",
    "service.app",
    "service.model",
    "service.lru",
    "experiments.cache",
    "service.coalescer",
    "experiments.batch",
    "experiments.sweep",
    "network.lanes",
    "network.cprobe",
    "network.vectorized",
    "network.backlog",
    "network.convolution",
    "simulation.vectorized",
    "arrivals.processes",
)


def _note_key(args, kwargs, result):
    from repro.experiments.sweep import cell_key

    return {"key": cell_key(args[1])}


def _note_flush(args, kwargs, result):
    spec = args[0]
    return {"keys": spec.keys(), "cells": len(spec.cells)}


def _note_batch(args, kwargs, result):
    batch = args[0]
    return {"fallback": len(batch.cells) if batch.kind == "cells" else 0}


def _note_edf(args, kwargs, result):
    flags = [bound.diagnostics for bound in result]
    return {
        "iterations": [d.iterations for d in flags],
        "nonconverged": sum(1 for d in flags if not d.converged),
    }


def _note_probes(args, kwargs, result):
    return {"probes": len(args[1])}


def _note_sim(args, kwargs, result):
    return {"slot_hops": len(args[0]) * len(args[1])}


def _note_lru(args, kwargs, result):
    return {"hit": result is not None}


#: (module, attribute, layer, scope, note).  ``attribute`` may be
#: ``Class.method``.  ``scope`` is ``"request"``/``"flush"`` for spans
#: that open a request or flush scope, ``"wait"`` for a span whose
#: self time is time spent waiting on another thread, else ``None``.
TARGETS: tuple[tuple[str, str, str, str | None, Callable | None], ...] = (
    ("repro.service.api.app", "BoundService.bounds", "service.app", "request", None),
    ("repro.service.api.app", "BoundService.admissible", "service.app", "request", None),
    ("repro.service.api.app", "BoundService.answer", "service.app", None, None),
    ("repro.service.api.model", "BoundQuery.from_json", "service.model", None, None),
    ("repro.service.api.model", "BoundQuery.key", "service.model", None, None),
    ("repro.service.api.model", "BoundQuery.cell", "service.model", None, None),
    ("repro.service.api.lru", "LRUCache.get", "service.lru", None, _note_lru),
    ("repro.service.api.lru", "LRUCache.put", "service.lru", None, None),
    ("repro.experiments.cache", "CellCache.get", "experiments.cache", None, None),
    ("repro.experiments.cache", "CellCache.put", "experiments.cache", None, None),
    ("repro.service.api.coalescer", "BatchCoalescer.submit", "service.coalescer", "wait", _note_key),
    ("repro.service.api.coalescer", "solve_spec", "service.coalescer", "flush", _note_flush),
    ("repro.experiments.batch", "plan_batches", "experiments.batch", None, None),
    ("repro.experiments.batch", "execute_batch", "experiments.batch", None, _note_batch),
    ("repro.experiments.sweep", "run_sweep", "experiments.sweep", None, None),
    ("repro.experiments.sweep", "execute_cell", "experiments.sweep", None, None),
    ("repro.network.lanes", "mmoo_bound_lanes", "network.lanes", None, None),
    ("repro.network.lanes", "edf_bound_lanes", "network.lanes", None, _note_edf),
    ("repro.network.cprobe", "probe_values", "network.cprobe", None, _note_probes),
    ("repro.network.cprobe", "golden_values", "network.cprobe", None, _note_probes),
    ("repro.network.vectorized", "e2e_delay_grid_rows", "network.vectorized", None, None),
    ("repro.network.vectorized", "solve_exact_fast", "network.vectorized", None, None),
    ("repro.network.vectorized", "optimize_gamma_additive", "network.vectorized", None, None),
    ("repro.network.backlog", "e2e_backlog_bound_mmoo", "network.backlog", None, None),
    ("repro.network.backlog", "e2e_backlog_bound", "network.backlog", None, None),
    ("repro.network.backlog", "e2e_backlog_bound_at_gamma", "network.backlog", None, None),
    ("repro.network.convolution", "network_service_curve", "network.convolution", None, None),
    ("repro.network.convolution", "degrade_rate", "network.convolution", None, None),
    ("repro.simulation.vectorized", "run_tandem_vectorized", "simulation.vectorized", None, _note_sim),
    ("repro.arrivals.processes", "mmoo_aggregate_arrivals", "arrivals.processes", None, None),
)


class Recorder:
    """In-memory span store.

    A span is ``[id, parent, layer, name, start, end, rid, fid, scope,
    attrs]`` with ``perf_counter`` times, which on Linux are
    ``CLOCK_MONOTONIC`` and so comparable across processes.
    """

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._ids = itertools.count(1)
        self._flush_ids = itertools.count(1)
        self._request_ids = itertools.count(1)
        # (current span id, request id, flush id)
        self._current: contextvars.ContextVar[tuple[int, Any, Any]] = (
            contextvars.ContextVar("perfbench_span", default=(0, None, None))
        )

    def _open(self, scope: str | None, rid: Any = None):
        parent, cur_rid, cur_fid = self._current.get()
        sid = next(self._ids)
        if scope == "request":
            parent, cur_fid = 0, None
            cur_rid = rid if rid is not None else f"s{next(self._request_ids)}"
        elif scope == "flush":
            parent, cur_rid, cur_fid = 0, None, next(self._flush_ids)
        token = self._current.set((sid, cur_rid, cur_fid))
        return sid, parent, cur_rid, cur_fid, token

    def wrap(
        self,
        fn: Callable,
        layer: str,
        name: str,
        scope: str | None,
        note: Callable | None,
    ) -> Callable:
        spans = self.spans
        current = self._current

        def rid_of(args):
            if scope == "request" and len(args) > 1 and isinstance(args[1], dict):
                return args[1].get("rid")
            return None

        def record(opened, start, ok, args, kwargs, result):
            sid, parent, rid, fid, token = opened
            end = time.perf_counter()
            current.reset(token)
            attrs = note(args, kwargs, result) if note and ok else None
            spans.append([sid, parent, layer, name, start, end, rid, fid, scope, attrs])

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                opened = self._open(scope, rid_of(args))
                start = time.perf_counter()
                ok, result = False, None
                try:
                    result = await fn(*args, **kwargs)
                    ok = True
                    return result
                finally:
                    record(opened, start, ok, args, kwargs, result)

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            opened = self._open(scope, rid_of(args))
            start = time.perf_counter()
            ok, result = False, None
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                record(opened, start, ok, args, kwargs, result)

        return traced


def install(recorder: Recorder, targets: Iterable[tuple] = TARGETS) -> Callable[[], None]:
    """Wrap every target; returns a function that restores the originals."""
    undo: list[tuple[Any, str, Any]] = []
    for module_name, attr, layer, scope, note in targets:
        module = importlib.import_module(module_name)
        owner_name, _, method = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            raw = owner.__dict__[method]
            if isinstance(raw, classmethod):
                wrapped: Any = classmethod(
                    recorder.wrap(raw.__func__, layer, attr, scope, note)
                )
            else:
                wrapped = recorder.wrap(raw, layer, attr, scope, note)
            undo.append((owner, method, raw))
            setattr(owner, method, wrapped)
            continue
        original = getattr(module, attr)
        name = f"{module_name.rpartition('.')[2]}.{attr}"
        wrapped = recorder.wrap(original, layer, name, scope, note)
        for module_path, loaded in list(sys.modules.items()):
            if not module_path.startswith("repro") or loaded is None:
                continue
            for binding, value in list(vars(loaded).items()):
                if value is original:
                    undo.append((loaded, binding, original))
                    setattr(loaded, binding, wrapped)

    def restore() -> None:
        for owner, binding, original in reversed(undo):
            setattr(owner, binding, original)

    return restore


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    end = lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def summarize(
    spans: list[list[Any]],
    client_requests: dict[Any, float] | None = None,
) -> tuple[dict[str, float], dict[str, dict[str, float]]]:
    """Per-layer metrics and the table rows behind them.

    ``client_requests`` maps request id -> client-observed latency (s);
    the ``service.http`` layer's self time is that latency minus the
    server's time inside ``BoundService.bounds``/``admissible``.
    Returns ``(metrics, table)`` where ``table[layer]`` has ``calls``,
    ``self_s``, ``total_s`` (time in the layer's outermost spans) and
    ``wait_s``.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    by_id = {}
    for span in spans:
        children[span[1]].append((span[4], span[5]))
        by_id[span[0]] = span
    flushes_by_key: dict[str, list[list[Any]]] = defaultdict(list)
    for span in spans:
        if span[8] == "flush":
            for key in (span[9] or {}).get("keys", ()):
                flushes_by_key[key].append(span)

    table = {
        layer: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "wait_s": 0.0}
        for layer in LAYERS
    }
    waits_ms: list[float] = []
    key_us: list[float] = []
    put_ms: list[float] = []
    lru_hits = lru_gets = 0
    occupancy: list[int] = []
    fallback = nonconverged = probes = slot_hops = 0
    iterations: list[int] = []
    sim_s = 0.0
    server_request_s: dict[Any, float] = {}

    for span in spans:
        sid, parent, layer, name, start, end, rid, _fid, scope, attrs = span
        attrs = attrs or {}
        row = table[layer]
        row["calls"] += 1
        duration = end - start
        covered = _covered(children.get(sid, []), start, end)
        if scope == "wait":
            # the solver flush that answered this submit is a causal
            # child on another thread: its time is the solver's, the
            # rest is coalescing/queueing wait
            flush = next(
                (
                    f for f in flushes_by_key.get(attrs.get("key"), ())
                    if start <= f[4] <= end
                ),
                None,
            )
            if flush is not None:
                covered += _covered([(flush[4], flush[5])], start, end)
            wait = max(0.0, duration - covered)
            row["wait_s"] += wait
            waits_ms.append(wait * 1e3)
        else:
            row["self_s"] += max(0.0, duration - covered)
        parent_span = by_id.get(parent)
        if parent_span is None or parent_span[2] != layer:
            row["total_s"] += duration
        if scope == "request":
            server_request_s[rid] = duration
        if name == "BoundQuery.key":
            key_us.append(duration * 1e6)
        elif name == "CellCache.put":
            put_ms.append(duration * 1e3)
        elif name == "LRUCache.get":
            lru_gets += 1
            lru_hits += bool(attrs.get("hit"))
        elif scope == "flush":
            occupancy.append(attrs.get("cells", 0))
        elif name == "batch.execute_batch":
            fallback += attrs.get("fallback", 0)
        elif name == "lanes.edf_bound_lanes":
            iterations.extend(attrs.get("iterations", ()))
            nonconverged += attrs.get("nonconverged", 0)
        elif layer == "network.cprobe":
            probes += attrs.get("probes", 0)
        elif layer == "simulation.vectorized":
            slot_hops += attrs.get("slot_hops", 0)
            sim_s += duration

    if client_requests:
        http = table["service.http"]
        for rid, latency in client_requests.items():
            http["calls"] += 1
            http["self_s"] += max(0.0, latency - server_request_s.get(rid, 0.0))
            http["total_s"] += latency

    busy = sum(row["self_s"] for row in table.values())
    metrics: dict[str, float] = {}
    for layer, row in table.items():
        metrics[f"{layer}.calls"] = row["calls"]
        metrics[f"{layer}.self_s"] = row["self_s"]
        metrics[f"{layer}.share"] = row["self_s"] / busy if busy else 0.0
    metrics.update(
        {
            "service.model.key_us": sum(key_us) / len(key_us) if key_us else 0.0,
            "service.lru.hit_ratio": lru_hits / lru_gets if lru_gets else 0.0,
            "experiments.cache.put_ms": sum(put_ms) / len(put_ms) if put_ms else 0.0,
            "service.coalescer.wait_ms_p50": median(waits_ms) if waits_ms else 0.0,
            "service.coalescer.occupancy_mean": (
                sum(occupancy) / len(occupancy) if occupancy else 0.0
            ),
            "experiments.batch.fallback_cells": fallback,
            "network.lanes.edf_iterations_mean": (
                sum(iterations) / len(iterations) if iterations else 0.0
            ),
            "network.lanes.edf_nonconverged": nonconverged,
            "network.cprobe.probes": probes,
            "simulation.vectorized.slot_hops_per_s": slot_hops / sim_s if sim_s else 0.0,
        }
    )
    return metrics, table


def format_table(title: str, table: dict[str, dict[str, float]]) -> str:
    """The per-layer self-time table, busiest layer first."""
    busy = sum(row["self_s"] for row in table.values()) or 1.0
    lines = [
        f"per-layer time, {title} (self = span time minus child spans; "
        "total = time inside the layer's outermost spans)",
        f"  {'layer':<24}{'calls':>10}{'self_s':>11}{'share':>8}"
        f"{'total_s':>11}{'wait_s':>10}",
    ]
    for layer, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        if not row["calls"]:
            continue
        lines.append(
            f"  {layer:<24}{row['calls']:>10d}{row['self_s']:>11.4f}"
            f"{row['self_s'] / busy:>8.1%}{row['total_s']:>11.4f}"
            f"{row['wait_s']:>10.4f}"
        )
    return "\n".join(lines)
