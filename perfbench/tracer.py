"""Out-of-tree span tracer for the query service's layers.

:func:`install` wraps each layer's public entry points *where the caller
looks them up* (for example ``repro.server.registry.match_bounded``, the
name ``Epoch.evaluate`` resolves at call time), so the program's source
stays untouched.  A span records ``(id, parent, name, start_ns, end_ns,
request id)``; the parent comes from a per-thread stack and the request
id from a :mod:`contextvars` variable set by the outermost span of a
thread.  Counts (row entries, cache hits, bytes) are recorded at the same
boundaries as ``(name, t_ns, value)`` events.  Everything stays in memory
until :meth:`Tracer.dump` writes one JSON file.

:func:`layer_totals` turns a dump into per-layer self times: a span's self
time is its duration minus the time its direct children cover, so the
self times of one tree sum exactly to its root span.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable

_REQUEST = contextvars.ContextVar("perfbench_request", default=0)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.events: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def count(self, name: str, value: float = 1) -> None:
        self.events.append((name, time.perf_counter_ns(), value))

    def wrap(self, name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        """``fn`` timed as span ``name``; ``on_result(tracer, result, args)``
        records counts from the return value."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            token = _REQUEST.set(span_id) if not stack else None
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append(
                    (span_id, parent, name, start, end, _REQUEST.get())
                )
                if token is not None:
                    _REQUEST.reset(token)
            if on_result is not None:
                on_result(tracer, result, args)
            return result

        return traced

    def dump(self, path: str) -> None:
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump({"spans": list(self.spans), "events": list(self.events)}, handle)
        os.replace(tmp, path)


def _patch(owner: Any, attr: str, wrapper: Callable[[Callable], Callable]) -> None:
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(wrapper(raw.__func__)))
    else:
        setattr(owner, attr, wrapper(raw))


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point of the service's layers."""
    from repro.engine import storage
    from repro.engine.cache import QueryCache, RankCache
    from repro.graph.digraph import Graph
    from repro.graph.frozen import FrozenGraph
    from repro.incremental import updates
    from repro.matching import base, bounded
    from repro.server import admission, app, registry, wal, wire

    def span(name: str, on_result: Callable | None = None):
        return lambda fn: tracer.wrap(name, fn, on_result)

    # server.app: the HTTP request and the service operation under it.
    _patch(app._Handler, "do_POST", span("app.request"))
    for op in ("evaluate", "batch", "topk", "update_graph", "register_graph"):
        _patch(app.ExpFinderService, op, span(f"service.{op}"))

    # server.wire: the names app.py (and the WAL codec paths) call.
    for module in (app, wire):
        for fn in ("decode_pattern", "decode_budget", "decode_updates"):
            if hasattr(module, fn):
                _patch(module, fn, span("wire.decode"))

    _patch(app, "encode_relation", span("wire.encode"))
    _patch(app, "encode_ranked", span("wire.encode"))
    _patch(wire, "encode_update", span("wire.encode"))

    # server.admission
    _patch(admission.AdmissionController, "acquire", span("admission.wait"))

    # server.registry
    _patch(registry.SnapshotRegistry, "pin", span("registry.pin"))
    _patch(registry.EpochHandle, "release", span("registry.pin"))
    _patch(registry.Epoch, "evaluate", span("registry.evaluate"))
    _patch(registry.Epoch, "top_k", span("registry.top_k"))
    _patch(registry.SnapshotRegistry, "publish", span("registry.publish"))
    _patch(registry.SnapshotRegistry, "register", span("registry.register"))
    _patch(registry.SnapshotRegistry, "recover", span("recover"))

    # engine.cache: hit/lookup counts at the probe.
    def probe(prefix):
        def record(tr, result, args):
            tr.count(f"{prefix}.lookups")
            if result is not None:
                tr.count(f"{prefix}.hits")
        return record

    def evictions(fn):
        @functools.wraps(fn)
        def counted(self, *args, **kwargs):
            before = self._evictions
            fn(self, *args, **kwargs)
            if self._evictions > before:
                tracer.count("cache.evictions", self._evictions - before)
        return counted

    _patch(QueryCache, "get", span("cache.probe", probe("cache")))
    _patch(RankCache, "get", span("cache.probe", probe("rank_cache")))
    _patch(QueryCache, "_evict_if_needed", evictions)

    # graph.index: candidate generation.
    def candidate_nodes(tr, result, args):
        tr.count("candidates.nodes", sum(len(nodes) for nodes in result.values()))

    _patch(registry.Epoch, "candidates", span("candidates", candidate_nodes))

    # matching.bounded / matching.simulation
    def row_entries(tr, result, args):
        tr.count("kernel.row_entries", sum(
            len(row) for edge_rows in result.values() for row in edge_rows.values()
        ))

    def removed(tr, result, args):
        tr.count("fixpoint.removed", len(result))

    def matched(tr, result, args):
        tr.count("match.pairs", result.relation.num_pairs)
        tr.count("match.nodes", len(result.relation.matched_data_nodes()))

    _patch(bounded, "frozen_successor_rows", span("kernel", row_entries))
    _patch(bounded.BoundedState, "__init__", span("translate"))
    _patch(bounded.BoundedState, "removal_fixpoint", span("fixpoint", removed))
    _patch(registry, "match_bounded", span("match_bounded", matched))
    _patch(registry, "match_simulation", span("match_simulation", matched))

    # matching.result_graph
    def rg_edges(tr, result, args):
        tr.count("result_graph.edges", result.num_edges)

    _patch(base.MatchResult, "result_graph", span("result_graph", rg_edges))

    # ranking.topk: context construction and selection (stats deltas).
    _patch(registry, "RankingContext", span("rank.context"))
    select = registry.bulk_top_k_detail

    @functools.wraps(select)
    def counted_select(context, k, *args, **kwargs):
        before = dict(context.stats)
        result = select(context, k, *args, **kwargs)
        for key in ("dijkstra_runs", "pruned_by_bound", "details_scored"):
            tracer.count(f"rank.{key}", context.stats[key] - before[key])
        return result

    registry.bulk_top_k_detail = tracer.wrap("rank.select", counted_select)

    # incremental.updates: decompose + primitive apply.
    _patch(registry, "decompose", span("apply"))
    for cls in (updates.EdgeInsertion, updates.EdgeDeletion, updates.NodeInsertion,
                updates.NodeDeletion, updates.AttributeUpdate):
        _patch(cls, "apply", span("apply"))

    # graph.digraph / graph.frozen
    _patch(Graph, "copy", span("graph_copy"))
    _patch(FrozenGraph, "freeze", span("freeze"))
    _patch(FrozenGraph, "successor_sets", span("prewarm"))
    _patch(FrozenGraph, "predecessor_sets", span("prewarm"))

    # server.wal
    def frame_bytes(tr, result, args):
        tr.count("wal.frame_bytes", args[0].last_frame_bytes)

    _patch(wal.WriteAheadLog, "append", span("wal.append", frame_bytes))
    # Under --fsync batch the fsync runs inside append(), not sync().
    _patch(wal.WriteAheadLog, "_fsync_locked", span("wal.sync"))
    _patch(wal.Checkpointer, "checkpoint", span("checkpoint"))

    # engine.storage
    for fn in ("save_graph", "save_snapshot"):
        _patch(storage.GraphStore, fn, span("store.save"))
    for fn in ("load_graph", "load_snapshot"):
        _patch(storage.GraphStore, fn, span("store.load"))


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def select_roots(dump: dict, start_ns: int, end_ns: int) -> tuple[list, list]:
    """Spans of every tree whose root started in ``[start_ns, end_ns)``,
    and the events in that window."""
    spans = dump["spans"]
    keep_roots = {s[0] for s in spans if s[1] == 0 and start_ns <= s[3] < end_ns}
    chosen = [s for s in spans if s[5] in keep_roots]
    events = [e for e in dump["events"] if start_ns <= e[1] < end_ns]
    return chosen, events


def layer_totals(spans: list) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
    """Per span name: total self ms, total span ms, and call count."""
    child_ns: dict[int, int] = defaultdict(int)
    for span_id, parent, _name, start, end, _rid in spans:
        if parent:
            child_ns[parent] += end - start
    self_ms: dict[str, float] = defaultdict(float)
    total_ms: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for span_id, _parent, name, start, end, _rid in spans:
        duration = end - start
        self_ms[name] += (duration - child_ns[span_id]) / 1e6
        total_ms[name] += duration / 1e6
        calls[name] += 1
    return dict(self_ms), dict(total_ms), dict(calls)


def event_totals(events: list) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    for name, _t, value in events:
        totals[name] += value
    return dict(totals)
