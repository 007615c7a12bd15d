"""Output checks, run after the timed phase against in-process references.

Served relations are compared as canonical JSON of ``encode_relation``
(sorted keys) with :meth:`QueryEngine.evaluate` on the same graph file;
``/topk`` replies with :meth:`QueryEngine.top_k`.  Writes are checked by
twin replay: the schedule is applied to a private copy of the graph and
every ``(epoch, pattern)`` a reader saw is re-evaluated at that state.
Each function returns a list of failure messages (empty = correct).
"""

from __future__ import annotations

import json
from typing import Iterable

from repro.engine.engine import QueryEngine
from repro.graph.digraph import Graph
from repro.incremental.updates import decompose
from repro.pattern.parser import parse_pattern
from repro.server.wire import decode_updates, encode_ranked, encode_relation


def canonical(payload: object) -> str:
    return json.dumps(payload, sort_keys=True)


class Reference:
    """Engine-side answers for one graph state, memoized per pattern."""

    def __init__(self, graph: Graph) -> None:
        self.engine = QueryEngine()
        self.engine.register_graph("g", graph)
        self._relations: dict[str, str] = {}

    def relation(self, text: str) -> str:
        if text not in self._relations:
            result = self.engine.evaluate("g", parse_pattern(text))
            self._relations[text] = canonical(encode_relation(result.relation))
        return self._relations[text]

    def top_k(self, text: str, k: int) -> str:
        ranked = self.engine.top_k("g", parse_pattern(text), k)
        return canonical(encode_ranked(ranked))

    def close(self) -> None:
        self.engine.close()


def check_relations(graph: Graph, served: dict[str, str]) -> list[str]:
    """``served``: pattern text -> canonical relation JSON it was served."""
    reference = Reference(graph)
    try:
        return [
            f"relation mismatch for pattern {text.splitlines()[0]!r}"
            for text, relation in served.items()
            if reference.relation(text) != relation
        ]
    finally:
        reference.close()


def check_topk(graph: Graph, served: dict[tuple[str, int], str]) -> list[str]:
    """``served``: (pattern text, k) -> canonical experts JSON."""
    reference = Reference(graph)
    try:
        return [
            f"top-k mismatch for pattern {text.splitlines()[0]!r}"
            for (text, k), experts in served.items()
            if reference.top_k(text, k) != experts
        ]
    finally:
        reference.close()


def twin_states(graph: Graph, batches: list[list[dict]],
                wanted: Iterable[int]) -> dict[int, Graph]:
    """The graph after ``e`` batches, for every epoch ``e`` in ``wanted``."""
    wanted = set(wanted)
    states: dict[int, Graph] = {}
    twin = graph.copy()
    for epoch in range(len(batches) + 1):
        if epoch in wanted:
            states[epoch] = twin.copy()
        if epoch < len(batches):
            for update in decode_updates({"updates": batches[epoch]}):
                for primitive in decompose(twin, update):
                    primitive.apply(twin)
    return states


def check_epochs(graph: Graph, batches: list[list[dict]],
                 served: dict[tuple[int, str], str]) -> list[str]:
    """``served``: (epoch, pattern text) -> canonical relation.  Epoch ``e``
    must equal the twin after exactly ``e`` batches (zero stale reads)."""
    failures: list[str] = []
    by_epoch: dict[int, list[str]] = {}
    for epoch, text in served:
        by_epoch.setdefault(epoch, []).append(text)
    unknown = [epoch for epoch in by_epoch if not 0 <= epoch <= len(batches)]
    if unknown:
        return [f"replies tagged with unknown epochs {sorted(unknown)}"]
    states = twin_states(graph, batches, by_epoch)
    for epoch in sorted(by_epoch):
        reference = Reference(states[epoch])
        try:
            for text in by_epoch[epoch]:
                if reference.relation(text) != served[(epoch, text)]:
                    failures.append(
                        f"stale or wrong read at epoch {epoch} for pattern "
                        f"{text.splitlines()[0]!r}"
                    )
        finally:
            reference.close()
    return failures
