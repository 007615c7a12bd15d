"""Process-pool parallelism: batch farming, bulk ranking, oracle builds.

:class:`ParallelExecutor` fans three kinds of independent work out to a
:mod:`multiprocessing` pool, each with output byte-identical to the
sequential path:

* :meth:`ParallelExecutor.match_many` — *per-batch* parallelism: farm whole
  (pattern, candidates) tasks out, one query per worker at a time, with
  the data graph, its frozen snapshot and the shared candidate table
  shipped once per worker (fork inheritance or pool initializer).
  ``tests/test_differential.py`` asserts farmed ≡ sequential over hundreds
  of seeded random graphs and patterns.
* :meth:`ParallelExecutor.rank_many` — per-match social-impact scoring of
  a top-K request, chunked over workers.
* :meth:`ParallelExecutor.build_oracle` — the independent phase-two
  landmark chunks of a distance-oracle build.

A single query always runs in the calling process: the matcher's removal
fixpoint is global, and splitting one query's successor-row work across
processes never beat the sequential frozen kernels in measurement.

Workers are separate processes; a speedup needs actual spare cores.
``benchmarks/bench_parallel_eval.py`` measures the batch case.
"""

from __future__ import annotations

import multiprocessing
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.engine.estimator import QueryBudget
from repro.errors import EvaluationError
from repro.graph.digraph import Graph, NodeId
from repro.graph.frozen import FrozenGraph
from repro.graph.oracle import DistanceOracle, set_build_context
from repro.matching.base import MatchRelation
from repro.matching.bounded import match_bounded
from repro.matching.simulation import match_simulation
from repro.pattern.pattern import Pattern
from repro.ranking.topk import RankingContext

# Set once per batch worker (fork inheritance or pool initializer), so
# per-task payloads stay tiny: the graph, its frozen snapshot and the
# shared candidate table — {predicate key: node set}, computed once for the
# whole batch — never travel per query; a task carries only its pattern and
# the table keys its pattern nodes resolve to.
_batch_graph: Graph | None = None
_batch_table: dict[tuple, set[NodeId]] | None = None
_batch_frozen: FrozenGraph | None = None
_batch_oracle: DistanceOracle | None = None
_batch_budget: QueryBudget | None = None

# Bulk-ranking fan-out state: the snapshot context (and optionally the
# metric) ship once per worker — fork inheritance or pool initializer —
# so a ranking task carries only a chunk of node ids.
_rank_context: RankingContext | None = None
_rank_metric = None


def _shipment(
    frozen: FrozenGraph, oracle: DistanceOracle | None
) -> tuple[Any, Any]:
    """``(frozen, oracle)`` as a spawn pool initializer should receive them.

    Store-loaded objects record their backing snapshot file in ``.path``;
    shipping that path lets every worker ``mmap`` the same pages — shared
    RSS, no per-worker pickle of the buffers.  Objects built in-process
    have no file and ship as pickled (attribute-less) flat buffers.
    """
    shipped_frozen: Any = (
        frozen.path if frozen.path is not None else frozen.without_attrs()
    )
    shipped_oracle: Any = (
        oracle if oracle is None or oracle.path is None else oracle.path
    )
    return shipped_frozen, shipped_oracle


def _resolve_shipped(frozen: Any, oracle: Any) -> tuple[Any, Any]:
    """Worker-side inverse of :func:`_shipment`: map file paths back in."""
    from repro.engine.storage import load_frozen_file, load_oracle_file

    if isinstance(frozen, (str, Path)):
        frozen = load_frozen_file(frozen)
    if isinstance(oracle, (str, Path)):
        oracle = load_oracle_file(oracle)
    return frozen, oracle


def validate_workers(workers: int | None) -> int:
    """Normalize a ``workers`` argument: ``None`` means sequential (1).

    Raises :class:`EvaluationError` for anything that is not a positive
    integer, so every entry point (engine, CLI, facade) rejects bad values
    with one consistent message.
    """
    if workers is None:
        return 1
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise EvaluationError(f"workers must be a positive integer (got {workers!r})")
    return workers


def _init_batch_worker(
    graph: Graph | None,
    table: dict[tuple, set[NodeId]] | None,
    frozen: FrozenGraph | None = None,
    oracle: DistanceOracle | None = None,
    budget: "QueryBudget | None" = None,
) -> None:
    global _batch_graph, _batch_table, _batch_frozen, _batch_oracle, _batch_budget
    frozen, oracle = _resolve_shipped(frozen, oracle)
    _batch_graph = graph
    _batch_table = table
    _batch_frozen = frozen
    _batch_oracle = oracle
    _batch_budget = budget


def _init_rank_worker(context: RankingContext | None, metric: Any) -> None:
    global _rank_context, _rank_metric
    _rank_context = context
    _rank_metric = metric


def _rank_chunk(nodes: Sequence[NodeId]) -> list:
    """Score one chunk of matches against the worker's snapshot context.

    With no metric installed this is the rich social-impact path and
    returns :class:`~repro.ranking.social_impact.RankedMatch` objects;
    otherwise it returns the metric's ``score_bulk`` floats.  Either way
    the values are pure functions of the immutable snapshot, so they are
    identical to what the parent would compute inline.
    """
    context = _rank_context
    assert context is not None, "ranking context was not installed"
    if _rank_metric is None:
        return [context.detail(node) for node in nodes]
    return [_rank_metric.score_bulk(context, node) for node in nodes]


def _batch_query(
    payload: tuple[Pattern, dict[str, tuple]],
) -> tuple[MatchRelation, dict[str, Any]]:
    """Evaluate one whole query against the worker's graph (batch mode)."""
    pattern, key_by_node = payload
    assert _batch_graph is not None, "batch graph was not installed"
    assert _batch_table is not None, "batch candidate table was not installed"
    candidates = {u: _batch_table[key] for u, key in key_by_node.items()}
    if pattern.is_simulation_pattern:
        # Guards cover the bounded algorithm only (the quadratic matcher
        # has no runaway mode worth the bookkeeping), sequentially and in
        # workers alike — so both modes agree on the partial flag.
        result = match_simulation(
            _batch_graph, pattern, candidates=candidates, frozen=_batch_frozen
        )
    else:
        result = match_bounded(
            _batch_graph,
            pattern,
            candidates=candidates,
            frozen=_batch_frozen,
            oracle=_batch_oracle,
            budget=_batch_budget,
        )
    return result.relation, result.stats


class ParallelExecutor:
    """A worker-pool front end for batched evaluation, ranking and oracle
    builds.

    Each parallel call forks (or spawns) a pool sized ``workers`` and
    closes it before returning: children must see the graph, snapshot and
    candidate table as they are at call time, which fork inheritance gives
    for free.  With ``workers=1`` everything runs inline in the calling
    process — same code path, no processes — so callers can treat the
    executor as the one front end regardless of parallelism.

    >>> from repro.datasets.paper_example import paper_graph, paper_pattern
    >>> from repro.graph.index import batch_candidates, predicate_key
    >>> graph, pattern = paper_graph(), paper_pattern()
    >>> predicates = [pattern.predicate(u) for u in pattern.nodes()]
    >>> table = batch_candidates(graph, predicates)
    >>> task = (pattern, {u: predicate_key(pattern.predicate(u))
    ...                   for u in pattern.nodes()})
    >>> [(relation, _stats)] = ParallelExecutor(workers=2).match_many(
    ...     graph, [task], table)
    >>> sorted(relation.matches_of("SA"))
    ['Bob', 'Walt']
    """

    def __init__(self, workers: int, start_method: str | None = None) -> None:
        self.workers = validate_workers(workers)
        self._ctx = multiprocessing.get_context(start_method)

    def _pool(self, **kwargs: Any) -> Any:
        """A single-call pool; callers close it with ``with pool:``."""
        return self._ctx.Pool(self.workers, **kwargs)

    # ------------------------------------------------------------------
    # bulk-ranking parallelism
    # ------------------------------------------------------------------
    #: Below this many matches the fork/IPC cost of a pool dwarfs the
    #: Dijkstra work; rank inline instead (still through the same code).
    RANK_FANOUT_THRESHOLD = 64

    def rank_many(
        self,
        context: RankingContext,
        metric: Any,
        nodes: Sequence[NodeId],
    ) -> list:
        """Fan per-match scoring out across the pool, in input order.

        ``metric=None`` selects the rich social-impact path (returns
        :class:`RankedMatch` objects); otherwise each node is scored with
        ``metric.score_bulk``.  The snapshot context ships once per worker
        (fork inheritance on POSIX, pool initializer elsewhere); tasks
        carry only node-id chunks.  Scores are deterministic functions of
        the snapshot, so the output is byte-identical to inline scoring —
        the differential tests assert it.  Results are absorbed back into
        ``context``'s memos so subsequent calls (and the engine's rank
        cache) reuse them.
        """
        nodes = list(nodes)
        if (
            self.workers == 1
            or len(nodes) < self.RANK_FANOUT_THRESHOLD
        ):
            _init_rank_worker(context, metric)
            try:
                results = _rank_chunk(nodes)
            finally:
                _init_rank_worker(None, None)
        else:
            # ~4 chunks per worker smooths out uneven per-match cost
            # (component sizes vary wildly) without inflating IPC.
            chunk_size = max(1, -(-len(nodes) // (self.workers * 4)))
            chunks = [
                nodes[i : i + chunk_size] for i in range(0, len(nodes), chunk_size)
            ]
            _init_rank_worker(context, metric)
            try:
                if self._ctx.get_start_method() == "fork":
                    pool = self._pool()
                else:  # pragma: no cover - non-fork platforms
                    pool = self._pool(
                        initializer=_init_rank_worker,
                        initargs=(context, metric),
                    )
                with pool:
                    results = [
                        item for chunk in pool.map(_rank_chunk, chunks) for item in chunk
                    ]
            finally:
                _init_rank_worker(None, None)
        if metric is None:
            # Detail memos are keyed by node alone, so absorbing is always
            # safe; metric scores are memoized by the caller, which knows
            # whether this metric instance may share the context's memo.
            context.absorb_details(results)
        return results

    # ------------------------------------------------------------------
    # per-batch parallelism
    # ------------------------------------------------------------------
    def match_many(
        self,
        graph: Graph,
        tasks: Sequence[tuple[Pattern, dict[str, tuple]]],
        table: dict[tuple, set[NodeId]],
        frozen: FrozenGraph | None = None,
        oracle: DistanceOracle | None = None,
        budget: QueryBudget | None = None,
    ) -> list[tuple[MatchRelation, dict[str, Any]]]:
        """Evaluate whole queries across the pool.

        Each task is ``(pattern, {pattern node: candidate-table key})``;
        ``table`` maps those keys (canonical predicate keys) to candidate
        sets computed once for the whole batch.  The graph, its frozen
        snapshot (when given — worker matchers then run the CSR kernels),
        the distance oracle (when given — worker matchers then route
        selective edges to label merges) and the table ship once per
        worker — fork inheritance on POSIX, pool initializer elsewhere —
        so a task pickles only its pattern and a few keys.  Returns
        ``(relation, worker stats)`` per task, in order.  With one worker
        (or one task) everything runs inline.

        A ``budget`` applies *per query*: each bounded-pattern task gets a
        fresh guard inside its worker (node and wall limits count from the
        task's own start), exactly as a sequential loop over the batch
        would apply it.
        """
        if not tasks:
            return []
        if frozen is not None and not frozen.matches(graph):
            raise EvaluationError(
                f"stale frozen snapshot: {frozen!r} does not match "
                f"graph version {graph.version}"
            )
        if oracle is not None:
            if frozen is None:
                raise EvaluationError(
                    "a distance oracle requires a frozen snapshot in the "
                    "batch-farming path"
                )
            if not oracle.compatible_with(frozen):
                raise EvaluationError(
                    f"stale distance oracle: {oracle!r} does not match {frozen!r}"
                )
        if budget is not None and budget.is_limited:
            budget.validate()
        else:
            budget = None
        if self.workers == 1 or len(tasks) == 1:
            _init_batch_worker(graph, table, frozen, oracle, budget)
            try:
                return [_batch_query(task) for task in tasks]
            finally:
                _init_batch_worker(None, None, None, None, None)
        try:
            if self._ctx.get_start_method() == "fork":
                # Children inherit graph, snapshot, oracle and table from
                # the parent's module globals for free (copy-on-write);
                # nothing to pickle.
                _init_batch_worker(graph, table, frozen, oracle, budget)
                pool = self._pool()
            else:
                # Matchers in workers get candidates from the table, so
                # the snapshot ships without its attribute columns (or as
                # its backing file path when mmap-backed).
                if frozen is None:
                    shipped_frozen = shipped_oracle = None
                else:
                    shipped_frozen, shipped_oracle = _shipment(frozen, oracle)
                pool = self._pool(
                    initializer=_init_batch_worker,
                    initargs=(graph, table, shipped_frozen, shipped_oracle, budget),
                )
            with pool:
                return pool.map(_batch_query, list(tasks))
        finally:
            _init_batch_worker(None, None, None, None, None)

    # ------------------------------------------------------------------
    # parallel oracle construction
    # ------------------------------------------------------------------
    def build_oracle(
        self,
        frozen: FrozenGraph,
        cap: int | None = None,
        top: int | None = None,
    ) -> DistanceOracle:
        """Build a :class:`DistanceOracle`, fanning phase two across workers.

        Phase one (the sequential top-landmark prefix) runs in the calling
        process; the independent phase-two landmark chunks are mapped over
        a pool that shares the phase-one labels — fork
        inheritance on POSIX, pool initializer elsewhere — and return flat
        entry triples.  Because phase-two pruning only ever consults the
        fixed phase-one labels, the resulting label arrays are
        byte-identical to a sequential :meth:`DistanceOracle.build`
        (asserted in ``tests/test_oracle.py``); workers only change the
        wall-clock.  With one worker everything runs inline.
        """
        if self.workers == 1:
            return DistanceOracle.build(frozen, cap=cap, top=top)
        return DistanceOracle.build(
            frozen, cap=cap, top=top, chunk_map=self._oracle_chunk_map
        )

    def _oracle_chunk_map(
        self, function: Callable[..., Any], chunks: Sequence[Any]
    ) -> list:
        """Map phase-two chunks over a context-sharing pool.

        ``function`` is always :func:`repro.graph.oracle.phase_two_chunk`;
        the build context was installed by ``DistanceOracle.build`` right
        before this call, so forked children inherit it.  Under spawn the
        initializer re-installs it from an explicit argument.
        """
        chunks = list(chunks)
        if len(chunks) <= 1:
            return [function(chunk) for chunk in chunks]
        if self._ctx.get_start_method() == "fork":
            pool = self._pool()
        else:  # pragma: no cover - non-fork platforms
            from repro.graph.oracle import _build_context

            pool = self._pool(
                initializer=set_build_context,
                initargs=(_build_context,),
            )
        with pool:
            return pool.map(function, chunks)  # repro-lint: disable=spawn-safety -- callers pass the module-level phase_two_chunk; asserted spawn-picklable by tests/test_parallel.py
