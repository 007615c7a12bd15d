"""The query engine: evaluation, ranking, caching, updates, compression.

This is the composition root of the reproduction — the module that makes
Fig. 2's architecture concrete.  A :class:`QueryEngine` owns named data
graphs and, per graph, optionally a compressed form and a set of *pinned*
queries.  Evaluation follows §II's flow: cached result → compressed graph
(when the query is compatible) → direct evaluation, with the algorithm
picked by the planner; updates flow through the incremental module for
every pinned query and through partition maintenance for the compression.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.errors import CompressionError, EvaluationError
from repro.graph.digraph import Graph, NodeId
from repro.graph.frozen import FrozenGraph
from repro.graph.index import AttributeIndex, batch_candidates, predicate_key
from repro.compression.compress import CompressedGraph, compress
from repro.compression.decompress import decompress_result
from repro.compression.maintain import MaintainedCompression
from repro.engine.cache import (
    CacheEntry,
    OracleCache,
    QueryCache,
    RankCache,
    SnapshotCache,
    cache_key,
)
from repro.engine.estimator import QueryBudget, estimate_pattern
from repro.engine.planner import (
    ALGORITHM_BOUNDED,
    ALGORITHM_SIMULATION,
    ROUTE_CACHE,
    ROUTE_COMPRESSED,
    ROUTE_DIRECT,
    Plan,
    make_plan,
    route_edge,
)
from repro.graph.oracle import DistanceOracle
from repro.engine.parallel import ParallelExecutor, validate_workers
from repro.engine.storage import GraphStore
from repro.incremental.inc_bounded import IncrementalBoundedSimulation
from repro.incremental.inc_simulation import IncrementalSimulation
from repro.incremental.updates import Update, decompose
from repro.matching.base import MatchRelation, MatchResult, Stopwatch
from repro.matching.bounded import match_bounded
from repro.matching.result_graph import build_result_graph
from repro.matching.simulation import match_simulation
from repro.pattern.pattern import Pattern
from repro.ranking.metrics import RankingMetric, get_metric
from repro.ranking.social_impact import RankedMatch
from repro.ranking.topk import (
    RankingContext,
    bulk_top_k_detail,
    bulk_top_k_scores,
    validate_k,
)


class RegisteredGraph:
    """A named data graph plus its per-graph engine artefacts."""

    __slots__ = (
        "name", "graph", "version", "compression", "reach_index", "attr_index",
        "oracle_config",
    )

    def __init__(self, name: str, graph: Graph) -> None:
        self.name = name
        self.graph = graph
        self.version = 0
        self.compression: MaintainedCompression | CompressedGraph | None = None
        self.reach_index = None  # BoundedReachIndex, opt-in
        # Attribute postings build lazily on first use, so registration is
        # free; the engine keeps them consistent through update_graph().
        self.attr_index: AttributeIndex | None = AttributeIndex(graph)
        # Distance-oracle build parameters ({"cap": ..., "top": ...}), or
        # None while disabled; instances live in the engine's OracleCache.
        self.oracle_config: dict[str, Any] | None = None

    def compressed(self) -> CompressedGraph | None:
        """The current compressed form, if any."""
        if isinstance(self.compression, MaintainedCompression):
            return self.compression.compressed()
        return self.compression


class QueryEngine:
    """ExpFinder's query engine.

    >>> from repro.datasets.paper_example import paper_graph, paper_pattern
    >>> engine = QueryEngine()
    >>> engine.register_graph("fig1", paper_graph())
    >>> result = engine.evaluate("fig1", paper_pattern())
    >>> sorted(result.relation.matches_of("SA"))
    ['Bob', 'Walt']
    """

    def __init__(
        self,
        store: GraphStore | None = None,
        cache_capacity: int = 64,
        rank_cache_capacity: int = 16,
        snapshot_cache_capacity: int = 8,
        oracle_cache_capacity: int = 4,
    ) -> None:
        self.store = store
        self._registered: dict[str, RegisteredGraph] = {}
        self._cache = QueryCache(capacity=cache_capacity)
        # Ranked results are cached separately: a RankingContext (snapshot
        # + memoized Dijkstra runs) is much heavier than a relation, and
        # its validity is tied to Graph.version rather than LRU pressure.
        self._rank_cache = RankCache(capacity=rank_cache_capacity)
        # Frozen CSR snapshots, one per graph, built on the first direct
        # evaluation and reused by every traversal kernel (matchers, batch
        # workers) until the graph's version moves.
        self._snapshots = SnapshotCache(capacity=snapshot_cache_capacity, store=store)
        # Distance oracles (landmark labels over the snapshots), for graphs
        # with the oracle enabled; they survive distance-preserving update
        # batches and are rebuilt lazily after structural ones.
        self._oracles = OracleCache(capacity=oracle_cache_capacity, store=store)

    def close(self) -> None:
        """End of the engine's lifetime (idempotent; the engine stays usable).

        There is nothing to release: every worker pool lives only for the
        batch, ranking or oracle-build call that forks it.
        """

    # ------------------------------------------------------------------
    # graph management
    # ------------------------------------------------------------------
    def register_graph(self, name: str, graph: Graph, replace: bool = False) -> None:
        """Make ``graph`` queryable under ``name``."""
        if name in self._registered and not replace:
            raise EvaluationError(f"graph {name!r} already registered")
        self._registered[name] = RegisteredGraph(name, graph)
        self._cache.invalidate_graph(name, keep_pinned=False)
        self._rank_cache.invalidate_graph(name)
        self._snapshots.invalidate_graph(name)
        self._oracles.invalidate_graph(name)

    def load_graph(self, name: str) -> Graph:
        """Register a graph from the file store (if not already loaded)."""
        if name in self._registered:
            return self._registered[name].graph
        if self.store is None:
            raise EvaluationError("engine has no file store configured")
        graph = self.store.load_graph(name)
        self.register_graph(name, graph)
        return graph

    def graph(self, name: str) -> Graph:
        return self._entry(name).graph

    def graphs(self) -> list[str]:
        return sorted(self._registered)

    def _entry(self, name: str) -> RegisteredGraph:
        try:
            return self._registered[name]
        except KeyError:
            known = ", ".join(sorted(self._registered)) or "none"
            raise EvaluationError(
                f"unknown graph: {name!r} (registered: {known}; "
                "use register_graph() or load_graph() first)"
            ) from None

    # ------------------------------------------------------------------
    # compression management
    # ------------------------------------------------------------------
    def compress_graph(
        self,
        name: str,
        attrs: Sequence[str],
        method: str = "bisimulation",
        maintained: bool = True,
    ) -> CompressedGraph:
        """Build (and keep) a compressed form of a registered graph.

        ``maintained=True`` keeps the partition synchronized through
        :meth:`update_graph`; maintained compression requires the
        bisimulation method (see ``compression.maintain`` for why).
        """
        entry = self._entry(name)
        if maintained:
            if method != "bisimulation":
                raise CompressionError(
                    "maintained compression requires method='bisimulation'; "
                    "use maintained=False for simulation-equivalence compression"
                )
            entry.compression = MaintainedCompression(entry.graph, tuple(attrs))
        else:
            entry.compression = compress(entry.graph, tuple(attrs), method=method)
        compressed = entry.compressed()
        assert compressed is not None
        return compressed

    def drop_compression(self, name: str) -> None:
        self._entry(name).compression = None

    # ------------------------------------------------------------------
    # reach-index management
    # ------------------------------------------------------------------
    def enable_reach_index(self, name: str, max_depth: int = 4) -> None:
        """Cache truncated-BFS results for repeated bounded queries.

        The index is kept consistent through :meth:`update_graph`; mutate
        the graph only through the engine once enabled.
        """
        from repro.graph.reach_index import BoundedReachIndex

        entry = self._entry(name)
        entry.reach_index = BoundedReachIndex(entry.graph, max_depth=max_depth)

    def disable_reach_index(self, name: str) -> None:
        self._entry(name).reach_index = None

    def reach_index_stats(self, name: str) -> dict[str, int] | None:
        entry = self._entry(name)
        return entry.reach_index.stats() if entry.reach_index is not None else None

    # ------------------------------------------------------------------
    # distance-oracle management
    # ------------------------------------------------------------------
    def enable_oracle(
        self, name: str, cap: int | None = None, top: int | None = None
    ) -> None:
        """Serve bounded reachability by landmark label merges.

        The oracle (:class:`~repro.graph.oracle.DistanceOracle`) is built
        lazily from the graph's frozen snapshot on the first bounded
        evaluation and cached until a structural update invalidates it;
        the planner's cost model then routes selective pattern edges to
        pairwise label merges instead of ball enumeration.  ``cap`` bounds
        the exact-distance depth (None — the default — covers every bound
        including ``'*'``); ``top`` tunes the sequential landmark prefix.
        Once enabled, the oracle supersedes a
        :class:`~repro.graph.reach_index.BoundedReachIndex` as the graph's
        reach accelerator: the matcher runs the frozen kernels (with
        oracle routing) and the reach index is not consulted.
        """
        entry = self._entry(name)
        config = {"cap": cap, "top": top}
        if entry.oracle_config != config:
            entry.oracle_config = config
            # A cached instance may have been built with other parameters.
            self._oracles.invalidate_graph(name)

    def disable_oracle(self, name: str) -> None:
        """Drop the oracle config and any cached labels for ``name``."""
        self._entry(name).oracle_config = None
        self._oracles.invalidate_graph(name)

    def warm_oracle(self, name: str, workers: int | None = None) -> dict[str, Any]:
        """Build the enabled oracle now (instead of on first evaluation).

        Long-running deployments call this right after
        :meth:`enable_oracle` so the first query never pays the build;
        ``workers`` > 1 fans the phase-two label construction across the
        engine's worker pool.  Returns :meth:`oracle_stats` for the warm
        labels.  Raises :class:`EvaluationError` when the oracle is not
        enabled for ``name``.
        """
        entry = self._entry(name)
        if entry.oracle_config is None:
            raise EvaluationError(
                f"oracle not enabled for graph {name!r}; call enable_oracle() first"
            )
        self._oracle_for(entry, workers=validate_workers(workers))
        stats = self.oracle_stats(name)
        assert stats is not None
        return stats

    def oracle_stats(self, name: str) -> dict[str, Any] | None:
        """Build/label/query counters of the cached oracle, or None.

        ``None`` means the oracle is disabled; an enabled-but-cold oracle
        reports ``{"state": "cold"}`` plus its configured parameters.
        """
        entry = self._entry(name)
        if entry.oracle_config is None:
            return None
        cached = self._oracles.peek(name)  # repro-lint: disable=cache-version-guard -- read-only introspection; the next line compares graph_version explicitly and a stale entry must survive for refresh_version
        if cached is None or cached.graph_version != entry.graph.version:
            return {"state": "cold", **entry.oracle_config}
        stats = cached.oracle.stats()
        stats["state"] = "warm"
        return stats

    def _oracle_for(
        self, entry: RegisteredGraph, workers: int = 1
    ) -> DistanceOracle | None:
        """The cached oracle for a graph's current version (or build it)."""
        if entry.oracle_config is None:
            return None
        oracle = self._oracles.get(
            entry.name, entry.graph.version, config=entry.oracle_config
        )
        if oracle is None:
            frozen = self._frozen_snapshot(entry)
            if workers > 1:
                oracle = ParallelExecutor(workers).build_oracle(
                    frozen,
                    cap=entry.oracle_config["cap"],
                    top=entry.oracle_config["top"],
                )
            else:
                oracle = DistanceOracle.build(
                    frozen,
                    cap=entry.oracle_config["cap"],
                    top=entry.oracle_config["top"],
                )
            self._oracles.put(entry.name, oracle, entry.graph.version)
        return oracle

    # ------------------------------------------------------------------
    # attribute-index management
    # ------------------------------------------------------------------
    def enable_attr_index(self, name: str) -> None:
        """(Re)attach the attribute index (on by default; builds lazily)."""
        entry = self._entry(name)
        if entry.attr_index is None:
            entry.attr_index = AttributeIndex(entry.graph)

    def disable_attr_index(self, name: str) -> None:
        """Drop the attribute index; candidate generation falls back to scans."""
        self._entry(name).attr_index = None

    def attr_index_stats(self, name: str) -> dict[str, int] | None:
        entry = self._entry(name)
        return entry.attr_index.stats() if entry.attr_index is not None else None

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def explain(
        self, name: str, pattern: Pattern, budget: QueryBudget | None = None
    ) -> Plan:
        """The plan :meth:`evaluate` would follow right now (no matching).

        Direct-route plans also report the frozen-snapshot and
        distance-oracle state, and — for bounded patterns on graphs with
        the oracle *enabled* — the per-edge kernel routing: which pattern
        edges the cost model sends to oracle-pairwise label merges,
        per-source BFS enumeration, or the bitset traversal, with the
        losing estimates alongside.  Kernel routing needs candidate
        cardinalities, so that one case runs the same (indexed) candidate
        generation evaluation would; with the oracle disabled, explain
        stays pure metadata and no graph work happens.

        With a ``budget``, direct bounded plans additionally run the
        sampling estimator over the frozen snapshot and report the
        per-edge frontier estimates next to the configured limits — what
        guarded evaluation would route from, and roughly how much of the
        budget the query looks set to spend.
        """
        entry = self._entry(name)
        key = cache_key(name, pattern)
        plan = self._plan_query(
            pattern,
            cached=self._cache.fresh(key, entry.graph.version),
            available=entry.compressed(),
        )
        if plan.route == ROUTE_DIRECT:
            if not self._snapshot_serves(entry, plan):
                # The reach index serves the bounded matcher's BFS runs,
                # so no snapshot is involved there.
                note = "frozen snapshot: bypassed (reach index serves bounded BFS)"
            else:
                snapshot = self._snapshots.peek(name)  # repro-lint: disable=cache-version-guard -- explain() must not drop or fault in snapshots; version is compared explicitly below
                if (
                    snapshot is not None
                    and snapshot.graph_version == entry.graph.version
                ):
                    note = (
                        "frozen snapshot: warm "
                        f"(graph version {snapshot.graph_version})"
                    )
                else:
                    note = "frozen snapshot: cold (built on first direct evaluation)"
            notes = [note]
            edge_routes: tuple = ()
            if plan.algorithm == ALGORITHM_BOUNDED and pattern.num_edges:
                oracle_note, edge_routes = self._explain_kernels(entry, pattern)
                if oracle_note:
                    notes.append(oracle_note)
            if budget is not None and plan.algorithm == ALGORITHM_BOUNDED:
                budget.validate()
                notes.extend(self._explain_budget(entry, pattern, budget))
            plan = Plan(
                plan.route,
                plan.algorithm,
                plan.reasons + tuple(notes),
                edge_routes,
            )
        return plan

    def _explain_budget(
        self, entry: RegisteredGraph, pattern: Pattern, budget: QueryBudget
    ) -> list[str]:
        """Sampled cardinality estimates vs the configured limits."""
        from repro.matching.simulation import simulation_candidates

        visits = "unlimited" if budget.node_visits is None else str(budget.node_visits)
        seconds = "unlimited" if budget.seconds is None else f"{budget.seconds:g}s"
        lines = [
            f"budget: {visits} node visits, {seconds} wall clock "
            f"({'partial results allowed' if budget.allow_partial else 'hard failure on breach'})"
        ]
        if pattern.num_edges:
            frozen = self._frozen_snapshot(entry)
            ids = frozen.ids()
            candidates = simulation_candidates(
                entry.graph, pattern, index=entry.attr_index
            )
            candidate_ids = {
                u: frozenset(ids[v] for v in vs) for u, vs in candidates.items()
            }
            estimate = estimate_pattern(frozen, pattern, candidate_ids)
            lines.extend(f"estimate: {line}" for line in estimate.describe_lines())
        return lines

    def _explain_kernels(
        self, entry: RegisteredGraph, pattern: Pattern
    ) -> tuple[str, tuple]:
        """Oracle-state note plus per-edge kernel routes for ``explain``.

        Routing uses the cached oracle's measured label profile when one
        is warm; a cold oracle routes every edge to the enumeration
        kernels, and the note says why.  With the oracle *disabled* no
        routes are computed at all — routing needs candidate
        cardinalities, and explain must not pay candidate generation for
        graphs that never opted into the oracle.
        """
        from repro.matching.bounded import FROZEN_BULK_DEPTH
        from repro.matching.simulation import simulation_candidates

        if entry.oracle_config is None:
            note = "distance oracle: disabled (enable_oracle() routes selective edges)"
            return note, ()
        cached = self._oracles.peek(entry.name)  # repro-lint: disable=cache-version-guard -- explain() reports warm/cold without side effects; version is compared explicitly on the next line
        if cached is not None and cached.graph_version == entry.graph.version:
            note = "distance oracle: warm"
            profile = cached.oracle.profile()
        else:
            note = (
                "distance oracle: cold (labels build on the first bounded "
                "evaluation; edges route to enumeration until then)"
            )
            profile = None
        candidates = simulation_candidates(
            entry.graph, pattern, index=entry.attr_index
        )
        num_nodes = entry.graph.num_nodes
        num_edges = entry.graph.num_edges
        routes = []
        for source, target, bound in pattern.edges():
            routes.append(
                route_edge(
                    (source, target),
                    bound,
                    len(candidates[source]),
                    len(candidates[target]),
                    num_nodes,
                    num_edges,
                    # kernel_costs owns the cap-coverage gate: an uncovered
                    # bound simply gets no oracle estimate.
                    profile,
                    bulk_depth=FROZEN_BULK_DEPTH,
                )
            )
        return note, tuple(routes)

    @staticmethod
    def _snapshot_serves(entry: RegisteredGraph, plan: Plan) -> bool:
        """Whether the sequential direct route would use a frozen snapshot.

        The one predicate :meth:`explain` and :meth:`_dispatch_route`
        share: with a reach index attached, the bounded matcher serves its
        BFS runs from that cache and ignores a snapshot, so freezing one
        would be pure waste.  An enabled distance oracle outranks the
        reach index — its labels live on the snapshot's ids, so the frozen
        kernels (with oracle routing) run instead.  (Batch farming with
        ``workers > 1`` always snapshots — worker processes have no reach
        index.)
        """
        return (
            entry.reach_index is None
            or entry.oracle_config is not None
            or plan.algorithm == ALGORITHM_SIMULATION
        )

    def _frozen_snapshot(self, entry: RegisteredGraph) -> FrozenGraph:
        """The cached CSR snapshot for a graph's current version (or build it)."""
        frozen = self._snapshots.get(entry.name, entry.graph.version)
        if frozen is None:
            frozen = FrozenGraph.freeze(entry.graph)
            self._snapshots.put(entry.name, frozen, entry.graph.version)
        return frozen

    @staticmethod
    def _plan_query(
        pattern: Pattern,
        cached: bool,
        available: CompressedGraph | None,
        use_cache: bool = True,
        use_compression: bool = True,
    ) -> Plan:
        """The one :func:`make_plan` call site shared by every evaluate path.

        ``available`` is the single compression snapshot: it drives both
        availability and compatibility, so the plan can never describe two
        different compressed graphs.
        """
        return make_plan(
            pattern,
            cached=cached,
            compression_available=available is not None,
            compression_compatible=(
                available.is_compatible(pattern) if available is not None else False
            ),
            use_cache=use_cache,
            use_compression=use_compression,
        )

    @staticmethod
    def _stamp_stats(
        result: MatchResult,
        route: str,
        plan: Plan,
        name: str,
        entry: RegisteredGraph,
        seconds: float,
        batch: dict[str, Any] | None = None,
    ) -> None:
        stats: dict[str, Any] = {
            "route": route,
            "algorithm": plan.algorithm,
            "seconds": seconds,
            "plan": plan,
            "graph": name,
            "graph_version": entry.version,
        }
        if batch is not None:
            stats["batch"] = batch
        result.stats.update(stats)

    def evaluate(
        self,
        name: str,
        pattern: Pattern,
        use_cache: bool = True,
        use_compression: bool = True,
        cache_result: bool = True,
        budget: QueryBudget | None = None,
    ) -> MatchResult:
        """Evaluate a pattern query following the §II route order.

        A ``budget`` (:class:`~repro.engine.estimator.QueryBudget`) guards
        direct bounded evaluation — the one route/algorithm combination
        that can run away (cache and compressed routes are cheap by
        construction; the quadratic simulation matcher is not guarded).  A
        blown budget raises :class:`~repro.errors.BudgetExceededError`, or
        with ``allow_partial=True`` returns a sound subset of the exact
        answer flagged ``stats["partial"] = True``.  Partial results are
        never cached.
        """
        pattern.validate()
        if budget is not None:
            budget.validate()
        entry = self._entry(name)
        watch = Stopwatch()
        key = cache_key(name, pattern)
        cached_entry: CacheEntry | None = (
            self._cache.get(key, entry.graph.version) if use_cache else None
        )
        available = entry.compressed()
        compressed = available if use_compression else None
        plan = self._plan_query(
            pattern,
            cached=cached_entry is not None,
            available=available,
            use_cache=use_cache,
            use_compression=use_compression,
        )

        result = self._dispatch_route(
            entry,
            pattern,
            plan,
            cached_relation=(
                cached_entry.relation if cached_entry is not None else None
            ),
            compressed=compressed,
            budget=(
                budget
                if plan.route == ROUTE_DIRECT
                and plan.algorithm != ALGORITHM_SIMULATION
                else None
            ),
        )

        self._stamp_stats(result, plan.route, plan, name, entry, watch.seconds())
        # A partial result is an artefact of this call's budget, not the
        # query's answer — caching it would serve an under-approximation
        # to unbudgeted callers.
        if (
            cache_result
            and plan.route != ROUTE_CACHE
            and not result.stats.get("partial")
        ):
            self._cache.put(key, result.relation, entry.graph.version)
        return result

    def evaluate_many(
        self,
        name: str,
        patterns: Sequence[Pattern],
        use_cache: bool = True,
        use_compression: bool = True,
        cache_result: bool = True,
        workers: int | None = None,
        budget: QueryBudget | None = None,
    ) -> list[MatchResult]:
        """Evaluate a batch of pattern queries, amortising shared work.

        A ``budget`` applies *per query* (fresh limits for each bounded
        direct-route pattern, sequentially and in pool workers alike);
        partial results are neither cached nor reused for identical
        queries later in the batch.

        All queries are planned up front; every *direct-route* query then
        draws its candidate sets from one shared pool computed once per
        distinct predicate (indexed where possible, a single scan for the
        rest) instead of each query re-scanning the graph.  Cache and
        compressed routes behave exactly as in :meth:`evaluate`, and a
        query repeated inside the batch reuses the relation computed
        earlier in the same call.  Returns one :class:`MatchResult` per
        pattern, in input order.

        ``workers`` > 1 parallelises the batch: each distinct direct-route
        query becomes one worker-pool task (with its shared candidate
        sets precomputed here), so many small queries run concurrently;
        a batch with one direct-route query runs it inline.  Farmed
        results carry no refinement state (relations cross a process
        boundary); deriving a result graph from them recomputes witnesses
        on demand.

        >>> from repro.datasets.paper_example import paper_graph, paper_pattern
        >>> engine = QueryEngine()
        >>> engine.register_graph("fig1", paper_graph())
        >>> results = engine.evaluate_many("fig1", [paper_pattern(), paper_pattern()])
        >>> [sorted(r.relation.matches_of("SA")) for r in results]
        [['Bob', 'Walt'], ['Bob', 'Walt']]
        """
        entry = self._entry(name)
        patterns = list(patterns)
        for pattern in patterns:
            pattern.validate()
        workers = validate_workers(workers)
        if budget is not None:
            budget.validate()
        watch = Stopwatch()
        available = entry.compressed()
        compressed = available if use_compression else None

        planned: list[tuple[Pattern, tuple, Plan, CacheEntry | None]] = []
        direct_predicates: dict[tuple, Any] = {}
        for pattern in patterns:
            key = cache_key(name, pattern)
            cached_entry = (
                self._cache.get(key, entry.graph.version) if use_cache else None
            )
            plan = self._plan_query(
                pattern,
                cached=cached_entry is not None,
                available=available,
                use_cache=use_cache,
                use_compression=use_compression,
            )
            planned.append((pattern, key, plan, cached_entry))
            if plan.route == ROUTE_DIRECT:
                for pattern_node in pattern.nodes():
                    predicate = pattern.predicate(pattern_node)
                    direct_predicates.setdefault(predicate_key(predicate), predicate)

        shared = (
            batch_candidates(
                entry.graph, direct_predicates.values(), index=entry.attr_index
            )
            if direct_predicates
            else {}
        )

        def shared_candidates(pattern: Pattern) -> dict[str, set[NodeId]]:
            # The shared sets are handed over as-is: neither matcher
            # mutates its `candidates` argument (refine_simulation and
            # BoundedState both copy internally).
            return {
                u: shared[predicate_key(pattern.predicate(u))]
                for u in pattern.nodes()
            }

        # Per-batch parallelism: each distinct direct-route query becomes
        # one pool task carrying its precomputed candidate sets; cache and
        # compressed routes stay in this process.
        farmed: dict[tuple, tuple[MatchRelation, dict[str, Any]]] = {}
        if workers > 1:
            task_keys: list[tuple] = []
            tasks: list[tuple[Pattern, dict[str, tuple]]] = []
            seen_keys: set[tuple] = set()
            for pattern, key, plan, _cached_entry in planned:
                if plan.route == ROUTE_DIRECT and key not in seen_keys:
                    seen_keys.add(key)
                    task_keys.append(key)
                    tasks.append(
                        (
                            pattern,
                            {
                                u: predicate_key(pattern.predicate(u))
                                for u in pattern.nodes()
                            },
                        )
                    )
            # A lone direct-route query runs inline below, like a sequential
            # batch: it keeps its refinement state and the reach index.
            if len(tasks) > 1:
                bounded_tasks = any(
                    not task_pattern.is_simulation_pattern
                    for task_pattern, _keys in tasks
                )
                outcomes = ParallelExecutor(workers).match_many(
                    entry.graph,
                    tasks,
                    shared,
                    frozen=self._frozen_snapshot(entry),
                    oracle=(
                        self._oracle_for(entry, workers=workers)
                        if bounded_tasks
                        else None
                    ),
                    budget=budget,
                )
                farmed = dict(zip(task_keys, outcomes))

        results: list[MatchResult] = []
        fresh: dict[tuple, MatchRelation] = {}
        # One dict shared by every result; seconds_total is stamped once the
        # whole batch has run (per-result stamping would under-report it).
        batch_info: dict[str, Any] = {
            "size": len(patterns),
            "distinct_predicates": len(direct_predicates),
            "workers": workers,
        }
        for pattern, key, plan, cached_entry in planned:
            query_watch = Stopwatch()
            route = plan.route
            if route != ROUTE_CACHE and key in fresh:
                # An identical query appeared earlier in this batch; reuse
                # its relation and stamp a plan that says so (the original
                # plan's route was never executed for this query).
                result = MatchResult(entry.graph, pattern, fresh[key])
                route = ROUTE_CACHE
                plan = Plan(
                    ROUTE_CACHE,
                    plan.algorithm,
                    ("identical query already evaluated earlier in this batch",),
                )
            elif route == ROUTE_DIRECT and key in farmed:
                relation, worker_stats = farmed[key]
                result = MatchResult(
                    entry.graph, pattern, relation, stats=dict(worker_stats)
                )
            else:
                candidates = (
                    shared_candidates(pattern) if route == ROUTE_DIRECT else None
                )
                result = self._dispatch_route(
                    entry,
                    pattern,
                    plan,
                    cached_relation=(
                        cached_entry.relation if cached_entry is not None else None
                    ),
                    compressed=compressed,
                    candidates=candidates,
                    budget=(
                        budget
                        if route == ROUTE_DIRECT
                        and plan.algorithm != ALGORITHM_SIMULATION
                        else None
                    ),
                )
            self._stamp_stats(
                result,
                route,
                plan,
                name,
                entry,
                # Parent-side wall time is meaningless for a query that ran
                # in a pool worker; keep the worker-measured seconds there.
                result.stats.get("seconds", query_watch.seconds())
                if key in farmed
                else query_watch.seconds(),
                batch=batch_info,
            )
            if route != ROUTE_CACHE and not result.stats.get("partial"):
                fresh[key] = result.relation
                if cache_result:
                    self._cache.put(key, result.relation, entry.graph.version)
            results.append(result)
        batch_info["seconds_total"] = watch.seconds()
        return results

    def _dispatch_route(
        self,
        entry: RegisteredGraph,
        pattern: Pattern,
        plan: Plan,
        cached_relation: MatchRelation | None,
        compressed: CompressedGraph | None,
        candidates: dict[str, set[NodeId]] | None = None,
        budget: QueryBudget | None = None,
    ) -> MatchResult:
        """Execute a plan's route — the one dispatch both evaluate paths use."""
        if plan.route == ROUTE_CACHE:
            assert cached_relation is not None
            return MatchResult(entry.graph, pattern, cached_relation)
        if plan.route == ROUTE_COMPRESSED:
            # Quotient graphs are small by construction; freezing them
            # would cost more bookkeeping than the matcher saves.
            assert compressed is not None
            quotient_result = self._run_matcher(compressed.quotient, pattern, plan)
            return decompress_result(quotient_result, compressed)
        bounded = plan.algorithm != ALGORITHM_SIMULATION
        oracle = self._oracle_for(entry) if bounded else None
        return self._run_matcher(
            entry.graph,
            pattern,
            plan,
            # An enabled oracle supersedes the reach index as the reach
            # accelerator: the matcher runs the frozen kernels instead.
            reach_index=entry.reach_index if oracle is None else None,
            index=None if candidates is not None else entry.attr_index,
            candidates=candidates,
            frozen=(
                self._frozen_snapshot(entry)
                if self._snapshot_serves(entry, plan)
                else None
            ),
            oracle=oracle,
            budget=budget,
        )

    @staticmethod
    def _run_matcher(
        graph: Graph,
        pattern: Pattern,
        plan: Plan,
        reach_index: Any = None,
        index: AttributeIndex | None = None,
        candidates: dict[str, set[NodeId]] | None = None,
        frozen: FrozenGraph | None = None,
        oracle: DistanceOracle | None = None,
        budget: QueryBudget | None = None,
    ) -> MatchResult:
        if plan.algorithm == ALGORITHM_SIMULATION:
            return match_simulation(
                graph, pattern, index=index, candidates=candidates, frozen=frozen
            )
        return match_bounded(
            graph,
            pattern,
            reach_index=reach_index,
            index=index,
            candidates=candidates,
            frozen=frozen,
            oracle=oracle,
            budget=budget,
        )

    # ------------------------------------------------------------------
    # ranking
    # ------------------------------------------------------------------
    def top_k(
        self,
        name: str,
        pattern: Pattern,
        k: int,
        metric: str | RankingMetric = "social-impact",
        workers: int | None = None,
        use_rank_cache: bool = True,
        **evaluate_kwargs: Any,
    ) -> list[RankedMatch] | list[tuple[NodeId, float]]:
        """The K best experts for the pattern's output node.

        With the default paper metric the result is a list of rich
        :class:`RankedMatch` objects; other metrics return ``(node, score)``
        pairs (scores normalized lower-is-better).

        Evaluation follows the usual route order, then ranking runs
        through a bulk :class:`~repro.ranking.topk.RankingContext`: one
        result-graph snapshot, memoized distance work shared across
        metrics and calls, lazy full scoring behind cheap admissible
        bounds, and — with ``workers`` > 1 — per-match scoring fanned out
        through the engine's :class:`ParallelExecutor` (output identical
        to sequential).  Contexts are cached per ``(graph, pattern)`` and
        invalidated by ``Graph.version``; for *pinned* queries
        :meth:`update_graph` re-ranks only the matches an update touched.
        ``k`` must be a positive integer for every metric.
        """
        validate_k(k)
        pattern.validate(require_output=True)
        chosen = get_metric(metric) if isinstance(metric, str) else metric
        workers = validate_workers(workers)
        context = self._ranking_context(
            name, pattern, use_rank_cache=use_rank_cache, **evaluate_kwargs
        )
        score_many = ParallelExecutor(workers).rank_many if workers > 1 else None
        if isinstance(metric, str) and metric == "social-impact":
            return bulk_top_k_detail(context, k, score_many=score_many)
        return bulk_top_k_scores(context, k, chosen, score_many=score_many)

    def _ranking_context(
        self,
        name: str,
        pattern: Pattern,
        use_rank_cache: bool = True,
        **evaluate_kwargs: Any,
    ) -> RankingContext:
        """The (possibly cached) bulk-ranking context for one query."""
        entry = self._entry(name)
        key = cache_key(name, pattern)
        if use_rank_cache:
            cached = self._rank_cache.get(key, entry.graph.version)
            if cached is not None:
                return cached.context
        result = self.evaluate(name, pattern, **evaluate_kwargs)
        context = RankingContext(result.result_graph())
        # A guarded evaluation that tripped produced a partial relation;
        # rankings over it are valid for this call but must not be served
        # to later (possibly unbudgeted) top_k calls.
        if use_rank_cache and not result.stats.get("partial"):
            self._rank_cache.put(key, context, entry.graph.version)
        return context

    # ------------------------------------------------------------------
    # updates + pinned queries
    # ------------------------------------------------------------------
    def pin(self, name: str, pattern: Pattern) -> None:
        """Cache a query and keep its result maintained across updates."""
        pattern.validate()
        entry = self._entry(name)
        key = cache_key(name, pattern)
        existing = self._cache.get(key, entry.graph.version)
        if existing is not None and existing.pinned:
            return
        if pattern.is_simulation_pattern:
            maintainer: Any = IncrementalSimulation(
                entry.graph, pattern, index=entry.attr_index
            )
        else:
            maintainer = IncrementalBoundedSimulation(
                entry.graph, pattern, index=entry.attr_index
            )
        self._cache.put(
            key,
            maintainer.relation(),
            entry.graph.version,
            pinned=True,
            maintainer=maintainer,
        )

    def unpin(self, name: str, pattern: Pattern) -> None:
        self._cache.unpin(cache_key(name, pattern))

    def update_graph(self, name: str, updates: Sequence[Update]) -> dict[str, Any]:
        """Apply edge updates; maintain pinned queries and compression.

        Returns a summary: per pinned query the ``ΔM`` (added/removed
        pairs), plus bookkeeping counters.
        """
        entry = self._entry(name)
        pinned = self._cache.pinned_entries(name)
        before = {key: cache_entry.relation for key, cache_entry in pinned}

        oracle_survives = True
        for update in updates:
            # Node deletions are decomposed into their incident edge
            # deletions plus a bare node removal, so every maintainer sees
            # a primitive sequence it can follow without pre-images.
            for primitive in decompose(entry.graph, update):
                oracle_survives = oracle_survives and DistanceOracle.survives(
                    primitive
                )
                prior_version = entry.graph.version
                primitive.apply(entry.graph)
                for _key, cache_entry in pinned:
                    cache_entry.maintainer.apply(primitive, apply_to_graph=False)
                if isinstance(entry.compression, MaintainedCompression):
                    entry.compression.apply(primitive, apply_to_graph=False)
                if entry.reach_index is not None:
                    entry.reach_index.on_update(primitive)
                if entry.attr_index is not None:
                    entry.attr_index.on_update(primitive, prior_version=prior_version)
        if entry.compression is not None and not isinstance(
            entry.compression, MaintainedCompression
        ):
            # A static compressed graph is stale after any update.
            entry.compression = None

        deltas: dict[tuple, dict[str, Any]] = {}
        for key, cache_entry in pinned:
            fresh = cache_entry.maintainer.relation()
            added, removed = before[key].diff(fresh)
            cache_entry.relation = fresh
            cache_entry.graph_version = entry.graph.version
            deltas[key[1]] = {"added": added, "removed": removed}
        rank_maintenance, refreshed_keys = self._refresh_pinned_rankings(entry, pinned)
        # Contexts of non-pinned queries are stale now; drop them eagerly
        # (version checks would catch them lazily, but the snapshots are
        # the heaviest thing the engine caches).  The frozen CSR snapshot
        # is version-stale too — drop it so the memory is released before
        # the next direct evaluation re-freezes.
        self._rank_cache.invalidate_graph(name, keep=refreshed_keys)
        self._snapshots.invalidate_graph(name)
        # Oracle labels are shortest-path distances: a batch of purely
        # distance-preserving primitives (attribute writes, bare node
        # insertions) leaves them exact, so the entry's validity advances
        # in place instead of paying a rebuild.  Anything structural drops
        # the labels; the next bounded evaluation rebuilds lazily.
        if oracle_survives:
            self._oracles.refresh_version(name, entry.graph.version)
        else:
            self._oracles.invalidate_graph(name)
        invalidated = self._cache.invalidate_graph(name, keep_pinned=True)
        entry.version += 1
        return {
            "applied": len(updates),
            "graph_version": entry.version,
            "invalidated_cache_entries": invalidated,
            "pinned_deltas": deltas,
            "rank_maintenance": rank_maintenance,
        }

    def _refresh_pinned_rankings(
        self,
        entry: RegisteredGraph,
        pinned: Sequence[tuple[tuple, CacheEntry]],
    ) -> tuple[dict[tuple, dict[str, int]], set[tuple]]:
        """Re-rank only the matches an update batch actually touched.

        For every pinned query whose ranking context is cached, the result
        graph is rebuilt from the maintained relation (reusing the bounded
        maintainer's refinement state for witness edges), the old and new
        snapshots are diffed, and every memoized detail whose impact set is
        disjoint from the changed nodes is carried over untouched — same
        object, no Dijkstra.  Touched matches that were ranked before are
        eagerly re-scored so the refreshed entry is as warm as the old one.
        Returns per-query ``{reused, rescored, changed_nodes}`` counters and
        the set of refreshed cache keys.
        """
        summary: dict[tuple, dict[str, int]] = {}
        refreshed: set[tuple] = set()
        for key, cache_entry in pinned:
            rank_entry = self._rank_cache.peek(key)  # repro-lint: disable=cache-version-guard -- mid-update refresh: the entry is stale by definition here and is rescored then re-stamped with the new version
            if rank_entry is None:
                continue
            maintainer = cache_entry.maintainer
            state = getattr(maintainer, "state", None)
            result_graph = build_result_graph(
                entry.graph, maintainer.pattern, cache_entry.relation, state=state
            )
            old = rank_entry.context
            fresh_context = RankingContext(result_graph)
            changed = fresh_context.diff_nodes(old)
            reused = fresh_context.carry_over_from(old, changed)
            rescored = 0
            for node in old._details:
                if node in fresh_context.matched_by and node not in fresh_context._details:
                    fresh_context.detail(node)
                    rescored += 1
            rank_entry.context = fresh_context
            rank_entry.graph_version = entry.graph.version
            refreshed.add(key)
            summary[key[1]] = {
                "reused": reused,
                "rescored": rescored,
                "changed_nodes": len(changed),
            }
        return summary, refreshed

    def rank_cache_stats(self) -> dict[str, int]:
        """Counters of the ranked-result cache (see :meth:`cache_stats`)."""
        return self._rank_cache.stats()

    def snapshot_stats(self) -> dict[str, int]:
        """Counters of the frozen-snapshot cache (builds, hits, stale drops)."""
        return self._snapshots.stats()

    def oracle_cache_stats(self) -> dict[str, int]:
        """Counters of the distance-oracle cache (builds, refreshes, drops)."""
        return self._oracles.stats()

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def cache_stats(self) -> dict[str, Any]:
        """Query-cache counters, plus the snapshot and oracle caches' under
        ``"snapshots"`` / ``"oracles"``."""
        stats: dict[str, Any] = self._cache.stats()
        stats["snapshots"] = self._snapshots.stats()
        stats["oracles"] = self._oracles.stats()
        return stats

    def stats(self) -> dict[str, Any]:
        """Every cache subsystem's counters in one JSON-friendly dict.

        The one-stop aggregate the ``expfinder stats`` subcommand and the
        query service's ``/stats`` endpoint surface: query/rank/snapshot/
        oracle cache counters plus the registered graph inventory.
        """
        return {
            "graphs": {
                name: {
                    "nodes": entry.graph.num_nodes,
                    "edges": entry.graph.num_edges,
                    "version": entry.graph.version,
                    "oracle": entry.oracle_config is not None,
                }
                for name, entry in sorted(self._registered.items())
            },
            "cache": self._cache.stats(),
            "rank_cache": self._rank_cache.stats(),
            "snapshots": self._snapshots.stats(),
            "oracles": self._oracles.stats(),
        }

    def persist_graph(self, name: str) -> None:
        """Write a registered graph to the file store."""
        if self.store is None:
            raise EvaluationError("engine has no file store configured")
        self.store.save_graph(name, self._entry(name).graph)

    def persist_snapshot(
        self,
        name: str,
        include_oracle: bool = False,
        workers: int | None = None,
    ) -> dict[str, Any]:
        """Persist a graph's frozen snapshot (and optionally its oracle).

        Freezes the graph's current version if no warm snapshot exists,
        writes the binary snapshot file into the store's catalogue, and —
        with ``include_oracle=True`` (requires :meth:`enable_oracle`
        first; ``workers`` fans out the build) — the oracle labeling too.
        A later engine pointed at the same store faults both back in via
        ``mmap`` instead of rebuilding, as long as the registered graph is
        at the same version.  Returns ``{"snapshot": path}`` plus
        ``{"oracle": path}`` when included.
        """
        if self.store is None:
            raise EvaluationError("engine has no file store configured")
        entry = self._entry(name)
        paths: dict[str, Any] = {
            "snapshot": self.store.save_snapshot(
                name, self._frozen_snapshot(entry)
            )
        }
        if include_oracle:
            oracle = self._oracle_for(entry, workers=validate_workers(workers))
            if oracle is None:
                raise EvaluationError(
                    f"oracle not enabled for graph {name!r}; call enable_oracle() first"
                )
            paths["oracle"] = self.store.save_oracle(name, oracle)
        return paths

    def __repr__(self) -> str:
        return f"<QueryEngine graphs={self.graphs()}>"
