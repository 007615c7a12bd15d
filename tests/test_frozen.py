"""The frozen-snapshot layer: round trips, kernels, caching, differentials.

Three layers of guarantees:

* :class:`~repro.graph.frozen.FrozenGraph` is a faithful snapshot —
  structure, order, attributes and the ``to_graph()`` round trip (seeded
  and property-based);
* every frozen kernel — bounded BFS, multi-source ball covers, both
  matchers' refinement, ball decomposition, the ranking Dijkstras —
  produces results identical to the dict-backed path it replaces (seeded
  differential sweeps reusing the shapes of ``tests/test_differential.py``);
* the engine's ``SnapshotCache`` serves warm snapshots, detects stale ones
  via ``Graph.version``, and every stale-snapshot misuse fails loudly.
"""

from __future__ import annotations

import pickle
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.engine.cache import SnapshotCache
from repro.engine.engine import QueryEngine
from repro.engine.parallel import ParallelExecutor
from repro.errors import CacheError, EvaluationError, GraphError
from repro.graph.digraph import Graph
from repro.graph.distance import (
    bounded_ancestors,
    bounded_descendants,
    distance,
    eccentricity_within,
    weighted_distances,
    within_bound,
)
from repro.graph.frozen import FrozenGraph
from repro.graph.generators import random_digraph
from repro.matching.bounded import frozen_successor_rows, match_bounded
from repro.graph.index import predicate_key
from repro.matching.simulation import match_simulation, simulation_candidates
from repro.pattern.builder import PatternBuilder
from repro.ranking.topk import RankingContext
from tests.test_differential import random_case


# ----------------------------------------------------------------------
# snapshot structure + round trip
# ----------------------------------------------------------------------

class TestFrozenGraph:
    def test_structure_mirrors_graph(self, fig1):
        frozen = FrozenGraph.freeze(fig1)
        assert frozen.num_nodes == fig1.num_nodes
        assert frozen.num_edges == fig1.num_edges
        assert frozen.size == fig1.size
        assert len(frozen) == len(fig1)
        assert list(frozen.nodes()) == list(fig1.nodes())
        assert list(frozen.edges()) == list(fig1.edges())
        for node in fig1.nodes():
            assert node in frozen
            assert list(frozen.successors(node)) == list(fig1.successors(node))
            assert list(frozen.predecessors(node)) == list(fig1.predecessors(node))
            assert frozen.out_degree(node) == fig1.out_degree(node)
            assert frozen.in_degree(node) == fig1.in_degree(node)
            assert frozen.node_attrs(node) == fig1.attrs(node)
        assert frozen.has_edge("Bob", "Dan") == fig1.has_edge("Bob", "Dan")
        assert frozen.source_version == fig1.version

    def test_unknown_node_raises(self, fig1):
        frozen = FrozenGraph.freeze(fig1)
        with pytest.raises(GraphError, match="unknown node"):
            frozen.id_of("nobody")
        with pytest.raises(GraphError, match="unknown node"):
            list(frozen.successors("nobody"))
        assert not frozen.has_node("nobody")

    @pytest.mark.parametrize("seed", range(6))
    def test_round_trip_random(self, seed):
        graph = random_digraph(30, 90, seed=seed)
        assert FrozenGraph.freeze(graph).to_graph() == graph

    def test_round_trip_preserves_value_types(self):
        graph = Graph(name="typed")
        graph.add_node("a", x=1)
        graph.add_node("b", x=True)
        graph.add_node("c", x=1.0)
        graph.add_node("d", x=[1, 2])  # unhashable: stored un-deduped
        rebuilt = FrozenGraph.freeze(graph).to_graph()
        assert rebuilt == graph
        assert type(rebuilt.get("a", "x")) is int
        assert type(rebuilt.get("b", "x")) is bool
        assert type(rebuilt.get("c", "x")) is float
        assert rebuilt.get("d", "x") == [1, 2]

    def test_attribute_values_are_interned(self):
        graph = Graph()
        for index in range(100):
            graph.add_node(index, field="SA", level="senior")
        frozen = FrozenGraph.freeze(graph)
        assert len(frozen._values) == 2  # one "SA", one "senior"

    def test_pickle_round_trip_drops_derived_views(self, fig1):
        frozen = FrozenGraph.freeze(fig1)
        frozen.successor_sets()  # force the derived views
        frozen.predecessor_sets()
        clone = pickle.loads(pickle.dumps(frozen))
        assert clone._succ_sets is None and clone._ids is None
        assert clone.to_graph() == fig1
        assert clone.successor_sets() == frozen.successor_sets()

    def test_matches_tracks_graph_version(self, fig1):
        frozen = FrozenGraph.freeze(fig1)
        assert frozen.matches(fig1)
        fig1.set("Bob", "experience", 9)
        assert not frozen.matches(fig1)

    def test_matches_rejects_a_different_graph(self):
        """Coinciding version/size must not pass a foreign snapshot."""
        first = Graph.from_edges([("a", "b")])
        second = Graph.from_edges([("x", "y")])
        assert first.version == second.version  # same build history shape
        assert not FrozenGraph.freeze(first).matches(second)
        assert FrozenGraph.freeze(second).matches(second)
        assert FrozenGraph.freeze(Graph()).matches(Graph())  # empty graphs

    def test_without_attrs_shares_buffers(self, fig1):
        frozen = FrozenGraph.freeze(fig1)
        bare = frozen.without_attrs()
        assert bare.out_targets is frozen.out_targets  # O(1), no copies
        assert bare.labels is frozen.labels
        assert bare.node_attrs("Bob") == {}
        assert bare.matches(fig1)
        assert bare.without_attrs() is bare  # already bare: same object
        assert len(pickle.dumps(bare)) < len(pickle.dumps(frozen))


@st.composite
def attributed_graphs(draw):
    """Random digraphs with mixed-type attributes, for round-trip hunting."""
    num_nodes = draw(st.integers(min_value=0, max_value=12))
    graph = Graph(name="prop")
    values = st.one_of(
        st.integers(-3, 3), st.booleans(), st.text(max_size=3), st.none()
    )
    for index in range(num_nodes):
        attrs = draw(
            st.dictionaries(st.sampled_from(["a", "b", "c"]), values, max_size=3)
        )
        graph.add_node(index, **attrs)
    if num_nodes:
        pairs = st.tuples(
            st.integers(0, num_nodes - 1), st.integers(0, num_nodes - 1)
        )
        for source, target in draw(st.lists(pairs, max_size=3 * num_nodes)):
            if not graph.has_edge(source, target):
                graph.add_edge(source, target)
    return graph


@settings(max_examples=120, deadline=None)
@given(attributed_graphs())
def test_freeze_to_graph_round_trip_property(graph):
    """``FrozenGraph.freeze(g).to_graph() == g`` for arbitrary graphs."""
    frozen = FrozenGraph.freeze(graph)
    rebuilt = frozen.to_graph()
    assert rebuilt == graph
    assert list(rebuilt.nodes()) == list(graph.nodes())
    assert list(rebuilt.edges()) == list(graph.edges())


# ----------------------------------------------------------------------
# distance kernels
# ----------------------------------------------------------------------

class TestFrozenDistance:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("bound", [0, 1, 2, 3, None])
    def test_bounded_search_matches_dict_path(self, seed, bound):
        graph = random_digraph(25, 80, seed=seed)
        frozen = FrozenGraph.freeze(graph)
        for node in graph.nodes():
            assert bounded_descendants(frozen, node, bound) == bounded_descendants(
                graph, node, bound
            ), f"descendants diverged at seed {seed} node {node} bound {bound}"
            assert bounded_ancestors(frozen, node, bound) == bounded_ancestors(
                graph, node, bound
            )

    @pytest.mark.parametrize("seed", range(4))
    def test_scalar_helpers_match_dict_path(self, seed):
        graph = random_digraph(25, 70, seed=seed)
        frozen = FrozenGraph.freeze(graph)
        rng = random.Random(seed)
        sources = rng.sample(list(graph.nodes()), 6)
        for node in sources:
            assert distance(frozen, sources[0], node) == distance(
                graph, sources[0], node
            )
            assert within_bound(frozen, sources[0], node, 2) == within_bound(
                graph, sources[0], node, 2
            )
            assert eccentricity_within(frozen, node, 3) == eccentricity_within(
                graph, node, 3
            )

    def test_distance_missing_nodes(self, fig1):
        frozen = FrozenGraph.freeze(fig1)
        assert distance(frozen, "Ann", "nobody") is None
        assert distance(frozen, "nobody", "Ann") is None


# ----------------------------------------------------------------------
# matcher kernels (differential, both strategies)
# ----------------------------------------------------------------------

def deep_pattern(bound):
    """A chain pattern whose source depth picks the bitset strategy."""
    return (
        PatternBuilder("deep")
        .node("A", 'label == "L0"', output=True)
        .node("B", 'label == "L1"')
        .edge("A", "B", bound)
        .build()
    )


class TestFrozenMatchers:
    @pytest.mark.parametrize("seed", range(40))
    def test_bounded_matches_dict_path(self, seed):
        graph, pattern = random_case(seed)
        frozen = FrozenGraph.freeze(graph)
        plain = match_bounded(graph, pattern)
        accelerated = match_bounded(graph, pattern, frozen=frozen)
        assert accelerated.relation == plain.relation, f"seed {seed}"
        assert accelerated.relation.to_dict() == plain.relation.to_dict()
        # Identical refinement state, not merely the same relation.
        assert accelerated._state.S == plain._state.S, f"seed {seed}"
        assert accelerated._state.cnt == plain._state.cnt
        accelerated._state.check_invariants()
        result_edges = set(plain.result_graph().edges())
        assert set(accelerated.result_graph().edges()) == result_edges

    @pytest.mark.parametrize("seed", range(40))
    def test_simulation_matches_dict_path(self, seed):
        graph, pattern = random_case(seed, simulation_only=True)
        frozen = FrozenGraph.freeze(graph)
        plain = match_simulation(graph, pattern)
        accelerated = match_simulation(graph, pattern, frozen=frozen)
        assert accelerated.relation == plain.relation, f"seed {seed}"
        assert accelerated.relation.to_dict() == plain.relation.to_dict()

    @pytest.mark.parametrize("bound", [5, 9, None])
    def test_bitset_strategy_cases(self, bound):
        """Deep and ``*`` bounds route through the bitset-parallel kernel."""
        for seed in range(6):
            graph = random_digraph(30, 100, seed=seed)
            pattern = deep_pattern(bound)
            frozen = FrozenGraph.freeze(graph)
            plain = match_bounded(graph, pattern)
            accelerated = match_bounded(graph, pattern, frozen=frozen)
            assert accelerated.relation == plain.relation, (seed, bound)
            assert accelerated._state.S == plain._state.S, (seed, bound)

    def test_bitset_chunk_boundaries(self, monkeypatch):
        """Multi-chunk traversals (sources > chunk size) stay identical.

        Production graphs cross the 4096-source chunk limit; shrinking it
        to 8 exercises the per-chunk reach reset and the
        ``chunk[base + offset]`` mask decode at chunk boundaries.
        """
        from repro.matching import bounded as bounded_module

        monkeypatch.setattr(bounded_module, "FROZEN_CHUNK_BITS", 8)
        for seed in range(4):
            graph = random_digraph(40, 140, seed=seed)
            for bound in (6, None):
                pattern = deep_pattern(bound)
                frozen = FrozenGraph.freeze(graph)
                plain = match_bounded(graph, pattern)
                accelerated = match_bounded(graph, pattern, frozen=frozen)
                assert accelerated.relation == plain.relation, (seed, bound)
                assert accelerated._state.S == plain._state.S, (seed, bound)

    def test_kernel_strategies_agree(self, monkeypatch):
        """Both kernel strategies produce the same rows on the same input."""
        from repro.matching import bounded as bounded_module

        graph = random_digraph(40, 140, seed=3)
        pattern = deep_pattern(6)
        frozen = FrozenGraph.freeze(graph)
        ids = frozen.ids()
        candidates = simulation_candidates(graph, pattern)
        candidate_ids = {
            u: frozenset(ids[v] for v in vs) for u, vs in candidates.items()
        }
        spec = {u: tuple(pattern.out_edges(u)) for u in pattern.nodes()}
        bulk = frozen_successor_rows(frozen, spec, candidate_ids)
        monkeypatch.setattr(bounded_module, "FROZEN_BULK_DEPTH", 99)
        per_source = frozen_successor_rows(frozen, spec, candidate_ids)
        assert bulk == per_source

    def test_stale_snapshot_rejected(self, fig1, fig1_query):
        from repro.matching.simulation import refine_simulation

        frozen = FrozenGraph.freeze(fig1)
        fig1.set("Bob", "experience", 9)
        with pytest.raises(EvaluationError, match="stale frozen snapshot"):
            match_bounded(fig1, fig1_query, frozen=frozen)
        simple = deep_pattern(1)
        with pytest.raises(EvaluationError, match="stale frozen snapshot"):
            match_simulation(fig1, simple, frozen=frozen)
        with pytest.raises(EvaluationError, match="stale frozen snapshot"):
            refine_simulation(
                fig1, simple, simulation_candidates(fig1, simple), frozen=frozen
            )
        with pytest.raises(EvaluationError, match="stale frozen snapshot"):
            ParallelExecutor(workers=1).match_many(
                fig1, [_batch_task(fig1_query)], {}, frozen=frozen
            )


# ----------------------------------------------------------------------
# ranking Dijkstras
# ----------------------------------------------------------------------

class TestFrozenRanking:
    @pytest.mark.parametrize("seed", range(10))
    def test_context_distances_byte_identical(self, seed):
        graph, pattern = random_case(seed)
        result = match_bounded(graph, pattern)
        if result.relation.is_empty:
            pytest.skip("no match for this seed; nothing to rank")
        adaptive = RankingContext(result.result_graph())
        forced = RankingContext(result.result_graph())
        # Force the frozen CSR so the int kernel is exercised even where
        # the adaptive rule would keep small graphs on the label path.
        forced._weighted_csr(forward=True)
        forced._weighted_csr(forward=False)
        for node in adaptive.matched_by:
            label_out = weighted_distances(adaptive.out_adj, node)
            label_in = weighted_distances(adaptive.in_adj, node)
            # Byte-identical: same values in the same insertion order,
            # whichever path the context picks.
            assert list(adaptive.distances_from(node).items()) == list(
                label_out.items()
            ), f"seed {seed} node {node!r}"
            assert list(adaptive.distances_to(node).items()) == list(
                label_in.items()
            )
            assert list(forced.distances_from(node).items()) == list(
                label_out.items()
            ), f"seed {seed} node {node!r} (forced CSR)"
            assert list(forced.distances_to(node).items()) == list(
                label_in.items()
            )

    def test_top_k_matches_naive_all_metrics(self, fig1, fig1_query):
        from repro.ranking.metrics import METRICS

        engine = QueryEngine()
        engine.register_graph("g", fig1)
        result_graph = match_bounded(fig1, fig1_query).result_graph()
        detail = engine.top_k("g", fig1_query, 3)
        from repro.ranking.social_impact import rank_matches

        assert detail == rank_matches(result_graph)[:3]
        for name, metric in METRICS.items():
            if name == "social-impact":
                continue
            assert engine.top_k("g", fig1_query, 3, metric=name) == (
                metric.rank_all(result_graph)[:3]
            )


# ----------------------------------------------------------------------
# the engine's snapshot cache
# ----------------------------------------------------------------------

class TestSnapshotCache:
    def test_capacity_validation(self):
        with pytest.raises(CacheError):
            SnapshotCache(capacity=0)

    def test_hit_miss_stale(self, fig1):
        cache = SnapshotCache(capacity=2)
        assert cache.get("g", 0) is None
        frozen = FrozenGraph.freeze(fig1)
        cache.put("g", frozen, 7)
        assert cache.get("g", 7) is frozen
        assert cache.get("g", 8) is None  # version moved: dropped
        assert "g" not in cache
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["stale_drops"] == 1
        assert stats["misses"] == 2 and stats["builds"] == 1

    def test_lru_eviction_and_invalidation(self, fig1):
        cache = SnapshotCache(capacity=2)
        frozen = FrozenGraph.freeze(fig1)
        cache.put("a", frozen, 1)
        cache.put("b", frozen, 1)
        cache.put("c", frozen, 1)
        assert "a" not in cache and len(cache) == 2
        assert cache.invalidate_graph("b") == 1
        assert cache.invalidate_graph("b") == 0

    def test_engine_reuses_snapshot_across_queries(self, fig1, fig1_query):
        engine = QueryEngine()
        engine.register_graph("g", fig1)
        engine.evaluate("g", fig1_query, use_cache=False, cache_result=False)
        engine.evaluate("g", fig1_query, use_cache=False, cache_result=False)
        stats = engine.snapshot_stats()
        assert stats["builds"] == 1
        assert stats["hits"] >= 1
        assert engine.cache_stats()["snapshots"]["builds"] == 1

    def test_engine_invalidates_on_version_change(self, fig1, fig1_query):
        """Acceptance: SnapshotCache invalidates on ``Graph.version`` change."""
        engine = QueryEngine()
        engine.register_graph("g", fig1)
        before = engine.evaluate("g", fig1_query, use_cache=False, cache_result=False)
        # Out-of-band mutation through a counting API: the cached snapshot
        # is stale, and the next evaluation must re-freeze, not serve it.
        # (Dan loses his only 1-hop tester, so the relation must shrink.)
        fig1.remove_edge("Dan", "Eva")
        after = engine.evaluate("g", fig1_query, use_cache=False, cache_result=False)
        stats = engine.snapshot_stats()
        assert stats["builds"] == 2
        assert stats["stale_drops"] == 1
        # ...and the fresh snapshot reflects the mutated graph.
        assert after.relation == match_bounded(fig1, fig1_query).relation
        assert after.relation != before.relation

    def test_engine_update_graph_drops_snapshot(self, fig1, fig1_query):
        from repro.incremental.updates import EdgeDeletion

        engine = QueryEngine()
        engine.register_graph("g", fig1)
        engine.evaluate("g", fig1_query)
        engine.update_graph("g", [EdgeDeletion("Bob", "Dan")])
        assert engine.snapshot_stats()["invalidations"] == 1
        fresh = engine.evaluate("g", fig1_query, use_cache=False, cache_result=False)
        assert fresh.relation == match_bounded(fig1, fig1_query).relation

    def test_reach_index_skips_the_freeze(self, fig1, fig1_query):
        """The bounded matcher prefers a reach index; no snapshot is built."""
        engine = QueryEngine()
        engine.register_graph("g", fig1)
        engine.enable_reach_index("g")
        result = engine.evaluate("g", fig1_query, use_cache=False, cache_result=False)
        assert engine.snapshot_stats()["builds"] == 0
        assert result.relation == match_bounded(fig1, fig1_query).relation
        # ...and explain agrees with what evaluate actually did.
        plan = engine.explain("g", fig1_query)
        assert any("frozen snapshot: bypassed" in r for r in plan.reasons)
        # Batch workers have no reach index, so farming snapshots even here.
        parallel = engine.evaluate_many(
            "g", [fig1_query, deep_pattern(1)], use_cache=False,
            cache_result=False, workers=2,
        )
        assert parallel[0].relation == result.relation
        assert engine.snapshot_stats()["builds"] == 1

    def test_explain_reports_snapshot_state(self, fig1, fig1_query):
        engine = QueryEngine()
        engine.register_graph("g", fig1)
        cold = engine.explain("g", fig1_query)
        assert any("frozen snapshot: cold" in reason for reason in cold.reasons)
        engine.evaluate("g", fig1_query)
        warm = engine.explain("g", fig1_query)
        # A cached result plans the cache route (no snapshot note)...
        assert warm.route == "cache"
        engine.register_graph("g2", fig1)
        engine.evaluate("g2", fig1_query, use_cache=False, cache_result=False)
        warm = engine.explain("g2", fig1_query)
        assert any("frozen snapshot: warm" in reason for reason in warm.reasons)


# ----------------------------------------------------------------------
# frozen snapshot shipping to batch workers (workers > 1)
# ----------------------------------------------------------------------

def _batch_task(pattern):
    """A match_many task: the pattern and its nodes' candidate-table keys."""
    return (pattern, {u: predicate_key(pattern.predicate(u)) for u in pattern.nodes()})


class TestFrozenShipping:
    @pytest.mark.parametrize("seed", range(8))
    def test_executor_matches_sequential(self, seed):
        graph, pattern = random_case(seed)
        sequential = match_bounded(graph, pattern)
        candidates = simulation_candidates(graph, pattern)
        task = _batch_task(pattern)
        table = {task[1][u]: candidates[u] for u in pattern.nodes()}
        outcomes = ParallelExecutor(workers=2).match_many(
            graph, [task, task], table, frozen=FrozenGraph.freeze(graph)
        )
        for relation, _stats in outcomes:
            assert relation == sequential.relation, f"seed {seed}"
            assert relation.to_dict() == sequential.relation.to_dict()

    def test_engine_workers_with_warm_snapshot(self, fig1, fig1_query):
        engine = QueryEngine()
        engine.register_graph("g", fig1)
        sequential = engine.evaluate("g", fig1_query, use_cache=False,
                                     cache_result=False)
        pair = (
            PatternBuilder("pair")
            .node("SA", 'field == "SA"')
            .node("SD", 'field == "SD"')
            .edge("SA", "SD", 2)
            .build()
        )
        parallel = engine.evaluate_many(
            "g", [fig1_query, pair], use_cache=False, cache_result=False, workers=2
        )
        assert parallel[0].relation == sequential.relation
        assert engine.snapshot_stats()["builds"] == 1  # one snapshot fed both


# ----------------------------------------------------------------------
# the Graph.update_attrs satellite
# ----------------------------------------------------------------------

class TestUpdateAttrs:
    def test_bulk_write_bumps_version_once(self):
        graph = Graph()
        graph.add_node("a")
        before = graph.version
        graph.update_attrs("a", field="SA", experience=7)
        assert graph.version == before + 1
        assert graph.attrs("a") == {"field": "SA", "experience": 7}

    def test_empty_write_is_a_noop(self):
        graph = Graph()
        graph.add_node("a")
        before = graph.version
        graph.update_attrs("a")
        assert graph.version == before

    def test_unknown_node_raises(self):
        with pytest.raises(GraphError, match="unknown node"):
            Graph().update_attrs("ghost", x=1)

    def test_attributes_named_node_or_self_pass_through(self):
        """The node parameter is positional-only — no kwarg collisions."""
        from repro.incremental.updates import AttributeUpdate

        graph = Graph()
        graph.add_node("a")
        graph.update_attrs("a", node="yes", self="also")
        assert graph.attrs("a") == {"node": "yes", "self": "also"}
        AttributeUpdate("a", "node", 42).apply(graph)
        assert graph.get("a", "node") == 42

    def test_attribute_update_routes_through_counting_api(self, fig1):
        from repro.incremental.updates import AttributeUpdate

        before = fig1.version
        AttributeUpdate("Bob", "experience", 9).apply(fig1)
        assert fig1.version == before + 1
        assert fig1.get("Bob", "experience") == 9

    def test_snapshot_cache_sees_update_attrs(self, fig1, fig1_query):
        """The closed bypass: bulk attribute writes invalidate snapshots."""
        engine = QueryEngine()
        engine.register_graph("g", fig1)
        engine.evaluate("g", fig1_query, use_cache=False, cache_result=False)
        fig1.update_attrs("Bob", field="BA")  # Bob stops matching SA
        after = engine.evaluate("g", fig1_query, use_cache=False, cache_result=False)
        assert engine.snapshot_stats()["stale_drops"] == 1
        assert "Bob" not in after.relation.matches_of("SA")
