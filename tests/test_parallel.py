"""Unit tests for the parallel evaluation subsystem (`engine.parallel`).

The exhaustive parallel-vs-sequential equivalence lives in
tests/test_differential.py; this module covers the machinery itself:
worker validation, inline execution, stats, engine routing, and the facade.
"""

from __future__ import annotations

import pytest

from repro.engine.engine import QueryEngine
from repro.engine.parallel import ParallelExecutor, validate_workers
from repro.errors import EvaluationError
from repro.expfinder import ExpFinder
from repro.matching.bounded import match_bounded
from repro.graph.index import predicate_key
from repro.matching.simulation import match_simulation, simulation_candidates
from repro.pattern.builder import PatternBuilder


class TestValidateWorkers:
    def test_none_means_sequential(self):
        assert validate_workers(None) == 1

    @pytest.mark.parametrize("workers", [1, 2, 7])
    def test_positive_integers_pass_through(self, workers):
        assert validate_workers(workers) == workers

    @pytest.mark.parametrize("workers", [0, -1, -10, 1.5, "2", True, False])
    def test_everything_else_raises(self, workers):
        with pytest.raises(EvaluationError, match="positive integer"):
            validate_workers(workers)


def _batch_task(graph, pattern):
    """One match_many task plus its candidate table."""
    candidates = simulation_candidates(graph, pattern)
    keys = {u: predicate_key(pattern.predicate(u)) for u in pattern.nodes()}
    table = {keys[u]: candidates[u] for u in pattern.nodes()}
    return (pattern, keys), table


class TestExecutor:
    def test_single_worker_runs_inline(self, fig1, fig1_query, monkeypatch):
        executor = ParallelExecutor(workers=1)

        def no_pool(**_kwargs):
            raise AssertionError("workers=1 must not create a pool")

        monkeypatch.setattr(executor, "_pool", no_pool)
        task, table = _batch_task(fig1, fig1_query)
        outcomes = executor.match_many(fig1, [task, task], table)
        expected = match_bounded(fig1, fig1_query).relation
        assert [relation for relation, _stats in outcomes] == [expected] * 2

    def test_bad_workers_rejected_at_construction(self):
        with pytest.raises(EvaluationError, match="positive integer"):
            ParallelExecutor(workers=0)

    def test_match_many_parity(self, fig1, fig1_query):
        task, table = _batch_task(fig1, fig1_query)
        outcomes = ParallelExecutor(workers=2).match_many(fig1, [task] * 3, table)
        expected = match_bounded(fig1, fig1_query).relation
        assert [relation for relation, _stats in outcomes] == [expected] * 3
        assert all(stats["algorithm"] == "bounded-simulation" for _r, stats in outcomes)

    def test_match_many_empty(self, fig1):
        assert ParallelExecutor(workers=2).match_many(fig1, [], {}) == []

    def test_simulation_pattern_same_relation(self, diamond):
        pattern = (
            PatternBuilder("path")
            .node("A", 'label == "A"')
            .node("B", 'label == "B"')
            .edge("A", "B", 1)
            .build()
        )
        task, table = _batch_task(diamond, pattern)
        outcomes = ParallelExecutor(workers=2).match_many(diamond, [task] * 2, table)
        expected = match_simulation(diamond, pattern).relation
        assert [relation for relation, _stats in outcomes] == [expected] * 2
        assert all(stats["algorithm"] == "simulation" for _r, stats in outcomes)


class TestEngineWorkers:
    @pytest.fixture
    def engine(self, fig1):
        engine = QueryEngine()
        engine.register_graph("fig1", fig1)
        return engine

    @pytest.fixture
    def pair_query(self):
        return (
            PatternBuilder("pair")
            .node("SA", 'field == "SA"', output=True)
            .node("SD", 'field == "SD"')
            .edge("SA", "SD", 2)
            .build()
        )

    def test_parallel_result_is_cached(self, engine, fig1_query, pair_query):
        engine.evaluate_many("fig1", [fig1_query, pair_query], workers=2)
        again = engine.evaluate("fig1", fig1_query)
        assert again.stats["route"] == "cache"

    def test_unknown_graph_still_names_registered_graphs(self, engine, fig1_query):
        with pytest.raises(EvaluationError, match="registered: fig1"):
            engine.evaluate_many("nope", [fig1_query], workers=2)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_bad_workers_raise_before_evaluating(self, engine, fig1_query, workers):
        with pytest.raises(EvaluationError, match="positive integer"):
            engine.evaluate_many("fig1", [fig1_query], workers=workers)
        with pytest.raises(EvaluationError, match="positive integer"):
            engine.top_k("fig1", fig1_query, 2, workers=workers)

    def test_compressed_route_ignores_workers(self, engine, fig1_query, pair_query):
        engine.compress_graph("fig1", ["field", "specialty", "experience"])
        results = engine.evaluate_many(
            "fig1", [fig1_query, pair_query], use_cache=False, cache_result=False,
            workers=2,
        )
        assert results[0].stats["route"] == "compressed"
        sequential = engine.evaluate(
            "fig1",
            fig1_query,
            use_cache=False,
            use_compression=False,
            cache_result=False,
        )
        assert results[0].relation == sequential.relation

    def test_batch_workers_parity_and_dedup(self, engine, fig1_query):
        patterns = [fig1_query, fig1_query, fig1_query]
        results = engine.evaluate_many(
            "fig1", patterns, use_cache=False, cache_result=False, workers=2
        )
        expected = match_bounded(engine.graph("fig1"), fig1_query).relation
        assert [r.relation for r in results] == [expected] * 3
        # Only the first occurrence is farmed; repeats are batch-local reuse.
        assert results[0].stats["route"] == "direct"
        assert results[1].stats["route"] == "cache"
        assert results[0].stats["batch"]["workers"] == 2

    def test_single_query_batch_runs_inline(self, engine, fig1_query, monkeypatch):
        from repro.engine import parallel

        def no_pool(self, **_kwargs):
            raise AssertionError("a one-query batch must not create a pool")

        monkeypatch.setattr(parallel.ParallelExecutor, "_pool", no_pool)
        results = engine.evaluate_many(
            "fig1", [fig1_query], use_cache=False, cache_result=False, workers=2
        )
        expected = match_bounded(engine.graph("fig1"), fig1_query).relation
        assert results[0].relation == expected
        assert results[0]._state is not None  # nothing crossed a process border
        batch_info = results[0].stats["batch"]
        assert batch_info["size"] == 1
        assert batch_info["workers"] == 2
        assert batch_info["distinct_predicates"] == 4

    def test_farmed_result_graph_recomputes(self, engine, fig1_query, pair_query):
        results = engine.evaluate_many(
            "fig1",
            [fig1_query, pair_query],
            use_cache=False,
            cache_result=False,
            workers=2,
        )
        for result in results:
            assert result._state is None  # relations crossed a process border
            assert result.result_graph().num_nodes > 0


class TestFacadeWorkers:
    def test_match_and_match_many(self, fig1, fig1_query):
        finder = ExpFinder()
        finder.add_graph("g", fig1)
        sequential = finder.match("g", fig1_query, use_cache=False, cache_result=False)
        many = finder.match_many(
            "g", [fig1_query, fig1_query], use_cache=False, cache_result=False,
            workers=2,
        )
        assert [r.relation for r in many] == [sequential.relation] * 2
