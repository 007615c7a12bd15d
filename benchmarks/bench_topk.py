"""E13 — bulk top-K ranking vs. the naive per-match path.

Two seeded workloads, both with 5000+ matches of the output node, both
asserting (always, on any host) that the ranked output — order, scores and
``RankedMatch`` evidence — is *identical* across the naive path, the bulk
context path and the ``workers=N`` parallel path:

* **prunable** — witness-edge weights are heterogeneous: a small elite of
  hubs is directly wired to its team (weight-1 witnesses) while the other
  5000 hubs reach their teams through a relay (weight-2 witnesses).  The
  bulk path's admissible bound (minimum incident witness weight) proves
  every weight-2 hub is outside the top-10 after scoring just the elite,
  so lazy selection runs ~10 Dijkstras instead of ~10 000.  The >= 2x
  speedup assertion runs on *any* host — the win is algorithmic
  (deterministic pruning), not parallelism.
* **uniform** — every witness weighs 1, so the bound cannot separate
  anything and every match must be fully scored.  This is the worst case
  for laziness, and an honest stress for fan-out: per-match Dijkstras over
  5-node components are so cheap that per-call pool forks and shipping
  5000 ``RankedMatch`` results back dominate (Amdahl: the serial
  selection and the pool fork stay), so on >= 4 cores the assertion is a
  catastrophic-regression floor (>= 0.5x vs. naive, measured number always
  printed), and on smaller hosts it is skipped with the measured number.
  Fan-out is timed ranking-only (same pre-built result graph as the other
  two paths) so the comparison is apples-to-apples.

The file also enforces the subsystem's contract change at the door:
``k < 1`` raises ``RankingError`` for every metric, in the engine and in
the CLI.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.cli import main as cli_main
from repro.engine.engine import QueryEngine
from repro.engine.parallel import ParallelExecutor
from repro.errors import RankingError
from repro.graph.digraph import Graph
from repro.graph.io import save_graph
from repro.matching.bounded import match_bounded
from repro.graph.index import AttributeIndex
from repro.pattern.builder import PatternBuilder
from repro.pattern.parser import save_pattern
from repro.ranking.metrics import METRICS
from repro.ranking.social_impact import rank_matches
from repro.ranking.social_impact import top_k as naive_top_k
from repro.ranking.topk import RankingContext, bulk_top_k_detail, bulk_top_k_scores

from benchmarks.conftest import summary_recorder

REGULAR = 5000
ELITE = 24
K = 10
WORKERS = 4
CORES = os.cpu_count() or 1

summary = summary_recorder(
    "E13", workers=WORKERS, regular_teams=REGULAR, elite_teams=ELITE, k=K
)


def clustered_graph(direct: bool) -> Graph:
    """5024 disjoint teams; ``direct=False`` routes regular teams via relays.

    Every hub (field SA) must reach its SD team members within 2 hops.
    Elite hubs are always wired directly (witness weight 1); regular hubs
    are wired through a non-matching relay (witness weight 2) unless
    ``direct`` forces weight-1 witnesses everywhere (the uniform workload).
    """
    graph = Graph(name="ranking-bench")
    for index in range(ELITE):
        hub = f"elite{index:05d}"
        graph.add_node(hub, field="SA", experience=9)
        for member in range(3):
            sd = f"{hub}sd{member}"
            graph.add_node(sd, field="SD", experience=5)
            graph.add_edge(hub, sd)
    for index in range(REGULAR):
        hub = f"hub{index:05d}"
        graph.add_node(hub, field="SA", experience=7)
        members = [f"{hub}sd{member}" for member in range(4)]
        for sd in members:
            graph.add_node(sd, field="SD", experience=4)
        if direct:
            for sd in members:
                graph.add_edge(hub, sd)
        else:
            relay = f"{hub}relay"
            graph.add_node(relay, field="X", experience=1)
            graph.add_edge(hub, relay)
            for sd in members:
                graph.add_edge(relay, sd)
    return graph


def team_pattern():
    return (
        PatternBuilder("bench-team")
        .node("SA", "experience >= 5", field="SA", output=True)
        .node("SD", "experience >= 2", field="SD")
        .edge("SA", "SD", 2)
        .build(require_output=True)
    )


@pytest.fixture(scope="module", params=["prunable", "uniform"])
def workload(request):
    graph = clustered_graph(direct=request.param == "uniform")
    pattern = team_pattern()
    result = match_bounded(graph, pattern, index=AttributeIndex(graph))
    assert result.is_match
    result_graph = result.result_graph()
    matches = len(rank_matches(result_graph))
    assert matches >= 5000, f"workload must have 5k+ matches, got {matches}"
    return request.param, graph, pattern, result_graph


def test_bulk_ranking_vs_naive(workload, summary):
    """Wall-clock and identity: naive vs. bulk vs. workers=N, ranking only.

    All three paths rank the *same pre-built result graph* (k experts out
    of 5024 matches), so the measured ratios isolate the ranking stage —
    evaluation and result-graph construction are shared setup.
    """
    name, _graph, _pattern, result_graph = workload

    start = time.perf_counter()
    naive = naive_top_k(result_graph, K)
    t_naive = time.perf_counter() - start

    start = time.perf_counter()
    context = RankingContext(result_graph)
    bulk = bulk_top_k_detail(context, K)
    t_bulk = time.perf_counter() - start

    executor = ParallelExecutor(WORKERS)
    start = time.perf_counter()
    parallel_context = RankingContext(result_graph)
    parallel = bulk_top_k_detail(
        parallel_context, K, score_many=executor.rank_many
    )
    t_parallel = time.perf_counter() - start

    # Identity first — order, ranks and evidence, on every host.
    assert bulk == naive, f"[{name}] bulk top-K diverged from naive"
    assert parallel == naive, f"[{name}] workers={WORKERS} top-K diverged"

    speedup = t_naive / t_bulk
    par_speedup = t_naive / t_parallel
    scored = context.stats["details_scored"]
    pruned = context.stats["pruned_by_bound"]
    print(
        f"\n[E13/{name}] {REGULAR + ELITE} matches, k={K}: "
        f"naive {t_naive * 1e3:.0f}ms, bulk {t_bulk * 1e3:.0f}ms "
        f"({scored} scored, {pruned} pruned) -> {speedup:.1f}x; "
        f"{WORKERS}-worker {t_parallel * 1e3:.0f}ms -> {par_speedup:.1f}x "
        f"({CORES} cores)"
    )
    summary.record(
        f"ranking_{name}",
        seconds_naive=t_naive,
        seconds_bulk=t_bulk,
        seconds_parallel=t_parallel,
        speedup=speedup,
        scored=scored,
        pruned=pruned,
    )

    if name == "prunable":
        # The bound prunes ~every weight-2 hub: this is an algorithmic win
        # and must hold on any host, single-core included.
        assert pruned >= REGULAR - K, f"bound pruning disengaged: {pruned}"
        assert speedup >= 2.0, (
            f"bulk lazy ranking should beat naive >= 2x at "
            f"{REGULAR + ELITE} matches; got {speedup:.2f}x"
        )
    else:
        # Nothing is prunable and per-match scoring is tiny, so pool forks
        # and result shipping dominate — assert only the catastrophic-
        # regression floor where cores exist;
        # identity above is the real always-on guarantee.
        if CORES < WORKERS:
            pytest.skip(
                f"uniform: host has {CORES} core(s); {WORKERS} workers cannot "
                f"win wall-clock (bulk {speedup:.2f}x, parallel "
                f"{par_speedup:.2f}x; results identical)"
            )
        assert par_speedup >= 0.5, (
            f"{WORKERS}-worker scoring regressed catastrophically on "
            f"{CORES} cores: {par_speedup:.2f}x"
        )


def test_bulk_identity_for_alternative_metrics(workload):
    """Every pluggable metric: bulk == rank_all()[:k], scores included."""
    name, _graph, _pattern, result_graph = workload
    if name != "prunable":
        pytest.skip("metric identity is workload-independent; checked once")
    for metric in METRICS.values():
        naive = metric.rank_all(result_graph)[:K]
        bulk = bulk_top_k_scores(RankingContext(result_graph), K, metric)
        assert bulk == naive, f"metric {metric.name} diverged"


def test_k_below_one_raises_everywhere(tmp_path):
    """The contract change: k < 1 is RankingError for every metric."""
    graph = clustered_graph(direct=True)
    pattern = team_pattern()
    engine = QueryEngine()
    engine.register_graph("bench", graph)
    for metric in METRICS:
        for bad in (0, -1):
            with pytest.raises(RankingError):
                engine.top_k("bench", pattern, bad, metric=metric)
    graph_file = str(save_graph(graph, tmp_path / "bench.json"))
    pattern_file = str(save_pattern(pattern, tmp_path / "bench.pattern"))
    for metric in METRICS:
        code = cli_main(["topk", "--graph", graph_file, "--pattern",
                         pattern_file, "-k", "0", "--metric", metric])
        assert code == 2, f"CLI accepted k=0 for metric {metric}"
