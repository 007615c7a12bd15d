"""Seeded inputs of the benchmark: graph, request lists and write schedule.

Everything here is a pure function of ``(workload, seed, seconds, scale)``,
so the parent commit and a change replay identical work.  The pattern
generator extends the five topologies of :mod:`repro.datasets.queries`
(star, chain, diamond, cycle, ``*``-reach) with a lead field, edge bounds
and experience bars; lists walk the design of topology x bound x lead
field x lead bar in order, and the seed draws the other roles' bars, so a
different seed gives different patterns with the same mix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.graph.generators import FIELDS, twitter_like_graph

#: The five topologies of :mod:`repro.datasets.queries`, as pattern edges
#: out of the lead ``L`` (the output node).  ``reach`` is the ``*`` edge.
TOPOLOGIES = {
    "star": (("L", "A"), ("L", "B"), ("L", "C")),
    "chain": (("L", "A"), ("A", "B"), ("B", "C")),
    "diamond": (("L", "A"), ("L", "B"), ("A", "C"), ("B", "C")),
    "cycle": (("L", "A"), ("A", "L")),
    "reach": (("L", "A"),),
}

#: Per-workload sizes at scale 1.  ``*_per_s`` sizes a fixed list from the
#: run length: a run of ``--seconds S`` sends ``round(rate * S)`` requests
#: in each of its rounds (``run.ROUNDS``).  rank asks bound-1 patterns
#: only: bound-2 /topk requests took 0.1-0.45 s each, and their p90 moved
#: by half between runs of one seed on a shared host.
WORKLOADS = {
    "hot_read": dict(nodes=5000, hot=24, reads_per_s=135.0, writes_per_s=1.0),
    "cold_read": dict(nodes=3000, reads_per_s=5.0, batch_size=4, writes_per_s=1.0),
    "rank": dict(nodes=2000, reads_per_s=9.5, k=10, writes_per_s=1.5, bounds=(1,)),
}

#: Bound levels of the pattern design (the paper's bounded simulation).
BOUNDS = (1, 2, 3)

#: The graph is the fixed data set of a workload; ``--seed`` draws the
#: traffic (patterns, request order, write schedule) over it.
GRAPH_SEED = 0

#: Experience bars a pattern's lead (by its place in the design) and its
#: other roles (drawn by the seed) demand.  Experience is uniform on 1-15,
#: so the lead bar changes a pattern's candidates, and its cost, most.
LEAD_BARS = (5, 6, 7)
ROLE_BARS = (1, 2, 3)

#: Skew of the hot list: request share of the rank-r hot pattern ~ r^-ZIPF.
ZIPF = 0.8


@dataclass
class Inputs:
    """One workload's generated inputs (the server sees only the graph file
    and the requests)."""

    nodes: int
    reads: list[tuple[str, dict]] = field(default_factory=list)
    hot: list[str] = field(default_factory=list)
    writes: list[list[dict]] = field(default_factory=list)

    def graph(self):
        return twitter_like_graph(self.nodes, seed=GRAPH_SEED)


def pattern_text(topology: str, bound: int, lead: str, lead_bar: int,
                 rng: random.Random, name: str) -> str:
    """One pattern of ``topology`` led by field ``lead`` with experience at
    least ``lead_bar``, every edge bounded by ``bound``.  Role fields follow
    from the lead (for the unbounded ``reach`` the bound level picks the
    role's field instead); the seed draws the roles' experience bars."""
    edges = TOPOLOGIES[topology]
    codes = list(FIELDS)
    start = codes.index(lead)
    others = codes[start + 1:] + codes[:start]
    unbounded = topology == "reach"
    if unbounded:
        others = others[bound - 1:]
    roles = sorted({node for edge in edges for node in edge} - {"L"})
    lines = [f"pattern {name}",
             f'node L* : field == "{lead}", experience >= {lead_bar}']
    lines += [f'node {role} : field == "{code}", experience >= {rng.choice(ROLE_BARS)}'
              for role, code in zip(roles, others)]
    lines += [f"edge {source} -> {target} : {'*' if unbounded else bound}"
              for source, target in edges]
    return "\n".join(lines) + "\n"


def distinct_patterns(count: int, rng: random.Random, prefix: str,
                      bounds: tuple = BOUNDS) -> list[str]:
    """``count`` distinct patterns in design order.  Pattern ``i`` takes
    topology ``i mod 5``, lead field ``i mod 8``, bound ``(i div 5) mod
    len(bounds)`` and lead bar ``(i div 40) mod 3``, so every seed walks the
    same design cells in the same order and draws only the roles' bars:
    the cost of a list hardly moves with the seed."""
    codes = list(FIELDS)
    seen: set[str] = set()
    texts: list[str] = []
    for index in range(count):
        cell = (list(TOPOLOGIES)[index % len(TOPOLOGIES)],
                bounds[(index // len(TOPOLOGIES)) % len(bounds)],
                codes[index % len(codes)],
                LEAD_BARS[(index // (len(TOPOLOGIES) * len(codes))) % len(LEAD_BARS)])
        for _attempt in range(1000):
            text = pattern_text(*cell, rng, f"{prefix}-{index}")
            body = text.split("\n", 1)[1]  # the header name is not part of the key
            if body not in seen:
                seen.add(body)
                texts.append(text)
                break
        else:
            raise ValueError(f"cell {cell} has no unused pattern left")
    return texts


def zipf_choices(items: list[str], count: int, rng: random.Random) -> list[str]:
    weights = [1.0 / (rank + 1) ** ZIPF for rank in range(len(items))]
    return rng.choices(items, weights=weights, k=count)


def write_batches(count: int, nodes: int, rng: random.Random,
                  ops: int = 4) -> list[list[dict]]:
    """``count`` batches of ``ops`` ``set-attr`` updates (never fail: every
    target node exists)."""
    return [
        [
            {"op": "set-attr", "node": f"u{rng.randrange(nodes)}",
             "attr": "experience", "value": rng.randint(1, 15)}
            for _ in range(ops)
        ]
        for _ in range(count)
    ]


def make_inputs(workload: str, seed: int, seconds: float,
                scale: float = 1.0) -> Inputs:
    """The fixed request lists of one run.  ``scale`` < 1 shrinks graph and
    lists together (the self-tests run at a tiny scale)."""
    try:
        spec = WORKLOADS[workload]
    except KeyError:
        raise SystemExit(
            f"unknown workload {workload!r} (known: {', '.join(WORKLOADS)})"
        ) from None
    rng = random.Random(f"{workload}:{seed}")
    nodes = max(200, int(spec["nodes"] * scale))
    reads = max(20, round(spec["reads_per_s"] * seconds * scale))
    inputs = Inputs(nodes)
    if workload == "hot_read":
        # Zipf rank r is design cell r for every seed, so the mix of reply
        # sizes, and the work per request with it, does not move with the
        # seed (shuffled ranks moved read_qps by a fifth).
        inputs.hot = distinct_patterns(spec["hot"], rng, "hot")
        inputs.reads = [
            ("evaluate", {"pattern": text})
            for text in zipf_choices(inputs.hot, reads, rng)
        ]
    elif workload == "cold_read":
        # 3 /evaluate for every /batch of batch_size: each pattern appears once.
        size = spec["batch_size"]
        groups = max(5, reads // 4)
        texts = iter(distinct_patterns(groups * (3 + size), rng, "cold"))
        for _ in range(groups):
            for _ in range(3):
                inputs.reads.append(("evaluate", {"pattern": next(texts)}))
            inputs.reads.append(
                ("batch", {"patterns": [next(texts) for _ in range(size)]})
            )
    else:  # rank
        texts = distinct_patterns(reads, rng, "rank", spec["bounds"])
        inputs.reads = [("topk", {"pattern": text, "k": spec["k"]}) for text in texts]
    count = max(20, round(spec["writes_per_s"] * seconds * scale))
    inputs.writes = write_batches(count, nodes, rng)
    return inputs
