"""A fixed reference loop that times the CPU the server runs on.

The shared host the benchmark was built on ran the server up to 1.8x
slower for stretches of seconds to minutes as other tenants' load moved,
on each vCPU on its own.  :class:`ReferenceLoop` runs a fixed piece of
work of the same kind as the server's (part of a Dijkstra search over a
dict-of-lists graph, about 5 ms between requests) on the server's CPU
while the server waits for the next request.  Timed in wall time, like the
requests, its samples follow that CPU's speed: in one process, while the
program's own time for a fixed list of queries swung by 1.9x, its ratio to
the loop's time mostly stayed within 0.85-1.2x of its median.

:meth:`ReferenceLoop.scale` turns a span of time into the factor that
brings a timing taken in it to the reference speed, at which the loop takes
``REFERENCE_MS``: that over the median of the ``NEAREST`` samples around it.
"""

from __future__ import annotations

import bisect
import heapq
import random
import statistics
import time

#: Loop time (ms) at the reference speed; timings are reported at it.
REFERENCE_MS = 5.0

#: A sample is taken when this long has passed since the last one.
PERIOD_S = 0.05

#: Samples around a timing that set its speed.
NEAREST = 16


class ReferenceLoop:
    def __init__(self, nodes: int = 20000, degree: int = 5, pops: int = 1000) -> None:
        rng = random.Random(1)
        names = [f"v{i}" for i in range(nodes)]
        self.adj = {name: [(names[rng.randrange(nodes)], rng.random())
                           for _ in range(degree)] for name in names}
        self.pops = pops
        self.times: list[float] = []  # sample midpoints, ascending
        self.seconds: list[float] = []

    def _search(self) -> None:
        dist = {"v0": 0.0}
        heap = [(0.0, "v0")]
        settled = 0
        while heap and settled < self.pops:
            d, node = heapq.heappop(heap)
            if d > dist[node]:
                continue
            settled += 1
            for succ, weight in self.adj[node]:
                nd = d + weight
                if nd < dist.get(succ, float("inf")):
                    dist[succ] = nd
                    heapq.heappush(heap, (nd, succ))

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            start = time.perf_counter()
            self._search()
            end = time.perf_counter()
            self.times.append((start + end) / 2)
            self.seconds.append(end - start)

    def tick(self) -> None:
        """Take a sample for every ``PERIOD_S`` passed since the last one
        (up to ``NEAREST // 2``), so a long request is timed against
        samples taken right around it."""
        if not self.times:
            self.sample()
            return
        due = int((time.perf_counter() - self.times[-1]) / PERIOD_S)
        self.sample(min(due, NEAREST // 2))

    def scale(self, start: float, end: float) -> float:
        """Factor bringing a timing over ``[start, end]`` (``perf_counter``
        seconds) to the reference speed."""
        if not self.times:
            raise ValueError("the reference loop has no samples")
        middle = (start + end) / 2
        at = bisect.bisect_left(self.times, middle)
        lo, hi = at, at
        while hi - lo < NEAREST and (lo > 0 or hi < len(self.times)):
            if lo > 0 and (hi == len(self.times)
                           or middle - self.times[lo - 1] <= self.times[hi] - middle):
                lo -= 1
            else:
                hi += 1
        return REFERENCE_MS / 1e3 / statistics.median(self.seconds[lo:hi])
