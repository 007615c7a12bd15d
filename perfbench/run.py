"""End-to-end benchmark of the ExpFinder query service.

Run from the repository root::

    python3 perfbench/run.py --workload hot_read --seed 1 --seconds 20 --trace 0

Each run generates its inputs from ``--seed`` (:mod:`inputs`) and plays
them ``ROUNDS`` times, each round on a fresh launch of the real
``expfinder serve`` with a write-ahead log, driven over HTTP from this one
process:

1. set-up: launch → ``/health`` lists the graph (``setup_s``);
2. the timed read list; ``--seconds`` sizes the fixed lists;
3. a closed-loop list of update batches, each published as a new epoch;
4. SIGKILL after the last acknowledged batch and a relaunch on the same WAL
   directory (``recovery_s``).

Output checks against in-process references (:mod:`checks`) run after
the rounds, outside every timed phase.

Every round sends the same requests to a server in the same state, so a
request costs the program the same work in each; the host does not give
the same speed.  On the 2-vCPU shared host the benchmark was built on,
runs of one seed a few minutes apart differed by up to 1.8x in every
timing as other tenants' load moved.  So the server and this process share
one CPU (the next one each round), and :class:`reference.ReferenceLoop`
times a fixed search on it between requests; every timing is scaled to
the reference speed by the loop samples around it.  Over six runs of one
seed the scaling cut the spread (quartile distance over median) of the
read p50 from 0.24 to 0.08, of the read tail from 0.19 to 0.10 and of the
publish p50 from 0.52 to 0.11.  Each request, publish, launch and
recovery then counts with its median over the rounds.

The metrics: ``setup_s`` and ``recovery_s`` are the launch and the
recovery times (relaunch after SIGKILL until ``/health`` lists the graph);
``server_rss_mb`` is the median peak RSS (``VmHWM``) of the server
recovered from the round's WAL, a fixed point that holds the graph, the
replayed write path and the epoch build; ``read_qps`` is the reads of a
round over the sum of their latencies, the rate one closed-loop connection
sustains at them; ``read_p50_ms`` and ``read_tail_ms`` cover every read
(``/evaluate``, ``/batch``, ``/topk``), the tail being the highest of
p50/75/90/95/99/99.9 that leaves at least ten samples above it;
``publish_p50_ms`` runs from sending a batch to its ``/update`` reply,
which the service sends only once the new epoch is installed.  The values
as observed are printed beside them.

With ``--trace 1`` the workload runs twice, untraced and then with the
layer tracer (:mod:`tracer`) installed in the servers, and the run reports
per-layer metrics of the last round (self times summed over its timed
phase, in ms) plus the tracing overhead (traced minus untraced).  Layers
the serve defaults never run stay unmeasured: ``engine.parallel``
(workers=1), ``graph.oracle`` (off), ``graph.reach_index`` and
``engine.engine`` (the latter only as the checks' reference),
``compression`` and the ``incremental.inc_*`` maintainers.

Human-readable lines go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is non-zero when a check fails or the program cannot be
built from source.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import tracer
from reference import NEAREST, REFERENCE_MS, ReferenceLoop
from service import BenchError, Client, ServerProcess

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Tail percentiles on offer; a metric reports the highest one that still
#: leaves at least TAIL_BEYOND samples above it.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10

#: Rounds of a run: every launch, request, publish and recovery is timed
#: once a round, and its median over the rounds taken.
ROUNDS = 3

READ_OPS = ("evaluate", "batch", "topk")


def _rank(pct: float, count: int) -> int:
    """How many of ``count`` samples lie at or below the ``pct``
    percentile (nearest rank), in exact arithmetic on tenths of a percent."""
    return -(-round(pct * 10) * count // 1000)


def tail_percentile(count: int) -> float:
    usable = [p for p in TAIL_LADDER if count - _rank(p, count) >= TAIL_BEYOND]
    return usable[-1] if usable else 50.0


def percentile(samples: list[float], pct: float) -> float:
    if not samples:
        raise BenchError("no successful replies to take a percentile of")
    ranked = sorted(samples)
    return ranked[max(0, min(len(ranked), _rank(pct, len(ranked))) - 1)]


@dataclass
class Run:
    """Everything the rounds of one workload measured.  ``latency[op]``
    holds one list per round, a request's latency at the reference speed
    at its position in the list (``None`` if it failed); ``raw[op]`` the
    same as observed."""

    setup: list[float] = field(default_factory=list)
    latency: dict[str, list[list]] = field(default_factory=lambda: defaultdict(list))
    raw: dict[str, list[list]] = field(default_factory=lambda: defaultdict(list))
    raw_setup: list[float] = field(default_factory=list)
    raw_recovery: list[float] = field(default_factory=list)
    attempted: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    failed: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    reply_bytes: int = 0
    update_bytes: int = 0
    recovery: list[float] = field(default_factory=list)
    replayed: int = 0
    run_peak_rss_mb: float = 0.0
    recovered_rss_mb: list[float] = field(default_factory=list)
    client_cpu: float = 0.0
    server_cpu: float = 0.0
    stats: dict = field(default_factory=dict)
    wal_bytes: int = 0
    window: tuple[int, int] = (0, 0)
    spans: Path | None = None
    recovery_spans: Path | None = None
    failures: list[str] = field(default_factory=list)
    phases: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    speed: ReferenceLoop = field(default_factory=ReferenceLoop)

    def per_request(self, op: str, observed: bool = False) -> list[float]:
        """Each request's median successful latency over the rounds."""
        rounds = (self.raw if observed else self.latency)[op]
        return [statistics.median(sent) for sent in
                ([s for s in column if s is not None]
                 for column in zip(*rounds)) if sent]

    def reads(self, observed: bool = False) -> list[float]:
        return [s for op in READ_OPS for s in self.per_request(op, observed)]

    def last_round_reads(self) -> list[float]:
        return [s for op in READ_OPS if self.raw[op]
                for s in self.raw[op][-1] if s is not None]


def _cpu_seconds(pid: int) -> float:
    with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Reader:
    """One closed-loop keep-alive connection over a fixed request list;
    records every reply for the checks.  Reads run before any publish, so
    every reply must come from epoch 0, and every round must serve the
    same replies."""

    def __init__(self) -> None:
        self.relations: dict[str, dict] = {}
        self.experts: dict[tuple[str, int], list] = {}
        self.mismatched: set = set()
        self.later_epochs = 0

    def _remember(self, store: dict, key, value) -> None:
        previous = store.setdefault(key, value)
        if previous is not value and previous != value:
            self.mismatched.add(key)

    def run_all(self, run: Run, port: int, requests: list) -> None:
        client = Client(port)
        rounds: dict[str, list] = {op: [] for op in READ_OPS}
        try:
            for op, payload in requests:
                status, body, seconds = client.request(
                    "POST", f"/graphs/g/{op}", payload
                )
                end = time.perf_counter()
                run.speed.tick()
                run.attempted[op] += 1
                if status != 200:
                    run.failed[op] += 1
                    rounds[op].append(None)
                    continue
                rounds[op].append((end - seconds, end))
                run.reply_bytes += len(body)
                reply = json.loads(body)
                self.later_epochs += reply["epoch"] != 0
                if op == "evaluate":
                    self._remember(self.relations, payload["pattern"],
                                   reply["relation"])
                elif op == "batch":
                    for text, item in zip(payload["patterns"], reply["results"]):
                        self._remember(self.relations, text, item["relation"])
                else:
                    self._remember(self.experts, (payload["pattern"], payload["k"]),
                                   reply["experts"])
        finally:
            client.close()
        run.speed.sample(NEAREST // 2)  # the last reads' speed
        for op, spans in rounds.items():
            if spans:
                record(run, op, spans)


def record(run: Run, op: str, spans: list) -> None:
    """Keep one round's ``(start, end)`` spans of ``op`` (``None`` for a
    failed request) as latencies, observed and at the reference speed;
    the reference samples around them must already be taken."""
    speed = run.speed
    run.raw[op].append([None if span is None else span[1] - span[0]
                        for span in spans])
    run.latency[op].append([None if span is None else
                            (span[1] - span[0]) * speed.scale(*span)
                            for span in spans])


def write(run: Run, port: int, batches: list) -> list[int]:
    """Send every batch in a closed loop, timing each ``/update`` reply;
    returns the acknowledged epochs."""
    client = Client(port)
    spans: list = []
    acked: list[int] = []
    try:
        for batch in batches:
            payload = {"updates": batch}
            status, body, seconds = client.request("POST", "/graphs/g/update",
                                                   payload)
            end = time.perf_counter()
            run.speed.tick()
            run.attempted["update"] += 1
            run.update_bytes += len(json.dumps(payload))
            if status != 200:
                run.failed["update"] += 1
                spans.append(None)
                continue
            spans.append((end - seconds, end))
            acked.append(json.loads(body)["epoch"])
    finally:
        client.close()
    run.speed.sample(NEAREST // 2)  # the last publishes' speed
    record(run, "update", spans)
    return acked


def launch(run: Run, graph_file: Path, wal_dir: Path, checkpoint_every: int,
           spans: Path | None) -> tuple[ServerProcess, float]:
    """A server on the round's CPU and its launch time at the reference
    speed, from reference samples taken just before and after."""
    run.speed.sample(NEAREST // 2)
    start = time.perf_counter()
    server = ServerProcess(SRC, graph_file, wal_dir, checkpoint_every, spans)
    end = time.perf_counter()
    run.speed.sample(NEAREST // 2)
    return server, server.setup_s * run.speed.scale(start, end)


def play_round(run: Run, inputs, work: Path, graph_file: Path, reader: Reader,
               traced: bool, cpu: int, last: bool) -> dict[tuple[int, str], dict]:
    """One round on a fresh server: launch, warm, reads, writes, crash,
    recovery.  The server and this process share ``cpu``, so the
    reference loop times the CPU the server runs on.  Returns the relations the recovered server serves for the probe
    patterns, keyed by ``(epoch, text)``."""
    os.sched_setaffinity(0, {cpu})  # the server inherits it
    wal_dir = work / "wal"
    spans = work / "spans.json" if traced else None
    checkpoint_every = len(inputs.writes) + 1  # replay length stays fixed
    clock = time.perf_counter()

    def phase(name: str) -> None:
        nonlocal clock
        now = time.perf_counter()
        run.phases[name] += now - clock
        clock = now

    server, setup_s = launch(run, graph_file, wal_dir, checkpoint_every, spans)
    after: dict[tuple[int, str], dict] = {}
    try:
        run.setup.append(setup_s)
        run.raw_setup.append(server.setup_s)
        control = Client(server.port)
        phase("setup")
        for text in inputs.hot:  # warm the epoch cache, untimed
            status, body, _ = control.request("POST", "/graphs/g/evaluate",
                                              {"pattern": text})
            if status != 200:
                raise BenchError(f"warm-up failed: {status} {body[:200]!r}")
        phase("warm")
        cpu0, server_cpu0 = time.process_time(), _cpu_seconds(server.proc.pid)
        window_start = time.perf_counter_ns()
        reader.run_all(run, server.port, inputs.reads)
        acked = write(run, server.port, inputs.writes)
        window_end = time.perf_counter_ns()
        phase("timed")
        if acked != list(range(1, len(inputs.writes) + 1)):
            run.failures.append("acknowledged epochs are not 1..N in order")
        # An attribute-only batch leaves graph_version unchanged
        # (Graph.copy restarts the version counter), so recovery is
        # checked against the WAL's applied LSN.
        applied = control.get_json("/health")["wal"]["graphs"]["g"]["applied_lsn"]
        if last:
            elapsed = (window_end - window_start) / 1e9
            run.client_cpu = (time.process_time() - cpu0) / elapsed
            run.server_cpu = (_cpu_seconds(server.proc.pid) - server_cpu0) / elapsed
            run.window = (window_start, window_end)
            run.stats = control.get_json("/stats")
            run.run_peak_rss_mb = server.peak_rss_mb()
            run.wal_bytes = _dir_bytes(wal_dir)
            if traced:
                server.dump_spans()
                run.spans = spans
        control.close()
        server.kill()  # crash after the last acknowledged batch

        recovery_spans = work / "recovery_spans.json" if traced else None
        server, recovery_s = launch(run, graph_file, wal_dir, checkpoint_every,
                                    recovery_spans)
        run.recovery.append(recovery_s)
        run.raw_recovery.append(server.setup_s)
        run.recovered_rss_mb.append(server.peak_rss_mb())
        for line in server.output:
            if line.startswith("recovered 'g': replayed"):
                run.replayed = int(line.split()[3])
        control = Client(server.port)
        recovered = control.get_json("/health")["wal"]["graphs"]["g"]["applied_lsn"]
        if recovered != applied:
            run.failures.append(
                f"recovered applied_lsn {recovered} != acknowledged {applied}"
            )
        if last:
            final = len(inputs.writes)
            probe = inputs.hot or [p["pattern"] for op, p in inputs.reads
                                   if op != "batch"]
            for text in probe[:8]:
                status, body, _ = control.request("POST", "/graphs/g/evaluate",
                                                  {"pattern": text})
                if status != 200:
                    run.failures.append(f"post-recovery evaluate -> {status}")
                    continue
                after[(final, text)] = json.loads(body)["relation"]
        control.close()
    finally:
        if traced and last:
            server.stop()  # graceful: the traced launcher writes its spans
            run.recovery_spans = recovery_spans
        else:
            server.kill()
    phase("recovery")
    return after


def run_workload(inputs, work: Path, traced: bool) -> Run:
    import checks
    from repro.graph.io import load_graph, save_graph

    run = Run()
    work.mkdir(parents=True, exist_ok=True)
    graph_file = work / "g.json"
    save_graph(inputs.graph(), graph_file)
    reader = Reader()
    after: dict = {}
    cpus = sorted(os.sched_getaffinity(0))
    try:
        for index in range(ROUNDS):  # each round on the next CPU
            after = play_round(run, inputs, work / f"round{index}", graph_file,
                               reader, traced, cpus[index % len(cpus)],
                               last=index == ROUNDS - 1)
    finally:
        os.sched_setaffinity(0, cpus)

    # ---- output checks (outside every timed phase) ----
    clock = time.perf_counter()
    if reader.mismatched:
        run.failures.append(f"{len(reader.mismatched)} keys served differing replies")
    if reader.later_epochs:
        run.failures.append(f"{reader.later_epochs} read-phase replies not at epoch 0")
    graph = load_graph(graph_file)
    canon = checks.canonical
    run.failures += checks.check_relations(
        graph, {text: canon(rel) for text, rel in reader.relations.items()}
    )
    run.failures += checks.check_topk(
        graph, {key: canon(experts) for key, experts in reader.experts.items()}
    )
    run.failures += checks.check_epochs(
        graph, inputs.writes, {key: canon(rel) for key, rel in after.items()}
    )
    run.phases["checks"] = time.perf_counter() - clock
    return run


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------
def end_to_end(run: Run, observed: bool = False) -> dict[str, float]:
    """The end-to-end metrics at the reference speed, or as observed."""
    reads = run.reads(observed)
    return {
        "setup_s": statistics.median(run.raw_setup if observed else run.setup),
        "read_qps": len(reads) / sum(reads),
        "read_p50_ms": percentile(reads, 50) * 1e3,
        "read_tail_ms": percentile(reads, tail_percentile(len(reads))) * 1e3,
        "publish_p50_ms": percentile(run.per_request("update", observed), 50) * 1e3,
        "recovery_s": statistics.median(run.raw_recovery if observed else run.recovery),
        "server_rss_mb": statistics.median(run.recovered_rss_mb),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(run: Run, untraced: Run) -> dict[str, float]:
    dump = tracer.load(str(run.spans))
    spans, events = tracer.select_roots(dump, *run.window)
    self_ms, total_ms, calls = tracer.layer_totals(spans)
    counts = tracer.event_totals(events)
    life_self, life_total, life_calls = tracer.layer_totals(dump["spans"])
    rec = tracer.load(str(run.recovery_spans))
    rec_self, rec_total, rec_calls = tracer.layer_totals(rec["spans"])
    stats = run.stats
    counters = stats["registry"]["counters"]
    wal = stats["wal"]["wal"]
    admission = stats["admission"]
    publishes = calls.get("registry.publish", 0)
    service_reads = sum(total_ms.get(f"service.{op}", 0.0)
                        for op in ("evaluate", "batch", "topk"))
    matcher = sum(self_ms.get(name, 0.0) for name in (
        "candidates", "kernel", "translate", "fixpoint", "match_bounded",
        "match_simulation"))

    def s(name: str) -> float:
        return self_ms.get(name, 0.0)

    traced_e2e, plain_e2e = end_to_end(run), end_to_end(untraced)
    metrics = {
        "app.http_overhead_ms": sum(run.last_round_reads()) * 1e3 - service_reads,
        "app.request_self_ms": s("app.request"),
        "app.reply_bytes": run.reply_bytes,
        "wire.decode_ms": s("wire.decode"),
        "wire.encode_ms": s("wire.encode"),
        "admission.wait_ms": s("admission.wait"),
        "admission.rejected": admission["rejected"],
        "admission.peak_inflight": admission["peak_inflight"],
        "registry.pin_ms": s("registry.pin"),
        "registry.eval_self_ms": s("registry.evaluate") + s("registry.top_k"),
        "registry.publish_ms": total_ms.get("registry.publish", 0.0),
        "registry.publish_self_ms": s("registry.publish"),
        "registry.epochs_published": counters["epochs_published"],
        "registry.freezes": counters["freezes"],
        "cache.hits": counts.get("cache.hits", 0),
        "cache.lookups": counts.get("cache.lookups", 0),
        "cache.hit_ratio": _ratio(counts.get("cache.hits", 0),
                                  counts.get("cache.lookups", 0)),
        "cache.evictions": counts.get("cache.evictions", 0),
        "cache.probe_ms": s("cache.probe"),
        "rank_cache.hit_ratio": _ratio(counts.get("rank_cache.hits", 0),
                                       counts.get("rank_cache.lookups", 0)),
        "candidates_ms": s("candidates"),
        "candidates.per_match": _ratio(counts.get("candidates.nodes", 0),
                                       counts.get("match.nodes", 0)),
        "kernel_ms": s("kernel"),
        "kernel.row_entries": counts.get("kernel.row_entries", 0),
        "translate_ms": s("translate"),
        "fixpoint_ms": s("fixpoint"),
        "fixpoint.removed": counts.get("fixpoint.removed", 0),
        "match.survivor_ratio": _ratio(counts.get("match.pairs", 0),
                                       counts.get("candidates.nodes", 0)),
        "match_bounded_ms": s("match_bounded"),
        "match_simulation_ms": s("match_simulation"),
        "service.matcher_share": _ratio(matcher, service_reads),
        "result_graph_ms": s("result_graph"),
        "result_graph.edges": counts.get("result_graph.edges", 0),
        "rank.context_ms": s("rank.context"),
        "rank.select_ms": s("rank.select"),
        "rank.dijkstra_runs": counts.get("rank.dijkstra_runs", 0),
        "rank.pruned_ratio": _ratio(
            counts.get("rank.pruned_by_bound", 0),
            counts.get("rank.pruned_by_bound", 0) + counts.get("rank.details_scored", 0)),
        "apply_ms": s("apply"),
        "graph_copy_ms": s("graph_copy"),
        "graph_copy.per_publish": _ratio(calls.get("graph_copy", 0), publishes),
        "freeze_ms": s("freeze"),
        "prewarm_ms": s("prewarm"),
        "wal.append_ms": s("wal.append"),
        "wal.sync_ms": s("wal.sync"),
        "wal.fsyncs": wal["fsyncs"],
        "wal.bytes_per_batch": _ratio(counts.get("wal.frame_bytes", 0), publishes),
        "wal.write_amp": _ratio(run.wal_bytes, run.update_bytes),
        "checkpoint_ms": life_total.get("checkpoint", 0.0),
        "checkpoint.count": life_calls.get("checkpoint", 0),
        "store.save_ms": life_self.get("store.save", 0.0),
        "store.load_ms": rec_self.get("store.load", 0.0),
        "recover.replay_ms": rec_total.get("recover", 0.0),
        "recover.replayed": run.replayed,
        "trace.spans": len(spans),
    }
    for name in ("read_p50_ms", "read_qps", "publish_p50_ms", "setup_s"):
        metrics[f"trace.overhead.{name}"] = traced_e2e[name] - plain_e2e[name]
    return metrics


# ---------------------------------------------------------------------------
def report(run: Run, workload: str) -> None:
    """Human-readable lines: per-operation latencies, failures and noise."""
    for op in ("evaluate", "batch", "topk", "update"):
        if not run.attempted[op]:
            continue
        name = "publish" if op == "update" else op
        samples = run.per_request(op)
        if samples:
            pct = tail_percentile(len(samples))
            rounds = [percentile([s for s in sent if s is not None], 50) * 1e3
                      for sent in run.latency[op]]
            observed = [percentile([s for s in sent if s is not None], 50) * 1e3
                        for sent in run.raw[op]]
            print(f"{workload}: {name}_p50_ms {percentile(samples, 50) * 1e3:.3f} ms  "
                  f"{name}_tail_ms (p{pct:g}, n={len(samples)}) "
                  f"{percentile(samples, pct) * 1e3:.3f} ms  (median of "
                  f"{len(rounds)} rounds; each round's p50 "
                  f"{[round(r, 3) for r in rounds]} ms, as observed "
                  f"{[round(r, 3) for r in observed]} ms)")
        print(f"{workload}: {name} failed/attempted "
              f"{run.failed[op]}/{run.attempted[op]}")
    loops = [seconds * 1e3 for seconds in run.speed.seconds]
    quartiles = statistics.quantiles(loops, n=4)
    print(f"{workload}: reference loop {len(loops)} samples, median "
          f"{statistics.median(loops):.3f} ms (quartiles {quartiles[0]:.3f}, "
          f"{quartiles[2]:.3f}); reference speed {REFERENCE_MS} ms")
    print(f"{workload}: as observed: " + ", ".join(
        f"{name} {value:.6g}" for name, value in end_to_end(run, True).items()))
    print(f"{workload}: load-process cpu {run.client_cpu:.2f} core, "
          f"server cpu {run.server_cpu:.2f} core over the last timed phase")
    print(f"{workload}: phase wall seconds " + ", ".join(
        f"{name} {seconds:.1f}" for name, seconds in run.phases.items()))
    print(f"{workload}: server peak RSS over the last round "
          f"{run.run_peak_rss_mb:.1f} MB, recovered servers "
          f"{[round(m, 1) for m in run.recovered_rss_mb]} MB")
    print(f"{workload}: setup samples {[round(s, 4) for s in run.setup]}, "
          f"recovery samples {[round(s, 4) for s in run.recovery]} "
          f"(replayed {run.replayed} batch(es))")


def print_metrics(workload: str, metrics: dict[str, tuple[float, str]]) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{workload}: {name} = {value:.6g} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="sizes the fixed request lists (about this long "
                             "on a 2-core host)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    for path in (str(SRC), str(BENCH_DIR)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import inputs

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {metric["name"]: metric["unit"]
             for metric in spec["end_to_end"] + spec["per_layer"]}
    generated = inputs.make_inputs(args.workload, args.seed, args.seconds)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        runs = [run_workload(generated, work / "plain", False)]
        report(runs[0], args.workload)
        metrics = {name: (value, units[name])
                   for name, value in end_to_end(runs[0]).items()}
        if args.trace:
            runs.append(run_workload(generated, work / "traced", True))
            print_metrics(args.workload, metrics)
            metrics = {name: (value, units[name])
                       for name, value in per_layer(runs[1], runs[0]).items()}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            work.parent.rmdir()
    print_metrics(args.workload, metrics)
    failures = [failure for run in runs for failure in run.failures]
    for failure in failures:
        print(f"{args.workload}: CHECK FAILED: {failure}")
    result = {
        "correct": not failures,
        "attempted": sum(sum(r.attempted.values()) for r in runs),
        "failed": sum(sum(r.failed.values()) for r in runs),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
