"""Self-tests of the benchmark at a tiny scale (a few seconds per workload).

Run with ``PYTHONPATH=src python -m pytest perfbench``.  Each workload's
smoke run must print every end-to-end metric with its unit, report every
per-layer metric, nest every traced span inside its parent, and fail its
output checks when a reply is altered.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import inputs
import run as bench
import service
import tracer
from inputs import make_inputs

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
TINY = dict(seconds=1.0, scale=0.05)


@pytest.fixture(autouse=True)
def two_rounds(monkeypatch):
    monkeypatch.setattr(bench, "ROUNDS", 2)


def tiny(workload: str, seed: int = 3):
    return make_inputs(workload, seed, TINY["seconds"], TINY["scale"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_end_to_end_metric(workload, capsys, monkeypatch):
    monkeypatch.setattr(inputs, "make_inputs", lambda name, seed, _s: tiny(name, seed))
    code = bench.main([
        "--workload", workload, "--seed", "3", "--seconds", str(TINY["seconds"]),
        "--trace", "0",
    ])
    out = capsys.readouterr().out
    assert code == 0, out
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for metric in SPEC["end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        reported = result["metrics"][name]
        assert reported["unit"] == unit and reported["value"] > 0, name
        assert any(line.startswith(f"{workload}: {name} = ") and line.endswith(f" {unit}")
                   for line in out.splitlines()), name
    assert len(result["metrics"]) == len(SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_reports_every_layer_and_nests_spans(workload, tmp_path):
    generated = tiny(workload)
    plain = bench.run_workload(generated, tmp_path / "plain", False)
    traced = bench.run_workload(generated, tmp_path / "traced", True)
    assert plain.failures == [] and traced.failures == []

    metrics = bench.per_layer(traced, plain)
    assert set(metrics) == {metric["name"] for metric in SPEC["per_layer"]}

    for path in (traced.spans, traced.recovery_spans):
        spans = tracer.load(str(path))["spans"]
        assert spans
        by_id = {s[0]: s for s in spans}
        for span_id, parent, name, start, end, request in spans:
            assert start <= end, name
            if parent:
                outer = by_id[parent]
                assert outer[3] <= start and end <= outer[4], (name, outer[2])
                assert request == outer[5], name  # one id per request tree
        self_ms, _total, _calls = tracer.layer_totals(spans)
        assert all(ms >= 0 for ms in self_ms.values()), self_ms
    if workload == "cold_read":
        # The matcher layers do most of a cache-missing evaluate.
        assert metrics["service.matcher_share"] > 0.5


def _tamper(body: bytes) -> bytes:
    reply = json.loads(body)
    if "experts" in reply:
        reply["experts"] = reply["experts"][::-1] + [{"node": "tampered"}]
    else:
        relation = reply["relation"] if "relation" in reply else reply["results"][0]["relation"]
        relation["matches"] = {"tampered": ["u0"]}
    return json.dumps(reply).encode()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_checks_catch_an_altered_reply(workload, tmp_path, monkeypatch):
    original = service.Client.request
    reads = {"count": 0}

    def altered(self, method, path, payload=None):
        status, body, seconds = original(self, method, path, payload)
        if path.endswith(("/evaluate", "/batch", "/topk")) and status == 200:
            reads["count"] += 1
            if reads["count"] == len(tiny(workload).hot) + 2:
                body = _tamper(body)
        return status, body, seconds

    monkeypatch.setattr(service.Client, "request", altered)
    run = bench.run_workload(tiny(workload), tmp_path, False)
    assert reads["count"] > len(tiny(workload).hot) + 2
    assert run.failures, "an altered reply passed the output checks"


def test_inputs_are_seeded_and_keep_the_mix():
    first, again, other = (make_inputs("cold_read", seed, 10) for seed in (1, 1, 2))
    assert first.reads == again.reads and first.writes == again.writes
    assert first.reads != other.reads

    def topology(text):
        edges = [line.split() for line in text.splitlines() if line.startswith("edge")]
        if any(edge[-1] == "*" for edge in edges):
            return "reach"
        if len(edges) == 3:
            return "star" if all(edge[1] == "L" for edge in edges) else "chain"
        return {2: "cycle", 4: "diamond"}[len(edges)]

    def topologies(inputs):
        mix = {}
        for _op, payload in inputs.reads:
            for text in payload.get("patterns", [payload.get("pattern")]):
                mix[topology(text)] = mix.get(topology(text), 0) + 1
        return mix

    assert topologies(first) == topologies(other)


def test_missing_source_exits_nonzero(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "SRC", tmp_path / "src")
    assert bench.main(["--workload", "hot_read", "--seed", "1",
                       "--seconds", "1", "--trace", "0"]) != 0
