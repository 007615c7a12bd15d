"""The server process under test and a keep-alive HTTP client for it.

:class:`ServerProcess` launches the real ``expfinder serve`` (``python -m
repro.cli serve``, or :mod:`traced_serve` for a traced run) in its own
process on an ephemeral port and times launch → ``/health`` listing the
graph.  :class:`Client` is one HTTP/1.1 keep-alive connection timing each
request from send to the last reply byte.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
STARTUP_TIMEOUT = 120.0


class BenchError(RuntimeError):
    """A run that cannot produce a result (server failed, check failed)."""


class Client:
    """One keep-alive connection; the closed-loop unit of load."""

    def __init__(self, port: int, timeout: float = 120.0) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
        self.conn.connect()
        self.conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def request(self, method: str, path: str, payload: dict | None = None
                ) -> tuple[int, bytes, float]:
        """``(status, body, seconds)``, timed from send to last body byte."""
        body = None if payload is None else json.dumps(payload)
        start = time.perf_counter()
        self.conn.request(method, path, body=body)
        response = self.conn.getresponse()
        data = response.read()
        return response.status, data, time.perf_counter() - start

    def get_json(self, path: str) -> dict:
        status, data, _ = self.request("GET", path)
        if status != 200:
            raise BenchError(f"GET {path} -> {status}: {data[:200]!r}")
        return json.loads(data)

    def close(self) -> None:
        self.conn.close()


class ServerProcess:
    """``expfinder serve`` in a child process, with its launch time."""

    def __init__(self, src: Path, graph_file: Path, wal_dir: Path,
                 checkpoint_every: int, spans_file: Path | None = None) -> None:
        serve = ["serve", "--port", "0", "--graph", f"g={graph_file}",
                 "--wal-dir", str(wal_dir),
                 "--checkpoint-every", str(checkpoint_every)]
        if spans_file is None:
            command = [sys.executable, "-m", "repro.cli", *serve]
        else:
            command = [sys.executable, str(BENCH_DIR / "traced_serve.py"),
                       str(spans_file), *serve]
        self.spans_file = spans_file
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env["PYTHONUNBUFFERED"] = "1"
        # String hashing is not an input of the benchmark: pin it, so set
        # and dict layouts (and the work done iterating them) repeat.
        env["PYTHONHASHSEED"] = "0"
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            env=env, text=True,
        )
        self.output: list[str] = []
        lines: queue.Queue[str | None] = queue.Queue()
        self._reader = threading.Thread(target=self._drain, args=(lines,), daemon=True)
        self._reader.start()
        self.port = self._wait_for_port(lines)
        client = Client(self.port)
        try:
            while "g" not in client.get_json("/health").get("graphs", []):
                time.sleep(0.001)
        finally:
            client.close()
        self.setup_s = time.perf_counter() - start

    def _drain(self, lines: "queue.Queue[str | None]") -> None:
        for line in self.proc.stdout:
            self.output.append(line)
            lines.put(line)
        lines.put(None)

    def _wait_for_port(self, lines: "queue.Queue[str | None]") -> int:
        deadline = time.monotonic() + STARTUP_TIMEOUT
        while True:
            try:
                line = lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                line = None
            if line is None:
                self.kill()
                raise BenchError("server did not start:\n" + "".join(self.output))
            if line.startswith("serving on http://"):
                return int(line.split()[2].rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server process, in MB."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")

    def dump_spans(self, timeout: float = 30.0) -> None:
        """Ask a traced server to write its spans (SIGUSR1) and wait for it."""
        if self.spans_file is None:
            raise BenchError("the server was launched without a tracer")
        before = self.spans_file.stat().st_mtime_ns if self.spans_file.exists() else 0
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.spans_file.exists() and self.spans_file.stat().st_mtime_ns != before:
                return
            time.sleep(0.01)
        raise BenchError("traced server did not dump its spans")

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful SIGTERM (drain, final checkpoint); SIGKILL if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self._reap()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self._reap()

    def _reap(self) -> None:
        self.proc.wait()
        self._reader.join(timeout=5)
        self.proc.stdout.close()
