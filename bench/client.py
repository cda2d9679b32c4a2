"""Lean load generators and the ``repro serve`` subprocess handle.

Blocking sockets and ``http.client`` on purpose: the server answers
``Connection: close``, so one short-lived connection per request is what
any real tool pays too, and a blocking client on its own core is never
the bottleneck the way an asyncio client sharing the server's event loop
is.  Everything talks to loopback — these numbers say nothing about a
real link.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from bench.common import SRC

HOST = "127.0.0.1"


def free_port() -> int:
    """A loopback port that was free a moment ago (``--ingest-port`` has
    no port file, so the benchmark picks the port itself)."""
    with socket.socket() as sock:
        sock.bind((HOST, 0))
        return sock.getsockname()[1]


class Server:
    """One ``python -m repro serve`` subprocess on loopback."""

    def __init__(self, workdir: str, extra_args: Sequence[str]) -> None:
        os.makedirs(workdir, exist_ok=True)
        self.port_file = os.path.join(workdir, f"port-{os.getpid()}.txt")
        self.log_path = os.path.join(workdir, "server.log")
        if os.path.exists(self.port_file):
            os.remove(self.port_file)
        self.ingest_port = free_port()
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self._log = open(self.log_path, "w")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--port-file", self.port_file, "--telemetry", "tcp",
             "--ingest-port", str(self.ingest_port),
             "--executor", "inline", *extra_args],
            cwd=workdir, env=env, stdout=self._log,
            stderr=subprocess.STDOUT)
        try:
            self.port = self._await_port(timeout=60.0)
        except BaseException:
            self.kill()
            raise
        #: spawn -> port file written (the server is listening)
        self.startup_s = time.perf_counter() - started

    def _await_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited {self.proc.returncode} before "
                    f"listening; see {self.log_path}")
            try:
                with open(self.port_file) as handle:
                    text = handle.read()
                if text.endswith("\n"):
                    return int(text)
            except FileNotFoundError:
                pass
            time.sleep(0.005)
        raise RuntimeError("repro serve did not write its port file")

    # -- requests --------------------------------------------------------------

    def request(self, method: str, path: str,
                body: Optional[bytes] = None) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection(HOST, self.port, timeout=60.0)
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def get_json(self, path: str) -> Any:
        status, raw = self.request("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} -> {status}: {raw[:200]!r}")
        return json.loads(raw)

    def records_seen(self) -> int:
        return int(self.get_json("/healthz")["records_seen"])

    # -- telemetry -------------------------------------------------------------

    def ingest(self, payload: bytes, target: int,
               expect_s: Optional[float] = None,
               timeout: float = 120.0) -> float:
        """Send ``payload`` flat-out over one TCP connection and return the
        wall from the first byte until ``/healthz`` reports ``target``
        records folded in (TCP backpressure makes this the server's
        capacity).  Polling costs the server time, so with ``expect_s``
        (how long this payload took before) the client sleeps through
        most of it and polls every millisecond only near the end."""
        with socket.create_connection((HOST, self.ingest_port)) as sock:
            started = time.perf_counter()
            sock.sendall(payload)
        if expect_s is not None:
            time.sleep(max(0.0, 0.9 * expect_s
                           - (time.perf_counter() - started)))
        poll_s = 0.001 if expect_s is not None else 0.004
        deadline = time.monotonic() + timeout
        while True:
            seen = self.records_seen()
            now = time.perf_counter()
            if seen >= target:
                return now - started
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"ingest stalled at {seen}/{target} records")
            time.sleep(poll_s)

    # -- lifecycle -------------------------------------------------------------

    def peak_rss_mb(self) -> float:
        """The server's high-water RSS (``VmHWM``), read while it lives."""
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not found")

    def stop(self, timeout: float = 30.0) -> int:
        """SIGTERM, wait for the drain, return the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.kill()
                return -9
        self._close()
        return self.proc.returncode

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self._close()

    def _close(self) -> None:
        if not self._log.closed:
            self._log.close()
        if os.path.exists(self.port_file):
            os.remove(self.port_file)


def paced_send(server: Server, batches: List[bytes], rate_lines_per_s: float,
               lines_per_batch: int, stop: Callable[[], bool]) -> List[float]:
    """Open-loop sender: batch ``k`` is *due* at ``k * lines/rate`` whatever
    happened to earlier batches; returns how late each batch finished
    sending, measured from when it was due (ms)."""
    late_ms: List[float] = []
    period = lines_per_batch / rate_lines_per_s
    with socket.create_connection((HOST, server.ingest_port)) as sock:
        origin = time.perf_counter()
        for index, batch in enumerate(batches):
            if stop():
                break
            due = origin + index * period
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sock.sendall(batch)
            late_ms.append((time.perf_counter() - due) * 1e3)
    return late_ms


def join_lines(lines: Sequence[str]) -> bytes:
    return ("\n".join(lines) + "\n").encode()


def whatif(server: Server, body: bytes) -> Tuple[float, int, Dict[str, Any]]:
    """One closed-loop ``POST /whatif``: (latency_s, status, reply)."""
    started = time.perf_counter()
    status, raw = server.request("POST", "/whatif", body)
    latency = time.perf_counter() - started
    try:
        reply = json.loads(raw)
    except ValueError:
        reply = {}
    return latency, status, reply
