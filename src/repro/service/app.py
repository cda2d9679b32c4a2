"""The control-plane service: ingestion, arbitration, queries, drain.

:class:`ControlPlaneService` is what ``repro serve`` runs — one asyncio
process hosting three loops over shared fleet state:

* the **ingestion loop** pulls telemetry records from the configured
  source (synthetic lifecycle replay, JSONL file tail, or TCP ingest
  connections) through a bounded queue and folds them into the
  :class:`~repro.fleet.monitor.EvidenceMonitor` the evidence table
  (:data:`repro.service.config.EVIDENCE`) binds for ``config.evidence``;
* the **HTTP front end** serves ``/metrics`` (Prometheus text
  exposition: the obs registry plus labeled per-link service series),
  ``/state``, ``/decisions``, ``/healthz``, and ``POST /whatif``;
* **dispatcher tasks** execute admitted what-if queries on a worker
  pool and file results into the LRU cache.

Admission control is deliberately boring: a what-if request either hits
the cache (answered inline), takes a slot in the bounded query queue
(answered when a dispatcher finishes it), or is refused with 429.  A
draining service refuses with 503.  Nothing ever blocks the event loop
on a worker, so ``/metrics`` stays scrapeable at any load.

Graceful shutdown (SIGTERM/SIGINT) runs :meth:`begin_drain`: stop
admitting, cancel ingestion, answer every *queued* query 503, let
*in-flight* queries finish (bounded by ``drain_timeout_s``), flush a
versioned state snapshot, exit 0.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import signal
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..core.spec import Spec
from ..core.state import SnapshotError
from ..fleet.cost import lg_effective_loss_rate, lg_effective_speed_fraction
from ..fleet.topology import FleetTopology
from ..obs import Observability
from ..obs.export import prometheus_line, prometheus_text
from ..runner.cells import run_cell
from .cache import QueryError, WhatIfCache, WhatIfQuery
from .config import EVIDENCE, ServiceConfig
from .http import HttpError, Request, Response, json_response, serve
from .telemetry import (
    TelemetryError, file_source, paced_source, stream_source,
)

__all__ = [
    "ControlPlaneService", "ServiceSnapshot", "load_snapshot",
    "SNAPSHOT_VERSION",
]

#: bump when ServiceSnapshot's layout changes
SNAPSHOT_VERSION = 1

_PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _whatif_worker(spec_dict: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one what-if cell; runs inside a pool worker process.

    Module-level (picklable) on purpose.  Series are dropped from the
    payload — a what-if answer is the summary metrics, not ten thousand
    FCT samples crossing a pipe per query.
    """
    result = run_cell(spec_dict)
    return {
        "cell_id": result.cell_id,
        "spec": result.spec,
        "backend": result.backend,
        "metrics": result.metrics,
        "compute_wall_s": result.wall_s,
    }


@dataclass
class ServiceSnapshot(Spec):
    """The durable state flushed at graceful shutdown."""

    VERSION = SNAPSHOT_VERSION

    version: int = SNAPSHOT_VERSION
    config: Dict[str, Any] = field(default_factory=dict)
    counts: Dict[str, Any] = field(default_factory=dict)
    cache: Dict[str, Any] = field(default_factory=dict)
    decisions: List[dict] = field(default_factory=list)
    episodes: List[dict] = field(default_factory=list)
    state: Dict[str, Any] = field(default_factory=dict)


def load_snapshot(path: str) -> ServiceSnapshot:
    """Read back a shutdown snapshot.  The file comes from outside this
    process (an earlier run, maybe an older version), so its version is
    checked: a stale one raises :class:`SnapshotError`."""
    with open(path) as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise SnapshotError("service snapshot is not an object")
    version = data.get("version")
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"ServiceSnapshot version {version} != "
            f"current {SNAPSHOT_VERSION}; snapshot is stale")
    return ServiceSnapshot.from_dict(data)


class _Job:
    """One admitted query waiting for (or on) a dispatcher."""

    __slots__ = ("query", "key", "future")

    def __init__(self, query: WhatIfQuery, key: str,
                 future: "asyncio.Future[dict]") -> None:
        self.query = query
        self.key = key
        self.future = future


class ControlPlaneService:
    """One running control-plane instance (see module docstring)."""

    def __init__(self, config: ServiceConfig,
                 obs: Optional[Observability] = None) -> None:
        self.config = config
        self.obs = obs if obs is not None else Observability(tracing=False)
        self.topology = FleetTopology(config.fleet, seed=config.seed)
        # One monitor loop for every evidence kind; what the ingest
        # stream carries and which estimator folds it is the table row.
        kind = EVIDENCE[config.evidence]
        self._parse_line = kind.parse_line
        self.arbiter = kind.monitor(
            config, self.topology, config.controller, config.policy,
            onset_threshold=config.onset_threshold,
            clear_hysteresis=config.clear_hysteresis,
            decision_log=config.decision_log,
            obs=self.obs)
        self.cache = WhatIfCache(config.cache_size)
        self.draining = False
        self.port: Optional[int] = None          # bound HTTP port
        self.ingest_port: Optional[int] = None   # bound TCP ingest port
        self._server: Optional[asyncio.base_events.Server] = None
        self._ingest_server: Optional[asyncio.base_events.Server] = None
        self._queue: Optional[asyncio.Queue] = None
        self._ingest_queue: Optional[asyncio.Queue] = None
        self._tasks: List[asyncio.Task] = []
        self._pool = None
        self._inflight = 0
        self._rejected_429 = 0
        self._rejected_503 = 0
        self._bad_lines = 0
        self._ingest_done = asyncio.Event()
        self._shutdown = asyncio.Event()
        self.drained = asyncio.Event()
        registry = self.obs.registry
        self._queries_total = registry.counter("service.queries")
        self._scrapes_total = registry.counter("service.scrapes")
        registry.register_provider("service", self._service_stats)

    # -- service gauges --------------------------------------------------------

    def _service_stats(self) -> Dict[str, Any]:
        return {
            "queue_depth": self._queue.qsize() if self._queue else 0,
            "inflight_queries": self._inflight,
            "ingest_lag": self._ingest_queue.qsize() if self._ingest_queue else 0,
            "cache_hit_rate": self.cache.hit_rate(),
            "cache_size": len(self.cache),
            "rejected_429": self._rejected_429,
            "rejected_503": self._rejected_503,
            "telemetry_bad_lines": self._bad_lines,
            "draining": int(self.draining),
        }

    def _labeled_lines(self) -> List[str]:
        """Per-link exposition lines appended after the registry dump."""
        policy = self.config.policy
        lines = ["# TYPE repro_service_link_loss_estimate gauge"]
        for link_id, loss in self.arbiter.corrupting_links():
            link = self.topology.link(link_id)
            lines.append(prometheus_line(
                "repro_service_link_loss_estimate",
                {"link": link_id, "pod": link.pod, "kind": link.kind},
                loss))
        lines.append("# TYPE repro_service_link_lg_active gauge")
        for link_id in self.arbiter.controller.lg_active_links():
            link = self.topology.link(link_id)
            lines.append(prometheus_line(
                "repro_service_link_lg_active",
                {"link": link_id, "pod": link.pod, "policy": policy}, 1))
        lines.append("# TYPE repro_service_shard_links gauge")
        for pod, size in self.arbiter.shard_sizes().items():
            lines.append(prometheus_line(
                "repro_service_shard_links", {"pod": pod}, size))
        return lines

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        """Bind, spin up workers and ingestion; returns once listening."""
        config = self.config
        self._queue = asyncio.Queue(maxsize=config.queue_limit)
        self._ingest_queue = asyncio.Queue(maxsize=config.ingest_queue)
        if config.executor == "process":
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=config.workers)
        elif config.executor == "thread":
            self._pool = concurrent.futures.ThreadPoolExecutor(
                max_workers=config.workers)
        for _ in range(config.max_inflight):
            self._tasks.append(asyncio.create_task(self._dispatcher()))
        await self._start_telemetry()
        self._server = await serve(self.handle, config.host, config.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def _start_telemetry(self) -> None:
        config = self.config
        if config.telemetry == "none":
            self._ingest_done.set()
            return
        self._tasks.append(asyncio.create_task(self._ingest_consumer()))
        if config.telemetry == "synthetic":
            self._tasks.append(asyncio.create_task(self._pump_records(
                paced_source(config.synthetic_feed(), config.interval_s))))
        elif config.telemetry == "file":
            self._tasks.append(asyncio.create_task(
                self._pump_lines(file_source(
                    config.telemetry_file, follow=config.follow))))
        elif config.telemetry == "tcp":
            self._ingest_server = await asyncio.start_server(
                self._ingest_connection, config.host, config.ingest_port)
            self.ingest_port = (
                self._ingest_server.sockets[0].getsockname()[1])

    async def _pump_records(self, source) -> None:
        try:
            async for record in source:
                await self._ingest_queue.put(record)
        finally:
            self._ingest_done.set()

    async def _ingest_lines(self, source) -> None:
        async for line in source:
            if not line.strip():
                continue
            try:
                record = self._parse_line(line)
            except TelemetryError:
                self._bad_lines += 1
                continue
            await self._ingest_queue.put(record)

    async def _pump_lines(self, source) -> None:
        try:
            await self._ingest_lines(source)
        finally:
            self._ingest_done.set()

    async def _ingest_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            await self._ingest_lines(stream_source(reader))
        finally:
            writer.close()

    async def _ingest_consumer(self) -> None:
        while True:
            record = await self._ingest_queue.get()
            try:
                self.arbiter.observe(record)
            finally:
                self._ingest_queue.task_done()

    async def wait_ingest_idle(self) -> None:
        """Until the non-tailing source is exhausted *and* folded in."""
        await self._ingest_done.wait()
        await self._ingest_queue.join()

    # -- query dispatch --------------------------------------------------------

    async def _run_spec(self, spec_dict: Dict[str, Any]) -> Dict[str, Any]:
        if self._pool is None:  # executor == "inline" (tests/debugging)
            return _whatif_worker(spec_dict)
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._pool, _whatif_worker, spec_dict)

    async def _dispatcher(self) -> None:
        while True:
            job = await self._queue.get()
            try:
                if job.future.done():     # abandoned: client timed out
                    continue
                # Dog-pile guard: a duplicate admitted while its twin
                # was still computing finds the result here instead of
                # spending a worker slot on it.
                hit, cached = self.cache.get(job.key, record_miss=False)
                if hit:
                    result = dict(cached)
                    result["requeue_cache_hit"] = True
                    job.future.set_result(result)
                    continue
                self._inflight += 1
                try:
                    started = time.perf_counter()
                    result = await self._run_spec(job.query.to_spec_dict())
                    result["dispatch_wall_s"] = time.perf_counter() - started
                    self.cache.put(job.key, result)
                    if not job.future.done():
                        job.future.set_result(result)
                except Exception as exc:
                    if not job.future.done():
                        job.future.set_exception(
                            HttpError(500, f"query failed: {exc}"))
                finally:
                    self._inflight -= 1
            finally:
                self._queue.task_done()

    def _decision_preview(self, query: WhatIfQuery) -> Optional[dict]:
        """What the controller would do if this link degraded now."""
        if query.link is None:
            return None
        if not 0 <= query.link < self.topology.n_links:
            raise QueryError(
                f"link {query.link} out of range "
                f"[0, {self.topology.n_links})")
        link = self.topology.link(query.link)
        controller_config = self.config.controller
        loss = query.spec.loss_rate
        budget_used = len(self.arbiter.controller.lg_active_links())
        return {
            "link_id": link.link_id,
            "pod": link.pod,
            "kind": link.kind,
            "currently_corrupting": link.corrupting,
            "can_disable": self.topology.can_disable(
                link, controller_config.capacity_constraint),
            "pod_capacity_fraction": self.topology.pod_capacity_fraction(
                link.pod),
            "lg_effective_loss_rate": lg_effective_loss_rate(
                loss, controller_config.lg_target_loss),
            "lg_effective_speed_fraction": lg_effective_speed_fraction(loss),
            "activation_headroom": (
                controller_config.activation_budget - budget_used),
        }

    async def _handle_whatif(self, request: Request) -> Response:
        if self.draining:
            self._rejected_503 += 1
            return json_response({"error": "service draining"}, status=503)
        self._queries_total.inc()
        try:
            query = WhatIfQuery(request.json(),
                                default_backend=self.config.backend)
            preview = self._decision_preview(query)
        except QueryError as exc:
            return json_response({"error": str(exc)}, status=400)
        key = query.cache_key(self.config.loss_sigfigs)
        lookup_started = time.perf_counter()
        hit, cached = self.cache.get(key)
        if hit:
            payload = dict(cached)
            payload.update({
                "cached": True,
                "cache_key": key,
                "wall_s": time.perf_counter() - lookup_started,
                "decision_preview": preview,
            })
            return json_response(payload)
        job = _Job(query, key, asyncio.get_running_loop().create_future())
        try:
            self._queue.put_nowait(job)
        except asyncio.QueueFull:
            self._rejected_429 += 1
            return json_response(
                {"error": "query queue full", "queue_limit":
                 self.config.queue_limit},
                status=429, headers={"Retry-After": "1"})
        try:
            result = await asyncio.wait_for(
                asyncio.shield(job.future), self.config.query_timeout_s)
        except asyncio.TimeoutError:
            job.future.cancel()
            self._rejected_503 += 1
            return json_response(
                {"error": "query timed out server-side"}, status=503)
        except HttpError as exc:
            return json_response({"error": exc.detail}, status=exc.status)
        except asyncio.CancelledError:
            if job.future.cancelled():   # drain rejected the queued job
                self._rejected_503 += 1
                return json_response(
                    {"error": "service draining"}, status=503)
            raise
        payload = dict(result)
        payload.update({
            "cached": payload.pop("requeue_cache_hit", False),
            "cache_key": key,
            "wall_s": time.perf_counter() - lookup_started,
            "decision_preview": preview,
        })
        return json_response(payload)

    # -- routing ---------------------------------------------------------------

    async def handle(self, request: Request) -> Response:
        route = (request.method, request.path)
        if route == ("GET", "/metrics"):
            self._scrapes_total.inc()
            body = prometheus_text(self.obs.registry,
                                   extra_lines=self._labeled_lines())
            return Response(body=body.encode(),
                            content_type=_PROM_CONTENT_TYPE)
        if route == ("GET", "/healthz"):
            return json_response({
                "status": "draining" if self.draining else "ok",
                "records_seen": self.arbiter.records_seen,
            })
        if route == ("GET", "/state"):
            state = self.arbiter.state_dict()
            state["cache"] = self.cache.stats()
            state["service"] = self._service_stats()
            return json_response(state)
        if route == ("GET", "/decisions"):
            decisions = list(self.arbiter.decisions)
            limit = request.query.get("n")
            if limit is not None:
                try:
                    decisions = decisions[-max(0, int(limit)):]
                except ValueError:
                    raise HttpError(400, "n must be an integer") from None
            return json_response({"decisions": decisions})
        if route == ("GET", "/config"):
            return json_response(self.config.to_dict())
        if route == ("POST", "/whatif"):
            return await self._handle_whatif(request)
        if request.path in ("/metrics", "/healthz", "/state", "/decisions",
                            "/config", "/whatif"):
            raise HttpError(405, f"{request.method} not supported here")
        raise HttpError(404, f"no route for {request.path}")

    # -- graceful drain --------------------------------------------------------

    def request_shutdown(self) -> None:
        """Signal-handler entry: idempotent, callable from the loop."""
        self._shutdown.set()

    async def wait_shutdown(self) -> None:
        """Block until :meth:`request_shutdown` (a signal) fires."""
        await self._shutdown.wait()

    async def begin_drain(self) -> None:
        """SIGTERM semantics; see the module docstring.  Idempotent."""
        if self.draining:
            await self.drained.wait()
            return
        self.draining = True
        # 1. Stop ingestion: cancel pumps and the consumer; the HTTP
        #    front end stays up so clients get 503s, not resets.
        if self._ingest_server is not None:
            self._ingest_server.close()
            await self._ingest_server.wait_closed()
        for task in self._tasks:
            if task.get_coro().__name__ in (
                    "_pump_records", "_pump_lines", "_ingest_consumer"):
                task.cancel()
        # Evidence at the tail of the stream still reaches a verdict.
        self.arbiter.flush()
        # 2. Reject every *queued* (not yet started) query with 503:
        #    cancelling the job future resolves its waiting handler.
        while True:
            try:
                job = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            job.future.cancel()
            self._queue.task_done()
        # 3. Let in-flight queries finish, bounded by the drain budget.
        deadline = time.monotonic() + self.config.drain_timeout_s
        while self._inflight > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        # 4. Tear down dispatchers and the pool.
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks.clear()
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        # 5. Flush the final state snapshot before the listener drops.
        if self.config.snapshot_path:
            self.write_snapshot(self.config.snapshot_path)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.drained.set()

    def snapshot(self) -> ServiceSnapshot:
        return ServiceSnapshot(
            config=self.config.to_dict(),
            counts=self.arbiter.counts(),
            cache=self.cache.stats(),
            decisions=list(self.arbiter.decisions),
            episodes=[episode.to_dict()
                      for episode in self.arbiter.controller.episodes],
            state=self.arbiter.state_dict(),
        )

    def write_snapshot(self, path: str) -> str:
        with open(path, "w") as handle:
            json.dump(self.snapshot().to_dict(), handle, sort_keys=True)
            handle.write("\n")
        return path

    async def run(self, install_signals: bool = True) -> int:
        """Serve until SIGTERM/SIGINT, then drain; returns exit code 0."""
        await self.start()
        if install_signals:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(signum, self.request_shutdown)
        try:
            await self._shutdown.wait()
        finally:
            await self.begin_drain()
            if install_signals:
                loop = asyncio.get_running_loop()
                for signum in (signal.SIGTERM, signal.SIGINT):
                    loop.remove_signal_handler(signum)
        return 0
