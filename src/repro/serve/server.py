"""Compilation-as-a-service: the async ``repro serve`` HTTP server.

:class:`CompileServer` exposes the scheduling pipeline over a minimal
HTTP/1.1 surface built on stdlib ``asyncio`` (no web framework, no new
runtime dependencies):

* ``POST /compile`` — a :mod:`~repro.serve.wire` compile request;
  answered from the shared warm :class:`~repro.engine.cache.
  ScheduleCache` on the *fast lane* (a tiny thread pool that never
  waits for the engine), or handed to
  :class:`~repro.engine.pool.CompilationEngine` on the *engine lane*
  (``jobs`` threads, each running one request's
  :meth:`~repro.engine.pool.CompilationEngine.run_tasks`, so
  overlapping cold requests share the worker pool and each is answered
  as soon as its own regions finish).
* ``GET /healthz`` — liveness + pending/in-flight counts, always
  instant.
* ``GET /metrics`` — the full :class:`~repro.observability.metrics.
  MetricsRegistry` snapshot (``serve.*`` quantile histograms), the
  engine's telemetry, and cache statistics.

In-flight requests are deduplicated by the composite wire fingerprint
(concurrent identical requests coalesce onto one compile), cold
requests past the backpressure limit are shed with ``429`` +
``Retry-After``, and every served region emits a
:class:`~repro.observability.flight.FlightRecord` into a shared ledger
so ``repro timeline`` works on server ledgers unchanged.

:class:`ServerThread` hosts the event loop in a daemon thread for
tests, ``repro loadtest --spawn``, and embedding.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..engine.cache import ScheduleCache
from ..engine.pool import (
    CACHE_HIT,
    CompilationEngine,
    RegionTask,
    TaskOutcome,
    execute_task,
    flight_record,
)
from ..harness.experiment import STATUS_OK, aggregate_program_result
from ..harness.results import program_result_to_dict
from ..observability.flight import FlightLedger, FlightRecord
from ..observability.metrics import MetricsRegistry
from ..schedulers.base import Scheduler
from .wire import (
    RESPONSE_KIND,
    WIRE_SCHEMA_VERSION,
    ParsedRequest,
    WireError,
    build_scheduler,
    parse_request,
)

#: Entries kept in the body-hash parse cache (see ``_parsed_for``).
PARSE_CACHE_CAPACITY = 512

#: Entries kept in the fingerprint-keyed response cache.  Both caches
#: are content-addressed, so they never need invalidation.
RESPONSE_CACHE_CAPACITY = 1024

#: HTTP status reason phrases the server emits.
_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}

#: Outcome label per response class, used for ``serve.responses.*`` /
#: ``serve.request_seconds.*`` telemetry.
_OUTCOMES = {
    200: "ok",
    400: "bad_request",
    404: "not_found",
    405: "not_found",
    413: "bad_request",
    429: "shed",
    500: "error",
}


@dataclass
class ServeConfig:
    """Tunable knobs for one :class:`CompileServer`.

    Attributes:
        host: Bind address.
        port: Bind port; ``0`` picks an ephemeral port (the bound port
            is reported by :attr:`CompileServer.port` after start).
        jobs: Worker processes for the compilation engine, and threads
            on the engine lane (cold requests compiled at once).
        cache_dir: Directory for the shared on-disk schedule cache;
            ``None`` keeps the warm cache purely in memory.
        cache_capacity: In-memory LRU capacity of the schedule cache.
        queue_limit: Cold requests admitted but not yet finished
            before new ones are shed with ``429``.
        client_limit: Concurrent requests allowed per client address
            before that client is shed with ``429``.
        read_timeout_s: Seconds a connection may dawdle mid-request
            before it is counted in ``serve.slow_clients`` and closed.
        retry_after_s: ``Retry-After`` hint attached to ``429``s.
        ledger_path: Flush the flight ledger here on shutdown (and the
            ledger accumulates regardless, for live ``/metrics``).
        max_body_bytes: Largest acceptable request body.
    """

    host: str = "127.0.0.1"
    port: int = 8377
    jobs: int = 1
    cache_dir: Optional[str] = None
    cache_capacity: int = 4096
    queue_limit: int = 64
    client_limit: int = 16
    read_timeout_s: float = 30.0
    retry_after_s: float = 1.0
    ledger_path: Optional[str] = None
    max_body_bytes: int = 8 * 1024 * 1024


class CompileServer:
    """The asyncio compile service (see the module docstring).

    Life cycle: construct, ``await start()``, serve, ``await stop()``.
    All mutable state — the dedup map, per-client counts, the pending
    count, the ``serve.*`` registry — is touched only from the event
    loop; the fast lane and engine lane are reached exclusively
    through ``run_in_executor``.
    """

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        registry: Optional[Mapping[str, Callable[[], Scheduler]]] = None,
    ) -> None:
        """Wire up the cache, engine, executors, and telemetry.

        Args:
            config: Server knobs; defaults to ``ServeConfig()``.
            registry: Scheduler name → constructor map; defaults to
                :func:`repro.verify.sweep.scheduler_registry`.  Tests
                inject chaos schedulers here.
        """
        from ..verify.sweep import scheduler_registry

        self.config = config or ServeConfig()
        self.registry = dict(registry) if registry is not None else scheduler_registry()
        self.cache = ScheduleCache(
            capacity=self.config.cache_capacity,
            disk_dir=self.config.cache_dir,
        )
        self.ledger = FlightLedger()
        self.engine = CompilationEngine(
            jobs=self.config.jobs, cache=self.cache, ledger=self.ledger
        )
        self.metrics = MetricsRegistry()
        # Two executors, never shared: the fast lane answers warm
        # requests without waiting for the engine; the engine lane runs
        # one cold request per thread (the engine is thread-safe).
        self._fast_lane = ThreadPoolExecutor(
            max_workers=2, thread_name_prefix="serve-fast"
        )
        self._engine_lane = ThreadPoolExecutor(
            max_workers=self.config.jobs, thread_name_prefix="serve-engine"
        )
        self._pending = 0
        self._inflight: Dict[str, asyncio.Future] = {}
        self._parse_cache: "OrderedDict[bytes, ParsedRequest]" = OrderedDict()
        self._response_cache: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._response_lock = threading.Lock()
        self._per_client: Dict[str, int] = {}
        self._task_index = 0
        # Task indices are handed out from the event loop AND the fast
        # lane; the lock keeps ledger indices unique across both.
        self._index_lock = threading.Lock()
        self._started_s = time.time()
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()

    # -- life cycle ----------------------------------------------------

    @property
    def port(self) -> int:
        """The actually-bound port (useful with ``port=0``)."""
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Bind the listening socket."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )

    async def stop(self) -> None:
        """Stop listening, drain state, and release every resource."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._connections):
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await task
        for future in self._inflight.values():
            if not future.done():
                future.set_exception(RuntimeError("server shutting down"))
        self._inflight.clear()
        self._fast_lane.shutdown(wait=True)
        self._engine_lane.shutdown(wait=True)
        self.engine.close()
        if self.config.ledger_path is not None and self.ledger.records:
            self.ledger.flush(self.config.ledger_path)

    # -- HTTP plumbing -------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one keep-alive connection until close or timeout."""
        peer = writer.get_extra_info("peername")
        client = peer[0] if isinstance(peer, tuple) else str(peer)
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                try:
                    header_blob = await asyncio.wait_for(
                        reader.readuntil(b"\r\n\r\n"),
                        timeout=self.config.read_timeout_s,
                    )
                except asyncio.TimeoutError:
                    self.metrics.inc("serve.slow_clients")
                    return
                except (asyncio.IncompleteReadError, ConnectionError):
                    return
                keep_alive = await self._handle_request(
                    header_blob, reader, writer, client
                )
                if not keep_alive:
                    return
        except asyncio.CancelledError:  # server shutdown
            return
        finally:
            if task is not None:
                self._connections.discard(task)
            with contextlib.suppress(Exception, asyncio.CancelledError):
                writer.close()
                await writer.wait_closed()

    async def _handle_request(
        self,
        header_blob: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        client: str,
    ) -> bool:
        """Parse one HTTP request, route it, and write the response.

        Args:
            header_blob: Raw request line + headers.
            reader: Connection reader (body follows the headers).
            writer: Connection writer.
            client: Client address, for per-client backpressure.

        Returns:
            Whether the connection should be kept alive.
        """
        started = time.monotonic()
        try:
            method, path, headers = _parse_head(header_blob)
        except ValueError:
            await self._respond(
                writer, 400,
                {"kind": "error",
                 "error": {"type": "bad_request", "field": "http",
                           "message": "malformed request head"}},
                started,
            )
            return False
        length = int(headers.get("content-length", "0") or "0")
        if length > self.config.max_body_bytes:
            await self._respond(
                writer, 413,
                {"kind": "error",
                 "error": {"type": "bad_request", "field": "http",
                           "message": "request body too large"}},
                started,
            )
            return False
        body = b""
        if length:
            try:
                body = await asyncio.wait_for(
                    reader.readexactly(length),
                    timeout=self.config.read_timeout_s,
                )
            except (asyncio.TimeoutError, asyncio.IncompleteReadError):
                self.metrics.inc("serve.slow_clients")
                return False
        self.metrics.inc("serve.requests")
        try:
            status, payload = await self._route(method, path, body, client)
        except WireError as exc:
            status, payload = 400, {"kind": "error", "error": exc.to_dict()}
        except Exception as exc:  # pragma: no cover - defensive
            status, payload = 500, {
                "kind": "error",
                "error": {"type": "internal", "field": None,
                          "message": f"{type(exc).__name__}: {exc}"},
            }
        await self._respond(writer, status, payload, started)
        return headers.get("connection", "keep-alive").lower() != "close"

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, Any],
        started: float,
    ) -> None:
        """Serialize one JSON response and record its telemetry.

        Args:
            writer: Connection writer.
            status: HTTP status code.
            payload: JSON-safe response body.
            started: ``time.monotonic()`` at request start.
        """
        outcome = _OUTCOMES.get(status, "error")
        self.metrics.inc(f"serve.responses.{outcome}")
        self.metrics.observe(
            f"serve.request_seconds.{outcome}", time.monotonic() - started
        )
        blob = json.dumps(payload).encode()
        head = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(blob)}",
        ]
        if status == 429:
            head.append(f"Retry-After: {self.config.retry_after_s:g}")
        head.append("\r\n")
        writer.write("\r\n".join(head).encode() + blob)
        with contextlib.suppress(ConnectionError):
            await writer.drain()

    # -- routing -------------------------------------------------------

    async def _route(
        self, method: str, path: str, body: bytes, client: str
    ) -> Tuple[int, Dict[str, Any]]:
        """Dispatch one request to its endpoint.

        Args:
            method: HTTP method.
            path: Request path.
            body: Raw request body.
            client: Client address.

        Returns:
            ``(status, payload)`` for :meth:`_respond`.
        """
        if path == "/healthz":
            if method != "GET":
                return 405, _not_allowed("GET")
            return 200, self._healthz()
        if path == "/metrics":
            if method != "GET":
                return 405, _not_allowed("GET")
            return 200, await self._metrics_payload()
        if path == "/compile":
            if method != "POST":
                return 405, _not_allowed("POST")
            return await self._compile(body, client)
        return 404, {
            "kind": "error",
            "error": {"type": "not_found", "field": "http",
                      "message": f"no such endpoint {path!r}"},
        }

    def _healthz(self) -> Dict[str, Any]:
        """The instant liveness payload."""
        return {
            "kind": "healthz",
            "status": "ok",
            "uptime_s": time.time() - self._started_s,
            "pending": self._pending,
            "inflight": len(self._inflight),
        }

    async def _metrics_payload(self) -> Dict[str, Any]:
        """The full observability payload for ``GET /metrics``."""
        return {
            "kind": "metrics",
            "uptime_s": time.time() - self._started_s,
            "pending": self._pending,
            "inflight": len(self._inflight),
            "serve": self.metrics.snapshot(),
            "engine": self.engine.telemetry_snapshot(),
            "cache": self.cache.stats.to_dict(),
            "ledger_records": len(self.ledger.records),
        }

    # -- /compile ------------------------------------------------------

    async def _compile(
        self, body: bytes, client: str
    ) -> Tuple[int, Dict[str, Any]]:
        """Serve one compile request: dedup, fast lane, or engine lane.

        Args:
            body: Raw JSON request body.
            client: Client address, for per-client backpressure.

        Returns:
            ``(status, payload)`` for :meth:`_respond`.
        """
        if self._per_client.get(client, 0) >= self.config.client_limit:
            self.metrics.inc("serve.shed.client")
            return 429, _shed_payload("per-client limit reached")
        self._per_client[client] = self._per_client.get(client, 0) + 1
        try:
            parsed = await self._parsed_for(body)
            return await self._compile_parsed(parsed)
        finally:
            remaining = self._per_client.get(client, 1) - 1
            if remaining <= 0:
                self._per_client.pop(client, None)
            else:
                self._per_client[client] = remaining

    async def _parsed_for(self, body: bytes) -> ParsedRequest:
        """Parse a request body, short-circuiting repeat bodies.

        A byte-identical body parses, validates, and fingerprints to
        the same result every time, so the full WL-canonicalization
        cost is paid once per distinct body and repeat requests hit an
        LRU keyed by the body's SHA-256 — the step that makes warm
        responses sub-millisecond.  Only the immutable parts (program,
        machine, fingerprints) are shared; every request still gets a
        fresh scheduler instance, so scheduler state never leaks
        between compiles.

        Args:
            body: Raw request body bytes.

        Returns:
            The validated request.
        """
        digest = hashlib.sha256(body).digest()
        cached = self._parse_cache.get(digest)
        if cached is not None:
            self.metrics.inc("serve.parse_hits")
            self._parse_cache.move_to_end(digest)
            return replace(
                cached,
                scheduler=build_scheduler(
                    cached.scheduler_name, self.registry, cached.seed
                ),
            )
        self.metrics.inc("serve.parse_misses")
        try:
            data = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise WireError("body", f"invalid JSON: {exc}")
        # Parsing validates + fingerprints the whole program: CPU-bound,
        # so it runs on the fast lane rather than the event loop.
        parsed = await asyncio.get_running_loop().run_in_executor(
            self._fast_lane, parse_request, data, self.registry
        )
        self._parse_cache[digest] = parsed
        while len(self._parse_cache) > PARSE_CACHE_CAPACITY:
            self._parse_cache.popitem(last=False)
        return parsed

    async def _compile_parsed(
        self, parsed: ParsedRequest
    ) -> Tuple[int, Dict[str, Any]]:
        """The dedup / warm-fast-lane / cold-engine-lane decision tree.

        Args:
            parsed: The validated request.

        Returns:
            ``(status, payload)`` for :meth:`_respond`.
        """
        loop = asyncio.get_running_loop()
        existing = self._inflight.get(parsed.key)
        if existing is not None:
            self.metrics.inc("serve.coalesced")
            response = dict(await asyncio.shield(existing))
            response["served"] = "coalesced"
            return 200, response
        cached = self._response_for(parsed)
        if cached is not None:
            self.metrics.inc("serve.fast_path")
            return 200, cached
        warm = all(self.cache.contains(fp.key) for fp in parsed.fingerprints)
        if not warm and self._pending >= self.config.queue_limit:
            self.metrics.inc("serve.shed.queue")
            return 429, _shed_payload("compile queue full")
        future: asyncio.Future = loop.create_future()
        self._inflight[parsed.key] = future
        try:
            if warm:
                self.metrics.inc("serve.fast_path")
                response = await loop.run_in_executor(
                    self._fast_lane, self._serve_warm, parsed
                )
            else:
                self.metrics.inc("serve.compiled")
                self.metrics.observe("serve.queue_depth", float(self._pending))
                self._pending += 1
                try:
                    # The lane's threads share the engine's worker pool,
                    # so this request is answered as soon as its own
                    # regions finish.
                    outcomes = await loop.run_in_executor(
                        self._engine_lane,
                        self.engine.run_tasks,
                        self._build_tasks(parsed),
                    )
                finally:
                    self._pending -= 1
                response = self._build_response(parsed, outcomes, served="compile")
        except Exception as exc:
            if not future.done():
                # Resolve coalescers with the same failure rather than
                # cancelling them (CancelledError would skip their
                # 500-path handling).
                future.set_exception(RuntimeError(str(exc)))
                future.exception()
            raise
        else:
            if not future.done():
                future.set_result(response)
            return 200, response
        finally:
            self._inflight.pop(parsed.key, None)

    def _response_for(self, parsed: ParsedRequest) -> Optional[Dict[str, Any]]:
        """Serve a repeat request from the fingerprint response cache.

        Fully-ok results are immutable functions of the request
        fingerprint, so a cached response can be replayed wholesale —
        no engine, no schedule relabelling, not even a fast-lane hop.
        Each replay still emits per-region flight records, so server
        ledgers account for every served task.

        Args:
            parsed: The validated request.

        Returns:
            A fresh response payload, or ``None`` when uncached.
        """
        with self._response_lock:
            cached = self._response_cache.get(parsed.key)
            if cached is None:
                return None
            self._response_cache.move_to_end(parsed.key)
        regions = cached["result"]["regions"]
        now = time.time()
        with self._index_lock:
            base = self._task_index
            self._task_index += len(regions)
        for offset, (region_doc, fingerprint) in enumerate(
            zip(regions, parsed.fingerprints)
        ):
            self.ledger.append(
                FlightRecord(
                    index=base + offset,
                    region=region_doc["name"],
                    machine=parsed.machine.name,
                    scheduler=parsed.scheduler.name,
                    fingerprint=fingerprint.key,
                    cache_status=CACHE_HIT,
                    worker=os.getpid(),
                    submit_s=now,
                    start_s=now,
                    finish_s=time.time(),
                    queue_wait_s=0.0,
                    execute_s=0.0,
                    attempts=1,
                    route_level=0,
                    breaker=None,
                    degradation_level=0,
                    deadline_s=None,
                    deadline_slack_s=None,
                    status=region_doc["status"],
                    cycles=region_doc["cycles"],
                )
            )
        response = dict(cached)
        response["served"] = "cache"
        response["cache"] = {"hits": len(regions), "misses": 0}
        return response

    def _serve_warm(self, parsed: ParsedRequest) -> Dict[str, Any]:
        """Answer a fully-warm request on the fast lane (worker thread).

        Replays each region's cached schedule through
        :func:`~repro.engine.pool.execute_task` on the request's
        already-computed fingerprints — no engine and no
        re-canonicalization, which is what keeps warm responses
        sub-millisecond.  A region whose entry was evicted between the
        advisory probe and the lookup is simply compiled inline.  Emits
        the same flight records the engine would.

        Args:
            parsed: The validated request.

        Returns:
            The compile response payload.
        """
        tasks = self._build_tasks(parsed)
        outcomes = [execute_task(task, self.cache) for task in tasks]
        for task, outcome in zip(tasks, outcomes):
            self.ledger.append(flight_record(task, outcome, None))
        return self._build_response(parsed, outcomes, served="cache")

    def _build_tasks(self, parsed: ParsedRequest) -> List[RegionTask]:
        """Materialize one engine task per region of a request.

        Indices come from a server-global monotonic counter so merged
        ledgers stay unambiguous across requests.  Each task carries
        its region's fingerprint from parsing, so the engine does not
        recompute it.

        Args:
            parsed: The validated request.

        Returns:
            The region tasks, in region order.
        """
        now = time.time()
        with self._index_lock:
            base = self._task_index
            self._task_index += len(parsed.program.regions)
        return [
            RegionTask(
                index=base + offset,
                region=region,
                machine=parsed.machine,
                scheduler=parsed.scheduler,
                check_values=parsed.check_values,
                capture_errors=True,
                verify=parsed.verify,
                submit_s=now,
                fingerprint=fingerprint,
            )
            for offset, (region, fingerprint) in enumerate(
                zip(parsed.program.regions, parsed.fingerprints)
            )
        ]

    def _build_response(
        self,
        parsed: ParsedRequest,
        outcomes: List[TaskOutcome],
        served: str,
    ) -> Dict[str, Any]:
        """Fold task outcomes into the wire compile response.

        The result document is byte-identical (modulo timings) to what
        the serial harness produces, because both funnel through
        :func:`~repro.harness.experiment.aggregate_program_result`.

        Args:
            parsed: The validated request.
            outcomes: One outcome per region, in region order.
            served: ``"cache"`` or ``"compile"`` provenance tag.

        Returns:
            The compile response payload.
        """
        result = aggregate_program_result(
            parsed.program,
            parsed.machine.name,
            parsed.scheduler.name,
            [outcome.result for outcome in outcomes],
        )
        hits = sum(1 for o in outcomes if o.cache_status == "hit")
        payload = {
            "kind": RESPONSE_KIND,
            "schema": WIRE_SCHEMA_VERSION,
            "fingerprint": parsed.key,
            "served": served,
            "cache": {"hits": hits, "misses": len(outcomes) - hits},
            "result": program_result_to_dict(result),
        }
        if result.status == STATUS_OK:
            # Only fully-ok results are replayable: failures must keep
            # re-compiling (the fallback chain may recover later).
            with self._response_lock:
                self._response_cache[parsed.key] = payload
                while len(self._response_cache) > RESPONSE_CACHE_CAPACITY:
                    self._response_cache.popitem(last=False)
        return payload


def _parse_head(blob: bytes) -> Tuple[str, str, Dict[str, str]]:
    """Split a raw HTTP head into method, path, and headers.

    Args:
        blob: Everything up to and including the blank line.

    Returns:
        ``(method, path, lowercase-header dict)``.
    """
    lines = blob.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ValueError(f"malformed request line {lines[0]!r}")
    headers = {}
    for line in lines[1:]:
        if not line:
            continue
        if ":" not in line:
            raise ValueError(f"malformed header {line!r}")
        key, value = line.split(":", 1)
        headers[key.strip().lower()] = value.strip()
    return parts[0], parts[1], headers


def _not_allowed(allowed: str) -> Dict[str, Any]:
    """The 405 payload naming the allowed method."""
    return {
        "kind": "error",
        "error": {"type": "method_not_allowed", "field": "http",
                  "message": f"use {allowed}"},
    }


def _shed_payload(reason: str) -> Dict[str, Any]:
    """The 429 backpressure payload."""
    return {
        "kind": "error",
        "error": {"type": "shed", "field": None, "message": reason},
    }


class ServerThread:
    """A :class:`CompileServer` hosted on a daemon-thread event loop.

    Context-manager friendly::

        with ServerThread(ServeConfig(port=0)) as server:
            url = server.base_url  # actual ephemeral port

    Used by the test suite and ``repro loadtest --spawn``.
    """

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        registry: Optional[Mapping[str, Callable[[], Scheduler]]] = None,
    ) -> None:
        """Stash the server configuration; nothing starts yet.

        Args:
            config: Server knobs; defaults to ``ServeConfig(port=0)``.
            registry: Optional scheduler registry override.
        """
        self.config = config or ServeConfig(port=0)
        self.registry = registry
        self.server: Optional[CompileServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._stop_event: Optional[asyncio.Event] = None
        self._startup_error: Optional[BaseException] = None

    @property
    def host(self) -> str:
        """The bind address."""
        return self.config.host

    @property
    def port(self) -> int:
        """The actually-bound port."""
        assert self.server is not None, "server not started"
        return self.server.port

    @property
    def base_url(self) -> str:
        """``http://host:port`` for clients."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ServerThread":
        """Boot the loop thread and block until the socket is bound.

        Returns:
            ``self``, for chaining.
        """
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._startup_error is not None:
            raise RuntimeError("server failed to start") from self._startup_error
        if self.server is None:
            raise RuntimeError("server failed to start within 30s")
        return self

    def _run(self) -> None:
        """The daemon thread body: own loop, serve until stopped."""
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        server = CompileServer(self.config, self.registry)
        try:
            loop.run_until_complete(server.start())
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            loop.close()
            return
        self.server = server
        self._stop_event = asyncio.Event()
        self._ready.set()
        try:
            loop.run_until_complete(self._stop_event.wait())
            loop.run_until_complete(server.stop())
        finally:
            loop.close()

    def stop(self) -> None:
        """Shut the server down and join the loop thread."""
        if self._loop is None or self._thread is None:
            return
        if self.server is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout=30.0)

    def __enter__(self) -> "ServerThread":
        """Start on entry."""
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        """Stop on exit."""
        self.stop()
