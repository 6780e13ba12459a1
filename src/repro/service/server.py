"""Asyncio JSON-lines TCP front-end of the typechecking service.

One connection may pipeline many requests; responses carry the request's
``id`` and may arrive out of order (workers run in parallel).  Three
layers of backpressure keep flooding clients from ballooning memory:

* a per-connection semaphore bounds the requests in flight per connection
  (``max_inflight``; further lines simply are not read until a slot
  frees, which TCP propagates to the sender),
* a **server-global** gate bounds the aggregate work submitted to the
  pool across *all* connections (``max_inflight_total``) — with only the
  per-connection gate, N connections could put N×``max_inflight``
  requests into the pool at once, and
* response writes honor ``writer.drain()``, so a slow-reading client
  throttles its own result stream.

One served query path: a connection may pin its schema pair once with
``set_pair``; the server parses and hashes the pair at the pin,
pre-pins the pair's affine worker, and routes every later query without
schema text on the pinned digest.  A query that carries its schemas
inline is parsed in the executor into a per-request pin of its (widened)
pair and takes the same path: one ``pinned`` pool op on the pair's
affine worker, with the schemas inside the message so that worker pins
on receipt.  A worker that lost its pins (respawn, crash retry onto a
different worker, pair-LRU eviction) raises ``UnknownPairError``; the
server re-pins every worker and retries.  ``set_pair`` is handled inline
in the read loop — a pipelined request behind it always observes the
pin.

Pool hops: the event-loop thread queues each pool request itself and
awaits the ticket's future (``asyncio.wrap_future``), which the pool's
supervisor thread settles, so no thread is parked per request.  The
executor runs only work that is itself synchronous: inline instance
parsing and pin waits.

Every response records ``elapsed_ms`` (queue wait + worker time) — the
per-request timing the ops story needs — and ``stats`` exposes pool
health plus per-worker session-registry detail (resident pairs, byte
footprints, hit/miss/eviction counters).

Entry points: ``python -m repro serve`` (CLI), :func:`run_server`
(blocking), :func:`serve` (async, yields the listening server).
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, Optional, Set, Tuple

from repro.errors import ProtocolError, UnknownPairError
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.obs.trace import LineSink
from repro.obs.windows import WindowedHistogram, WindowedRate
from repro.service import protocol
from repro.service.pool import DEFAULT_CACHE_BYTES, WorkerPool

#: Default number of requests one connection may have in flight.
DEFAULT_MAX_INFLIGHT = 32

#: Default aggregate in-flight bound across every connection.
DEFAULT_MAX_INFLIGHT_TOTAL = 128

#: Hard cap on one request line (a parse bomb guard).
MAX_LINE_BYTES = 8 * 1024 * 1024

#: Default slow-query threshold (``serve --slow-ms``).
DEFAULT_SLOW_MS = 100.0

#: Ops eligible for the slow-query log: the single-instance query ops.
#: When the log is enabled these are forced to run with ``explain=True``
#: so a slow entry always carries its full attribution report.
_SLOW_OPS = frozenset({"typecheck", "retypecheck", "counterexample"})

#: Label length for pair digests on windowed metrics (full digests are
#: 64 hex chars; 12 is collision-safe for any realistic live pair set).
_PAIR_LABEL_CHARS = 12


class _Pin:
    """One immutable pinned-pair snapshot.

    Dispatch paths capture the snapshot *before* their first ``await``: a
    pipelined ``set_pair`` (handled inline in the read loop) swaps the
    connection's pin while earlier requests may still be parked on the
    inflight gate, and those requests must keep targeting the pair that
    was pinned when they were read off the stream.  ``schemas`` is
    non-empty only on an inline query's per-request pin: ``(din, dout)``
    then travels inside each pinned message.
    """

    __slots__ = ("pair", "din", "dout", "slot", "schemas", "broadcast_pinned")

    def __init__(self, pair: str, din, dout, slot: int) -> None:
        self.pair = pair
        self.din = din
        self.dout = dout
        self.slot = slot
        self.schemas: tuple = ()
        self.broadcast_pinned = False


class _Connection:
    """Per-connection protocol state: the pinned schema pair."""

    __slots__ = ("pin",)

    def __init__(self) -> None:
        self.pin: Optional[_Pin] = None


class ServiceServer:
    """The pool plus its TCP front-end."""

    def __init__(
        self,
        pool: WorkerPool,
        *,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        max_inflight_total: int = DEFAULT_MAX_INFLIGHT_TOTAL,
        slow_query_log: Optional[str] = None,
        slow_ms: float = DEFAULT_SLOW_MS,
        slow_log_max_bytes: Optional[int] = None,
    ) -> None:
        self.pool = pool
        self.max_inflight = max_inflight
        self.max_inflight_total = max(1, max_inflight_total)
        self.requests_served = 0
        # Server-level gauges (event-loop thread only, so plain ints):
        # open connections and requests currently being handled.
        self.connections = 0
        self.inflight = 0
        self.slow_ms = float(slow_ms)
        self._slow_sink: Optional[LineSink] = (
            LineSink(slow_query_log, max_bytes=slow_log_max_bytes)
            if slow_query_log
            else None
        )
        # Windowed (recent) telemetry next to the cumulative histograms:
        # per-op latency rings and per-pair request rates.  Observed from
        # the event-loop thread, summarized from executor threads — both
        # instruments are internally locked.
        self.latency_recent: Dict[str, WindowedHistogram] = {}
        self.pair_window = WindowedRate()
        self._pair_rate_gauges: Set[str] = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self._metrics_server: Optional[asyncio.AbstractServer] = None
        self._inflight_gate: Optional[asyncio.Semaphore] = None

    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0):
        # Created here so the semaphore binds to the serving loop.
        self._inflight_gate = asyncio.Semaphore(self.max_inflight_total)
        self._server = await asyncio.start_server(
            self._handle_connection, host, port, limit=MAX_LINE_BYTES
        )
        return self._server

    @property
    def port(self) -> int:
        assert self._server is not None and self._server.sockets
        return self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._metrics_server is not None:
            self._metrics_server.close()
            await self._metrics_server.wait_closed()
        if self._slow_sink is not None:
            self._slow_sink.close()

    # ------------------------------------------------------------------
    # Prometheus text exposition (``serve --metrics-port``)
    # ------------------------------------------------------------------
    async def start_metrics(self, host: str = "127.0.0.1", port: int = 0):
        """Listen on a second port answering any HTTP GET with the merged
        registry in Prometheus text exposition format."""
        self._metrics_server = await asyncio.start_server(
            self._handle_metrics_http, host, port
        )
        return self._metrics_server

    @property
    def metrics_port(self) -> Optional[int]:
        if self._metrics_server is None or not self._metrics_server.sockets:
            return None
        return self._metrics_server.sockets[0].getsockname()[1]

    async def _handle_metrics_http(self, reader, writer) -> None:
        try:
            # Minimal HTTP/1.0 server: the request line picks the view
            # (/healthz, /readyz, anything else scrapes the registry);
            # the headers are read and discarded.
            request_line = await asyncio.wait_for(reader.readline(), timeout=10)
            path = ""
            parts = request_line.split()
            if len(parts) >= 2:
                path = parts[1].decode("latin-1", "replace")
            while request_line and request_line not in (b"\r\n", b"\n"):
                request_line = await asyncio.wait_for(
                    reader.readline(), timeout=10
                )
            if path.startswith("/healthz"):
                # Liveness: the event loop answered, nothing else checked.
                status, body = b"200 OK", b"ok\n"
            elif path.startswith("/readyz"):
                # Readiness: every pool worker process is alive.
                loop = asyncio.get_running_loop()
                stats = await loop.run_in_executor(None, self.pool.pool_stats)
                ready = int(stats["alive"]) >= int(stats["workers"])
                status = b"200 OK" if ready else b"503 Service Unavailable"
                body = (
                    f"{'ready' if ready else 'not ready'} "
                    f"({stats['alive']}/{stats['workers']} workers)\n"
                ).encode("ascii")
            else:
                loop = asyncio.get_running_loop()
                snapshot = await loop.run_in_executor(None, self._merged_metrics)
                status = b"200 OK"
                body = _metrics.render_prometheus(snapshot["merged"]).encode(
                    "utf-8"
                )
            writer.write(
                b"HTTP/1.0 " + status + b"\r\n"
                b"Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode("ascii")
            )
            writer.write(body)
            await writer.drain()
        except (ConnectionError, OSError, asyncio.TimeoutError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, RuntimeError):
                pass

    def _merged_metrics(self) -> Dict[str, object]:
        _metrics.gauge("repro.server.connections", policy="sum").set(self.connections)
        _metrics.gauge("repro.server.inflight", policy="sum").set(self.inflight)
        # Windowed views become point-in-time gauges at scrape time: only
        # this server owns them, so the merge policy is "last".
        for op, window in list(self.latency_recent.items()):
            summary = window.recent()
            # Quantiles are None while the window is idle — scrape as 0.
            _metrics.gauge(
                "repro.server.latency_ms_recent_p50", policy="last", op=op
            ).set(float(summary["p50"] or 0.0))
            _metrics.gauge(
                "repro.server.latency_ms_recent_p95", policy="last", op=op
            ).set(float(summary["p95"] or 0.0))
        rates = self.pair_window.recent_rates()
        for digest, rate in rates.items():
            self._pair_rate_gauges.add(digest)
            _metrics.gauge(
                "repro.server.pair_request_rate", policy="last", digest=digest
            ).set(round(rate, 6))
        for digest in self._pair_rate_gauges - set(rates):
            # A pair that went quiet scrapes as 0, not as its last rate.
            _metrics.gauge(
                "repro.server.pair_request_rate", policy="last", digest=digest
            ).set(0.0)
        return self.pool.metrics()

    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        conn = _Connection()
        gate = asyncio.Semaphore(self.max_inflight)
        write_lock = asyncio.Lock()
        tasks = set()
        self.connections += 1
        try:
            await self._read_loop(reader, conn, writer, write_lock, gate, tasks)
        except asyncio.CancelledError:
            pass  # server shutdown cancels connection handlers; that's clean
        finally:
            self.connections -= 1
            for task in tasks:
                task.cancel()
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, RuntimeError):
                pass  # RuntimeError: the loop itself is shutting down

    async def _read_loop(self, reader, conn, writer, write_lock, gate, tasks):
        while True:
            try:
                line = await reader.readline()
            except (ValueError, ConnectionError):
                break  # oversized line or peer reset
            if not line:
                break
            if not line.strip():
                continue
            await gate.acquire()  # backpressure: stop reading when full
            start = time.perf_counter()
            try:
                message: Optional[Dict[str, object]] = (
                    protocol.decode_line(line)
                )
            except ProtocolError as exc:
                message = None
                decode_error: Optional[BaseException] = exc
            else:
                decode_error = None
            if message is not None and message.get("op") == "set_pair":
                # Pinning mutates connection state: handle it inline so
                # pipelined requests behind it see the pin.
                await self._handle_message(
                    message, None, conn, writer, write_lock, gate, start
                )
                continue
            task = asyncio.ensure_future(
                self._handle_message(
                    message, decode_error, conn, writer, write_lock,
                    gate, start,
                )
            )
            tasks.add(task)
            task.add_done_callback(tasks.discard)

    async def _handle_message(
        self, message, decode_error, conn, writer, write_lock, gate, start
    ) -> None:
        req_id = None
        op: Optional[str] = None
        trace_id: Optional[str] = None
        wall_start = time.time()
        self.inflight += 1
        try:
            try:
                if decode_error is not None:
                    raise decode_error
                req_id = message.get("id")
                raw_trace = message.get("trace_id")
                if isinstance(raw_trace, str) and raw_trace:
                    trace_id = raw_trace
                elif self._slow_sink is not None:
                    # Untraced client: mint the ID server-side so a slow
                    # entry still joins its spans.
                    trace_id = _trace.new_trace_id()
                op = protocol.validate_request(message)
                result = await self._dispatch(op, message, conn, trace_id)
            except Exception as exc:  # noqa: BLE001 - reported on the wire
                elapsed_ms = (time.perf_counter() - start) * 1e3
                response = protocol.error_response(req_id, exc)
            else:
                elapsed_ms = (time.perf_counter() - start) * 1e3
                response = protocol.ok_response(req_id, result, elapsed_ms)
            self.requests_served += 1
            _metrics.histogram(
                "repro.server.latency_ms", op=op or "invalid"
            ).observe(elapsed_ms)
            window = self.latency_recent.get(op or "invalid")
            if window is None:
                window = self.latency_recent.setdefault(
                    op or "invalid", WindowedHistogram()
                )
            window.observe(elapsed_ms)
            if (
                self._slow_sink is not None
                and op in _SLOW_OPS
                and elapsed_ms >= self.slow_ms
            ):
                self._log_slow_query(
                    message, op, req_id, trace_id, wall_start, elapsed_ms,
                    response,
                )
            if trace_id is not None and _trace.enabled():
                # Emitted explicitly: thread-local span context is unsafe
                # across awaits, so the dispatch span carries its trace ID.
                _trace.emit_span(
                    "dispatch",
                    trace_id,
                    wall_start,
                    elapsed_ms,
                    attrs={"op": op or "invalid"},
                )
            async with write_lock:
                writer.write(protocol.encode(response))
                await writer.drain()
        except (ConnectionError, OSError):
            pass  # client went away mid-response
        finally:
            self.inflight -= 1
            gate.release()

    def _log_slow_query(
        self, message, op, req_id, trace_id, wall_start, elapsed_ms, response
    ) -> None:
        """Append one slow-query record (full explain attached).

        One line reconstructs the query: the wire identifiers, the
        threshold it crossed, the verdict, and — because the server
        forces ``explain=True`` on loggable ops while the log is enabled
        — the complete :class:`repro.obs.explain.QueryReport` dict.
        """
        entry: Dict[str, object] = {
            "ts": round(wall_start, 6),
            "op": op,
            "id": req_id,
            "elapsed_ms": round(elapsed_ms, 3),
            "slow_ms": self.slow_ms,
        }
        if trace_id is not None:
            entry["trace_id"] = trace_id
        if isinstance(message, dict):
            if message.get("method") is not None:
                entry["method"] = message["method"]
        if response.get("ok"):
            result = response.get("result")
            if isinstance(result, dict):
                if "typechecks" in result:
                    entry["typechecks"] = result["typechecks"]
                if result.get("explain") is not None:
                    entry["explain"] = result["explain"]
        else:
            entry["error"] = response.get("error")
        self._slow_sink.emit(entry)

    # ------------------------------------------------------------------
    #: How often a pinned request is retried after re-pinning its pair.
    #: One retry covered worker respawns; with the bounded worker pair
    #: LRU an aggressively small ``worker_pair_limit`` can evict the
    #: freshly re-established pin again before the retry is served
    #: (another connection's pin lands in between), so a few rounds are
    #: allowed before the error surfaces to the client.
    PIN_RETRIES = 3

    async def _pinned_call(
        self,
        pin: _Pin,
        json_op: str,
        payload: Dict[str, object],
        trace=None,
        fanout: bool = False,
    ):
        """One ``pinned`` pool request, re-pinning on a stale pair.

        ``fanout=True`` takes the (broadcast-pinned) workers in turn — a
        batch item — instead of the pair's affine one.

        The server-global inflight gate is acquired *before* the request
        enters the pool, so the aggregate queued work is bounded no
        matter how many connections are flooding — each then also bounded
        by its own ``max_inflight``.  Queueing runs on the loop thread (it
        only appends to the worker's queue) and passes the wire trace
        context to the pool explicitly; the ticket's future settles the
        awaited one from the pool's supervisor thread, so no thread waits
        on the answer.
        """
        loop = asyncio.get_running_loop()
        slot = None if fanout else pin.slot
        args = (pin.pair, json_op, payload, *pin.schemas)
        for attempt in range(self.PIN_RETRIES + 1):
            try:
                async with self._inflight_gate:
                    ticket = self.pool.submit(
                        "pinned", args, slot=slot, trace=trace
                    )
                    return await asyncio.wrap_future(ticket.future)
            except UnknownPairError:
                if attempt >= self.PIN_RETRIES:
                    raise
                # The worker respawned, a crash retry moved the request,
                # or the pair LRU evicted the pin: re-pin everywhere
                # (idempotent, queues FIFO ahead of the retried request)
                # and go again.
                await loop.run_in_executor(
                    None,
                    lambda: self.pool.pin_pair(pin.pair, pin.din, pin.dout),
                )
                pin.broadcast_pinned = True

    def _bare_payload(self, message: Dict[str, object]) -> Dict[str, object]:
        transducer = message.get("transducer")
        if not isinstance(transducer, str):
            raise ProtocolError(
                "a request needs 'transducer' section text (or a whole "
                "instance in 'text')"
            )
        payload: Dict[str, object] = {"transducer": transducer}
        method = message.get("method")
        if method is not None:
            payload["method"] = method
        base = message.get("base")
        if base is not None:
            payload["base"] = base
        if message.get("explain"):
            payload["explain"] = True
        return payload

    def _require_pin(self, conn) -> _Pin:
        pin = conn.pin
        if pin is None:
            raise ProtocolError(
                "no schema pair pinned on this connection; send "
                "'set_pair' first or include the schema fields"
            )
        return pin

    async def _query(
        self, message: Dict[str, object], conn
    ) -> Tuple[_Pin, Dict[str, object]]:
        """The pair one query runs against, plus its bare payload.

        A query without schema text rides the connection's pin, taken
        before the caller's first await: requests keep the pin they were
        read under even if a later inline ``set_pair`` swaps the
        connection state while they wait on the gate.  An inline-schema
        query is parsed in the executor instead, and the connection's pin
        is left alone.
        """
        if not any(key in message for key in ("text", "din", "dout")):
            return self._require_pin(conn), self._bare_payload(message)
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, self._inline_query, message)

    def _inline_query(self, message: Dict[str, object]):
        """Parse an inline-schema query exactly as ``load_instance`` does
        (dout-alphabet widening included) into a per-request pin of the
        widened pair.  Its schemas ride inside every pinned message, so
        the worker that receives one pins on receipt: one round trip, no
        broadcast and no re-pin."""
        return self._inline_batch(message, [message.get("transducer")])[0]

    def _inline_batch(self, message: Dict[str, object], transducers):
        """``[(pin, payload)]`` of inline queries that share the schema
        sections of ``message``, each parsed like a single one, with the
        schemas parsed once and one pin (and digest) per distinct widened
        pair.  An item's payload is ``message`` with its own transducer."""
        din_lines, first, dout_lines = protocol.instance_sections(
            dict(message, transducer=transducers[0])
        )
        sections = [first] + [
            protocol.split_sections(item)[0] for item in transducers[1:]
        ]
        parsed = protocol.parse_batch_sections(din_lines, sections, dout_lines)
        pins: Dict[int, _Pin] = {}
        queries = []
        for lines, (_transducer, din, dout) in zip(sections, parsed):
            pin = pins.get(id(dout))
            if pin is None:
                pair = protocol.pair_digest(din, dout)
                pin = pins[id(dout)] = _Pin(pair, din, dout, self.pool.slot_for(pair))
                pin.schemas = (din, dout)
                pin.broadcast_pinned = True
            payload = dict(message, transducer="\n".join(lines))
            queries.append((pin, self._bare_payload(payload)))
        return queries

    async def _dispatch(
        self,
        op: str,
        message: Dict[str, object],
        conn,
        trace_id: Optional[str] = None,
    ):
        loop = asyncio.get_running_loop()
        trace = {"trace_id": trace_id} if trace_id is not None else None
        if op == "ping":
            banner = protocol.server_version_banner()
            banner["workers"] = self.pool.workers
            return banner
        if op == "stats":
            connections, inflight = self.connections, self.inflight

            def gather() -> Dict[str, object]:
                return {
                    "requests_served": self.requests_served,
                    "max_inflight": self.max_inflight,
                    "max_inflight_total": self.max_inflight_total,
                    "server": self._server_stats(connections, inflight),
                    **self.pool.pool_stats(workers=True),
                }

            return await loop.run_in_executor(None, gather)
        if op == "metrics":
            return await loop.run_in_executor(None, self._merged_metrics)
        if op == "set_pair":
            return await self._set_pair(message, conn)
        if op == "typecheck_many":
            return await self._typecheck_many(message, conn, trace)
        if self._slow_sink is not None and op in _SLOW_OPS:
            # With the slow-query log armed every loggable query runs
            # with explain on, so a threshold crosser always has its full
            # report.  Documented overhead: the delta-scope snapshot and
            # (if not already on) the metered kernel drain.
            message["explain"] = True
        pin, payload = await self._query(message, conn)
        # Per-pair load accounting: a cumulative counter plus the
        # windowed recent-rate ring.
        digest = pin.pair[:_PAIR_LABEL_CHARS]
        _metrics.counter("repro.server.pair_requests", digest=digest).inc()
        self.pair_window.inc(digest)
        return await self._pinned_call(pin, op, payload, trace)

    def _server_stats(self, connections: int, inflight: int) -> Dict[str, object]:
        """Server-level section of the ``stats`` op: connection/inflight
        gauges plus the per-op latency histogram summaries (satellite fix:
        per-request ``elapsed_ms`` used to be computed and discarded)."""
        latency: Dict[str, object] = {}
        prefix = "repro.server.latency_ms{op="
        for name, data in _metrics.snapshot()["histograms"].items():
            if name.startswith(prefix):
                latency[name[len(prefix):-1]] = _metrics.histogram_summary(data)
        return {
            "connections": connections,
            "inflight": inflight,
            "latency_ms": latency,
            "latency_recent_ms": {
                op: window.recent()
                for op, window in list(self.latency_recent.items())
            },
            "pair_rates": self.pair_window.recent_rates(),
        }

    async def _set_pair(self, message: Dict[str, object], conn):
        loop = asyncio.get_running_loop()

        def pin():
            din, dout = protocol.parse_pair_payload(message)
            pair = protocol.pair_digest(din, dout)
            slot = self.pool.slot_for(pair)
            # Pre-pin the affine worker now (and wait): compile errors
            # belong on the set_pair response, and the first request
            # finds the pair warm.
            self.pool.pin_pair(pair, din, dout, slot=slot)
            return din, dout, pair, slot

        din, dout, pair, slot = await loop.run_in_executor(None, pin)
        conn.pin = _Pin(pair, din, dout, slot)
        return {"pair": pair, "worker": slot, "protocol": protocol.PROTOCOL_VERSION}

    async def _typecheck_many(self, message: Dict[str, object], conn, trace=None):
        loop = asyncio.get_running_loop()
        transducers = message.get("transducers")
        if not isinstance(transducers, list) or not all(
            isinstance(item, str) for item in transducers
        ):
            raise ProtocolError(
                "'typecheck_many' needs 'transducers': [section text, ...]"
            )
        if not transducers:
            return []
        fields = {
            key: message[key] for key in ("din", "dout", "method") if key in message
        }
        if "din" in fields or "dout" in fields:
            queries = await loop.run_in_executor(
                None, self._inline_batch, fields, transducers
            )
        else:
            # Bare items take the connection's pin before anything here
            # suspends.
            pin = self._require_pin(conn)
            queries = [
                (pin, self._bare_payload(dict(fields, transducer=item)))
                for item in transducers
            ]
        for pin in {id(pin): pin for pin, _payload in queries}.values():
            if not pin.broadcast_pinned:
                await loop.run_in_executor(
                    None,
                    lambda: self.pool.pin_pair(pin.pair, pin.din, pin.dout),
                )
                pin.broadcast_pinned = True
        # Fan the items across every worker.  The global gate bounds
        # aggregate pool work; the window only bounds how many tasks this
        # one batch line materializes.
        results = []
        window = max(1, self.max_inflight)
        for start in range(0, len(queries), window):
            chunk = [
                self._pinned_call(pin, "typecheck", payload, trace, fanout=True)
                for pin, payload in queries[start : start + window]
            ]
            results.extend(await asyncio.gather(*chunk))
        return results


async def serve(
    host: str = "127.0.0.1",
    port: int = 8722,
    *,
    workers: int = 2,
    cache_dir=None,
    max_inflight: int = DEFAULT_MAX_INFLIGHT,
    max_inflight_total: int = DEFAULT_MAX_INFLIGHT_TOTAL,
    cache_max_bytes: Optional[int] = DEFAULT_CACHE_BYTES,
    worker_registry_bytes: Optional[int] = None,
    worker_pair_limit: Optional[int] = None,
    ready_message: bool = False,
    trace_path: Optional[str] = None,
    trace_max_bytes: Optional[int] = None,
    metrics_port: Optional[int] = None,
    slow_query_log: Optional[str] = None,
    slow_ms: float = DEFAULT_SLOW_MS,
    slow_log_max_bytes: Optional[int] = None,
):
    """Start pool + server; returns ``(service, pool)`` once listening.

    ``trace_path`` turns on the JSON-lines span sink in the server *and*
    every pool worker (all appending to the same file; ``trace_max_bytes``
    bounds it with a one-segment rotation).  ``metrics_port`` opens a
    second listener serving Prometheus text exposition of the merged
    server+worker registry (plus ``/healthz`` and ``/readyz``), and
    enables the hot kernel counters.  ``slow_query_log`` appends a JSON
    line — wire identifiers plus the query's full explain report — for
    every single-instance request slower than ``slow_ms``; loggable ops
    then always run with ``explain=True`` (the documented price of the
    log), so kernel metrics are enabled in the workers too.
    """
    if trace_path is not None:
        _trace.trace_to(str(trace_path), max_bytes=trace_max_bytes)
    observing = metrics_port is not None or slow_query_log is not None
    if observing:
        _metrics.enable_kernel_metrics()
    pool = WorkerPool(
        workers,
        cache_dir=cache_dir,
        cache_max_bytes=cache_max_bytes,
        worker_registry_bytes=worker_registry_bytes,
        worker_pair_limit=worker_pair_limit,
        trace_path=str(trace_path) if trace_path is not None else None,
        metrics=observing,
    )
    service = ServiceServer(
        pool,
        max_inflight=max_inflight,
        max_inflight_total=max_inflight_total,
        slow_query_log=slow_query_log,
        slow_ms=slow_ms,
        slow_log_max_bytes=slow_log_max_bytes,
    )
    await service.start(host, port)
    if metrics_port is not None:
        await service.start_metrics(host, metrics_port)
    if ready_message:
        # One parseable line for process supervisors and the demo script.
        print(f"repro-service listening on {host}:{service.port}", flush=True)
        if metrics_port is not None:
            print(
                f"repro-service metrics on {host}:{service.metrics_port}",
                flush=True,
            )
    return service, pool


def run_server(
    host: str = "127.0.0.1",
    port: int = 8722,
    *,
    workers: int = 2,
    cache_dir=None,
    max_inflight: int = DEFAULT_MAX_INFLIGHT,
    max_inflight_total: int = DEFAULT_MAX_INFLIGHT_TOTAL,
    cache_max_bytes: Optional[int] = DEFAULT_CACHE_BYTES,
    worker_registry_bytes: Optional[int] = None,
    worker_pair_limit: Optional[int] = None,
    trace_path: Optional[str] = None,
    trace_max_bytes: Optional[int] = None,
    metrics_port: Optional[int] = None,
    slow_query_log: Optional[str] = None,
    slow_ms: float = DEFAULT_SLOW_MS,
    slow_log_max_bytes: Optional[int] = None,
) -> int:
    """Blocking entry point behind ``python -m repro serve``; Ctrl-C or
    SIGTERM closes the server and the worker pool, then returns 0."""
    import signal

    async def main() -> None:
        stop = asyncio.Event()
        try:
            asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
        except NotImplementedError:  # pragma: no cover - no POSIX signals
            pass
        service, pool = await serve(
            host,
            port,
            workers=workers,
            cache_dir=cache_dir,
            max_inflight=max_inflight,
            max_inflight_total=max_inflight_total,
            cache_max_bytes=cache_max_bytes,
            worker_registry_bytes=worker_registry_bytes,
            worker_pair_limit=worker_pair_limit,
            ready_message=True,
            trace_path=trace_path,
            trace_max_bytes=trace_max_bytes,
            metrics_port=metrics_port,
            slow_query_log=slow_query_log,
            slow_ms=slow_ms,
            slow_log_max_bytes=slow_log_max_bytes,
        )
        try:
            await stop.wait()  # serve until SIGTERM
        finally:
            await service.close()
            pool.close()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    return 0
