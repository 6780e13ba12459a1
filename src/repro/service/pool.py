"""The multi-process worker pool behind the typechecking service.

Each worker is a separate OS process (stdlib ``multiprocessing``, ``spawn``
start method for clean interpreter state) running :func:`_worker_main`:
a loop that executes requests against *warm compiled sessions*.  Inside a
worker, ``repro.compile`` dedups by schema content hash through the
process-global registry, and the shared on-disk artifact cache
(``cache_dir``) lets every worker after the first hydrate a pair's kernels
instead of recompiling them — so a pair's kernels compile at most once per
worker, usually once per *machine*.

Routing: single-instance requests hash their schema pair onto a fixed
worker (the pair stays warm in one place); batch requests and shard
fan-outs round-robin across all workers — the two hot paths that exercise
true parallelism.  A protocol-v2 pinned request carries transducer text;
its worker parses each text once per pin (then the session's
content-keyed memo analyses it once), so a repeated query costs what the
warm query costs.

Tickets: :meth:`WorkerPool.submit` only queues and returns a
:class:`PoolTicket`; ``ticket.result()`` blocks a thread, while an event
loop awaits ``ticket.future``.  A worker also watches its parent's
process sentinel and exits when the parent dies, so a killed owner
leaves no orphaned workers behind.

Crash handling: a supervisor thread watches worker liveness while it
collects results (``multiprocessing.connection.wait`` over *per-worker*
result queues — a worker killed mid-reply can then only poison its own
queue, which is discarded at respawn; a single shared result queue would
let a corpse keep the shared write lock and wedge every healthy worker's
replies).  A dead worker is respawned with fresh queues and every
unresolved request assigned to it is retried on a healthy worker, at most
``max_retries`` times — a poison request that kills every worker it
touches surfaces as :class:`~repro.errors.WorkerCrashError` instead of
cycling forever.

The pool is also the in-process embedding API (no sockets involved)::

    with WorkerPool(workers=4) as pool:
        results = pool.typecheck_batch(din, dout, transducers)
        result = pool.typecheck_sharded(din, dout, transducer, shards=4)
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future, InvalidStateError
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Dict, List, Optional, Sequence, Tuple

import multiprocessing

from repro.errors import (
    ProtocolError,
    ReproError,
    UnknownPairError,
    WorkerCrashError,
)
from repro.engines import get_engine
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.schemas.dtd import DTD
from repro.service import protocol
from repro.util import lru_get, lru_store


def _wire_schema(schema):
    """A compiled-cache-free clone for the request queue.

    A warm DTD drags its content NFAs/DFAs and interned kernels through
    every pickle; the worker neither wants nor uses them (it has its own
    warm session, found by content hash).  The clone shares the authored
    content models and hashes identically, so routing and registry lookups
    are unaffected while request payloads stay small.  Non-DTD schemas
    (NTAs) pass through unchanged.
    """
    if isinstance(schema, DTD):
        return DTD(schema.rules(), start=schema.start, alphabet=schema.alphabet)
    return schema

#: Default byte bound applied to the service's artifact-cache directory at
#: pool startup (satellite: the disk cache only grew before PR 3).
DEFAULT_CACHE_BYTES = 512 * 1024 * 1024

_SENTINEL = None


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
#: Protocol-v2 pair registry of *this worker process*: pair digest →
#: ``(sin, sout, texts)``.  A pin ships the schemas to the worker once;
#: pinned requests then carry only the digest (plus transducer text), and
#: ``texts`` memoizes each parsed transducer text of the pair (an LRU of
#: :data:`PINNED_TEXT_LIMIT`), so it is evicted together with its pin.  Entries
#: are tiny wire clones — the heavy compiled state lives in the session
#: registry, which evicts by bytes independently of the pins — but a
#: service pinned to millions of pairs must not grow this without bound
#: either, so the registry is a small LRU (``worker_pair_limit`` pool
#: knob): pins touch on every pinned request, and an evicted pair is
#: *coordinated with the server's connection state* through the existing
#: re-pin protocol — the worker answers :class:`UnknownPairError`, the
#: server re-pins from its per-connection ``_Pin`` snapshot and retries,
#: exactly as after a worker respawn.
_WORKER_PAIRS: "OrderedDict[str, Tuple[object, object, OrderedDict]]" = OrderedDict()

#: Default bound on pinned pairs per worker (overridden per pool via the
#: ``worker_pair_limit`` knob, transported in the worker config).
DEFAULT_WORKER_PAIR_LIMIT = 512

_WORKER_PAIR_LIMIT = DEFAULT_WORKER_PAIR_LIMIT

#: Bound on the parsed transducer texts memoized per pinned pair.
PINNED_TEXT_LIMIT = 64


def _pin_pair(pair_key: str, sin, sout) -> None:
    """Register (or refresh) a pinned pair, LRU-evicting over the limit."""
    before = len(_WORKER_PAIRS) + (0 if pair_key in _WORKER_PAIRS else 1)
    lru_store(
        _WORKER_PAIRS, pair_key, (sin, sout, OrderedDict()), _WORKER_PAIR_LIMIT
    )
    evicted = before - len(_WORKER_PAIRS)
    if evicted > 0:
        _metrics.counter("repro.worker.pair_evictions").inc(evicted)


def _pinned_transducer(sin, texts, text):
    """The transducer of one pinned request's section ``text``, parsed
    (and validated) on first sight and memoized in the pin's ``texts``."""
    if not isinstance(text, str):
        raise ProtocolError("a pinned request needs transducer section text")
    transducer = lru_get(texts, text)
    if transducer is None:
        transducer = protocol.parse_transducer_section(
            protocol.split_sections(text)[0], sin.alphabet
        )
        lru_store(texts, text, transducer, PINNED_TEXT_LIMIT)
    return transducer


def _json_result(session, transducer, json_op: str, method, base=None,
                 explain: bool = False):
    """Run one JSON-shaped request against a warm session."""
    from repro.service.protocol import analysis_to_json, result_to_json

    if not isinstance(method, str):
        raise ProtocolError("'method' must be a string")
    if json_op == "analysis":
        return analysis_to_json(session.analysis(transducer))
    if json_op == "retypecheck":
        if base is None:
            raise ProtocolError("'retypecheck' needs a 'base' transducer section")
        return result_to_json(
            session.retypecheck(transducer, base, method=method, explain=explain)
        )
    result = session.typecheck(transducer, method=method, explain=explain)
    if json_op == "counterexample":
        response = {
            "typechecks": result.typechecks,
            "counterexample": (
                None
                if result.counterexample is None
                else str(result.counterexample)
            ),
        }
        if result.report is not None:
            response["explain"] = result.report.to_dict()
        return response
    return result_to_json(result)


def _worker_execute(op: str, args, config: Dict[str, object]):
    """Execute one request inside a worker process."""
    import repro
    from repro.core.session import registry_info

    cache_dir = config.get("cache_dir")
    use_kernel = bool(config.get("use_kernel", True))

    def warm_session(sin, sout):
        return repro.compile(
            sin, sout, use_kernel=use_kernel, eager=False, cache_dir=cache_dir
        )

    if op == "ping":
        return {"pong": True, "pid": os.getpid()}
    if op == "metrics":
        return _metrics.snapshot()
    if op == "worker_stats":
        return {
            "pid": os.getpid(),
            "registry": registry_info(),
            "pinned_pairs": sorted(_WORKER_PAIRS),
        }
    if op == "sleep":  # test/diagnostics aid
        time.sleep(float(args))
        return {"slept": float(args)}
    if op == "crash":  # test aid: die without cleanup, like a real fault
        os._exit(13)
    if op == "typecheck":
        sin, sout, transducer, method, kwargs = args
        session = warm_session(sin, sout)
        return session.typecheck(transducer, method=method, **kwargs)
    if op == "retypecheck":
        sin, sout, transducer, base, method, kwargs = args
        session = warm_session(sin, sout)
        return session.retypecheck(transducer, base, method=method, **kwargs)
    if op == "analysis":
        sin, sout, transducer = args
        return warm_session(sin, sout).analysis(transducer)
    if op == "compute_tables":
        sin, sout, transducer, keys, opts = args
        opts = dict(opts)
        session = warm_session(sin, sout)
        method = opts.pop("method", "forward")
        return session.compute_shard_tables(transducer, keys, method, **opts)
    if op == "pin":
        pair_key, sin, sout = args
        _pin_pair(pair_key, sin, sout)
        warm_session(sin, sout)  # pay the compile on the pin, not the query
        return {"pinned": pair_key}
    if op == "pinned":
        pair_key, json_op, payload = args
        pair = _WORKER_PAIRS.get(pair_key)
        if pair is None:
            raise UnknownPairError(
                f"pair {pair_key[:12]}… is not pinned in this worker "
                "(respawned, evicted from the pair LRU, or the request "
                "was retried elsewhere)"
            )
        _WORKER_PAIRS.move_to_end(pair_key)  # pinned traffic keeps it warm
        sin, sout, texts = pair
        transducer = _pinned_transducer(sin, texts, payload.get("transducer"))
        base_text = payload.get("base")
        base = (
            None
            if base_text is None
            else _pinned_transducer(sin, texts, base_text)
        )
        return _json_result(
            warm_session(sin, sout),
            transducer,
            json_op,
            payload.get("method", "auto"),
            base=base,
            explain=bool(payload.get("explain", False)),
        )
    if op == "json_parsed":
        sin, sout, transducer, method, json_op, base, explain = args
        return _json_result(
            warm_session(sin, sout), transducer, json_op, method, base=base,
            explain=explain,
        )
    raise ProtocolError(f"unknown worker op {op!r}")


#: Worker-side span names per pool op (anything else spans as the op name).
_WORKER_SPAN_NAMES = {"compute_tables": "shard_exec"}


def _worker_main(index: int, inq, outq, config: Dict[str, object]) -> None:
    """Worker process body: execute requests until the sentinel arrives
    or the parent process dies (its sentinel becomes ready: nothing would
    read the replies, and an orphaned worker would live on forever)."""
    from multiprocessing.connection import wait as connection_wait

    registry_bytes = config.get("registry_max_bytes")
    if registry_bytes is not None:
        from repro.core.session import set_registry_budget

        # Size-aware eviction inside this worker: the budget bounds the
        # resident compiled pairs by bytes, not count.
        set_registry_budget(int(registry_bytes))  # type: ignore[arg-type]
    pair_limit = config.get("worker_pair_limit")
    if pair_limit is not None:
        global _WORKER_PAIR_LIMIT
        _WORKER_PAIR_LIMIT = max(1, int(pair_limit))  # type: ignore[arg-type]
    trace_path = config.get("trace_path")
    if trace_path is not None:
        # Every worker appends whole JSON lines to the same sink file the
        # server uses, so one query's spans interleave but never tear.
        _trace.trace_to(str(trace_path))
    if config.get("metrics"):
        from repro.obs import enable_kernel_metrics

        enable_kernel_metrics()
    watched = [inq._reader]
    parent = multiprocessing.parent_process()
    if parent is not None:
        watched.append(parent.sentinel)
    while True:
        if inq._reader not in connection_wait(watched):
            outq.cancel_join_thread()  # no reader is left to flush to
            break
        item = inq.get()
        if item is _SENTINEL:
            break
        req_id, op, args, trace = item
        try:
            if trace is not None and _trace.enabled():
                attrs = {"op": op, "worker": index}
                if trace.get("retry"):
                    attrs["retry"] = trace["retry"]
                with _trace.activate(trace), _trace.span(
                    _WORKER_SPAN_NAMES.get(op, op), **attrs
                ):
                    value = _worker_execute(op, args, config)
            else:
                value = _worker_execute(op, args, config)
        except BaseException as exc:  # noqa: BLE001 - transported to parent
            outq.put((req_id, index, False, protocol.error_info(exc)))
        else:
            outq.put((req_id, index, True, value))


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class PoolTicket:
    """Handle for one in-flight pool request.

    ``future`` is a :class:`concurrent.futures.Future` the supervisor
    resolves, so an event loop can await it without a parked thread
    (``asyncio.wrap_future(ticket.future)``, the TCP server's path).
    """

    __slots__ = ("request", "slot", "retries", "trace", "future")

    def __init__(self, request, slot: int, trace=None) -> None:
        self.request = request
        self.slot = slot
        self.retries = 0
        self.trace: Optional[Dict[str, object]] = trace
        self.future: Future = Future()

    def _resolve(self, ok: bool, value) -> None:
        try:
            if ok:
                self.future.set_result(value)
            else:
                self.future.set_exception(protocol.error_from_info(value))
        except InvalidStateError:
            pass  # duplicate reply after a retry — first answer wins

    def done(self) -> bool:
        return self.future.done()

    def result(self, timeout: Optional[float] = None):
        """Block for the result; re-raises transported errors."""
        try:
            return self.future.result(timeout)
        except FutureTimeoutError:
            raise TimeoutError("pool request still in flight") from None


class _WorkerSlot:
    __slots__ = ("process", "inq", "outq", "generation")

    def __init__(self, process, inq, outq, generation: int) -> None:
        self.process = process
        self.inq = inq
        self.outq = outq
        self.generation = generation


class WorkerPool:
    """A fixed-size pool of typechecking worker processes."""

    def __init__(
        self,
        workers: int = 2,
        *,
        cache_dir=None,
        use_kernel: bool = True,
        max_retries: int = 2,
        cache_max_bytes: Optional[int] = DEFAULT_CACHE_BYTES,
        worker_registry_bytes: Optional[int] = None,
        worker_pair_limit: Optional[int] = None,
        trace_path=None,
        metrics: bool = False,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.cache_dir = cache_dir
        self.config: Dict[str, object] = {
            "cache_dir": None if cache_dir is None else str(cache_dir),
            "use_kernel": use_kernel,
            # Per-worker session-registry byte budget (None = the library
            # default): size-aware eviction for services pinned to many
            # pairs, observable via worker_stats().
            "registry_max_bytes": worker_registry_bytes,
            # Bound on each worker's protocol-v2 pair registry (None = the
            # library default, DEFAULT_WORKER_PAIR_LIMIT).  Evicted pins
            # resurrect transparently through the server's re-pin path.
            "worker_pair_limit": worker_pair_limit,
            # Observability: workers append span records to this shared
            # JSON-lines sink and, with metrics=True, run the metered
            # ProductBFS drain (kernel counters).
            "trace_path": None if trace_path is None else str(trace_path),
            "metrics": bool(metrics),
        }
        self.max_retries = max_retries
        self.stats: Dict[str, int] = {
            "requests": 0, "retries": 0, "respawns": 0, "completed": 0,
        }
        if cache_dir is not None and cache_max_bytes is not None:
            # Bound the service's cache dir before the workers point at it.
            from repro import cache as artifact_cache

            artifact_cache.clear(cache_dir, max_bytes=cache_max_bytes)
        self._context = multiprocessing.get_context("spawn")
        self._slots: List[_WorkerSlot] = []
        self._lock = threading.RLock()
        self._tickets: Dict[int, PoolTicket] = {}
        self._req_counter = itertools.count(1)
        self._rr = itertools.count()
        self._closed = False
        for index in range(workers):
            self._slots.append(self._spawn(index))
        self._supervisor = threading.Thread(
            target=self._supervise, name="repro-pool-supervisor", daemon=True
        )
        self._supervisor.start()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, index: int, generation: int = 0) -> _WorkerSlot:
        # One result queue PER worker: a worker killed mid-reply can then
        # only poison its own queue (discarded at respawn), never a lock
        # shared with healthy workers.  The first design shared one outq,
        # and a SIGTERM landing between a feeder's send and its write-lock
        # release wedged every other worker's replies permanently.
        inq = self._context.Queue()
        outq = self._context.Queue()
        process = self._context.Process(
            target=_worker_main,
            args=(index, inq, outq, self.config),
            name=f"repro-worker-{index}",
            daemon=True,
        )
        process.start()
        # The parent never writes to outq; dropping its write end makes
        # the worker the *only* writer, so a worker death turns a pending
        # read into a clean EOF instead of an indefinite block.  (The
        # spawn reduction duplicated the fd at start(), so the child's
        # copy is unaffected.)
        outq._writer.close()
        return _WorkerSlot(process, inq, outq, generation)

    def close(self) -> None:
        """Stop the workers and the supervisor; idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for slot in self._slots:
            try:
                slot.inq.put(_SENTINEL)
            except (OSError, ValueError):
                pass
        for slot in self._slots:
            slot.process.join(timeout=2)
            if slot.process.is_alive():
                slot.process.terminate()
                slot.process.join(timeout=1)
        self._supervisor.join(timeout=2)
        for slot in self._slots:
            slot.inq.cancel_join_thread()
            slot.inq.close()
            slot.outq.cancel_join_thread()
            slot.outq.close()
        # Fail anything still unresolved (e.g. requests outstanding at
        # shutdown) so no caller blocks forever.
        with self._lock:
            tickets = list(self._tickets.values())
            self._tickets.clear()
        for ticket in tickets:
            ticket._resolve(
                False,
                {"type": "WorkerCrashError", "message": "pool closed"},
            )

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Supervision: results + liveness
    # ------------------------------------------------------------------
    def _supervise(self) -> None:
        import queue as queue_module
        from multiprocessing.connection import wait as connection_wait

        while True:
            with self._lock:
                if self._closed:
                    return
                readers = {
                    slot.outq._reader: slot.outq for slot in self._slots
                }
            try:
                ready = connection_wait(list(readers), timeout=0.2)
            except (OSError, ValueError):
                continue  # a queue closed mid-wait (respawn/shutdown)
            if not ready:
                self._check_liveness()
                continue
            for reader in ready:
                try:
                    req_id, _index, ok, value = readers[reader].get_nowait()
                except queue_module.Empty:
                    continue  # spurious wakeup / raced another consumer
                except (OSError, ValueError, EOFError):
                    # EOF: the worker died (possibly mid-reply).  Respawn
                    # and retry its tickets now — waiting for the idle
                    # branch would spin on the permanently-ready reader.
                    self._check_liveness()
                    time.sleep(0.01)  # let a just-killed process reap
                    continue
                with self._lock:
                    ticket = self._tickets.pop(req_id, None)
                    if ticket is not None:
                        self.stats["completed"] += 1
                        _metrics.counter("repro.pool.completed").inc()
                if ticket is not None:
                    ticket._resolve(ok, value)

    def _check_liveness(self) -> None:
        with self._lock:
            if self._closed:
                return
            dead = [
                index
                for index, slot in enumerate(self._slots)
                if not slot.process.is_alive()
            ]
            if not dead:
                return
            orphans: List[Tuple[int, PoolTicket]] = []
            for index in dead:
                old = self._slots[index]
                old.inq.cancel_join_thread()
                old.inq.close()
                old.outq.close()  # with it goes any lock the corpse held
                self._slots[index] = self._spawn(index, old.generation + 1)
                self.stats["respawns"] += 1
                _metrics.counter("repro.pool.respawns").inc()
                for req_id, ticket in list(self._tickets.items()):
                    if ticket.slot == index and not ticket.done():
                        orphans.append((req_id, ticket))
            healthy = [
                index for index in range(self.workers) if index not in dead
            ] or list(range(self.workers))
            for req_id, ticket in orphans:
                ticket.retries += 1
                if ticket.retries > self.max_retries:
                    del self._tickets[req_id]
                    ticket._resolve(
                        False,
                        {
                            "type": "WorkerCrashError",
                            "message": (
                                f"request crashed {ticket.retries} worker(s); "
                                "giving up"
                            ),
                        },
                    )
                    continue
                self.stats["retries"] += 1
                _metrics.counter("repro.pool.retries").inc()
                # Prefer a worker that did not just die on this request.
                target = healthy[req_id % len(healthy)]
                ticket.slot = target
                # The retry re-ships the original trace context with the
                # attempt count, so the healthy worker re-emits its spans
                # under the same trace ID with a visible retry=N attribute.
                trace = ticket.trace
                if trace is not None:
                    trace = dict(trace, retry=ticket.retries)
                    ticket.trace = trace
                self._slots[target].inq.put((req_id, *ticket.request, trace))

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        op: str,
        args,
        slot: Optional[int] = None,
        trace: Optional[Dict[str, object]] = None,
    ) -> PoolTicket:
        """Queue one request; returns a :class:`PoolTicket`.

        ``trace`` is a transported trace context
        (:func:`repro.obs.trace.wire_context`-shaped); when omitted, the
        submitting thread's active trace rides along, so worker spans join
        the caller's trace across the process boundary.
        """
        if trace is None:
            trace = _trace.wire_context()
        with self._lock:
            if self._closed:
                raise WorkerCrashError("pool is closed")
            req_id = next(self._req_counter)
            if slot is None:
                slot = next(self._rr) % self.workers
            ticket = PoolTicket((op, args), slot % self.workers, trace=trace)
            self._tickets[req_id] = ticket
            self.stats["requests"] += 1
            _metrics.counter("repro.pool.requests").inc()
            self._slots[ticket.slot].inq.put((req_id, op, args, trace))
        return ticket

    def slot_for(self, pair_digest: str) -> int:
        """The worker a routing digest is affine to."""
        return int(pair_digest[:8], 16) % self.workers

    def route_slot(self, sin, sout) -> int:
        """The worker a schema pair is affine to.

        Routing goes through the one canonical digest
        (:func:`repro.service.protocol.pair_digest`) for objects and text
        payloads alike — the seed's separate raw-text hash could send the
        same logical pair to two different workers depending on how a
        request was framed.
        """
        return self.slot_for(protocol.pair_digest(sin, sout))

    # ------------------------------------------------------------------
    # Protocol-v2 pins
    # ------------------------------------------------------------------
    def pin_pair(
        self,
        pair_key: str,
        sin,
        sout,
        slot: Optional[int] = None,
        timeout: Optional[float] = 120.0,
    ) -> None:
        """Register a schema pair in worker pair registries.

        With ``slot`` given, pins that worker (the pair's affine slot —
        the v2 ``set_pair`` path) and waits so the pin's compile errors
        surface on the ``set_pair`` response.  Without ``slot``,
        *broadcasts* to every worker — the batch fan-out and
        crash-recovery path, where any worker may receive pinned
        requests.
        """
        wire = (_wire_schema(sin), _wire_schema(sout))
        slots = range(self.workers) if slot is None else (slot,)
        tickets = [
            self.submit("pin", (pair_key, *wire), slot=index) for index in slots
        ]
        for ticket in tickets:
            ticket.result(timeout=timeout)

    # ------------------------------------------------------------------
    # High-level object API
    # ------------------------------------------------------------------
    def ping(self) -> List[Dict[str, object]]:
        """Round-trip every worker once."""
        tickets = [
            self.submit("ping", None, slot=index) for index in range(self.workers)
        ]
        return [ticket.result(timeout=30) for ticket in tickets]

    def typecheck(
        self, sin, sout, transducer, method: str = "auto", **kwargs
    ):
        """One instance on the pair's affine worker."""
        ticket = self.submit(
            "typecheck",
            (_wire_schema(sin), _wire_schema(sout), transducer, method, kwargs),
            slot=self.route_slot(sin, sout),
        )
        return ticket.result()

    def retypecheck(
        self, sin, sout, transducer, base, method: str = "auto", **kwargs
    ):
        """One edited instance on the pair's affine worker — that worker
        holds ``base``'s warm tables whenever it checked ``base``, so the
        incremental path engages exactly when routing kept the pair hot."""
        ticket = self.submit(
            "retypecheck",
            (
                _wire_schema(sin),
                _wire_schema(sout),
                transducer,
                base,
                method,
                kwargs,
            ),
            slot=self.route_slot(sin, sout),
        )
        return ticket.result()

    def analysis(self, sin, sout, transducer):
        ticket = self.submit(
            "analysis",
            (_wire_schema(sin), _wire_schema(sout), transducer),
            slot=self.route_slot(sin, sout),
        )
        return ticket.result()

    def typecheck_batch(
        self,
        sin,
        sout,
        transducers: Sequence,
        method: str = "auto",
        return_errors: bool = False,
        **kwargs,
    ) -> List[object]:
        """Fan a batch out across every worker; results in input order.

        With ``return_errors=True`` failed items come back as exception
        objects in their slot instead of aborting the whole batch.
        """
        wire_sin, wire_sout = _wire_schema(sin), _wire_schema(sout)
        tickets = [
            self.submit(
                "typecheck", (wire_sin, wire_sout, transducer, method, kwargs)
            )
            for transducer in transducers
        ]
        results: List[object] = []
        for ticket in tickets:
            if return_errors:
                try:
                    results.append(ticket.result())
                except ReproError as exc:
                    results.append(exc)
            else:
                results.append(ticket.result())
        return results

    def typecheck_sharded(
        self,
        sin,
        sout,
        transducer,
        shards: Optional[int] = None,
        max_tuple: Optional[int] = None,
        planner: str = "cost",
        method: str = "auto",
        **kwargs,
    ):
        """One instance with its fixpoint sharded across workers.

        The parent's warm session resolves the engine
        (``Session.shard_method`` — ``"auto"`` routes by the cost models,
        forced backward when the forward engine would refuse the
        instance) and plans the key partitions (LPT over predicted cell
        costs by default — see ``Session.typecheck_sharded``); each
        worker computes its partition's fixpoint closure against its own
        warm session and ships the (picklable) tables back; the parent
        merges and finishes.  Verdicts are identical to the unsharded
        engine, and the result's stats carry per-shard worker wall times
        plus the chosen engine (``stats["shard_method"]``).
        """
        import repro

        session = repro.compile(
            sin, sout, eager=False,
            use_kernel=bool(self.config["use_kernel"]),
            cache_dir=self.config["cache_dir"],
        )
        method = session.shard_method(transducer, method, max_tuple)
        opts: Dict[str, object] = {"method": method}
        if get_engine(method).accepts_max_tuple:
            opts["max_tuple"] = max_tuple
        wire_sin, wire_sout = _wire_schema(sin), _wire_schema(sout)

        def compute_shards(partitions: List[List[Tuple]]):
            tickets = [
                self.submit(
                    "compute_tables",
                    (wire_sin, wire_sout, transducer, partition, opts),
                )
                for partition in partitions
            ]
            return [ticket.result() for ticket in tickets]

        return session.typecheck_sharded(
            transducer,
            compute_shards,
            shards=shards or self.workers,
            max_tuple=max_tuple,
            planner=planner,
            method=method,
            **kwargs,
        )

    # ------------------------------------------------------------------
    # Wire-payload API (used by the server)
    # ------------------------------------------------------------------
    def submit_payload(
        self, payload: Dict[str, object], trace: Optional[Dict[str, object]] = None
    ) -> PoolTicket:
        """Dispatch one already-validated single-instance request payload.

        The instance is parsed *here* (so parse errors surface before a
        worker is involved) and routed by the canonical pair digest —
        text-blob and section-field payloads of one logical pair land on
        the same worker as equivalent object-API calls.  The parsed,
        wire-clean objects ship to the worker, which therefore never
        re-parses.
        """
        op = payload.get("op")
        if op not in ("typecheck", "counterexample", "analysis", "retypecheck"):
            raise ProtocolError(f"op {op!r} is not a single-instance op")
        return self.submit_single(payload, str(op), trace=trace)

    def submit_single(
        self,
        payload: Dict[str, object],
        json_op: str,
        fanout: bool = False,
        trace: Optional[Dict[str, object]] = None,
    ) -> PoolTicket:
        """Parse, route and queue one instance payload as ``json_op``.

        ``fanout=True`` round-robins instead of pinning to the pair's
        affine worker — the batch path, where the same warm pair exists in
        every worker and parallelism is the point.  ``trace`` is passed to
        :meth:`submit`.
        """
        transducer, din, dout = protocol.parse_instance_payload(payload)
        method = payload.get("method", "auto")
        if not isinstance(method, str):
            raise ProtocolError("'method' must be a string")
        base = None
        base_text = payload.get("base")
        if base_text is not None:
            if not isinstance(base_text, str):
                raise ProtocolError("'base' must be transducer section text")
            base = protocol.parse_transducer_section(
                protocol.split_sections(base_text)[0], din.alphabet
            )
        if json_op == "retypecheck" and base is None:
            raise ProtocolError("'retypecheck' needs a 'base' transducer section")
        return self.submit(
            "json_parsed",
            (
                _wire_schema(din),
                _wire_schema(dout),
                transducer,
                method,
                json_op,
                base,
                bool(payload.get("explain", False)),
            ),
            slot=None if fanout else self.route_slot(din, dout),
            trace=trace,
        )

    def split_payload_many(
        self, payload: Dict[str, object]
    ) -> List[Dict[str, object]]:
        """A ``typecheck_many`` payload as its single-instance payloads."""
        transducers = payload.get("transducers")
        if not isinstance(transducers, list) or not all(
            isinstance(item, str) for item in transducers
        ):
            raise ProtocolError(
                "'typecheck_many' needs 'transducers': [section text, ...]"
            )
        base = {
            key: value
            for key, value in payload.items()
            if key in ("din", "dout", "method")
        }
        singles = []
        for item in transducers:
            single = dict(base)
            single["transducer"] = item
            singles.append(single)
        return singles

    def submit_payload_many(
        self, payload: Dict[str, object]
    ) -> List[PoolTicket]:
        """Split a ``typecheck_many`` payload and fan it out (round-robin).

        Unbounded: every item is queued at once.  The TCP server does NOT
        use this — it windows the items under its global inflight gate
        (see ``ServiceServer._dispatch``) so one batch line cannot balloon
        the queues.
        """
        return [
            self.submit_single(single, "typecheck", fanout=True)
            for single in self.split_payload_many(payload)
        ]

    def worker_stats(self, timeout: Optional[float] = 30.0) -> List[Dict[str, object]]:
        """Per-worker introspection round trip: session-registry detail
        (resident pairs, byte footprints, hit/miss/eviction counters) and
        the pinned protocol-v2 pairs.  A worker that is busy past
        ``timeout`` reports as unavailable instead of blocking the call.
        """
        tickets = [
            (index, self.submit("worker_stats", None, slot=index))
            for index in range(self.workers)
        ]
        stats: List[Dict[str, object]] = []
        for index, ticket in tickets:
            entry: Dict[str, object] = {"worker": index}
            try:
                entry.update(ticket.result(timeout=timeout))
            except TimeoutError:
                entry["unavailable"] = True
            except ReproError as exc:
                entry["unavailable"] = True
                entry["error"] = str(exc)
            stats.append(entry)
        return stats

    def metrics(self, timeout: Optional[float] = 30.0) -> Dict[str, object]:
        """Merged metrics across this process and every worker.

        Returns ``{"merged": ..., "parent": ..., "workers": [...]}`` —
        per-process :func:`repro.obs.metrics.snapshot` dicts plus their
        sum (counters and histogram buckets add; gauges take the max).  A
        worker busy past ``timeout`` is skipped rather than blocking.
        """
        tickets = [
            (index, self.submit("metrics", None, slot=index))
            for index in range(self.workers)
        ]
        workers: List[Dict[str, object]] = []
        for index, ticket in tickets:
            try:
                snap = ticket.result(timeout=timeout)
            except (TimeoutError, ReproError):
                snap = {}
            workers.append({"worker": index, "snapshot": snap})
        parent = _metrics.snapshot()
        merged = _metrics.merge_snapshots(
            [parent] + [entry["snapshot"] for entry in workers]
        )
        return {"merged": merged, "parent": parent, "workers": workers}

    def pool_stats(self, workers: bool = False) -> Dict[str, object]:
        """Pool health counters; ``workers=True`` adds the per-worker
        registry/eviction detail (a round trip into every worker — the
        ``stats`` op's view, not for hot paths)."""
        with self._lock:
            alive = sum(
                1 for slot in self._slots if slot.process.is_alive()
            )
            stats: Dict[str, object] = {
                "workers": self.workers,
                "alive": alive,
                **dict(self.stats),
                "in_flight": len(self._tickets),
            }
        if workers:
            stats["workers_detail"] = self.worker_stats()
        return stats
