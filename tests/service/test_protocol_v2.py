"""Protocol v2: sticky pairs, canonical routing, the global inflight gate,
and size-aware worker eviction surfaced through ``stats``."""

import asyncio
import concurrent.futures
import contextlib
import json
import socket
import threading
import time

import pytest

import repro
from repro.errors import ParseError, ProtocolError
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.pool import WorkerPool
from repro.service.server import ServiceServer
from repro.workloads.families import filtering_family, nd_bc_batch, nd_bc_family


# ----------------------------------------------------------------------
# Harness: a server in a background loop (pattern of test_server.py) and
# a byte-counting client file wrapper for the wire-level assertions.
# ----------------------------------------------------------------------
@contextlib.contextmanager
def _serving(pool, **server_kwargs):
    """A ServiceServer for ``pool`` listening on an OS-chosen port."""
    loop = asyncio.new_event_loop()
    service = ServiceServer(pool, **server_kwargs)
    started = threading.Event()

    def run():
        asyncio.set_event_loop(loop)

        async def go():
            await service.start("127.0.0.1", 0)
            started.set()

        loop.run_until_complete(go())
        loop.run_forever()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(10)
    try:
        yield service
    finally:
        async def shutdown():
            await service.close()
            pending = [
                task
                for task in asyncio.all_tasks()
                if task is not asyncio.current_task()
            ]
            for task in pending:
                task.cancel()
            await asyncio.gather(*pending, return_exceptions=True)

        asyncio.run_coroutine_threadsafe(shutdown(), loop).result(timeout=10)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=5)


@pytest.fixture(scope="module")
def server(shared_pool):
    with _serving(shared_pool) as service:
        yield service


class _CountingFile:
    """Wrap the client's socket file, recording every request byte."""

    def __init__(self, inner):
        self._inner = inner
        self.sent = bytearray()

    def write(self, data):
        self.sent.extend(data)
        return self._inner.write(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


@pytest.fixture()
def counting_client(server):
    with ServiceClient(port=server.port) as client:
        client._file = _CountingFile(client._file)
        yield client


@pytest.fixture()
def client(server):
    with ServiceClient(port=server.port) as connection:
        yield connection


# ----------------------------------------------------------------------
# Sticky pairs
# ----------------------------------------------------------------------
class TestStickyPairs:
    def test_schema_text_ships_exactly_once_per_connection_pair(
        self, counting_client
    ):
        """The acceptance wire test: across a pin plus many typechecks the
        DTD section text appears exactly once in the bytes sent, and the
        bare payloads are a fraction of the v1 framing."""
        transducers, din, dout, expected = nd_bc_batch(8, 6)
        handle = counting_client.pair(din, dout)
        for transducer in transducers:
            result = handle.typecheck(transducer, method="forward")
            assert result["typechecks"] == expected
        sent = bytes(counting_client._file.sent)
        # the JSON-escaped section text, exactly as it crosses the wire
        din_marker = json.dumps(protocol.dtd_to_text(din))[1:-1].encode()
        assert sent.count(din_marker) == 1  # once, in set_pair
        dout_marker = json.dumps(protocol.dtd_to_text(dout))[1:-1].encode()
        assert sent.count(dout_marker) == 1
        # and a bare request is much smaller than its v1 equivalent
        bare = len(
            protocol.encode(
                {
                    "id": 1, "op": "typecheck", "v": 2, "method": "forward",
                    "transducer": protocol.transducer_to_text(transducers[0]),
                }
            )
        )
        v1 = len(
            protocol.encode(
                {
                    "id": 1, "op": "typecheck", "method": "forward",
                    **protocol.instance_payload(transducers[0], din, dout),
                }
            )
        )
        assert bare < v1

    def test_sticky_verdicts_match_v1(self, client, counting_client):
        transducer, din, dout, expected = nd_bc_family(6, typechecks=False)
        v1 = client.typecheck(transducer, din, dout)
        handle = counting_client.pair(din, dout)
        v2 = handle.typecheck(transducer)
        assert v2["typechecks"] == v1["typechecks"] == expected
        assert v2["counterexample"] == v1["counterexample"]

    def test_pinned_counterexample_and_analysis(self, client):
        transducer, din, dout, _ = nd_bc_family(4, typechecks=False)
        handle = client.pair(din, dout)
        witness = handle.counterexample(transducer)
        assert witness is not None and din.accepts(witness)
        info = handle.analysis(transducer)
        assert info["in_trac"] is True

    def test_pinned_typecheck_many_matches_session(self, client):
        transducers, din, dout, _ = nd_bc_batch(7, 9)
        session = repro.compile(din, dout)
        expected = [
            result.typechecks
            for result in session.typecheck_many(transducers, method="forward")
        ]
        handle = client.pair(din, dout)
        served = handle.typecheck_many(transducers, method="forward")
        assert [item["typechecks"] for item in served] == expected

    def test_bare_request_without_pin_is_rejected(self, client):
        with pytest.raises(ProtocolError, match="no schema pair pinned"):
            client.call("typecheck", v=2, transducer="initial q states q")

    def test_set_pair_reports_parse_errors(self, client):
        with pytest.raises(ParseError):
            client.call("set_pair", v=2, din="not a dtd", dout="also not")

    def test_set_pair_requires_explicit_dout_alphabet(self, client):
        """Without a transducer the v1 dout-widening cannot be applied, so
        an un-pinned dout alphabet would make the same texts mean different
        pairs through v2 than through v1 — rejected up front."""
        _t, din, dout, _ = nd_bc_family(4)
        raw_dout = "\n".join(
            line
            for line in protocol.dtd_to_text(dout).splitlines()
            if not line.startswith("alphabet ")
        )
        with pytest.raises(ProtocolError, match="alphabet"):
            client.call(
                "set_pair", v=2, din=protocol.dtd_to_text(din), dout=raw_dout
            )

    def test_two_handles_interleave_by_repinning(self, client):
        t_a, din_a, dout_a, exp_a = nd_bc_family(4)
        t_b, din_b, dout_b, exp_b = filtering_family(4)
        a = client.pair(din_a, dout_a)
        b = client.pair(din_b, dout_b)
        assert a.typecheck(t_a)["typechecks"] == exp_a
        assert b.typecheck(t_b)["typechecks"] == exp_b
        assert a.typecheck(t_a)["typechecks"] == exp_a  # re-pins pair A
        assert a.pair_id != b.pair_id

    def test_pin_survives_worker_respawn(self):
        """Kill the pinned worker: the respawned process lost its pair
        registry, so the next bare request raises UnknownPairError inside
        the pool — the server re-pins and retries transparently."""
        with WorkerPool(2, cache_max_bytes=None) as pool:
            with _serving(pool) as service:
                with ServiceClient(port=service.port) as client:
                    transducer, din, dout, expected = nd_bc_family(5)
                    handle = client.pair(din, dout)
                    first = handle.typecheck(transducer)
                    assert first["typechecks"] == expected
                    slot = pool.slot_for(handle.pair_id)
                    generation = pool._slots[slot].generation
                    pool._slots[slot].process.terminate()
                    deadline = time.time() + 30
                    # wait for the *replacement* (generation bump), not for
                    # is_alive alone — the old process lingers briefly
                    # after SIGTERM and would race the next request
                    while not (
                        pool._slots[slot].generation > generation
                        and pool._slots[slot].process.is_alive()
                    ):
                        assert time.time() < deadline, "worker did not respawn"
                        time.sleep(0.05)
                    second = handle.typecheck(transducer)
                    assert second["typechecks"] == expected


class TestInlineRequests:
    def test_v1_clients_still_served_by_v2_server(self, client):
        # an inline request without a "v" field is read as the current
        # protocol and served
        transducer, din, dout, expected = nd_bc_family(4)
        result = client.typecheck(transducer, din, dout)
        assert result["typechecks"] == expected


# ----------------------------------------------------------------------
# Canonical routing (satellite: text/object parity)
# ----------------------------------------------------------------------
class TestRoutingParity:
    def test_object_and_text_payloads_route_to_the_same_slot(self, shared_pool):
        transducer, din, dout, _ = nd_bc_family(6)
        object_slot = shared_pool.route_slot(din, dout)
        # section-field payload
        payload = {"method": "auto", **protocol.instance_payload(transducer, din, dout)}
        _t, p_din, p_dout = protocol.parse_instance_payload(payload)
        assert shared_pool.route_slot(p_din, p_dout) == object_slot
        # one-blob text payload
        text = protocol.instance_to_text(transducer, din, dout)
        _t2, t_din, t_dout = protocol.parse_instance_payload({"text": text})
        assert shared_pool.route_slot(t_din, t_dout) == object_slot
        # and the v2 pin digest agrees with the object digest
        s_din, s_dout = protocol.parse_pair_payload(
            {"din": protocol.dtd_to_text(din), "dout": protocol.dtd_to_text(dout)}
        )
        assert protocol.pair_digest(s_din, s_dout) == protocol.pair_digest(din, dout)

    def test_widened_dout_routes_like_its_widened_self(self):
        """A dout section without an explicit alphabet is widened with the
        transducer's alphabet on parse; the routing digest is computed on
        the *widened* pair on every path (the seed hashed raw text)."""
        transducer, din, dout, _ = nd_bc_family(4)
        raw_dout_lines = [
            line
            for line in protocol.dtd_to_text(dout).splitlines()
            if not line.startswith("alphabet ")
        ]
        payload = {
            "din": protocol.dtd_to_text(din),
            "transducer": protocol.transducer_to_text(transducer),
            "dout": "\n".join(raw_dout_lines),
        }
        _t, p_din, p_dout = protocol.parse_instance_payload(payload)
        assert p_dout.alphabet == transducer.alphabet
        assert protocol.pair_digest(p_din, p_dout) == protocol.pair_digest(
            din, repro.DTD(dout.rules(), start=dout.start, alphabet=transducer.alphabet)
        )


# ----------------------------------------------------------------------
# Server-global inflight gate (satellite: the per-connection semaphore
# alone let N connections queue N x max_inflight requests)
# ----------------------------------------------------------------------
class _FakeTicket:
    """A ticket whose future resolves once ``release_event`` is set."""

    def __init__(self, release_event):
        self.future = concurrent.futures.Future()

        def resolve_on_release():
            assert release_event.wait(30)
            self.future.set_result({"ok": True})

        threading.Thread(target=resolve_on_release, daemon=True).start()


class _FakePool:
    """Stands in for WorkerPool: counts submissions, blocks results."""

    workers = 1

    def __init__(self):
        self.lock = threading.Lock()
        self.submitted = 0
        self.release = threading.Event()

    def slot_for(self, pair_digest):
        return 0

    def submit(self, op, args, slot=None, trace=None):
        assert op == "pinned"
        with self.lock:
            self.submitted += 1
        return _FakeTicket(self.release)

    def pin_pair(self, pair_key, sin, sout, slot=None, timeout=120.0):
        pass

    def pool_stats(self, workers=False):
        return {"workers": 1, "alive": 1}


class TestGlobalInflightGate:
    def test_aggregate_inflight_bounded_across_connections(self):
        """3 flooding connections x 4 pipelined requests against a server
        whose global gate admits 2: the pool must never see more than 2
        submissions until results flow (with only the per-connection
        semaphore, it would see up to 3 x max_inflight at once)."""
        fake = _FakePool()
        transducer, din, dout, _ = nd_bc_family(2)
        instance = protocol.instance_payload(transducer, din, dout)
        with _serving(fake, max_inflight=8, max_inflight_total=2) as service:
            connections = []
            try:
                for _ in range(3):
                    sock = socket.create_connection(("127.0.0.1", service.port))
                    connections.append(sock)
                    for index in range(4):
                        sock.sendall(
                            protocol.encode(
                                {"id": index, "op": "typecheck", **instance}
                            )
                        )
                deadline = time.time() + 10
                while fake.submitted < 2 and time.time() < deadline:
                    time.sleep(0.02)
                time.sleep(0.5)  # give over-admission a chance to show
                assert fake.submitted == 2  # the gate, not 3 x max_inflight
                fake.release.set()  # drain: every queued request completes
                deadline = time.time() + 30
                while fake.submitted < 12 and time.time() < deadline:
                    time.sleep(0.05)
                assert fake.submitted == 12
            finally:
                for sock in connections:
                    sock.close()


# ----------------------------------------------------------------------
# Size-aware worker eviction through the stats op
# ----------------------------------------------------------------------
class TestWorkerEvictionStats:
    def test_stats_op_reports_eviction_under_byte_budget(self):
        """A 1-worker pool with a tiny registry byte budget: compiling more
        pairs than fit must evict, and the ``stats`` op shows the counters
        and resident footprints moving (the acceptance test)."""
        with WorkerPool(
            1, cache_max_bytes=None, worker_registry_bytes=1
        ) as pool:
            with _serving(pool) as service:
                with ServiceClient(port=service.port) as client:
                    for n in (4, 5, 6):
                        transducer, din, dout, expected = nd_bc_family(n)
                        result = client.typecheck(
                            transducer, din, dout, method="forward"
                        )
                        assert result["typechecks"] == expected
                    stats = client.stats()
                    (detail,) = stats["workers_detail"]
                    registry = detail["registry"]
                    # budget of 1 byte: every new pair evicts the previous
                    assert registry["max_bytes"] == 1
                    assert registry["size"] == 1
                    assert registry["evictions"] >= 2
                    assert registry["misses"] >= 3
                    (resident,) = registry["pairs"]
                    assert resident["bytes"] > 0
                    assert stats["max_inflight_total"] >= 1

    def test_registry_hit_counters_move_on_a_repeated_pair(self, shared_pool):
        """The default-budget shared pool: pool_stats(workers=True)
        exposes per-worker registry hit counters that increase when a
        warm pair is re-served."""
        transducer, din, dout, _ = nd_bc_family(8)
        shared_pool.typecheck(din, dout, transducer, method="forward")
        before = shared_pool.pool_stats(workers=True)["workers_detail"]
        shared_pool.typecheck(din, dout, transducer, method="forward")
        after = shared_pool.pool_stats(workers=True)["workers_detail"]
        slot = shared_pool.route_slot(din, dout)
        assert after[slot]["registry"]["hits"] > before[slot]["registry"]["hits"]
        assert all("pinned_pairs" in entry for entry in after)
