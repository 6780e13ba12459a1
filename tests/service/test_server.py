"""TCP front-end: protocol round-trips, batch smoke, the serve CLI."""

import asyncio
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.errors import ClassViolationError, ProtocolError
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.pool import PoolTicket
from repro.service.server import ServiceServer
from repro.workloads.families import nd_bc_batch, nd_bc_family
from repro.workloads.random_instances import seeded_instance


@pytest.fixture(scope="module")
def server(shared_pool):
    """The shared pool behind a listening TCP server on an OS-chosen port."""
    loop = asyncio.new_event_loop()
    service = ServiceServer(shared_pool)
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
    yield service
    loop.call_soon_threadsafe(loop.stop)
    thread.join(timeout=5)


@pytest.fixture()
def client(server):
    with ServiceClient(port=server.port) as connection:
        yield connection


class TestOps:
    def test_ping_and_stats(self, server, client):
        banner = client.ping()
        assert banner["pong"] and banner["workers"] == server.pool.workers
        stats = client.stats()
        assert stats["alive"] == server.pool.workers

    def test_typecheck_with_timing(self, client):
        transducer, din, dout, expected = nd_bc_family(5)
        result = client.typecheck(transducer, din, dout)
        assert result["typechecks"] == expected
        assert client.last_response["elapsed_ms"] >= 0

    def test_counterexample_parses_back(self, client):
        transducer, din, dout, _ = nd_bc_family(4, typechecks=False)
        witness = client.counterexample(transducer, din, dout)
        assert witness is not None and din.accepts(witness)

    def test_analysis(self, client):
        transducer, din, dout, _ = nd_bc_family(4)
        info = client.analysis(transducer, din, dout)
        assert info["in_trac"] is True

    def test_sharded_typecheck_over_the_wire(self, client):
        transducer, din, dout, expected = nd_bc_family(6, typechecks=False)
        result = client.typecheck(transducer, din, dout, shards=2)
        assert result["typechecks"] == expected

    def test_typecheck_text_instance(self, client):
        transducer, din, dout, expected = nd_bc_family(4)
        text = protocol.instance_to_text(transducer, din, dout)
        result = client.typecheck_text(text)
        assert result["typechecks"] == expected

    def test_error_transport(self, client):
        # A transducer outside every T^{C,K}_trac with DTD(DFA)-ish regex
        # schemas (copying + recursive deletion): auto now degrades such
        # instances to the backward engine, so the explicit forward method
        # is what still crosses the frontier — the error must transport.
        for seed in range(60):
            transducer, din, dout = seeded_instance(seed)
            try:
                repro.typecheck(transducer, din, dout, method="forward")
            except ClassViolationError:
                with pytest.raises(ClassViolationError):
                    client.typecheck(transducer, din, dout, method="forward")
                return
        pytest.skip("no seed crossed the frontier")

    def test_malformed_line_is_an_error_response(self, client):
        client._file.write(b"this is not json\n")
        client._file.flush()
        response = protocol.decode_line(client._file.readline())
        assert response["ok"] is False
        assert response["error"]["type"] == "ProtocolError"

    def test_unknown_op_rejected(self, client):
        with pytest.raises(ProtocolError, match="unknown op"):
            client.call("explode")


class TestBatchSmoke:
    def test_batch_20_matches_in_process_session(self, client):
        """The CI service smoke: a 20-instance batch through the server
        (2 workers) must agree with one in-process compiled session."""
        transducers, din, dout, _ = nd_bc_batch(8, 20)
        session = repro.compile(din, dout)
        expected = [
            result.typechecks
            for result in session.typecheck_many(transducers, method="forward")
        ]
        served = client.typecheck_many(din, dout, transducers, method="forward")
        assert [item["typechecks"] for item in served] == expected
        stats = client.stats()
        assert stats["completed"] >= 20


class TestServeCommand:
    def test_python_m_repro_serve_round_trip(self, tmp_path):
        """End to end through the real CLI: spawn ``python -m repro serve``,
        wait for the ready line, typecheck over TCP, terminate."""
        repo_src = Path(__file__).resolve().parents[2] / "src"
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--workers", "1",
                "--cache-dir", str(tmp_path / "cache"),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={
                "PYTHONPATH": str(repo_src),
                "PATH": "/usr/bin:/bin",
                "HOME": str(tmp_path),
            },
        )
        try:
            line = process.stdout.readline()
            assert "listening on" in line, line
            port = int(line.rsplit(":", 1)[1])
            deadline = time.time() + 30
            transducer, din, dout, expected = nd_bc_family(4)
            while True:
                try:
                    with ServiceClient(port=port, timeout=30) as client:
                        result = client.typecheck(transducer, din, dout)
                        break
                except OSError:
                    if time.time() > deadline:
                        raise
                    time.sleep(0.2)
            assert result["typechecks"] == expected
        finally:
            process.terminate()
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()


class TestTicketFuture:
    """The server awaits pool tickets through their futures, not threads."""

    def test_resolution_from_another_thread_settles_the_awaiter(self):
        async def main():
            done, failed = PoolTicket(("ping", None), 0), PoolTicket(("ping", None), 0)
            waits = [asyncio.wrap_future(t.future) for t in (done, failed)]
            threading.Thread(target=done._resolve, args=(True, {"pong": True})).start()
            threading.Thread(
                target=failed._resolve,
                args=(False, {"type": "ProtocolError", "message": "bad"}),
            ).start()
            return await asyncio.gather(*waits, return_exceptions=True)

        value, error = asyncio.run(main())
        assert value == {"pong": True}
        assert isinstance(error, ProtocolError)

    def test_resolution_after_the_loop_closed_does_not_raise(self):
        ticket = PoolTicket(("ping", None), 0)

        async def main():
            asyncio.wrap_future(ticket.future)

        asyncio.run(main())  # closes the loop with the ticket unresolved
        ticket._resolve(
            False, {"type": "WorkerCrashError", "message": "pool closed"}
        )
        assert ticket.done()
