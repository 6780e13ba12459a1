"""The ``retypecheck`` wire op: v1 framing, v2 bare framing over a pinned
pair, pool object API, its error contract, and the result cache that a
chain link back to an answered transducer hits, in process and served."""

import asyncio
import contextlib
import threading

import pytest

from repro.core.session import Session
from repro.errors import ProtocolError
from repro.service.client import ServiceClient
from repro.service.server import ServiceServer
from repro.updates import compile_script
from repro.workloads.updates import (
    document_pair,
    edit_arm_pair,
    edit_arm_transducer,
    safe_script,
    unsafe_script,
)


@contextlib.contextmanager
def _serving(pool, **server_kwargs):
    """A ServiceServer on an OS-chosen port (pattern of test_server.py)."""
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


@pytest.fixture()
def client(server):
    with ServiceClient(port=server.port) as client:
        yield client


def test_v1_retypecheck_round_trip(client):
    din, dout = document_pair()
    base = compile_script(safe_script(), din.alphabet)
    edited = compile_script(unsafe_script(), din.alphabet)

    # Warm the pair's affine worker with the base, then re-check the edit.
    assert client.typecheck(base, din, dout)["typechecks"] is True
    result = client.retypecheck(edited, base, din, dout)
    assert result["typechecks"] is False
    assert result["counterexample"] is not None
    # Same verdict as a plain typecheck of the edited transducer.
    plain = client.typecheck(edited, din, dout)
    assert plain["typechecks"] is False


def test_v2_bare_retypecheck_on_pinned_pair(client):
    din, dout = edit_arm_pair(6)
    pair = client.pair(din, dout)
    base = edit_arm_transducer(6)
    assert pair.typecheck(base, method="forward")["typechecks"] is True

    safe = pair.retypecheck(
        edit_arm_transducer(6, edited=2, variant="safe"), base,
        method="forward",
    )
    assert safe["typechecks"] is True
    assert pair.pair_id is not None  # genuinely rode the bare framing

    unsafe = pair.retypecheck(
        edit_arm_transducer(6, edited=2, variant="unsafe"), base,
        method="forward",
    )
    assert unsafe["typechecks"] is False
    assert unsafe["counterexample"] is not None


def test_retypecheck_requires_base(client):
    din, dout = document_pair()
    from repro.service import protocol

    with pytest.raises(ProtocolError):
        client.call(
            "retypecheck",
            din=protocol.dtd_to_text(din),
            transducer=protocol.transducer_to_text(
                compile_script(safe_script(), din.alphabet)
            ),
            dout=protocol.dtd_to_text(dout),
        )


def test_pool_object_api(shared_pool):
    din, dout = edit_arm_pair(4)
    base = edit_arm_transducer(4)
    assert shared_pool.typecheck(din, dout, base, method="forward").typechecks
    result = shared_pool.retypecheck(
        din, dout, edit_arm_transducer(4, edited=1, variant="unsafe"), base,
        method="forward",
    )
    assert not result.typechecks


def test_chain_link_back_to_an_answered_transducer_hits_the_cache(client):
    """An edit chain ``base -> edited -> base``: the last link re-checks a
    transducer the session already answered, so in process and served
    alike it is a result-cache hit with the cold verdict."""
    din, dout = edit_arm_pair(6)
    base = edit_arm_transducer(6)
    edited = edit_arm_transducer(6, edited=2, variant="unsafe")

    session = Session(din, dout)
    assert session.typecheck(base).typechecks is True
    assert session.retypecheck(edited, base).typechecks is False
    back = session.retypecheck(base, edited)
    assert back.typechecks is True
    assert back.stats.get("table_cache") == "hit"

    pair = client.pair(din, dout)
    assert pair.typecheck(base)["typechecks"] is True
    assert pair.retypecheck(edited, base)["typechecks"] is False
    served = pair.retypecheck(base, edited)
    assert served["typechecks"] is True
    assert served["stats"].get("table_cache") == "hit"
