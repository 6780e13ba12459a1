"""``method="backward"`` through the service layers: the worker pool's
object API, wire requests (inline and pinned, through a real server), and
the CLI."""

import asyncio
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.backward import typecheck_backward
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.server import ServiceServer
from repro.workloads.families import nd_bc_family
from repro.workloads.random_instances import seeded_instance

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


@pytest.fixture(scope="module")
def backward_client(backward_pool):
    """A client of a ServiceServer over ``backward_pool`` (OS-chosen port)."""
    loop = asyncio.new_event_loop()
    service = ServiceServer(backward_pool)
    started = threading.Event()

    def run():
        asyncio.set_event_loop(loop)
        loop.run_until_complete(service.start("127.0.0.1", 0))
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(10)
    try:
        with ServiceClient(port=service.port) as client:
            yield client
    finally:
        asyncio.run_coroutine_threadsafe(service.close(), loop).result(10)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=5)


class TestPool:
    def test_single_and_batch_match_in_process(self, backward_pool):
        for seed in range(20):
            transducer, din, dout = seeded_instance(seed)
            local = typecheck_backward(transducer, din, dout)
            served = backward_pool.typecheck(
                din, dout, transducer, method="backward"
            )
            assert served.typechecks == local.typechecks, f"seed {seed}"
            assert served.algorithm == "backward"
        transducer, din, dout, expected = nd_bc_family(6, False)
        results = backward_pool.typecheck_batch(
            din, dout, [transducer] * 4, method="backward"
        )
        assert all(r.typechecks is False for r in results)
        assert all(r.algorithm == "backward" for r in results)

    def test_wire_payload_passes_method_through(self, backward_client):
        transducer, din, dout, expected = nd_bc_family(5, False)
        inline = backward_client.typecheck(
            transducer, din, dout, method="backward"
        )
        pinned = backward_client.pair(din, dout).typecheck(
            transducer, method="backward"
        )
        for result in (inline, pinned):
            assert result["typechecks"] is False
            assert result["algorithm"] == "backward"
            assert result["counterexample"] is not None

    def test_counterexample_op(self, backward_client):
        transducer, din, dout, _ = nd_bc_family(5, False)
        inline = backward_client.call(
            "counterexample",
            method="backward",
            **protocol.instance_payload(transducer, din, dout),
        )
        backward_client.pair(din, dout)._ensure_pinned()
        pinned = backward_client.call(
            "counterexample",
            v=2,
            method="backward",
            transducer=protocol.transducer_to_text(transducer),
        )
        for result in (inline, pinned):
            assert result["typechecks"] is False
            assert result["counterexample"] is not None


class TestCLI:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={
                "PYTHONPATH": str(REPO_ROOT / "src"),
                "PYTHONDONTWRITEBYTECODE": "1",
                "PATH": "/usr/bin:/bin",
            },
            timeout=120,
        )

    def test_method_backward_agrees_with_forward(self, tmp_path):
        names = []
        for index, expected in ((0, True), (1, False)):
            transducer, din, dout, _ = nd_bc_family(4, expected)
            text = protocol.instance_to_text(transducer, din, dout)
            path = tmp_path / f"instance{index}.txt"
            path.write_text(text, encoding="utf-8")
            names.append(str(path))
        forward = self._run("--batch", "--method", "forward", *names)
        backward = self._run("--batch", "--method", "backward", *names)
        assert forward.returncode == backward.returncode == 1
        assert "FAILS (backward)" in backward.stdout
        assert "TYPECHECKS (backward)" in backward.stdout
        assert "counterexample:" in backward.stdout
