"""What a pool worker repeats per request, and what it keeps.

A pinned request's transducer text is parsed once per pin (the memo hangs
off the pin, so the pair LRU evicts it with the pin); repeated requests
do not grow a worker; and a worker whose parent dies exits instead of
living on as an orphan.
"""

import os
import subprocess
import sys
import textwrap
import time
from collections import OrderedDict

import pytest

import repro
from repro.service import pool as pool_module
from repro.service import protocol
from repro.service.pool import WorkerPool
from repro.workloads.updates import edit_arm_pair, edit_arm_transducer

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


@pytest.fixture()
def worker_state(monkeypatch):
    """This process's worker-side pin registry, emptied for the test, and a
    counter of transducer-section parses."""
    monkeypatch.setattr(pool_module, "_WORKER_PAIRS", OrderedDict())
    parses = []
    real_parse = protocol.parse_transducer_section

    def counting_parse(*args, **kwargs):
        parses.append(1)
        return real_parse(*args, **kwargs)

    monkeypatch.setattr(protocol, "parse_transducer_section", counting_parse)
    return parses


def _pin(pair_key, din, dout):
    pool_module._worker_execute("pin", (pair_key, din, dout), {})


def _pinned(pair_key, transducer, base=None):
    payload = {"transducer": protocol.transducer_to_text(transducer)}
    op = "typecheck"
    if base is not None:
        payload["base"] = protocol.transducer_to_text(base)
        op = "retypecheck"
    return pool_module._worker_execute("pinned", (pair_key, op, payload), {})


class TestPinnedParseMemo:
    def test_repeated_text_is_parsed_once(self, worker_state):
        din, dout = edit_arm_pair(4)
        _pin("pair", din, dout)
        base = edit_arm_transducer(4)
        edited = edit_arm_transducer(4, edited=1, variant="unsafe")
        for _ in range(5):
            assert _pinned("pair", base)["typechecks"] is True
        assert len(worker_state) == 1
        for _ in range(5):
            assert _pinned("pair", edited, base=base)["typechecks"] is False
        assert len(worker_state) == 2  # only the edited text was new

    def test_texts_per_pin_are_bounded(self, worker_state, monkeypatch):
        monkeypatch.setattr(pool_module, "PINNED_TEXT_LIMIT", 2)
        din, dout = edit_arm_pair(4)
        _pin("pair", din, dout)
        for arm in range(3):
            _pinned("pair", edit_arm_transducer(4, edited=arm))
        assert len(pool_module._WORKER_PAIRS["pair"][2]) == 2

    def test_evicted_pin_drops_its_texts(self, worker_state, monkeypatch):
        monkeypatch.setattr(pool_module, "_WORKER_PAIR_LIMIT", 1)
        din_a, dout_a = edit_arm_pair(4)
        din_b, dout_b = edit_arm_pair(5)
        transducer = edit_arm_transducer(4)
        _pin("a", din_a, dout_a)
        _pinned("a", transducer)
        assert len(worker_state) == 1
        _pin("b", din_b, dout_b)  # evicts "a" with its parsed texts
        assert list(pool_module._WORKER_PAIRS) == ["b"]
        _pin("a", din_a, dout_a)  # the server's re-pin path
        assert len(pool_module._WORKER_PAIRS["a"][2]) == 0
        _pinned("a", transducer)
        assert len(worker_state) == 2

    def test_repin_keeps_the_parsed_texts(self, worker_state):
        """A re-pin of a resident pair (second connection, batch
        broadcast, stale-pair retry, inline request) only refreshes its
        LRU position; the parsed-text memo survives."""
        din, dout = edit_arm_pair(4)
        other_din, other_dout = edit_arm_pair(5)
        transducer = edit_arm_transducer(4)
        _pin("pair", din, dout)
        _pin("other", other_din, other_dout)
        _pinned("pair", transducer)
        entry = pool_module._WORKER_PAIRS["pair"]
        _pin("other", other_din, other_dout)
        _pin("pair", din, dout)
        assert pool_module._WORKER_PAIRS["pair"] is entry
        assert len(entry[2]) == 1
        assert list(pool_module._WORKER_PAIRS) == ["other", "pair"]
        _pinned("pair", transducer)
        assert len(worker_state) == 1  # not re-parsed after the re-pin

    def test_inline_request_pins_its_own_pair(self, worker_state):
        """An inline query's pinned op carries its schemas: the worker
        pins on receipt, and a repeat re-uses the pin's parsed text."""
        din, dout = edit_arm_pair(4)
        payload = {"transducer": protocol.transducer_to_text(edit_arm_transducer(4))}
        for _ in range(3):
            result = pool_module._worker_execute(
                "pinned", ("pair", "typecheck", payload, din, dout), {}
            )
            assert result["typechecks"] is True
        assert list(pool_module._WORKER_PAIRS) == ["pair"]
        assert len(worker_state) == 1


def _rss_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    raise AssertionError("no VmRSS line")


def _gone(pid: int) -> bool:
    """The process has exited (a zombie awaiting its reaper counts)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
class TestWorkerProcess:
    def test_repeated_requests_do_not_grow_a_worker(self):
        """Each request unpickles fresh transducer objects; before the
        session memo was content-keyed every one of them stayed alive."""
        din, dout = edit_arm_pair(3)
        base = edit_arm_transducer(3)
        safe = edit_arm_transducer(3, edited=1, variant="safe")
        unsafe = edit_arm_transducer(3, edited=2, variant="unsafe")

        def round_trip():
            assert pool.typecheck(din, dout, base).typechecks
            assert pool.retypecheck(din, dout, safe, base).typechecks
            assert not pool.retypecheck(din, dout, unsafe, base).typechecks

        with WorkerPool(1, cache_max_bytes=None) as pool:
            pid = pool.ping()[0]["pid"]
            for _ in range(100):
                round_trip()
            before = _rss_kb(pid)
            for _ in range(1000):
                round_trip()
            grown_kb = _rss_kb(pid) - before
        assert grown_kb < 2048, f"worker grew {grown_kb} kB"

    def test_worker_exits_when_its_parent_dies(self, tmp_path):
        script = tmp_path / "owner.py"
        script.write_text(textwrap.dedent("""
            import os
            import sys

            from repro.service.pool import WorkerPool

            if __name__ == "__main__":
                pool = WorkerPool(workers=1, cache_max_bytes=None)
                print(pool.ping()[0]["pid"], flush=True)
                os._exit(0)
        """))
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, str(script)], env=env, capture_output=True,
            text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        worker = int(proc.stdout.split()[0])
        deadline = time.time() + 5
        while not _gone(worker) and time.time() < deadline:
            time.sleep(0.05)
        assert _gone(worker), f"worker {worker} outlived its parent"
