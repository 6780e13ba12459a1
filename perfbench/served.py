"""The ``served_sticky`` workload: a ``python -m repro serve`` subprocess
driven over protocol v2 sticky pairs.

One closed-loop caller in the main thread holds one ``ServiceClient``
connection with one ``PairHandle`` pinned to an ``edit_arm`` pair.  Its
blocks hold fixed shares of cached repeats, first-sight transducers and
``retypecheck`` links of an edit chain.  Answers are checked after the
timed phase, so checking never delays the next request.
"""

from __future__ import annotations

import os
import random
import select
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional

import repro
from repro.core.problem import TypecheckResult
from repro.service import WorkerPool
from repro.service.client import ServiceClient
from repro.trees.tree import parse_tree
from repro.workloads import families
from repro.workloads.updates import edit_arm_pair, edit_arm_transducer

from common import counter_total, median, rename_instance, rename_states, tree_peak_rss_mb

#: Per block: cached repeats and first-sight transducers (plus four edit
#: links).  Assumed shares: the repository holds no record of real traffic.
REPEATS, FIRST_SIGHT = 16, 2
ARMS = 6
READY_TIMEOUT_S = 60.0
#: ``peak_rss_mb`` is read once this many ops are done (see
#: ``InProcessWorkload.rss_ops``).
RSS_OPS = 5000
HOP_SAMPLES = 300


class CountingFile:
    """A client connection's file object that counts the bytes written
    (requests) and read (responses) through it."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.written = self.read = 0

    def write(self, data: bytes) -> int:
        self.written += len(data)
        return self._inner.write(data)

    def readline(self, *args) -> bytes:
        line = self._inner.readline(*args)
        self.read += len(line)
        return line

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _group_members(pgid: int) -> List[int]:
    """Live (non-zombie) processes of a process group."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(int(entry))
    return members


def _stop_group(pgid: int, grace_s: float = 10.0) -> None:
    """SIGTERM a process group, SIGKILL what outlives ``grace_s``, and
    return once no member is left."""
    for sig in (signal.SIGTERM, signal.SIGKILL):
        try:
            os.killpg(pgid, sig)
        except ProcessLookupError:
            return
        deadline = time.monotonic() + grace_s
        while _group_members(pgid) and time.monotonic() < deadline:
            time.sleep(0.02)
        if not _group_members(pgid):
            return


class ServedSticky:
    name = "served_sticky"
    setup_reps = 3
    #: One connection and one server worker: the run is pinned to one CPU
    #: (see run.py), where a second caller would only queue.
    callers = workers = 1

    def __init__(self, seed: int, toy: bool, root: str, out_dir: str) -> None:
        self.seed = seed
        self.toy = toy
        self.root = root
        self.arms = 3 if toy else ARMS
        self.server: Optional[subprocess.Popen] = None
        self.client: Optional[ServiceClient] = None
        self.server_trace_path = os.path.join(out_dir, f"server-{seed}.jsonl")
        self.extras: Dict[str, object] = {}
        self.rss_mb: Optional[float] = None

    # ------------------------------------------------------------------
    def prepare(self) -> None:
        """The edit_arm pair and its one-arm edits, renamed by the seed."""
        din0, dout0 = edit_arm_pair(self.arms)
        tag = f"{self.seed}s"
        self.base, self.din, self.dout = rename_instance(
            edit_arm_transducer(self.arms), din0, dout0, tag)
        self.edits = []
        for arm in range(self.arms):
            for kind in ("safe", "unsafe"):
                edited = edit_arm_transducer(self.arms, edited=arm, variant=kind)
                self.edits.append((rename_instance(edited, din0, dout0, tag)[0], kind == "safe"))
        self.seen = [self.base]
        self.count = 0
        self.rng = random.Random(self.seed * 31)

    def _server_command(self, trace: bool) -> List[str]:
        command = [sys.executable, "-m", "repro", "serve", "--port", "0",
                   "--workers", str(self.workers)]
        if trace:
            command += ["--trace", self.server_trace_path, "--metrics-port", "0"]
        return command

    def _start_server(self, trace: bool) -> int:
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        # Its own process group: stopping it stops its workers too.
        self.server = subprocess.Popen(
            self._server_command(trace), cwd=self.root, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        deadline = time.monotonic() + READY_TIMEOUT_S
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([self.server.stdout], [], [], max(remaining, 0))
            if not ready:
                raise RuntimeError("server did not report ready in time")
            chunk = os.read(self.server.stdout.fileno(), 1)
            if not chunk:
                raise RuntimeError("server exited before it was ready")
            line += chunk
        return int(line.decode().strip().rsplit(":", 1)[1])

    def _stop_server(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.server is None:
            return
        server, self.server = self.server, None
        _stop_group(server.pid)
        server.wait()
        server.stdout.close()

    def setup(self, keep: bool, trace: bool = False) -> None:
        """Spawn the server, connect and pin the pair (its first request
        pins the pair, compiles it and warms the base)."""
        self._stop_server()
        self.port = self._start_server(trace)
        self.client = ServiceClient(port=self.port, timeout=120)
        self.handle = self.client.pair(self.din, self.dout)
        self.handle.typecheck(self.base)
        if not keep:
            self._stop_server()

    # ------------------------------------------------------------------
    def _block(self) -> List[tuple]:
        """``[(kind, transducer, base, expected), ...]`` for one block."""
        seen = self.seen  # repeats draw on transducers of earlier blocks
        ops = [("repeat", seen[i % len(seen)], None, True) for i in range(REPEATS)]
        for _ in range(FIRST_SIGHT):
            self.count += 1
            fresh = rename_states(self.base, f"f{self.count}")
            self.seen = (self.seen + [fresh])[-4:]
            ops.append(("first", fresh, None, True))
        self.rng.shuffle(ops)
        # The edit chain keeps its own order: base -> edit -> base -> edit
        # -> base, one safe and one unsafe edit per block.
        for safe in self.rng.sample((True, False), 2):
            edited = self.rng.choice([t for t, ok in self.edits if ok == safe])
            ops.append(("edit", edited, self.base, safe))
            ops.append(("edit", self.base, edited, True))
        return ops

    def _check(self, record: dict) -> dict:
        """Verdict and counterexample check of one served answer."""
        response = record.pop("response", None)
        transducer = record.pop("transducer")
        ok = False
        if response is not None:
            stats = response.get("stats") or {}
            record.update(verdict=response["typechecks"], engine=stats.get("auto_method"),
                          table_cache=stats.get("table_cache"),
                          mode=stats.get("retypecheck_mode"), cex=None)
            if response["typechecks"] == record["expected"]:
                if response["typechecks"]:
                    ok = response.get("counterexample") is None
                elif response.get("counterexample"):
                    tree = parse_tree(response["counterexample"])
                    record["cex"] = (tree.size, tree.size)
                    ok = TypecheckResult(False, "served", counterexample=tree).verify(
                        transducer, self.din.accepts, self.dout.accepts)
        record["ok"] = ok
        return record

    def run(self, seconds: float, tracer, measure_extras: bool = False):
        before = self.client.metrics()["merged"] if measure_extras else None
        # Traced runs count the bytes the client really sends and receives.
        wire = None
        if tracer.enabled:
            wire = self.client._file = CountingFile(self.client._file)
        records: List[dict] = []
        start = time.perf_counter()
        deadline = start + seconds
        while time.perf_counter() < deadline:
            for kind, transducer, base, expected in self._block():
                op_id = f"{kind}-{len(records) + 1}"
                record = {"kind": kind, "transducer": transducer, "expected": expected,
                          "op_id": op_id}
                sent, received = (wire.written, wire.read) if wire else (0, 0)
                try:
                    with tracer.op(op_id, kind):
                        begin = time.perf_counter()
                        with tracer.span("request"):
                            if base is None:
                                response = self.handle.typecheck(transducer)
                            else:
                                response = self.handle.retypecheck(transducer, base)
                        record["ms"] = (time.perf_counter() - begin) * 1e3
                    record["response"] = response
                    if wire:
                        record["request_bytes"] = wire.written - sent
                        record["response_bytes"] = wire.read - received
                except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
                    record["ms"] = 0.0
                    record["error"] = repr(exc)
                records.append(record)
            if self.rss_mb is None and len(records) >= RSS_OPS:
                self.rss_mb = tree_peak_rss_mb(self.server.pid)
        wall_s = time.perf_counter() - start
        if wire:
            self.client._file = wire._inner
        records = [self._check(r) for r in records]
        if measure_extras:
            after = self.client.metrics()["merged"]
            for name in ("repro.pool.retries", "repro.pool.respawns",
                         "repro.worker.pair_evictions", "repro.kernel.node_expansions",
                         "repro.kernel.cells_created"):
                self.extras[name] = counter_total(after, name) - counter_total(before, name)
        return records, wall_s

    def peak_rss_mb(self) -> float:
        return tree_peak_rss_mb(self.server.pid) if self.rss_mb is None else self.rss_mb

    def serving_hops(self) -> Dict[str, float]:
        """The same warm table-cache hit in process, through an embedded
        ``WorkerPool`` and over TCP v2 (median ms of each)."""
        transducer, din, dout, _ = families.relabeling_family(16, True)
        transducer, din, dout = rename_instance(transducer, din, dout, f"{self.seed}hop")

        def median_ms(call) -> float:
            call()  # compile / pin / warm the table cache
            samples = []
            for _ in range(HOP_SAMPLES):
                start = time.perf_counter()
                call()
                samples.append((time.perf_counter() - start) * 1e3)
            return median(samples)

        session = repro.compile(din, dout)
        in_process = median_ms(lambda: session.typecheck(transducer))
        with WorkerPool(workers=1) as pool:
            pooled = median_ms(lambda: pool.typecheck(din, dout, transducer))
        with ServiceClient(port=self.port, timeout=120) as client:
            handle = client.pair(din, dout)
            wired = median_ms(lambda: handle.typecheck(transducer))
        return {"in_process_ms": in_process, "pool_ms": pooled, "tcp_v2_ms": wired}

    def close(self) -> None:
        self._stop_server()
