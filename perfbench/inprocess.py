"""The three in-process workloads: ``cold_pairs``, ``warm_session`` and
``tree_automata``.

Each has one closed-loop caller in this process.  Work is scheduled in
*blocks*: a block holds every instance template of the workload exactly
once (fixed mix and polarity shares), the seed renames every symbol and
state and shuffles the order inside the block, and a run executes whole
blocks until its time is up.  An op's latency is the wall time of its
calls into the program; generating the next input and checking the last
answer happen between ops and are not part of any op.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Dict, List, Optional, Tuple

import repro
from repro.core.session import clear_registry
from repro.engines import routable_engines
from repro.errors import ReproError
from repro.workloads import families
from repro.workloads.random_instances import seeded_instance
from repro.workloads.updates import edit_arm_pair, edit_arm_transducer

from common import (
    cex_sizes,
    check_result,
    own_peak_rss_mb,
    rename_instance,
    rename_states,
)

InstanceFactory = Callable[[str], Tuple[object, object, object, bool]]


def _family(fn, n: int, polarity: bool) -> InstanceFactory:
    def build(tag: str):
        transducer, din, dout, expected = fn(n, polarity)
        return (*rename_instance(transducer, din, dout, tag), expected)

    build.kind = fn.__name__.replace("_family", "")
    return build


def _seeded(sub_seed: int, expected: Optional[bool], **kwargs) -> InstanceFactory:
    def build(tag: str):
        transducer, din, dout = seeded_instance(sub_seed, **kwargs)
        return (*rename_instance(transducer, din, dout, tag), expected)

    build.kind = "random"
    return build


def _tree_schemas(din, dout):
    """The DTD pair as an NTA and a DTAc (same languages)."""
    return repro.dtd_to_nta(din), repro.dtd_to_dtac(dout)


def _oracle(sub_seed: int, **kwargs) -> Optional[bool]:
    """What the bruteforce engine knows about a seeded instance: ``False``
    when it found a counterexample (which is then real), else ``None``.

    Bruteforce checks only input trees up to its node budget, so its
    ``True`` leaves the answer open: an engine's ``False`` backed by a
    counterexample that verifies is then correct too.
    """
    transducer, din, dout = seeded_instance(sub_seed, **kwargs)
    result = repro.typecheck(transducer, din, dout, method="bruteforce")
    return None if result.typechecks else False


def _record(kind: str, ms: float, result=None, ok: bool = False, **extra) -> Dict:
    record = {"kind": kind, "ms": ms, "ok": ok, "verdict": None, "engine": None,
              "table_cache": None, "mode": None, "cex": None}
    if result is not None:
        stats = result.stats
        record["verdict"] = bool(result.typechecks)
        record["engine"] = stats.get("auto_method") or result.algorithm
        record["table_cache"] = stats.get("table_cache")
        record["mode"] = stats.get("retypecheck_mode")
        if result.counterexample is not None:
            record["cex"] = cex_sizes(result.counterexample)
    record.update(extra)
    return record


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, (time.perf_counter() - start) * 1e3


def _regret_candidates(session, chosen: Optional[str]) -> List[str]:
    names = [e.name for e in routable_engines() if e.supports(session.sin, session.sout) is True]
    if chosen and chosen not in names:
        names.append(chosen)
    return names


def measure_routing(session, transducer, tag: str) -> Dict[str, object]:
    """Auto against every explicit routable engine on first-sight copies
    of one transducer, plus the explain report's prediction for auto."""
    auto_copy = rename_states(transducer, f"{tag}a")
    auto, auto_ms = _timed(lambda: session.typecheck(auto_copy))
    explicit = {}
    for name in _regret_candidates(session, auto.stats.get("auto_method")):
        copy = rename_states(transducer, f"{tag}{name[:2]}")
        try:
            _, ms = _timed(lambda: session.typecheck(copy, method=name))
        except ReproError:
            continue  # out of the engine's class or budget: not a candidate
        explicit[name] = ms
    report = session.typecheck(rename_states(transducer, f"{tag}x"), explain=True).report
    predicted = None
    if report is not None:
        row = report.to_dict()["engines"].get(report.engine, {})
        if row.get("predicted_ms") and row.get("measured_ms"):
            predicted = row["predicted_ms"] / row["measured_ms"]
    return {
        "auto_over_best": auto_ms / min(explicit.values()) if explicit else None,
        "predicted_over_measured": predicted,
    }


class InProcessWorkload:
    """Shared loop: whole blocks of ops until the time is up."""

    callers = 1
    workers = 0
    setup_reps = 5
    #: ``peak_rss_mb`` is read once this many ops are done: a fixed amount
    #: of work that every run reaches, so that a faster program, which
    #: fills its caches with more first-sight inputs in the same seconds,
    #: does not read as using more memory.
    rss_ops = 500

    def __init__(self, seed: int, toy: bool) -> None:
        self.seed = seed
        self.toy = toy
        self.rng = random.Random(seed)
        self.counter = 0
        self.extras: Dict[str, object] = {}
        # (record, session, transducer, price routing?) of the first traced
        # block, measured after the traced phase so no op pays for it.
        self.targets: List[tuple] = []
        self.rss_mb: Optional[float] = None

    def next_tag(self) -> str:
        self.counter += 1
        return f"{self.seed}x{self.counter}"

    def block(self) -> Tuple[List[Callable], List[Callable]]:
        """``(ops run in shuffled order, ops run in order after them)``."""
        raise NotImplementedError

    def run(self, seconds: float, tracer, measure_extras: bool = False):
        records: List[Dict] = []
        start = time.perf_counter()
        first_block = True
        while True:
            block_start = time.perf_counter()
            ops, chain = self.block()
            self.rng.shuffle(ops)
            for op in ops + chain:
                records.append(op(tracer, measure_extras and first_block))
            first_block = False
            if self.rss_mb is None and len(records) >= self.rss_ops:
                self.rss_mb = own_peak_rss_mb()
            # Whole blocks only; stop when one more would end nearer past
            # the deadline than this one ends before it.
            now = time.perf_counter()
            if now + (now - block_start) / 2 >= start + seconds:
                break
        busy_s = sum(r["ms"] for r in records) / 1e3
        return records, busy_s

    def measure_extras(self) -> None:
        """Footprints and routing regret of the first traced block."""
        for index, (record, session, transducer, route) in enumerate(self.targets):
            record["footprint_bytes"] = session.footprint_bytes()
            if route:
                record.update(measure_routing(session, transducer, f"r{index}"))
        self.targets = []

    def peak_rss_mb(self) -> float:
        return own_peak_rss_mb() if self.rss_mb is None else self.rss_mb

    def close(self) -> None:
        pass

    # The op every cold-style workload runs: compile the pair, then query.
    # Its kind is the instance's family (or "random").
    def _cold_op(self, build: InstanceFactory, to_schemas=None):
        kind = build.kind

        def op(tracer, extras: bool):
            transducer, din, dout, expected = build(self.next_tag())
            sin, sout = (din, dout) if to_schemas is None else to_schemas(din, dout)
            symbols = len(din.alphabet) + len(dout.alphabet)
            op_id = f"{kind}-{self.counter}"
            try:
                with tracer.op(op_id, kind):
                    start = time.perf_counter()
                    # Drops the previous op's session (program work, so
                    # timed); the pair is new to the process by construction.
                    clear_registry()
                    compiling = time.perf_counter()
                    with tracer.span("compile"):
                        session = repro.compile(sin, sout)
                    compiled = time.perf_counter()
                    if tracer.enabled:
                        with tracer.span("analysis"):
                            session.analysis(transducer)
                    with tracer.span("typecheck"):
                        result = session.typecheck(transducer)
                    end = time.perf_counter()
            except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
                return _record(kind, 0.0, error=repr(exc), symbols=symbols)
            record = _record(
                kind, (end - start) * 1e3, result,
                ok=check_result(result, transducer, din, dout, expected),
                symbols=symbols, compile_ms=(compiled - compiling) * 1e3,
                op_id=op_id,
            )
            if extras:
                self.targets.append((record, session, transducer, to_schemas is None))
            return record

        return op


class ColdPairs(InProcessWorkload):
    """First query on a schema pair the process has never compiled."""

    name = "cold_pairs"

    FULL = [
        (families.nd_bc_family, [(16, True), (32, True), (64, True), (8, False), (12, False)]),
        (families.filtering_family, [(n, p) for n in (8, 16, 32) for p in (True, False)]),
        (families.wide_copy_family, [(n, p) for n in (4, 8, 16) for p in (True, False)]),
        (families.replus_family, [(n, p) for n in (4, 8, 12) for p in (True, False)]),
        (families.relabeling_family, [(n, p) for n in (8, 16, 32) for p in (True, False)]),
    ]
    TOY = [(fn, [(4, True), (4, False)]) for fn, _ in FULL]
    RANDOM_PER_BLOCK = 6
    RANDOM_POOL = 24

    def prepare(self) -> None:
        rng = random.Random(self.seed * 7919 + 1)
        sub_seeds: List[int] = []
        while len(sub_seeds) < (2 if self.toy else self.RANDOM_POOL):
            sub_seed = rng.randrange(100_000)
            # An empty input language makes the question vacuous.
            if sub_seed not in sub_seeds and not seeded_instance(sub_seed)[1].is_empty():
                sub_seeds.append(sub_seed)
        self.random = [_seeded(s, _oracle(s)) for s in sub_seeds]
        self.templates = [
            _family(fn, n, p)
            for fn, sizes in (self.TOY if self.toy else self.FULL)
            for n, p in sizes
        ]

    def setup(self, keep: bool) -> None:
        # Materialize one block's inputs (schema and transducer objects).
        for build in self.templates + self.random[: self.RANDOM_PER_BLOCK]:
            build(self.next_tag())

    def block(self):
        picks = [self.random[self.rng.randrange(len(self.random))]
                 for _ in range(1 if self.toy else self.RANDOM_PER_BLOCK)]
        return [self._cold_op(b) for b in self.templates + picks], []


class TreeAutomata(InProcessWorkload):
    """Fresh NTA/DTAc pairs with deletion/relabeling transducers, so auto
    routes to the Theorem 20 engine."""

    name = "tree_automata"
    rss_ops = 92  # two blocks

    # seeded_instance(s, symbols=2, num_states=1) draws whose transducer is
    # del-relab, both polarities: 32 that check in under 0.1 s and eight
    # in 0.3-0.8 s on a 2-CPU host, so every percentile the run reports
    # falls inside a group of similar instances.
    SEEDS = (
        16, 18, 21, 26, 34, 41, 50, 53, 58, 60, 63, 65, 73, 75, 76, 78,
        13, 15, 32, 33, 35, 37, 43, 45, 48, 49, 51, 56, 62, 66, 72, 77,
        64, 69, 31, 71, 67, 59, 19, 27,
    )
    TOY_SEEDS = (16, 13)

    def prepare(self) -> None:
        sizes = (1,) if self.toy else (1, 2, 3)
        self.templates = [
            _family(families.relabeling_family, n, p) for n in sizes for p in (True, False)
        ] + [
            _seeded(s, _oracle(s, symbols=2, num_states=1), symbols=2, num_states=1)
            for s in (self.TOY_SEEDS if self.toy else self.SEEDS)
        ]

    def setup(self, keep: bool) -> None:
        for build in self.templates:
            _, din, dout, _ = build(self.next_tag())
            _tree_schemas(din, dout)

    def block(self):
        return [self._cold_op(b, _tree_schemas) for b in self.templates], []


class WarmSession(InProcessWorkload):
    """Queries against a few pairs compiled during set-up."""

    name = "warm_session"
    rss_ops = 5000
    FAMILY_PAIRS = [
        (families.nd_bc_family, 12), (families.replus_family, 8),
        (families.filtering_family, 16), (families.relabeling_family, 16),
    ]
    ARMS = 12
    REPEATS = 2
    #: Edit links per block: base -> safe edit -> base -> unsafe edit -> base.
    EDIT_POLARITIES = ("safe", "unsafe")

    def prepare(self) -> None:
        self.tag = f"{self.seed}w"
        self.arms = 3 if self.toy else self.ARMS

    def setup(self, keep: bool) -> None:
        clear_registry()
        pairs = []
        for fn, n in self.FAMILY_PAIRS:
            for polarity in (True, False):
                transducer, din, dout, expected = fn(4 if self.toy else n, polarity)
                transducer, din, dout = rename_instance(transducer, din, dout, self.tag)
                session = repro.compile(din, dout)
                session.typecheck(transducer)
                pairs.append({"session": session, "base": transducer, "din": din,
                              "dout": dout, "expected": expected, "seen": [transducer]})
        din0, dout0 = edit_arm_pair(self.arms)
        base, din, dout = rename_instance(edit_arm_transducer(self.arms), din0, dout0, self.tag)
        session = repro.compile(din, dout)
        session.typecheck(base)
        edit = {"session": session, "base": base, "din": din, "dout": dout,
                "expected": True, "seen": [base], "raw": (din0, dout0), "prev": base}
        if keep:
            self.pairs, self.edit = pairs, edit

    # -- op constructors -------------------------------------------------
    def _query(self, pair, kind: str):
        def op(tracer, extras: bool):
            if kind == "first":
                transducer = rename_states(pair["base"], f"f{self.next_tag()}")
                pair["seen"] = (pair["seen"] + [transducer])[-4:]
            else:
                transducer = pair["seen"][self.rng.randrange(len(pair["seen"]))]
                self.counter += 1
            op_id = f"{kind}-{self.counter}"
            session = pair["session"]
            try:
                with tracer.op(op_id, kind):
                    start = time.perf_counter()
                    if tracer.enabled and kind == "first":
                        with tracer.span("analysis"):
                            session.analysis(transducer)
                    with tracer.span("typecheck"):
                        result = session.typecheck(transducer)
                    end = time.perf_counter()
            except Exception as exc:  # noqa: BLE001
                return _record(kind, 0.0, error=repr(exc))
            record = _record(
                kind, (end - start) * 1e3, result,
                ok=check_result(result, transducer, pair["din"], pair["dout"], pair["expected"]),
                op_id=op_id,
            )
            if extras and kind == "first":
                self.targets.append((record, session, transducer, True))
            return record

        return op

    def _edit(self, variant: str):
        def op(tracer, extras: bool):
            pair = self.edit
            prev = pair["prev"]
            if prev is pair["base"]:
                arm = self.rng.randrange(self.arms)
                din0, dout0 = pair["raw"]
                edited = edit_arm_transducer(self.arms, edited=arm, variant=variant)
                nxt = rename_instance(edited, din0, dout0, self.tag)[0]
                expected = variant == "safe"
            else:
                nxt, expected = pair["base"], True
            self.counter += 1
            op_id = f"edit-{self.counter}"
            session = pair["session"]
            try:
                with tracer.op(op_id, "edit"):
                    start = time.perf_counter()
                    with tracer.span("retypecheck"):
                        result = session.retypecheck(nxt, prev)
                    end = time.perf_counter()
            except Exception as exc:  # noqa: BLE001
                return _record("edit", 0.0, error=repr(exc))
            pair["prev"] = nxt
            return _record(
                "edit", (end - start) * 1e3, result,
                ok=check_result(result, nxt, pair["din"], pair["dout"], expected),
                op_id=op_id,
            )

        return op

    def block(self):
        ops = []
        for pair in self.pairs + [self.edit]:
            ops.append(self._query(pair, "first"))
            ops.extend(self._query(pair, "repeat") for _ in range(self.REPEATS))
        # The chain's links run in order after the shuffled queries.
        polarities = list(self.EDIT_POLARITIES)
        self.rng.shuffle(polarities)
        return ops, [self._edit(v) for v in polarities for _ in range(2)]

    def measure_extras(self) -> None:
        """Set-up compile of every warm pair, next to the per-op extras."""
        super().measure_extras()
        sessions = [p["session"] for p in self.pairs] + [self.edit["session"]]
        self.extras["footprints"] = [s.footprint_bytes() for s in sessions]
        self.extras["compile_ms"] = [float(s.stats["compile_s"]) * 1e3 for s in sessions]
        self.extras["symbols"] = [len(s.sin.alphabet) + len(s.sout.alphabet) for s in sessions]

