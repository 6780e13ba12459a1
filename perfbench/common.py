"""Shared helpers: instance renaming, the correctness oracle, statistics
and resident-memory readings.

Everything here calls only the program's public modules; the benchmark
never edits or monkeypatches program code.
"""

from __future__ import annotations

import math
import os
import re
import resource
import signal
import statistics
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.service.protocol import instance_to_text, load_instance
from repro.transducers.rhs import RhsState, RhsSym
from repro.transducers.transducer import TreeTransducer
from repro.trees.dag import DagTree, distinct_tree_nodes, unfolded_size

_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_KEYWORDS = frozenset({"start", "alphabet", "initial", "states"})


# ----------------------------------------------------------------------
# Instance renaming: the seed varies names, never structure
# ----------------------------------------------------------------------
def rename_instance(transducer, din, dout, tag: str):
    """An isomorphic copy of ``(T, din, dout)`` with every symbol and state
    suffixed by ``tag``.

    The copy is built from the instance text, so it shares no object (and
    no per-object cache) with the original, and its content hashes are new:
    no program cache keyed by content can serve it.
    """
    names = (
        set(din.alphabet) | set(dout.alphabet)
        | set(transducer.alphabet) | set(transducer.states)
    )
    if names & _KEYWORDS:
        raise ValueError(f"instance uses a reserved word: {names & _KEYWORDS}")
    text = instance_to_text(transducer, din, dout)
    renamed = _TOKEN.sub(
        lambda m: f"{m.group(0)}_{tag}" if m.group(0) in names else m.group(0),
        text,
    )
    return load_instance(renamed)


def _rename_rhs(hedge, mapping):
    out = []
    for node in hedge:
        if isinstance(node, RhsState):
            out.append(RhsState(mapping[node.state]))
        elif isinstance(node, RhsSym):
            out.append(RhsSym(node.label, _rename_rhs(node.children, mapping)))
        else:
            raise TypeError(f"unsupported rhs node {node!r}")
    return tuple(out)


def rename_states(transducer: TreeTransducer, tag: str) -> TreeTransducer:
    """The same transducer with its states renamed: identical work, new
    content hash — a transducer the schema pair has never seen."""
    mapping = {q: f"{q}_{tag}" for q in transducer.states}
    return TreeTransducer(
        {mapping[q] for q in transducer.states},
        set(transducer.alphabet),
        mapping[transducer.initial],
        {
            (mapping[q], a): _rename_rhs(rhs, mapping)
            for (q, a), rhs in transducer.rules.items()
        },
    )


# ----------------------------------------------------------------------
# Correctness oracle
# ----------------------------------------------------------------------
def check_result(result, transducer, din, dout, expected: Optional[bool]) -> bool:
    """True when ``result`` is a correct answer for the instance.

    The verdict must equal ``expected``; ``None`` means the answer is not
    known (no counterexample within the oracle's budget), so either verdict
    may be right.  A ``False`` verdict must carry a counterexample that
    ``result.verify`` accepts.  The del-relab engine over tree automata
    (Theorem 20) reports only an output-side witness
    (``stats["violating_output"]``): that witness must then violate
    ``dout``.
    """
    if expected is not None and result.typechecks != expected:
        return False
    if result.typechecks:
        return result.counterexample is None
    if result.counterexample is not None:
        return result.verify(transducer, din.accepts, dout.accepts)
    witness = result.stats.get("violating_output")
    if witness is None:
        return False
    if isinstance(witness, tuple):  # a non-tree hedge violates any tree schema
        return len(witness) != 1 or not dout.accepts(witness[0])
    return not dout.accepts(witness)


def cex_sizes(counterexample) -> Tuple[int, int]:
    """``(distinct dag nodes, unfolded nodes)`` of a counterexample."""
    if isinstance(counterexample, DagTree):
        return len(distinct_tree_nodes(counterexample)), unfolded_size(counterexample)
    size = counterexample.size
    return size, size


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def loglog_slope(points: List[Tuple[float, float]]) -> float:
    """Least-squares slope of ``log y`` over ``log x``; 0.0 without spread."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len(pts) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    if sxx == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


# ----------------------------------------------------------------------
# Resident memory
# ----------------------------------------------------------------------
def own_peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _children(pid: int) -> List[int]:
    kids: List[int] = []
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/children") as handle:
                kids.extend(int(p) for p in handle.read().split())
    except OSError:
        pass
    return kids


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of peak resident memory (``VmHWM``) of ``pid`` and every
    descendant — a server process plus its workers."""
    total_kb = 0
    stack = [pid]
    seen = set()
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        try:
            with open(f"/proc/{current}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
        stack.extend(_children(current))
    return total_kb / 1024.0


def _live_children() -> List[int]:
    """This process's children that have not ended (zombies are reaped)."""
    kids = []
    for pid in _children(os.getpid()):
        try:
            done, _ = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            continue
        if not done:
            kids.append(pid)
    return kids


def adopt_orphans() -> None:
    """Become the parent of orphaned descendants (Linux ``prctl``
    ``PR_SET_CHILD_SUBREAPER``): the server's workers, orphaned when its
    process group is stopped, are then reaped by ``stop_children`` here
    rather than left for init."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def stop_children(grace_s: float = 5.0) -> None:
    """Stop every process this one started and wait until each has ended.

    ``multiprocessing`` starts a resource-tracker process with the first
    spawned worker (the embedded ``WorkerPool`` of the traced served run)
    and lets it outlive its parent; it is stopped the way its own module
    stops it, and any other child left is sent SIGTERM, then SIGKILL.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    for sig in (signal.SIGTERM, signal.SIGKILL):
        kids = _live_children()
        for pid in kids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + grace_s
        while kids and time.monotonic() < deadline:
            time.sleep(0.02)
            kids = _live_children()
        if not kids:
            return


def counter_total(snapshot: Dict[str, dict], name: str) -> int:
    """Sum of a counter over every label set in a metrics snapshot."""
    total = 0
    for key, value in snapshot.get("counters", {}).items():
        if key == name or key.startswith(name + "{"):
            total += int(value)
    return total

