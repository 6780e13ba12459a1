"""Serializable interned-kernel artifacts.

Two small services for the compiled-session and service layers:

``HedgeDecoder``
    The picklable decode descriptor of the forward engine's fixpoint cells.
    A :class:`~repro.core.forward.HedgeEntry` keeps its product graph in
    interned-int form; decoding an int node back to object form needs the
    two state interners involved.  The seed kept that mapping as *closures*
    capturing the interners, which made the cells (and with them the whole
    per-transducer fixpoint tables) unpicklable — the reason shared
    ProductBFS cells used to be rebuilt per process.  ``HedgeDecoder`` is
    the closure replaced by data: it stores the interners as plain
    attributes, so hedge entries, shard snapshots and per-transducer table
    caches all round-trip through ``pickle`` and can cross process
    boundaries (:mod:`repro.service`).

``dumps`` / ``loads``
    Versioned pickling of kernel-bearing artifacts.  Every interned
    structure (:class:`~repro.kernel.interning.Interner`,
    :class:`~repro.kernel.dfa_kernel.InternedDFA`,
    :class:`~repro.kernel.nfa_kernel.InternedNFA`, the lazy pair interner of
    ``dfa_kernel``) is closure-free by design, so whole DTDs with their
    compiled DFA caches — kernels included — round-trip through ``pickle``.
    A format header guards against loading artifacts written by an
    incompatible kernel layout; :mod:`repro.cache` builds the on-disk
    artifact cache on top of this.

Pickled artifacts execute arbitrary code on load (it is ``pickle``): only
load blobs your own process wrote, which is exactly the artifact-cache use
case.
"""

from __future__ import annotations

import pickle
from typing import Optional, Tuple

#: Bump whenever the layout of any interned structure changes shape —
#: loads() then rejects stale blobs instead of resurrecting mismatched
#: tables.  2: HedgeEntry grew the closure-free decoder and fixpoint
#: tables became part of the persisted artifacts.
KERNEL_FORMAT = 2


class HedgeDecoder:
    """Decode interned hedge-product configurations back to object form.

    ``in_states`` / ``out_states`` are the state interners of the input
    content DFA and the (complete) output content DFA a hedge cell was
    evaluated against.  Interners assign indices in repr-sorted order, so a
    decoder unpickled in another process agrees with the interners that
    process builds for the equal automata — int-coded tables are portable
    across workers by construction.
    """

    __slots__ = ("in_states", "out_states")

    def __init__(self, in_states, out_states) -> None:
        self.in_states = in_states
        self.out_states = out_states

    def slots(self, flat: Tuple[int, ...]) -> Tuple:
        """Flat int tuple ``(ℓ₁, r₁, …)`` to object slot pairs."""
        value = self.out_states.value
        return tuple(
            (value(flat[i]), value(flat[i + 1])) for i in range(0, len(flat), 2)
        )

    def node(self, node: Tuple[int, ...]) -> Tuple:
        """Product node ``(d, ℓ₁, r₁, …)`` to ``(content state, π)``."""
        return (self.in_states.value(node[0]), self.slots(node[1:]))


def approx_bytes(payload: object) -> int:
    """Approximate resident byte footprint of a kernel-bearing artifact.

    Measured as the pickled size of the payload — the same serialization
    the artifact cache persists, so the number tracks exactly the state
    that eviction would reclaim (interned kernels, fixpoint cells,
    per-transducer tables).  Pickled size under-counts Python object
    overhead by a constant-ish factor, which is fine for *relative*
    eviction decisions (the registry's byte budget,
    :func:`repro.core.session.set_registry_budget`).
    """
    return len(dumps(payload))


def dumps(payload: object) -> bytes:
    """Serialize ``payload`` (kernel-bearing artifacts included) with a
    format header."""
    return pickle.dumps(
        {"kernel_format": KERNEL_FORMAT, "payload": payload},
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def loads(data: bytes) -> Optional[object]:
    """Deserialize a :func:`dumps` blob; ``None`` when the blob was written
    by an incompatible kernel format (stale-cache invalidation, not an
    error)."""
    try:
        envelope = pickle.loads(data)
    except Exception:
        return None
    if not isinstance(envelope, dict):
        return None
    if envelope.get("kernel_format") != KERNEL_FORMAT:
        return None
    return envelope.get("payload")
