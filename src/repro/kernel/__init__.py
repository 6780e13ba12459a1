"""``repro.kernel`` — the interned-state automata kernel.

Architecture
------------
Every algorithm in the paper — the Lemma 14 forward engine, the Theorem 20
del-relab pipeline, the Section 5 RE⁺ grammar check — bottoms out in the
same primitive: explore a product of string/tree automata and decide
emptiness or inclusion.  This package is that primitive, implemented once:

``interning``
    :class:`Interner` maps states/symbols of any automaton to dense ints
    ``0..n-1`` at construction (repr-sorted, so runs are reproducible under
    hash randomization).  State *sets* become Python-int bitmasks.

``product``
    :class:`ProductBFS`, the single demand-driven product-reachability
    engine.  Nodes are int tuples (or packed ints); it records one parent
    edge per node for witness extraction and supports early exit (inclusion
    checks) and node budgets (:class:`~repro.errors.BudgetExceededError`).

``dfa_kernel`` / ``nfa_kernel``
    :class:`InternedDFA` (flat list transition table, ``-1`` = dead) and
    :class:`InternedNFA` (per-state int rows over the symbols that label
    a transition), plus the DFA product / inclusion / minimization and
    horizontal pair-product configurations of the engine.  Public classes
    cache their interned form via
    ``DFA.kernel()`` / ``NFA.kernel()`` — interning happens once per
    automaton, not once per operation.

``nta_kernel``
    NTA emptiness (Proposition 4) as an incremental worklist over
    per-horizontal-NFA bitmasks, with the acyclic witness bookkeeping the
    DAG construction needs; and the same fixpoint run on a product of two
    NTAs without building it (``productive_pairs``, behind
    :func:`repro.tree_automata.ops.intersect`).

``reference``
    The seed object-state implementations — the forward fixpoint
    included — kept verbatim as the differential-testing and benchmarking
    oracle (imported only by tests and ``benchmarks/bench_kernel.py``;
    import it explicitly, it is not re-exported here to keep this package
    import-cycle-free).

The public modules (:mod:`repro.strings.dfa`, :mod:`repro.tree_automata`,
:mod:`repro.core.reachability`, :mod:`repro.core.forward`) keep their seed
APIs as thin adapters over these kernels; new scaling work (batch APIs,
cache layers) should target this package, not the adapters.
"""

from repro.kernel.interning import Interner, iter_bits, mask_of, popcount
from repro.kernel.product import ProductBFS
from repro.kernel.dfa_kernel import InternedDFA
from repro.kernel.nfa_kernel import InternedNFA

__all__ = [
    "Interner",
    "InternedDFA",
    "InternedNFA",
    "ProductBFS",
    "iter_bits",
    "mask_of",
    "popcount",
]
