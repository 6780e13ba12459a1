"""Explicit export of the pre-image × input-schema product NTA.

The backward engine decides typechecking on a *demand-driven* product of
the pre-image of the bad-output language with ``din`` — only
``din``-reachable behavior maps ever materialize.  This module exports
that product as an explicit :class:`~repro.tree_automata.nta.NTA` over
the input alphabet:

* states are the derived pairs ``(input symbol, Φ)``;
* the horizontal language of ``((a, Φ), a)`` is read off the cell's
  recorded product graph — NFA states are the BFS nodes (input content
  DFA state × accumulated behavior map), transitions are the recorded
  product edges labeled by derived child pairs, and finals are the
  accepting nodes whose rule induction yields exactly ``Φ``;
* accepting states are the pairs at ``din``'s start symbol whose initial
  behavior is *bad* (output not a single valid ``dout``-tree).

By construction ``L(preimage_product_nta(T, din, dout))`` is exactly
``{t ∈ L(din) | T(t) ∉ L(dout)}``, so the instance typechecks iff the
automaton is empty — the cross-check used by ``tests/backward/`` against
the engine's verdict via the kernel NTA emptiness
(:func:`repro.tree_automata.emptiness.is_empty`), and a
:func:`~repro.tree_automata.emptiness.witness_tree` of the automaton is
a counterexample input tree.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.backward.engine import BackwardEngine, BackwardSchema, PairKey
from repro.schemas.dtd import DTD
from repro.strings.nfa import NFA
from repro.transducers.transducer import TreeTransducer
from repro.tree_automata.nta import NTA


def preimage_product_nta(
    transducer: TreeTransducer,
    din: DTD,
    dout: DTD,
    max_product_nodes: int = 500_000,
    schema: Optional[BackwardSchema] = None,
) -> NTA:
    """The reachable pre-image × ``din`` product as an explicit NTA.

    Saturates the backward fixpoint (no early exit) with edge recording
    on — the export needs every reachable cell's product graph — then
    assembles the automaton from the engine's tables.  Unlike
    :func:`repro.backward.typecheck_backward` this export performs no
    Definition 5 root-shape check — the rule induction is total over
    deterministic top-down transducers.
    """
    if transducer.uses_calls():
        from repro.xpath.compile import compile_calls

        transducer = compile_calls(transducer)
    engine = BackwardEngine(
        transducer,
        din,
        dout,
        max_product_nodes,
        schema=schema,
        record_edges=True,
        early_exit=False,
    )
    engine.run()

    states: Set[PairKey] = set(engine.witness)
    state_set = frozenset(states)
    delta: Dict[Tuple[PairKey, str], NFA] = {}
    for a, cell in engine._cells.items():
        bfs = cell.engine
        if bfs is None:
            continue
        idfa = cell.idfa
        n_d = idfa.n_states
        finals_mask = idfa.finals_mask
        nodes = set(bfs.parents)
        seed = engine._map_empty * n_d + idfa.initial
        transitions: Dict[int, Dict[PairKey, Set[int]]] = {}
        for src, label, dst in cell.edges:
            transitions.setdefault(src, {}).setdefault(label, set()).add(dst)
        # Group the accepting nodes by the Φ their rule induction yields.
        by_phi: Dict[int, Set[int]] = {}
        for node in nodes:
            if finals_mask >> (node % n_d) & 1:
                by_phi.setdefault(
                    engine.eval_map(a, node // n_d), set()
                ).add(node)
        for phi, finals in by_phi.items():
            delta[((a, phi), a)] = NFA(
                nodes, state_set, transitions, {seed}, finals
            )
    finals = {
        (a, phi)
        for (a, phi) in states
        if a == din.start and engine.bad(phi)
    }
    return NTA(state_set, din.alphabet, delta, finals)
