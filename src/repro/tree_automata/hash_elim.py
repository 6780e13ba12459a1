"""The #-elimination lift used in the proof of Theorem 20.

Theorem 20 turns a deleting transducer ``T`` into a non-deleting ``T'`` that
emits a placeholder ``#`` wherever ``T`` would delete, and then needs a tree
automaton ``B_out`` accepting exactly the trees ``t'`` over ``Σ ∪ {#}`` whose
#-*elimination* ``γ(t')`` (splice every #-node's children into its parent's
child sequence, recursively) is accepted by a given automaton ``A`` over
``Σ``.  This module builds that lift.

Construction
------------
States of the lift: ``Q ∪ P`` where ``P`` contains *pair states*
``((q, a), s₁, s₂)`` — "this #-node's spliced-out children take the
horizontal automaton of ``δ(q, a)`` from ``s₁`` to ``s₂``".  Every horizontal
NFA is extended with jump transitions ``s₁ →(pair)→ s₂`` for its own pairs,
so a parent may delegate a stretch of its child word to a #-child, and
#-nodes nest (a #-child of a #-node delegates within the same automaton).
"""

from __future__ import annotations

from typing import Dict, Hashable, Tuple

from repro.errors import InvalidSchemaError
from repro.strings.nfa import NFA
from repro.tree_automata.nta import NTA

State = Hashable

HASH = "#"


def hash_elimination_lift(nta: NTA, hash_symbol: str = HASH) -> NTA:
    """An NTA over ``Σ ∪ {hash_symbol}`` accepting ``{t : γ(t) ∈ L(nta)}``.

    ``γ`` replaces every node labeled ``hash_symbol`` by its (recursively
    eliminated) children.  A tree whose root is the hash symbol is accepted
    exactly when its elimination is a *single* tree of ``L(nta)`` (an empty
    or multi-tree hedge is not a tree, hence never in ``L(nta)``); this is
    handled by a virtual root context whose horizontal automaton accepts
    precisely one final-state symbol, with its own pair states so hash
    nodes nest below a hash root as everywhere else.
    """
    if hash_symbol in nta.alphabet:
        raise InvalidSchemaError(
            f"hash symbol {hash_symbol!r} already occurs in the alphabet"
        )

    # Horizontal automata per context.  The virtual root context accepts
    # exactly the length-one words "f" with f final — its key can never
    # collide with a real (q, a) context because a = hash_symbol is not in
    # the alphabet.
    root_context = ("__hash_root__", hash_symbol)
    contexts: Dict[Tuple[State, str], NFA] = dict(nta.delta)
    contexts[root_context] = NFA(
        {0, 1},
        nta.states,
        {0: {final: {1} for final in nta.finals}},
        {0},
        {1},
    )

    # Pair states, grouped by the owning context.
    pair_states: Dict[Tuple[State, str], list] = {}
    for context, nfa in contexts.items():
        pair_states[context] = [
            (context, s1, s2) for s1 in nfa.states for s2 in nfa.states
        ]

    all_pairs = [p for pairs in pair_states.values() for p in pairs]
    new_states = frozenset(nta.states).union(all_pairs)

    def extended(context: Tuple[State, str]) -> NFA:
        """The horizontal NFA of ``context`` over ``Q ∪ P`` with jump
        transitions for its own pair states."""
        base = contexts[context]
        table: Dict[State, Dict[Hashable, set]] = {
            src: {sym: set(tgts) for sym, tgts in row.items()}
            for src, row in base.transitions.items()
        }
        for pair in pair_states[context]:
            _, s1, s2 = pair
            table.setdefault(s1, {}).setdefault(pair, set()).add(s2)
        return NFA(base.states, new_states, table, base.initial, base.finals)

    jumps = {context: extended(context) for context in contexts}
    delta: Dict[Tuple[State, str], NFA] = {
        context: jumps[context] for context in nta.delta
    }
    for context, pairs in pair_states.items():
        # A pair state's automaton is its context's, run from s₁ to s₂.
        for pair in pairs:
            _, s1, s2 = pair
            delta[(pair, hash_symbol)] = jumps[context].with_endpoints({s1}, {s2})

    # A hash-rooted tree is accepted through the root pair "0 → 1": its
    # children hedge eliminates to exactly one tree in a final state.
    return NTA(
        new_states,
        nta.alphabet | {hash_symbol},
        delta,
        set(nta.finals) | {(root_context, 0, 1)},
    )


def eliminate_hashes(tree, hash_symbol: str = HASH):
    """The function ``γ`` on explicit trees: splice out every #-node.

    Returns a *hedge* (tuple of trees) because the root itself may be a
    #-node.
    """
    from repro.trees.tree import Tree

    def gamma(node) -> tuple:
        spliced: list = []
        for child in node.children:
            spliced.extend(gamma(child))
        if node.label == hash_symbol:
            return tuple(spliced)
        return (Tree(node.label, spliced),)

    return gamma(tree)
