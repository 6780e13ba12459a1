"""The image automaton of Lemma 19.

Given an NTA(NFA) ``A`` and a transducer ``T`` in which **every rhs contains
at most one state and no state at its top level** (the non-deleting,
single-state transducers of Lemma 19 — exactly what Theorem 20's
#-wrapping produces), :func:`image_nta` builds, in polynomial time, an
NTA(NFA) ``B`` with ``L(B) = T(L(A))``.

States of ``B`` are tuples ``(a, q_A, q_T, u)``: "this output node was
produced from an input node labeled ``a``, carrying ``A``-run state ``q_A``,
processed by ``T`` in state ``q_T``, as node ``u`` of ``rhs(q_T, a)``".  The
input-side constraint (children of the input node must spell a word of
``δ_A(q_A, a)``) is enforced at the unique rhs node whose child is the state
leaf, by the modified horizontal automaton ``D'`` that reads the *output*
root states produced by each input child; input children that produce **no**
output (no rule, or an empty rhs) are skipped by ε-edges guarded by a static
productivity check (the subtree must still exist and be accepted by ``A``).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, List, Optional, Set, Tuple

from repro.errors import InvalidTransducerError
from repro.strings.nfa import NFA
from repro.transducers.rhs import (
    RhsCall,
    RhsHedge,
    RhsState,
    RhsSym,
    iter_rhs_nodes,
)
from repro.transducers.transducer import TreeTransducer
from repro.tree_automata.emptiness import productive_states
from repro.tree_automata.nta import NTA

BState = Tuple[str, Hashable, str, Tuple[int, ...]]


def _check_lemma19_shape(transducer: TreeTransducer) -> None:
    for (state, symbol), rhs in transducer.rules.items():
        if state == transducer.initial and len(rhs) > 1:
            raise InvalidTransducerError(
                f"initial rhs of ({state!r}, {symbol!r}) is a hedge of "
                f"{len(rhs)} trees, so the image contains non-trees; wrap "
                "the rhs under # first (Theorem 20)"
            )
        count = 0
        for path, node in iter_rhs_nodes(rhs):
            if isinstance(node, RhsCall):
                raise InvalidTransducerError("Lemma 19 does not cover calls")
            if isinstance(node, RhsState):
                count += 1
                if len(path) == 1:
                    raise InvalidTransducerError(
                        f"rhs of ({state!r}, {symbol!r}) deletes (top-level "
                        "state); wrap deletions with # first (Theorem 20)"
                    )
        if count > 1:
            raise InvalidTransducerError(
                f"rhs of ({state!r}, {symbol!r}) has {count} states; "
                "Lemma 19 needs at most one per rhs"
            )


def _state_leaf(rhs: RhsHedge) -> Optional[Tuple[Tuple[int, ...], str]]:
    """Address and state of the unique state leaf, if any."""
    for path, node in iter_rhs_nodes(rhs):
        if isinstance(node, RhsState):
            return path, node.state
    return None


def _productive_pairs(nta: NTA) -> Set[Tuple[Hashable, str]]:
    """Pairs ``(q_A, c)`` such that some tree rooted ``c`` is accepted from
    ``q_A``."""
    productive, _ = productive_states(nta)
    pairs: Set[Tuple[Hashable, str]] = set()
    for (state, symbol), nfa in nta.delta.items():
        if nfa.some_word(productive) is not None:
            pairs.add((state, symbol))
    return pairs


def _eliminate_epsilon(
    states: Set,
    alphabet: FrozenSet,
    transitions: Dict,
    eps: Dict,
    initial: Set,
    finals: Set,
) -> NFA:
    """ε-elimination for the hand-built D' automaton."""
    closure: Dict = {}
    for state in states:
        seen = {state}
        stack = [state]
        while stack:
            node = stack.pop()
            for succ in eps.get(node, ()):
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        closure[state] = seen
    new_transitions: Dict = {}
    for state in states:
        row: Dict = {}
        for mid in closure[state]:
            for symbol, targets in transitions.get(mid, {}).items():
                row.setdefault(symbol, set()).update(targets)
        if row:
            new_transitions[state] = row
    new_finals = {s for s in states if closure[s] & finals}
    return NFA(states, alphabet, new_transitions, initial, new_finals)


def image_nta(nta: NTA, transducer: TreeTransducer) -> NTA:
    """``B`` with ``L(B) = T(L(A))`` (Lemma 19), in polynomial time."""
    _check_lemma19_shape(transducer)
    prod_pairs = _productive_pairs(nta)
    productive, _ = productive_states(nta)

    # ------------------------------------------------------------------
    # B's state space: one family per (symbol, A-state, T-state) with a rule,
    # one member per non-state rhs address.
    # ------------------------------------------------------------------
    b_states: Set[BState] = set()
    rule_info: Dict[Tuple[str, str], Tuple[RhsHedge, Optional[Tuple[Tuple[int, ...], str]]]] = {}
    for (q_t, a), rhs in transducer.rules.items():
        leaf = _state_leaf(rhs)
        rule_info[(q_t, a)] = (rhs, leaf)
        for q_a in nta.states:
            for path, node in iter_rhs_nodes(rhs):
                if isinstance(node, RhsSym):
                    b_states.add((a, q_a, q_t, path))
    b_state_set = frozenset(b_states)

    def family(a: str, q_a, q_t: str) -> Dict[Tuple[int, ...], BState]:
        rhs, _ = rule_info[(q_t, a)]
        return {
            path: (a, q_a, q_t, path)
            for path, node in iter_rhs_nodes(rhs)
            if isinstance(node, RhsSym)
        }

    def roots_chain(c: str, q_a, q_t: str) -> Optional[List[BState]]:
        """The output root states an input child (c, q_a) produces when
        processed in state q_t — ``None`` for 'produces nothing'."""
        info = rule_info.get((q_t, c))
        if info is None:
            return None
        rhs, _ = info
        if not rhs:
            return None
        return [(c, q_a, q_t, (j,)) for j in range(len(rhs))]

    def build_d_prime(q_a, a: str, q_prime_t: str) -> NFA:
        """The modified horizontal automaton D' of Lemma 19."""
        base = nta.horizontal(q_a, a)
        states: Set = set(("base", s) for s in base.states)
        transitions: Dict = {}
        eps: Dict = {}
        fresh = 0
        for src, row in base.transitions.items():
            for q_a_child, targets in row.items():
                for tgt in targets:
                    for c in nta.alphabet:
                        chain = roots_chain(c, q_a_child, q_prime_t)
                        if chain is None:
                            # Child produces no output: skip it, provided a
                            # suitable accepted subtree exists at all.
                            if (q_a_child, c) in prod_pairs:
                                eps.setdefault(("base", src), set()).add(("base", tgt))
                            continue
                        prev = ("base", src)
                        for index, symbol in enumerate(chain):
                            if index == len(chain) - 1:
                                nxt = ("base", tgt)
                            else:
                                nxt = ("chain", fresh)
                                fresh += 1
                                states.add(nxt)
                            transitions.setdefault(prev, {}).setdefault(
                                symbol, set()
                            ).add(nxt)
                            prev = nxt
        return _eliminate_epsilon(
            states,
            b_state_set,
            transitions,
            eps,
            {("base", s) for s in base.initial},
            {("base", s) for s in base.finals},
        )

    # ------------------------------------------------------------------
    # Transitions.
    # ------------------------------------------------------------------
    delta: Dict[Tuple[BState, str], NFA] = {}
    for (q_t, a), (rhs, leaf) in rule_info.items():
        for q_a in nta.states:
            members = family(a, q_a, q_t)
            if leaf is None:
                # Stateless rhs: the input children are unconstrained by the
                # output; require statically that a valid child word exists.
                if nta.horizontal(q_a, a).some_word(productive) is None:
                    continue
            for path, node in iter_rhs_nodes(rhs):
                if not isinstance(node, RhsSym):
                    continue
                source = members[path]
                child_states: List[Optional[BState]] = []
                state_pos: Optional[int] = None
                for index, child in enumerate(node.children):
                    if isinstance(child, RhsState):
                        state_pos = index
                        child_states.append(None)
                    else:
                        child_states.append(members[path + (index,)])
                if state_pos is None:
                    word = tuple(child_states)  # type: ignore[arg-type]
                    delta[(source, node.label)] = NFA.from_word(word)
                else:
                    assert leaf is not None
                    _, q_prime_t = leaf
                    core = build_d_prime(q_a, a, q_prime_t)
                    prefix = [child_states[i] for i in range(state_pos)]
                    suffix = [
                        child_states[i]
                        for i in range(state_pos + 1, len(child_states))
                    ]
                    delta[(source, node.label)] = _wrap_with_word(
                        core, prefix, suffix, b_state_set
                    )

    finals = {
        (a, q_a, transducer.initial, (0,))
        for (q_t, a) in rule_info
        if q_t == transducer.initial
        for q_a in nta.finals
    }
    return NTA(b_state_set, transducer.alphabet | nta.alphabet, delta, finals & b_state_set)


def _wrap_with_word(core: NFA, prefix: List, suffix: List, alphabet) -> NFA:
    """NFA for ``prefix · L(core) · suffix`` (prefix/suffix are fixed words)."""
    states: Set = {("core", s) for s in core.states}
    transitions: Dict = {
        ("core", src): {
            symbol: {("core", t) for t in targets}
            for symbol, targets in row.items()
        }
        for src, row in core.transitions.items()
    }
    initial: Set = {("core", s) for s in core.initial}
    finals: Set = {("core", s) for s in core.finals}

    # Prefix chain p_0 → ... → core initials.
    if prefix:
        previous = ("pre", 0)
        states.add(previous)
        start = {previous}
        for index, symbol in enumerate(prefix):
            if index == len(prefix) - 1:
                targets = set(initial)
            else:
                nxt = ("pre", index + 1)
                states.add(nxt)
                targets = {nxt}
            transitions.setdefault(previous, {}).setdefault(symbol, set()).update(
                targets
            )
            previous = ("pre", index + 1)
        initial = start

    # Suffix chain core finals → s_1 → ... → s_m.
    if suffix:
        chain = [("suf", i) for i in range(1, len(suffix) + 1)]
        states.update(chain)
        first_symbol = suffix[0]
        for final in list(finals):
            transitions.setdefault(final, {}).setdefault(first_symbol, set()).add(
                chain[0]
            )
        for index in range(1, len(suffix)):
            transitions.setdefault(chain[index - 1], {}).setdefault(
                suffix[index], set()
            ).add(chain[index])
        finals = {chain[-1]}

    return NFA(states, alphabet, transitions, initial, finals)
