"""Object-state reference implementations (the seed versions).

These are the pre-kernel implementations of the operations ported to
:mod:`repro.kernel`, preserved verbatim as the differential-testing and
benchmarking baseline: the property suite in ``tests/kernel/`` asserts the
interned kernel agrees with them, and ``benchmarks/bench_kernel.py`` times
old vs new.  They are *not* used by the library's hot paths.

Do not "optimize" this module — its value is being the slow, obviously
faithful transcription of the paper's object-level pseudo-code.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Hashable, Optional, Tuple

State = Hashable
Symbol = Hashable


# ----------------------------------------------------------------------
# strings/dfa.py baselines
# ----------------------------------------------------------------------
def dfa_product_object(left, right, finals: str = "both"):
    """Seed ``DFA.product``: object-tuple BFS over the pair graph."""
    from repro.strings.dfa import DFA

    alphabet = left.alphabet & right.alphabet
    start = (left.initial, right.initial)
    states = {start}
    transitions: Dict[Tuple[State, Symbol], State] = {}
    frontier = deque([start])
    while frontier:
        p, q = frontier.popleft()
        for symbol in alphabet:
            tp = left.transitions.get((p, symbol))
            tq = right.transitions.get((q, symbol))
            if tp is None or tq is None:
                continue
            target = (tp, tq)
            transitions[((p, q), symbol)] = target
            if target not in states:
                states.add(target)
                frontier.append(target)
    if finals == "both":
        accept = {(p, q) for (p, q) in states if p in left.finals and q in right.finals}
    elif finals == "left":
        accept = {(p, q) for (p, q) in states if p in left.finals}
    elif finals == "right":
        accept = {(p, q) for (p, q) in states if q in right.finals}
    elif finals == "either":
        accept = {(p, q) for (p, q) in states if p in left.finals or q in right.finals}
    else:  # pragma: no cover - defensive
        raise ValueError(f"unknown finals mode {finals!r}")
    return DFA(states, alphabet, transitions, start, accept)


def dfa_contains_object(big, small) -> bool:
    """Seed ``DFA.contains``: complement + NFA product + emptiness."""
    from repro.strings.dfa import DFA

    small_nfa = small.to_nfa() if isinstance(small, DFA) else small
    comp = big.complement(big.alphabet | small_nfa.alphabet)
    return small_nfa.product(comp.to_nfa()).is_empty()


def dfa_minimize_object(dfa):
    """Seed ``DFA.minimize``: Moore refinement over object dicts."""
    from repro.strings.dfa import DFA

    completed = dfa.complete()
    reachable = completed.to_nfa().reachable_states()
    states = [q for q in completed.states if q in reachable]
    symbols = sorted(completed.alphabet, key=repr)

    block_of: Dict[State, int] = {
        q: (0 if q in completed.finals else 1) for q in states
    }
    num_blocks = len(set(block_of.values()))
    changed = True
    while changed:
        changed = False
        signatures: Dict[tuple, list] = {}
        for q in states:
            sig = (
                block_of[q],
                tuple(block_of[completed.transitions[(q, a)]] for a in symbols),
            )
            signatures.setdefault(sig, []).append(q)
        if len(signatures) != num_blocks:
            changed = True
            num_blocks = len(signatures)
            for index, group in enumerate(signatures.values()):
                for q in group:
                    block_of[q] = index
    transitions = {
        (block_of[q], a): block_of[completed.transitions[(q, a)]]
        for q in states
        for a in symbols
    }
    finals = {block_of[q] for q in states if q in completed.finals}
    return DFA(
        set(block_of.values()),
        completed.alphabet,
        transitions,
        block_of[completed.initial],
        finals,
    ).renumber()


# ----------------------------------------------------------------------
# tree_automata/ops.py baselines
# ----------------------------------------------------------------------
def pair_product_nfa_object(left, right):
    """Seed ``ops._pair_product_nfa``: object-pair BFS.

    The alphabet is the set of symbol pairs the product reads (the seed
    declared ``left.alphabet × right.alphabet``; unread pairs occur in no
    accepted word, so the language is the same).
    """
    from repro.strings.nfa import NFA

    initial = {(p, q) for p in left.initial for q in right.initial}
    states = set(initial)
    table: Dict[State, Dict[Tuple, set]] = {}
    frontier = deque(initial)
    while frontier:
        pair = frontier.popleft()
        p, q = pair
        row_p = left.transitions.get(p, {})
        row_q = right.transitions.get(q, {})
        if not row_p or not row_q:
            continue
        for u, targets_p in row_p.items():
            for v, targets_q in row_q.items():
                for tp in targets_p:
                    for tq in targets_q:
                        target = (tp, tq)
                        table.setdefault(pair, {}).setdefault((u, v), set()).add(target)
                        if target not in states:
                            states.add(target)
                            frontier.append(target)
    finals = {(p, q) for (p, q) in states if p in left.finals and q in right.finals}
    alphabet = {symbol for row in table.values() for symbol in row}
    if not states:
        return NFA.empty_language(alphabet)
    return NFA(states, alphabet, table, initial, finals)


def intersect_object(left, right):
    """Seed ``ops.intersect``: the eager product over every state pair,
    each horizontal product widened to the full pair-state alphabet."""
    from repro.tree_automata.nta import NTA

    alphabet = left.alphabet & right.alphabet
    states = {(p, q) for p in left.states for q in right.states}
    delta = {}
    for (p, symbol), nfa_left in left.delta.items():
        if symbol not in alphabet:
            continue
        for (q, symbol_right), nfa_right in right.delta.items():
            if symbol_right != symbol:
                continue
            product = pair_product_nfa_object(nfa_left, nfa_right)
            delta[((p, q), symbol)] = product.with_alphabet(states)
    finals = {(p, q) for p in left.finals for q in right.finals}
    return NTA(states, alphabet, delta, finals)


# ----------------------------------------------------------------------
# tree_automata/emptiness.py baseline
# ----------------------------------------------------------------------
def productive_states_object(
    nta,
) -> Tuple[FrozenSet[State], Dict[State, Tuple[str, Tuple[State, ...]]]]:
    """Seed ``productive_states``: whole-delta rescans with frozenset BFS."""
    productive: set = set()
    witness: Dict[State, Tuple[str, Tuple[State, ...]]] = {}
    changed = True
    while changed:
        changed = False
        for (state, symbol), nfa in nta.delta.items():
            if state in productive:
                continue
            word = nfa.some_word(frozenset(productive))
            if word is not None:
                productive.add(state)
                witness[state] = (symbol, word)
                changed = True
    return frozenset(productive), witness


def nta_is_empty_object(nta) -> bool:
    """Seed emptiness via :func:`productive_states_object`."""
    productive, _ = productive_states_object(nta)
    return not (productive & nta.finals)


# ----------------------------------------------------------------------
# core/reachability.py baseline
# ----------------------------------------------------------------------
def some_word_containing_object(nfa, symbol, allowed) -> Optional[Tuple[str, ...]]:
    """Seed ``some_word_containing``: object BFS over (state, seen-flag)."""
    allowed = frozenset(allowed) | {symbol}
    start = [(q, False) for q in nfa.initial]
    parent: Dict[Tuple, Tuple] = {}
    seen = set(start)
    frontier = deque(start)
    hit = None
    for q, flag in start:
        if flag and q in nfa.finals:  # pragma: no cover - flag starts False
            hit = (q, flag)
    while frontier and hit is None:
        node = frontier.popleft()
        q, flag = node
        row = nfa.transitions.get(q)
        if not row:
            continue
        for sym, targets in row.items():
            if sym not in allowed:
                continue
            new_flag = flag or sym == symbol
            for target in targets:
                succ = (target, new_flag)
                if succ in seen:
                    continue
                seen.add(succ)
                parent[succ] = (node, sym)
                if new_flag and target in nfa.finals:
                    hit = succ
                    break
                frontier.append(succ)
            if hit:
                break
    if hit is None:
        return None
    word = []
    node = hit
    while node in parent:
        node, sym = parent[node]
        word.append(sym)
    word.reverse()
    return tuple(word)
