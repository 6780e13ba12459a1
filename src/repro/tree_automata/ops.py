"""Operations on unranked tree automata.

Intersection (product), bottom-up determinism and completeness tests,
completion, complementation of complete deterministic automata (the DTAc
complement step of Theorem 20: "switch the final and non-final states"), and
bottom-up subset-construction determinization (exponential — guarded).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Hashable, Tuple

from repro.errors import BudgetExceededError, NotCompleteError, NotDeterministicError
from repro.strings.nfa import NFA
from repro.tree_automata.nta import NTA

State = Hashable


def _pair_product_nfa(left: NFA, right: NFA, partners) -> NFA:
    """Product of two horizontal NFAs reading *pairs* of symbols.

    Accepts ``(u₁,v₁)…(u_n,v_n)`` iff ``left`` accepts ``u₁…u_n``,
    ``right`` accepts ``v₁…v_n`` and every ``vᵢ ∈ partners[uᵢ]`` — the
    horizontal language of a product tree automaton whose states are the
    pairs ``partners`` lists.  The reachable pair space is explored on the
    interned kernels; the alphabet is the set of pairs the product reads.
    """
    from repro.kernel.nfa_kernel import pair_product_components

    states, table, initial, finals, alphabet = pair_product_components(
        left, right, partners
    )
    if not states:
        return NFA.empty_language(alphabet)
    return NFA(states, alphabet, table, initial, finals)


def intersect(left: NTA, right: NTA) -> NTA:
    """Product automaton with ``L = L(left) ∩ L(right)``, built on demand.

    A pair state ``(p, q)`` is created only once it turns productive,
    bottom-up (:func:`repro.kernel.nta_kernel.productive_pairs`), so the
    product has no useless states; each horizontal product reads only
    productive pairs.  Unproductive pairs occur in no accepting run, so
    the language is that of the full ``left.states × right.states``
    product (kept as the test oracle
    :func:`repro.kernel.reference.intersect_object`).
    """
    from repro.kernel.nta_kernel import productive_pairs

    partners = productive_pairs(left, right)
    states = [(p, q) for p, qs in partners.items() for q in qs]
    right_symbols: Dict[State, list] = {}
    for q, symbol in right.delta:
        right_symbols.setdefault(q, []).append(symbol)
    delta: Dict[Tuple[State, str], NFA] = {}
    for p, q in states:
        for symbol in right_symbols.get(q, ()):
            nfa_left = left.delta.get((p, symbol))
            if nfa_left is None:
                continue
            product = _pair_product_nfa(nfa_left, right.delta[(q, symbol)], partners)
            if product.finals:
                delta[((p, q), symbol)] = product
    finals = [(p, q) for (p, q) in states if p in left.finals and q in right.finals]
    return NTA(states, left.alphabet & right.alphabet, delta, finals)


def is_bottom_up_deterministic(nta: NTA) -> bool:
    """Definition 2: ``δ(q,a) ∩ δ(q',a) = ∅`` for all ``q ≠ q'``."""
    by_symbol: Dict[str, list] = {}
    for (state, symbol), nfa in nta.delta.items():
        by_symbol.setdefault(symbol, []).append((state, nfa))
    for rules in by_symbol.values():
        for i, (state_i, nfa_i) in enumerate(rules):
            for state_j, nfa_j in rules[i + 1 :]:
                if state_i == state_j:
                    continue
                if not nfa_i.product(nfa_j).is_empty():
                    return False
    return True


def is_complete(nta: NTA) -> bool:
    """Whether ``⋃_q δ(q,a) = Q*`` for every symbol (may determinize the
    union — exponential in the worst case)."""
    for symbol in nta.alphabet:
        union: NFA | None = None
        for state in nta.states:
            nfa = nta.delta.get((state, symbol))
            if nfa is None:
                continue
            union = nfa if union is None else union.union(nfa)
        if union is None:
            return False
        if not union.with_alphabet(nta.states).is_universal():
            return False
    return True


def complete(nta: NTA, sink_name: State | None = None) -> NTA:
    """A complete automaton for the same language (adds a sink state).

    For every symbol the sink receives the complement of ``⋃_q δ(q,a)``
    (extended over the sink-enlarged state alphabet), so every tree has
    exactly one extra run through the sink where it had none.  Preserves
    bottom-up determinism.
    """
    sink: State = sink_name if sink_name is not None else ("__sink__", len(nta.states))
    while sink in nta.states:
        sink = (sink, 0)
    states = set(nta.states) | {sink}
    delta: Dict[Tuple[State, str], NFA] = {
        key: nfa.with_alphabet(states) for key, nfa in nta.delta.items()
    }
    for symbol in nta.alphabet:
        union: NFA | None = None
        for state in nta.states:
            nfa = nta.delta.get((state, symbol))
            if nfa is None:
                continue
            union = nfa if union is None else union.union(nfa)
        if union is None:
            missing = NFA.universal(states)
        else:
            missing = union.complement(states).to_nfa()
        delta[(sink, symbol)] = missing
    return NTA(states, nta.alphabet, delta, nta.finals)


def complement_dtac(nta: NTA, check: bool = True) -> NTA:
    """Complement of a bottom-up deterministic *complete* automaton by
    flipping final states (Theorem 20: "the complement Āout can easily be
    computed by switching the final and non-final states").

    With ``check=True`` determinism and completeness are verified first
    (completeness verification may be expensive; pass ``check=False`` for
    automata complete by construction).
    """
    if check:
        if not is_bottom_up_deterministic(nta):
            raise NotDeterministicError("complementation needs a deterministic NTA")
        if not is_complete(nta):
            raise NotCompleteError("complementation needs a complete NTA")
    return NTA(nta.states, nta.alphabet, nta.delta, nta.states - nta.finals)


def determinize(nta: NTA, max_states: int = 4096) -> NTA:
    """Bottom-up subset construction: an equivalent DTAc whose states are the
    reachable subsets ``{states_of(t) | t}`` (EXPTIME in general — guarded by
    ``max_states``).
    """
    # Fixpoint over reachable subsets.
    reachable: set[FrozenSet[State]] = set()
    changed = True
    while changed:
        changed = False
        for symbol in nta.alphabet:
            for subset in _subsets_from_words(nta, symbol, frozenset(reachable)):
                if subset not in reachable:
                    reachable.add(subset)
                    changed = True
                    if len(reachable) > max_states:
                        raise BudgetExceededError(
                            f"determinization exceeded {max_states} subset states"
                        )
    subset_states = frozenset(reachable)

    delta: Dict[Tuple[FrozenSet[State], str], NFA] = {}
    for symbol in nta.alphabet:
        tracker_states, tracker_transitions, initial = _tracker(nta, symbol, subset_states)
        for target in subset_states:
            finals = {h for h in tracker_states if _outcome(nta, symbol, h) == target}
            if not finals and _outcome_never(nta, symbol, target):
                continue
            delta[(target, symbol)] = NFA(
                tracker_states,
                subset_states,
                tracker_transitions,
                {initial},
                finals,
            )
    finals = {subset for subset in subset_states if subset & nta.finals}
    return NTA(subset_states, nta.alphabet, delta, finals)


def _tracker(nta: NTA, symbol: str, alphabet: FrozenSet[FrozenSet[State]]):
    """The deterministic 'tracker' automaton for one symbol: its states are
    tuples of NFA state-sets, one per (q, symbol) rule, advanced jointly on
    each child subset.  Reachable part only."""
    rules = sorted(
        ((q, nfa) for (q, s), nfa in nta.delta.items() if s == symbol),
        key=lambda item: repr(item[0]),
    )
    initial = tuple(nfa.initial for _, nfa in rules)
    states = {initial}
    transitions: Dict = {}
    frontier = deque([initial])
    while frontier:
        config = frontier.popleft()
        for subset in alphabet:
            successor = tuple(
                nta._step_over_sets(nfa, config[i], subset)
                for i, (_, nfa) in enumerate(rules)
            )
            transitions.setdefault(config, {}).setdefault(subset, set()).add(successor)
            if successor not in states:
                states.add(successor)
                frontier.append(successor)
    return states, transitions, initial


def _outcome(nta: NTA, symbol: str, tracker_state) -> FrozenSet[State]:
    rules = sorted(
        ((q, nfa) for (q, s), nfa in nta.delta.items() if s == symbol),
        key=lambda item: repr(item[0]),
    )
    return frozenset(
        q for i, (q, nfa) in enumerate(rules) if tracker_state[i] & nfa.finals
    )


def _outcome_never(nta: NTA, symbol: str, target: FrozenSet[State]) -> bool:
    """Cheap check that ``target`` can never be the outcome for ``symbol``
    (used only to skip emitting all-empty horizontal languages)."""
    return True


def _subsets_from_words(
    nta: NTA, symbol: str, alphabet: FrozenSet[FrozenSet[State]]
):
    """All outcome subsets reachable by running the tracker for ``symbol``
    over words of already-reachable subsets."""
    tracker_states, _, _ = _tracker(nta, symbol, alphabet)
    return {_outcome(nta, symbol, h) for h in tracker_states}
