"""Interned NTA emptiness — Proposition 4(2,3) on bitmasks.

The seed implementation re-scanned every ``δ(q, a)`` entry per fixpoint
round and re-ran a frozenset-based BFS for each.  Here the productive set
lives in per-horizontal-NFA *bitmasks* that are updated incrementally: when
a state ``q`` becomes productive, only the rules whose horizontal alphabet
mentions ``q`` are re-enqueued.  Shortest-word searches run on
:class:`~repro.kernel.nfa_kernel.InternedNFA` via the shared
:class:`~repro.kernel.product.ProductBFS` engine.

Witness bookkeeping matches the seed contract: ``witness[q] = (a, w)`` with
``w`` mentioning only states that entered the productive set strictly
earlier, so the witness DAG stays acyclic and
:func:`repro.tree_automata.emptiness.witness_dag` works unchanged.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Hashable, List, Tuple

State = Hashable


def productive_states(nta) -> Tuple[FrozenSet[State], Dict[State, Tuple[str, Tuple[State, ...]]]]:
    """States accepting at least one tree, with per-state witnesses.

    Drop-in replacement for the seed object-state fixpoint (retained as
    :func:`repro.kernel.reference.productive_states_object`).
    """
    rules = []  # (lhs state, symbol, InternedNFA)
    occurrences: Dict[State, List[Tuple[int, int]]] = {}
    for (state, symbol), nfa in nta.delta.items():
        infa = nfa.kernel()
        rule_id = len(rules)
        rules.append((state, symbol, infa))
        # The kernel interns only symbols that label a transition, so a
        # state turning productive re-enqueues exactly the rules that can
        # *read* it.
        for index, read in enumerate(infa.symbols):
            occurrences.setdefault(read, []).append((rule_id, index))

    allowed = [0] * len(rules)
    productive: set = set()
    witness: Dict[State, Tuple[str, Tuple[State, ...]]] = {}
    pending = deque(range(len(rules)))
    queued = [True] * len(rules)
    while pending:
        rule_id = pending.popleft()
        queued[rule_id] = False
        state, symbol, infa = rules[rule_id]
        if state in productive:
            continue
        word = infa.some_word_ints(allowed[rule_id])
        if word is None:
            continue
        value = infa.symbols.value
        productive.add(state)
        witness[state] = (symbol, tuple(value(index) for index in word))
        # Unlock every rule whose horizontal alphabet mentions the new state.
        for other_id, symbol_index in occurrences.get(state, ()):
            allowed[other_id] |= 1 << symbol_index
            other_state = rules[other_id][0]
            if other_state not in productive and not queued[other_id]:
                queued[other_id] = True
                pending.append(other_id)
    return frozenset(productive), witness


def is_empty(nta) -> bool:
    """Whether ``L(A) = ∅`` (Proposition 4(2)) on the interned kernel."""
    productive, _ = productive_states(nta)
    return not (productive & nta.finals)


def productive_pairs(left, right) -> Dict[State, Dict[State, None]]:
    """The productive states of the product ``left × right``, bottom-up.

    Proposition 4(2)'s fixpoint run on the product without building it: a
    rule pair ``((p, a), (q, a))`` is checked only when a pair it can read
    turns productive (or, initially, when both sides accept ε), and its
    check is the horizontal pair product restricted to productive pairs
    (:func:`repro.kernel.nfa_kernel.pair_product_accepts`).  Returns the
    productive pairs as ``partners``: ``p -> {q | (p, q) productive}``,
    the inner dicts being ordered sets in discovery order (so products
    and their witnesses do not depend on hash randomization).
    """
    from repro.kernel.nfa_kernel import pair_product_accepts

    def index(nta):
        """Rules, rule ids per symbol, and ``state -> symbol -> groups`` of
        the rules that can read ``state``.  Rules sharing one transition
        table (:meth:`~repro.strings.nfa.NFA.with_endpoints`) read the
        same states and form one group, indexed once."""
        rules = []  # (lhs state, horizontal NFA)
        by_symbol: Dict[str, List[int]] = {}
        groups: Dict[Tuple[str, int], List[int]] = {}
        reads: Dict[State, Dict[str, List[List[int]]]] = {}
        for (state, symbol), nfa in nta.delta.items():
            rule_id = len(rules)
            rules.append((state, nfa))
            by_symbol.setdefault(symbol, []).append(rule_id)
            key = (symbol, id(nfa.transitions))
            group = groups.get(key)
            if group is None:
                group = groups[key] = []
                for read in {read for row in nfa.transitions.values() for read in row}:
                    reads.setdefault(read, {}).setdefault(symbol, []).append(group)
            group.append(rule_id)
        return rules, by_symbol, reads

    lrules, lby_symbol, lreads = index(left)
    rrules, rby_symbol, rreads = index(right)
    partners: Dict[State, Dict[State, None]] = {}
    pending: deque = deque()
    queued: set = set()

    def accepts_epsilon(nfa) -> bool:
        return not nfa.initial.isdisjoint(nfa.finals)

    for symbol, lids in lby_symbol.items():
        rids = [j for j in rby_symbol.get(symbol, ()) if accepts_epsilon(rrules[j][1])]
        if not rids:
            continue
        for i in lids:
            if accepts_epsilon(lrules[i][1]):
                for j in rids:
                    queued.add((i, j))
                    pending.append((i, j))

    while pending:
        rule_pair = pending.popleft()
        queued.discard(rule_pair)
        i, j = rule_pair
        (p, left_nfa), (q, right_nfa) = lrules[i], rrules[j]
        if q in partners.get(p, ()):
            continue
        if not pair_product_accepts(left_nfa, right_nfa, partners):
            continue
        partners.setdefault(p, {})[q] = None
        # Wake every rule pair that can read the new pair (p, q).
        right_reads = rreads.get(q)
        if not right_reads:
            continue
        for symbol, lgroups in lreads.get(p, {}).items():
            rgroups = right_reads.get(symbol)
            if not rgroups:
                continue
            rids = [j for group in rgroups for j in group]
            for i2 in (i for group in lgroups for i in group):
                done = partners.get(lrules[i2][0], ())
                for j2 in rids:
                    if rrules[j2][0] in done or (i2, j2) in queued:
                        continue
                    queued.add((i2, j2))
                    pending.append((i2, j2))
    return partners
