"""Object-state reference implementations (the seed versions).

These are the pre-kernel implementations of the operations ported to
:mod:`repro.kernel`, preserved verbatim as the differential-testing and
benchmarking baseline: the property suites in ``tests/`` assert the
interned kernel agrees with them, and ``benchmarks/bench_kernel.py`` times
old vs new.  That includes the whole Lemma 14 forward fixpoint on object
states (:class:`ObjectForwardEngine`, :func:`typecheck_forward_object`).
No library module imports this one: production code has exactly one
forward evaluator, the interned :class:`~repro.core.forward.ForwardEngine`.

Do not "optimize" this module — its value is being the slow, obviously
faithful transcription of the paper's object-level pseudo-code.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Dict, FrozenSet, Hashable, List, Optional, Tuple

from repro.core.forward import ForwardEngine, Slot, TupleKey, _typecheck_with
from repro.core.problem import TypecheckResult
from repro.errors import BudgetExceededError
from repro.strings.dfa import DFA

State = Hashable
Symbol = Hashable


# ----------------------------------------------------------------------
# strings/dfa.py baselines
# ----------------------------------------------------------------------
def dfa_product_object(left, right, finals: str = "both"):
    """Seed ``DFA.product``: object-tuple BFS over the pair graph."""
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
    small_nfa = small.to_nfa() if isinstance(small, DFA) else small
    comp = big.complement(big.alphabet | small_nfa.alphabet)
    return small_nfa.product(comp.to_nfa()).is_empty()


def dfa_minimize_object(dfa):
    """``DFA.minimize`` on object dicts: Moore refinement of the completed
    automaton, then the dead block (states that cannot reach acceptance)
    dropped — the canonical minimal trim DFA."""
    completed = dfa.complete()
    nfa = completed.to_nfa()
    reachable = nfa.reachable_states()
    live = nfa.coreachable_states()
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
                tuple(block_of[completed.step(q, a)] for a in symbols),
            )
            signatures.setdefault(sig, []).append(q)
        if len(signatures) != num_blocks:
            changed = True
            num_blocks = len(signatures)
            for index, group in enumerate(signatures.values()):
                for q in group:
                    block_of[q] = index
    if completed.initial not in live:
        return DFA({0}, dfa.alphabet, {}, 0, set())
    dead = {block_of[q] for q in states if q not in live}
    transitions = {
        (block_of[q], a): block_of[completed.step(q, a)]
        for q in states
        for a in symbols
        if q in live and completed.step(q, a) in live
    }
    finals = {block_of[q] for q in states if q in completed.finals}
    return DFA(
        set(block_of.values()) - dead,
        dfa.alphabet,
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


# ----------------------------------------------------------------------
# core/forward.py baseline: the object-state Lemma 14 fixpoint
# ----------------------------------------------------------------------
class ObjectForwardEngine(ForwardEngine):
    """The seed forward fixpoint on object states — the oracle the interned
    :class:`~repro.core.forward.ForwardEngine` is differentially tested
    (and benchmarked) against.

    Same least fixpoint, computed the obvious way: per-σ cell keys (no
    σ-independent sharing), per-engine cells (nothing lives in the schema
    context or its table cache), object slot tuples, and a from-scratch
    product BFS per hedge-cell evaluation.
    """

    shares_schema_cells = False

    def key_for(self, sigma: str, symbol: str, P: Tuple[str, ...]) -> TupleKey:
        return (sigma, symbol, P)

    def _eval_tree(self, key: TupleKey) -> bool:
        sigma, b, P = key
        if b not in self.productive:
            return False
        deferred = self.deferred_tuple(P, b)
        hedge_key = (sigma, b, deferred)
        self._depend(("hedge", hedge_key), ("tree", key))
        entry = self.hedge_vals[hedge_key]
        dfa = self.out_dfa(sigma)
        table = self.tree_vals[key]
        grew = False
        for pi in entry.accepted:
            for tau in self._assemble(P, b, pi, dfa):
                if tau not in table:
                    table[tau] = pi
                    grew = True
        if len(table) > self.max_product_nodes:
            raise BudgetExceededError(
                f"behavior table for {key!r} exceeded "
                f"{self.max_product_nodes} tuples"
            )
        return grew

    def _assemble(
        self,
        P: Tuple[str, ...],
        b: str,
        pi: Tuple[Slot, ...],
        dfa: DFA,
    ):
        """All τ tuples derivable from hedge behavior π by chaining the rhs
        segments through the (complete) output DFA — the paper's step (4)."""
        per_component: List[List[Slot]] = []
        offset = 0
        for state in P:
            segments, defers = self.decomposition(state, b)
            k = len(defers)
            slots = pi[offset : offset + k]
            offset += k
            pairs: List[Slot] = []
            for start in dfa.states:
                x = dfa.run(segments[0], start=start)
                ok = True
                for j in range(k):
                    slot_start, slot_end = slots[j]
                    if slot_start != x:
                        ok = False
                        break
                    x = dfa.run(segments[j + 1], start=slot_end)
                if ok:
                    pairs.append((start, x))
            if not pairs:
                return
            per_component.append(pairs)
        yield from itertools.product(*per_component)

    def _eval_hedge(self, key: TupleKey) -> bool:
        sigma, a, P = key
        entry = self.hedge_vals[key]
        dfa_in, useful_in = self.schema.in_dfa_useful(a)
        dfa_out = self.out_dfa(sigma)
        m = len(P)

        # Child alphabet: productive symbols on transitions between useful
        # input-DFA states (dead/sink transitions spawn no work).
        children = sorted(
            {
                c
                for (state, c), target in dfa_in.transitions.items()
                if c in self.productive
                and state in useful_in
                and target in useful_in
            },
            key=repr,
        )
        # Index each child's τ table by the required entry-state vector so a
        # BFS node looks up exactly the matching behaviors instead of
        # scanning the whole table (the table is |Q_A|^{2m} in the worst
        # case; the index fans out by r-vectors only).
        child_index: Dict[str, Dict[Tuple, List[Tuple]]] = {}
        for c in children:
            child_key = (sigma, c, P)
            self._depend(("tree", child_key), ("hedge", key))
            index: Dict[Tuple, List[Tuple]] = {}
            for tau in self.tree_vals[child_key]:
                ells = tuple(ell for (ell, _r) in tau)
                index.setdefault(ells, []).append(tau)
            child_index[c] = index

        # Seed: every start vector, identity pairs.  The seed count
        # |Q_A|^m is the paper's |dout|^{2M} factor: guard it before looping
        # so super-polynomial instances fail fast instead of hanging.
        if len(dfa_out.states) ** m > self.max_product_nodes:
            raise BudgetExceededError(
                f"{len(dfa_out.states)}^{m} behavior seeds exceed the "
                f"product budget {self.max_product_nodes} — the instance "
                "sits outside the tractable (fixed C·K) regime"
            )
        # Object containers straight into the entry's (otherwise lazily
        # decoded) graph views; no decoder, no interned state.
        entry.decoder = None
        nodes, edges, seeds = entry._nodes, entry._edges, entry._seeds = (
            set(), [], set()
        )
        parents: Dict[Tuple, Optional[Tuple]] = {}
        frontier: deque = deque()
        for combo in itertools.product(sorted(dfa_out.states, key=repr), repeat=m):
            node = (dfa_in.initial, tuple((x, x) for x in combo))
            parents[node] = None
            frontier.append(node)
        nodes.update(parents)
        seeds.update(parents)

        grew = False

        def note_accept(node: Tuple) -> None:
            nonlocal grew
            d, pairs = node
            if d not in dfa_in.finals:
                return
            if pairs not in entry.accepted:
                # Materialize the witness word now: it references only
                # configurations that already exist (well-foundedness).
                word: List[Tuple[str, Tuple]] = []
                back = node
                while True:
                    step = parents[back]
                    if step is None:
                        break
                    back, c, tau = step
                    word.append((c, tau))
                word.reverse()
                entry.accepted[pairs] = tuple(word)
                grew = True

        for node in list(frontier):
            note_accept(node)
        while frontier:
            node = frontier.popleft()
            d, pairs = node
            currents = tuple(current for (_start, current) in pairs)
            for c in children:
                d2 = dfa_in.transitions.get((d, c))
                if d2 is None or d2 not in useful_in:
                    continue
                for tau in child_index[c].get(currents, ()):
                    new_pairs = tuple(
                        (slot[0], r) for slot, (_ell, r) in zip(pairs, tau)
                    )
                    successor = (d2, new_pairs)
                    edges.append((node, c, tau, successor))
                    if successor not in parents:
                        parents[successor] = (node, c, tau)
                        nodes.add(successor)
                        if len(parents) > self.max_product_nodes:
                            raise BudgetExceededError(
                                "hedge product exceeded "
                                f"{self.max_product_nodes} nodes"
                            )
                        note_accept(successor)
                        frontier.append(successor)
        self.work += len(parents)
        return grew


def typecheck_forward_object(
    transducer,
    din,
    dout,
    max_tuple: Optional[int] = None,
    max_product_nodes: int = 500_000,
    want_counterexample: bool = True,
    schema=None,
) -> TypecheckResult:
    """:func:`~repro.core.forward.typecheck_forward` with the fixpoint run
    by :class:`ObjectForwardEngine` (same preamble, root-check scan and
    counterexample construction; ``stats["engine"] == "object"``)."""
    result = _typecheck_with(
        ObjectForwardEngine, transducer, din, dout, max_tuple,
        max_product_nodes, want_counterexample, schema,
    )
    result.stats["engine"] = "object"
    return result
