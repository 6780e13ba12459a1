"""Interned NFA core: per-state transition rows over dense integers.

:class:`InternedNFA` is the nondeterministic sibling of
:class:`~repro.kernel.dfa_kernel.InternedDFA`: states and symbols become
dense ints, transition rows become tuples ``(symbol, targets)`` of ints, and
symbol-restricted queries (``some_word`` over a productive subset, the
Fig. A.1 emptiness tests) take the allowed set as a *bitmask* instead of a
frozenset, so the inner loops are pure integer arithmetic.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, List, Optional, Tuple

from repro.kernel.interning import Interner
from repro.kernel.product import ProductBFS

State = Hashable
Symbol = Hashable


class InternedNFA:
    """An ε-free NFA over dense integer states and symbols.

    ``rows[q]`` is a tuple of ``(symbol_index, targets_tuple)`` pairs;
    ``initial`` is a tuple of state indices and ``finals_mask`` a bitmask.
    """

    __slots__ = ("states", "symbols", "rows", "initial", "finals_mask", "n_states")

    def __init__(self, nfa) -> None:
        self.states: Interner = Interner.from_sorted(nfa.states)
        # Only symbols that label a transition are interned: an unread
        # symbol occurs in no accepted word, and horizontal automata of
        # tree-automaton constructions declare alphabets (whole state sets)
        # far larger than what they read.  A sorted subset keeps relative
        # order, so shortest-word tie-breaks are those of the full alphabet.
        self.symbols: Interner = Interner.from_sorted(
            {symbol for row in nfa.transitions.values() for symbol in row}
        )
        self.n_states = len(self.states)
        state_index = self.states.index
        symbol_index = self.symbols.index
        rows: List[Tuple[Tuple[int, Tuple[int, ...]], ...]] = [()] * self.n_states
        for src, row in nfa.transitions.items():
            rows[state_index(src)] = tuple(
                sorted(
                    (
                        symbol_index(symbol),
                        tuple(sorted(state_index(t) for t in targets)),
                    )
                    for symbol, targets in row.items()
                )
            )
        self.rows = rows
        self._set_endpoints(nfa.initial, nfa.finals)

    def _set_endpoints(self, initial, finals) -> None:
        state_index = self.states.index
        self.initial: Tuple[int, ...] = tuple(sorted(state_index(q) for q in initial))
        self.finals_mask: int = self.states.mask(finals)

    def with_endpoints(self, initial, finals) -> "InternedNFA":
        """The same interned graph with other initial and final states
        (interners and rows are shared, not rebuilt)."""
        derived = InternedNFA.__new__(InternedNFA)
        derived.states, derived.symbols = self.states, self.symbols
        derived.rows, derived.n_states = self.rows, self.n_states
        derived._set_endpoints(initial, finals)
        return derived

    # ------------------------------------------------------------------
    def allowed_mask(self, symbols=None) -> int:
        """Bitmask over *symbol* indices for a symbol restriction
        (``None``: everything)."""
        if symbols is None:
            return (1 << len(self.symbols)) - 1
        return self.symbols.mask(symbols)

    def some_word_ints(self, allowed: Optional[int] = None) -> Optional[Tuple[int, ...]]:
        """A shortest accepted word (as symbol indices) using only symbols
        whose bit is set in ``allowed``, or ``None`` when none exists."""
        finals_mask = self.finals_mask
        rows = self.rows
        unrestricted = allowed is None

        def accepting(state: int) -> bool:
            return bool(finals_mask >> state & 1)

        def successors(state: int):
            for symbol, targets in rows[state]:
                if unrestricted or allowed >> symbol & 1:
                    for target in targets:
                        yield target, symbol

        engine = ProductBFS()
        hit = engine.run(self.initial, successors, on_visit=accepting)
        if hit is None:
            return None
        return tuple(engine.path(hit))

    def some_word(self, symbols=None) -> Optional[Tuple[Symbol, ...]]:
        """A shortest accepted word over ``symbols``, decoded."""
        allowed = None if symbols is None else self.allowed_mask(symbols)
        word = self.some_word_ints(allowed)
        if word is None:
            return None
        value = self.symbols.value
        return tuple(value(symbol) for symbol in word)

    def is_empty(self, allowed: Optional[int] = None) -> bool:
        """Whether no word over the ``allowed`` symbol mask is accepted."""
        return self.reachable_mask(allowed) & self.finals_mask == 0

    def reachable_mask(self, allowed: Optional[int] = None) -> int:
        """Bitmask of states reachable from the initial states."""
        rows = self.rows
        unrestricted = allowed is None
        seen = 0
        for q in self.initial:
            seen |= 1 << q
        frontier = deque(self.initial)
        while frontier:
            src = frontier.popleft()
            for symbol, targets in rows[src]:
                if unrestricted or allowed >> symbol & 1:
                    for target in targets:
                        if not seen >> target & 1:
                            seen |= 1 << target
                            frontier.append(target)
        return seen

    def coreachable_mask(self, allowed: Optional[int] = None) -> int:
        """Bitmask of states from which a final state is reachable."""
        unrestricted = allowed is None
        predecessors: List[List[int]] = [[] for _ in range(self.n_states)]
        for src, row in enumerate(self.rows):
            for symbol, targets in row:
                if unrestricted or allowed >> symbol & 1:
                    for target in targets:
                        predecessors[target].append(src)
        seen = self.finals_mask
        frontier = deque(i for i in range(self.n_states) if seen >> i & 1)
        while frontier:
            node = frontier.popleft()
            for pred in predecessors[node]:
                if not seen >> pred & 1:
                    seen |= 1 << pred
                    frontier.append(pred)
        return seen


# ----------------------------------------------------------------------
# Horizontal pair products (tree-automaton intersection)
# ----------------------------------------------------------------------
def _pair_successors(ileft: InternedNFA, iright: InternedNFA, partners):
    """Successor function of the pair product of two interned NFAs.

    Nodes are packed ints ``l * n_right + r``; edge labels are symbol-index
    pairs ``(u, v)``.  Only the symbol pairs ``partners`` lists are read
    (a mapping ``left symbol -> collection of right symbols``).
    """
    n_right = iright.n_states
    lrows, rrows = ileft.rows, iright.rows
    lsym, rsym = ileft.symbols.values, iright.symbols.values

    def successors(node: int):
        l, r = divmod(node, n_right)
        row_r = rrows[r]
        if not row_r:
            return
        for u, targets_l in lrows[l]:
            allowed = partners.get(lsym[u])
            if not allowed:
                continue
            for v, targets_r in row_r:
                if rsym[v] not in allowed:
                    continue
                label = (u, v)
                for tl in targets_l:
                    base = tl * n_right
                    for tr in targets_r:
                        yield base + tr, label

    return successors


def pair_product_accepts(left, right, partners) -> bool:
    """Whether the pair product of ``left`` and ``right`` (restricted to
    the symbol pairs in ``partners``, see :func:`_pair_successors`) accepts
    some word; stops at the first accepting pair."""
    ileft: InternedNFA = left.kernel()
    iright: InternedNFA = right.kernel()
    n_right = iright.n_states
    lf, rf = ileft.finals_mask, iright.finals_mask

    def accepting(node: int) -> bool:
        l, r = divmod(node, n_right)
        return bool(lf >> l & 1 and rf >> r & 1)

    seeds = [l * n_right + r for l in ileft.initial for r in iright.initial]
    engine = ProductBFS()
    return engine.run(seeds, _pair_successors(ileft, iright, partners), accepting) is not None


def pair_product_components(left, right, partners):
    """Reachable pair product reading *pairs* of symbols — the horizontal
    language of a product tree automaton (see
    :func:`repro.tree_automata.ops.intersect`).

    Only the symbol pairs ``partners`` lists are read (see
    :func:`_pair_successors`).  Returns ``(states, table, initial, finals,
    alphabet)`` decoded to the seed's pair-tuple representation; the
    alphabet is the set of symbol pairs the product actually reads.
    """
    ileft: InternedNFA = left.kernel()
    iright: InternedNFA = right.kernel()
    n_right = iright.n_states
    step = _pair_successors(ileft, iright, partners)
    edges: Dict[int, Dict[Tuple[int, int], set]] = {}

    def successors(node: int):
        row = None
        for succ, label in step(node):
            if row is None:
                row = edges.setdefault(node, {})
            row.setdefault(label, set()).add(succ)
            yield succ, label

    engine = ProductBFS()
    seeds = [l * n_right + r for l in ileft.initial for r in iright.initial]
    engine.run(seeds, successors)

    lvalue, rvalue = ileft.states.value, iright.states.value
    lsym, rsym = ileft.symbols.values, iright.symbols.values

    def decode(node: int) -> Tuple[State, State]:
        l, r = divmod(node, n_right)
        return (lvalue(l), rvalue(r))

    table: Dict[Tuple, Dict[Tuple, set]] = {}
    alphabet = set()
    for node, row in edges.items():
        row_out = table[decode(node)] = {}
        for (u, v), targets in row.items():
            symbol = (lsym[u], rsym[v])
            alphabet.add(symbol)
            row_out[symbol] = {decode(t) for t in targets}
    states = {decode(node) for node in engine.parents}
    lf, rf = ileft.finals_mask, iright.finals_mask
    finals = {
        decode(node)
        for node in engine.parents
        if lf >> (node // n_right) & 1 and rf >> (node % n_right) & 1
    }
    initial = {decode(node) for node in seeds}
    return states, table, initial, finals, alphabet
