"""Interned DFA core: flat transition tables and int-encoded product spaces.

:class:`InternedDFA` maps a DFA's states and the symbols it stores moves
for to dense integers once; the transition function becomes one flat list
indexed by ``state * n_symbols + column`` with ``-1`` for undefined
transitions.  Symbols the automaton never reads get no column: a sparse
content DFA over a large schema alphabet interns only what its model
mentions.  A completed view (:meth:`~repro.strings.dfa.DFA.complete`) adds
one shared ``other`` column for every remaining alphabet symbol, and its
implicit sink fills every undefined slot — completion costs one column,
not ``|Σ|``.

The module-level functions implement the hot DFA operations on top of the
shared :class:`~repro.kernel.product.ProductBFS` engine and return plain
decoded components (state sets, transition dicts) so the public
:class:`~repro.strings.dfa.DFA` API can wrap them without this module
importing it back.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Hashable, List, Optional, Tuple

from repro.kernel.interning import Interner, iter_bits
from repro.kernel.product import ProductBFS

State = Hashable
Symbol = Hashable


class InternedDFA:
    """A DFA over dense integer states and symbol columns.

    ``table[q * n_symbols + a]`` is the successor state index or ``-1``;
    ``finals_mask`` is the bitmask of accepting state indices.  Columns
    ``0..len(symbols)-1`` are the symbols the automaton stores moves for;
    ``other`` is the extra column of a completed view (every other symbol
    of ``alphabet``, leading to the sink) or ``-1``.  Use :meth:`column`,
    not ``symbols``, to look a symbol up.
    """

    __slots__ = (
        "states",
        "symbols",
        "table",
        "initial",
        "finals_mask",
        "n_states",
        "n_symbols",
        "alphabet",
        "other",
        "aux",
    )

    def __init__(self, dfa) -> None:
        self.states: Interner = Interner.from_sorted(dfa.states)
        self.symbols: Interner = Interner.from_sorted(
            {symbol for (_src, symbol) in dfa.transitions}
        )
        self.alphabet: FrozenSet[Symbol] = dfa.alphabet
        state_index = self.states.index
        symbol_index = self.symbols.index
        n_states = self.n_states = len(self.states)
        if dfa.sink is None:
            self.other, fill = -1, -1
        else:
            self.other, fill = len(self.symbols), state_index(dfa.sink)
        n_symbols = self.n_symbols = len(self.symbols) + (self.other >= 0)
        table = [fill] * (n_states * n_symbols)
        for (src, symbol), tgt in dfa.transitions.items():
            table[state_index(src) * n_symbols + symbol_index(symbol)] = state_index(tgt)
        self.table: List[int] = table
        self.initial: int = state_index(dfa.initial)
        self.finals_mask: int = self.states.mask(dfa.finals)
        # Scratch space for client-layer memos tied to this kernel's
        # lifetime (e.g. the forward engine's useful-mask/child tables).
        self.aux: dict = {}

    # ------------------------------------------------------------------
    def column(self, symbol) -> int:
        """The table column of ``symbol``: its own, the ``other`` column
        for any further alphabet symbol of a completed view, else ``-1``
        (a foreign symbol: the run dies)."""
        index = self.symbols.get(symbol)
        if index < 0 and self.other >= 0 and symbol in self.alphabet:
            return self.other
        return index

    def step(self, state: int, symbol: int) -> int:
        """Single transition; ``-1`` is the dead configuration (absorbing)."""
        if state < 0:
            return -1
        return self.table[state * self.n_symbols + symbol]

    def run(self, word: Tuple[int, ...], start: int) -> int:
        """Extended transition function over interned symbols."""
        table = self.table
        n_symbols = self.n_symbols
        state = start
        for symbol in word:
            if state < 0:
                return -1
            state = table[state * n_symbols + symbol]
        return state

    def intern_word(self, word) -> Optional[Tuple[int, ...]]:
        """Column form of a symbol sequence; ``None`` if any symbol is
        foreign (a run on it necessarily dies)."""
        column = self.column
        out = []
        for symbol in word:
            index = column(symbol)
            if index < 0:
                return None
            out.append(index)
        return tuple(out)

    def is_final(self, state: int) -> bool:
        return state >= 0 and bool(self.finals_mask >> state & 1)

    def reachable(self) -> List[int]:
        """Indices of states reachable from the initial state (BFS order)."""
        table = self.table
        n_symbols = self.n_symbols
        seen = 1 << self.initial
        order = [self.initial]
        frontier = deque(order)
        while frontier:
            src = frontier.popleft()
            base = src * n_symbols
            for offset in range(n_symbols):
                tgt = table[base + offset]
                if tgt >= 0 and not seen >> tgt & 1:
                    seen |= 1 << tgt
                    order.append(tgt)
                    frontier.append(tgt)
        return order


# ----------------------------------------------------------------------
# Product (intersection-style) construction
# ----------------------------------------------------------------------
class PairInterner:
    """The state decoder of a product kernel: pair states, decoded lazily.

    The product BFS works entirely on packed codes ``l * n_right + r``;
    this decoder stores those codes plus the two factors' state
    *interners* — not their decoded values, so chaining products over lazy
    factors stays decode-free all the way down — and materializes the
    object pair ``(left_state, right_state)`` of an index only when someone
    asks for it.  Decode-only: a product is never looked up by object
    state.  Deliberately closure-free so kernel-backed products pickle
    (see :mod:`repro.kernel.serialize`).
    """

    __slots__ = ("_codes", "_left_states", "_right_states", "_n_right", "_decoded")

    def __init__(self, codes, left_states, right_states, n_right: int) -> None:
        self._codes: List[int] = list(codes)
        self._left_states = left_states  # Interner or PairInterner
        self._right_states = right_states
        self._n_right = n_right
        self._decoded: Dict[int, Tuple] = {}

    def value(self, index: int) -> Tuple:
        pair = self._decoded.get(index)
        if pair is None:
            l, r = divmod(self._codes[index], self._n_right)
            pair = (self._left_states.value(l), self._right_states.value(r))
            self._decoded[index] = pair
        return pair

    @property
    def values(self) -> Tuple:
        return tuple(self.value(i) for i in range(len(self._codes)))

    def unmask(self, mask: int) -> frozenset:
        return frozenset(self.value(i) for i in iter_bits(mask))

    def __len__(self) -> int:
        return len(self._codes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PairInterner({len(self._codes)} pair states)"


def product_kernel(left, right, finals: str = "both") -> InternedDFA:
    """The reachable product of two DFA-like objects as an interned DFA.

    Nothing is decoded: states are dense ints assigned in BFS discovery
    order (deterministic — symbols are iterated in repr-sorted order) and
    the pair objects materialize lazily through the :class:`PairInterner`.
    This is what makes small products cheap — the seed path spent its
    time building object dicts, not exploring the pair graph.
    """
    ileft: InternedDFA = left.kernel()
    iright: InternedDFA = right.kernel()
    alphabet = sorted(left.alphabet & right.alphabet, key=repr)
    shared = [(ileft.column(symbol), iright.column(symbol)) for symbol in alphabet]
    n_right = iright.n_states
    ltab, rtab = ileft.table, iright.table
    lns, rns = ileft.n_symbols, iright.n_symbols

    start = ileft.initial * n_right + iright.initial
    ids: Dict[int, int] = {start: 0}
    codes: List[int] = [start]
    table: List[int] = []
    frontier = deque((start,))
    while frontier:
        code = frontier.popleft()
        l, r = divmod(code, n_right)
        lbase = l * lns
        rbase = r * rns
        for ls, rs in shared:
            tl = ltab[lbase + ls] if ls >= 0 else -1
            tr = rtab[rbase + rs] if rs >= 0 and tl >= 0 else -1
            if tr < 0:
                table.append(-1)
                continue
            succ = tl * n_right + tr
            succ_id = ids.get(succ)
            if succ_id is None:
                succ_id = ids[succ] = len(codes)
                codes.append(succ)
                frontier.append(succ)
            table.append(succ_id)

    # BFS appended each popped node's row in pop (= id) order, so ``table``
    # is already the flat ``state * n_symbols + symbol`` layout.
    lf, rf = ileft.finals_mask, iright.finals_mask
    finals_mask = 0
    for index, code in enumerate(codes):
        l, r = divmod(code, n_right)
        l_final = bool(lf >> l & 1)
        r_final = bool(rf >> r & 1)
        if finals == "both":
            accept = l_final and r_final
        elif finals == "left":
            accept = l_final
        elif finals == "right":
            accept = r_final
        elif finals == "either":
            accept = l_final or r_final
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown finals mode {finals!r}")
        if accept:
            finals_mask |= 1 << index
    idfa = InternedDFA.__new__(InternedDFA)
    idfa.states = PairInterner(codes, ileft.states, iright.states, n_right)
    idfa.symbols = Interner(alphabet)
    idfa.alphabet = frozenset(alphabet)
    idfa.other = -1
    idfa.table = table
    idfa.initial = 0
    idfa.finals_mask = finals_mask
    idfa.n_states = len(codes)
    idfa.n_symbols = len(alphabet)
    idfa.aux = {}
    return idfa


# ----------------------------------------------------------------------
# Inclusion
# ----------------------------------------------------------------------
def contains_dfa(big, small) -> bool:
    """Whether ``L(small) ⊆ L(big)`` for two DFA-like objects.

    Explores the pair graph ``(small state, big state-or-dead)`` over the
    *small* automaton's columns, treating ``big`` as implicitly completed:
    the dead configuration is an absorbing non-final sink.  Early-exits on
    the first violating pair, so passing instances never materialize more
    of the product than needed.  A completed-view ``small`` reads its
    whole alphabet, so its symbols are grouped by the column pair they
    select rather than iterated one by one.
    """
    ibig: InternedDFA = big.kernel()
    ismall: InternedDFA = small.kernel()
    symbols = ismall.alphabet if ismall.other >= 0 else ismall.symbols.values
    # Distinct (small column, big column) pairs; -1 on the big side: the
    # symbol leaves ``big``'s alphabet.
    symbol_map = sorted({(ismall.column(s), ibig.column(s)) for s in symbols})
    nb = ibig.n_states + 1  # slot 0 encodes the dead big state
    stab, btab = ismall.table, ibig.table
    sns, bns = ismall.n_symbols, ibig.n_symbols
    sf, bf = ismall.finals_mask, ibig.finals_mask

    def violates(node: int) -> bool:
        s, b = divmod(node, nb)
        return bool(sf >> s & 1) and (b == 0 or not bf >> (b - 1) & 1)

    def successors(node: int):
        s, b = divmod(node, nb)
        sbase = s * sns
        for ssym, bsym in symbol_map:
            ts = stab[sbase + ssym]
            if ts < 0:
                continue
            if b == 0 or bsym < 0:
                tb = 0
            else:
                tb = btab[(b - 1) * bns + bsym] + 1
            yield ts * nb + tb, None

    engine = ProductBFS()
    seed = ismall.initial * nb + (ibig.initial + 1)
    return engine.run((seed,), successors, on_visit=violates) is None


def contains_nfa(big, small_nfa) -> bool:
    """Whether ``L(small_nfa) ⊆ L(big)`` for an NFA small side."""
    ibig: InternedDFA = big.kernel()
    ismall = small_nfa.kernel()
    symbol_map = [ibig.column(symbol) for symbol in ismall.symbols.values]
    nb = ibig.n_states + 1
    btab = ibig.table
    bns = ibig.n_symbols
    sf, bf = ismall.finals_mask, ibig.finals_mask
    rows = ismall.rows

    def violates(node: int) -> bool:
        s, b = divmod(node, nb)
        return bool(sf >> s & 1) and (b == 0 or not bf >> (b - 1) & 1)

    def successors(node: int):
        s, b = divmod(node, nb)
        for ssym, targets in rows[s]:
            bsym = symbol_map[ssym]
            if b == 0 or bsym < 0:
                tb = 0
            else:
                tb = btab[(b - 1) * bns + bsym] + 1
            for target in targets:
                yield target * nb + tb, None

    engine = ProductBFS()
    seeds = [s * nb + (ibig.initial + 1) for s in ismall.initial]
    return engine.run(seeds, successors, on_visit=violates) is None


# ----------------------------------------------------------------------
# Minimization (Moore partition refinement over int arrays)
# ----------------------------------------------------------------------
def minimal_components(dfa):
    """Minimal trim DFA components of a sink-free DFA-like object.

    Returns ``(states, transitions, initial, finals)`` over block-id
    states; the caller renumbers canonically.  Only live states —
    reachable and able to reach acceptance — are refined: every other
    state is the implicit dead block, so moves into it are simply absent.
    ``None`` when the language is empty.  States are numbered locally in
    BFS order (the throwaway input is never interned), and a signature
    is a state's block plus the set of its ``(symbol, target block)``
    moves into live blocks, so only stored moves are ever read.
    """
    rows: Dict[State, list] = {}
    for (src, symbol), tgt in dfa.transitions.items():
        rows.setdefault(src, []).append((symbol, tgt))
    order = [dfa.initial]
    index = {dfa.initial: 0}
    for q in order:  # grows while iterating: BFS numbering
        for _symbol, t in rows.get(q, ()):
            if t not in index:
                index[t] = len(order)
                order.append(t)
    moves = [[(a, index[t]) for a, t in rows.get(q, ())] for q in order]
    final = [q in dfa.finals for q in order]

    # Live states: backward search from the reachable finals.
    preds: List[List[int]] = [[] for _ in order]
    for i, row in enumerate(moves):
        for _symbol, t in row:
            preds[t].append(i)
    live = [i for i in range(len(order)) if final[i]]
    seen = set(live)
    for i in live:  # grows while iterating: a BFS over predecessors
        for p in preds[i]:
            if p not in seen:
                seen.add(p)
                live.append(p)
    if 0 not in seen:
        return None

    block = [-1] * len(order)  # -1: the implicit dead block
    for i in live:
        block[i] = 0 if final[i] else 1
    n_blocks = len({block[i] for i in live})
    while True:
        signatures: Dict[tuple, List[int]] = {}
        for i in live:
            sig = frozenset((a, block[t]) for a, t in moves[i] if block[t] >= 0)
            signatures.setdefault((block[i], sig), []).append(i)
        if len(signatures) == n_blocks:
            break
        n_blocks = len(signatures)
        for number, group in enumerate(signatures.values()):
            for i in group:
                block[i] = number

    transitions = {
        (block[i], a): block[t] for i in live for a, t in moves[i] if block[t] >= 0
    }
    finals = {block[i] for i in live if final[i]}
    return {block[i] for i in live}, transitions, block[0], finals
