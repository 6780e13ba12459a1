"""Nondeterministic finite automata over arbitrary hashable symbols.

The definition follows Section 2 of the paper: an NFA is a tuple
``(Q, Σ, δ, I, F)`` with ``δ : Q × Σ → 2^Q``.  There are no ε-transitions —
the constructions of the paper never need them and their absence keeps runs
and products simple.

States and symbols may be *any* hashable Python values; the tree-automaton
layer exploits this by using tree-automaton states (tuples) as the alphabet
of horizontal languages.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    Mapping,
    Sequence,
    Tuple,
    TYPE_CHECKING,
)

from repro.errors import InvalidSchemaError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.strings.dfa import DFA

State = Hashable
Symbol = Hashable
TransitionMap = Mapping[State, Mapping[Symbol, Iterable[State]]]


class NFA:
    """An ε-free nondeterministic finite automaton.

    Parameters
    ----------
    states:
        Finite set of states.
    alphabet:
        Finite set of symbols.  Words may only use these symbols; reading a
        foreign symbol simply leads to the empty state set (rejection).
    transitions:
        Nested mapping ``state -> symbol -> iterable of successor states``.
        Missing entries denote the empty successor set.
    initial:
        Set of initial states.
    finals:
        Set of accepting states.
    """

    __slots__ = (
        "states", "alphabet", "transitions", "initial", "finals",
        "_hash", "_kernel", "_useful", "_content_hash",
    )

    def __init__(
        self,
        states: Iterable[State],
        alphabet: Iterable[Symbol],
        transitions: TransitionMap,
        initial: Iterable[State],
        finals: Iterable[State],
    ) -> None:
        self.states: FrozenSet[State] = frozenset(states)
        self.alphabet: FrozenSet[Symbol] = frozenset(alphabet)
        table: Dict[State, Dict[Symbol, FrozenSet[State]]] = {}
        for src, by_symbol in transitions.items():
            if src not in self.states:
                raise InvalidSchemaError(f"transition from unknown state {src!r}")
            row: Dict[Symbol, FrozenSet[State]] = {}
            for symbol, targets in by_symbol.items():
                target_set = frozenset(targets)
                if not target_set:
                    continue
                if symbol not in self.alphabet:
                    raise InvalidSchemaError(f"transition on unknown symbol {symbol!r}")
                if not target_set <= self.states:
                    raise InvalidSchemaError(
                        f"transition to unknown state(s) {target_set - self.states!r}"
                    )
                row[symbol] = target_set
            if row:
                table[src] = row
        self.transitions: Dict[State, Dict[Symbol, FrozenSet[State]]] = table
        self.initial: FrozenSet[State] = frozenset(initial)
        self.finals: FrozenSet[State] = frozenset(finals)
        if not self.initial <= self.states:
            raise InvalidSchemaError("initial states must be states")
        if not self.finals <= self.states:
            raise InvalidSchemaError("final states must be states")
        self._hash: int | None = None
        self._kernel = None
        self._useful: FrozenSet[State] | None = None
        self._content_hash: str | None = None

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"NFA(|Q|={len(self.states)}, |Σ|={len(self.alphabet)}, "
            f"|I|={len(self.initial)}, |F|={len(self.finals)})"
        )

    def kernel(self):
        """The interned-integer view of this automaton (cached; the NFA is
        immutable, so the kernel form is computed at most once)."""
        kernel = self._kernel
        if kernel is None:
            from repro.kernel.nfa_kernel import InternedNFA

            kernel = self._kernel = InternedNFA(self)
        elif isinstance(kernel, NFA):
            # Made by ``with_endpoints``: derive from the source graph's kernel.
            kernel = self._kernel = kernel.kernel().with_endpoints(
                self.initial, self.finals
            )
        return kernel

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NFA):
            return NotImplemented
        return (
            self.states == other.states
            and self.alphabet == other.alphabet
            and self.transitions == other.transitions
            and self.initial == other.initial
            and self.finals == other.finals
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (
                    self.states,
                    self.alphabet,
                    self.initial,
                    self.finals,
                    frozenset(
                        (src, sym, tgts)
                        for src, row in self.transitions.items()
                        for sym, tgts in row.items()
                    ),
                )
            )
        return self._hash

    @property
    def size(self) -> int:
        """Size measure used by the paper: ``|Q| + |Σ| + Σ |δ(q, a)|``."""
        return (
            len(self.states)
            + len(self.alphabet)
            + sum(len(tgts) for row in self.transitions.values() for tgts in row.values())
        )

    def content_hash(self) -> str:
        """Stable representation digest (see :meth:`DFA.content_hash`)."""
        if self._content_hash is None:
            from repro.util import stable_digest

            rows = sorted(
                (
                    (repr(src), repr(sym), repr(sorted(tgts, key=repr)))
                    for src, row in self.transitions.items()
                    for sym, tgts in row.items()
                ),
            )
            self._content_hash = stable_digest(
                "nfa",
                repr(sorted(self.states, key=repr)),
                repr(sorted(self.alphabet, key=repr)),
                repr(rows),
                repr(sorted(self.initial, key=repr)),
                repr(sorted(self.finals, key=repr)),
            )
        return self._content_hash

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def from_word(word: Sequence[Symbol], alphabet: Iterable[Symbol] = ()) -> "NFA":
        """An NFA accepting exactly ``word``."""
        sigma = set(alphabet) | set(word)
        states = list(range(len(word) + 1))
        transitions = {i: {word[i]: {i + 1}} for i in range(len(word))}
        return NFA(states, sigma, transitions, {0}, {len(word)})

    @staticmethod
    def empty_language(alphabet: Iterable[Symbol]) -> "NFA":
        """An NFA accepting the empty language."""
        return NFA({0}, alphabet, {}, {0}, set())

    @staticmethod
    def epsilon_language(alphabet: Iterable[Symbol]) -> "NFA":
        """An NFA accepting exactly the empty word."""
        return NFA({0}, alphabet, {}, {0}, {0})

    @staticmethod
    def universal(alphabet: Iterable[Symbol]) -> "NFA":
        """An NFA accepting every word over ``alphabet``."""
        sigma = frozenset(alphabet)
        return NFA({0}, sigma, {0: {a: {0} for a in sigma}}, {0}, {0})

    def map_symbols(self, mapping: Callable[[Symbol], Symbol]) -> "NFA":
        """Relabel the alphabet through ``mapping`` (must stay functional)."""
        new_alphabet = {mapping(a) for a in self.alphabet}
        table: Dict[State, Dict[Symbol, set]] = {}
        for src, row in self.transitions.items():
            new_row: Dict[Symbol, set] = {}
            for symbol, tgts in row.items():
                new_row.setdefault(mapping(symbol), set()).update(tgts)
            table[src] = new_row
        return NFA(self.states, new_alphabet, table, self.initial, self.finals)

    def map_states(self, mapping: Callable[[State], State]) -> "NFA":
        """Rename states through an injective ``mapping``."""
        table = {
            mapping(src): {sym: {mapping(t) for t in tgts} for sym, tgts in row.items()}
            for src, row in self.transitions.items()
        }
        return NFA(
            {mapping(q) for q in self.states},
            self.alphabet,
            table,
            {mapping(q) for q in self.initial},
            {mapping(q) for q in self.finals},
        )

    def with_alphabet(self, alphabet: Iterable[Symbol]) -> "NFA":
        """The same automaton over a (larger) alphabet — a view sharing the
        transition table and kernel graph (see :meth:`with_endpoints`)."""
        sigma = frozenset(alphabet)
        if not self.alphabet <= sigma:
            raise InvalidSchemaError("new alphabet must contain the old one")
        nfa = self.with_endpoints(self.initial, self.finals)
        nfa.alphabet = sigma
        return nfa

    def with_endpoints(self, initial: Iterable[State], finals: Iterable[State]) -> "NFA":
        """The same transition graph with other initial and final states.

        The validated transition table is shared, not copied (automata are
        immutable), and so is the interned kernel's graph: deriving many
        automata from one graph is cheap.
        """
        nfa = NFA(self.states, self.alphabet, {}, initial, finals)
        nfa.transitions = self.transitions
        nfa._kernel = self  # resolved by kernel() on first use
        return nfa

    # ------------------------------------------------------------------
    # Runs
    # ------------------------------------------------------------------
    def step(self, sources: Iterable[State], symbol: Symbol) -> FrozenSet[State]:
        """Set of states reachable from ``sources`` by reading ``symbol``."""
        out: set = set()
        for src in sources:
            row = self.transitions.get(src)
            if row:
                out.update(row.get(symbol, ()))
        return frozenset(out)

    def run(self, word: Iterable[Symbol]) -> FrozenSet[State]:
        """Set of states reachable from the initial states on ``word``."""
        current: FrozenSet[State] = self.initial
        for symbol in word:
            if not current:
                break
            current = self.step(current, symbol)
        return current

    def accepts(self, word: Iterable[Symbol]) -> bool:
        """Whether the automaton accepts ``word``."""
        return bool(self.run(word) & self.finals)

    # ------------------------------------------------------------------
    # Reachability and language queries
    # ------------------------------------------------------------------
    def reachable_states(self, symbols: Iterable[Symbol] | None = None) -> FrozenSet[State]:
        """States reachable from the initial states, optionally restricted to
        transitions labeled by ``symbols``."""
        allowed = self.alphabet if symbols is None else frozenset(symbols)
        seen: set = set(self.initial)
        frontier = deque(self.initial)
        while frontier:
            src = frontier.popleft()
            row = self.transitions.get(src)
            if not row:
                continue
            for symbol, tgts in row.items():
                if symbol not in allowed:
                    continue
                for tgt in tgts:
                    if tgt not in seen:
                        seen.add(tgt)
                        frontier.append(tgt)
        return frozenset(seen)

    def coreachable_states(self, symbols: Iterable[Symbol] | None = None) -> FrozenSet[State]:
        """States from which a final state is reachable, optionally restricted
        to transitions labeled by ``symbols``."""
        allowed = self.alphabet if symbols is None else frozenset(symbols)
        predecessors: Dict[State, set] = {}
        for src, row in self.transitions.items():
            for symbol, tgts in row.items():
                if symbol not in allowed:
                    continue
                for tgt in tgts:
                    predecessors.setdefault(tgt, set()).add(src)
        seen: set = set(self.finals)
        frontier = deque(self.finals)
        while frontier:
            node = frontier.popleft()
            for pred in predecessors.get(node, ()):
                if pred not in seen:
                    seen.add(pred)
                    frontier.append(pred)
        return frozenset(seen)

    def is_empty(self, symbols: Iterable[Symbol] | None = None) -> bool:
        """Whether no word (over ``symbols`` if given) is accepted.

        This is the test ``δ(q, a) ∩ R* = ∅`` needed by the emptiness
        algorithm of Fig. A.1, with ``R = symbols``.
        """
        return not (self.reachable_states(symbols) & self.finals)

    def some_word(self, symbols: Iterable[Symbol] | None = None) -> Tuple[Symbol, ...] | None:
        """A shortest accepted word over ``symbols``, or ``None`` if empty."""
        allowed = self.alphabet if symbols is None else frozenset(symbols)
        if self.initial & self.finals:
            return ()
        parent: Dict[State, Tuple[State, Symbol]] = {}
        seen: set = set(self.initial)
        frontier = deque(self.initial)
        hit: State | None = None
        while frontier and hit is None:
            src = frontier.popleft()
            row = self.transitions.get(src)
            if not row:
                continue
            for symbol, tgts in row.items():
                if symbol not in allowed:
                    continue
                for tgt in tgts:
                    if tgt in seen:
                        continue
                    seen.add(tgt)
                    parent[tgt] = (src, symbol)
                    if tgt in self.finals:
                        hit = tgt
                        break
                    frontier.append(tgt)
                if hit is not None:
                    break
        if hit is None:
            return None
        word: list = []
        node = hit
        while node not in self.initial or node in parent:
            if node not in parent:
                break
            node, symbol = parent[node]
            word.append(symbol)
        word.reverse()
        return tuple(word)

    def used_symbols(self, symbols: Iterable[Symbol] | None = None) -> FrozenSet[Symbol]:
        """Symbols that occur in at least one accepted word (over ``symbols``).

        A symbol ``b`` occurs in an accepted word iff some ``b``-transition
        connects a reachable state to a coreachable state (both computed in
        the restricted automaton).
        """
        allowed = self.alphabet if symbols is None else frozenset(symbols)
        reach = self.reachable_states(allowed)
        coreach = self.coreachable_states(allowed)
        used: set = set()
        for src, row in self.transitions.items():
            if src not in reach:
                continue
            for symbol, tgts in row.items():
                if symbol in allowed and symbol not in used and tgts & coreach:
                    used.add(symbol)
        return frozenset(used)

    def accepts_finitely_many(self, symbols: Iterable[Symbol] | None = None) -> bool:
        """Whether the language (restricted to ``symbols``) is finite.

        The language is infinite iff some useful state (reachable and
        coreachable) lies on a cycle of useful states.
        """
        allowed = self.alphabet if symbols is None else frozenset(symbols)
        useful = self.reachable_states(allowed) & self.coreachable_states(allowed)
        graph: Dict[State, set] = {q: set() for q in useful}
        for src, row in self.transitions.items():
            if src not in useful:
                continue
            for symbol, tgts in row.items():
                if symbol not in allowed:
                    continue
                graph[src].update(t for t in tgts if t in useful)
        from repro.util import has_cycle

        return not has_cycle(graph)

    def useful_states(self) -> FrozenSet[State]:
        """Reachable-and-coreachable states over the full alphabet (cached;
        the automaton is immutable)."""
        if self._useful is None:
            self._useful = self.reachable_states() & self.coreachable_states()
        return self._useful

    def trim(self) -> "NFA":
        """Restrict to useful (reachable and coreachable) states."""
        useful = self.useful_states()
        table = {
            src: {
                sym: tgts & useful
                for sym, tgts in row.items()
                if tgts & useful
            }
            for src, row in self.transitions.items()
            if src in useful
        }
        if not useful:
            return NFA.empty_language(self.alphabet)
        return NFA(
            useful,
            self.alphabet,
            table,
            self.initial & useful,
            self.finals & useful,
        )

    def iter_words(self, max_length: int) -> Iterator[Tuple[Symbol, ...]]:
        """Enumerate all accepted words of length at most ``max_length``.

        Used by the brute-force typechecking oracle; exponential in general.
        """
        order = sorted(self.alphabet, key=repr)
        queue: deque[tuple[Tuple[Symbol, ...], FrozenSet[State]]] = deque()
        queue.append(((), self.initial))
        while queue:
            word, states = queue.popleft()
            if states & self.finals:
                yield word
            if len(word) >= max_length:
                continue
            for symbol in order:
                nxt = self.step(states, symbol)
                if nxt:
                    queue.append((word + (symbol,), nxt))

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def product(self, other: "NFA") -> "NFA":
        """Intersection automaton (classic product), over the shared alphabet."""
        alphabet = self.alphabet & other.alphabet
        initial = {(p, q) for p in self.initial for q in other.initial}
        states: set = set(initial)
        table: Dict[State, Dict[Symbol, set]] = {}
        frontier = deque(initial)
        while frontier:
            pair = frontier.popleft()
            p, q = pair
            row_p = self.transitions.get(p, {})
            row_q = other.transitions.get(q, {})
            if not row_p or not row_q:
                continue
            for symbol in row_p.keys() & row_q.keys():
                if symbol not in alphabet:
                    continue
                for tp in row_p[symbol]:
                    for tq in row_q[symbol]:
                        target = (tp, tq)
                        table.setdefault(pair, {}).setdefault(symbol, set()).add(target)
                        if target not in states:
                            states.add(target)
                            frontier.append(target)
        finals = {
            (p, q) for (p, q) in states if p in self.finals and q in other.finals
        }
        if not states:
            return NFA.empty_language(alphabet)
        return NFA(states, alphabet, table, initial, finals)

    def union(self, other: "NFA") -> "NFA":
        """Disjoint-union automaton accepting ``L(self) ∪ L(other)``."""
        alphabet = self.alphabet | other.alphabet
        left = self.map_states(lambda q: (0, q))
        right = other.map_states(lambda q: (1, q))
        table: Dict[State, Dict[Symbol, FrozenSet[State]]] = {}
        table.update(left.transitions)
        table.update(right.transitions)
        return NFA(
            left.states | right.states,
            alphabet,
            table,
            left.initial | right.initial,
            left.finals | right.finals,
        )

    def determinize(self) -> "DFA":
        """Subset construction over the symbols the subsets read (a move
        no subset state has stays undefined: no empty subset, and no cost
        per alphabet symbol).  Exponential in the worst case."""
        from repro.strings.dfa import DFA

        table = self.transitions
        start = self.initial
        states: set = {start}
        transitions: Dict[Tuple[FrozenSet[State], Symbol], FrozenSet[State]] = {}
        frontier = deque([start])
        while frontier:
            subset = frontier.popleft()
            moves: Dict[Symbol, set] = {}
            for q in subset:
                for symbol, tgts in table.get(q, {}).items():
                    moves.setdefault(symbol, set()).update(tgts)
            for symbol, tgts in moves.items():
                target = frozenset(tgts)
                transitions[(subset, symbol)] = target
                if target not in states:
                    states.add(target)
                    frontier.append(target)
        finals = {subset for subset in states if subset & self.finals}
        return DFA._trusted(states, self.alphabet, transitions, start, finals)

    def complement(self, alphabet: Iterable[Symbol] | None = None) -> "DFA":
        """Deterministic complement w.r.t. all words over ``alphabet``
        (default: this automaton's alphabet)."""
        return self.determinize().complement(alphabet)

    def is_universal(self) -> bool:
        """Whether every word over the alphabet is accepted (via complement)."""
        return self.complement().is_empty()

    def contains(self, other: "NFA") -> bool:
        """Whether ``L(other) ⊆ L(self)`` (via complement + product)."""
        comp = self.complement(self.alphabet | other.alphabet)
        return other.product(comp.to_nfa()).is_empty()

    def equivalent(self, other: "NFA") -> bool:
        """Language equivalence (two inclusion tests)."""
        return self.contains(other) and other.contains(self)
