"""Deterministic finite automata.

A DFA here is an NFA with a single initial state and at most one successor
per ``(state, symbol)`` pair (Section 2 of the paper).  DFAs may be
*partial*; :meth:`DFA.complete` adds an explicit sink when a total transition
function is needed (e.g. for complementation, Theorem 20).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Hashable, Iterable, Mapping, Sequence, Tuple

from repro.errors import InvalidSchemaError, NotDeterministicError
from repro.obs import trace as _trace
from repro.strings.nfa import NFA

State = Hashable
Symbol = Hashable


class DFA:
    """A (possibly partial) deterministic finite automaton.

    Parameters
    ----------
    states / alphabet / initial / finals:
        As for :class:`~repro.strings.nfa.NFA`, but ``initial`` is a single
        state.
    transitions:
        Mapping ``(state, symbol) -> state``.  Missing entries are undefined
        transitions (the run dies).
    """

    __slots__ = (
        "states", "alphabet", "transitions", "initial", "finals",
        "_hash", "_kernel", "_nfa", "_content_hash", "_complete",
    )

    def __init__(
        self,
        states: Iterable[State],
        alphabet: Iterable[Symbol],
        transitions: Mapping[Tuple[State, Symbol], State],
        initial: State,
        finals: Iterable[State],
    ) -> None:
        self.states: FrozenSet[State] = frozenset(states)
        self.alphabet: FrozenSet[Symbol] = frozenset(alphabet)
        self.transitions: Dict[Tuple[State, Symbol], State] = dict(transitions)
        self.initial: State = initial
        self.finals: FrozenSet[State] = frozenset(finals)
        if initial not in self.states:
            raise InvalidSchemaError("initial state must be a state")
        if not self.finals <= self.states:
            raise InvalidSchemaError("final states must be states")
        for (src, symbol), tgt in self.transitions.items():
            if src not in self.states or tgt not in self.states:
                raise InvalidSchemaError("transition endpoints must be states")
            if symbol not in self.alphabet:
                raise InvalidSchemaError(f"transition on unknown symbol {symbol!r}")
        self._hash: int | None = None
        self._kernel = None
        self._nfa: NFA | None = None
        self._content_hash: str | None = None
        self._complete: bool | None = None

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return f"DFA(|Q|={len(self.states)}, |Σ|={len(self.alphabet)})"

    def kernel(self):
        """The interned-integer view of this automaton (cached; the DFA is
        immutable, so the kernel form is computed at most once)."""
        if self._kernel is None:
            from repro.kernel.dfa_kernel import InternedDFA

            # Interning is compile work, wherever it is first asked for.
            with _trace.span("compile", artifact="dfa_kernel"):
                self._kernel = InternedDFA(self)
        return self._kernel

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DFA):
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
                    frozenset(self.transitions.items()),
                )
            )
        return self._hash

    @property
    def size(self) -> int:
        """Paper size measure ``|Q| + |Σ| + Σ|δ(q,a)|``."""
        return len(self.states) + len(self.alphabet) + len(self.transitions)

    def content_hash(self) -> str:
        """Stable digest of the automaton's exact representation.

        Hash-randomization-independent (all sets are serialized in
        ``repr``-sorted order) and stable across processes, so it can key
        the compiled-session registry and the on-disk artifact cache.  Two
        language-equivalent but structurally different DFAs hash
        differently — the hash identifies the *representation*, which is
        what the compiled artifacts are derived from.
        """
        if self._content_hash is None:
            from repro.util import stable_digest

            self._content_hash = stable_digest(
                "dfa",
                repr(sorted(self.states, key=repr)),
                repr(sorted(self.alphabet, key=repr)),
                repr(sorted(self.transitions.items(), key=repr)),
                repr(self.initial),
                repr(sorted(self.finals, key=repr)),
            )
        return self._content_hash

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def from_word(word: Sequence[Symbol], alphabet: Iterable[Symbol] = ()) -> "DFA":
        """A DFA accepting exactly ``word``."""
        sigma = set(alphabet) | set(word)
        states = list(range(len(word) + 1))
        transitions = {(i, word[i]): i + 1 for i in range(len(word))}
        return DFA(states, sigma, transitions, 0, {len(word)})

    @staticmethod
    def universal(alphabet: Iterable[Symbol]) -> "DFA":
        """A DFA accepting every word over ``alphabet``."""
        sigma = frozenset(alphabet)
        return DFA({0}, sigma, {(0, a): 0 for a in sigma}, 0, {0})

    @staticmethod
    def empty_language(alphabet: Iterable[Symbol]) -> "DFA":
        """A DFA accepting no word."""
        return DFA({0}, alphabet, {}, 0, set())

    @staticmethod
    def from_nfa(nfa: NFA) -> "DFA":
        """Interpret an NFA that happens to be deterministic as a DFA.

        Raises :class:`NotDeterministicError` when ``nfa`` has several
        initial states or a nondeterministic transition.
        """
        if len(nfa.initial) != 1:
            raise NotDeterministicError("NFA has several initial states")
        transitions: Dict[Tuple[State, Symbol], State] = {}
        for src, row in nfa.transitions.items():
            for symbol, tgts in row.items():
                if len(tgts) > 1:
                    raise NotDeterministicError(
                        f"nondeterministic transition from {src!r} on {symbol!r}"
                    )
                (tgt,) = tgts
                transitions[(src, symbol)] = tgt
        (initial,) = nfa.initial
        return DFA(nfa.states, nfa.alphabet, transitions, initial, nfa.finals)

    def to_nfa(self) -> NFA:
        """The same automaton as an :class:`NFA` (cached; both classes are
        immutable)."""
        if self._nfa is None:
            table: Dict[State, Dict[Symbol, set]] = {}
            for (src, symbol), tgt in self.transitions.items():
                table.setdefault(src, {}).setdefault(symbol, set()).add(tgt)
            self._nfa = NFA(
                self.states, self.alphabet, table, {self.initial}, self.finals
            )
        return self._nfa

    def map_states(self, mapping) -> "DFA":
        """Rename states through an injective ``mapping``."""
        return DFA(
            {mapping(q) for q in self.states},
            self.alphabet,
            {(mapping(s), a): mapping(t) for (s, a), t in self.transitions.items()},
            mapping(self.initial),
            {mapping(q) for q in self.finals},
        )

    def renumber(self) -> "DFA":
        """Canonically rename states to ``0..n-1`` by BFS order from the
        initial state (unreachable states keep arbitrary later numbers)."""
        order: Dict[State, int] = {self.initial: 0}
        frontier = deque([self.initial])
        symbols = sorted(self.alphabet, key=repr)
        while frontier:
            src = frontier.popleft()
            for symbol in symbols:
                tgt = self.transitions.get((src, symbol))
                if tgt is not None and tgt not in order:
                    order[tgt] = len(order)
                    frontier.append(tgt)
        for state in sorted(self.states - set(order), key=repr):
            order[state] = len(order)
        return self.map_states(lambda q: order[q])

    # ------------------------------------------------------------------
    # Runs
    # ------------------------------------------------------------------
    def step(self, state: State | None, symbol: Symbol) -> State | None:
        """Single transition; ``None`` represents the dead configuration."""
        if state is None:
            return None
        return self.transitions.get((state, symbol))

    def run(self, word: Iterable[Symbol], start: State | None = None) -> State | None:
        """Extended transition function δ*; ``None`` when the run dies."""
        state: State | None = self.initial if start is None else start
        for symbol in word:
            state = self.step(state, symbol)
            if state is None:
                return None
        return state

    def accepts(self, word: Iterable[Symbol]) -> bool:
        """Whether the DFA accepts ``word``."""
        return self.run(word) in self.finals

    # ------------------------------------------------------------------
    # Completion / complementation
    # ------------------------------------------------------------------
    def is_complete(self, alphabet: Iterable[Symbol] | None = None) -> bool:
        """Whether every (state, symbol) pair has a transition."""
        sigma = self.alphabet if alphabet is None else frozenset(alphabet)
        return all((q, a) in self.transitions for q in self.states for a in sigma)

    def complete(self, alphabet: Iterable[Symbol] | None = None) -> "DFA":
        """A complete DFA for the same language, adding a sink if needed.

        ``alphabet`` may enlarge the alphabet; new symbols lead to the sink.
        Asked for (a subset of) its own alphabet, a DFA already known to be
        complete returns itself without re-scanning its transitions (the
        automaton is immutable, so completeness is decided once).
        """
        sigma = self.alphabet if alphabet is None else self.alphabet | frozenset(alphabet)
        if sigma == self.alphabet:
            if self._complete is None:
                self._complete = self.is_complete()
            if self._complete:
                return self
        # A symbol outside the alphabet has no transitions, so any enlarged
        # alphabet needs the sink.
        sink = ("__sink__", len(self.states))
        while sink in self.states:
            sink = (sink, 0)
        states = set(self.states) | {sink}
        transitions = dict(self.transitions)
        for q in states:
            for a in sigma:
                transitions.setdefault((q, a), sink)
        completed = DFA(states, sigma, transitions, self.initial, self.finals)
        completed._complete = True
        return completed

    def complement(self, alphabet: Iterable[Symbol] | None = None) -> "DFA":
        """Complement w.r.t. all words over ``alphabet`` (default: own)."""
        completed = self.complete(alphabet)
        return DFA(
            completed.states,
            completed.alphabet,
            completed.transitions,
            completed.initial,
            completed.states - completed.finals,
        )

    # ------------------------------------------------------------------
    # Language queries (delegated or direct)
    # ------------------------------------------------------------------
    def is_empty(self, symbols: Iterable[Symbol] | None = None) -> bool:
        """Whether no word (over ``symbols`` if given) is accepted."""
        return self.to_nfa().is_empty(symbols)

    def some_word(self, symbols: Iterable[Symbol] | None = None):
        """A shortest accepted word, or ``None``."""
        return self.to_nfa().some_word(symbols)

    def used_symbols(self, symbols: Iterable[Symbol] | None = None):
        """Symbols occurring in at least one accepted word."""
        return self.to_nfa().used_symbols(symbols)

    def iter_words(self, max_length: int):
        """All accepted words up to ``max_length`` (testing helper)."""
        return self.to_nfa().iter_words(max_length)

    def contains(self, other: "DFA | NFA") -> bool:
        """Whether ``L(other) ⊆ L(self)``.

        Runs on the interned kernel: a pair BFS over ``(other state, own
        state-or-dead)`` with early exit at the first violating pair — no
        explicit complement automaton is ever built.
        """
        from repro.kernel.dfa_kernel import contains_dfa, contains_nfa

        if isinstance(other, DFA):
            return contains_dfa(self, other)
        return contains_nfa(self, other)

    def equivalent(self, other: "DFA") -> bool:
        """Language equivalence."""
        return self.contains(other) and other.contains(self)

    def product(self, other: "DFA", finals: str = "both") -> "DFA":
        """Product DFA over the shared alphabet.

        ``finals`` selects the acceptance condition: ``"both"`` for
        intersection, ``"left"``/``"right"`` to track one component, or
        ``"either"`` for union (requires both factors complete to be exact).

        Returns a :class:`LazyProductDFA`: the reachable pair space is
        explored entirely on the interned kernel, and the object-level
        views — the usual pair states ``(p, q)``, the transitions dict —
        decode lazily on first access.  Chained products, ``accepts`` and
        ``contains`` stay on the kernel and never pay the decode.
        """
        from repro.kernel.dfa_kernel import product_kernel

        return LazyProductDFA(product_kernel(self, other, finals))

    # ------------------------------------------------------------------
    # Minimization (Hopcroft-style partition refinement via Moore)
    # ------------------------------------------------------------------
    def minimize(self) -> "DFA":
        """Language-minimal complete DFA (Moore partition refinement).

        The result is complete over the automaton's alphabet; the dead state,
        if any, is retained only when it is reachable.  Refinement runs on
        the interned kernel (int block arrays instead of object dicts).
        """
        from repro.kernel.dfa_kernel import minimize_components

        completed = self.complete()
        states, transitions, initial, finals = minimize_components(completed)
        return DFA(
            states, completed.alphabet, transitions, initial, finals
        ).renumber()


class LazyProductDFA(DFA):
    """A product DFA backed by its interned kernel, decoded on demand.

    Construction costs exactly the kernel-side pair BFS (int tuples, flat
    tables); the seed representation — pair states ``(p, q)``, the
    transitions dict — is materialized only when an object-level view is
    first touched (``states``, ``transitions``, ``finals``, ``to_nfa``,
    equality, ...).  This fixes the decode-bound small-product regime where
    the kernel used to tie the object baseline: kernel consumers
    (``accepts``, ``contains``, chained ``product``, the forward engine)
    never decode at all.

    The decoded view is byte-for-byte the seed representation (same pair
    states, same transitions), so every downstream consumer — including
    code that compares against the object-path reference — sees the DFA it
    always saw.  Instances are immutable and picklable like plain DFAs.
    """

    __slots__ = ("_parts",)

    def __init__(self, kernel) -> None:
        # Deliberately does NOT call DFA.__init__: kernel-built products
        # are well-formed by construction and the object views stay unbuilt.
        self._kernel = kernel
        self._hash = None
        self._nfa = None
        self._content_hash = None
        self._complete = None
        self._parts = None

    def _materialize(self):
        parts = self._parts
        if parts is None:
            kernel = self._kernel
            value = kernel.states.value
            symbols = kernel.symbols.values
            n_symbols = kernel.n_symbols
            table = kernel.table
            transitions: Dict[Tuple[State, Symbol], State] = {}
            for q in range(kernel.n_states):
                base = q * n_symbols
                src = value(q)
                for a in range(n_symbols):
                    target = table[base + a]
                    if target >= 0:
                        transitions[(src, symbols[a])] = value(target)
            parts = self._parts = (
                frozenset(kernel.states.values),
                frozenset(symbols),
                transitions,
                value(kernel.initial),
                frozenset(kernel.states.unmask(kernel.finals_mask)),
            )
        return parts

    # Object-level views (shadow the parent's slot descriptors).
    states = property(lambda self: self._materialize()[0])
    transitions = property(lambda self: self._materialize()[2])
    finals = property(lambda self: self._materialize()[4])

    @property
    def alphabet(self) -> FrozenSet[Symbol]:
        # Cheap: the symbol interner is decoded already.
        return frozenset(self._kernel.symbols.values)

    @property
    def initial(self) -> State:
        # O(1): decodes a single pair.
        return self._kernel.states.value(self._kernel.initial)

    def __repr__(self) -> str:
        return (
            f"LazyProductDFA(|Q|={self._kernel.n_states}, "
            f"|Σ|={self._kernel.n_symbols})"
        )

    def accepts(self, word: Iterable[Symbol]) -> bool:
        """Kernel-side run — no decode."""
        kernel = self._kernel
        interned = kernel.intern_word(word)
        if interned is None:
            return False  # a foreign symbol kills the run
        return kernel.is_final(kernel.run(interned, kernel.initial))

    def __reduce__(self):
        # The kernel (including its PairInterner) is closure-free, so the
        # lazy view pickles as (class, kernel).
        return (LazyProductDFA, (self._kernel,))
