"""Deterministic finite automata.

A DFA here is an NFA with a single initial state and at most one successor
per ``(state, symbol)`` pair (Section 2 of the paper).  Transitions are
*sparse*: a DFA stores moves only on the symbols its language reads, and a
missing move kills the run, so compiling a content model costs the model's
size, not the alphabet's.  A total transition function (complementation,
Theorem 20) is a *view*: :meth:`DFA.complete` shares the transition dict
and adds one implicit ``sink`` state that every missing move over the
(possibly widened) alphabet leads to; :meth:`DFA.complement` flips the
accepting states of that view, the sink included.
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

    The constructor validates; internal algorithms build through
    :meth:`_trusted`.  ``sink`` is ``None`` except on completed views.
    """

    __slots__ = (
        "states", "alphabet", "transitions", "initial", "finals", "sink",
        "_hash", "_kernel", "_nfa", "_content_hash",
    )

    def __init__(
        self,
        states: Iterable[State],
        alphabet: Iterable[Symbol],
        transitions: Mapping[Tuple[State, Symbol], State],
        initial: State,
        finals: Iterable[State],
    ) -> None:
        self._init(states, alphabet, dict(transitions), initial, finals, None)
        if initial not in self.states:
            raise InvalidSchemaError("initial state must be a state")
        if not self.finals <= self.states:
            raise InvalidSchemaError("final states must be states")
        for (src, symbol), tgt in self.transitions.items():
            if src not in self.states or tgt not in self.states:
                raise InvalidSchemaError("transition endpoints must be states")
            if symbol not in self.alphabet:
                raise InvalidSchemaError(f"transition on unknown symbol {symbol!r}")

    def _init(self, states, alphabet, transitions, initial, finals, sink) -> None:
        self.states, self.alphabet = frozenset(states), frozenset(alphabet)
        self.transitions: Dict[Tuple[State, Symbol], State] = transitions
        self.initial, self.finals, self.sink = initial, frozenset(finals), sink
        self._hash = self._kernel = self._nfa = self._content_hash = None

    @classmethod
    def _trusted(cls, states, alphabet, transitions, initial, finals, sink=None) -> "DFA":
        """A DFA from components that are well-formed by construction: no
        validation, and ``transitions`` is shared, not copied."""
        dfa = DFA.__new__(DFA)
        dfa._init(states, alphabet, transitions, initial, finals, sink)
        return dfa

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
            and self.sink == other.sink
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (
                    self.states,
                    self.alphabet,
                    self.initial,
                    self.finals,
                    self.sink,
                    frozenset(self.transitions.items()),
                )
            )
        return self._hash

    @property
    def size(self) -> int:
        """Paper size measure ``|Q| + |Σ| + Σ|δ(q,a)|`` (stored moves)."""
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
                repr(self.sink),
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
        return DFA._trusted(nfa.states, nfa.alphabet, transitions, initial, nfa.finals)

    def to_nfa(self) -> NFA:
        """The same automaton as an :class:`NFA` (cached; both classes are
        immutable), a view's implicit sink moves spelled out."""
        if self._nfa is None:
            table: Dict[State, Dict[Symbol, set]] = {}
            for (src, symbol), tgt in self.transitions.items():
                table.setdefault(src, {})[symbol] = (tgt,)
            for q in self.states if self.sink is not None else ():
                row = table.setdefault(q, {})
                row.update({a: (self.sink,) for a in self.alphabet - row.keys()})
            self._nfa = NFA(self.states, self.alphabet, table, {self.initial}, self.finals)
        return self._nfa

    def map_states(self, mapping) -> "DFA":
        """Rename states through an injective ``mapping``."""
        return DFA._trusted(
            {mapping(q) for q in self.states},
            self.alphabet,
            {(mapping(s), a): mapping(t) for (s, a), t in self.transitions.items()},
            mapping(self.initial),
            {mapping(q) for q in self.finals},
            None if self.sink is None else mapping(self.sink),
        )

    def renumber(self) -> "DFA":
        """Canonically rename states to ``0..n-1`` by BFS order from the
        initial state over the stored moves (symbols in ``repr`` order; a
        view's sink and unreachable states take the later numbers)."""
        moves: Dict[State, list] = {}
        for (src, symbol), tgt in self.transitions.items():
            moves.setdefault(src, []).append((repr(symbol), tgt))
        order: Dict[State, int] = {self.initial: 0}
        frontier = deque([self.initial])
        while frontier:
            row = moves.get(frontier.popleft(), ())
            for _key, tgt in sorted(row, key=lambda move: move[0]):
                if tgt not in order:
                    order[tgt] = len(order)
                    frontier.append(tgt)
        if self.sink is not None and self.sink not in order:
            order[self.sink] = len(order)
        for state in sorted(self.states - set(order), key=repr):
            order[state] = len(order)
        return self.map_states(order.__getitem__)

    # ------------------------------------------------------------------
    # Runs
    # ------------------------------------------------------------------
    def step(self, state: State | None, symbol: Symbol) -> State | None:
        """Single transition; ``None`` represents the dead configuration
        (on a view, a missing move on an alphabet symbol is the sink)."""
        if state is None:
            return None
        target = self.transitions.get((state, symbol))
        if target is None and self.sink is not None and symbol in self.alphabet:
            return self.sink
        return target

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
    # Completion / complementation (views sharing the transition dict)
    # ------------------------------------------------------------------
    def is_complete(self, alphabet: Iterable[Symbol] | None = None) -> bool:
        """Whether every (state, symbol) pair has a transition."""
        sigma = self.alphabet if alphabet is None else frozenset(alphabet)
        if self.sink is not None and sigma <= self.alphabet:
            return True
        return all((q, a) in self.transitions for q in self.states for a in sigma)

    def complete(self, alphabet: Iterable[Symbol] | None = None) -> "DFA":
        """A complete DFA for the same language: a view with a sink.

        ``alphabet`` may enlarge the alphabet; new symbols lead to the sink.
        The view shares the transition dict, so completing costs ``O(|Q|)``,
        not ``O(|Q| × |Σ|)``.  Asked for (a subset of) its own alphabet, a
        view — or a DFA whose stored moves are already total — returns
        itself.  Widening a view whose sink accepts (a complement) spells
        the view out first, so the new symbols reach a fresh rejecting sink
        instead of the accepting one.
        """
        if alphabet is None:
            sigma = self.alphabet
        else:
            sigma = frozenset(alphabet)
            if sigma <= self.alphabet:
                sigma = self.alphabet
            elif not self.alphabet <= sigma:
                sigma = self.alphabet | sigma
        if len(sigma) == len(self.alphabet) and (
            self.sink is not None or self.is_complete()
        ):
            return self
        if self.sink is not None and self.sink in self.finals:
            return DFA.from_nfa(self.to_nfa()).complete(sigma)
        sink, states = self.sink, self.states
        if sink is None:
            sink = ("__sink__", len(states))
            while sink in states:
                sink = (sink, 0)
            states = states | {sink}
        return DFA._trusted(states, sigma, self.transitions, self.initial, self.finals, sink)

    def complement(self, alphabet: Iterable[Symbol] | None = None) -> "DFA":
        """Complement w.r.t. all words over ``alphabet`` (default: own):
        the completed view with the accepting states — sink included —
        flipped."""
        view = self.complete(alphabet)
        flipped = view.states - view.finals
        return DFA._trusted(
            view.states, view.alphabet, view.transitions, view.initial, flipped, view.sink
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
    # Minimization (Moore partition refinement over the stored moves)
    # ------------------------------------------------------------------
    def minimize(self) -> "DFA":
        """The canonical language-minimal *trim* DFA, renumbered once.

        Only reachable states that can still reach acceptance survive; the
        dead state stays implicit (a missing move), and the empty language
        is one non-accepting state.  Refinement reads only the stored
        moves, never the whole alphabet (a view is spelled out first).
        """
        from repro.kernel.dfa_kernel import minimal_components

        source = self if self.sink is None else DFA.from_nfa(self.to_nfa())
        parts = minimal_components(source) or ({0}, {}, 0, ())
        return DFA._trusted(parts[0], self.alphabet, *parts[1:]).renumber()


class LazyProductDFA(DFA):
    """A product DFA backed by its interned kernel, decoded on demand.

    Construction costs exactly the kernel-side pair BFS (int tuples, flat
    tables); the seed representation — pair states ``(p, q)``, the
    transitions dict — is materialized only when an object-level view is
    first touched (``states``, ``transitions``, ``finals``, ``to_nfa``,
    equality, ...).  Kernel consumers (``accepts``, ``contains``, chained
    ``product``) never decode at all.

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
        self.sink = None
        self._hash = None
        self._nfa = None
        self._content_hash = None
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
                transitions,
                value(kernel.initial),
                frozenset(kernel.states.unmask(kernel.finals_mask)),
            )
        return parts

    # Object-level views (shadow the parent's slot descriptors).
    states = property(lambda self: self._materialize()[0])
    transitions = property(lambda self: self._materialize()[1])
    finals = property(lambda self: self._materialize()[3])

    @property
    def alphabet(self) -> FrozenSet[Symbol]:
        return self._kernel.alphabet

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
