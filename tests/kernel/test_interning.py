"""Unit tests for the interning layer and the interned automaton views."""

import random


from repro.kernel.interning import Interner, iter_bits, mask_of, popcount
from repro.strings.dfa import DFA
from repro.strings.nfa import NFA


class TestInterner:
    def test_dense_and_bijective(self):
        interner = Interner(["b", "a", "c"])
        assert len(interner) == 3
        assert [interner.index(x) for x in ["b", "a", "c"]] == [0, 1, 2]
        assert [interner.value(i) for i in range(3)] == ["b", "a", "c"]

    def test_from_sorted_is_repr_deterministic(self):
        interner = Interner.from_sorted({"b", "a", "c"})
        assert interner.values == ("a", "b", "c")

    def test_intern_appends(self):
        interner = Interner(["x"])
        assert interner.intern("y") == 1
        assert interner.intern("x") == 0
        assert interner.get("z") == -1
        assert "y" in interner and "z" not in interner

    def test_mask_roundtrip(self):
        interner = Interner.from_sorted(["a", "b", "c", "d"])
        mask = interner.mask(["a", "c", "unknown"])
        assert mask == (1 << 0) | (1 << 2)
        assert interner.unmask(mask) == {"a", "c"}

    def test_bit_helpers(self):
        mask = mask_of([0, 3, 5])
        assert list(iter_bits(mask)) == [0, 3, 5]
        assert popcount(mask) == 3
        assert list(iter_bits(0)) == []


class TestInternedDFA:
    def test_table_and_runs(self):
        dfa = DFA(
            {0, 1, 2},
            {"a", "b"},
            {(0, "a"): 1, (1, "a"): 2, (1, "b"): 0},
            0,
            {2},
        )
        idfa = dfa.kernel()
        assert idfa is dfa.kernel()  # cached
        word = idfa.intern_word(["a", "a"])
        assert idfa.run(word, start=idfa.initial) == idfa.states.index(2)
        assert idfa.is_final(idfa.run(word, start=idfa.initial))
        # Dead transitions are -1 and absorbing.
        dead = idfa.step(idfa.states.index(0), idfa.symbols.index("b"))
        assert dead == -1
        assert idfa.step(dead, idfa.symbols.index("a")) == -1
        assert idfa.intern_word(["a", "zzz"]) is None

    def test_reachable(self):
        dfa = DFA({0, 1, 2, 3}, {"a"}, {(0, "a"): 1, (2, "a"): 3}, 0, {1})
        idfa = dfa.kernel()
        reach = {idfa.states.value(i) for i in idfa.reachable()}
        assert reach == {0, 1}


class TestInternedNFA:
    def test_some_word_shortest(self):
        nfa = NFA(
            {0, 1, 2},
            {"a", "b"},
            {0: {"a": {1}, "b": {2}}, 1: {"a": {2}}},
            {0},
            {2},
        )
        infa = nfa.kernel()
        word = infa.some_word()
        assert word == ("b",)  # length-1 beats a·a
        only_a = infa.some_word(["a"])
        assert only_a == ("a", "a")
        assert infa.some_word([]) is None

    def test_interns_only_read_symbols(self):
        """Declared symbols that label no transition are not interned; the
        queries answer exactly as over the full alphabet."""
        from repro.core.reachability import some_word_containing

        nfa = NFA(
            {0, 1, 2},
            {"a", "b", "c", "unread", "zz"},
            {0: {"a": {1}, "c": {2}}, 1: {"b": {2}}},
            {0},
            {2},
        )
        infa = nfa.kernel()
        assert set(infa.symbols) == {"a", "b", "c"}
        assert list(infa.symbols) == sorted(infa.symbols, key=repr)
        # A restriction naming unread symbols returns the same word.
        assert infa.some_word(["a", "b", "unread"]) == ("a", "b")
        assert infa.some_word(["a", "b", "c", "unread", "zz"]) == ("c",)
        assert infa.some_word(["unread"]) is None
        assert nfa.some_word(["a", "b", "unread"]) == ("a", "b")
        # No accepted word contains a symbol the automaton never reads.
        assert some_word_containing(nfa, "unread", nfa.alphabet) is None
        assert some_word_containing(nfa, "b", nfa.alphabet) == ("a", "b")
        # The unrestricted mask admits every read symbol.
        full = infa.allowed_mask(None)
        for symbol in ("a", "b", "c"):
            assert full >> infa.symbols.index(symbol) & 1
        assert full == infa.allowed_mask(nfa.alphabet)

    def test_masks_match_object_queries(self):
        rng = random.Random(7)
        for _ in range(25):
            nfa = _random_nfa(rng)
            infa = nfa.kernel()
            reach = {infa.states.value(i) for i in iter_bits(infa.reachable_mask())}
            co = {infa.states.value(i) for i in iter_bits(infa.coreachable_mask())}
            assert reach == set(nfa.reachable_states())
            assert co == set(nfa.coreachable_states())
            assert infa.is_empty() == nfa.is_empty()


def _random_nfa(rng: random.Random, n: int = 5, symbols=("a", "b")) -> NFA:
    states = list(range(n))
    table = {}
    for q in states:
        row = {}
        for s in symbols:
            targets = {t for t in states if rng.random() < 0.3}
            if targets:
                row[s] = targets
        if row:
            table[q] = row
    initial = {q for q in states if rng.random() < 0.4} or {0}
    finals = {q for q in states if rng.random() < 0.3}
    return NFA(states, symbols, table, initial, finals)
