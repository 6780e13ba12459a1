"""Unit tests for :mod:`repro.strings.dfa`."""

import pytest

from repro.errors import NotDeterministicError
from repro.strings import DFA, NFA


@pytest.fixture
def mod3():
    """DFA over {a} accepting words whose length is divisible by 3."""
    return DFA(
        states={0, 1, 2},
        alphabet={"a"},
        transitions={(0, "a"): 1, (1, "a"): 2, (2, "a"): 0},
        initial=0,
        finals={0},
    )


@pytest.fixture
def partial_ab():
    """Partial DFA accepting exactly a b."""
    return DFA.from_word(("a", "b"))


class TestRuns:
    def test_accepts(self, mod3):
        assert mod3.accepts([])
        assert mod3.accepts(["a"] * 3)
        assert mod3.accepts(["a"] * 6)
        assert not mod3.accepts(["a"] * 4)

    def test_partial_run_dies(self, partial_ab):
        assert partial_ab.run(["b"]) is None
        assert not partial_ab.accepts(["b"])

    def test_run_from_custom_start(self, mod3):
        assert mod3.run(["a"], start=2) == 0

    def test_step_none_propagates(self, mod3):
        assert mod3.step(None, "a") is None


class TestCompletion:
    def test_is_complete(self, mod3, partial_ab):
        assert mod3.is_complete()
        assert not partial_ab.is_complete()

    def test_complete_preserves_language(self, partial_ab):
        completed = partial_ab.complete()
        assert completed.is_complete()
        assert completed.accepts(["a", "b"])
        assert not completed.accepts(["b", "a"])
        assert not completed.accepts(["a", "b", "a"])

    def test_complete_returns_a_known_complete_dfa_itself(self, partial_ab):
        completed = partial_ab.complete()
        assert completed.complete() is completed
        assert completed.complete({"a"}) is completed
        assert completed.complete({"a", "z"}) is not completed

    def test_complete_with_larger_alphabet(self, mod3):
        bigger = mod3.complete({"a", "b"})
        assert bigger.is_complete()
        assert bigger.accepts(["a", "a", "a"])
        assert not bigger.accepts(["b"])

    def test_complement(self, partial_ab):
        comp = partial_ab.complement()
        assert comp.accepts([])
        assert comp.accepts(["b"])
        assert not comp.accepts(["a", "b"])

    def test_double_complement_equivalent(self, partial_ab):
        twice = partial_ab.complement().complement()
        assert twice.equivalent(partial_ab.complete())


class TestConversions:
    def test_from_nfa_rejects_nondeterminism(self):
        nondet = NFA({0, 1}, {"a"}, {0: {"a": {0, 1}}}, {0}, {1})
        with pytest.raises(NotDeterministicError):
            DFA.from_nfa(nondet)

    def test_from_nfa_rejects_multiple_initials(self):
        multi = NFA({0, 1}, {"a"}, {}, {0, 1}, {1})
        with pytest.raises(NotDeterministicError):
            DFA.from_nfa(multi)

    def test_roundtrip_through_nfa(self, mod3):
        again = DFA.from_nfa(mod3.to_nfa())
        assert again.equivalent(mod3)

    def test_renumber_preserves_language(self, mod3):
        renum = mod3.map_states(lambda q: f"state-{q}").renumber()
        assert renum.equivalent(mod3)
        assert renum.states == frozenset({0, 1, 2})


class TestAlgebra:
    def test_product_intersection(self, mod3):
        mod2 = DFA({0, 1}, {"a"}, {(0, "a"): 1, (1, "a"): 0}, 0, {0})
        prod = mod3.product(mod2)
        assert prod.accepts(["a"] * 6)
        assert not prod.accepts(["a"] * 3)
        assert not prod.accepts(["a"] * 2)

    def test_product_finals_modes(self, mod3):
        mod2 = DFA({0, 1}, {"a"}, {(0, "a"): 1, (1, "a"): 0}, 0, {0})
        union = mod3.product(mod2, finals="either")
        assert union.accepts(["a"] * 3)
        assert union.accepts(["a"] * 2)
        assert not union.accepts(["a"] * 5)
        left = mod3.product(mod2, finals="left")
        assert left.accepts(["a"] * 3)
        right = mod3.product(mod2, finals="right")
        assert right.accepts(["a"] * 2)

    def test_contains(self, mod3):
        mod6 = DFA(
            {0, 1, 2, 3, 4, 5},
            {"a"},
            {(i, "a"): (i + 1) % 6 for i in range(6)},
            0,
            {0},
        )
        assert mod3.contains(mod6)
        assert not mod6.contains(mod3)

    def test_universal_and_empty(self):
        assert DFA.universal({"a"}).accepts(["a", "a"])
        assert DFA.empty_language({"a"}).is_empty()

    def test_some_word(self, partial_ab):
        assert partial_ab.some_word() == ("a", "b")

    def test_used_symbols(self, partial_ab):
        assert partial_ab.used_symbols() == frozenset({"a", "b"})


class TestMinimize:
    def test_minimize_collapses_equivalent_states(self):
        # Two redundant states recognizing a* with even length.
        dfa = DFA(
            states={0, 1, 2, 3},
            alphabet={"a"},
            transitions={(0, "a"): 1, (1, "a"): 2, (2, "a"): 3, (3, "a"): 0},
            initial=0,
            finals={0, 2},
        )
        minimal = dfa.minimize()
        assert len(minimal.states) == 2
        assert minimal.equivalent(dfa)

    def test_minimize_drops_unreachable(self):
        dfa = DFA(
            states={0, 1, 99},
            alphabet={"a"},
            transitions={(0, "a"): 1, (99, "a"): 0},
            initial=0,
            finals={1},
        )
        minimal = dfa.minimize()
        assert minimal.equivalent(dfa)
        # 99 gone; completion may add one sink: initial, final, sink.
        assert len(minimal.states) <= 3

    def test_minimize_of_empty_language(self):
        dfa = DFA.empty_language({"a"})
        minimal = dfa.minimize()
        assert minimal.is_empty()
        assert len(minimal.states) == 1
