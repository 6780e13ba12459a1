"""Unit tests for :mod:`repro.strings.nfa`."""

import pytest

from repro.errors import InvalidSchemaError
from repro.strings import NFA


@pytest.fixture
def even_as():
    """NFA accepting words over {a, b} with an even number of a's."""
    return NFA(
        states={"even", "odd"},
        alphabet={"a", "b"},
        transitions={
            "even": {"a": {"odd"}, "b": {"even"}},
            "odd": {"a": {"even"}, "b": {"odd"}},
        },
        initial={"even"},
        finals={"even"},
    )


@pytest.fixture
def ends_ab():
    """Nondeterministic automaton for Σ*ab."""
    return NFA(
        states={0, 1, 2},
        alphabet={"a", "b"},
        transitions={0: {"a": {0, 1}, "b": {0}}, 1: {"b": {2}}},
        initial={0},
        finals={2},
    )


class TestConstruction:
    def test_rejects_unknown_initial(self):
        with pytest.raises(InvalidSchemaError):
            NFA({0}, {"a"}, {}, {1}, set())

    def test_rejects_unknown_final(self):
        with pytest.raises(InvalidSchemaError):
            NFA({0}, {"a"}, {}, {0}, {1})

    def test_rejects_unknown_transition_source(self):
        with pytest.raises(InvalidSchemaError):
            NFA({0}, {"a"}, {1: {"a": {0}}}, {0}, set())

    def test_rejects_unknown_transition_symbol(self):
        with pytest.raises(InvalidSchemaError):
            NFA({0}, {"a"}, {0: {"b": {0}}}, {0}, set())

    def test_rejects_unknown_transition_target(self):
        with pytest.raises(InvalidSchemaError):
            NFA({0}, {"a"}, {0: {"a": {7}}}, {0}, set())

    def test_empty_transition_sets_are_dropped(self):
        nfa = NFA({0}, {"a"}, {0: {"a": set()}}, {0}, {0})
        assert nfa.transitions == {}

    def test_size_measure(self, ends_ab):
        # |Q| + |Σ| + Σ|δ(q,a)| = 3 + 2 + (2 + 1 + 1) = 9
        assert ends_ab.size == 9

    def test_equality_and_hash(self, even_as):
        clone = NFA(
            even_as.states,
            even_as.alphabet,
            even_as.transitions,
            even_as.initial,
            even_as.finals,
        )
        assert clone == even_as
        assert hash(clone) == hash(even_as)


class TestRuns:
    def test_accepts_even(self, even_as):
        assert even_as.accepts([])
        assert even_as.accepts(["a", "a"])
        assert even_as.accepts(["b", "a", "b", "a"])
        assert not even_as.accepts(["a"])
        assert not even_as.accepts(["a", "b"])

    def test_accepts_nondeterministic(self, ends_ab):
        assert ends_ab.accepts(["a", "b"])
        assert ends_ab.accepts(["b", "a", "a", "b"])
        assert not ends_ab.accepts(["a", "b", "a"])
        assert not ends_ab.accepts([])

    def test_run_dies_on_foreign_symbol(self, ends_ab):
        assert ends_ab.run(["c"]) == frozenset()

    def test_step(self, ends_ab):
        assert ends_ab.step({0}, "a") == frozenset({0, 1})
        assert ends_ab.step({1}, "a") == frozenset()


class TestFactories:
    def test_from_word(self):
        nfa = NFA.from_word(("x", "y"))
        assert nfa.accepts(["x", "y"])
        assert not nfa.accepts(["x"])
        assert not nfa.accepts(["x", "y", "x"])

    def test_from_empty_word(self):
        nfa = NFA.from_word((), alphabet={"a"})
        assert nfa.accepts([])
        assert not nfa.accepts(["a"])

    def test_empty_language(self):
        nfa = NFA.empty_language({"a"})
        assert not nfa.accepts([])
        assert nfa.is_empty()

    def test_epsilon_language(self):
        nfa = NFA.epsilon_language({"a"})
        assert nfa.accepts([])
        assert not nfa.accepts(["a"])

    def test_universal(self):
        nfa = NFA.universal({"a", "b"})
        assert nfa.accepts([])
        assert nfa.accepts(["a", "b", "b"])
        assert nfa.is_universal()

    def test_with_endpoints(self, ends_ab):
        # From 1 to 2: exactly the word "b".
        derived = ends_ab.with_endpoints({1}, {2})
        assert derived.transitions is ends_ab.transitions
        assert derived.accepts(["b"])
        assert not derived.accepts(["a", "b"])
        assert derived == NFA({0, 1, 2}, {"a", "b"}, ends_ab.transitions, {1}, {2})
        # The original automaton is untouched.
        assert ends_ab.accepts(["a", "b"])
        with pytest.raises(InvalidSchemaError):
            ends_ab.with_endpoints({"missing"}, {2})


class TestQueries:
    def test_is_empty_with_restriction(self, ends_ab):
        assert not ends_ab.is_empty()
        # Without b's no word reaches the final state.
        assert ends_ab.is_empty(symbols={"a"})

    def test_some_word_is_shortest(self, ends_ab):
        assert ends_ab.some_word() == ("a", "b")

    def test_some_word_empty_language(self):
        assert NFA.empty_language({"a"}).some_word() is None

    def test_some_word_epsilon(self):
        assert NFA.epsilon_language({"a"}).some_word() == ()

    def test_used_symbols(self, ends_ab):
        assert ends_ab.used_symbols() == frozenset({"a", "b"})

    def test_used_symbols_restricted(self, ends_ab):
        assert ends_ab.used_symbols(symbols={"a"}) == frozenset()

    def test_used_symbols_excludes_dead_branches(self):
        # c leads to a dead state, so it never occurs in an accepted word.
        nfa = NFA(
            {0, 1, 2},
            {"a", "c"},
            {0: {"a": {1}, "c": {2}}},
            {0},
            {1},
        )
        assert nfa.used_symbols() == frozenset({"a"})

    def test_finiteness(self):
        finite = NFA.from_word(("a", "a"))
        assert finite.accepts_finitely_many()
        infinite = NFA.universal({"a"})
        assert not infinite.accepts_finitely_many()

    def test_finiteness_loop_outside_useful_part(self):
        # The loop at state 2 is unreachable-from-initial, language is finite.
        nfa = NFA(
            {0, 1, 2},
            {"a"},
            {0: {"a": {1}}, 2: {"a": {2}}},
            {0},
            {1},
        )
        assert nfa.accepts_finitely_many()

    def test_iter_words(self, even_as):
        words = set(even_as.iter_words(2))
        assert words == {(), ("b",), ("a", "a"), ("b", "b")}

    def test_trim_removes_useless_states(self):
        nfa = NFA(
            {0, 1, 2, 3},
            {"a"},
            {0: {"a": {1, 2}}, 2: {"a": {2}}, 3: {"a": {1}}},
            {0},
            {1},
        )
        trimmed = nfa.trim()
        assert trimmed.states == frozenset({0, 1})
        assert trimmed.accepts(["a"])
        assert not trimmed.accepts(["a", "a"])


class TestAlgebra:
    def test_product_is_intersection(self, even_as, ends_ab):
        prod = even_as.product(ends_ab)
        assert prod.accepts(["a", "a", "b", "a", "b"]) is False  # odd # of a's
        assert prod.accepts(["a", "b", "a", "b"])  # even a's and ends in ab
        assert not prod.accepts(["b", "b"])  # even a's but no ab suffix

    def test_product_empty(self):
        only_a = NFA.from_word(("a",))
        only_b = NFA.from_word(("b",))
        assert only_a.product(only_b).is_empty()

    def test_union(self):
        u = NFA.from_word(("a",)).union(NFA.from_word(("b",)))
        assert u.accepts(["a"])
        assert u.accepts(["b"])
        assert not u.accepts(["a", "b"])

    def test_determinize_preserves_language(self, ends_ab):
        dfa = ends_ab.determinize()
        for word in ends_ab.iter_words(4):
            assert dfa.accepts(word)
        assert not dfa.accepts(["a"])
        assert not dfa.accepts(["b", "a"])

    def test_complement(self, ends_ab):
        comp = ends_ab.complement()
        assert comp.accepts([])
        assert comp.accepts(["a"])
        assert not comp.accepts(["a", "b"])

    def test_contains(self, ends_ab):
        word = NFA.from_word(("a", "a", "b"), alphabet={"a", "b"})
        assert ends_ab.contains(word)
        assert not word.contains(ends_ab)

    def test_contains_respects_foreign_symbols(self):
        # L(other) uses a symbol outside L(self)'s alphabet; not contained.
        only_a = NFA.from_word(("a",))
        only_c = NFA.from_word(("c",))
        assert not only_a.contains(only_c)

    def test_equivalent(self, ends_ab):
        det = ends_ab.determinize().to_nfa()
        assert ends_ab.equivalent(det)

    def test_map_symbols(self, ends_ab):
        mapped = ends_ab.map_symbols(lambda s: s.upper())
        assert mapped.accepts(["A", "B"])
        assert not mapped.accepts(["a", "b"])

    def test_map_states(self, ends_ab):
        mapped = ends_ab.map_states(lambda q: ("st", q))
        assert mapped.accepts(["a", "b"])
        assert ("st", 0) in mapped.states

    def test_with_alphabet(self, ends_ab):
        bigger = ends_ab.with_alphabet({"a", "b", "c"})
        assert bigger.accepts(["a", "b"])
        assert not bigger.accepts(["c"])
        with pytest.raises(InvalidSchemaError):
            ends_ab.with_alphabet({"a"})
