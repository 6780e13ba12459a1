"""Differential tests: interned DFA/NFA kernels vs the seed object-state
reference implementations, over seeded-random automata.

Every operation ported to ``repro.kernel`` is checked against its retained
baseline in :mod:`repro.kernel.reference` — exact structural equality where
the seed fixed a representation (products, minimization), language-level
equality elsewhere.
"""

import itertools
import random

import pytest

from repro.kernel import reference
from repro.strings.dfa import DFA
from repro.strings.nfa import NFA
from repro.tree_automata.ops import _pair_product_nfa

SEEDS = range(60)


def random_dfa(rng: random.Random, max_states: int = 6, symbols=("a", "b", "c")) -> DFA:
    n = rng.randint(1, max_states)
    states = list(range(n))
    sigma = symbols[: rng.randint(1, len(symbols))]
    transitions = {}
    for q in states:
        for s in sigma:
            if rng.random() < 0.7:
                transitions[(q, s)] = rng.choice(states)
    finals = {q for q in states if rng.random() < 0.4}
    return DFA(states, sigma, transitions, rng.choice(states), finals)


def random_nfa(rng: random.Random, max_states: int = 5, symbols=("a", "b")) -> NFA:
    n = rng.randint(1, max_states)
    states = list(range(n))
    table = {}
    for q in states:
        row = {}
        for s in symbols:
            targets = {t for t in states if rng.random() < 0.35}
            if targets:
                row[s] = targets
        if row:
            table[q] = row
    initial = {q for q in states if rng.random() < 0.4} or {0}
    finals = {q for q in states if rng.random() < 0.35}
    return NFA(states, symbols, table, initial, finals)


@pytest.mark.parametrize("seed", SEEDS)
def test_product_matches_reference(seed):
    rng = random.Random(seed)
    left, right = random_dfa(rng), random_dfa(rng)
    for finals in ("both", "left", "right", "either"):
        assert left.product(right, finals=finals) == reference.dfa_product_object(
            left, right, finals
        ), finals


@pytest.mark.parametrize("seed", SEEDS)
def test_contains_matches_reference(seed):
    rng = random.Random(seed)
    big, small = random_dfa(rng), random_dfa(rng)
    assert big.contains(small) == reference.dfa_contains_object(big, small)
    nfa_small = random_nfa(rng)
    # Align alphabets loosely: containment is over the small side's words.
    assert big.contains(nfa_small) == reference.dfa_contains_object(big, nfa_small)


@pytest.mark.parametrize("seed", SEEDS)
def test_minimize_matches_reference(seed):
    rng = random.Random(seed)
    dfa = random_dfa(rng)
    kernel_min = dfa.minimize()
    ref_min = reference.dfa_minimize_object(dfa)
    assert kernel_min == ref_min
    # And both are language-equivalent to the original.
    for word in dfa.iter_words(4):
        assert kernel_min.accepts(word)
    for word in kernel_min.iter_words(4):
        assert dfa.accepts(word)


def every_pair(left: NFA, right: NFA) -> dict:
    """``partners`` admitting every symbol pair (the unrestricted product)."""
    return {u: right.alphabet for u in left.alphabet}


@pytest.mark.parametrize("seed", SEEDS)
def test_pair_product_matches_reference(seed):
    rng = random.Random(seed)
    left, right = random_nfa(rng), random_nfa(rng)
    product = _pair_product_nfa(left, right, every_pair(left, right))
    assert product == reference.pair_product_nfa_object(left, right)


@pytest.mark.parametrize("seed", SEEDS)
def test_pair_product_language_is_the_cross_product_definition(seed):
    """The product reads only the pairs it uses, but its language is that
    of the definition over ``left.alphabet × right.alphabet``: a pair word
    is accepted iff both projections are."""
    rng = random.Random(seed)
    left, right = random_nfa(rng), random_nfa(rng)
    product = _pair_product_nfa(left, right, every_pair(left, right))
    assert product.alphabet <= {(u, v) for u in left.alphabet for v in right.alphabet}
    pairs = sorted(itertools.product(sorted(left.alphabet), sorted(right.alphabet)))
    for length in range(4):
        for word in itertools.product(pairs, repeat=length):
            expected = left.accepts([u for u, _ in word]) and right.accepts(
                [v for _, v in word]
            )
            assert product.accepts(word) == expected, word


@pytest.mark.parametrize("seed", range(20))
def test_pair_product_restricted_to_partners(seed):
    """With ``partners`` the product reads only the listed pairs: it
    accepts exactly the unrestricted product's words over those pairs."""
    rng = random.Random(seed)
    left, right = random_nfa(rng), random_nfa(rng)
    allowed = {(u, v) for u in left.alphabet for v in right.alphabet if rng.random() < 0.5}
    partners = {}
    for u, v in allowed:
        partners.setdefault(u, set()).add(v)
    full = _pair_product_nfa(left, right, every_pair(left, right))
    restricted = _pair_product_nfa(left, right, partners)
    assert restricted.alphabet <= allowed
    for length in range(4):
        for word in itertools.product(sorted(allowed), repeat=length):
            assert restricted.accepts(word) == full.accepts(word), word


@pytest.mark.parametrize("seed", SEEDS)
def test_some_word_containing_matches_reference(seed):
    from repro.core.reachability import some_word_containing

    rng = random.Random(seed)
    nfa = random_nfa(rng)
    for symbol in sorted(nfa.alphabet) + ["zzz"]:
        allowed = {s for s in nfa.alphabet if rng.random() < 0.8}
        kernel_word = some_word_containing(nfa, symbol, allowed)
        ref_word = reference.some_word_containing_object(nfa, symbol, allowed)
        # Shortest-word searches may break ties differently; both must agree
        # on existence and length, and the kernel word must be valid.
        if ref_word is None:
            assert kernel_word is None
        else:
            assert kernel_word is not None
            assert len(kernel_word) == len(ref_word)
            assert symbol in kernel_word
            assert set(kernel_word) <= allowed | {symbol}
            assert nfa.accepts(kernel_word)


@pytest.mark.parametrize("seed", range(30))
def test_equivalence_and_emptiness_consistency(seed):
    """Derived queries built on the kernel primitives stay self-consistent."""
    rng = random.Random(seed)
    dfa = random_dfa(rng)
    minimized = dfa.minimize()
    assert dfa.equivalent(minimized)
    assert dfa.is_empty() == (dfa.some_word() is None)


# ----------------------------------------------------------------------
# Lazy kernel-backed products (the decode-bound small-size fix)
# ----------------------------------------------------------------------
class TestLazyProduct:
    def _mods(self):
        mod3 = DFA(
            {0, 1, 2}, {"a"}, {(i, "a"): (i + 1) % 3 for i in range(3)}, 0, {0}
        )
        mod2 = DFA({0, 1}, {"a"}, {(0, "a"): 1, (1, "a"): 0}, 0, {0})
        return mod3, mod2

    def test_product_is_a_lazy_view(self):
        from repro.strings.dfa import LazyProductDFA

        mod3, mod2 = self._mods()
        prod = mod3.product(mod2)
        assert isinstance(prod, LazyProductDFA)
        assert prod._parts is None  # nothing decoded yet

    def test_accepts_and_chained_products_stay_on_the_kernel(self):
        mod3, mod2 = self._mods()
        prod = mod3.product(mod2)
        assert prod.accepts(["a"] * 6)
        assert not prod.accepts(["a"] * 3)
        assert not prod.accepts(["a", "zzz"])  # foreign symbol kills the run
        chained = prod.product(mod3)
        assert chained.accepts(["a"] * 6)
        assert prod._parts is None and chained._parts is None
        # Chaining decoded no pair state of the intermediate product.
        assert not prod._kernel.states._decoded
        # ...and materializing the chain decodes to nested-pair states.
        assert chained.initial == ((0, 0), 0)

    def test_materialized_view_is_the_seed_representation(self):
        mod3, mod2 = self._mods()
        prod = mod3.product(mod2)
        expected = reference.dfa_product_object(mod3, mod2)
        assert prod.states == expected.states  # decodes to pair states
        assert prod.transitions == expected.transitions
        assert prod.finals == expected.finals
        assert prod.initial == expected.initial
        assert prod == expected

    def test_lazy_product_pickles(self):
        import pickle

        mod3, mod2 = self._mods()
        prod = mod3.product(mod2)
        clone = pickle.loads(pickle.dumps(prod))
        assert clone == prod
        assert clone.accepts(["a"] * 6)

    @pytest.mark.parametrize("seed", range(25))
    def test_lazy_view_agrees_with_reference_everywhere(self, seed):
        rng = random.Random(seed)
        left, right = random_dfa(rng), random_dfa(rng)
        for finals in ("both", "left", "right", "either"):
            lazy = left.product(right, finals=finals)
            expected = reference.dfa_product_object(left, right, finals)
            assert lazy == expected, finals
            assert lazy.minimize().equivalent(expected.minimize()), finals
