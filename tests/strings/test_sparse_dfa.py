"""The alphabet-sparse DFA contract.

Content DFAs store moves only on the symbols their model mentions; a
missing move kills the run.  Completion and complementation are views
sharing those moves plus one implicit sink, and the interned kernel gives
every unmentioned alphabet symbol one shared ``other`` column.  These
tests pin the size bound and, differentially against the Glushkov NFA,
the languages of the sparse DFA, its completed view and its complement —
words with unmentioned and foreign symbols included.
"""

import itertools
import random

import pytest

from repro.core import typecheck
from repro.schemas.dtd import DTD
from repro.strings.dfa import DFA
from repro.strings.regex import Concat, Optional, Plus, Star, Sym, Union, regex_to_nfa
from repro.transducers import TreeTransducer
from repro.workloads.families import nd_bc_family

MENTIONABLE = ("a", "b", "c")
#: In the DTD's alphabet but never in a content model.
UNMENTIONED = ("x", "y")
#: Only in the widened completion alphabet.
WIDENED = ("z",)
#: In no alphabet at all.
FOREIGN = "q"


def _random_regex(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        return Sym(rng.choice(MENTIONABLE))
    kind = rng.choice(("concat", "union", "star", "plus", "opt"))
    if kind in ("concat", "union"):
        parts = tuple(_random_regex(rng, depth - 1) for _ in range(rng.randint(2, 3)))
        return Concat(parts) if kind == "concat" else Union(parts)
    inner = _random_regex(rng, depth - 1)
    return {"star": Star, "plus": Plus, "opt": Optional}[kind](inner)


def _mentioned(dtd: DTD, symbol: str) -> frozenset:
    return frozenset(dtd.content(symbol).symbols())


class TestSizeBound:
    @pytest.fixture(scope="class")
    def nd_bc_256(self):
        _transducer, din, dout, _expected = nd_bc_family(256)
        return din, dout

    def test_content_dfas_store_only_mentioned_moves(self, nd_bc_256):
        for dtd in nd_bc_256:
            for symbol in sorted(dtd.alphabet):
                dfa = dtd.content_dfa(symbol)
                mentioned = _mentioned(dtd, symbol)
                assert dfa.alphabet == dtd.alphabet
                assert {a for (_q, a) in dfa.transitions} <= mentioned
                assert len(dfa.transitions) <= len(dfa.states) * len(mentioned)
                kernel = dfa.kernel()
                assert kernel.n_symbols <= len(mentioned)
                assert len(kernel.table) <= len(dfa.states) * len(mentioned)

    def test_completed_views_add_one_state_and_one_column(self, nd_bc_256):
        _din, dout = nd_bc_256
        widened = dout.alphabet | {f"extra{i}" for i in range(300)}
        for symbol in sorted(dout.alphabet):
            dfa = dout.content_dfa(symbol)
            view = dout.content_dfa_complete(symbol, widened)
            assert view.transitions is dfa.transitions  # shared, not copied
            assert view.states == dfa.states | {view.sink}
            assert view.is_complete(widened)
            kernel = view.kernel()
            assert kernel.n_symbols <= len(_mentioned(dout, symbol)) + 1
            assert kernel.n_states == len(dfa.states) + 1


@pytest.mark.parametrize("seed", range(60))
def test_sparse_views_agree_with_glushkov(seed):
    rng = random.Random(seed)
    model = _random_regex(rng, 3)
    dtd = DTD({"r": model}, start="r", alphabet=set(UNMENTIONED))
    sigma = dtd.alphabet | set(WIDENED)
    nfa = regex_to_nfa(model, sigma)

    subsets = nfa.determinize()  # sparse too: no empty subset, no unread symbol
    assert frozenset() not in subsets.states
    assert {a for (_q, a) in subsets.transitions} <= model.symbols()
    dfa = dtd.content_dfa("r")
    assert {a for (_q, a) in dfa.transitions} <= model.symbols()
    view = dfa.complete(sigma)
    complement = dfa.complement(sigma)
    assert complement.sink == view.sink
    assert (view.sink in complement.finals) and (view.sink not in view.finals)

    def kernel_accepts(automaton, word):
        kernel = automaton.kernel()
        interned = kernel.intern_word(word)
        return interned is not None and kernel.is_final(
            kernel.run(interned, kernel.initial)
        )

    letters = sorted(sigma)
    words = [
        word
        for length in range(4)
        for word in itertools.product(letters, repeat=length)
    ]
    words += [("a", FOREIGN), (FOREIGN,)]
    for word in words:
        expected = nfa.accepts(word)
        over_sigma = all(symbol in sigma for symbol in word)
        assert dfa.accepts(word) == expected, word
        assert view.accepts(word) == expected, word
        assert kernel_accepts(view, word) == expected, word
        assert complement.accepts(word) == (over_sigma and not expected), word
        assert kernel_accepts(complement, word) == complement.accepts(word), word

    assert view.equivalent(dfa.complete())
    assert complement.complement().equivalent(view)
    assert complement.is_empty() == nfa.complement(sigma).is_empty()
    minimal = complement.minimize()
    assert all(minimal.accepts(w) == complement.accepts(w) for w in words)


class TestWideningComplementViews:
    """A complement view's sink accepts, so widening must not reuse it."""

    def test_complete_sends_new_symbols_to_a_rejecting_sink(self):
        not_a = DFA.from_word(("a",), {"a", "b"}).complement()
        widened = not_a.complete({"a", "b", "c"})
        assert not widened.accepts(["c"])
        assert not widened.accepts(["b", "c"])
        assert widened.accepts(["b"]) and widened.accepts(["a", "a"])
        assert not widened.accepts(["a"])
        assert widened.sink not in widened.finals
        assert not widened.kernel().is_final(
            widened.kernel().run(widened.kernel().intern_word(["c"]), 0)
        )

    def test_complement_over_a_wider_alphabet(self):
        not_a = DFA.from_word(("a",), {"a", "b"}).complement()
        back = not_a.complement({"a", "b", "c"})
        for word, expected in (
            (["a"], True), (["c"], True), (["a", "c"], True),
            (["b"], False), ([], False), (["a", "a"], False),
        ):
            assert back.accepts(word) == expected, word

    @pytest.mark.parametrize("seed", range(20))
    def test_widened_views_agree_with_glushkov(self, seed):
        model = _random_regex(random.Random(seed), 3)
        dtd = DTD({"r": model}, start="r", alphabet=set(UNMENTIONED))
        own = dtd.alphabet
        sigma = own | set(WIDENED)
        nfa = regex_to_nfa(model, own)
        view = dtd.content_dfa("r").complement()
        widened, back = view.complete(sigma), view.complement(sigma)
        letters = sorted(sigma)
        for length in range(4):
            for word in itertools.product(letters, repeat=length):
                over_own = all(symbol in own for symbol in word)
                in_view = over_own and not nfa.accepts(word)
                assert view.accepts(word) == in_view, word
                assert widened.accepts(word) == in_view, word
                assert back.accepts(word) == (not in_view), word


class TestViewsAsContentModels:
    """An authored complement DFA is a view; every engine must see its
    implicit sink moves, on the input and on the output side."""

    @pytest.fixture(scope="class")
    def identity(self):
        rules = {("q", s): (f"{s}(q)" if s == "r" else s) for s in "rabc"}
        return TreeTransducer({"q"}, set("rabc"), "q", rules)

    @pytest.fixture(scope="class")
    def not_a(self):
        return DFA.from_word(("a",), {"a", "b"}).complement()

    @pytest.mark.parametrize("method", ["forward", "backward", "auto"])
    def test_input_view_children_are_explored(self, identity, not_a, method):
        din = DTD({"r": not_a}, start="r")  # r(b) is valid ...
        dout = DTD({"r": "a*"}, start="r")  # ... and its copy is not
        oracle = typecheck(identity, din, dout, method="bruteforce")
        assert not oracle.typechecks
        assert typecheck(identity, din, dout, method=method).typechecks is False

    @pytest.mark.parametrize("method", ["forward", "backward", "auto"])
    def test_output_view_rejects_foreign_children(self, identity, not_a, method):
        din = DTD({"r": "c"}, start="r")
        dout = DTD({"r": not_a}, start="r", alphabet={"c"})
        oracle = typecheck(identity, din, dout, method="bruteforce")
        assert not oracle.typechecks
        assert typecheck(identity, din, dout, method=method).typechecks is False
