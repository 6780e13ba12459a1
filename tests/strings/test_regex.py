"""Unit and property tests for :mod:`repro.strings.regex`."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ParseError
from repro.strings import (
    Concat,
    Epsilon,
    Plus,
    Star,
    Sym,
    Union,
    parse_regex,
    regex_to_dfa,
    regex_to_nfa,
)
from repro.strings.regex import Empty, Optional


class TestParser:
    def test_single_symbol(self):
        assert parse_regex("a") == Sym("a")

    def test_multichar_symbols(self):
        expr = parse_regex("title author+ chapter+")
        assert expr == Concat((Sym("title"), Plus(Sym("author")), Plus(Sym("chapter"))))

    def test_commas_are_separators(self):
        assert parse_regex("a, b, c") == parse_regex("a b c")

    def test_union_and_grouping(self):
        expr = parse_regex("(section | table | figure)*")
        assert expr == Star(Union((Sym("section"), Sym("table"), Sym("figure"))))

    def test_example_11_output_dtd(self):
        # book → title, (chapter, title*)*, chapter*
        expr = parse_regex("title (chapter title*)* chapter*")
        assert isinstance(expr, Concat)
        assert len(expr.parts) == 3

    def test_epsilon_and_empty(self):
        assert parse_regex("ε") == Epsilon()
        assert parse_regex("%e") == Epsilon()
        assert parse_regex("∅") == Empty()
        assert parse_regex("%0") == Empty()

    def test_optional(self):
        assert parse_regex("a?") == Optional(Sym("a"))

    def test_hash_and_dollar_symbols(self):
        # din(#) = # + Δ* from Theorem 18 (paper's infix + is our |).
        expr = parse_regex("# | $*")
        assert expr == Union((Sym("#"), Star(Sym("$"))))

    def test_empty_input_is_epsilon(self):
        assert parse_regex("") == Epsilon()

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            parse_regex("(a")
        with pytest.raises(ParseError):
            parse_regex("a)")

    def test_bad_character(self):
        with pytest.raises(ParseError):
            parse_regex("a & b")

    def test_str_roundtrip(self):
        for text in ["a b c", "a | b", "(a | b)* c+", "a? (b c)+"]:
            expr = parse_regex(text)
            assert parse_regex(str(expr)) == expr


class TestNullable:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("ε", True),
            ("a", False),
            ("a*", True),
            ("a+", False),
            ("a?", True),
            ("a | b*", True),
            ("a b*", False),
            ("a* b*", True),
            ("∅", False),
        ],
    )
    def test_nullable(self, text, expected):
        assert parse_regex(text).nullable() is expected


class TestGlushkov:
    def test_nfa_accepts(self):
        nfa = regex_to_nfa("a (b | c)* d")
        assert nfa.accepts(["a", "d"])
        assert nfa.accepts(["a", "b", "c", "b", "d"])
        assert not nfa.accepts(["a", "b"])
        assert not nfa.accepts(["d"])

    def test_glushkov_state_count(self):
        # One state per symbol occurrence plus the initial state.
        nfa = regex_to_nfa("a (b | c)* d")
        assert len(nfa.states) == 5

    def test_plus_requires_one(self):
        nfa = regex_to_nfa("a+")
        assert not nfa.accepts([])
        assert nfa.accepts(["a"])
        assert nfa.accepts(["a", "a", "a"])

    def test_optional(self):
        nfa = regex_to_nfa("a? b")
        assert nfa.accepts(["b"])
        assert nfa.accepts(["a", "b"])
        assert not nfa.accepts(["a"])

    def test_empty_language(self):
        nfa = regex_to_nfa("∅")
        assert nfa.is_empty()

    def test_concat_of_nullables(self):
        nfa = regex_to_nfa("a* b* c*")
        assert nfa.accepts([])
        assert nfa.accepts(["b", "c"])
        assert nfa.accepts(["a", "c"])
        assert not nfa.accepts(["c", "a"])

    def test_nested_iteration(self):
        nfa = regex_to_nfa("(a b+)+")
        assert nfa.accepts(["a", "b"])
        assert nfa.accepts(["a", "b", "b", "a", "b"])
        assert not nfa.accepts(["a"])
        assert not nfa.accepts(["b", "a"])

    def test_extra_alphabet(self):
        nfa = regex_to_nfa("a", alphabet={"z"})
        assert "z" in nfa.alphabet
        assert not nfa.accepts(["z"])

    def test_dfa_compilation(self):
        dfa = regex_to_dfa("title author+ chapter+")
        assert dfa.accepts(["title", "author", "chapter"])
        assert dfa.accepts(["title", "author", "author", "chapter", "chapter"])
        assert not dfa.accepts(["title", "chapter"])
        assert not dfa.accepts(["author", "chapter"])


# ---------------------------------------------------------------------------
# Property tests: the regex AST agrees with the compiled automata.
# ---------------------------------------------------------------------------

_symbols = st.sampled_from(["a", "b", "c"])


def _regex_strategy():
    return st.recursive(
        st.one_of(
            _symbols.map(Sym),
            st.just(Epsilon()),
        ),
        lambda children: st.one_of(
            st.tuples(children, children).map(lambda p: Concat(p)),
            st.tuples(children, children).map(lambda p: Union(p)),
            children.map(Star),
            children.map(Plus),
            children.map(Optional),
        ),
        max_leaves=6,
    )


def _language_of(expr, max_len):
    """Naive denotational semantics for cross-checking the compilers."""
    if isinstance(expr, Empty):
        return set()
    if isinstance(expr, Epsilon):
        return {()}
    if isinstance(expr, Sym):
        return {(expr.name,)}
    if isinstance(expr, Concat):
        result = {()}
        for part in expr.parts:
            right = _language_of(part, max_len)
            result = {
                l + r for l in result for r in right if len(l) + len(r) <= max_len
            }
        return result
    if isinstance(expr, Union):
        out = set()
        for part in expr.parts:
            out |= _language_of(part, max_len)
        return out
    if isinstance(expr, Star):
        base = _language_of(expr.inner, max_len)
        result = {()}
        frontier = {()}
        while frontier:
            fresh = set()
            for word in frontier:
                for extra in base:
                    combined = word + extra
                    if len(combined) <= max_len and combined not in result:
                        fresh.add(combined)
            result |= fresh
            frontier = fresh
        return result
    if isinstance(expr, Plus):
        star = _language_of(Star(expr.inner), max_len)
        base = _language_of(expr.inner, max_len)
        return {w + e for w in star for e in base if len(w) + len(e) <= max_len}
    if isinstance(expr, Optional):
        return {()} | _language_of(expr.inner, max_len)
    raise AssertionError(f"unknown node {expr!r}")


@settings(max_examples=60, deadline=None)
@given(expr=_regex_strategy())
def test_glushkov_matches_denotational_semantics(expr):
    max_len = 4
    expected = _language_of(expr, max_len)
    nfa = regex_to_nfa(expr, alphabet={"a", "b", "c"})
    actual = set(nfa.iter_words(max_len))
    assert actual == expected


@settings(max_examples=40, deadline=None)
@given(expr=_regex_strategy())
def test_dfa_equals_nfa(expr):
    nfa = regex_to_nfa(expr, alphabet={"a", "b", "c"})
    dfa = regex_to_dfa(expr, alphabet={"a", "b", "c"})
    assert set(nfa.iter_words(3)) == set(dfa.iter_words(3))
