"""Compilation of filter-free patterns to path automata.

A filter-free pattern denotes a regular set of *label paths*: the sequence of
labels from (exclusively) the context node down to (inclusively) the selected
node.  This is the semantics of the paper's *selecting DFAs* (Section 4,
discussion before Theorem 29: "a descendant v of u is selected iff A accepts
the string of labels on the path from u to v"); Theorem 23 uses the special
case XPath{/, ∗} and the remark after Theorem 29 cites Green et al. for
XPath{/, //, ∗}.

Filters and general disjunction-with-filters are *not* path-regular; for
those, only the exact semantics of :mod:`repro.xpath.semantics` applies.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable

from repro.errors import NotSupportedError
from repro.strings.dfa import DFA
from repro.strings.nfa import NFA
from repro.strings.regex import (
    Concat,
    Regex,
    Star,
    Sym,
    Union,
    regex_to_nfa,
)
from repro.xpath.ast import Child, Desc, Disj, Filter, Pattern, Phi, Test, Wildcard


def is_filter_free(pattern: Pattern) -> bool:
    """Whether the pattern avoids filters entirely."""

    def walk(phi: Phi) -> bool:
        if isinstance(phi, (Test, Wildcard)):
            return True
        if isinstance(phi, (Disj, Child, Desc)):
            return walk(phi.left) and walk(phi.right)
        if isinstance(phi, Filter):
            return False
        raise AssertionError(f"unknown φ node {phi!r}")

    return walk(pattern.phi)


def pattern_fragment(pattern: Pattern) -> FrozenSet[str]:
    """The axes/operations used: subset of {'/', '//', '[]', '|', '*'}.

    The leading axis of the pattern counts, matching the paper's convention
    that element tests plus one axis are always available.
    """
    used = {"//" if pattern.descendant else "/"}

    def walk(phi: Phi) -> None:
        if isinstance(phi, Test):
            return
        if isinstance(phi, Wildcard):
            used.add("*")
            return
        if isinstance(phi, Disj):
            used.add("|")
            walk(phi.left)
            walk(phi.right)
            return
        if isinstance(phi, Child):
            used.add("/")
        elif isinstance(phi, Desc):
            used.add("//")
        elif isinstance(phi, Filter):
            used.add("[]")
            walk(phi.inner)
            predicate = phi.predicate
            used.add("//" if predicate.descendant else "/")
            walk(predicate.phi)
            return
        walk(phi.left)  # type: ignore[union-attr]
        walk(phi.right)  # type: ignore[union-attr]
    walk(pattern.phi)
    return frozenset(used)


def _any_symbol(alphabet: Iterable[str]) -> Regex:
    symbols = sorted(set(alphabet))
    if not symbols:
        raise NotSupportedError("wildcard/descendant compilation needs an alphabet")
    if len(symbols) == 1:
        return Sym(symbols[0])
    return Union(tuple(Sym(s) for s in symbols))


def pattern_to_regex(pattern: Pattern, alphabet: Iterable[str]) -> Regex:
    """The label-path regular expression of a filter-free pattern.

    Raises :class:`NotSupportedError` on filters (not path-regular).
    """
    sigma = frozenset(alphabet) | pattern.symbols()

    def walk(phi: Phi) -> Regex:
        if isinstance(phi, Test):
            return Sym(phi.name)
        if isinstance(phi, Wildcard):
            return _any_symbol(sigma)
        if isinstance(phi, Disj):
            return Union((walk(phi.left), walk(phi.right)))
        if isinstance(phi, Child):
            return Concat((walk(phi.left), walk(phi.right)))
        if isinstance(phi, Desc):
            return Concat((walk(phi.left), Star(_any_symbol(sigma)), walk(phi.right)))
        if isinstance(phi, Filter):
            raise NotSupportedError("filters are not path-regular")
        raise AssertionError(f"unknown φ node {phi!r}")

    body = walk(pattern.phi)
    if pattern.descendant:
        return Concat((Star(_any_symbol(sigma)), body))
    return body


def pattern_to_nfa(pattern: Pattern, alphabet: Iterable[str]) -> NFA:
    """Glushkov NFA of the label-path language."""
    sigma = frozenset(alphabet) | pattern.symbols()
    return regex_to_nfa(pattern_to_regex(pattern, sigma), sigma)


def pattern_to_dfa(pattern: Pattern, alphabet: Iterable[str], minimize: bool = True) -> DFA:
    """Selecting DFA of the label-path language.

    For XPath{/, ∗} this is the linear-size acyclic DFA of Theorem 23; for
    XPath{/, //, ∗} the size can blow up as O(n^c) in the number of
    wildcards between descendant axes (Green et al., cited in §4).
    """
    sigma = frozenset(alphabet) | pattern.symbols()
    dfa = pattern_to_nfa(pattern, sigma).determinize()
    return dfa.minimize() if minimize else dfa.renumber()
