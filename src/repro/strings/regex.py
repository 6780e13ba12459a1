"""Regular expressions: AST, parser, and compilation to automata.

The library lets schemas be authored with ordinary regular expressions which
are then compiled to NFAs (Glushkov construction — ε-free, one state per
symbol occurrence) and further to DFAs.  This mirrors the paper's
parameterization of DTDs by a class of representations of regular languages:
``DTD(NFA)`` vs ``DTD(DFA)`` instances are obtained from the same textual
content models by choosing the compilation target.

Concrete syntax
---------------
* symbols: bare tokens over ``[A-Za-z0-9_#$]`` (e.g. ``title``, ``#``),
* concatenation: juxtaposition, whitespace or commas (``title author+``),
* union: ``|`` (the paper's infix ``+``; renamed to avoid clashing with the
  postfix iterator),
* postfix ``*``, ``+``, ``?``; grouping with parentheses,
* ``ε`` (or ``%e``): the empty word; ``∅`` (or ``%0``): the empty language.
"""

from __future__ import annotations

import re as _stdlib_re
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, Tuple

from repro.errors import ParseError
from repro.strings.dfa import DFA
from repro.strings.nfa import NFA


class Regex:
    """Base class of regular-expression AST nodes (immutable)."""

    __slots__ = ()

    # -- algebraic observers -------------------------------------------------
    def nullable(self) -> bool:
        """Whether ε belongs to the language."""
        raise NotImplementedError

    def symbols(self) -> FrozenSet[str]:
        """Alphabet symbols occurring in the expression."""
        raise NotImplementedError

    def _positions(self, counter: Iterator[int]) -> "Regex":
        """Copy of the AST with each symbol annotated by a unique position."""
        raise NotImplementedError

    # -- Glushkov sets (on position-annotated trees) -------------------------
    def _first(self) -> FrozenSet[Tuple[str, int]]:
        raise NotImplementedError

    def _last(self) -> FrozenSet[Tuple[str, int]]:
        raise NotImplementedError

    def _follow(self, into: Dict[int, set]) -> None:
        raise NotImplementedError

    # -- conveniences ---------------------------------------------------------
    def __or__(self, other: "Regex") -> "Regex":
        return Union((self, other))

    def then(self, other: "Regex") -> "Regex":
        return Concat((self, other))

    def star(self) -> "Regex":
        return Star(self)

    def plus(self) -> "Regex":
        return Plus(self)

    def opt(self) -> "Regex":
        return Optional(self)


@dataclass(frozen=True, slots=True)
class Empty(Regex):
    """The empty language ∅."""

    def nullable(self) -> bool:
        return False

    def symbols(self) -> FrozenSet[str]:
        return frozenset()

    def _positions(self, counter):
        return self

    def _first(self):
        return frozenset()

    def _last(self):
        return frozenset()

    def _follow(self, into):
        return None

    def __str__(self) -> str:
        return "∅"


@dataclass(frozen=True, slots=True)
class Epsilon(Regex):
    """The language {ε}."""

    def nullable(self) -> bool:
        return True

    def symbols(self) -> FrozenSet[str]:
        return frozenset()

    def _positions(self, counter):
        return self

    def _first(self):
        return frozenset()

    def _last(self):
        return frozenset()

    def _follow(self, into):
        return None

    def __str__(self) -> str:
        return "ε"


@dataclass(frozen=True, slots=True)
class Sym(Regex):
    """A single alphabet symbol (optionally position-annotated)."""

    name: str
    position: int | None = None

    def nullable(self) -> bool:
        return False

    def symbols(self) -> FrozenSet[str]:
        return frozenset({self.name})

    def _positions(self, counter):
        return Sym(self.name, next(counter))

    def _first(self):
        return frozenset({(self.name, self.position)})

    def _last(self):
        return frozenset({(self.name, self.position)})

    def _follow(self, into):
        into.setdefault(self.position, set())

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Concat(Regex):
    """Concatenation of two or more factors."""

    parts: Tuple[Regex, ...]

    def nullable(self) -> bool:
        return all(p.nullable() for p in self.parts)

    def symbols(self) -> FrozenSet[str]:
        out: FrozenSet[str] = frozenset()
        for p in self.parts:
            out |= p.symbols()
        return out

    def _positions(self, counter):
        return Concat(tuple(p._positions(counter) for p in self.parts))

    def _first(self):
        out: set = set()
        for p in self.parts:
            out |= p._first()
            if not p.nullable():
                break
        return frozenset(out)

    def _last(self):
        out: set = set()
        for p in reversed(self.parts):
            out |= p._last()
            if not p.nullable():
                break
        return frozenset(out)

    def _follow(self, into):
        for p in self.parts:
            p._follow(into)
        # Chain: last(p_i) × first(p_{i+1} ... skipping nullables).
        for i, p in enumerate(self.parts[:-1]):
            firsts: set = set()
            for q in self.parts[i + 1 :]:
                firsts |= q._first()
                if not q.nullable():
                    break
            for (_, pos) in p._last():
                into.setdefault(pos, set()).update(firsts)

    def __str__(self) -> str:
        rendered = []
        for p in self.parts:
            text = str(p)
            if isinstance(p, Union):
                text = f"({text})"
            rendered.append(text)
        return " ".join(rendered)


@dataclass(frozen=True, slots=True)
class Union(Regex):
    """Union (the paper's infix ``+``; written ``|`` in our syntax)."""

    parts: Tuple[Regex, ...]

    def nullable(self) -> bool:
        return any(p.nullable() for p in self.parts)

    def symbols(self) -> FrozenSet[str]:
        out: FrozenSet[str] = frozenset()
        for p in self.parts:
            out |= p.symbols()
        return out

    def _positions(self, counter):
        return Union(tuple(p._positions(counter) for p in self.parts))

    def _first(self):
        out: set = set()
        for p in self.parts:
            out |= p._first()
        return frozenset(out)

    def _last(self):
        out: set = set()
        for p in self.parts:
            out |= p._last()
        return frozenset(out)

    def _follow(self, into):
        for p in self.parts:
            p._follow(into)

    def __str__(self) -> str:
        return " | ".join(str(p) for p in self.parts)


def _wrap(inner: Regex) -> str:
    text = str(inner)
    if isinstance(inner, (Union, Concat)):
        return f"({text})"
    return text


@dataclass(frozen=True, slots=True)
class Star(Regex):
    """Kleene star."""

    inner: Regex

    def nullable(self) -> bool:
        return True

    def symbols(self) -> FrozenSet[str]:
        return self.inner.symbols()

    def _positions(self, counter):
        return Star(self.inner._positions(counter))

    def _first(self):
        return self.inner._first()

    def _last(self):
        return self.inner._last()

    def _follow(self, into):
        self.inner._follow(into)
        firsts = self.inner._first()
        for (_, pos) in self.inner._last():
            into.setdefault(pos, set()).update(firsts)

    def __str__(self) -> str:
        return f"{_wrap(self.inner)}*"


@dataclass(frozen=True, slots=True)
class Plus(Regex):
    """One-or-more iteration."""

    inner: Regex

    def nullable(self) -> bool:
        return self.inner.nullable()

    def symbols(self) -> FrozenSet[str]:
        return self.inner.symbols()

    def _positions(self, counter):
        return Plus(self.inner._positions(counter))

    def _first(self):
        return self.inner._first()

    def _last(self):
        return self.inner._last()

    def _follow(self, into):
        self.inner._follow(into)
        firsts = self.inner._first()
        for (_, pos) in self.inner._last():
            into.setdefault(pos, set()).update(firsts)

    def __str__(self) -> str:
        return f"{_wrap(self.inner)}+"


@dataclass(frozen=True, slots=True)
class Optional(Regex):
    """Zero-or-one occurrence."""

    inner: Regex

    def nullable(self) -> bool:
        return True

    def symbols(self) -> FrozenSet[str]:
        return self.inner.symbols()

    def _positions(self, counter):
        return Optional(self.inner._positions(counter))

    def _first(self):
        return self.inner._first()

    def _last(self):
        return self.inner._last()

    def _follow(self, into):
        self.inner._follow(into)

    def __str__(self) -> str:
        return f"{_wrap(self.inner)}?"


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_TOKEN = _stdlib_re.compile(
    r"\s*(?:(?P<sym>[A-Za-z0-9_#$]+)|(?P<eps>ε|%e)|(?P<emp>∅|%0)"
    r"|(?P<op>[()|*+?,]))"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            remainder = text[pos:].strip()
            if not remainder:
                break
            raise ParseError(f"cannot tokenize regex at ...{text[pos:pos + 12]!r}")
        pos = match.end()
        if match.lastgroup == "sym":
            tokens.append(("sym", match.group("sym")))
        elif match.lastgroup == "eps":
            tokens.append(("eps", "ε"))
        elif match.lastgroup == "emp":
            tokens.append(("emp", "∅"))
        else:
            op = match.group("op")
            if op != ",":  # commas are pure separators
                tokens.append(("op", op))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str]], source: str) -> None:
        self.tokens = tokens
        self.index = 0
        self.source = source

    def peek(self) -> tuple[str, str] | None:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def pop(self) -> tuple[str, str]:
        token = self.peek()
        if token is None:
            raise ParseError(f"unexpected end of regex {self.source!r}")
        self.index += 1
        return token

    def parse_union(self) -> Regex:
        parts = [self.parse_concat()]
        while self.peek() == ("op", "|"):
            self.pop()
            parts.append(self.parse_concat())
        if len(parts) == 1:
            return parts[0]
        return Union(tuple(parts))

    def parse_concat(self) -> Regex:
        parts: list[Regex] = []
        while True:
            token = self.peek()
            if token is None or token in (("op", "|"), ("op", ")")):
                break
            parts.append(self.parse_postfix())
        if not parts:
            return Epsilon()
        if len(parts) == 1:
            return parts[0]
        return Concat(tuple(parts))

    def parse_postfix(self) -> Regex:
        node = self.parse_atom()
        while True:
            token = self.peek()
            if token == ("op", "*"):
                self.pop()
                node = Star(node)
            elif token == ("op", "+"):
                self.pop()
                node = Plus(node)
            elif token == ("op", "?"):
                self.pop()
                node = Optional(node)
            else:
                return node

    def parse_atom(self) -> Regex:
        kind, value = self.pop()
        if kind == "sym":
            return Sym(value)
        if kind == "eps":
            return Epsilon()
        if kind == "emp":
            return Empty()
        if (kind, value) == ("op", "("):
            inner = self.parse_union()
            closing = self.pop()
            if closing != ("op", ")"):
                raise ParseError(f"expected ')' in regex {self.source!r}")
            return inner
        raise ParseError(f"unexpected token {value!r} in regex {self.source!r}")


def parse_regex(text: str) -> Regex:
    """Parse the concrete syntax described in the module docstring."""
    parser = _Parser(_tokenize(text), text)
    node = parser.parse_union()
    if parser.peek() is not None:
        raise ParseError(f"trailing input in regex {text!r}")
    return node


# ---------------------------------------------------------------------------
# Compilation (Glushkov construction)
# ---------------------------------------------------------------------------


def regex_to_nfa(expr: Regex | str, alphabet=()) -> NFA:
    """Glushkov automaton of ``expr`` — ε-free, ``#positions + 1`` states.

    The automaton's alphabet is the union of the expression's symbols and the
    optional extra ``alphabet``.
    """
    if isinstance(expr, str):
        expr = parse_regex(expr)
    symbols = expr.symbols()
    sigma = frozenset(alphabet)
    if not symbols <= sigma:
        sigma |= symbols

    counter = iter(range(1, 10**9))
    annotated = expr._positions(counter)
    first = annotated._first()
    last = annotated._last()
    follow: Dict[int, set] = {}
    annotated._follow(follow)

    label: Dict[int, str] = {}

    def record_labels(node: Regex) -> None:
        if isinstance(node, Sym):
            label[node.position] = node.name  # type: ignore[index]
        elif isinstance(node, (Concat, Union)):
            for part in node.parts:
                record_labels(part)
        elif isinstance(node, (Star, Plus, Optional)):
            record_labels(node.inner)

    record_labels(annotated)

    start = 0
    states = {start} | set(label)
    transitions: Dict[int, Dict[str, set]] = {start: {}}
    for (symbol, pos) in first:
        transitions[start].setdefault(symbol, set()).add(pos)
    for pos, successors in follow.items():
        row = transitions.setdefault(pos, {})
        for (symbol, succ) in successors:
            row.setdefault(symbol, set()).add(succ)
    finals = {pos for (_, pos) in last}
    if expr.nullable():
        finals.add(start)
    return NFA(states, sigma, transitions, {start}, finals)


def regex_to_dfa(expr: Regex | str, alphabet=(), minimize: bool = True) -> DFA:
    """Compile ``expr`` to a DFA (Glushkov + subset construction).

    The DFA's alphabet is ``alphabet`` plus the expression's symbols, but
    it stores moves only on the symbols ``expr`` mentions: any other
    symbol kills the run, and :meth:`DFA.complete` gives the total view
    with an implicit sink.  With ``minimize=True`` (default) the result is
    the canonical minimal trim DFA (:meth:`DFA.minimize`), which keeps the
    DTD(DFA) instances small and reproducible; otherwise the subset
    automaton, renumbered.
    """
    dfa = regex_to_nfa(expr, alphabet).determinize()
    return dfa.minimize() if minimize else dfa.renumber()
