"""RE⁺ expressions — Section 5 of the paper.

``RE⁺`` is the set of regular expressions of the form ``α₁ ⋯ α_k`` where every
``α_i`` is ``ε``, ``a`` or ``a⁺`` for an alphabet symbol ``a`` (e.g. the
content model ``title author+ chapter+``).

The module implements the calculus developed in Section 5:

* the *normal form* — factors ``a=i`` (exactly ``i``) and ``a≥i`` obtained by
  merging adjacent factors over the same symbol;
* the *minimal string* ``e_min`` and *vast strings* (Lemma 31);
* PTIME membership, inclusion, equivalence and intersection;
* compilation to a linear-size DFA (used to cross-check the calculus).
"""

from __future__ import annotations

import re as _stdlib_re
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.errors import ParseError
from repro.strings.dfa import DFA
from repro.strings.regex import Concat, Epsilon, Plus, Regex, Sym


@dataclass(frozen=True, slots=True)
class REPlusFactor:
    """A normalized factor ``symbol=count`` (exact) or ``symbol≥count``."""

    symbol: str
    count: int
    exact: bool

    def __str__(self) -> str:
        relation = "=" if self.exact else "≥"
        return f"{self.symbol}{relation}{self.count}"


class REPlus:
    """An RE⁺ expression in normal form.

    Construct from raw ``(symbol, is_plus)`` factors via :meth:`from_factors`,
    from text via :func:`parse_replus`, or directly from normalized factors.
    """

    __slots__ = ("factors",)

    def __init__(self, factors: Iterable[REPlusFactor]) -> None:
        normalized: List[REPlusFactor] = []
        for factor in factors:
            if factor.count < 0 or (factor.count == 0 and factor.exact):
                raise ParseError(f"invalid factor {factor}")
            if normalized and normalized[-1].symbol == factor.symbol:
                previous = normalized.pop()
                normalized.append(
                    REPlusFactor(
                        factor.symbol,
                        previous.count + factor.count,
                        previous.exact and factor.exact,
                    )
                )
            else:
                normalized.append(factor)
        self.factors: Tuple[REPlusFactor, ...] = tuple(normalized)

    # ------------------------------------------------------------------
    @staticmethod
    def from_factors(raw: Iterable[Tuple[str, bool]]) -> "REPlus":
        """Build from raw paper-level factors ``(a, is_plus)``."""
        return REPlus(
            REPlusFactor(symbol, 1, not is_plus) for symbol, is_plus in raw
        )

    @staticmethod
    def epsilon() -> "REPlus":
        """The RE⁺ expression denoting {ε}."""
        return REPlus(())

    # ------------------------------------------------------------------
    def __str__(self) -> str:
        if not self.factors:
            return "ε"
        parts: List[str] = []
        for factor in self.factors:
            if factor.exact:
                parts.extend([factor.symbol] * factor.count)
            else:
                parts.extend([factor.symbol] * (factor.count - 1))
                parts.append(f"{factor.symbol}+")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"REPlus({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, REPlus):
            return NotImplemented
        return self.factors == other.factors

    def __hash__(self) -> int:
        return hash(self.factors)

    # ------------------------------------------------------------------
    def symbols(self) -> frozenset:
        """Symbols occurring in the expression (all occur in every word)."""
        return frozenset(f.symbol for f in self.factors)

    def min_string(self) -> Tuple[str, ...]:
        """The minimal string ``e_min`` (Section 5)."""
        out: List[str] = []
        for factor in self.factors:
            out.extend([factor.symbol] * factor.count)
        return tuple(out)

    def vast_string(self, slack: int = 1) -> Tuple[str, ...]:
        """An ``e``-vast string: ``y_i > x_i`` on every ``≥`` block.

        ``slack`` controls how far beyond the minimum the ``≥`` blocks go.
        """
        if slack < 1:
            raise ValueError("slack must be at least 1")
        out: List[str] = []
        for factor in self.factors:
            count = factor.count if factor.exact else factor.count + slack
            out.extend([factor.symbol] * count)
        return tuple(out)

    def is_vast(self, word: Sequence[str]) -> bool:
        """Whether ``word`` is vast w.r.t. this expression (Section 5)."""
        blocks = _blocks(word)
        if len(blocks) != len(self.factors):
            return False
        for (symbol, count), factor in zip(blocks, self.factors):
            if symbol != factor.symbol:
                return False
            if factor.exact and count != factor.count:
                return False
            if not factor.exact and count <= factor.count:
                return False
        return True

    # ------------------------------------------------------------------
    def accepts(self, word: Sequence[str]) -> bool:
        """Linear-time membership via block decomposition."""
        blocks = _blocks(word)
        if len(blocks) != len(self.factors):
            return False
        for (symbol, count), factor in zip(blocks, self.factors):
            if symbol != factor.symbol:
                return False
            if factor.exact:
                if count != factor.count:
                    return False
            elif count < factor.count:
                return False
        return True

    def contains(self, other: "REPlus") -> bool:
        """Whether ``L(other) ⊆ L(self)`` — block-wise test, PTIME.

        Equivalent, by Lemma 31, to checking that ``other``'s minimal and
        vast strings belong to ``self`` (see :meth:`contains_by_lemma31`).
        """
        if len(self.factors) != len(other.factors):
            return False
        for mine, theirs in zip(self.factors, other.factors):
            if mine.symbol != theirs.symbol:
                return False
            if mine.exact:
                if not (theirs.exact and theirs.count == mine.count):
                    return False
            elif theirs.count < mine.count:
                return False
        return True

    def contains_by_lemma31(self, other: "REPlus") -> bool:
        """Inclusion test through Lemma 31: ``{e_min, e_vast} ⊆ L(self)``."""
        return self.accepts(other.min_string()) and self.accepts(other.vast_string())

    def equivalent(self, other: "REPlus") -> bool:
        """Language equivalence (normal forms are canonical, so ``==``)."""
        return self.factors == other.factors

    def intersect(self, other: "REPlus") -> "REPlus | None":
        """The intersection as an RE⁺ expression, or ``None`` when empty.

        RE⁺ languages are closed under intersection: block sequences must
        agree symbol-wise and the per-block constraints conjoin.
        """
        if len(self.factors) != len(other.factors):
            return None
        merged: List[REPlusFactor] = []
        for mine, theirs in zip(self.factors, other.factors):
            if mine.symbol != theirs.symbol:
                return None
            if mine.exact and theirs.exact:
                if mine.count != theirs.count:
                    return None
                merged.append(mine)
            elif mine.exact:
                if mine.count < theirs.count:
                    return None
                merged.append(mine)
            elif theirs.exact:
                if theirs.count < mine.count:
                    return None
                merged.append(theirs)
            else:
                merged.append(
                    REPlusFactor(mine.symbol, max(mine.count, theirs.count), False)
                )
        return REPlus(merged)

    # ------------------------------------------------------------------
    def to_regex(self) -> Regex:
        """The expression as a generic :class:`~repro.strings.regex.Regex`."""
        parts: List[Regex] = []
        for factor in self.factors:
            if factor.exact:
                parts.extend([Sym(factor.symbol)] * factor.count)
            else:
                parts.extend([Sym(factor.symbol)] * (factor.count - 1))
                parts.append(Plus(Sym(factor.symbol)))
        if not parts:
            return Epsilon()
        if len(parts) == 1:
            return parts[0]
        return Concat(tuple(parts))

    def to_dfa(self, alphabet: Iterable[str] = ()) -> DFA:
        """Linear-size DFA: a chain with self-loops on ``≥`` block ends,
        storing moves only on the expression's symbols (the rest of
        ``alphabet`` kills the run)."""
        symbols = self.symbols()
        sigma = frozenset(alphabet)
        if not symbols <= sigma:
            sigma |= symbols
        transitions: Dict[Tuple[int, str], int] = {}
        state = 0
        for factor in self.factors:
            for _ in range(factor.count):
                transitions[(state, factor.symbol)] = state + 1
                state += 1
            if not factor.exact:
                transitions[(state, factor.symbol)] = state
        return DFA._trusted(range(state + 1), sigma, transitions, 0, {state})

    def iter_words(self, max_length: int) -> Iterator[Tuple[str, ...]]:
        """All words up to ``max_length`` (testing helper)."""
        return self.to_dfa().iter_words(max_length)


def _blocks(word: Sequence[str]) -> List[Tuple[str, int]]:
    """Maximal blocks of equal adjacent symbols, e.g. ``aab`` ↦ [(a,2),(b,1)]."""
    blocks: List[Tuple[str, int]] = []
    for symbol in word:
        if blocks and blocks[-1][0] == symbol:
            blocks[-1] = (symbol, blocks[-1][1] + 1)
        else:
            blocks.append((symbol, 1))
    return blocks


_FACTOR = _stdlib_re.compile(r"\s*(?:(?P<sym>[A-Za-z0-9_#$]+)(?P<plus>\+)?|(?P<eps>ε|%e)|(?P<sep>,))")


def parse_replus(text: str) -> REPlus:
    """Parse the paper syntax, e.g. ``"title author+ chapter+"``.

    Only the RE⁺ operations are allowed; anything else raises
    :class:`~repro.errors.ParseError`.
    """
    raw: List[Tuple[str, bool]] = []
    pos = 0
    while pos < len(text):
        match = _FACTOR.match(text, pos)
        if match is None:
            remainder = text[pos:].strip()
            if not remainder:
                break
            raise ParseError(f"not an RE+ expression at ...{text[pos:pos + 12]!r}")
        pos = match.end()
        if match.group("sym"):
            raw.append((match.group("sym"), bool(match.group("plus"))))
    return REPlus.from_factors(raw)


def regex_is_replus(expr: Regex) -> bool:
    """Whether a generic regex AST is (syntactically) an RE⁺ expression."""
    if isinstance(expr, (Epsilon, Sym)):
        return True
    if isinstance(expr, Plus):
        return isinstance(expr.inner, Sym)
    if isinstance(expr, Concat):
        return all(regex_is_replus(p) for p in expr.parts)
    return False


def replus_from_regex(expr: Regex) -> REPlus:
    """Convert a generic regex AST that is RE⁺-shaped; raise otherwise."""
    raw: List[Tuple[str, bool]] = []

    def walk(node: Regex) -> None:
        if isinstance(node, Epsilon):
            return
        if isinstance(node, Sym):
            raw.append((node.name, False))
            return
        if isinstance(node, Plus) and isinstance(node.inner, Sym):
            raw.append((node.inner.name, True))
            return
        if isinstance(node, Concat):
            for part in node.parts:
                walk(part)
            return
        raise ParseError(f"{node} is not an RE+ expression")

    walk(expr)
    return REPlus.from_factors(raw)
