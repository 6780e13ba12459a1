"""Unranked Σ-trees and hedges (Section 2.1).

A tree is ``a(t₁ ⋯ t_n)`` — a root labeled ``a`` with an arbitrary, unbounded
number of ordered subtrees.  The paper's "empty tree ε" is represented by the
*empty hedge* ``()``: hedges are plain Python tuples of :class:`Tree`, so the
hedge algebra (concatenation, ``top``) is tuple algebra.

Node addresses are Dewey paths: the root is ``()`` and the ``i``-th child of
``u`` is ``u + (i,)`` (0-based; the paper's node ``u·(i+1)``).
"""

from __future__ import annotations

import re as _stdlib_re
from typing import Dict, Iterator, Sequence, Tuple

from repro.errors import ParseError

Path = Tuple[int, ...]
Hedge = Tuple["Tree", ...]


class Tree:
    """An immutable unranked tree: a label and a tuple of subtrees."""

    __slots__ = ("label", "children", "_hash")

    def __init__(self, label: str, children: Sequence["Tree"] = ()) -> None:
        self.label = label
        self.children: Hedge = tuple(children)
        for child in self.children:
            if not isinstance(child, Tree):
                raise TypeError(f"child {child!r} is not a Tree")
        self._hash: int | None = None

    # ------------------------------------------------------------------
    # Value semantics
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tree):
            return NotImplemented
        if self is other:
            return True
        # Iterative comparison to survive deep trees.
        stack = [(self, other)]
        while stack:
            left, right = stack.pop()
            if left is right:
                continue
            if left.label != right.label or len(left.children) != len(right.children):
                return False
            stack.extend(zip(left.children, right.children))
        return True

    def __hash__(self) -> int:
        if self._hash is None:
            # Post-order over the unhashed descendants, so each tuple hash
            # reads cached child hashes: no recursion, the same value.
            stack = [(self, iter(self.children))]
            while stack:
                node, children = stack[-1]
                for child in children:
                    if child._hash is None:
                        if child.children:
                            stack.append((child, iter(child.children)))
                            break
                        child._hash = hash((child.label, ()))
                else:
                    stack.pop()
                    node._hash = hash((node.label, node.children))
        return self._hash

    def __repr__(self) -> str:
        return f"Tree({str(self)!r})"

    def __str__(self) -> str:
        # An explicit stack of nodes and literal text, so deep trees print.
        parts = []
        stack: list = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                parts.append(item)
            elif not item.children:
                parts.append(item.label)
            else:
                parts.append(item.label + "(")
                stack.append(")")
                for child in reversed(item.children[1:]):
                    stack += [child, " "]
                stack.append(item.children[0])
        return "".join(parts)

    # ------------------------------------------------------------------
    # Paper notions
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of nodes."""
        count = 0
        stack = [self]
        while stack:
            node = stack.pop()
            count += 1
            stack.extend(node.children)
        return count

    @property
    def depth(self) -> int:
        """Depth as in the paper: a single-node tree has depth 1."""
        best = 0
        stack = [(self, 1)]
        while stack:
            node, level = stack.pop()
            if level > best:
                best = level
            for child in node.children:
                stack.append((child, level + 1))
        return best

    def dom(self) -> Iterator[Path]:
        """Dom(t): all node addresses in preorder."""
        stack: list[tuple[Tree, Path]] = [(self, ())]
        while stack:
            node, path = stack.pop()
            yield path
            for index in range(len(node.children) - 1, -1, -1):
                stack.append((node.children[index], path + (index,)))

    def nodes(self) -> Iterator[Tuple[Path, "Tree"]]:
        """All ``(address, subtree)`` pairs in preorder."""
        stack: list[tuple[Tree, Path]] = [(self, ())]
        while stack:
            node, path = stack.pop()
            yield path, node
            for index in range(len(node.children) - 1, -1, -1):
                stack.append((node.children[index], path + (index,)))

    def subtree(self, path: Path) -> "Tree":
        """The subtree ``t/u`` rooted at address ``path``."""
        node = self
        for index in path:
            try:
                node = node.children[index]
            except IndexError:
                raise KeyError(f"no node at address {path}") from None
        return node

    def label_at(self, path: Path) -> str:
        """``lab_t(u)``."""
        return self.subtree(path).label

    def replace(self, path: Path, replacement: "Tree") -> "Tree":
        """A copy of the tree with the subtree at ``path`` replaced."""
        if not path:
            return replacement
        index, rest = path[0], path[1:]
        if index >= len(self.children):
            raise KeyError(f"no node at address {path}")
        children = list(self.children)
        children[index] = children[index].replace(rest, replacement)
        return Tree(self.label, children)

    def labels(self) -> Dict[str, int]:
        """Multiset of labels (label → occurrence count)."""
        out: Dict[str, int] = {}
        stack = [self]
        while stack:
            node = stack.pop()
            out[node.label] = out.get(node.label, 0) + 1
            stack.extend(node.children)
        return out


def hedge_top(hedge: Hedge) -> Tuple[str, ...]:
    """``top(h)``: the string of root labels of the hedge (Section 2.1)."""
    return tuple(tree.label for tree in hedge)


def hedge_str(hedge: Hedge) -> str:
    """Render a hedge in the paper's term syntax."""
    return " ".join(str(tree) for tree in hedge)


def hedge_depth(hedge: Hedge) -> int:
    """Depth of a hedge: maximum depth of its trees (0 for the empty hedge)."""
    return max((tree.depth for tree in hedge), default=0)


def hedge_size(hedge: Hedge) -> int:
    """Total number of nodes in the hedge."""
    return sum(tree.size for tree in hedge)


# ---------------------------------------------------------------------------
# Parsing the paper's term syntax: a(b c(d e))
# ---------------------------------------------------------------------------

_TOKEN = _stdlib_re.compile(r"\s*(?:(?P<sym>[A-Za-z0-9_#$\-]+)|(?P<op>[(),]))")


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            remainder = text[pos:].strip()
            if not remainder:
                break
            raise ParseError(f"cannot tokenize tree at ...{text[pos:pos + 12]!r}")
        pos = match.end()
        if match.group("sym"):
            tokens.append(("sym", match.group("sym")))
        elif match.group("op") != ",":
            tokens.append(("op", match.group("op")))
    return tokens


def _parse_hedge_tokens(tokens: list[tuple[str, str]]) -> tuple[Hedge, int]:
    """The leading hedge of ``tokens`` and the index just past it.

    An explicit stack of open nodes (label, the siblings before it) keeps
    arbitrarily deep terms — served counterexamples included — off the
    interpreter's recursion limit.
    """
    open_nodes: list[tuple[str, list[Tree]]] = []
    trees: list[Tree] = []
    index = 0
    while index < len(tokens):
        kind, value = tokens[index]
        if (kind, value) == ("op", ")"):
            if not open_nodes:
                break
            label, siblings = open_nodes.pop()
            siblings.append(Tree(label, trees))
            trees = siblings
        elif kind != "sym":
            raise ParseError(f"unexpected token {value!r} in tree term")
        elif index + 1 < len(tokens) and tokens[index + 1] == ("op", "("):
            open_nodes.append((value, trees))
            trees = []
            index += 1
        else:
            trees.append(Tree(value))
        index += 1
    if open_nodes:
        raise ParseError("unbalanced parentheses in tree term")
    return tuple(trees), index


def parse_hedge(text: str) -> Hedge:
    """Parse a hedge in term syntax, e.g. ``"a(b) c"``.

    The empty string denotes the empty hedge (the paper's ε).
    """
    tokens = _tokenize(text)
    hedge, index = _parse_hedge_tokens(tokens)
    if index != len(tokens):
        raise ParseError(f"trailing input in tree term {text!r}")
    return hedge


def parse_tree(text: str) -> Tree:
    """Parse a single tree in term syntax, e.g. ``"a(b c(d e))"``."""
    hedge = parse_hedge(text)
    if len(hedge) != 1:
        raise ParseError(
            f"expected exactly one tree, got a hedge of {len(hedge)} trees"
        )
    return hedge[0]
