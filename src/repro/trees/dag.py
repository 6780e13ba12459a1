"""DAG/SLP-compressed trees and hedges.

Section 5/6 of the paper work with the witness trees ``t_min_a`` and
``t_vast_a`` whose *unfolded* size can be exponential (``t_vast`` duplicates
every ⁺-child), but which the paper notes are "easily represented by a
polynomial sized extended context free grammar".  This module is that
representation: trees and hedges as DAGs with explicit sharing.

* :class:`DagTree` — a labeled node whose children form a :class:`DagHedge`;
* :class:`DagHedge` — a concatenation of parts, each a tree or another hedge
  (a straight-line program for the child sequence).

All analyses (unfolded size, DFA runs over the ``top`` word, DTD validation,
transducer application in :mod:`repro.core.replus`) are memoized on node
*identity*, so shared subdags are processed once and everything stays
polynomial in the DAG size.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple, Union

from repro.errors import BudgetExceededError
from repro.strings.dfa import DFA
from repro.trees.tree import Tree

DagPart = Union["DagTree", "DagHedge"]


#: Unfoldings at most this large render as explicit term syntax in ``str()``.
STR_UNFOLD_BUDGET = 10_000


class DagTree:
    """A tree node in the DAG: label plus a (shared) child hedge.

    Equality is *structural on the unfolding*: two dags (or a dag and an
    explicit :class:`Tree`) compare equal iff their unfolded trees are
    equal, memoized on node-identity pairs so aligned shared subdags are
    compared once.  Note that hashes are **not** compatible with
    :class:`Tree` hashes — do not mix dags and explicit trees as keys of
    one dict.
    """

    __slots__ = ("label", "children")

    def __init__(self, label: str, children: "DagHedge | None" = None) -> None:
        self.label = label
        self.children: DagHedge = children if children is not None else DagHedge(())

    def __repr__(self) -> str:
        return f"DagTree({self.label!r})"

    def __str__(self) -> str:
        size = unfolded_size(self)
        if size <= STR_UNFOLD_BUDGET:
            return str(unfold_tree(self, STR_UNFOLD_BUDGET))
        distinct = len(distinct_tree_nodes(self))
        return (
            f"<dag {self.label}: {size} unfolded nodes, "
            f"{distinct} distinct>"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (DagTree, Tree)):
            return NotImplemented
        return dag_equal(self, other)

    def __hash__(self) -> int:
        return hash((self.label, unfolded_size(self)))

    @property
    def size(self) -> int:
        """Number of nodes of the unfolding (exact, possibly huge)."""
        return unfolded_size(self)

    @property
    def depth(self) -> int:
        """Depth of the unfolding (paper convention: single node is 1)."""
        return dag_depth(self)

    def __reduce__(self):
        return _rebuild_dag, (_flatten_dag(self),)


class DagHedge:
    """A concatenation of trees and hedges (an SLP for a child sequence)."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[DagPart] = ()) -> None:
        self.parts: Tuple[DagPart, ...] = tuple(parts)
        for part in self.parts:
            if not isinstance(part, (DagTree, DagHedge)):
                raise TypeError(f"part {part!r} is not a DagTree or DagHedge")

    def __repr__(self) -> str:
        return f"DagHedge({len(self.parts)} parts)"

    @staticmethod
    def of(*parts: DagPart) -> "DagHedge":
        return DagHedge(parts)

    def __reduce__(self):
        return _rebuild_dag, (_flatten_dag(self),)


# ---------------------------------------------------------------------------
# Iterative bottom-up evaluation
# ---------------------------------------------------------------------------
# Every analysis below walks the DAG with an explicit stack: a witness DAG
# is as deep as its DTD (hundreds of levels for the RE⁺ witnesses of
# nd_bc(128)), and one Python frame per level overflows the interpreter
# stack long before the DAG gets large.


def _parts(node: DagPart) -> Tuple[DagPart, ...]:
    """The direct sub-parts of a node: a tree's hedge, a hedge's parts."""
    return (node.children,) if isinstance(node, DagTree) else node.parts


def _fold(root, memo: Dict[int, object], kids, combine):
    """Evaluate ``root`` bottom-up without recursion, memoized on identity.

    ``kids(node)`` lists the nodes whose values ``node`` needs, and
    ``combine(node, values)`` builds its value from theirs (in ``kids``
    order).  Each distinct node is combined once and its value kept in
    ``memo`` (keyed by ``id``), so shared subdags cost one visit and a
    caller may share ``memo`` across calls.
    """
    stack = [(root, None)]
    while stack:
        node, pending = stack.pop()
        key = id(node)
        if key in memo:
            continue
        if pending is None:
            pending = tuple(kids(node))
            missing = [(kid, None) for kid in pending if id(kid) not in memo]
            if missing:
                stack.append((node, pending))
                stack.extend(reversed(missing))
                continue
        memo[key] = combine(node, [memo[id(kid)] for kid in pending])
    return memo[id(root)]


def _top_trees(hedge: DagHedge) -> list:
    """The root trees of an unfolded hedge, left to right."""
    out: list = []
    stack: list = list(reversed(hedge.parts))
    while stack:
        part = stack.pop()
        if isinstance(part, DagTree):
            out.append(part)
        else:
            stack.extend(reversed(part.parts))
    return out


# ---------------------------------------------------------------------------
# Pickling
# ---------------------------------------------------------------------------
# Pickle's default protocol recurses several frames per nesting level, so a
# DAG a few hundred levels deep (the RE⁺ witnesses of nd_bc(128)) overflows
# the interpreter stack.  Both classes pickle instead as one flat node table in
# children-first order: a tree is a ``(label, hedge index)`` tuple, a hedge
# a list of part indices.  Each shared node is one entry, so sharing
# survives the round trip.


def _flatten_dag(root: DagPart) -> list:
    table: list = []

    def entry(node: DagPart, kids: list) -> int:
        if isinstance(node, DagTree):
            table.append((node.label, kids[0]))
        else:
            table.append(kids)
        return len(table) - 1

    _fold(root, {}, _parts, entry)
    return table


def _rebuild_dag(table: list) -> DagPart:
    built: list = []
    for entry in table:
        if isinstance(entry, tuple):
            node = DagTree.__new__(DagTree)
            node.label, node.children = entry[0], built[entry[1]]
        else:
            node = DagHedge.__new__(DagHedge)
            node.parts = tuple(built[i] for i in entry)
        built.append(node)
    return built[-1]


# ---------------------------------------------------------------------------
# Conversions
# ---------------------------------------------------------------------------


def from_tree(tree: Tree) -> DagTree:
    """Embed an explicit tree as a (sharing-free) DAG."""
    return DagTree(tree.label, DagHedge([from_tree(c) for c in tree.children]))


def unfold_tree(node: DagTree, max_nodes: int = 1_000_000) -> Tree:
    """Expand a DAG tree to an explicit :class:`Tree`.

    Raises :class:`BudgetExceededError` when the unfolding would exceed
    ``max_nodes`` nodes — unfoldings are exponential in general.
    """
    if unfolded_size(node) > max_nodes:
        raise BudgetExceededError(
            f"unfolding has {unfolded_size(node)} nodes (> {max_nodes})"
        )
    return _fold(
        node,
        {},
        lambda tree: _top_trees(tree.children),
        lambda tree, children: Tree(tree.label, children),
    )


def unfold_hedge(hedge: DagHedge, max_nodes: int = 1_000_000) -> Tuple[Tree, ...]:
    """Expand a DAG hedge to an explicit hedge (same budget guard)."""
    root = DagTree("__root__", hedge)
    return unfold_tree(root, max_nodes + 1).children


# ---------------------------------------------------------------------------
# Memoized analyses
# ---------------------------------------------------------------------------


def unfolded_size(node: DagPart, _memo: Dict[int, int] | None = None) -> int:
    """Number of nodes of the unfolding (exact, big-integer arithmetic)."""
    return _fold(
        node,
        {} if _memo is None else _memo,
        _parts,
        lambda part, sizes: (1 if isinstance(part, DagTree) else 0) + sum(sizes),
    )


def top_length(hedge: DagHedge) -> int:
    """Length of ``top`` of the unfolded hedge (number of root trees)."""
    return _fold(
        hedge,
        {},
        lambda part: () if isinstance(part, DagTree) else part.parts,
        lambda part, lengths: 1 if isinstance(part, DagTree) else sum(lengths),
    )


def dag_depth(node: DagPart) -> int:
    """Depth of the unfolding (paper convention: single node has depth 1)."""
    return _fold(
        node,
        {},
        _parts,
        lambda part, depths: (
            1 + depths[0] if isinstance(part, DagTree) else max(depths, default=0)
        ),
    )


class TransferTable:
    """Memoized DFA transfer maps over ``top`` words of DAG hedges.

    ``transfer(hedge)`` returns a dict mapping each DFA state ``s`` to the
    state reached by running the DFA from ``s`` over the (possibly
    exponentially long) sequence of root labels of ``hedge``; missing keys
    mean the run dies.  Composition over shared sub-hedges happens once.
    """

    def __init__(self, dfa: DFA) -> None:
        self.dfa = dfa
        self._memo: Dict[int, Dict] = {}

    def transfer(self, part: DagPart) -> Dict:
        key = id(part)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if isinstance(part, DagTree):
            step = self.dfa.step
            result = {s: step(s, part.label) for s in self.dfa.states}
            result = {s: t for s, t in result.items() if t is not None}
        else:
            result = {s: s for s in self.dfa.states}
            for sub in part.parts:
                step = self.transfer(sub)
                result = {
                    s: step[mid]
                    for s, mid in result.items()
                    if mid in step
                }
                if not result:
                    break
        self._memo[key] = result
        return result

    def accepts_top(self, hedge: DagHedge) -> bool:
        """Whether the DFA accepts ``top`` of the unfolded hedge."""
        final = self.transfer(hedge).get(self.dfa.initial)
        return final in self.dfa.finals


def dag_equal(a: "DagTree | Tree", b: "DagTree | Tree") -> bool:
    """Structural equality of the *unfoldings* of two dags (or plain trees).

    Memoized on identity pairs: aligned shared subdags are compared once,
    so same-construction dags (e.g. witnesses rebuilt from identical
    cells) compare in DAG size, not unfolded size.
    """
    proven: set[Tuple[int, int]] = set()

    def top_trees(node) -> list:
        if isinstance(node, Tree):
            return list(node.children)
        return _top_trees(node.children)

    # Depth-first over aligned node pairs; a pair is proven once every
    # child pair above it on the stack was, so any mismatch ends the walk.
    stack: list = [(a, b, False)]
    while stack:
        x, y, children_proven = stack.pop()
        key = (id(x), id(y))
        if children_proven:
            proven.add(key)
            continue
        if x is y or key in proven:
            continue
        if x.label != y.label:
            return False
        xs, ys = top_trees(x), top_trees(y)
        if len(xs) != len(ys):
            return False
        stack.append((x, y, True))
        stack.extend((cx, cy, False) for cx, cy in zip(reversed(xs), reversed(ys)))
    return True


def distinct_tree_nodes(node: DagPart) -> list[DagTree]:
    """All distinct :class:`DagTree` nodes reachable in the DAG."""
    seen: Dict[int, DagTree] = {}
    visited_hedges: set[int] = set()
    stack: list[DagPart] = [node]
    order: list[DagTree] = []
    while stack:
        part = stack.pop()
        if isinstance(part, DagTree):
            if id(part) in seen:
                continue
            seen[id(part)] = part
            order.append(part)
            stack.append(part.children)
        else:
            if id(part) in visited_hedges:
                continue
            visited_hedges.add(id(part))
            stack.extend(part.parts)
    return order
