"""Generation of trees satisfying a DTD.

Three generators with different purposes:

* :func:`minimal_tree` — a smallest witness tree (PTIME, used for
  counterexample contexts and schema emptiness witnesses);
* :func:`enumerate_trees` — exhaustive enumeration up to a node budget
  (exponential; the brute-force typechecking oracle of the test suite);
* :func:`random_tree` — randomized documents for workloads and property
  tests.

Imports of :mod:`repro.schemas` are function-local to avoid an import cycle
(the schemas package builds on trees).
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Optional, Tuple

from repro.trees.tree import Hedge, Tree


def minimal_tree(dtd, symbol: str | None = None) -> Optional[Tree]:
    """A minimum-size tree in ``L(dtd, symbol)``, or ``None`` if empty.

    Runs a Dijkstra-inside-fixpoint: the cost of a symbol is ``1 +`` the
    cheapest content word, where a word's cost is the sum of its symbols'
    costs.  Costs only shrink, so iterating to stability is polynomial.
    """
    root = dtd.start if symbol is None else symbol
    infinity = float("inf")
    cost: Dict[str, float] = {a: infinity for a in dtd.alphabet}
    best_word: Dict[str, Tuple[str, ...]] = {}

    changed = True
    while changed:
        changed = False
        for a in dtd.alphabet:
            word = _cheapest_word(dtd.content_nfa(a), cost)
            if word is None:
                continue
            total = 1 + sum(cost[b] for b in word)
            if total < cost[a]:
                cost[a] = total
                best_word[a] = word
                changed = True

    if root not in dtd.alphabet or cost.get(root, infinity) == infinity:
        return None

    # Build with per-symbol sharing: for doubling DTDs the minimal tree's
    # explicit size is exponential, but as an immutable shared structure the
    # construction is linear in the alphabet.
    memo: Dict[str, Tree] = {}

    def build(a: str) -> Tree:
        cached = memo.get(a)
        if cached is None:
            cached = Tree(a, [build(b) for b in best_word[a]])
            memo[a] = cached
        return cached

    return build(root)


def _cheapest_word(nfa, cost: Dict[str, float]) -> Optional[Tuple[str, ...]]:
    """Cheapest accepted word of ``nfa`` where symbol ``b`` costs ``cost[b]``.

    Dijkstra over NFA states; symbols of infinite cost are unusable.
    """
    import heapq

    dist: Dict[object, float] = {}
    parent: Dict[object, Tuple[object, str]] = {}
    heap: List[Tuple[float, int, object]] = []
    counter = 0
    for q in nfa.initial:
        dist[q] = 0.0
        heapq.heappush(heap, (0.0, counter, q))
        counter += 1
    goal = None
    while heap:
        d, _, q = heapq.heappop(heap)
        if d > dist.get(q, float("inf")):
            continue
        if q in nfa.finals:
            goal = q
            break
        for symbol, targets in nfa.transitions.get(q, {}).items():
            weight = cost.get(symbol, float("inf"))
            if weight == float("inf"):
                continue
            for target in targets:
                nd = d + weight
                if nd < dist.get(target, float("inf")):
                    dist[target] = nd
                    parent[target] = (q, symbol)
                    heapq.heappush(heap, (nd, counter, target))
                    counter += 1
    if goal is None:
        return None
    word: List[str] = []
    node = goal
    while node in parent:
        node, symbol = parent[node]
        word.append(symbol)
    word.reverse()
    return tuple(word)


def enumerate_trees(
    dtd, max_nodes: int, symbol: str | None = None
) -> Iterator[Tree]:
    """All trees of at most ``max_nodes`` nodes in ``L(dtd, symbol)``.

    Exponential in ``max_nodes`` — this is the brute-force oracle used to
    cross-validate the polynomial typechecking algorithms on small instances.
    """
    root = dtd.start if symbol is None else symbol
    cache: Dict[Tuple[str, int], List[Tree]] = {}

    def trees_for(a: str, budget: int) -> List[Tree]:
        # Child budgets strictly decrease, so the recursion terminates even
        # for recursive DTDs and the cache never sees a partial entry.
        if budget < 1:
            return []
        key = (a, budget)
        cached = cache.get(key)
        if cached is not None:
            return cached
        result: List[Tree] = []
        nfa = dtd.content_nfa(a)
        for word in nfa.iter_words(budget - 1):
            for children in hedges_for(tuple(word), budget - 1):
                result.append(Tree(a, children))
        cache[key] = result
        return result

    def hedges_for(word: Tuple[str, ...], budget: int) -> List[Hedge]:
        if not word:
            return [()]
        head, rest = word[0], word[1:]
        out: List[Hedge] = []
        # The remaining children need at least one node each.
        for first in trees_for(head, budget - len(rest)):
            for tail in hedges_for(rest, budget - first.size):
                out.append((first,) + tail)
        return out

    yield from sorted(trees_for(root, max_nodes), key=lambda t: (t.size, str(t)))


def random_tree(
    dtd,
    rng: random.Random | None = None,
    symbol: str | None = None,
    max_depth: int = 8,
    stop_bias: float = 0.5,
    attempts: int = 200,
) -> Optional[Tree]:
    """A random tree of ``L(dtd, symbol)`` of depth at most ``max_depth``.

    Random walk through the content automata, stopping at accepting states
    with probability ``stop_bias`` (raised near the depth limit).  Returns
    ``None`` when no tree is found within ``attempts`` retries, and at once
    — before drawing from ``rng`` — when ``L(dtd, symbol)`` has no tree of
    depth at most ``max_depth``.
    """
    rng = rng if rng is not None else random.Random()
    root = dtd.start if symbol is None else symbol
    if not _has_tree_within(dtd, root, max_depth):
        return None

    def sample(a: str, depth: int) -> Optional[Tree]:
        if depth > max_depth:
            return None
        nfa = dtd.content_nfa(a)
        for _ in range(attempts):
            word = _random_word(nfa, rng, stop_bias if depth < max_depth else 1.0)
            if word is None:
                continue
            children: List[Tree] = []
            ok = True
            for b in word:
                child = sample(b, depth + 1)
                if child is None:
                    ok = False
                    break
                children.append(child)
            if ok:
                return Tree(a, children)
        return None

    return sample(root, 1)


def _has_tree_within(dtd, root: str, max_depth: int) -> bool:
    """Whether ``root`` has a tree of depth at most ``max_depth``.

    A minimal-height fixpoint over the content NFAs: round ``k`` admits
    every symbol whose content accepts a word over the symbols admitted in
    rounds before it, so a symbol is admitted in the round of its minimal
    tree height.
    """
    symbols = {root, *dtd.alphabet}
    for a in dtd.alphabet:
        symbols |= dtd.content_nfa(a).alphabet
    admitted: set = set()
    for _ in range(max_depth):
        fresh = {
            a
            for a in symbols - admitted
            if not dtd.content_nfa(a).is_empty(admitted)
        }
        if not fresh:
            break
        admitted |= fresh
        if root in admitted:
            return True
    return False


def _random_word(nfa, rng: random.Random, stop_bias: float, max_len: int = 16):
    """One random accepted word, or ``None`` if the walk fails."""
    if not nfa.initial:
        return None
    state = rng.choice(sorted(nfa.initial, key=repr))
    word: List[str] = []
    for _ in range(max_len + 1):
        if state in nfa.finals and (rng.random() < stop_bias or len(word) >= max_len):
            return tuple(word)
        row = nfa.transitions.get(state, {})
        options = [
            (symbol, target) for symbol, targets in row.items() for target in targets
        ]
        if not options:
            return tuple(word) if state in nfa.finals else None
        symbol, state = rng.choice(sorted(options, key=repr))
        word.append(symbol)
    return None
