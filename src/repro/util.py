"""Small shared utilities used across the library."""

from __future__ import annotations

import hashlib
import itertools
from typing import Hashable, Iterable, Iterator, Mapping, Sequence, TypeVar

T = TypeVar("T")


def stable_digest(*parts: str) -> str:
    """SHA-256 hex digest of a sequence of text parts.

    The digest is stable across processes and Python versions as long as the
    parts themselves are (callers canonicalize sets by sorting on ``repr``,
    which does not depend on hash randomization).  Used for the content
    hashes that key the compiled-session registry and the on-disk artifact
    cache.
    """
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8", "backslashreplace"))
        h.update(b"\x1f")
    return h.hexdigest()


class FreshNames:
    """Generate names guaranteed not to clash with a set of reserved names.

    Used when constructions need states or symbols disjoint from existing
    ones (e.g. sink states, the ``#`` placeholder of Theorem 20).
    """

    def __init__(self, reserved: Iterable[Hashable] = ()) -> None:
        self._reserved = set(reserved)
        self._counter = itertools.count()

    def reserve(self, name: Hashable) -> None:
        self._reserved.add(name)

    def fresh(self, stem: str = "fresh") -> str:
        while True:
            candidate = f"{stem}_{next(self._counter)}"
            if candidate not in self._reserved:
                self._reserved.add(candidate)
                return candidate


def lru_store(mapping, key: Hashable, value, limit: int) -> None:
    """Insert (or refresh) ``key`` in an ``OrderedDict``-backed LRU.

    The one bounded-LRU-with-touch idiom used by the per-transducer
    caches (forward tables, shard profiles, backward result snapshots,
    the session's analysis and route memos) and the service workers'
    pinned-pair registry with its parsed texts: newest entries live at
    the end, eviction pops from the front once ``limit`` is exceeded.
    """
    mapping[key] = value
    mapping.move_to_end(key)
    while len(mapping) > limit:
        mapping.popitem(last=False)


def lru_get(mapping, key: Hashable):
    """Read ``key`` from an ``OrderedDict``-backed LRU, touching on hit
    (``None`` on miss) — the companion of :func:`lru_store`."""
    value = mapping.get(key)
    if value is not None:
        mapping.move_to_end(key)
    return value


def fresh_symbol(stem: str, reserved: Iterable[Hashable]) -> str:
    """Return ``stem`` or ``stem_0``, ``stem_1``, ... — whichever first avoids
    every name in ``reserved``."""
    taken = set(reserved)
    if stem not in taken:
        return stem
    i = 0
    while f"{stem}_{i}" in taken:
        i += 1
    return f"{stem}_{i}"


def powerset(items: Sequence[T]) -> Iterator[tuple[T, ...]]:
    """All subsets of ``items`` as tuples, smallest first."""
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


def first(iterable: Iterable[T], default: T | None = None) -> T | None:
    """First element of ``iterable`` or ``default`` when empty."""
    for item in iterable:
        return item
    return default


def transitive_closure(graph: Mapping[T, Iterable[T]]) -> dict[T, set[T]]:
    """Transitive closure of a directed graph given as adjacency mapping.

    Nodes that only occur as successors are included with their (possibly
    empty) successor sets.  The result maps every node to the set of nodes
    reachable from it in **one or more** steps.
    """
    nodes: set[T] = set(graph)
    for succs in graph.values():
        nodes.update(succs)
    closure: dict[T, set[T]] = {node: set(graph.get(node, ())) for node in nodes}
    changed = True
    while changed:
        changed = False
        for node in nodes:
            extra: set[T] = set()
            for succ in closure[node]:
                extra |= closure[succ] - closure[node]
            if extra:
                closure[node] |= extra
                changed = True
    return closure


def has_cycle(graph: Mapping[T, Iterable[T]]) -> bool:
    """Whether the directed graph contains a cycle (self-loops count)."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict[T, int] = {}
    nodes: set[T] = set(graph)
    for succs in graph.values():
        nodes.update(succs)

    for start in nodes:
        if color.get(start, WHITE) != WHITE:
            continue
        stack: list[tuple[T, Iterator[T]]] = [(start, iter(graph.get(start, ())))]
        color[start] = GRAY
        while stack:
            node, it = stack[-1]
            advanced = False
            for succ in it:
                state = color.get(succ, WHITE)
                if state == GRAY:
                    return True
                if state == WHITE:
                    color[succ] = GRAY
                    stack.append((succ, iter(graph.get(succ, ()))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return False


def strongly_connected_components(graph: Mapping[T, Iterable[T]]) -> list[set[T]]:
    """Tarjan's algorithm (iterative).  Returns SCCs in reverse topological
    order (a component is listed before any component it can reach... in fact
    Tarjan emits components in reverse topological order of the condensation).
    """
    nodes: list[T] = list(graph)
    extra: set[T] = set()
    for succs in graph.values():
        extra.update(succs)
    for node in extra:
        if node not in graph:
            nodes.append(node)

    index_of: dict[T, int] = {}
    lowlink: dict[T, int] = {}
    on_stack: set[T] = set()
    stack: list[T] = []
    counter = itertools.count()
    components: list[set[T]] = []

    for root in nodes:
        if root in index_of:
            continue
        work: list[tuple[T, Iterator[T]]] = [(root, iter(graph.get(root, ())))]
        index_of[root] = lowlink[root] = next(counter)
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index_of:
                    index_of[succ] = lowlink[succ] = next(counter)
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(graph.get(succ, ()))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[succ])
            if not advanced:
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == index_of[node]:
                    component: set[T] = set()
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.add(member)
                        if member == node:
                            break
                    components.append(component)
    return components
