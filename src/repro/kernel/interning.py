"""Dense-integer interning of automaton states and symbols.

Every kernel structure starts by mapping the original hashable Python
objects (strings, tuples, frozensets, …) to consecutive integers
``0..n-1`` exactly once, at construction.  From then on

* transition tables are flat lists indexed by ``state * n_symbols + symbol``;
* state *sets* are Python ints used as bitmasks (``1 << state``);
* product-space nodes are small int tuples (or single packed ints),

which replaces tuple-of-object hashing and dict lookups on the hot paths
with list indexing and integer arithmetic.

The interner orders its seed values by ``repr`` so that kernel runs are
reproducible across processes even under hash randomization (the seed
object-state code inherited frozenset iteration order, which is not).
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, List, Tuple


class Interner:
    """A bijection ``object <-> dense int``, append-only.

    ``Interner(values)`` assigns ``0..n-1`` in iteration order (callers
    normally pass ``sorted(values, key=repr)`` for determinism); further
    objects can be added with :meth:`intern`.
    """

    __slots__ = ("_index", "_values")

    def __init__(self, values: Iterable[Hashable] = ()) -> None:
        self._index: dict = {}
        self._values: List = []
        for value in values:
            self.intern(value)

    @staticmethod
    def from_sorted(values: Iterable[Hashable]) -> "Interner":
        """An interner over ``values`` in deterministic (repr-sorted) order."""
        return Interner(sorted(values, key=repr))

    def intern(self, value: Hashable) -> int:
        """The index of ``value``, assigning the next free one if new."""
        index = self._index.get(value)
        if index is None:
            index = len(self._values)
            self._index[value] = index
            self._values.append(value)
        return index

    def index(self, value: Hashable) -> int:
        """The index of a known ``value`` (:class:`KeyError` if absent)."""
        return self._index[value]

    def get(self, value: Hashable, default: int = -1) -> int:
        """The index of ``value`` or ``default`` when absent."""
        return self._index.get(value, default)

    def value(self, index: int):
        """The object interned at ``index``."""
        return self._values[index]

    @property
    def values(self) -> Tuple:
        return tuple(self._values)

    def mask(self, values: Iterable[Hashable]) -> int:
        """Bitmask with the bit of every *known* value in ``values`` set (a
        set larger than the interner is probed, not iterated: restricting
        a small automaton to a schema-wide symbol set costs its own size)."""
        mask = 0
        index = self._index
        if isinstance(values, (set, frozenset)) and len(values) > len(index):
            values = [value for value in index if value in values]
        for value in values:
            i = index.get(value)
            if i is not None:
                mask |= 1 << i
        return mask

    def unmask(self, mask: int) -> frozenset:
        """The set of objects whose bits are set in ``mask``."""
        return frozenset(self._values[i] for i in iter_bits(mask))

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, value: Hashable) -> bool:
        return value in self._index

    def __iter__(self) -> Iterator:
        return iter(self._values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Interner({len(self._values)} values)"


def mask_of(indices: Iterable[int]) -> int:
    """Bitmask with exactly the given bit ``indices`` set."""
    mask = 0
    for index in indices:
        mask |= 1 << index
    return mask


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def popcount(mask: int) -> int:
    """Number of set bits."""
    return mask.bit_count()
