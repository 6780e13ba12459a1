"""Serializable interned tables."""

import pickle

from repro.kernel import serialize
from repro.strings.dfa import DFA


def counter_dfa(n: int = 5) -> DFA:
    return DFA(range(n), {"a"}, {(i, "a"): (i + 1) % n for i in range(n)}, 0, {0})


class TestDumpsLoads:
    def test_roundtrip_preserves_warm_kernels(self):
        dfa = counter_dfa()
        dfa.kernel()
        clone = serialize.loads(serialize.dumps(dfa))
        assert clone == dfa
        # The interned kernel came through the pickle (closure-free tables).
        assert clone._kernel is not None
        assert clone._kernel.table == dfa._kernel.table
        assert clone._kernel.finals_mask == dfa._kernel.finals_mask

    def test_roundtrip_lazy_product_kernel(self):
        prod = counter_dfa(3).product(counter_dfa(4))
        clone = serialize.loads(serialize.dumps(prod))
        assert clone == prod

    def test_format_mismatch_is_a_none(self):
        blob = pickle.dumps({"kernel_format": -1, "payload": 42})
        assert serialize.loads(blob) is None

    def test_garbage_is_a_none(self):
        assert serialize.loads(b"definitely not a pickle") is None
        assert serialize.loads(pickle.dumps([1, 2, 3])) is None
