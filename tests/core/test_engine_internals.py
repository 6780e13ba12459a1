"""White-box tests for the forward engine's internal tables.

These pin down the invariants the Lemma 14 argument relies on: behavior
tuples are sound and complete w.r.t. actual trees, deferred tuples respect
the C·K bound, and witnesses reconstruct real trees.
"""

import pytest

from repro.core.forward import ForwardEngine
from repro.schemas import DTD
from repro.transducers import TreeTransducer
from repro.trees.dag import unfold_tree
from repro.trees.generate import enumerate_trees
from repro.trees.tree import hedge_top


@pytest.fixture
def engine_setup():
    din = DTD({"r": "m*", "m": "a?"}, start="r")
    transducer = TreeTransducer(
        {"q0", "p"},
        {"r", "m", "a", "out"},
        "q0",
        {
            ("q0", "r"): "out(p p)",
            ("p", "m"): "p",
            ("p", "a"): "a",
        },
    )
    dout = DTD({"out": "a*"}, start="out", alphabet={"a", "out"})
    engine = ForwardEngine(transducer, din, dout, max_tuple=4)
    return engine, transducer, din, dout


class TestBehaviorTables:
    def test_tree_table_soundness_and_completeness(self, engine_setup):
        engine, transducer, din, dout = engine_setup
        engine.request_hedge("out", "r", ("p", "p"))
        engine.run()

        dfa = engine.out_dfa("out")
        table = engine.tree_vals[("out", "m", ("p", "p"))]

        # Expected behaviors computed by explicit enumeration.
        expected = set()
        for tree in enumerate_trees(din.with_start("m"), max_nodes=3, symbol="m"):
            word = hedge_top(transducer.apply_state("p", tree))
            for l1 in dfa.states:
                r1 = dfa.run(word, start=l1)
                for l2 in dfa.states:
                    r2 = dfa.run(word, start=l2)
                    expected.add(((l1, r1), (l2, r2)))
        assert set(table) == expected

    def test_deferred_tuple_respects_bound(self, engine_setup):
        engine, *_ = engine_setup
        assert engine.deferred_tuple(("p", "p"), "m") == ("p", "p")
        assert engine.deferred_tuple(("p", "p"), "a") == ()
        assert engine.deferred_tuple((), "m") == ()

    def test_deferred_tuple_budget(self, engine_setup):
        engine, *_ = engine_setup
        engine.max_tuple = 1
        from repro.errors import BudgetExceededError

        with pytest.raises(BudgetExceededError):
            engine.deferred_tuple(("p", "p"), "m")

    def test_hedge_accepted_behaviors_match_enumeration(self, engine_setup):
        engine, transducer, din, dout = engine_setup
        key = engine.request_hedge("out", "r", ("p", "p"))
        engine.run()
        dfa = engine.out_dfa("out")
        accepted = set(engine.hedge_vals[key].accepted)

        expected = set()
        for tree in enumerate_trees(din, max_nodes=5):
            hedge = tree.children  # children of the r node
            word1 = hedge_top(
                sum((transducer.apply_state("p", c) for c in hedge), ())
            )
            for l1 in dfa.states:
                for l2 in dfa.states:
                    expected.add(
                        ((l1, dfa.run(word1, start=l1)), (l2, dfa.run(word1, start=l2)))
                    )
        assert expected <= accepted

    def test_witness_trees_realize_their_tuples(self, engine_setup):
        engine, transducer, din, dout = engine_setup
        engine.request_hedge("out", "r", ("p", "p"))
        engine.run()
        dfa = engine.out_dfa("out")
        table = engine.tree_vals[("out", "m", ("p", "p"))]
        for tau in list(table)[:10]:
            tree = unfold_tree(engine.build_dag_tree("out", "m", ("p", "p"), tau))
            assert din.with_start("m").accepts(tree)
            word = hedge_top(transducer.apply_state("p", tree))
            for (ell, r) in tau:
                assert dfa.run(word, start=ell) == r
