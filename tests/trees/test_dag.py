"""Tests for DAG/SLP-compressed trees."""

import pytest

from repro.errors import BudgetExceededError
from repro.strings import regex_to_dfa
from repro.trees import DagHedge, DagTree, parse_tree
from repro.trees.dag import (
    TransferTable,
    dag_depth,
    distinct_tree_nodes,
    from_tree,
    top_length,
    unfold_hedge,
    unfold_tree,
    unfolded_size,
)


def doubling_chain(depth: int) -> DagTree:
    """A DAG whose unfolding is a full binary tree of the given depth."""
    node = DagTree("leaf")
    for _ in range(depth):
        node = DagTree("n", DagHedge([node, node]))
    return node


class TestRoundtrip:
    def test_from_tree_unfold(self):
        tree = parse_tree("a(b(c) d)")
        assert unfold_tree(from_tree(tree)) == tree

    def test_shared_subtree_unfolds_twice(self):
        shared = DagTree("x")
        root = DagTree("r", DagHedge([shared, shared]))
        assert unfold_tree(root) == parse_tree("r(x x)")

    def test_nested_hedges_flatten(self):
        inner = DagHedge([DagTree("a"), DagTree("b")])
        root = DagTree("r", DagHedge([inner, DagTree("c"), inner]))
        assert unfold_tree(root) == parse_tree("r(a b c a b)")

    def test_unfold_hedge(self):
        hedge = DagHedge([DagTree("a"), DagTree("b", DagHedge([DagTree("c")]))])
        assert unfold_hedge(hedge) == (parse_tree("a"), parse_tree("b(c)"))


class TestPickle:
    def test_deep_dag_round_trips_with_its_sharing(self):
        """Pickle recurses once per nesting level by default; a DAG far
        deeper than the interpreter's recursion limit must still round
        trip, one node per shared node."""
        import pickle

        depth = 2500
        node = DagTree("leaf")
        for _ in range(depth):
            node = DagTree("n", DagHedge([DagHedge([node]), node]))
        copy = pickle.loads(pickle.dumps(node))
        for _ in range(depth):
            assert copy.label == "n"
            wrapped, shared = copy.children.parts
            assert wrapped.parts[0] is shared
            copy = shared
        assert copy.label == "leaf" and copy.children.parts == ()

    def test_analyses_run_on_a_deep_dag_and_its_copy(self):
        """Depth, size, hash, equality, top length and unfolding walk the
        DAG with explicit stacks, so a DAG far deeper than the recursion
        limit answers them, before and after a pickle round trip."""
        import pickle

        depth = 3000
        node = DagTree("leaf")
        for _ in range(depth):
            node = DagTree("n", DagHedge([DagHedge([node]), node]))
        copy = pickle.loads(pickle.dumps(node))
        for dag in (node, copy):
            assert dag.depth == dag_depth(dag) == depth + 1
            assert dag.size == unfolded_size(dag) == 2 ** (depth + 1) - 1
            assert top_length(dag.children) == 2
        assert hash(copy) == hash(node)
        assert copy == node and node == copy
        other = DagTree("leaf-2")
        for _ in range(depth):
            other = DagTree("n", DagHedge([DagHedge([other]), other]))
        assert copy != other
        with pytest.raises(BudgetExceededError):
            unfold_tree(copy)
        with pytest.raises(BudgetExceededError):
            unfold_hedge(copy.children)

    def test_deep_chain_unfolds(self):
        depth = 3000
        node = DagTree("leaf")
        for _ in range(depth):
            node = DagTree("n", DagHedge([DagHedge([node])]))
        tree = unfold_tree(node)
        (hedge_root,) = unfold_hedge(DagHedge([node]))
        for explicit in (tree, hedge_root):
            for _ in range(depth):
                assert explicit.label == "n"
                (explicit,) = explicit.children
            assert explicit.label == "leaf" and explicit.children == ()

    def test_deep_chain_prints(self):
        """``str`` of a deep, narrow DAG unfolds it and renders the
        explicit tree without recursing once per level."""
        depth = 3000
        node = DagTree("leaf")
        for _ in range(depth):
            node = DagTree("n", DagHedge([DagHedge([node])]))
        assert str(node) == "n(" * depth + "leaf" + ")" * depth

    def test_small_dags_and_hedges_round_trip(self):
        import pickle

        shared = DagTree("x")
        root = DagTree("r", DagHedge([shared, DagHedge([shared]), DagTree("y")]))
        copy = pickle.loads(pickle.dumps(root))
        assert unfold_tree(copy) == parse_tree("r(x x y)")
        assert copy.children.parts[0] is copy.children.parts[1].parts[0]
        hedge = pickle.loads(pickle.dumps(root.children))
        assert unfold_hedge(hedge) == unfold_hedge(root.children)


class TestSizes:
    def test_unfolded_size_exponential(self):
        dag = doubling_chain(30)
        assert unfolded_size(dag) == 2 ** 31 - 1

    def test_budget_guard(self):
        dag = doubling_chain(30)
        with pytest.raises(BudgetExceededError):
            unfold_tree(dag, max_nodes=1000)

    def test_top_length(self):
        shared = DagHedge([DagTree("a"), DagTree("b")])
        hedge = DagHedge([shared, shared, DagTree("c")])
        assert top_length(hedge) == 5

    def test_dag_depth(self):
        assert dag_depth(doubling_chain(12)) == 13
        assert dag_depth(DagTree("a")) == 1

    def test_distinct_tree_nodes(self):
        dag = doubling_chain(20)
        # Only 21 distinct nodes despite the 2^21-1 unfolded nodes.
        assert len(distinct_tree_nodes(dag)) == 21


class TestTransferTable:
    def test_matches_explicit_run(self):
        dfa = regex_to_dfa("a b* c", alphabet={"a", "b", "c"})
        hedge = DagHedge([DagTree("a"), DagTree("b"), DagTree("b"), DagTree("c")])
        table = TransferTable(dfa)
        assert table.accepts_top(hedge)
        transfer = table.transfer(hedge)
        assert transfer[dfa.initial] in dfa.finals

    def test_rejects(self):
        dfa = regex_to_dfa("a c")
        hedge = DagHedge([DagTree("a"), DagTree("b"), DagTree("c")])
        assert not TransferTable(dfa).accepts_top(hedge)

    def test_exponential_top_word(self):
        # Hedge whose top word is a^(2^40): validate divisibility by 2 via
        # the transfer table in linear (DAG) time.
        level = DagHedge([DagTree("a")])
        for _ in range(40):
            level = DagHedge([level, level])
        even = regex_to_dfa("(a a)*")
        odd_after_one = regex_to_dfa("a (a a)*")
        assert TransferTable(even).accepts_top(level)
        assert not TransferTable(odd_after_one).accepts_top(level)
        assert top_length(level) == 2 ** 40

    def test_dead_run(self):
        dfa = regex_to_dfa("a")
        hedge = DagHedge([DagTree("z")])
        table = TransferTable(dfa)
        assert table.transfer(hedge) == {}
        assert not table.accepts_top(hedge)

    def test_empty_hedge_is_identity(self):
        dfa = regex_to_dfa("a*")
        table = TransferTable(dfa)
        transfer = table.transfer(DagHedge(()))
        assert all(transfer[s] == s for s in dfa.states)
