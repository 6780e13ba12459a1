"""Tests for unranked trees and hedges (Section 2.1)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ParseError
from repro.trees import Tree, hedge_str, hedge_top, parse_hedge, parse_tree
from repro.trees.tree import hedge_depth, hedge_size


@pytest.fixture
def example7_tree():
    """The tree t of Example 7 / Fig. 2(a): b(b(a b) a)."""
    return parse_tree("b(b(a b) a)")


class TestParsing:
    def test_leaf(self):
        tree = parse_tree("a")
        assert tree.label == "a"
        assert tree.children == ()

    def test_nested(self):
        tree = parse_tree("a(b c(d e))")
        assert tree.label == "a"
        assert [c.label for c in tree.children] == ["b", "c"]
        assert [c.label for c in tree.children[1].children] == ["d", "e"]

    def test_commas_allowed(self):
        assert parse_tree("a(b, c)") == parse_tree("a(b c)")

    def test_hedge(self):
        hedge = parse_hedge("a(b) c")
        assert len(hedge) == 2
        assert hedge_top(hedge) == ("a", "c")

    def test_empty_hedge(self):
        assert parse_hedge("") == ()
        assert parse_hedge("   ") == ()

    def test_single_tree_required(self):
        with pytest.raises(ParseError):
            parse_tree("a b")
        with pytest.raises(ParseError):
            parse_tree("")

    def test_unbalanced(self):
        with pytest.raises(ParseError):
            parse_tree("a(b")
        with pytest.raises(ParseError):
            parse_tree("a)b(")

    def test_str_roundtrip(self, example7_tree):
        assert parse_tree(str(example7_tree)) == example7_tree

    def test_hedge_str_roundtrip(self):
        hedge = parse_hedge("a(b c) d e(f)")
        assert parse_hedge(hedge_str(hedge)) == hedge


class TestValueSemantics:
    def test_equality(self):
        assert parse_tree("a(b c)") == parse_tree("a(b c)")
        assert parse_tree("a(b c)") != parse_tree("a(c b)")
        assert parse_tree("a") != parse_tree("b")

    def test_hash_consistency(self):
        assert hash(parse_tree("a(b)")) == hash(parse_tree("a(b)"))

    def test_usable_in_sets(self):
        trees = {parse_tree("a"), parse_tree("a"), parse_tree("b")}
        assert len(trees) == 2

    def test_children_must_be_trees(self):
        with pytest.raises(TypeError):
            Tree("a", ["b"])  # type: ignore[list-item]


class TestPaperNotions:
    def test_size(self, example7_tree):
        assert example7_tree.size == 5

    def test_depth_of_single_node_is_one(self):
        # "a tree t only consisting of a root has depth one"
        assert parse_tree("a").depth == 1

    def test_depth(self, example7_tree):
        assert example7_tree.depth == 3

    def test_dom(self, example7_tree):
        assert set(example7_tree.dom()) == {(), (0,), (1,), (0, 0), (0, 1)}

    def test_subtree(self, example7_tree):
        assert example7_tree.subtree((0,)) == parse_tree("b(a b)")
        assert example7_tree.subtree(()) is example7_tree

    def test_subtree_missing(self, example7_tree):
        with pytest.raises(KeyError):
            example7_tree.subtree((5,))

    def test_label_at(self, example7_tree):
        assert example7_tree.label_at((0, 1)) == "b"
        assert example7_tree.label_at((1,)) == "a"

    def test_replace(self, example7_tree):
        replaced = example7_tree.replace((1,), parse_tree("z(y)"))
        assert replaced == parse_tree("b(b(a b) z(y))")
        # original untouched
        assert example7_tree == parse_tree("b(b(a b) a)")

    def test_replace_root(self, example7_tree):
        assert example7_tree.replace((), parse_tree("x")) == parse_tree("x")

    def test_labels_multiset(self, example7_tree):
        assert example7_tree.labels() == {"b": 3, "a": 2}

    def test_hedge_top_and_depth(self):
        hedge = parse_hedge("a(b(c)) d")
        assert hedge_top(hedge) == ("a", "d")
        assert hedge_depth(hedge) == 3
        assert hedge_depth(()) == 0
        assert hedge_size(hedge) == 4

    def test_nodes_preorder(self, example7_tree):
        paths = [path for path, _ in example7_tree.nodes()]
        assert paths[0] == ()
        assert set(paths) == set(example7_tree.dom())


class TestDeepTrees:
    def test_deep_equality_does_not_recurse(self):
        # Build a 5000-deep chain; __eq__ must not hit the recursion limit.
        left = Tree("a")
        right = Tree("a")
        for _ in range(5000):
            left = Tree("a", [left])
            right = Tree("a", [right])
        assert left == right
        assert left.size == 5001
        assert left.depth == 5001

    def test_deep_chain_hashes_and_prints(self):
        """``hash`` and ``str`` walk a 3,000-deep chain with explicit
        stacks and agree with their one-level definitions."""
        def chain():
            node = Tree("leaf")
            for _ in range(3000):
                node = Tree("n", [node, Tree("x")])
            return node

        tree, copy = chain(), chain()
        assert str(tree) == "n(" * 3000 + "leaf" + " x)" * 3000
        assert hash(tree) == hash((tree.label, tree.children))
        assert hash(copy) == hash(tree)
        assert len({tree, copy}) == 1

    def test_shared_subtrees_hash_like_copies(self):
        shared = Tree("s", [Tree("x"), Tree("x")])
        tree = Tree("r", [shared, Tree("q", [shared]), shared])
        copy = parse_tree("r(s(x x) q(s(x x)) s(x x))")
        assert str(tree) == str(copy) == "r(s(x x) q(s(x x)) s(x x))"
        assert hash(tree) == hash(copy)


_tree_strategy = st.deferred(
    lambda: st.builds(
        Tree,
        st.sampled_from(["a", "b", "c"]),
        st.lists(_tree_strategy, max_size=3),
    )
)


@settings(max_examples=50, deadline=None)
@given(tree=_tree_strategy)
def test_parse_str_roundtrip_property(tree):
    assert parse_tree(str(tree)) == tree


@settings(max_examples=50, deadline=None)
@given(tree=_tree_strategy)
def test_dom_size_matches(tree):
    assert len(list(tree.dom())) == tree.size


@settings(max_examples=50, deadline=None)
@given(tree=_tree_strategy)
def test_every_address_resolves(tree):
    for path in tree.dom():
        node = tree.subtree(path)
        assert node.label in {"a", "b", "c"}
