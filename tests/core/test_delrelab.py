"""Tests for Theorem 20 (T_del-relab w.r.t. DTAc(DFA)) and Lemma 19."""

import pytest

from repro.errors import ClassViolationError
from repro.core import typecheck_bruteforce, typecheck_delrelab
from repro.backward.engine import typecheck_backward
from repro.core.delrelab import DelrelabSchema, wrap_deleting_states
from repro.schemas import DTD, dtd_to_dtac, dtd_to_nta
from repro.transducers import TreeTransducer, image_nta
from repro.trees import parse_tree
from repro.trees.generate import enumerate_trees
from repro.tree_automata.hash_elim import eliminate_hashes
from repro.workloads import families


@pytest.fixture
def relabeler():
    """Relabel x→y, delete y's (one state per rhs, recursive deletion)."""
    return TreeTransducer(
        states={"q"},
        alphabet={"r", "x", "y"},
        initial="q",
        rules={("q", "r"): "r(q)", ("q", "x"): "y", ("q", "y"): "q"},
    )


class TestWrapDeletion:
    def test_wrap(self, relabeler):
        wrapped = wrap_deleting_states(relabeler)
        assert "#" in wrapped.alphabet
        rhs = wrapped.rules[("q", "y")]
        assert str(rhs[0]) == "#(q)"
        # Non-deleting rules untouched.
        assert wrapped.rules[("q", "x")] == relabeler.rules[("q", "x")]

    def test_wrapped_is_non_deleting(self, relabeler):
        from repro.transducers.analysis import is_non_deleting

        assert not is_non_deleting(relabeler)
        assert is_non_deleting(wrap_deleting_states(relabeler))


class TestImageNta:
    def test_image_language(self, relabeler):
        din = DTD({"r": "x* y*"}, start="r")
        wrapped = wrap_deleting_states(relabeler)
        image = image_nta(dtd_to_nta(din), wrapped)
        outputs = set()
        for tree in enumerate_trees(din, max_nodes=5):
            out = wrapped.apply(tree)
            assert out is not None
            assert image.accepts(out), f"{tree} -> {out}"
            outputs.add(out)
        # And some non-images are rejected.
        assert not image.accepts(parse_tree("r(x)"))
        assert not image.accepts(parse_tree("y(r)"))

    def test_image_gamma_matches_original(self, relabeler):
        din = DTD({"r": "x* y*"}, start="r")
        wrapped = wrap_deleting_states(relabeler)
        for tree in enumerate_trees(din, max_nodes=5):
            out_wrapped = wrapped.apply(tree)
            gamma = eliminate_hashes(out_wrapped)
            assert gamma == (relabeler.apply(tree),)

    def test_image_rejects_lemma19_violations(self):
        t = TreeTransducer(
            {"q", "p"}, {"a"}, "q", {("q", "a"): "a(p p)", ("p", "a"): "a"}
        )
        din = DTD({"a": "a?"}, start="a")
        with pytest.raises(Exception):
            image_nta(dtd_to_nta(din), t)

    def test_image_with_unprocessed_subtrees(self):
        # A rule-less symbol: children below it are invisible to T', but the
        # image must still demand they exist validly.
        din = DTD({"r": "m", "m": "a"}, start="r")
        t = TreeTransducer(
            {"q"}, {"r", "m", "a", "o"}, "q", {("q", "r"): "o"}
        )
        image = image_nta(dtd_to_nta(din), t)
        assert image.accepts(parse_tree("o"))


class TestTypecheckDelrelab:
    def test_accepting_instance(self, relabeler):
        din = DTD({"r": "x* y*"}, start="r")
        dout = DTD({"r": "y*"}, start="r")
        result = typecheck_delrelab(relabeler, dtd_to_nta(din), dtd_to_dtac(dout))
        assert result.typechecks
        assert typecheck_bruteforce(relabeler, din, dout, max_nodes=6).typechecks

    def test_rejecting_instance(self, relabeler):
        din = DTD({"r": "x* y*"}, start="r")
        dout = DTD({"r": "y+"}, start="r")
        result = typecheck_delrelab(relabeler, dtd_to_nta(din), dtd_to_dtac(dout))
        assert not result.typechecks
        assert not typecheck_bruteforce(relabeler, din, dout, max_nodes=6).typechecks
        # The violating output is reported and really violates dout.
        violating = result.stats["violating_output"]
        assert not dout.accepts(violating)

    def test_deep_deletion(self, relabeler):
        # Deletion of unbounded depth: r(y(y(...(x)))) → r(y).
        din = DTD({"r": "y", "y": "y | x"}, start="r")
        dout = DTD({"r": "y"}, start="r")
        result = typecheck_delrelab(relabeler, dtd_to_nta(din), dtd_to_dtac(dout))
        assert result.typechecks

    def test_dtd_inputs_accepted_directly(self, relabeler):
        din = DTD({"r": "x*"}, start="r")
        dout = DTD({"r": "y*"}, start="r")
        result = typecheck_delrelab(relabeler, din, dout)
        assert result.typechecks

    def test_missing_initial_rule(self):
        t = TreeTransducer({"q"}, {"r", "x"}, "q", {("q", "x"): "x"})
        din = DTD({"r": "x?"}, start="r")
        dout = DTD({"r": "x*"}, start="r")
        result = typecheck_delrelab(t, din, dout)
        assert not result.typechecks
        assert result.counterexample is not None
        assert result.counterexample.label == "r"

    def test_rejects_multi_state_rhs(self):
        t = TreeTransducer(
            {"q"}, {"r", "a"}, "q", {("q", "r"): "r(q q)", ("q", "a"): "a"}
        )
        din = DTD({"r": "a*"}, start="r")
        with pytest.raises(ClassViolationError):
            typecheck_delrelab(t, din, din)

    def test_agrees_with_forward_on_dtds(self, relabeler):
        from repro.core import typecheck_forward

        for out_model in ["y*", "y+", "y y*", "y? "]:
            din = DTD({"r": "x* y*"}, start="r")
            dout = DTD({"r": out_model}, start="r")
            fast = typecheck_forward(relabeler, din, dout)
            dr = typecheck_delrelab(relabeler, din, dout)
            assert fast.typechecks == dr.typechecks, out_model


class TestRootDeletion:
    """Root-deleting rules whose translation is not a single tree.

    Such outputs (the empty hedge, or a hedge of ≥ 2 trees) conform to no
    tree schema; the #-elimination lift cannot express them, so
    typecheck_delrelab uses a separate non-tree-elimination detector.
    Differentially confirmed against the brute-force oracle.
    """

    @pytest.fixture
    def root_deleter(self):
        return TreeTransducer(
            {"q"}, {"r", "x"}, "q", {("q", "r"): "q", ("q", "x"): "x"}
        )

    def _check(self, transducer, din, dout, expected):
        from repro.core.bruteforce import typecheck_bruteforce

        result = typecheck_delrelab(transducer, din, dout)
        oracle = typecheck_bruteforce(transducer, din, dout, max_nodes=6)
        assert result.typechecks is expected
        assert oracle.typechecks is expected
        return result

    def test_two_tree_hedge_is_violation(self, root_deleter):
        din = DTD({"r": "x x", "x": "ε"}, start="r")
        dout = DTD({"x": "ε"}, start="x", alphabet=root_deleter.alphabet)
        result = self._check(root_deleter, din, dout, False)
        assert "non-tree hedge" in result.reason
        assert len(result.stats["violating_output"]) == 2

    def test_empty_hedge_is_violation(self, root_deleter):
        din = DTD({"r": "ε", "x": "ε"}, start="r", alphabet={"x"})
        dout = DTD({"x": "ε"}, start="x", alphabet=root_deleter.alphabet)
        result = self._check(root_deleter, din, dout, False)
        assert "non-tree hedge" in result.reason

    def test_single_tree_elimination_still_checked(self, root_deleter):
        din = DTD({"r": "x", "x": "ε"}, start="r")
        dout_ok = DTD({"x": "ε"}, start="x", alphabet=root_deleter.alphabet)
        dout_bad = DTD(
            {"y": "ε"}, start="y", alphabet=root_deleter.alphabet | {"y"}
        )
        self._check(root_deleter, din, dout_ok, True)
        self._check(root_deleter, din, dout_bad, False)


class TestDemandDrivenProduct:
    """The Theorem 20 product creates only the pairs it reaches."""

    @pytest.mark.parametrize(
        "family,n",
        [("relabeling_family", 3), ("nd_bc_family", 6)],
    )
    @pytest.mark.parametrize("typechecks", [True, False])
    def test_product_states_below_the_full_cross_product(self, family, n, typechecks):
        transducer, din, dout, expected = getattr(families, family)(n, typechecks)
        schema = DelrelabSchema(din, dout)
        result = typecheck_delrelab(transducer, din, dout, schema=schema)
        assert result.typechecks is expected
        assert typecheck_backward(transducer, din, dout).typechecks is expected

        hash_symbol = schema.free_hash_symbol(transducer.alphabet)
        b_in = image_nta(schema.input_nta, wrap_deleting_states(transducer, hash_symbol))
        b_out = schema.lifted_complement(hash_symbol)
        assert result.stats["product_states"] < len(b_in.states) * len(b_out.states)
