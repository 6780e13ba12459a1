"""Tests for the Section 5 algorithms (Theorems 30/37, Corollary 38)."""

import pytest

from repro.errors import ClassViolationError
from repro.core import typecheck_replus, typecheck_replus_witnesses
from repro.core.replus import build_grammar, validate_output_dag
from repro.schemas import DTD
from repro.transducers import TreeTransducer
from repro.trees import parse_tree


@pytest.fixture
def copy_delete_instance():
    """Unbounded copying + deletion — outside every T_trac, inside RE⁺."""
    din = DTD({"r": "a b+", "a": "c", "b": "c+"}, start="r")
    transducer = TreeTransducer(
        states={"q0", "q"},
        alphabet=din.alphabet,
        initial="q0",
        rules={
            ("q0", "r"): "r(q q)",
            ("q", "a"): "a",
            ("q", "b"): "q",
            ("q", "c"): "c",
        },
    )
    return transducer, din


class TestGrammar:
    def test_grammar_shape(self, copy_delete_instance):
        transducer, din = copy_delete_instance
        grammar = build_grammar(transducer, din, "q0", "r", (0,))
        assert not grammar.is_recursive()  # din is non-recursive
        word = grammar.some_word()
        assert word is not None
        # Smallest derivation: a then one deleted b contributing one c, twice.
        assert word == ("a", "c", "a", "c")

    def test_grammar_overapproximates_actual_words(self, copy_delete_instance):
        # L_{q,a,u} ⊆ L(G_{q,a,u}): every actual children word of the root
        # output node is derivable — witnessed by the failure of the
        # inclusion L(G) ⊆ "everything except w".
        from repro.strings.dfa import DFA
        from repro.trees.generate import enumerate_trees

        transducer, din = copy_delete_instance
        grammar = build_grammar(transducer, din, "q0", "r", (0,))
        for tree in enumerate_trees(din, max_nodes=7):
            out = transducer.apply(tree)
            word = tuple(c.label for c in out.children)
            everything_but_w = DFA.from_word(word, {"a", "c"}).complement()
            ok, witness = grammar.included_in_dfa(everything_but_w)
            assert not ok  # w itself escapes, so w ∈ L(G)

    def test_typechecks(self, copy_delete_instance):
        transducer, din = copy_delete_instance
        dout = DTD({"r": "a c+ a c+"}, start="r")
        assert typecheck_replus(transducer, din, dout).typechecks

    def test_rejects_with_counterexample(self, copy_delete_instance):
        transducer, din = copy_delete_instance
        dout = DTD({"r": "a c a c"}, start="r")
        result = typecheck_replus(transducer, din, dout)
        assert not result.typechecks
        assert result.verify(transducer, din.accepts, dout.accepts)

    def test_requires_replus_schemas(self, copy_delete_instance):
        transducer, din = copy_delete_instance
        general = DTD({"r": "a | b"}, start="r", alphabet=din.alphabet)
        with pytest.raises(ClassViolationError):
            typecheck_replus(transducer, din, general)
        with pytest.raises(ClassViolationError):
            typecheck_replus(transducer, general, din)


class TestTwoWitnessRoute:
    def test_agrees_on_paper_style_instance(self, copy_delete_instance):
        transducer, din = copy_delete_instance
        for out_model, expected in [("a c+ a c+", True), ("a c a c", False)]:
            dout = DTD({"r": out_model}, start="r")
            grammar = typecheck_replus(transducer, din, dout)
            witnesses = typecheck_replus_witnesses(transducer, din, dout)
            assert grammar.typechecks == witnesses.typechecks == expected

    def test_exponential_vast_witness_polynomial_time(self):
        # 18 levels of s_i → s_{i+1}+ with a doubling transducer: t_vast
        # unfolds to ~2^18 nodes and T(t_vast) to ~4^18; the DAG algorithms
        # must still answer instantly.
        depth = 18
        rules_in = {f"s{i}": f"s{i + 1}+" for i in range(depth)}
        din = DTD(rules_in, start="s0", alphabet={f"s{depth}"})
        alphabet = set(din.alphabet) | {f"t{i}" for i in range(depth + 1)}
        t_rules = {("q", f"s{i}"): f"t{i}(q q)" for i in range(depth)}
        t_rules[("q", f"s{depth}")] = f"t{depth}"
        transducer = TreeTransducer({"q"}, alphabet, "q", t_rules)
        rules_out = {f"t{i}": f"t{i + 1} t{i + 1}+" for i in range(depth)}
        dout = DTD(rules_out, start="t0", alphabet={f"t{depth}"})
        result = typecheck_replus_witnesses(transducer, din, dout)
        assert result.typechecks
        # And a failing variant is detected without unfolding.
        bad_rules = {f"t{i}": f"t{i + 1} t{i + 1}" for i in range(depth)}
        dout_bad = DTD(bad_rules, start="t0", alphabet={f"t{depth}"})
        result_bad = typecheck_replus_witnesses(transducer, din, dout_bad)
        assert not result_bad.typechecks

    def test_validate_output_dag(self):
        dout = DTD({"r": "a+"}, start="r")
        from repro.trees.dag import from_tree

        assert validate_output_dag(dout, from_tree(parse_tree("r(a a)")))
        assert not validate_output_dag(dout, from_tree(parse_tree("r")))
        assert not validate_output_dag(dout, from_tree(parse_tree("x(a)")))


class TestRootCases:
    def test_empty_input(self):
        din = DTD({"r": "x", "x": "x"}, start="r")
        dout = DTD({"r": "ε"}, start="r")
        t = TreeTransducer({"q"}, {"r", "x"}, "q", {})
        # a recursive DTD(RE+) defines the empty language (Section 5 note)
        assert typecheck_replus(t, din, dout).typechecks

    def test_missing_initial_rule(self):
        din = DTD({"r": "a"}, start="r")
        dout = DTD({"r": "a"}, start="r")
        t = TreeTransducer({"q"}, {"r", "a"}, "q", {})
        result = typecheck_replus(t, din, dout)
        assert not result.typechecks
        assert result.counterexample == parse_tree("r(a)")


class TestDeepSchemas:
    def test_eager_compile_of_a_deep_dtd_measures_its_footprint(self):
        """The nd_bc(128) witnesses nest 128 levels deep; sizing the
        session pickles them (registry eviction, artifact export)."""
        from repro.core.session import Session
        from repro.workloads.families import nd_bc_family

        transducer, din, dout, expected = nd_bc_family(128)
        session = Session(din, dout)
        assert session.footprint_bytes() > 0
        assert session.typecheck(transducer).typechecks == expected


class TestWarmRepeat:
    def test_warm_repeat_reuses_completed_output_dfas(self, monkeypatch):
        """A warm repeat reads the DTD's cached completed views and builds
        no new completion, nor re-scans a DFA for completeness (the
        grammar inclusion checks ask for a subset of an already-complete
        view's alphabet, which returns the view itself)."""
        import repro
        from repro.strings.dfa import DFA
        from repro.workloads.families import nd_bc_family

        transducer, din, dout, expected = nd_bc_family(64)
        session = repro.compile(din, dout)
        first = session.typecheck(transducer)
        assert first.stats["auto_method"] == "replus"
        built, scanned = [], []
        complete, is_complete = DFA.complete, DFA.is_complete

        def counted_complete(self, alphabet=None):
            result = complete(self, alphabet)
            if result is not self:
                built.append(result)
            return result

        def counted_scan(self, alphabet=None):
            scanned.append(self)
            return is_complete(self, alphabet)

        monkeypatch.setattr(DFA, "complete", counted_complete)
        monkeypatch.setattr(DFA, "is_complete", counted_scan)
        again = session.typecheck(transducer)
        assert again.typechecks == first.typechecks == expected
        assert built == [] and scanned == []
