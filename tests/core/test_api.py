"""Tests for the dispatching API."""

import pytest

from repro import typecheck
from repro.errors import ClassViolationError
from repro.schemas import DTD, dtd_to_dtac, dtd_to_nta
from repro.transducers import TreeTransducer
from repro.workloads.books import book_dtd, toc_output_dtd, toc_transducer


class TestDispatch:
    def test_auto_picks_replus(self):
        din = DTD({"r": "a+"}, start="r")
        dout = DTD({"r": "a a+"}, start="r")
        t = TreeTransducer(
            {"q"}, {"r", "a"}, "q", {("q", "r"): "r(q q)", ("q", "a"): "a"}
        )
        result = typecheck(t, din, dout)
        assert result.algorithm == "replus"
        assert result.typechecks  # doubling always emits ≥ 2 a's

    def test_auto_replus_failing(self):
        din = DTD({"r": "a+"}, start="r")
        dout = DTD({"r": "a a"}, start="r")
        t = TreeTransducer(
            {"q"}, {"r", "a"}, "q", {("q", "r"): "r(q q)", ("q", "a"): "a"}
        )
        result = typecheck(t, din, dout)
        assert result.algorithm == "replus"
        assert not result.typechecks
        assert result.verify(t, din.accepts, dout.accepts)

    def test_auto_routes_regex_dtd_pairs_backward(self):
        # An in-tractability pair of regex DTDs: auto routes by schema
        # class alone, to the complete backward engine; the paper's
        # forward engine stays one explicit `method=` away and agrees.
        result = typecheck(toc_transducer(), book_dtd(), toc_output_dtd())
        assert result.typechecks
        assert result.algorithm == result.stats["auto_method"] == "backward"
        explicit = typecheck(
            toc_transducer(), book_dtd(), toc_output_dtd(), method="forward"
        )
        assert explicit.algorithm == "forward"
        assert explicit.typechecks == result.typechecks

    def test_auto_picks_delrelab_for_automata(self):
        din = DTD({"r": "x*"}, start="r")
        dout = DTD({"r": "y*"}, start="r", alphabet={"x", "y", "r"})
        t = TreeTransducer(
            {"q"}, {"r", "x", "y"}, "q", {("q", "r"): "r(q)", ("q", "x"): "y"}
        )
        result = typecheck(t, dtd_to_nta(din), dtd_to_dtac(dout))
        assert result.algorithm == "delrelab"
        assert result.typechecks

    def test_frontier_instance_falls_back_to_backward(self):
        # Copying + unbounded deletion with general DTDs: provably hard
        # for the forward engine (it refuses the class), but inverse type
        # inference is complete over DTDs — auto degrades to it instead
        # of raising.
        din = DTD({"r": "a | b", "a": "(a | b)?"}, start="r")
        t = TreeTransducer(
            {"q0", "q"},
            {"r", "a", "b"},
            "q0",
            {("q0", "r"): "r(q)", ("q", "a"): "q q", ("q", "b"): "b"},
        )
        with pytest.raises(ClassViolationError):
            typecheck(t, din, din, method="forward")
        result = typecheck(t, din, din)
        assert result.algorithm == "backward"
        assert result.stats["auto_method"] == "backward"
        explicit = typecheck(t, din, din, method="backward")
        assert result.typechecks == explicit.typechecks
        if not result.typechecks:
            assert result.verify(t, din.accepts, din.accepts)

    def test_explicit_method_override(self):
        result = typecheck(
            toc_transducer(), book_dtd(), toc_output_dtd(), method="bruteforce",
            max_nodes=9,
        )
        assert result.algorithm == "bruteforce"
        assert result.typechecks

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            typecheck(toc_transducer(), book_dtd(), toc_output_dtd(), method="magic")

    def test_nta_schema_needs_delrelab(self):
        din = DTD({"r": "x*"}, start="r")
        t = TreeTransducer(
            {"q", "p"},
            {"r", "x"},
            "q",
            {("q", "r"): "r(p p)", ("p", "x"): "x"},
        )
        with pytest.raises(ClassViolationError):
            typecheck(t, dtd_to_nta(din), dtd_to_nta(din), method="forward")
