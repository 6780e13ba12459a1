"""The 200-seed differential suite for ``method="auto"`` engine routing.

Every seeded instance of
:func:`repro.workloads.random_instances.seeded_instance` runs through the
default (auto) dispatch and the route is checked against the policy and
against the explicit engines:

* the routed engine is recorded in ``stats["auto_method"]`` and matches
  ``result.algorithm``;
* in-tractability DTD instances are routed by the two key-cost models
  (both recorded) and the routed verdict is bit-identical to *both*
  explicit complete engines;
* instances outside every ``T^{C,K}_trac`` — where ``method="forward"``
  still raises :class:`~repro.errors.ClassViolationError` — are degraded
  to the backward engine instead of refused;
* rejecting verdicts carry verifying counterexamples.
"""

import pytest

import repro
from repro.backward import typecheck_backward
from repro.core.forward import typecheck_forward
from repro.errors import ClassViolationError
from repro.transducers.analysis import analyze
from repro.workloads.random_instances import seeded_instance
from repro.xpath.compile import compile_calls

N_SEEDS = 200


def _in_trac(transducer) -> bool:
    plain = compile_calls(transducer) if transducer.uses_calls() else transducer
    return analyze(plain).deletion_path_width is not None


@pytest.mark.parametrize("chunk", range(10))
def test_auto_routes_and_matches_explicit_engines(chunk):
    chunk_size = N_SEEDS // 10
    for seed in range(chunk * chunk_size, (chunk + 1) * chunk_size):
        transducer, din, dout = seeded_instance(seed)
        result = repro.typecheck(transducer, din, dout)
        method = result.stats.get("auto_method")
        assert method in ("replus", "forward", "backward", "delrelab"), (
            f"seed {seed}: unrecorded route {method!r}"
        )
        assert result.algorithm == method, f"seed {seed}"
        if not result.typechecks:
            assert result.verify(transducer, din.accepts, dout.accepts), (
                f"seed {seed}: auto counterexample does not verify"
            )
        if method == "replus":
            continue
        if _in_trac(transducer):
            # Both complete engines apply: the route is the cost
            # comparison, and whichever engine ran must agree with both
            # explicit ones.
            if method in ("forward", "backward"):
                fcost = result.stats["auto_forward_cost"]
                bcost = result.stats["auto_backward_cost"]
                assert (method == "forward") == (fcost <= bcost), (
                    f"seed {seed}: routed {method} with costs {fcost}/{bcost}"
                )
            forward = typecheck_forward(transducer, din, dout)
            backward = typecheck_backward(transducer, din, dout)
            assert forward.typechecks == backward.typechecks, f"seed {seed}"
            assert result.typechecks == forward.typechecks, f"seed {seed}"
        else:
            # The forward engine refuses the class; auto must degrade to
            # the complete backward engine, never raise.
            assert method == "backward", f"seed {seed}: routed {method}"
            with pytest.raises(ClassViolationError):
                repro.typecheck(transducer, din, dout, method="forward")
            backward = typecheck_backward(transducer, din, dout)
            assert result.typechecks == backward.typechecks, f"seed {seed}"


def _wide_copy_non_replus():
    """A wide-copying in-tractability instance whose DTDs are *not*
    DTD(RE+) (optional factors), so auto reaches the forward/backward
    cost comparison instead of the grammar algorithm — and the ``m = 4``
    tuple seeds against a multi-state output content DFA make the
    comparison prefer backward."""
    from repro.schemas.dtd import DTD
    from repro.transducers.transducer import TreeTransducer

    din = DTD({"r": "a?", "a": "a?"}, start="r")
    dout = DTD({"r": "a a a a a*", "a": "a*"}, start="r")
    transducer = TreeTransducer(
        {"q0", "q"}, {"r", "a"}, "q0",
        {("q0", "r"): "r(q q q q)", ("q", "a"): "a(q)"},
    )
    return transducer, din, dout


def test_cost_comparison_routes_wide_copying_backward():
    transducer, din, dout = _wide_copy_non_replus()
    result = repro.typecheck(transducer, din, dout)
    assert result.stats["auto_method"] == "backward"
    assert (
        result.stats["auto_backward_cost"]
        < result.stats["auto_forward_cost"]
    )
    explicit = typecheck_backward(transducer, din, dout)
    assert result.typechecks == explicit.typechecks
    if not result.typechecks:
        assert result.verify(transducer, din.accepts, dout.accepts)


def test_max_tuple_still_forces_forward():
    """The escape hatch bypasses the cost comparison entirely: with
    ``max_tuple`` given, auto always runs the (budgeted) forward engine,
    even on instances the comparison would route backward."""
    transducer, din, dout = _wide_copy_non_replus()
    plain_auto = repro.typecheck(transducer, din, dout)
    assert plain_auto.stats["auto_method"] == "backward"
    forced = repro.typecheck(transducer, din, dout, max_tuple=8)
    assert forced.stats["auto_method"] == "forward"
    assert forced.algorithm == "forward"
    assert forced.typechecks == plain_auto.typechecks

