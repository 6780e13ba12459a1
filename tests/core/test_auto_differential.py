"""The 200-seed differential suite for ``method="auto"`` engine routing.

Every seeded instance of
:func:`repro.workloads.random_instances.seeded_instance` runs through the
default (auto) dispatch and the route is checked against the policy and
against the explicit engines:

* the routed engine is recorded in ``stats["auto_method"]`` and matches
  ``result.algorithm``;
* RE⁺ pairs run ``replus`` and every other DTD pair runs ``backward``,
  whatever the transducer;
* on in-tractability instances the routed verdict is bit-identical to
  *both* explicit complete engines;
* on instances outside every ``T^{C,K}_trac`` — where
  ``method="forward"`` raises :class:`~repro.errors.ClassViolationError`
  — the backward verdict stands alone;
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
        replus_pair = din.kind == dout.kind == "RE+"
        assert method == ("replus" if replus_pair else "backward"), (
            f"seed {seed}: routed {method!r}"
        )
        assert result.algorithm == method, f"seed {seed}"
        if not result.typechecks:
            assert result.verify(transducer, din.accepts, dout.accepts), (
                f"seed {seed}: auto counterexample does not verify"
            )
        if method == "replus":
            continue
        if _in_trac(transducer):
            # Both complete engines apply: the routed verdict must agree
            # with both explicit ones.
            forward = typecheck_forward(transducer, din, dout)
            backward = typecheck_backward(transducer, din, dout)
            assert forward.typechecks == backward.typechecks, f"seed {seed}"
            assert result.typechecks == forward.typechecks, f"seed {seed}"
        else:
            # The forward engine refuses the class; auto's backward run
            # answers instead of raising.
            with pytest.raises(ClassViolationError):
                repro.typecheck(transducer, din, dout, method="forward")
            backward = typecheck_backward(transducer, din, dout)
            assert result.typechecks == backward.typechecks, f"seed {seed}"


def _wide_copy_non_replus():
    """A wide-copying in-tractability instance whose DTDs are *not*
    DTD(RE+) (optional factors), so auto runs backward instead of the
    grammar algorithm — where the ``m = 4`` tuple seeds against a
    multi-state output content DFA would make forward expensive."""
    from repro.schemas.dtd import DTD
    from repro.transducers.transducer import TreeTransducer

    din = DTD({"r": "a?", "a": "a?"}, start="r")
    dout = DTD({"r": "a a a a a*", "a": "a*"}, start="r")
    transducer = TreeTransducer(
        {"q0", "q"}, {"r", "a"}, "q0",
        {("q0", "r"): "r(q q q q)", ("q", "a"): "a(q)"},
    )
    return transducer, din, dout


def test_auto_routes_wide_copying_backward():
    transducer, din, dout = _wide_copy_non_replus()
    result = repro.typecheck(transducer, din, dout)
    assert result.stats["auto_method"] == "backward"
    assert (
        typecheck_forward(transducer, din, dout).typechecks
        == result.typechecks
    )
    explicit = typecheck_backward(transducer, din, dout)
    assert result.typechecks == explicit.typechecks
    if not result.typechecks:
        assert result.verify(transducer, din.accepts, dout.accepts)


def test_max_tuple_still_forces_forward():
    """The escape hatch: with ``max_tuple`` given, auto always runs the
    (budgeted) forward engine on a DTD pair it would otherwise route
    backward."""
    transducer, din, dout = _wide_copy_non_replus()
    plain_auto = repro.typecheck(transducer, din, dout)
    assert plain_auto.stats["auto_method"] == "backward"
    forced = repro.typecheck(transducer, din, dout, max_tuple=8)
    assert forced.stats["auto_method"] == "forward"
    assert forced.algorithm == "forward"
    assert forced.typechecks == plain_auto.typechecks

