"""The 200-seed differential suite for the backward engine.

Every seeded instance of :func:`repro.workloads.random_instances.seeded_instance`
(the same derivations the forward kernel-equivalence and session-reuse
suites replay) is checked three ways:

* ``method="backward"`` verdicts must be bit-identical to
  ``typecheck_forward`` (the interned kernel) **and** to the seed
  object-state oracle ``repro.kernel.reference.typecheck_forward_object``
  wherever the forward engine applies;
* accepting verdicts must be confirmed by the brute-force oracle up to
  its node budget; rejecting verdicts must carry *verifying*
  counterexamples (witnesses may legitimately differ between engines);
* instances outside every ``T^{C,K}_trac`` — where the forward engine
  refuses — still get backward verdicts, validated against the oracle.

The one-shot facade run doubles as Session coverage: ``typecheck()``
resolves through the registry's compiled sessions, so the suite
exercises the session dispatch, the per-transducer result cache and the
warm ``BackwardSchema`` path on every repeated pair.
"""

import pytest

from repro.backward import typecheck_backward
from repro.core import typecheck
from repro.core.forward import typecheck_forward
from repro.kernel.reference import typecheck_forward_object
from repro.transducers.analysis import analyze
from repro.workloads.random_instances import seeded_instance

N_SEEDS = 200
ORACLE_MAX_NODES = 6


def _in_trac(transducer) -> bool:
    return analyze(transducer).deletion_path_width is not None


@pytest.mark.parametrize("chunk", range(10))
def test_backward_matches_forward_and_oracle(chunk):
    chunk_size = N_SEEDS // 10
    for seed in range(chunk * chunk_size, (chunk + 1) * chunk_size):
        transducer, din, dout = seeded_instance(seed)
        backward = typecheck_backward(transducer, din, dout)
        assert backward.algorithm == "backward"
        if _in_trac(transducer):
            for forward_check in (typecheck_forward, typecheck_forward_object):
                forward = forward_check(transducer, din, dout)
                assert forward.typechecks == backward.typechecks, (
                    f"seed {seed}: backward {backward.typechecks} vs "
                    f"{forward_check.__name__} {forward.typechecks}"
                )
        if backward.typechecks:
            assert backward.counterexample is None
            oracle = typecheck(
                transducer, din, dout, method="bruteforce",
                max_nodes=ORACLE_MAX_NODES,
            )
            assert oracle.typechecks, (
                f"seed {seed}: backward says OK, oracle found "
                f"{oracle.counterexample}"
            )
        else:
            assert backward.verify(transducer, din.accepts, dout.accepts), (
                f"seed {seed}: backward counterexample "
                f"{backward.counterexample} does not verify"
            )


@pytest.mark.parametrize("chunk", range(4))
def test_one_shot_and_session_agree_with_direct_calls(chunk):
    """``typecheck(method="backward")`` — the registry-session path — must
    give the direct function's verdict; repeated calls hit the warm
    session's result cache without changing the answer."""
    chunk_size = 80 // 4
    for seed in range(chunk * chunk_size, (chunk + 1) * chunk_size):
        transducer, din, dout = seeded_instance(seed)
        direct = typecheck_backward(transducer, din, dout)
        via_session = typecheck(transducer, din, dout, method="backward")
        assert via_session.typechecks == direct.typechecks, f"seed {seed}"
        repeat = typecheck(transducer, din, dout, method="backward")
        assert repeat.typechecks == direct.typechecks, f"seed {seed}"
        if via_session.stats.get("table_cache") == "miss":
            # The engine ran (no preamble short-circuit): the repeat must
            # be served from the warm session's result cache.
            assert repeat.stats.get("table_cache") == "hit", f"seed {seed}"
        if not repeat.typechecks:
            assert repeat.verify(transducer, din.accepts, dout.accepts), (
                f"seed {seed}: cached counterexample does not verify"
            )
