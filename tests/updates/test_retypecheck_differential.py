"""The retypecheck-vs-cold differential over random edit chains.

200 seeded chains of single-rule edits (``random_edit_chain``), each
checked step by step two ways: a warm session following the chain with
:meth:`Session.retypecheck` (a plain warm query whose schema artifacts
and result cache carry over from link to link) and a second session
that checks each link with :meth:`Session.typecheck`.
Verdicts, exception types, and counterexample *validity* must agree at
every link, across the forward, backward, and auto engines.
"""

import pytest

from repro.core.session import Session
from repro.errors import ReproError
from repro.trees.dag import DagTree, unfold_tree
from repro.workloads.updates import random_edit_chain

SEEDS = range(200)
CHAIN_EDITS = 5


def _outcome(call):
    """(verdict, counterexample, None) or (None, None, exception type)."""
    try:
        result = call()
    except ReproError as exc:
        return None, None, type(exc)
    return result.typechecks, result.counterexample, None


def _assert_valid_counterexample(cex, transducer, din, dout):
    if isinstance(cex, DagTree):
        cex = unfold_tree(cex)
    assert din.accepts(cex), f"counterexample not in input schema: {cex}"
    out = transducer.apply(cex)
    assert not dout.accepts(out), (
        f"counterexample's translation conforms: {cex} -> {out}"
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_edit_chain_matches_cold(seed):
    din, dout, chain = random_edit_chain(seed, length=CHAIN_EDITS)
    method = ("auto", "forward", "backward")[seed % 3]
    warm = Session(din, dout)
    cold = Session(din, dout)

    # Base link: a plain typecheck warms the chain (or fails identically).
    base_verdict, _cex, base_exc = _outcome(
        lambda: warm.typecheck(chain[0], method=method)
    )
    cold_verdict, _ccex, cold_exc = _outcome(
        lambda: cold.typecheck(chain[0], method=method)
    )
    assert (base_verdict, base_exc) == (cold_verdict, cold_exc)

    for prev, edited in zip(chain, chain[1:]):
        verdict, cex, exc = _outcome(
            lambda: warm.retypecheck(edited, prev, method=method)
        )
        ref_verdict, ref_cex, ref_exc = _outcome(
            lambda: cold.typecheck(edited, method=method)
        )
        assert verdict == ref_verdict, (
            f"verdict diverged on seed {seed} ({method}): "
            f"retypecheck={verdict} cold={ref_verdict}"
        )
        assert exc == ref_exc, (
            f"exception diverged on seed {seed} ({method}): "
            f"retypecheck={exc} cold={ref_exc}"
        )
        # Counterexamples need not be the same tree, but both must be
        # genuine witnesses of the same (false) verdict.
        if verdict is False:
            assert (cex is None) == (ref_cex is None)
            if cex is not None:
                _assert_valid_counterexample(cex, edited, din, dout)
                _assert_valid_counterexample(ref_cex, edited, din, dout)


@pytest.mark.parametrize("method", ["forward", "backward"])
def test_explicit_engines_recheck_replus_pairs_from_cache(method):
    """RE⁺ pairs are DTD pairs: an explicit forward or backward
    retypecheck runs there too (auto routes them to ``replus``), and a
    link back to the checked transducer is answered from the engine's
    per-transducer cache."""
    from repro.workloads.families import nd_bc_family, replus_family

    for family in (nd_bc_family, replus_family):
        for polarity in (True, False):
            transducer, din, dout, expected = family(4, polarity)
            warm = Session(din, dout, eager=False)
            warm.typecheck(transducer, method=method)
            result = warm.retypecheck(transducer, transducer, method=method)
            assert result.typechecks == expected
            assert result.stats["table_cache"] == "hit"
