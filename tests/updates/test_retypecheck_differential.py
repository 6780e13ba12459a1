"""The retypecheck-vs-cold differential over random edit chains.

200 seeded chains of single-rule edits (``random_edit_chain``), each
checked step by step two ways: a warm session following the chain with
:meth:`Session.retypecheck` (incremental / warmed / cold as the guards
decide) and plain :meth:`Session.typecheck` of each link in isolation.
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
def test_explicit_engines_diff_on_replus_pairs(method):
    """RE⁺ pairs are DTD pairs: an explicit forward or backward
    retypecheck takes the delta path there too (auto routes them to
    ``replus``, which re-runs warmed)."""
    from repro.workloads.families import nd_bc_family, replus_family

    for family in (nd_bc_family, replus_family):
        for polarity in (True, False):
            transducer, din, dout, expected = family(4, polarity)
            warm = Session(din, dout, eager=False)
            warm.typecheck(transducer, method=method)
            result = warm.retypecheck(transducer, transducer, method=method)
            assert result.typechecks == expected
            assert result.stats["retypecheck_mode"] != "cold"


def test_chains_exercise_every_retypecheck_mode():
    """Sanity on the harness itself: across a slice of seeds the warm
    sessions must actually hit the incremental path (otherwise the
    differential above would only ever compare cold against cold)."""
    modes = set()
    for seed in range(40):
        din, dout, chain = random_edit_chain(seed, length=CHAIN_EDITS)
        warm = Session(din, dout)
        try:
            warm.typecheck(chain[0], method="auto")
        except ReproError:
            continue
        for prev, edited in zip(chain, chain[1:]):
            try:
                result = warm.retypecheck(edited, prev, method="auto")
            except ReproError:
                continue
            modes.add(result.stats.get("retypecheck_mode"))
    assert "incremental" in modes or "warmed" in modes, modes
    assert "cold" in modes, modes


def test_incremental_tables_retain_sigma_independent_cells():
    """Every σ-independent (empty-P) cell of the base snapshot must ride
    into the incremental run's published tables.

    Those cells are skipped by the dirty-reachability pre-walk (the
    schema's shared region owns their evaluation), but a *reused* cell's
    recorded witness can recurse into one that no dirty cell requests in
    the new run — and the new snapshot is the next link's base.  Dropping
    them left counterexample extraction with dangling references
    (``KeyError: (None, 's0', ())`` under some hash orders).
    """
    from repro.workloads.updates import edit_arm_pair, edit_arm_transducer

    arms = 6
    din, dout = edit_arm_pair(arms)
    session = Session(din, dout)
    base = edit_arm_transducer(arms)
    assert session.typecheck(base, method="forward").typechecks
    schema = session.forward_schema()

    prev = base
    for i in range(arms):
        edited = edit_arm_transducer(arms, edited=i, variant="unsafe")
        result = session.retypecheck(edited, prev, method="forward")
        assert result.stats["retypecheck_mode"] == "incremental"
        assert result.typechecks is False

        base_tables = schema.cached_tables(prev.content_hash())
        new_tables = schema.cached_tables(edited.content_hash())
        assert base_tables is not None and new_tables is not None
        for kind in ("hedge", "tree"):
            missing = [
                key for key in base_tables[kind]
                if not key[2] and key not in new_tables[kind]
            ]
            assert not missing, f"{kind} cells dropped: {missing}"
        prev = edited
