"""End-to-end equivalence of the interned-kernel forward engine.

Three-way differential over ≥200 seeded random instances from
:mod:`repro.workloads.random_instances`:

* kernel fixpoint (``typecheck_forward``) vs the seed object-state
  fixpoint (the oracle ``repro.kernel.reference.typecheck_forward_object``)
  — verdicts must match exactly, and rejecting runs must produce
  *verifying* counterexamples (witnesses may legitimately differ between
  engines);
* ``typecheck(method="forward")`` vs ``typecheck(method="bruteforce")`` —
  the oracle must confirm every accept up to its node budget.
"""

import pytest

from repro.core import typecheck
from repro.core.forward import typecheck_forward
from repro.kernel.reference import typecheck_forward_object
from repro.transducers.analysis import analyze
from repro.workloads.random_instances import seeded_instance

N_SEEDS = 200
ORACLE_MAX_NODES = 6

# The generator now lives in repro.workloads.random_instances so the
# session-reuse suite can replay the exact same 200 instances.
_instance = seeded_instance


def _in_trac(transducer) -> bool:
    return analyze(transducer).deletion_path_width is not None


@pytest.mark.parametrize("chunk", range(10))
def test_kernel_matches_object_engine_and_oracle(chunk):
    chunk_size = N_SEEDS // 10
    for seed in range(chunk * chunk_size, (chunk + 1) * chunk_size):
        transducer, din, dout = _instance(seed)
        if not _in_trac(transducer):
            continue  # outside T_trac: the forward engine does not apply
        kernel = typecheck_forward(transducer, din, dout)
        objectpath = typecheck_forward_object(transducer, din, dout)
        assert objectpath.stats["engine"] == "object"
        assert kernel.typechecks == objectpath.typechecks, f"seed {seed}"
        assert kernel.stats.get("violations") == objectpath.stats.get(
            "violations"
        ), f"seed {seed}"
        if kernel.typechecks:
            oracle = typecheck(
                transducer, din, dout, method="bruteforce",
                max_nodes=ORACLE_MAX_NODES,
            )
            assert oracle.typechecks, (
                f"seed {seed}: kernel says OK, oracle found {oracle.counterexample}"
            )
        else:
            for result, name in ((kernel, "kernel"), (objectpath, "object")):
                assert result.verify(transducer, din.accepts, dout.accepts), (
                    f"seed {seed}: {name} counterexample does not verify"
                )


def test_engines_agree_on_internal_tables():
    """For shared (non-canonicalized) cells the two engines reach the same
    least fixpoint — spot-checked on a deleting instance."""
    from repro.core.forward import ForwardEngine
    from repro.kernel.reference import ObjectForwardEngine
    from repro.schemas import DTD
    from repro.transducers import TreeTransducer

    din = DTD({"r": "m*", "m": "a?"}, start="r")
    transducer = TreeTransducer(
        {"q0", "p"},
        {"r", "m", "a", "out"},
        "q0",
        {("q0", "r"): "out(p p)", ("p", "m"): "p", ("p", "a"): "a"},
    )
    dout = DTD({"out": "a*"}, start="out", alphabet={"a", "out"})

    tables = {}
    for engine_cls in (ForwardEngine, ObjectForwardEngine):
        engine = engine_cls(transducer, din, dout, max_tuple=4)
        key = engine.request_hedge("out", "r", ("p", "p"))
        engine.run()
        tables[engine_cls] = (
            set(engine.tree_vals[("out", "m", ("p", "p"))]),
            set(engine.hedge_vals[key].accepted),
        )
    assert tables[ForwardEngine] == tables[ObjectForwardEngine]
