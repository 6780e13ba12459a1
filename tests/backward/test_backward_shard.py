"""Sharded backward fixpoint: merged shard tables equal the unsharded run.

Mirrors ``tests/service/test_shard.py`` for the backward engine: each
partition of the per-input-symbol product cells is computed against a
*fresh* :class:`~repro.backward.BackwardSchema` and shipped through
pickle, exactly as a pool worker would, and the merged tables must
reproduce the unsharded engine's verdict bit for bit.
"""

import pickle

import pytest

from repro.backward import (
    BackwardSchema,
    backward_check_keys,
    backward_key_costs,
    compute_backward_tables,
    merge_backward_tables,
    typecheck_backward,
)
from repro.core.session import Session
from repro.workloads.families import (
    filtering_family,
    nd_bc_family,
    wide_copy_family,
)
from repro.workloads.random_instances import seeded_instance

N_SEEDS = 200


def _sequential_shards(transducer, din, dout):
    """An in-process stand-in for the pool's fan-out (fresh schema per
    partition + a pickle round trip)."""

    def compute(partitions, method):
        assert method == "backward"
        shards = []
        for partition in partitions:
            shard = compute_backward_tables(
                transducer, din, dout, partition,
                schema=BackwardSchema(din, dout),
            )
            shards.append(pickle.loads(pickle.dumps(shard)))
        return shards

    return compute


class TestShardMergeEqualsUnsharded:
    @pytest.mark.parametrize("family,n", [
        ("nd_bc_ok", 8), ("nd_bc_bad", 8), ("filtering_ok", 6),
        ("filtering_bad", 6), ("wide_copy_ok", 5), ("wide_copy_bad", 5),
    ])
    def test_known_families(self, family, n):
        base, ok = family.rsplit("_", 1)
        maker = {
            "nd_bc": nd_bc_family,
            "filtering": filtering_family,
            "wide_copy": wide_copy_family,
        }[base]
        transducer, din, dout, expected = maker(n, typechecks=(ok == "ok"))
        session = Session(din, dout, eager=False)
        sharded = session.typecheck_sharded(
            transducer, _sequential_shards(transducer, din, dout),
            shards=3, method="backward",
        )
        unsharded = typecheck_backward(transducer, din, dout)
        assert sharded.typechecks == unsharded.typechecks == expected
        assert sharded.stats["shard_method"] == "backward"
        if not sharded.typechecks:
            assert sharded.verify(transducer, din.accepts, dout.accepts)

    @pytest.mark.parametrize("chunk", range(10))
    def test_seeded_instances_verdicts_bit_identical(self, chunk):
        """Sharded backward verdicts equal unsharded across the shared
        200-seed equivalence generator — including the out-of-trac slice
        the forward fan-out cannot touch."""
        chunk_size = N_SEEDS // 10
        for seed in range(chunk * chunk_size, (chunk + 1) * chunk_size):
            transducer, din, dout = seeded_instance(seed)
            unsharded = typecheck_backward(transducer, din, dout)
            session = Session(din, dout, eager=False)
            sharded = session.typecheck_sharded(
                transducer, _sequential_shards(transducer, din, dout),
                shards=2, method="backward",
            )
            assert sharded.typechecks == unsharded.typechecks, f"seed {seed}"
            if not sharded.typechecks:
                assert sharded.verify(transducer, din.accepts, dout.accepts), (
                    f"seed {seed}: sharded counterexample does not verify"
                )
            if seed % 10 == 0:
                # A positional split instead of the LPT plan: partitioning
                # must never affect the verdict.
                keys = session.check_keys(transducer, "backward")
                merged = merge_backward_tables(
                    _sequential_shards(transducer, din, dout)(
                        [keys[index::2] for index in range(2)], "backward"
                    )
                )
                split = typecheck_backward(transducer, din, dout, tables=merged)
                assert split.typechecks == unsharded.typechecks, f"seed {seed}"

    def test_merged_tables_equal_unsharded_tables(self):
        """Cell-level check: per-symbol derived Φ sets of the disjoint
        merge are exactly the one-shard (full-key) snapshot's."""
        transducer, din, dout, _ = nd_bc_family(6, typechecks=False)
        keys = backward_check_keys(transducer, din)
        assert len(keys) >= 2
        shards = [
            compute_backward_tables(
                transducer, din, dout, keys[index::2],
                schema=BackwardSchema(din, dout),
            )
            for index in range(2)
        ]
        merged = merge_backward_tables(shards)
        reference = compute_backward_tables(
            transducer, din, dout, keys, schema=BackwardSchema(din, dout)
        )
        assert set(merged["derived"]) == set(reference["derived"])
        for a, phis in reference["derived"].items():
            assert set(merged["derived"][a]) == set(phis), a
        assert set(merged["witness"]) == set(reference["witness"])


class TestShardPlanner:
    def test_costs_are_positive_and_planned(self):
        transducer, din, dout, _ = nd_bc_family(6)
        keys = backward_check_keys(transducer, din)
        costs = backward_key_costs(
            keys, BackwardSchema(din, dout), transducer
        )
        assert len(costs) == len(keys)
        assert all(cost >= 1 for cost in costs)


class TestAutoResolution:
    def test_auto_resolves_by_schema_class(self):
        """The sharded route (``route(T, shardable=True)``) is the
        schema-class ladder: every DTD pair shards on backward, RE⁺ ones
        included (replus cannot shard), unless ``max_tuple`` pins
        forward."""
        transducer, din, dout, _ = nd_bc_family(8)
        session = Session(din, dout, eager=False)
        assert din.kind == dout.kind == "RE+"
        assert session.route(transducer) == "replus"
        assert session.route(transducer, shardable=True) == "backward"
        assert session.route(
            transducer, max_tuple=4, shardable=True
        ) == "forward"

        wide_t, wide_din, wide_dout, _ = wide_copy_family(6)
        wide_session = Session(wide_din, wide_dout, eager=False)
        assert wide_session.route(wide_t, shardable=True) == "backward"
        assert wide_session.route(
            wide_t, max_tuple=4, shardable=True
        ) == "forward"
        with pytest.raises(ValueError, match="unknown shard method"):
            wide_session.route(wide_t, method="magic", shardable=True)

    def test_wide_chain_routes_without_compiling(self):
        """Routing reads the schema class only: a 400-wide chain routes
        without building any engine's schema or analysing ``T``."""
        from repro.schemas.dtd import DTD
        from repro.transducers.transducer import TreeTransducer

        width = 400
        chain = " ".join(f"a{i}" for i in range(width))
        rules = {"r": chain}
        for i in range(width):
            rules[f"a{i}"] = ""
        din = DTD(rules, start="r")
        transducer = TreeTransducer(
            {"q"}, set(din.alphabet), "q",
            dict(
                [(("q", "r"), "r(q)")]
                + [(("q", f"a{i}"), f"a{i}") for i in range(width)]
            ),
        )
        session = Session(din, din, eager=False)
        assert session.route(transducer) == "replus"
        assert session.route(transducer, shardable=True) == "backward"
        assert session._schemas == {} and len(session._analyses) == 0

    def test_auto_sharded_run_reports_resolved_method(self):
        import repro
        from repro.core.forward import ForwardSchema, compute_forward_tables

        transducer, din, dout, expected = wide_copy_family(
            5, typechecks=False
        )

        def compute(partitions, method):
            if method == "backward":
                return _sequential_shards(transducer, din, dout)(partitions, method)
            return [
                compute_forward_tables(
                    transducer, din, dout, partition,
                    schema=ForwardSchema(din, dout),
                )
                for partition in partitions
            ]

        session = Session(din, dout, eager=False)
        result = session.typecheck_sharded(
            transducer, compute, shards=2, method="auto"
        )
        assert result.stats["shard_method"] == "backward"
        assert result.typechecks == expected
        assert result.verify(transducer, din.accepts, dout.accepts)

    def test_backward_sharding_rejects_max_tuple(self):
        transducer, din, dout, _ = nd_bc_family(4)
        session = Session(din, dout, eager=False)
        with pytest.raises(TypeError, match="max_tuple"):
            session.typecheck_sharded(
                transducer, lambda partitions, method: [],
                method="backward", max_tuple=3,
            )
