"""Sharded forward fixpoint: merged shard tables equal the unsharded run."""

import pickle

import pytest

from repro.core.forward import (
    compute_forward_tables,
    forward_check_keys,
    forward_key_costs,
    merge_forward_tables,
    plan_forward_shards,
    typecheck_forward,
    ForwardSchema,
)
from repro.core.session import Session
from repro.transducers.analysis import analyze
from repro.workloads.families import filtering_family, nd_bc_family
from repro.workloads.random_instances import seeded_instance


def _in_trac(transducer) -> bool:
    return analyze(transducer).deletion_path_width is not None


def _sequential_shards(session):
    """An in-process stand-in for the pool's fan-out: each partition is
    computed against a *fresh* schema context and shipped through pickle,
    exactly as a worker would."""

    def compute(partitions, method):
        assert method == "forward"
        shards = []
        for partition in partitions:
            din, dout = session.sin, session.sout
            shard = compute_forward_tables(
                transducer=compute._transducer,
                din=din,
                dout=dout,
                keys=partition,
                schema=ForwardSchema(din, dout),
            )
            shards.append(pickle.loads(pickle.dumps(shard)))
        return shards

    return compute


class TestShardMergeEqualsUnsharded:
    @pytest.mark.parametrize("family,n", [
        ("nd_bc_ok", 8), ("nd_bc_bad", 8), ("filtering_ok", 6),
        ("filtering_bad", 6),
    ])
    def test_known_families(self, family, n):
        base, ok = family.rsplit("_", 1)
        maker = nd_bc_family if base == "nd_bc" else filtering_family
        transducer, din, dout, expected = maker(n, typechecks=(ok == "ok"))
        session = Session(din, dout, eager=False)
        compute = _sequential_shards(session)
        compute._transducer = transducer
        sharded = session.typecheck_sharded(transducer, compute, shards=3)
        unsharded = typecheck_forward(transducer, din, dout)
        assert sharded.typechecks == unsharded.typechecks == expected
        if not sharded.typechecks:
            assert sharded.verify(transducer, din.accepts, dout.accepts)

    @pytest.mark.parametrize("chunk", range(4))
    def test_seeded_instances_verdicts_bit_identical(self, chunk):
        """Sharded verdicts equal unsharded across the shared 200-seed
        equivalence generator (the in-trac slice) — under the LPT cost
        planner, with a positional ``keys[i::2]`` split spot-checked
        alongside (partitioning must never affect the verdict)."""
        for seed in range(chunk * 50, (chunk + 1) * 50):
            transducer, din, dout = seeded_instance(seed)
            if not _in_trac(transducer):
                continue
            unsharded = typecheck_forward(transducer, din, dout)
            session = Session(din, dout, eager=False)
            compute = _sequential_shards(session)
            compute._transducer = transducer
            sharded = session.typecheck_sharded(transducer, compute, shards=2)
            assert sharded.typechecks == unsharded.typechecks, f"seed {seed}"
            assert sharded.stats.get("violations") == unsharded.stats.get(
                "violations"
            ), f"seed {seed}"
            if not sharded.typechecks:
                assert sharded.verify(transducer, din.accepts, dout.accepts), (
                    f"seed {seed}: sharded counterexample does not verify"
                )
            if seed % 10 == 0:
                keys = session.check_keys(transducer)
                merged = merge_forward_tables(
                    compute([keys[index::2] for index in range(2)], "forward")
                )
                split = typecheck_forward(transducer, din, dout, tables=merged)
                assert split.typechecks == unsharded.typechecks, f"seed {seed}"
                assert split.stats.get("violations") == unsharded.stats.get(
                    "violations"
                ), f"seed {seed}"

    def test_merged_tables_equal_unsharded_tables(self):
        """Cell-level check: the merged accepted sets are exactly the
        unsharded engine's accepted sets, key by key."""
        transducer, din, dout, _ = nd_bc_family(6, typechecks=False)
        schema = ForwardSchema(din, dout)
        keys = forward_check_keys(transducer, din, schema)
        assert len(keys) >= 2
        shards = [
            compute_forward_tables(
                transducer, din, dout, keys[index::2],
                schema=ForwardSchema(din, dout),
            )
            for index in range(2)
        ]
        merged = merge_forward_tables(shards)

        reference = compute_forward_tables(
            transducer, din, dout, keys, schema=ForwardSchema(din, dout)
        )
        assert set(merged["hedge"]) == set(reference["hedge"])
        for key, entry in reference["hedge"].items():
            assert set(merged["hedge"][key].accepted) == set(entry.accepted), key
        assert set(merged["tree"]) == set(reference["tree"])
        for key, (vals, _i, _o, _x) in reference["tree"].items():
            assert set(merged["tree"][key][0]) == set(vals), key


class TestShardPlanner:
    def test_costs_follow_the_amortized_closure_model(self):
        """``forward_key_costs`` charges each key its ``n_out^m`` tuple
        seeds plus the σ-independent shared cells of its dependency
        closure, amortized over the batch keys sharing them — the batch
        as a whole pays every shared cell exactly once (the old model
        ignored the closure entirely, starving shards whose cheap-looking
        keys drag the whole kernel in)."""
        transducer, din, dout, _ = nd_bc_family(6)
        schema = ForwardSchema(din, dout)
        keys = forward_check_keys(transducer, din, schema)
        out_alphabet = frozenset(transducer.alphabet | dout.alphabet)
        costs = forward_key_costs(keys, schema, out_alphabet)
        assert len(costs) == len(keys)
        assert all(cost >= 1 for cost in costs)
        # Seeds are a floor: a root check with tuple slots never predicts
        # cheaper than its behavior-seed count alone.
        def seeds(key):
            sigma, _a, P = key
            if not P:
                return 0.0
            n_out = len(schema.out_dfa(sigma, out_alphabet).states)
            return float(max(1, n_out) ** len(P))

        for key, cost in zip(keys, costs):
            assert cost >= seeds(key), key
        # The closure term is real: a singleton batch pays its whole
        # dependency closure on top of the seeds.
        single = forward_key_costs(keys[:1], schema, out_alphabet)[0]
        closure_cost = single - seeds(keys[0])
        assert closure_cost > 0
        # Amortization: duplicating the key splits the shared closure
        # between the two copies — the batch total still pays each shared
        # cell once, so the model is sum-preserving under fan-out.
        pair = forward_key_costs([keys[0], keys[0]], schema, out_alphabet)
        assert pair[0] == pair[1]
        assert sum(pair) == pytest.approx(2 * seeds(keys[0]) + closure_cost)

    def test_lpt_is_deterministic_and_balanced(self):
        keys = [("s", "a", ("q",) * i) for i in range(8)]
        costs = [3 ** i for i in range(8)]
        partitions, loads = plan_forward_shards(keys, costs, 3)
        again, loads2 = plan_forward_shards(keys, costs, 3)
        assert partitions == again and loads == loads2  # deterministic
        assert sorted(key for part in partitions for key in part) == sorted(keys)
        assert all(partitions), "LPT must not produce empty shards"
        # LPT bound: no shard exceeds the ideal average by more than the
        # largest single item (the classic 4/3-ish guarantee, loosely)
        assert max(loads) <= sum(costs) / 3 + max(costs)
        # and it strictly beats the round-robin split on this skew
        rr_loads = [sum(costs[index::3]) for index in range(3)]
        assert max(loads) < max(rr_loads)

    def test_more_shards_than_keys_collapses(self):
        keys = [("s", "a", ())]
        partitions, loads = plan_forward_shards(keys, [1], 4)
        assert partitions == [keys] and loads == [1]

    def test_sharded_stats_expose_planner_balance(self):
        transducer, din, dout, _ = nd_bc_family(8)
        session = Session(din, dout, eager=False)
        compute = _sequential_shards(session)
        compute._transducer = transducer
        result = session.typecheck_sharded(transducer, compute, shards=3)
        assert result.stats["shards"] == 3
        assert len(result.stats["shard_costs"]) == 3
        assert len(result.stats["shard_wall_s"]) == 3
        assert all(wall >= 0 for wall in result.stats["shard_wall_s"])
        assert result.stats["shard_spread"] >= 1.0

    def test_unknown_planner_rejected(self):
        """LPT over predicted cell costs is the only partitioner, so a
        ``planner=`` option is an unknown option like any other."""
        transducer, din, dout, _ = nd_bc_family(4)
        session = Session(din, dout, eager=False)
        with pytest.raises(TypeError, match="'planner'"):
            session.typecheck_sharded(
                transducer, lambda partitions, method: [], planner="cost"
            )


class TestShardOptionGuards:
    def test_use_kernel_flip_rejected(self):
        """There is one forward evaluator, so a per-call engine flip is an
        unknown option — rejected up front, before any shard runs."""
        transducer, din, dout, _ = nd_bc_family(4)
        session = Session(din, dout, eager=False)
        with pytest.raises(TypeError, match="'use_kernel'"):
            session.typecheck_sharded(
                transducer, lambda partitions, method: [], use_kernel=False
            )

    def test_sharded_stats_carry_worker_product_nodes(self):
        transducer, din, dout, _ = nd_bc_family(6)
        session = Session(din, dout, eager=False)
        compute = _sequential_shards(session)
        compute._transducer = transducer
        sharded = session.typecheck_sharded(transducer, compute, shards=2)
        assert sharded.stats["product_nodes"] > 0  # workers' work, summed


class TestPoolSharding:
    def test_pool_sharded_matches_unsharded(self, shared_pool):
        transducer, din, dout, expected = nd_bc_family(10, typechecks=False)
        result = shared_pool.typecheck_sharded(din, dout, transducer, shards=2)
        assert result.typechecks == expected is False
        assert result.verify(transducer, din.accepts, dout.accepts)

    def test_pool_sharded_on_passing_family(self, shared_pool):
        transducer, din, dout, expected = filtering_family(8)
        result = shared_pool.typecheck_sharded(din, dout, transducer, shards=2)
        assert result.typechecks == expected is True

    def test_pool_sharded_backward_method(self, shared_pool):
        """The pool fans the backward engine's product cells out to real
        worker processes and the merged verdict matches the family."""
        transducer, din, dout, expected = nd_bc_family(8, typechecks=False)
        result = shared_pool.typecheck_sharded(
            din, dout, transducer, shards=2, method="backward"
        )
        assert result.typechecks == expected is False
        assert result.stats["shard_method"] == "backward"
        assert result.verify(transducer, din.accepts, dout.accepts)

    def test_pool_sharded_auto_resolves_before_fan_out(self, shared_pool):
        """``method="auto"`` resolves against the session cost models
        before building worker batches, and the resolved engine lands in
        the stats."""
        from repro.workloads.families import wide_copy_family

        transducer, din, dout, expected = wide_copy_family(5)
        result = shared_pool.typecheck_sharded(
            din, dout, transducer, shards=2, method="auto"
        )
        assert result.typechecks == expected is True
        assert result.stats["shard_method"] in ("forward", "backward")
