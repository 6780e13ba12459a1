"""The profile-guided shard planner: measured ``shard_wall_s`` fed back
into the next LPT plan for a repeated (pair, transducer)."""

import pytest

from repro.core.forward import ForwardSchema, compute_forward_tables, typecheck_forward
from repro.core.session import Session
from repro.workloads.random_instances import seeded_instance
from repro.workloads.families import nd_bc_family


def _sequential_compute(transducer, din, dout):
    def compute(partitions, method):
        assert method == "forward"
        return [
            compute_forward_tables(
                transducer, din, dout, partition,
                schema=ForwardSchema(din, dout),
            )
            for partition in partitions
        ]

    return compute


class TestProfilePlanner:
    def test_first_sight_uses_model_then_measurements(self):
        transducer, din, dout, expected = nd_bc_family(10)
        session = Session(din, dout, eager=False)
        compute = _sequential_compute(transducer, din, dout)
        first = session.typecheck_sharded(
            transducer, compute, shards=2, planner="profile"
        )
        assert first.typechecks == expected
        assert first.stats["shard_planner"] == "profile"
        assert first.stats["shard_profile"] == "model"
        second = session.typecheck_sharded(
            transducer, compute, shards=2, planner="profile"
        )
        assert second.typechecks == expected
        assert second.stats["shard_profile"] == "measured"
        # Measured loads are attributed seconds, not n_out^m integers.
        assert all(
            isinstance(load, float) for load in second.stats["shard_costs"]
        )

    def test_cost_runs_seed_the_profile(self):
        transducer, din, dout, expected = nd_bc_family(8)
        session = Session(din, dout, eager=False)
        compute = _sequential_compute(transducer, din, dout)
        cost_run = session.typecheck_sharded(
            transducer, compute, shards=2, planner="cost"
        )
        assert cost_run.typechecks == expected
        assert "shard_profile" not in cost_run.stats
        profiled = session.typecheck_sharded(
            transducer, compute, shards=2, planner="profile"
        )
        assert profiled.stats["shard_profile"] == "measured"

    def test_profiled_verdicts_stay_bit_identical(self):
        for seed in (2, 8, 12, 30):
            transducer, din, dout = seeded_instance(seed)
            from repro.transducers.analysis import analyze

            if analyze(transducer).deletion_path_width is None:
                continue
            session = Session(din, dout, eager=False)
            compute = _sequential_compute(transducer, din, dout)
            baseline = typecheck_forward(transducer, din, dout)
            for _round in range(2):
                sharded = session.typecheck_sharded(
                    transducer, compute, shards=2, planner="profile"
                )
                assert sharded.typechecks == baseline.typechecks, f"seed {seed}"

    def test_unknown_planner_names_the_valid_ones(self):
        transducer, din, dout, _ = nd_bc_family(4)
        session = Session(din, dout, eager=False)
        with pytest.raises(ValueError, match="cost, profile, round-robin"):
            session.typecheck_sharded(
                transducer, lambda parts, method: [], shards=2, planner="nope"
            )

    def test_profiles_publish_even_when_blob_already_converged(self, tmp_path):
        """Recording a profile on an already-published warm pair must
        refresh the blob (the fingerprint includes shard_profiles): the
        typical service order is compile → typecheck → publish, and only
        then sharded runs."""
        import repro
        from repro import cache
        from repro.core.session import clear_registry

        transducer, din, dout, expected = nd_bc_family(6)
        clear_registry()
        session = repro.compile(din, dout, cache_dir=tmp_path)
        session.typecheck(transducer, method="forward")
        cache.publish(session, cache_dir=tmp_path, min_interval_s=0)
        compute = _sequential_compute(transducer, din, dout)
        session.typecheck_sharded(
            transducer, compute, shards=2, planner="profile"
        )
        cache.publish(session, cache_dir=tmp_path, min_interval_s=0)
        clear_registry()
        _t, din2, dout2, _e = nd_bc_family(6)
        restored = repro.compile(din2, dout2, cache_dir=tmp_path, reuse=False)
        assert restored.stats["source"] == "artifact-cache"
        result = restored.typecheck_sharded(
            transducer, compute, shards=2, planner="profile"
        )
        assert result.stats["shard_profile"] == "measured"
        assert result.typechecks == expected
        clear_registry()

    def test_profiles_survive_artifact_roundtrip(self):
        transducer, din, dout, expected = nd_bc_family(6)
        session = Session(din, dout, eager=False)
        compute = _sequential_compute(transducer, din, dout)
        session.typecheck_sharded(
            transducer, compute, shards=2, planner="profile"
        )
        restored = Session.from_artifacts(session.export_artifacts())
        result = restored.typecheck_sharded(
            transducer, compute, shards=2, planner="profile"
        )
        assert result.stats["shard_profile"] == "measured"
        assert result.typechecks == expected
