"""Compiled-session API: warm reuse correctness, registry, kwarg checking.

The heart is the warm-vs-cold property: results served by a reused
``Session`` (shared schema artifacts, shared empty-P ProductBFS cells,
second-call cache hits) must be identical to fresh one-shot runs, across
methods and against the object-state forward oracle run on the warm
schema — replayed over the same 200-seed generator as the kernel
equivalence suite.
"""

import pytest

import repro
from repro.core.forward import typecheck_forward
from repro.core.session import (
    Session,
    clear_registry,
    compile as compile_session,
    registry_info,
    schema_fingerprint,
)
from repro.errors import ClassViolationError
from repro.kernel.reference import typecheck_forward_object
from repro.schemas import DTD, dtd_to_dtac, dtd_to_nta
from repro.transducers import TreeTransducer
from repro.transducers.analysis import analyze
from repro.workloads.books import book_dtd, toc_output_dtd, toc_transducer
from repro.workloads.families import filtering_family, nd_bc_batch, nd_bc_family
from repro.workloads.random_instances import seeded_instance

N_SEEDS = 200


def _in_trac(transducer) -> bool:
    return analyze(transducer).deletion_path_width is not None


@pytest.mark.parametrize("chunk", range(10))
def test_warm_session_matches_cold_runs(chunk):
    """Warm (session-reused) results are identical to cold runs, for the
    kernel and for the object-state oracle run against the session's warm
    schema, over the shared 200-seed generator."""
    chunk_size = N_SEEDS // 10
    for seed in range(chunk * chunk_size, (chunk + 1) * chunk_size):
        transducer, din, dout = seeded_instance(seed)
        if not _in_trac(transducer):
            continue
        cold = typecheck_forward(transducer, din, dout)
        session = Session(din, dout, eager=(seed % 2 == 0))
        runs = [
            ("first", session.typecheck(transducer, method="forward")),
            ("second", session.typecheck(transducer, method="forward")),
        ]
        for name in ("oracle first", "oracle second"):
            runs.append((name, typecheck_forward_object(
                transducer, din, dout, schema=session.forward_schema()
            )))
        for name, result in runs:
            assert result.typechecks == cold.typechecks, (
                f"seed {seed}: {name} warm call diverges from cold"
            )
            assert result.stats.get("violations") == cold.stats.get(
                "violations"
            ), f"seed {seed}: {name}"
            if not result.typechecks:
                assert result.verify(transducer, din.accepts, dout.accepts), (
                    f"seed {seed}: {name} warm counterexample does not verify"
                )


@pytest.mark.parametrize("chunk", range(4))
def test_warm_auto_dispatch_matches_one_shot(chunk):
    """``session.typecheck(T)`` (auto) agrees with the one-shot facade —
    which itself runs through the registry — on warm repeats."""
    for seed in range(chunk * 20, (chunk + 1) * 20):
        transducer, din, dout = seeded_instance(seed)
        clear_registry()
        try:
            one_shot = repro.typecheck(transducer, din, dout)
        except ClassViolationError:
            session = Session(din, dout, eager=False)
            with pytest.raises(ClassViolationError):
                session.typecheck(transducer)
            continue
        session = Session(din, dout, eager=False)
        for _ in range(2):
            warm = session.typecheck(transducer)
            assert warm.typechecks == one_shot.typechecks, f"seed {seed}"
            assert warm.algorithm == one_shot.algorithm, f"seed {seed}"


class TestBatch:
    def test_typecheck_many_matches_individual_calls(self):
        transducers, din, dout, expected = nd_bc_batch(8, 4)
        session = repro.compile(din, dout)
        results = session.typecheck_many(transducers, method="forward")
        assert len(results) == 4
        for transducer, result in zip(transducers, results):
            assert result.typechecks == expected
            cold = typecheck_forward(transducer, *nd_bc_family(8)[1:3])
            assert result.typechecks == cold.typechecks

    def test_batch_on_failing_family_produces_verifying_counterexamples(self):
        transducers, din, dout, _ = nd_bc_batch(5, 3, typechecks=False)
        session = Session(din, dout)
        for transducer, result in zip(
            transducers, session.typecheck_many(transducers, method="forward")
        ):
            assert not result.typechecks
            assert result.verify(transducer, din.accepts, dout.accepts)

    def test_budget_abort_does_not_poison_the_session(self):
        """A BudgetExceededError mid-fixpoint must not corrupt the shared
        cells or pin the tiny budget: subsequent warm calls on the same
        session must match cold runs exactly (regression test — the
        delta-pass counters used to survive the abort)."""
        from repro.errors import BudgetExceededError

        checked = 0
        for seed in range(60):
            transducer, din, dout = seeded_instance(seed)
            if not _in_trac(transducer):
                continue
            cold = typecheck_forward(transducer, din, dout)
            session = Session(din, dout, eager=False)
            try:
                session.typecheck(
                    transducer, method="forward", max_product_nodes=1
                )
            except BudgetExceededError:
                checked += 1
            after = session.typecheck(transducer, method="forward")
            assert after.typechecks == cold.typechecks, f"seed {seed}"
            assert after.stats.get("violations") == cold.stats.get(
                "violations"
            ), f"seed {seed}"
        assert checked, "no seed exercised the budget-abort path"

    def test_shared_cells_reduce_second_run_work(self):
        transducer, din, dout, _ = filtering_family(8)
        session = Session(din, dout)
        first = session.typecheck(transducer, method="forward")
        second = session.typecheck(transducer, method="forward")
        assert second.typechecks == first.typechecks
        # The σ-independent cells were explored by the first run.
        assert second.stats["product_nodes"] < first.stats["product_nodes"]
        assert session.forward_schema().shared_hedge


class TestSessionSurface:
    def test_counterexample_and_analysis(self):
        din, dout = book_dtd(), toc_output_dtd()
        session = repro.compile(din, dout)
        toc = toc_transducer()
        assert session.counterexample(toc) is None
        info = session.analysis(toc)
        assert info.in_trac
        # analysis is memoized per transducer object
        assert session.analysis(toc) is info

    def test_counterexample_on_failing_instance(self):
        din = DTD({"r": "a+"}, start="r")
        dout = DTD({"r": "a a"}, start="r")
        t = TreeTransducer(
            {"q"}, {"r", "a"}, "q", {("q", "r"): "r(q q)", ("q", "a"): "a"}
        )
        session = Session(din, dout)
        witness = session.counterexample(t)
        assert witness is not None and din.accepts(witness)

    def test_delrelab_session_with_automaton_schemas(self):
        din = DTD({"r": "x*"}, start="r")
        dout = DTD({"r": "y*"}, start="r", alphabet={"x", "y", "r"})
        t = TreeTransducer(
            {"q"}, {"r", "x", "y"}, "q", {("q", "r"): "r(q)", ("q", "x"): "y"}
        )
        session = Session(dtd_to_nta(din), dtd_to_dtac(dout))
        first = session.typecheck(t)
        second = session.typecheck(t, method="delrelab")
        assert first.typechecks and second.typechecks
        assert first.algorithm == "delrelab"

    def test_replus_methods_reuse_witness_dags(self):
        transducer, din, dout, expected = nd_bc_family(4)
        session = Session(din, dout)  # RE+ pair: eagerly warms witnesses
        grammar = session.typecheck(transducer, method="replus")
        witnesses = session.typecheck(transducer, method="replus-witnesses")
        assert grammar.typechecks == witnesses.typechecks == expected
        dags = session.replus_schema()._witness_dags
        assert set(dags) == {"t_min", "t_vast"}

    def test_delrelab_session_with_hash_in_output_alphabet(self):
        """The placeholder symbol must dodge *both* schema alphabets: a
        '#' in the output automaton used to crash eager session
        construction (regression test), and the warm lift must be the one
        the typecheck path actually uses."""
        din = DTD({"r": "x*"}, start="r")
        dout = DTD({"r": "d*"}, start="r", alphabet={"x", "d", "r", "#"})
        t = TreeTransducer(
            {"q"}, {"r", "x", "d", "#"}, "q",
            {("q", "r"): "r(q)", ("q", "x"): "d"},
        )
        session = Session(dtd_to_nta(din), dtd_to_dtac(dout))  # eager warm
        assert session.typecheck(t).typechecks
        ctx = session.delrelab_schema(True)
        assert ctx._complement is not None
        assert set(ctx._lift) == {"##"}  # warm lift == typecheck-path lift

    def test_dtd_only_methods_reject_automaton_schemas(self):
        din = DTD({"r": "x*"}, start="r")
        session = Session(dtd_to_nta(din), dtd_to_nta(din), eager=False)
        t = TreeTransducer(
            {"q", "p"}, {"r", "x"}, "q", {("q", "r"): "r(p p)", ("p", "x"): "x"}
        )
        with pytest.raises(ClassViolationError):
            session.typecheck(t, method="forward")


class TestRegistry:
    def test_equal_schemas_share_a_session(self):
        clear_registry()
        _, din1, dout1, _ = nd_bc_family(4)
        _, din2, dout2, _ = nd_bc_family(4)
        assert din1 is not din2
        first = compile_session(din1, dout1)
        second = compile_session(din2, dout2)
        assert first is second
        assert second.stats["registry_hits"] == 1

    def test_one_shot_facade_goes_through_the_registry(self):
        clear_registry()
        transducer, din, dout, expected = filtering_family(4)
        assert repro.typecheck(transducer, din, dout).typechecks == expected
        _, din2, dout2, _ = filtering_family(4)
        assert repro.typecheck(transducer, din2, dout2).typechecks == expected
        info = registry_info()
        assert info["size"] == 1  # the second call reused the first session

    def test_session_identity_is_the_schema_pair(self):
        """No option splits a schema pair's session: the registry key is
        the two schema content hashes and nothing else."""
        clear_registry()
        _, din, dout, _ = nd_bc_family(4)
        session = compile_session(din, dout, eager=False)
        assert session.key == (schema_fingerprint(din), schema_fingerprint(dout))
        _, din2, dout2, _ = nd_bc_family(4)
        assert compile_session(din2, dout2, eager=False) is session

    def test_budget_is_per_call_and_never_poisons_the_shared_session(self):
        """A one-shot call with a tiny max_product_nodes must not change
        what later plain calls on the same schemas see (regression test:
        the kwarg used to become the registry session's default)."""
        from repro.errors import BudgetExceededError

        clear_registry()
        transducer, din, dout, expected = filtering_family(6)
        with pytest.raises(BudgetExceededError):
            repro.typecheck(
                transducer, din, dout, method="forward", max_product_nodes=1
            )
        result = repro.typecheck(transducer, din, dout, method="forward")
        assert result.typechecks == expected
        # ...and the retry hit the same warm session.
        assert registry_info()["size"] == 1

    def test_different_schemas_different_sessions(self):
        clear_registry()
        _, din, dout, _ = nd_bc_family(4)
        _, din_bad, dout_bad, _ = nd_bc_family(4, typechecks=False)
        assert compile_session(din, dout) is not compile_session(din_bad, dout_bad)

    def test_fingerprints_are_stable_and_start_sensitive(self):
        _, din, _, _ = nd_bc_family(4)
        _, din2, _, _ = nd_bc_family(4)
        assert schema_fingerprint(din) == schema_fingerprint(din2)
        assert schema_fingerprint(din) != schema_fingerprint(din.with_start("s1"))


class TestKwargValidation:
    """The satellite bugfix: unknown per-method options raise a clear
    TypeError naming the option instead of being forwarded blindly."""

    def test_unknown_option_named_in_error(self):
        transducer, din, dout, _ = nd_bc_family(3)
        with pytest.raises(TypeError, match="'definitely_not_an_option'"):
            repro.typecheck(
                transducer, din, dout, method="forward",
                definitely_not_an_option=1,
            )

    def test_error_lists_valid_options(self):
        transducer, din, dout, _ = nd_bc_family(3)
        with pytest.raises(TypeError, match="want_counterexample"):
            repro.typecheck(transducer, din, dout, method="forward", bogus=1)

    def test_forward_option_rejected_for_replus(self):
        transducer, din, dout, _ = nd_bc_family(3)
        with pytest.raises(TypeError, match="'want_counterexample'"):
            repro.typecheck(
                transducer, din, dout, method="replus",
                want_counterexample=False,
            )

    def test_max_tuple_rejected_for_explicit_non_forward_method(self):
        transducer, din, dout, _ = nd_bc_family(3)
        with pytest.raises(TypeError, match="max_tuple"):
            repro.typecheck(transducer, din, dout, method="replus", max_tuple=3)

    def test_valid_options_still_pass(self):
        transducer, din, dout, _ = nd_bc_family(3)
        result = repro.typecheck(
            transducer, din, dout, method="bruteforce", max_nodes=9
        )
        assert result.algorithm == "bruteforce"

    def test_auto_validates_against_dispatched_method(self):
        transducer, din, dout, _ = nd_bc_family(3)
        # auto dispatches this RE+ pair to replus, which has no max_nodes.
        with pytest.raises(TypeError, match="'max_nodes'"):
            repro.typecheck(transducer, din, dout, max_nodes=9)

    def test_unknown_method_still_a_value_error(self):
        transducer, din, dout, _ = nd_bc_family(3)
        with pytest.raises(ValueError):
            repro.typecheck(transducer, din, dout, method="magic")


class TestRegistryByteEviction:
    """Size-aware registry eviction: budgets in bytes, counters observable."""

    @pytest.fixture(autouse=True)
    def _restore_budget(self):
        from repro.core import session as session_module

        before_bytes = session_module._REGISTRY_MAX_BYTES
        before_limit = session_module._REGISTRY_LIMIT
        yield
        session_module.set_registry_budget(before_bytes, before_limit)
        clear_registry()

    def test_footprint_bytes_grows_with_tables(self):
        transducer, din, dout, _ = nd_bc_family(5)
        session = Session(din, dout, eager=False)
        empty = session.footprint_bytes()
        assert empty > 0
        session.typecheck(transducer, method="forward")
        warm = session.footprint_bytes()
        # The structural estimate tracks the new tables and shared cells
        # immediately — no refresh throttle to disable.
        assert warm > empty

    def test_footprint_estimates_growth_without_repickling(self):
        from repro.kernel import serialize

        transducer, din, dout, _ = nd_bc_family(4)
        session = Session(din, dout, eager=False)
        first = session.footprint_bytes()  # calibrates (one pickle)
        calls = 0
        real = serialize.approx_bytes

        def counting(payload):
            nonlocal calls
            calls += 1
            return real(payload)

        serialize.approx_bytes = counting
        try:
            # Grow the state, then poll the footprint hard: the hot-path
            # guarantee is that growth is tracked structurally, with no
            # re-pickling until the estimate *doubles* past the floor.
            session.typecheck(transducer, method="forward")
            values = [session.footprint_bytes() for _ in range(50)]
        finally:
            serialize.approx_bytes = real
        assert calls == 0
        assert values[0] >= first  # growth surfaced (or base unchanged)
        assert values == [values[0]] * len(values)  # stable between changes

    def test_byte_budget_evicts_and_counts(self):
        from repro.core.session import set_registry_budget

        clear_registry()
        set_registry_budget(1)  # nothing fits: keep only the newest pair
        pairs = [nd_bc_family(n) for n in (3, 4, 5)]
        for _t, din, dout, _e in pairs:
            compile_session(din, dout, eager=False)
        info = registry_info()
        assert info["size"] == 1
        assert info["max_bytes"] == 1
        assert info["evictions"] >= 2
        assert info["misses"] >= 3
        assert info["hits"] == 0
        (resident,) = info["pairs"]
        assert resident["bytes"] > 0
        assert info["total_bytes"] == resident["bytes"]
        # the evicted first pair recompiles: a miss, not a hit
        _t, din0, dout0, _e = pairs[0]
        compile_session(din0, dout0, eager=False)
        assert registry_info()["misses"] >= 4

    def test_generous_budget_keeps_everything_and_counts_hits(self):
        from repro.core.session import set_registry_budget

        clear_registry()
        set_registry_budget(1 << 30)
        pairs = [nd_bc_family(n) for n in (3, 4)]
        for _t, din, dout, _e in pairs:
            compile_session(din, dout, eager=False)
            compile_session(din, dout, eager=False)  # immediate re-hit
        info = registry_info()
        assert info["size"] == 2
        assert info["evictions"] == 0
        assert info["hits"] >= 2
        assert info["total_bytes"] == sum(p["bytes"] for p in info["pairs"])

    def test_count_backstop_still_applies(self):
        from repro.core.session import set_registry_budget

        clear_registry()
        set_registry_budget(1 << 30, max_sessions=2)
        for n in (3, 4, 5):
            _t, din, dout, _e = nd_bc_family(n)
            compile_session(din, dout, eager=False)
        info = registry_info()
        assert info["size"] == 2
        assert info["evictions"] >= 1
