"""The engine registry: protocol invariants, the all-engines
differential (so a future fifth engine is cross-checked by
construction), retypecheck as a plain warm query on the compiled
schema, and the README method table pinned to the registry rendering."""

from pathlib import Path

import pytest

import repro
from repro.engines import (
    Engine,
    engine_names,
    engines,
    get_engine,
    method_table_markdown,
    register,
    routable_engines,
)
from repro.errors import ClassViolationError
from repro.workloads.families import relabeling_family, replus_family
from repro.workloads.random_instances import seeded_instance

N_SEEDS = 100


# ----------------------------------------------------------------------
# Registry invariants
# ----------------------------------------------------------------------
def test_registration_order_is_the_documented_method_surface():
    assert engine_names() == (
        "forward", "backward", "replus", "replus-witnesses", "delrelab",
        "bruteforce",
    )
    assert [e.name for e in routable_engines()] == ["backward", "replus"]


def test_get_engine_rejects_unknown_methods():
    with pytest.raises(ValueError, match="unknown method 'sideways'"):
        get_engine("sideways")


def test_register_rejects_duplicates_and_anonymous_engines():
    with pytest.raises(ValueError, match="already registered"):
        register(type(get_engine("forward"))())
    with pytest.raises(ValueError, match="must declare a name"):
        register(Engine())


def test_allowed_kwargs_lookup_is_memoized():
    """The signature inspection happens once per engine per process, not
    once per typecheck call."""
    for engine in engines():
        first = engine.allowed_kwargs()
        assert engine.allowed_kwargs() is first
    # And the memo holds real option names, not the managed parameters.
    assert "max_product_nodes" in get_engine("forward").allowed_kwargs()
    assert "schema" not in get_engine("forward").allowed_kwargs()
    assert "tables" not in get_engine("backward").allowed_kwargs()


def test_routable_engines_are_what_auto_picks_on_dtd_pairs():
    """``routable`` marks the engines ``Session.route`` answers a DTD pair
    with when no ``max_tuple`` pins forward: one per schema class."""
    regex_t, regex_din, regex_dout, _ = relabeling_family(2)
    replus_t, replus_din, replus_dout, _ = replus_family(2)
    assert regex_din.kind != "RE+" and replus_din.kind == "RE+"
    picked = [
        repro.compile(din, dout, eager=False).route(transducer)
        for transducer, din, dout in (
            (regex_t, regex_din, regex_dout),
            (replus_t, replus_din, replus_dout),
        )
    ]
    assert picked == [e.name for e in routable_engines()]
    for engine in routable_engines():
        assert engine.supports(replus_din, replus_dout) is True


def test_shared_schema_slots_resolve_to_one_context():
    """``replus-witnesses`` rides on the compiled ``replus`` schema."""
    transducer, din, dout, _expected = replus_family(3)
    session = repro.compile(din, dout)
    replus = get_engine("replus")
    witnesses = get_engine("replus-witnesses")
    assert witnesses.schema_slot == replus.schema_slot == "replus"
    assert witnesses.schema(session) is replus.schema(session)


# ----------------------------------------------------------------------
# The all-engines differential (one verdict across every registrant)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine_name", [e.name for e in engines()])
def test_every_registered_engine_agrees_on_the_seeded_instances(engine_name):
    """100 seeds, one verdict: every engine that supports the pair and
    accepts the transducer class must reproduce the reference verdict.
    A future engine registered into ``repro.engines`` is cross-checked
    here without touching this test."""
    engine = get_engine(engine_name)
    compared = unsupported_pair = outside_class = 0
    for seed in range(N_SEEDS):
        transducer, din, dout = seeded_instance(seed)
        if engine.supports(din, dout) is not True:
            unsupported_pair += 1
            continue
        reference = repro.typecheck(transducer, din, dout)
        kwargs = {"max_nodes": 6} if engine_name == "bruteforce" else {}
        try:
            result = repro.typecheck(
                transducer, din, dout, method=engine_name, **kwargs
            )
        except ClassViolationError:
            outside_class += 1  # pair fine, transducer outside the class
            continue
        if engine_name == "bruteforce":
            # The oracle is sound, not complete: a correct transformation
            # never yields a counterexample, but a violation may hide
            # above the node budget.
            if reference.typechecks:
                assert result.typechecks, f"seed {seed}: oracle disagrees"
        else:
            assert result.typechecks == reference.typechecks, (
                f"seed {seed}: {engine_name} disagrees with auto"
            )
        if not result.typechecks and result.counterexample is not None:
            assert result.verify(transducer, din.accepts, dout.accepts), (
                f"seed {seed}: {engine_name} counterexample does not verify"
            )
        compared += 1
    # The suite must exercise what it claims to: the seeded family covers
    # the DTD engines; the RE⁺ engines are covered by the replus-family
    # differential below (their supports() gate must have fired here).
    if engine_name in ("replus", "replus-witnesses"):
        assert unsupported_pair == N_SEEDS
    else:
        assert compared >= 50, (
            f"{engine_name}: only {compared} comparable seeds "
            f"({unsupported_pair} unsupported, {outside_class} off-class)"
        )


@pytest.mark.parametrize("typechecks", [True, False])
def test_all_applicable_engines_agree_on_replus_pairs(typechecks):
    """The DTD(RE⁺) family: grammar, witness-DAG, forward, backward, and
    auto all land on the family's known verdict."""
    transducer, din, dout, expected = replus_family(3, typechecks=typechecks)
    assert expected == typechecks
    verdicts = {}
    for engine in engines():
        if engine.supports(din, dout) is not True:
            continue
        try:
            result = repro.typecheck(
                transducer, din, dout, method=engine.name
            )
        except ClassViolationError:
            continue
        verdicts[engine.name] = result.typechecks
    assert {"replus", "replus-witnesses"} <= set(verdicts)
    assert all(v == expected for v in verdicts.values()), verdicts
    assert repro.typecheck(transducer, din, dout).typechecks == expected


# ----------------------------------------------------------------------
# Retypecheck is a plain warm query against the compiled schema
# ----------------------------------------------------------------------
def test_retypecheck_replus_reuses_the_compiled_schema():
    transducer, din, dout, expected = replus_family(3)
    session = repro.compile(din, dout)
    base = session.typecheck(transducer, method="replus")
    assert base.typechecks == expected
    schema = get_engine("replus").peek_schema(session)
    assert schema is not None and schema.compiled
    rechecked = session.retypecheck(transducer, transducer, method="replus")
    assert rechecked.typechecks == expected
    assert get_engine("replus").peek_schema(session) is schema


def test_retypecheck_auto_on_replus_pair_reports_warmed():
    """Auto resolves to the grammar engine on RE⁺ pairs, and the
    retypecheck runs against the RE⁺ schema ``warm()`` compiled."""
    transducer, din, dout, expected = replus_family(3)
    session = repro.compile(din, dout)  # warm() compiles the RE⁺ schema
    schema = get_engine("replus").peek_schema(session)
    assert schema is not None
    rechecked = session.retypecheck(transducer, transducer)
    assert rechecked.typechecks == expected
    assert rechecked.stats["auto_method"] == "replus"
    assert get_engine("replus").peek_schema(session) is schema


def test_retypecheck_delrelab_cold_until_compiled_then_warmed():
    engine = get_engine("delrelab")
    transducer, din, dout, expected = relabeling_family(4)
    session = repro.compile(din, dout, eager=False)
    assert engine.peek_schema(session, True) is None
    first = session.retypecheck(transducer, transducer, method="delrelab")
    assert first.typechecks == expected
    # The first link compiled the del-relab context; the next one reuses it.
    schema = engine.peek_schema(session, True)
    assert schema is not None
    second = session.retypecheck(transducer, transducer, method="delrelab")
    assert second.typechecks == expected
    assert engine.peek_schema(session, True) is schema


def test_delrelab_warm_and_default_typecheck_share_one_context():
    from repro.schemas import dtd_to_dtac, dtd_to_nta

    transducer, din, dout, expected = relabeling_family(2)
    session = repro.compile(dtd_to_nta(din), dtd_to_dtac(dout))
    assert list(session._delrelab) == [True]
    warmed = session._delrelab[True]
    assert session.typecheck(transducer).typechecks == expected
    assert session._delrelab == {True: warmed}
    session.typecheck(transducer, method="delrelab", check_output_class=False)
    assert set(session._delrelab) == {True, False}


# ----------------------------------------------------------------------
# Docs: the registry is the single source of truth
# ----------------------------------------------------------------------
def test_readme_method_table_matches_the_registry():
    readme = Path(__file__).resolve().parents[2] / "README.md"
    assert method_table_markdown() in readme.read_text(encoding="utf-8")
