"""An eager session compiles what an auto query on its pair reads.

``Session.warm`` builds the one slot that ``Session.route(None)`` names —
``replus`` on RE⁺ pairs, ``backward`` on other DTD pairs, ``delrelab`` on
automaton pairs — and that slot compiles only its transducer-independent
artifacts.  Eager and lazy sessions must still
answer identically: the 200 differential seeds and every family template
of the end-to-end benchmark's ``cold_pairs`` workload, both polarities.
"""

import pytest

import repro
from repro.core.session import Session
from repro.schemas import dtd_to_dtac, dtd_to_nta
from repro.schemas.dtd import DTD
from repro.workloads import families
from repro.workloads.random_instances import seeded_instance

#: The ``cold_pairs`` family templates (each size in both polarities).
FAMILY_SIZES = {
    "nd_bc": (8, 12, 16, 32, 64),
    "filtering": (8, 16, 32),
    "wide_copy": (4, 8, 16),
    "replus": (4, 8, 12),
    "relabeling": (8, 16, 32),
}


def _pair_slots(session):
    return {session.route(None)}


@pytest.fixture()
def completions(monkeypatch):
    """Counts ``DTD.content_dfa_complete`` calls."""
    calls = []
    complete = DTD.content_dfa_complete

    def counted(self, symbol, alphabet):
        calls.append(symbol)
        return complete(self, symbol, alphabet)

    monkeypatch.setattr(DTD, "content_dfa_complete", counted)
    return calls


def test_replus_pair_builds_only_the_grammar_engine(completions):
    _transducer, din, dout, _ = families.nd_bc_family(64)
    assert din.kind == dout.kind == "RE+"
    session = repro.compile(din, dout, reuse=False)
    assert {slot for slot, _variant in session._schemas} == {"replus"}
    assert _pair_slots(session) == {"replus"}
    assert completions == []
    assert session._schemas[("replus", None)].compiled
    assert session._replus._witness_dags == {}


def test_regex_pair_builds_only_backward_without_completions(completions):
    transducer, din, dout, expected = families.filtering_family(16)
    assert din.kind != "RE+"
    session = repro.compile(din, dout, reuse=False)
    assert {slot for slot, _variant in session._schemas} == {
        "backward",
    } == _pair_slots(session)
    assert completions == []
    assert session._backward.compiled and session._forward is None
    assert session.typecheck(transducer).typechecks == expected
    assert {slot for slot, _variant in session._schemas} == {"backward"}


def test_automaton_pair_builds_only_delrelab():
    transducer, din, dout, expected = families.relabeling_family(4)
    session = repro.compile(dtd_to_nta(din), dtd_to_dtac(dout), reuse=False)
    assert set(session._schemas) == {("delrelab", True)}
    assert _pair_slots(session) == {"delrelab"}
    assert session.typecheck(transducer).typechecks == expected


def test_warmed_context_never_determinizes_again(monkeypatch):
    """What warm leaves to first use is completion and interning only: a
    query on a warm DTD pair runs no subset construction."""
    from repro.strings.nfa import NFA

    transducer, din, dout, expected = families.filtering_family(8)
    session = repro.compile(din, dout, reuse=False)

    def forbidden(self):  # pragma: no cover - must not run
        raise AssertionError("subset construction ran on a warm session")

    monkeypatch.setattr(NFA, "determinize", forbidden)
    for method in ("auto", "forward", "backward"):
        assert session.typecheck(transducer, method=method).typechecks == expected


def _answer(session, transducer):
    result = session.typecheck(transducer)
    return (
        result.typechecks,
        result.counterexample,
        result.stats.get("auto_method"),
    )


def _eager_and_lazy(build):
    """Answers of an eager and a lazy session, each on freshly built
    schema objects (the DTD-level caches are per object)."""
    transducer, din, dout = build()
    eager = _answer(Session(din, dout), transducer)
    transducer, din, dout = build()
    lazy = _answer(Session(din, dout, eager=False), transducer)
    return eager, lazy


@pytest.mark.parametrize("chunk", range(4))
def test_eager_and_lazy_agree_on_the_seeds(chunk):
    for seed in range(chunk * 50, chunk * 50 + 50):
        eager, lazy = _eager_and_lazy(lambda: seeded_instance(seed))
        assert eager == lazy, seed


@pytest.mark.parametrize(
    "family,n,polarity",
    [
        (family, n, polarity)
        for family, sizes in FAMILY_SIZES.items()
        for n in sizes
        for polarity in (True, False)
    ],
)
def test_eager_and_lazy_agree_on_the_family_templates(family, n, polarity):
    build = getattr(families, f"{family}_family")
    eager, lazy = _eager_and_lazy(lambda: build(n, polarity)[:3])
    assert eager == lazy
    assert eager[0] == build(n, polarity)[3]
