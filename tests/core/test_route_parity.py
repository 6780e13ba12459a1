"""One routing policy: every entry point resolves through ``Session.route``.

``typecheck``, ``retypecheck``, the explain reports and the embedded
worker pool must all land on the engine that ``session.route(T)`` names.
The instance set is the 200 differential seeds,
every workload family at the sizes the end-to-end benchmark uses (both
polarities), the edit-arm bases with their one-arm edits, and del-relab
transducers over NTA/DTAc schema pairs.

The embedded-pool cases start a real worker pool
(``REPRO_TEST_POOL_WORKERS`` workers, default 2).
"""

import ast
import asyncio
import contextlib
import os
import threading
from pathlib import Path

import pytest

import repro
from repro.core.session import Session
import repro.engines
from repro.engines import Engine
from repro.schemas.dtd import DTD
from repro.service import WorkerPool, protocol
from repro.service.client import ServiceClient
from repro.service.server import ServiceServer
from repro.transducers.transducer import TreeTransducer
from repro.workloads import families
from repro.workloads.random_instances import seeded_instance
from repro.workloads.updates import edit_arm_pair, edit_arm_transducer

POOL_WORKERS = max(1, int(os.environ.get("REPRO_TEST_POOL_WORKERS", "2")))

#: Family sizes of the end-to-end benchmark's workloads (both polarities).
FAMILY_SIZES = {
    "nd_bc": (2, 4, 8, 12, 16, 32, 64),
    "filtering": (2, 4, 8, 16, 32),
    "wide_copy": (2, 4, 8, 16),
    "replus": (2, 4, 8, 12),
    "relabeling": (2, 4, 8, 16, 32),
}

#: ``seeded_instance(s, symbols=2, num_states=1)`` draws with del-relab
#: transducers (the tree-automata workload's seeds).
TREE_AUTOMATA_SEEDS = (13, 15, 16, 18, 21, 26, 31, 34, 41, 50, 53, 64)


def _seeds(chunk):
    for seed in range(chunk * 50, chunk * 50 + 50):
        transducer, din, dout = seeded_instance(seed)
        yield f"seed {seed}", transducer, din, dout, None


def _families():
    for name, sizes in FAMILY_SIZES.items():
        build = getattr(families, f"{name}_family")
        for n in sizes:
            for polarity in (True, False):
                transducer, din, dout, _ = build(n, polarity)
                yield f"{name}({n}, {polarity})", transducer, din, dout, None


def _edit_arms():
    for arms in (3, 12):
        din, dout = edit_arm_pair(arms)
        base = edit_arm_transducer(arms)
        yield f"edit_arm({arms}) base", base, din, dout, None
        for arm in range(arms):
            for variant in ("safe", "unsafe"):
                edited = edit_arm_transducer(arms, edited=arm, variant=variant)
                yield f"edit_arm({arms}) {arm} {variant}", edited, din, dout, base


def _tree_automata():
    for n in (1, 2, 3):
        for polarity in (True, False):
            transducer, din, dout, _ = families.relabeling_family(n, polarity)
            yield (
                f"relabeling({n}, {polarity}) as NTA/DTAc", transducer,
                repro.dtd_to_nta(din), repro.dtd_to_dtac(dout), None,
            )
    for seed in TREE_AUTOMATA_SEEDS:
        transducer, din, dout = seeded_instance(seed, symbols=2, num_states=1)
        yield (
            f"seed {seed} as NTA/DTAc", transducer,
            repro.dtd_to_nta(din), repro.dtd_to_dtac(dout), None,
        )


GROUPS = {
    **{f"seeds{chunk}": (lambda chunk=chunk: _seeds(chunk)) for chunk in range(4)},
    "families": _families,
    "edit_arms": _edit_arms,
    "tree_automata": _tree_automata,
}


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_every_entry_point_reads_the_route(group):
    for name, transducer, din, dout, base in GROUPS[group]():
        engine = Session(din, dout, eager=False).route(transducer)

        result = Session(din, dout, eager=False).typecheck(transducer)
        assert result.stats["auto_method"] == engine, name

        session = Session(din, dout, eager=False)
        if base is not None:
            session.typecheck(base)
        redone = session.retypecheck(transducer, base or transducer)
        assert redone.stats["auto_method"] == engine, name
        assert redone.typechecks == result.typechecks, name

        report = (
            Session(din, dout, eager=False)
            .typecheck(transducer, explain=True)
            .report
        )
        assert report.engine == engine, name


def _ladder(din, dout):
    """The engine the schema-class ladder names for an auto query."""
    if not isinstance(din, DTD):
        return "delrelab"
    if din.kind == dout.kind == "RE+":
        return "replus"
    return "backward"


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_auto_routes_by_schema_class_alone(group):
    """Every instance of the set routes by its schema class: RE⁺ pairs
    to ``replus``, every other DTD pair to ``backward``, and the
    del-relab transducers over automaton pairs to ``delrelab``, whatever
    the transducer."""
    for name, transducer, din, dout, _base in GROUPS[group]():
        session = Session(din, dout, eager=False)
        assert session.route(transducer) == _ladder(din, dout), name


def test_session_tests_the_schema_classes_only_inside_route():
    """The ladder lives in one function: outside ``Session.route`` the
    session never tests ``_replus_pair``, ``in_trac`` or ``is_del_relab``
    (the constructor assigns ``_replus_pair``; engines may read it)."""
    import repro.core.session as session_module

    tree = ast.parse(Path(session_module.__file__).read_text(encoding="utf-8"))
    offenders = []

    def visit(node, function):
        if isinstance(node, ast.FunctionDef):
            function = node.name
        if (
            isinstance(node, ast.Attribute)
            and node.attr in ("_replus_pair", "in_trac", "is_del_relab")
            and isinstance(node.ctx, ast.Load)
            and function != "route"
        ):
            offenders.append((function, node.attr, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    assert offenders == []
    for gone in ("shard_method", "_resolve_auto", "_auto_choice",
                 "_predicted_costs", "_run_auto", "_auto_routes",
                 "typecheck_sharded", "check_keys", "compute_shard_tables"):
        assert not hasattr(Session, gone), gone


def test_single_query_sharding_is_gone():
    """One query runs on one engine in one process: no shard hooks on the
    engine protocol, no shardable registry view, no second routing view."""
    assert not hasattr(repro.engines, "shardable_engines")
    for hook in ("check_keys", "key_costs", "compute_tables", "merge_tables",
                 "shardable"):
        assert not hasattr(Engine, hook), hook
    assert not hasattr(WorkerPool, "typecheck_sharded")
    transducer, din, dout, _ = families.nd_bc_family(4)
    with pytest.raises(TypeError):
        Session(din, dout, eager=False).route(transducer, shardable=True)


def test_max_tuple_pins_forward_and_unknown_methods_fail():
    """``max_tuple`` on a non-RE⁺ DTD pair pins ``forward`` (the RE⁺ rung
    comes first), an unknown explicit method is a ``ValueError``, and
    neither compiles anything."""
    for build, pinned in (
        (families.nd_bc_family, "replus"),
        (families.filtering_family, "forward"),
    ):
        transducer, din, dout, _ = build(6)
        session = Session(din, dout, eager=False)
        assert session.route(transducer, max_tuple=4) == pinned
        with pytest.raises(ValueError, match="unknown method 'magic'"):
            session.route(transducer, method="magic")
        assert session._schemas == {} and len(session._analyses) == 0


def test_wide_chain_routes_without_compiling():
    """Routing reads the schema class only: a 400-wide chain routes
    without building any engine's schema or analysing ``T``."""
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
    assert session._schemas == {} and len(session._analyses) == 0


# ----------------------------------------------------------------------
# Every entry point, including the embedded worker pool
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def pool():
    with WorkerPool(POOL_WORKERS, cache_max_bytes=None) as embedded:
        yield embedded


@pytest.mark.parametrize("family,n", [
    ("filtering", 8), ("wide_copy", 5), ("nd_bc", 8), ("replus", 4),
])
def test_pool_auto_matches_the_route(pool, family, n):
    transducer, din, dout, expected = getattr(families, f"{family}_family")(
        n, False
    )
    engine = Session(din, dout, eager=False).route(transducer)
    result = pool.typecheck(din, dout, transducer)
    assert result.stats["auto_method"] == engine
    assert result.typechecks == expected


def _empty_input_instance():
    """A DTD(RE⁺) pair whose input language is empty: ``s`` needs an
    ``a`` and every ``a`` needs two ``s`` children, so no finite tree
    exists.  Every answer is vacuously ``True``."""
    din = DTD({"s": "a", "a": "s+ s+"}, start="s")
    dout = DTD({"o": ""}, start="o")
    transducer = TreeTransducer(
        {"q"}, {"s", "a", "o"}, "q", {("q", "s"): "o(q)", ("q", "a"): "q"}
    )
    return transducer, din, dout


@contextlib.contextmanager
def _serving(pool):
    loop = asyncio.new_event_loop()
    service = ServiceServer(pool)
    started = threading.Event()

    def run():
        asyncio.set_event_loop(loop)
        loop.run_until_complete(service.start("127.0.0.1", 0))
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(10)
    try:
        yield service
    finally:
        asyncio.run_coroutine_threadsafe(service.close(), loop).result(10)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=5)


def test_empty_input_language_agrees_everywhere(pool):
    """The hand-built pair and ``seeded_instance(65011)`` (``s0`` needs an
    ``s1``, every ``s1`` two ``s0``): the facade, eager and lazy
    sessions, the pool and a served inline request all answer alike."""
    with _serving(pool) as server, ServiceClient(port=server.port) as client:
        for transducer, din, dout in (
            _empty_input_instance(), seeded_instance(65011),
        ):
            assert din.kind == dout.kind == "RE+" and din.is_empty()
            served = client.call(
                "typecheck",
                text=protocol.instance_to_text(transducer, din, dout),
            )
            answers = {
                "facade": repro.typecheck(transducer, din, dout).typechecks,
                "eager": repro.compile(din, dout, reuse=False)
                .typecheck(transducer).typechecks,
                "lazy": repro.compile(din, dout, eager=False, reuse=False)
                .typecheck(transducer).typechecks,
                "pool": pool.typecheck_batch(din, dout, [transducer])[0]
                .typechecks,
                "served": served["typechecks"],
            }
            assert answers == dict.fromkeys(answers, True), din
