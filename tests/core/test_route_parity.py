"""One routing policy: every entry point resolves through ``Session.route``.

``typecheck``, ``retypecheck``, the explain reports and the sharded
fan-out must all land on the engine that ``session.route(T)`` names
(sharded runs on ``route(T, shardable=True)``, which skips the rungs whose
engine cannot shard).  The instance set is the 200 differential seeds,
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
from repro.engines import get_engine, routable_engines
from repro.errors import ClassViolationError
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


def _sequential_shards(session, transducer):
    def compute(partitions, method):
        return [
            session.compute_shard_tables(transducer, partition, method)
            for partition in partitions
        ]

    return compute


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_every_entry_point_reads_the_route(group):
    for name, transducer, din, dout, base in GROUPS[group]():
        engine = Session(din, dout, eager=False).route(transducer)[0]

        result = Session(din, dout, eager=False).typecheck(transducer)
        assert result.stats["auto_method"] == engine, name

        session = Session(din, dout, eager=False)
        if base is not None:
            session.typecheck(base)
        redone = session.retypecheck(transducer, base or transducer)
        assert redone.stats["retypecheck"]["method"] == engine, name
        assert redone.typechecks == result.typechecks, name

        report = (
            Session(din, dout, eager=False)
            .typecheck(transducer, explain=True)
            .report
        )
        assert report.engine == engine, name

        if get_engine(engine).shardable:
            session = Session(din, dout, eager=False)
            sharded = session.typecheck_sharded(
                transducer, _sequential_shards(session, transducer),
                shards=2, method="auto",
            )
            assert sharded.stats["shard_method"] == engine, name
            assert sharded.typechecks == result.typechecks, name


def test_sharded_replus_pairs_keep_the_cost_choice():
    """RE⁺ pairs route to ``replus`` unsharded; the sharded view skips
    that rung (``replus`` cannot shard) and compares the forward and
    backward cost models, as it did before the ladders were merged."""
    checked = 0
    for name, transducer, din, dout, _ in _families():
        if not (din.kind == dout.kind == "RE+"):
            continue
        session = Session(din, dout, eager=False)
        assert session.route(transducer) == ("replus", {}), name
        choice, costs = session.route(transducer, shardable=True)
        assert set(costs) == {e.name for e in routable_engines()}, name
        assert choice == min(costs, key=costs.get), name
        for engine_name, cost in costs.items():
            assert cost == get_engine(engine_name).predict_cost_ms(
                session, transducer
            ), name
        sharded = session.typecheck_sharded(
            transducer, _sequential_shards(session, transducer),
            shards=2, method="auto",
        )
        assert sharded.stats["shard_method"] == choice, name
        checked += 1
    assert checked >= 10
    # The calibrated models pick backward on nd_bc (see BENCH_auto.json).
    transducer, din, dout, _ = families.nd_bc_family(8)
    assert Session(din, dout, eager=False).route(
        transducer, shardable=True
    )[0] == "backward"


def test_sharded_view_refuses_tree_automata():
    transducer, din, dout, _ = families.relabeling_family(2)
    session = Session(
        repro.dtd_to_nta(din), repro.dtd_to_dtac(dout), eager=False
    )
    assert session.route(transducer)[0] == "delrelab"
    with pytest.raises(ClassViolationError, match="needs DTD schemas"):
        session.route(transducer, shardable=True)
    with pytest.raises(ValueError, match="unknown shard method"):
        session.route(transducer, method="replus", shardable=True)


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
                 "_predicted_costs", "_run_auto"):
        assert not hasattr(Session, gone), gone


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
def test_pool_sharded_auto_matches_the_route(pool, family, n):
    transducer, din, dout, expected = getattr(families, f"{family}_family")(
        n, False
    )
    engine = Session(din, dout, eager=False).route(
        transducer, shardable=True
    )[0]
    result = pool.typecheck_sharded(din, dout, transducer, shards=2)
    assert result.stats["shard_method"] == engine
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
