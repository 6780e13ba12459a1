"""ProductBFS state survives a pickle round trip mid-exploration.

The forward engine's shared σ-independent fixpoint cells keep their
product graphs, frontiers included, and ship them in the artifact cache,
so an engine pickled with *pending* work must resume in another process
exactly where it stopped — same parents map, same frontier order, and
continuing must match an engine that was never serialized."""

import pickle

import pytest

from repro.errors import BudgetExceededError
from repro.kernel.product import ProductBFS

LIMIT = 200


def successors(node):
    """An implicit binary tree over ints, bounded below LIMIT."""
    for child in (2 * node + 1, 2 * node + 2):
        if child < LIMIT:
            yield child, ("edge", node, child)


def test_round_trip_with_pending_frontier():
    engine = ProductBFS()
    engine.push(0)
    engine.push(50)
    assert len(engine.frontier) == 2  # pending, not yet drained

    restored = pickle.loads(pickle.dumps(engine))
    assert restored.parents == engine.parents
    assert tuple(restored.frontier) == tuple(engine.frontier)
    assert restored.max_nodes == engine.max_nodes
    assert restored.budget_message == engine.budget_message

    control = ProductBFS()
    control.run([0, 50], successors)
    restored.drain(successors)
    assert restored.parents == control.parents
    assert not restored.frontier


def test_resume_after_mid_search_interrupt():
    """Interrupt a drain via early exit (frontier left non-empty), pickle,
    then push()+drain() on the restored engine: the closure must be
    byte-identical to an engine that followed the same calls unpickled."""

    def interrupted(engine):
        engine.push(0)
        stop = engine.drain(successors, on_visit=lambda node: node == 13)
        assert stop == 13
        assert engine.frontier  # genuinely mid-search
        return engine

    engine = interrupted(ProductBFS())
    control = interrupted(ProductBFS())
    restored = pickle.loads(pickle.dumps(engine))
    assert restored.parents == control.parents
    assert tuple(restored.frontier) == tuple(control.frontier)

    # The early-exit node was never queued; clients resume by re-pushing
    # the work they stopped at (the forward engine re-drains cells the
    # same way).  Both engines must converge identically.
    for bfs in (restored, control):
        for child, label in successors(13):
            bfs.push(child, (13, label))
        bfs.drain(successors)
    assert restored.parents == control.parents
    assert not restored.frontier and not control.frontier

    # Discovery paths (witness extraction) agree too.
    deep = max(control.parents)
    assert restored.path(deep) == control.path(deep)


def test_restored_engine_keeps_budget():
    engine = ProductBFS(max_nodes=10)
    engine.push(0)
    restored = pickle.loads(pickle.dumps(engine))
    with pytest.raises(BudgetExceededError):
        restored.drain(successors)
