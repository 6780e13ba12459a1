"""The session's per-transducer memos are keyed by content hash and bounded.

Requests that parse or unpickle a transducer build a fresh object each
time; equal transducers must share one analysis and must not stay alive
once the caller drops them.
"""

import gc
import pickle

from repro.core import session as session_module
from repro.core.session import Session
from repro.transducers.transducer import TreeTransducer
from repro.workloads.updates import edit_arm_pair, edit_arm_transducer


def _live_transducers() -> int:
    gc.collect()
    return sum(isinstance(obj, TreeTransducer) for obj in gc.get_objects())


def test_equal_transducers_share_one_analysis_and_do_not_leak(monkeypatch):
    calls = []
    real_analyze = session_module.analyze

    def counting_analyze(transducer):
        calls.append(1)
        return real_analyze(transducer)

    monkeypatch.setattr(session_module, "analyze", counting_analyze)
    din, dout = edit_arm_pair(4)
    session = Session(din, dout)
    blob = pickle.dumps(edit_arm_transducer(4))
    before = _live_transducers()
    for _ in range(200):
        assert session.typecheck(pickle.loads(blob)).typechecks
    assert len(calls) == 1
    assert _live_transducers() <= before + 1
    assert len(session._analyses) == 1


def test_memos_hold_at_most_their_bound(monkeypatch):
    monkeypatch.setattr(session_module, "TRANSDUCER_MEMO_LIMIT", 3)
    din, dout = edit_arm_pair(4)
    session = Session(din, dout)
    variants = [edit_arm_transducer(4)] + [
        edit_arm_transducer(4, edited=arm, variant=variant)
        for arm in range(4)
        for variant in ("safe", "unsafe")
    ]
    for transducer in variants:
        session.typecheck(transducer)
    assert len(session._analyses) == 3
    assert len(session._auto_routes) == 3
    # The evicted oldest transducer is recomputed, with the same verdict.
    assert session.typecheck(variants[0]).typechecks
