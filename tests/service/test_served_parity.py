"""One served query path: inline-schema, bare-pinned and in-process
queries give identical verdicts and counterexamples.

An inline request (the whole instance in ``text``, or ``din``/``dout``
section fields next to the transducer) is parsed by the server exactly as
``load_instance`` parses an instance file — including the widening of a
dout section without an ``alphabet`` line — and then served through the
same ``pinned`` pool op as a query on a ``set_pair`` pin.  Every op must
therefore answer the same JSON as the other two routes, and an inline
request must neither broadcast nor disturb the connection's own pin.
"""

import asyncio
import contextlib
import threading

import pytest

import repro
from repro.errors import ProtocolError
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.pool import WorkerPool
from repro.service.server import ServiceServer
from repro.transducers.transducer import TreeTransducer
from repro.workloads.families import (
    nd_bc_family,
    replus_family,
    wide_copy_family,
)

#: The verdict fields every typecheck-shaped answer is compared on.
VERDICT_KEYS = ("typechecks", "algorithm", "counterexample", "output")


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


@pytest.fixture(scope="module")
def pool():
    with WorkerPool(2, cache_max_bytes=None) as two_workers:
        yield two_workers


@pytest.fixture(scope="module")
def server(pool):
    with _serving(pool) as service:
        yield service


@pytest.fixture()
def client(server):
    with ServiceClient(port=server.port) as connection:
        yield connection


class _Case:
    """One instance in every wire form, plus its in-process session."""

    def __init__(self, family, n, typechecks):
        transducer, din, dout, self.typechecks = family(n, typechecks)
        # What load_instance makes of a dout section without an alphabet
        # line: the transducer's alphabet, not the family's own.
        self.din = din
        self.dout = repro.DTD(
            dout.rules(), start=dout.start, alphabet=transducer.alphabet
        )
        self.transducer = transducer
        rules = dict(transducer.rules)
        rules.pop(max(rules))  # an edit of the transducer: one rule gone
        self.base = TreeTransducer(
            transducer.states, transducer.alphabet, transducer.initial, rules
        )
        self.din_text = protocol.dtd_to_text(din)
        self.dout_text = protocol.dtd_to_text(self.dout)
        self.raw_dout_text = "\n".join(
            line
            for line in protocol.dtd_to_text(dout).splitlines()
            if not line.startswith("alphabet ")
        )
        self.transducer_text = protocol.transducer_to_text(transducer)
        self.base_text = protocol.transducer_to_text(self.base)
        self.session = repro.compile(din, self.dout)

    def inline_forms(self):
        """The inline framings of this instance, widened and pinned."""
        return [
            {"din": self.din_text, "transducer": self.transducer_text,
             "dout": self.raw_dout_text},
            {"din": self.din_text, "transducer": self.transducer_text,
             "dout": self.dout_text},
            {"text": "\n---\n".join(
                [self.din_text, self.transducer_text, self.raw_dout_text]
            )},
        ]


CASES = [
    (family, n, typechecks)
    for family, n in ((nd_bc_family, 4), (wide_copy_family, 3), (replus_family, 3))
    for typechecks in (True, False)
]


def _ids(case):
    family, n, typechecks = case
    return f"{family.__name__}({n})-{'pass' if typechecks else 'fail'}"


@pytest.fixture(scope="module", params=CASES, ids=_ids)
def case(request):
    return _Case(*request.param)


def _verdict(result):
    return {key: result.get(key) for key in VERDICT_KEYS}


def _in_process(case, op):
    session = case.session
    if op == "analysis":
        return protocol.analysis_to_json(session.analysis(case.transducer))
    if op == "retypecheck":
        result = session.retypecheck(case.transducer, case.base)
    else:
        result = session.typecheck(case.transducer)
    if op == "counterexample":
        return {
            "typechecks": result.typechecks,
            "counterexample": (
                None if result.counterexample is None
                else str(result.counterexample)
            ),
        }
    return _verdict(protocol.result_to_json(result))


def _shape(op, result):
    if op in ("analysis", "counterexample"):
        return result
    return _verdict(result)


@pytest.mark.parametrize(
    "op", ["typecheck", "counterexample", "analysis", "retypecheck"]
)
def test_single_instance_ops_agree(client, case, op):
    extra = {"base": case.base_text} if op == "retypecheck" else {}
    expected = _in_process(case, op)
    if op != "analysis":
        assert expected["typechecks"] is case.typechecks
        assert (expected["counterexample"] is None) is case.typechecks
    for form in case.inline_forms():
        assert _shape(op, client.call(op, **form, **extra)) == expected, form
    handle = client.pair(case.din, case.dout)
    handle._ensure_pinned()
    pinned = client.call(op, v=2, transducer=case.transducer_text, **extra)
    assert _shape(op, pinned) == expected


def test_typecheck_many_agrees(client, case):
    items = [case.transducer_text, case.base_text]
    expected = [
        _verdict(protocol.result_to_json(result))
        for result in case.session.typecheck_many([case.transducer, case.base])
    ]
    for dout_text in (case.raw_dout_text, case.dout_text):
        inline = client.call(
            "typecheck_many", din=case.din_text, dout=dout_text,
            transducers=items,
        )
        assert [_verdict(item) for item in inline] == expected
    pinned = client.pair(case.din, case.dout).typecheck_many(
        [case.transducer, case.base]
    )
    assert [_verdict(item) for item in pinned] == expected


def test_inline_batch_parses_its_schemas_once(client, monkeypatch):
    """An inline batch line parses ``din`` and ``dout`` once and digests
    each distinct widened pair once, and answers exactly what the same
    items answer as single inline queries."""
    case = _Case(nd_bc_family, 4, False)
    transducer = case.transducer
    wider = TreeTransducer(
        transducer.states, transducer.alphabet | {"extra"},
        transducer.initial, transducer.rules,
    )
    items = [case.transducer_text, case.base_text,
             protocol.transducer_to_text(wider), case.transducer_text]
    expected = [
        _verdict(client.call(
            "typecheck", din=case.din_text, transducer=item,
            dout=case.raw_dout_text,
        ))
        for item in items
    ]
    parses, digests = [], []
    parse, digest = protocol.parse_dtd_section, protocol.pair_digest
    monkeypatch.setattr(
        protocol, "parse_dtd_section",
        lambda lines: parses.append(lines) or parse(lines),
    )
    monkeypatch.setattr(
        protocol, "pair_digest",
        lambda din, dout: digests.append(dout) or digest(din, dout),
    )
    batch = client.call(
        "typecheck_many", din=case.din_text, dout=case.raw_dout_text,
        transducers=items,
    )
    assert [_verdict(item) for item in batch] == expected
    assert len(parses) == 2  # din and dout, not once per item
    assert len(digests) == 2  # the nd_bc alphabet and the wider one
    assert digests[0].alphabet != digests[1].alphabet


def test_sharded_typecheck_agrees(client, case):
    expected = case.session.typecheck(case.transducer).typechecks
    answers = [
        client.call("typecheck", shards=2, **form)
        for form in case.inline_forms()
    ]
    answers.append(client.pair(case.din, case.dout).typecheck(
        case.transducer, shards=2
    ))
    assert {answer["typechecks"] for answer in answers} == {expected}
    assert len({answer["counterexample"] for answer in answers}) == 1
    assert len({answer["stats"]["shard_method"] for answer in answers}) == 1


def test_inline_requests_leave_the_connection_pin_alone(client):
    pinned_case = _Case(nd_bc_family, 5, True)
    inline_case = _Case(wide_copy_family, 4, False)
    sent = []
    real_write = client._file.write

    def counting_write(data):
        sent.append(bytes(data))
        return real_write(data)

    client._file.write = counting_write
    handle = client.pair(pinned_case.din, pinned_case.dout)
    expected_pinned = _in_process(pinned_case, "typecheck")
    expected_inline = _in_process(inline_case, "typecheck")
    for _ in range(3):
        assert _verdict(handle.typecheck(pinned_case.transducer)) == (
            expected_pinned
        )
        for form in inline_case.inline_forms():
            assert _verdict(client.call("typecheck", **form)) == expected_inline
    assert sum(b'"op":"set_pair"' in line for line in sent) == 1


def test_inline_request_does_not_pin_the_connection(client):
    inline_case = _Case(nd_bc_family, 3, True)
    client.call("typecheck", **inline_case.inline_forms()[0])
    with pytest.raises(ProtocolError, match="no schema pair pinned"):
        client.call("typecheck", v=2, transducer=inline_case.transducer_text)


def test_first_sight_inline_request_is_one_pinned_op(pool, client, monkeypatch):
    """A never-seen pair served inline: exactly one ``pinned`` op, queued
    on the pair's affine worker with the schemas inside — no ``pin``
    broadcast and no second round trip."""
    fresh = _Case(nd_bc_family, 7, False)
    queued = []
    real_submit = pool.submit

    def recording_submit(op, args, slot=None, trace=None):
        queued.append((op, slot, args))
        return real_submit(op, args, slot=slot, trace=trace)

    monkeypatch.setattr(pool, "submit", recording_submit)
    result = client.call("typecheck", **fresh.inline_forms()[0])
    assert _verdict(result) == _in_process(fresh, "typecheck")
    digest = protocol.pair_digest(fresh.din, fresh.dout)
    assert [(op, slot) for op, slot, _args in queued] == [
        ("pinned", pool.slot_for(digest))
    ]
    pair_key, json_op, _payload, din, dout = queued[0][2]
    assert (pair_key, json_op) == (digest, "typecheck")
    assert protocol.pair_digest(din, dout) == digest
