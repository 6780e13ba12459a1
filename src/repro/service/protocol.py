"""Wire protocol of the typechecking service: JSON lines over TCP.

Every request and response is one JSON object on one ``\\n``-terminated
line.  Requests carry::

    {"id": <any json>, "op": <op>, ...op-specific fields...}

and responses::

    {"id": <same>, "ok": true,  "result": {...}, "elapsed_ms": 1.76,
     "worker": 2}
    {"id": <same>, "ok": false, "error": {"type": "ClassViolationError",
     "message": "..."}}

Ops
---
``ping``
    Liveness probe; result ``{"pong": true, "version": ..., "protocol": 2}``.
``stats``
    Server/pool introspection: workers alive, requests served, retries,
    and per-worker session-registry detail (resident pairs with byte
    footprints, hit/miss/eviction counters, pinned pairs).
``metrics``
    The merged :mod:`repro.obs` metrics registry across the server
    process and every pool worker (counters, gauges, histograms), plus
    the per-process snapshots (see ``WorkerPool.metrics``).
``set_pair``
    ``{"op": "set_pair", "din": text, "dout": text}`` parses and hashes a
    schema pair *once*, pins it to the connection, pre-pins it in the
    pair's affine worker, and returns ``{"pair": digest, "worker": slot}``.
    The dout section must pin its alphabet with an explicit ``alphabet``
    line (:func:`dtd_to_text` always emits one): the per-instance
    dout-widening of an inline request needs a transducer, so an
    ambiguous pair is rejected rather than silently meaning something
    different than the same texts sent inline.
``typecheck`` / ``counterexample`` / ``analysis``
    One instance: ``"transducer"`` section text plus optional
    ``"method"``, ``"explain"`` and ``"shards"`` (shard the fixpoint of
    this single query across the pool).
``retypecheck``
    Like ``typecheck`` plus a ``"base"`` transducer section: the edited
    ``"transducer"`` is checked incrementally against ``base``'s warm
    fixpoint tables (``Session.retypecheck``) — same verdict as a cold
    ``typecheck``, and the result's stats carry the reuse detail.
``typecheck_many``
    ``"transducers": [text, ...]``; items fan out across the worker pool
    and the result is a list in input order.

A query names its schema pair one of two ways.  A *bare* query carries
no schema text and runs against the connection's ``set_pair`` pin, so
schema text crosses the wire once per (connection, pair) — the fixed-
schema regime (Martens–Neven) the service is built for.  An *inline*
query carries its schemas: one ``"text"`` field in the CLI's
``---``-separated instance format, or ``"din"``/``"dout"`` section
fields next to the transducer.  The server parses it exactly as
:func:`load_instance` does (the dout alphabet is widened to the
transducer's unless pinned) and serves it through the same pinned path
under a per-request pin of the widened pair, leaving the connection's
own pin untouched.  A message without ``"v"`` is read as the current
protocol version.

Tracing (optional ``trace_id`` field)
-------------------------------------
Any request may carry ``"trace_id": "<hex>"``: the server threads it
through dispatch and pool fan-out so worker span records
(:mod:`repro.obs.trace`) share the client's trace ID.  Unknown fields are
ignored by design (``validate_request`` checks only ``v`` and ``op``) —
the field is pure opt-in telemetry with no semantic effect.

Schemas and transducers travel as *text*, not pickles: the wire format is
readable, diffable, and language-agnostic, and the server never unpickles
network data.  The text codec here is the CLI's instance format made
bidirectional — ``dtd_to_text`` / ``transducer_to_text`` extend the
section headers with an explicit ``alphabet`` line so content hashes (the
session routing keys) survive the round trip.

This module also owns the section *parsers*; ``repro.__main__`` re-exports
them, so the CLI and the service consume the same format by construction.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

import repro
from repro.errors import (
    BudgetExceededError,
    ClassViolationError,
    InvalidSchemaError,
    InvalidTransducerError,
    NotSupportedError,
    ParseError,
    ProtocolError,
    ReproError,
    UnknownPairError,
    WorkerCrashError,
)
from repro.core.problem import TypecheckResult
from repro.schemas.dtd import DTD
from repro.strings.dfa import DFA
from repro.strings.regex import Regex
from repro.strings.replus import REPlus
from repro.transducers.rhs import RhsCall, iter_rhs_nodes, rhs_str
from repro.transducers.transducer import TreeTransducer
from repro.util import stable_digest

PROTOCOL_VERSION = 2

#: Ops a server accepts.
OPS = frozenset(
    {
        "ping",
        "stats",
        "metrics",
        "set_pair",
        "typecheck",
        "typecheck_many",
        "counterexample",
        "analysis",
        "retypecheck",
    }
)

_ERROR_TYPES = {
    cls.__name__: cls
    for cls in (
        ReproError,
        ParseError,
        InvalidSchemaError,
        InvalidTransducerError,
        ClassViolationError,
        BudgetExceededError,
        NotSupportedError,
        ProtocolError,
        UnknownPairError,
        WorkerCrashError,
    )
}


# ----------------------------------------------------------------------
# Instance text codec (the CLI's section format, bidirectional)
# ----------------------------------------------------------------------
def split_sections(text: str) -> List[List[str]]:
    """Split instance text into sections of stripped, comment-free lines."""
    sections: List[List[str]] = [[]]
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if set(line) == {"-"}:
            sections.append([])
            continue
        sections[-1].append(line)
    return sections


def _is_alphabet_line(line: str) -> bool:
    """An ``alphabet a b ...`` declaration — *not* a rule for a symbol that
    happens to be called ``alphabet`` (rules carry ``->``)."""
    return line.split()[0] == "alphabet" and "->" not in line


def _pins_alphabet(dtd_lines: List[str]) -> bool:
    """Does a DTD section declare its alphabet (``alphabet`` line)?"""
    return len(dtd_lines) > 1 and _is_alphabet_line(dtd_lines[1])


def parse_dtd_section(lines: List[str]) -> DTD:
    """Parse ``start s`` (+ optional ``alphabet a b ...``) and rule lines."""
    if not lines or not lines[0].startswith("start "):
        raise ParseError("DTD section must begin with 'start <symbol>'")
    start = lines[0].split(None, 1)[1].strip()
    body = lines[1:]
    alphabet: Tuple[str, ...] = ()
    if body and _is_alphabet_line(body[0]):
        alphabet = tuple(body[0].split()[1:])
        body = body[1:]
    rules: Dict[str, str] = {}
    for line in body:
        head, arrow, model = line.partition("->")
        if not arrow:
            raise ParseError(f"bad DTD rule: {line!r}")
        rules[head.strip()] = model.strip()
    return DTD(rules, start=start, alphabet=alphabet)


def parse_transducer_section(lines: List[str], alphabet) -> TreeTransducer:
    """Parse ``initial q states ...`` (+ optional ``alphabet``) and rules."""
    if not lines or not lines[0].startswith("initial "):
        raise ParseError(
            "transducer section must begin with 'initial <state> states ...'"
        )
    header = lines[0].split()
    initial = header[1]
    if "states" in header:
        states = set(header[header.index("states") + 1 :]) | {initial}
    else:
        states = {initial}
    body = lines[1:]
    explicit_alphabet: Optional[Tuple[str, ...]] = None
    if body and _is_alphabet_line(body[0]):
        explicit_alphabet = tuple(body[0].split()[1:])
        body = body[1:]
    rules: Dict[Tuple[str, str], str] = {}
    output_symbols = set()
    for line in body:
        head, arrow, rhs = line.partition("->")
        if not arrow:
            raise ParseError(f"bad transducer rule: {line!r}")
        state, comma, symbol = head.partition(",")
        if not comma:
            raise ParseError(f"bad transducer rule head: {head!r}")
        rules[(state.strip(), symbol.strip())] = rhs.strip()
        for token in rhs.replace("(", " ").replace(")", " ").split():
            if token not in states and not token.startswith("<"):
                output_symbols.add(token)
    if explicit_alphabet is not None:
        sigma = set(explicit_alphabet)
    else:
        sigma = set(alphabet) | output_symbols | {symbol for (_q, symbol) in rules}
    return TreeTransducer(states, sigma, initial, rules)


def _instance_lines(text: str) -> List[List[str]]:
    sections = split_sections(text)
    if len(sections) != 3:
        raise ParseError(
            f"expected 3 sections separated by '---', found {len(sections)}"
        )
    return sections


def parse_sections(sections: List[List[str]]):
    """``(transducer, din, dout)`` from an instance's three sections.

    The output DTD's alphabet is widened to the transducer's (its content
    models usually mention only a fragment), unless the section pins one
    explicitly with an ``alphabet`` line.
    """
    din_lines, transducer_lines, dout_lines = sections
    return parse_batch_sections(din_lines, [transducer_lines], dout_lines)[0]


def parse_batch_sections(
    din_lines: List[str],
    transducer_sections: List[List[str]],
    dout_lines: List[str],
) -> List[Tuple[TreeTransducer, DTD, DTD]]:
    """``[(transducer, din, dout)]``, each item exactly as
    :func:`parse_sections` parses it, with the schema sections parsed once
    and one ``dout`` object per distinct widened alphabet."""
    din = parse_dtd_section(din_lines)
    transducers = [
        parse_transducer_section(lines, din.alphabet)
        for lines in transducer_sections
    ]
    dout = parse_dtd_section(dout_lines)
    widened: Dict[frozenset, DTD] = {}
    if not _pins_alphabet(dout_lines):
        for transducer in transducers:
            alphabet = frozenset(transducer.alphabet)
            if alphabet not in widened:
                widened[alphabet] = DTD(
                    dout.rules(), start=dout.start, alphabet=alphabet
                )
    return [(t, din, widened.get(frozenset(t.alphabet), dout)) for t in transducers]


def load_instance(text: str):
    """Split an instance file into ``(transducer, din, dout)``.

    The CLI's loader: exactly three sections, parsed by
    :func:`parse_sections` (dout-alphabet widening included).
    """
    return parse_sections(_instance_lines(text))


def dtd_to_text(dtd: DTD) -> str:
    """Serialize a regex-kind DTD to its section text, round-trippable.

    The explicit ``alphabet`` line pins symbols that appear in no rule, so
    ``parse_dtd_section(dtd_to_text(d))`` reproduces ``d.content_hash()``
    — the property the session routing relies on.  Automata-backed content
    models have no canonical text; shipping those needs the artifact
    cache, not the wire format.
    """
    lines = [f"start {dtd.start}", "alphabet " + " ".join(sorted(dtd.alphabet))]
    rules = dtd.rules()  # rules() copies defensively — take the copy once
    for symbol in sorted(rules):
        model = rules[symbol]
        if not isinstance(model, (Regex, REPlus)):
            raise ProtocolError(
                f"content model of {symbol!r} is a compiled automaton; "
                "only regex/RE+ DTDs serialize to instance text"
            )
        lines.append(f"{symbol} -> {model}")
    return "\n".join(lines)


def transducer_to_text(transducer: TreeTransducer) -> str:
    """Serialize a transducer to its section text, round-trippable.

    XPath-pattern calls serialize through their term syntax; selecting-DFA
    calls have no canonical text and are rejected.
    """
    for (state, symbol), rhs in transducer.rules.items():
        for _path, node in iter_rhs_nodes(rhs):
            if isinstance(node, RhsCall) and isinstance(node.selector, DFA):
                raise ProtocolError(
                    f"rule ({state!r}, {symbol!r}) calls a selecting DFA; "
                    "only XPath-pattern calls serialize to instance text"
                )
    lines = [
        "initial "
        + transducer.initial
        + " states "
        + " ".join(sorted(transducer.states)),
        "alphabet " + " ".join(sorted(transducer.alphabet)),
    ]
    for (state, symbol) in sorted(transducer.rules):
        lines.append(
            f"{state}, {symbol} -> {rhs_str(transducer.rules[(state, symbol)])}"
        )
    return "\n".join(lines)


def instance_to_text(transducer: TreeTransducer, din: DTD, dout: DTD) -> str:
    """One CLI-format instance file for the triple."""
    return "\n---\n".join(
        [dtd_to_text(din), transducer_to_text(transducer), dtd_to_text(dout)]
    )


def instance_payload(
    transducer: TreeTransducer, din: DTD, dout: DTD
) -> Dict[str, str]:
    """The request fields carrying one instance (section form)."""
    return {
        "din": dtd_to_text(din),
        "transducer": transducer_to_text(transducer),
        "dout": dtd_to_text(dout),
    }


def pair_digest(sin, sout) -> str:
    """The canonical routing digest of a schema pair.

    *Every* routing decision — the pool's object API, text payloads
    (parsed first, so the ``load_instance`` dout-widening normalization is
    applied identically), and ``set_pair`` pins — goes through this one
    helper, built on the schemas' content hashes.  Equal logical pairs
    therefore land on the same worker no matter how they arrived; the seed
    hashed raw section text on one path and content hashes on the other,
    which could split one warm pair across two workers.
    """
    from repro.core.session import schema_fingerprint

    return stable_digest(
        "route", schema_fingerprint(sin), schema_fingerprint(sout)
    )


def parse_pair_payload(payload: Dict[str, object]) -> Tuple[DTD, DTD]:
    """``(din, dout)`` from a ``set_pair`` request.

    No transducer is in play yet, so the per-instance dout-widening of
    :func:`load_instance` cannot be applied — and silently skipping it
    would let the same raw texts typecheck differently pinned than
    inline.  The dout section must therefore pin its alphabet
    explicitly (an un-widened pair means the same thing on both paths);
    :func:`dtd_to_text` always does, so client-object pins are unaffected.
    """
    din_text = payload.get("din")
    dout_text = payload.get("dout")
    if not isinstance(din_text, str) or not isinstance(dout_text, str):
        raise ProtocolError("'set_pair' needs 'din' and 'dout' section texts")
    din = parse_dtd_section(split_sections(din_text)[0])
    dout_lines = split_sections(dout_text)[0]
    if not _pins_alphabet(dout_lines):
        raise ProtocolError(
            "'set_pair' needs an explicit 'alphabet ...' line in the output "
            "DTD section: without a transducer the per-instance alphabet "
            "widening of inline requests cannot be applied, so the pair must be "
            "pinned unambiguously (dtd_to_text emits the line automatically)"
        )
    dout = parse_dtd_section(dout_lines)
    return din, dout


def instance_sections(payload: Dict[str, object]) -> List[List[str]]:
    """The three sections of an inline-schema request.

    One ``text`` blob or the ``din``/``transducer``/``dout`` fields; both
    forms yield the same lines, so one logical instance hashes (and
    therefore routes and warms) identically however it travelled.
    """
    text = payload.get("text")
    if text is not None:
        if not isinstance(text, str):
            raise ProtocolError("'text' must be a string")
        return _instance_lines(text)
    fields = [payload.get(key) for key in ("din", "transducer", "dout")]
    if not all(isinstance(field, str) for field in fields):
        raise ProtocolError("request needs 'text' or 'din'/'transducer'/'dout'")
    return [split_sections(field)[0] for field in fields]  # type: ignore[arg-type]


def parse_instance_payload(payload: Dict[str, object]):
    """``(transducer, din, dout)`` from a request's instance fields, with
    exactly :func:`load_instance`'s semantics."""
    return parse_sections(instance_sections(payload))


# ----------------------------------------------------------------------
# Wire framing
# ----------------------------------------------------------------------
def encode(message: Dict[str, object]) -> bytes:
    """One JSON line, UTF-8, ``\\n``-terminated."""
    return (json.dumps(message, separators=(",", ":")) + "\n").encode("utf-8")


def decode_line(line) -> Dict[str, object]:
    """Parse one wire line into a message dict."""
    if isinstance(line, (bytes, bytearray)):
        line = line.decode("utf-8", "replace")
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"not a JSON line: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError("a message must be a JSON object")
    return message


def ok_response(
    req_id,
    result,
    elapsed_ms: Optional[float] = None,
    worker: Optional[int] = None,
) -> Dict[str, object]:
    response: Dict[str, object] = {"id": req_id, "ok": True, "result": result}
    if elapsed_ms is not None:
        response["elapsed_ms"] = round(elapsed_ms, 3)
    if worker is not None:
        response["worker"] = worker
    return response


def error_response(req_id, exc: BaseException) -> Dict[str, object]:
    return {"id": req_id, "ok": False, "error": error_info(exc)}


def error_info(exc: BaseException) -> Dict[str, str]:
    return {"type": type(exc).__name__, "message": str(exc)}


def error_from_info(info: Dict[str, object]) -> Exception:
    """A transported error as its library exception class.

    Unknown types (including arbitrary server-side crashes) become
    :class:`ProtocolError` so clients still get one exception hierarchy.
    """
    name = str(info.get("type", "ProtocolError"))
    message = str(info.get("message", ""))
    cls = _ERROR_TYPES.get(name)
    if cls is None:
        return ProtocolError(f"{name}: {message}")
    return cls(message)


def raise_error(info: Dict[str, object]) -> None:
    """Re-raise a transported error (see :func:`error_from_info`)."""
    raise error_from_info(info)


# ----------------------------------------------------------------------
# Result serialization
# ----------------------------------------------------------------------
def result_to_json(result: TypecheckResult) -> Dict[str, object]:
    """A :class:`TypecheckResult` as a JSON-safe dict.

    Trees travel in term syntax (``repro.parse_tree`` round-trips them);
    stats are passed through with non-JSON values stringified.  A query
    that ran with ``explain=True`` additionally carries its
    :class:`repro.obs.explain.QueryReport` as an ``explain`` dict — an
    *optional* response field, so clients that never ask for it simply
    ignore it.
    """
    stats = {
        key: (value if isinstance(value, (int, float, str, bool)) else repr(value))
        for key, value in result.stats.items()
    }
    payload: Dict[str, object] = {
        "typechecks": result.typechecks,
        "algorithm": result.algorithm,
        "reason": result.reason,
        "counterexample": (
            None if result.counterexample is None else str(result.counterexample)
        ),
        "output": None if result.output is None else str(result.output),
        "stats": stats,
    }
    report = getattr(result, "report", None)
    if report is not None:
        payload["explain"] = report.to_dict()
    return payload


def analysis_to_json(analysis) -> Dict[str, object]:
    """A Proposition 16 :class:`TransducerAnalysis` as a JSON-safe dict."""
    return {
        "copying_width": analysis.copying_width,
        "deletion_path_width": analysis.deletion_path_width,
        "is_del_relab": analysis.is_del_relab,
        "in_trac": analysis.in_trac,
    }


def validate_request(message: Dict[str, object]) -> str:
    """Check a decoded request; returns its op."""
    version = message.get("v", PROTOCOL_VERSION)
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version {version!r} not supported (this server "
            f"speaks {PROTOCOL_VERSION})"
        )
    op = message.get("op")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}; valid: {', '.join(sorted(OPS))}")
    return op


def server_version_banner() -> Dict[str, object]:
    return {
        "pong": True,
        "version": repro.__version__,
        "protocol": PROTOCOL_VERSION,
    }
