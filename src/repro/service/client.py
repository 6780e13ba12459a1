"""Thin synchronous client for the typechecking service.

One TCP connection, blocking calls, JSON-lines under the hood.  Accepts
either library objects (serialized through the protocol's instance text
codec) or raw section texts — the latter never imports schema parsing on
the client side, so a deployment can drive the service from trivial
scripts::

    from repro.service.client import ServiceClient

    with ServiceClient(port=8722) as client:
        client.ping()
        verdict = client.typecheck(transducer, din, dout)
        verdicts = client.typecheck_many(din, dout, transducers)

For a fixed schema pair served many transducers — the service's actual
deployment shape — use a sticky :class:`PairHandle`::

    with ServiceClient(port=8722) as client:
        pair = client.pair(din, dout)          # nothing sent yet
        verdict = pair.typecheck(transducer)   # pins on first use
        verdicts = pair.typecheck_many(transducers)

The handle sends the schema text exactly once per (connection, pair)
(``set_pair``); every later request ships only the transducer and
options.  The unpinned calls above ship the schemas inline with every
request; the server serves both through the same pinned path, so the
results are identical and only the request bytes differ.

Counterexamples come back as term-syntax text and are re-parsed to
:class:`~repro.trees.tree.Tree` on request.
"""

from __future__ import annotations

import itertools
import socket
from typing import Dict, List, Optional, Sequence, Union

from repro.errors import ProtocolError
from repro.obs import trace as _trace
from repro.service import protocol

Textable = Union[str, object]  # section text or a library object


def _dtd_text(schema) -> str:
    return schema if isinstance(schema, str) else protocol.dtd_to_text(schema)


def _transducer_text(transducer) -> str:
    if isinstance(transducer, str):
        return transducer
    return protocol.transducer_to_text(transducer)


def _parse_counterexample(text: Optional[str]):
    """Re-parse a served counterexample, tolerating DAG placeholders.

    A shared (DAG) counterexample whose unfolding exceeds the rendering
    budget ships as its ``<dag label: N unfolded nodes, d distinct>``
    summary (see :meth:`repro.trees.dag.DagTree.__str__`) — there is no
    term text to parse, so the summary string comes back verbatim; callers
    needing the tree itself should query in-process, where the shared
    structure survives.
    """
    if text is None:
        return None
    if text.startswith("<dag "):
        return text
    from repro.trees.tree import parse_tree

    return parse_tree(text)


class ServiceClient:
    """A blocking JSON-lines client for one service endpoint."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8722,
        timeout: Optional[float] = 300.0,
    ) -> None:
        self.host = host
        self.port = port
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")
        self._ids = itertools.count(1)
        # The PairHandle currently pinned on this connection (the server
        # tracks one pair per connection; handles re-pin when they lost it).
        self._pinned_handle: Optional["PairHandle"] = None

    # ------------------------------------------------------------------
    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def call(self, op: str, **fields) -> Dict[str, object]:
        """One raw request/response cycle; returns the response ``result``.

        Transported errors re-raise as their library exception classes;
        the full response (timing included) is kept on
        :attr:`last_response`.

        With tracing enabled the request carries a ``trace_id`` (minted
        here unless the calling thread already has one), and the round
        trip is recorded as a ``wire`` span under that ID.
        """
        req_id = next(self._ids)
        message = {"id": req_id, "op": op, **fields}
        if _trace.enabled():
            # Reuse the caller's trace (and span parent) when one is
            # active on this thread; mint a fresh trace ID otherwise.
            context = _trace.wire_context() or {"trace_id": _trace.new_trace_id()}
            message["trace_id"] = context["trace_id"]
            with _trace.activate(context), _trace.span("wire", op=op):
                return self._roundtrip(req_id, message)
        return self._roundtrip(req_id, message)

    def _roundtrip(self, req_id: int, message: Dict[str, object]):
        self._file.write(protocol.encode(message))
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ProtocolError("server closed the connection")
        response = protocol.decode_line(line)
        if response.get("id") != req_id:
            raise ProtocolError(
                f"response id {response.get('id')!r} does not match "
                f"request id {req_id!r}"
            )
        self.last_response = response
        if not response.get("ok"):
            protocol.raise_error(response.get("error") or {})
        return response.get("result")  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def ping(self) -> Dict[str, object]:
        return self.call("ping")

    def stats(self) -> Dict[str, object]:
        return self.call("stats")

    def metrics(self) -> Dict[str, object]:
        """The service's metrics registry, merged across processes.

        Returns ``{"merged": snapshot, "parent": snapshot, "workers":
        [{"worker": i, "snapshot": ...}, ...]}`` where each snapshot is a
        JSON-safe ``{"counters", "gauges", "histograms"}`` dict (see
        :mod:`repro.obs.metrics`).
        """
        return self.call("metrics")

    def pair(self, din: Textable, dout: Textable) -> "PairHandle":
        """A sticky handle for one schema pair.

        Nothing is sent until the first request; the handle then pins the
        pair once (``set_pair``) and ships only transducer text per call.
        """
        return PairHandle(self, din, dout)

    def typecheck(
        self,
        transducer: Textable,
        din: Textable,
        dout: Textable,
        method: str = "auto",
        explain: bool = False,
    ) -> Dict[str, object]:
        """Typecheck one instance; returns the JSON verdict dict.

        ``explain=True`` asks the server for the query's attribution
        report — the verdict dict then carries it under ``"explain"``.
        """
        fields: Dict[str, object] = {
            "din": _dtd_text(din),
            "transducer": _transducer_text(transducer),
            "dout": _dtd_text(dout),
            "method": method,
        }
        if explain:
            fields["explain"] = True
        return self.call("typecheck", **fields)

    def typecheck_text(self, text: str, method: str = "auto") -> Dict[str, object]:
        """Typecheck a whole CLI-format instance file."""
        return self.call("typecheck", text=text, method=method)

    def typecheck_many(
        self,
        din: Textable,
        dout: Textable,
        transducers: Sequence[Textable],
        method: str = "auto",
    ) -> List[Dict[str, object]]:
        """Batch against one warm pair; fanned out across the pool."""
        return self.call(
            "typecheck_many",
            din=_dtd_text(din),
            dout=_dtd_text(dout),
            transducers=[_transducer_text(item) for item in transducers],
            method=method,
        )

    def retypecheck(
        self,
        transducer: Textable,
        base: Textable,
        din: Textable,
        dout: Textable,
        method: str = "auto",
    ) -> Dict[str, object]:
        """Typecheck ``transducer`` as an edit of ``base``: a plain warm
        query, so the verdict dict is identical to :meth:`typecheck` of
        ``transducer`` alone."""
        return self.call(
            "retypecheck",
            din=_dtd_text(din),
            transducer=_transducer_text(transducer),
            base=_transducer_text(base),
            dout=_dtd_text(dout),
            method=method,
        )

    def counterexample(
        self, transducer: Textable, din: Textable, dout: Textable
    ):
        """The counterexample :class:`~repro.trees.tree.Tree` or ``None``."""
        result = self.call(
            "counterexample",
            din=_dtd_text(din),
            transducer=_transducer_text(transducer),
            dout=_dtd_text(dout),
        )
        return _parse_counterexample(result.get("counterexample"))

    def analysis(
        self, transducer: Textable, din: Textable, dout: Textable
    ) -> Dict[str, object]:
        """The Proposition 16 analysis (widths, class membership)."""
        return self.call(
            "analysis",
            din=_dtd_text(din),
            transducer=_transducer_text(transducer),
            dout=_dtd_text(dout),
        )


class PairHandle:
    """Sticky-pair view of a :class:`ServiceClient` connection.

    Pins its schema pair on first use (``set_pair``) and then frames
    every request *bare* — transducer text plus options, no schema fields.

    One connection holds one pinned pair at a time (server-side state);
    multiple handles on one client cooperate by re-pinning whenever
    another handle pinned in between, so interleaving them is correct,
    just chattier.
    """

    def __init__(self, client: ServiceClient, din: Textable, dout: Textable) -> None:
        self._client = client
        self._din_text = _dtd_text(din)
        self._dout_text = _dtd_text(dout)
        #: The server-assigned pair digest (None until pinned).
        self.pair_id: Optional[str] = None

    # ------------------------------------------------------------------
    def _ensure_pinned(self) -> None:
        if self._client._pinned_handle is self and self.pair_id is not None:
            return
        result = self._client.call(
            "set_pair", v=2, din=self._din_text, dout=self._dout_text
        )
        self.pair_id = str(result["pair"])
        self._client._pinned_handle = self

    # ------------------------------------------------------------------
    def typecheck(
        self,
        transducer: Textable,
        method: str = "auto",
    ) -> Dict[str, object]:
        """Typecheck one transducer against the pinned pair."""
        self._ensure_pinned()
        return self._client.call(
            "typecheck", v=2, transducer=_transducer_text(transducer),
            method=method,
        )

    def typecheck_many(
        self, transducers: Sequence[Textable], method: str = "auto"
    ) -> List[Dict[str, object]]:
        """Batch against the pinned pair; fanned out across the pool."""
        self._ensure_pinned()
        return self._client.call(
            "typecheck_many",
            v=2,
            transducers=[_transducer_text(item) for item in transducers],
            method=method,
        )

    def retypecheck(
        self, transducer: Textable, base: Textable, method: str = "auto"
    ) -> Dict[str, object]:
        """Typecheck an edit of ``base`` against the pinned pair.

        Bare framing ships only the two transducer sections; the pair's
        affine worker keeps its warm schema and result cache, so a link
        back to a transducer it already checked is a cache hit.
        """
        self._ensure_pinned()
        return self._client.call(
            "retypecheck",
            v=2,
            transducer=_transducer_text(transducer),
            base=_transducer_text(base),
            method=method,
        )

    def counterexample(self, transducer: Textable):
        """The counterexample :class:`~repro.trees.tree.Tree` or ``None``."""
        self._ensure_pinned()
        result = self._client.call(
            "counterexample",
            v=2,
            transducer=_transducer_text(transducer),
        )
        return _parse_counterexample(result.get("counterexample"))

    def analysis(self, transducer: Textable) -> Dict[str, object]:
        """The Proposition 16 analysis against the pinned pair."""
        self._ensure_pinned()
        return self._client.call(
            "analysis", v=2, transducer=_transducer_text(transducer)
        )
