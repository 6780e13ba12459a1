"""Compiled typechecking sessions — warm schema pairs and batch checking.

In every realistic deployment the schemas are fixed while transducers and
documents vary (Martens & Neven make the same observation at the complexity
level in the fixed-schema follow-up paper): a server holds one warm kernel
per ``(Sin, Sout)`` pair and answers many typechecking queries against it.
This module is that deployment shape as an API:

* :class:`Session` — ``repro.compile(sin, sout)`` (equivalently
  ``Session(sin, sout)``) owns every schema-derived kernel artifact:
  interned alphabets and content DFAs, productive sets, completed output
  DFAs, DTD→NTA forms, the reachability word caches, and the forward
  engine's shared σ-independent fixpoint cells with their persistent
  :class:`~repro.kernel.product.ProductBFS` graphs, each built once
  (:meth:`Session.warm` or first use).  Repeated
  calls — ``session.typecheck(T)``, ``session.typecheck_many(Ts)``,
  ``session.counterexample(T)``, ``session.analysis(T)`` — skip all of it.

* an **in-process registry** keyed by schema *content hashes*
  (:meth:`~repro.schemas.dtd.DTD.content_hash`), consulted by
  :func:`compile` and hence by the one-shot
  :func:`repro.core.api.typecheck` facade: calling ``typecheck`` twice with
  equal schemas — even distinct Python objects — transparently reuses the
  warm session.  The one-shot API is unchanged, just faster on repeat.

* an optional **on-disk artifact cache** (:mod:`repro.cache`): pass
  ``cache_dir`` to :func:`compile` and the pickled schema artifacts are
  keyed by the same content hashes with versioned invalidation, so a fresh
  process skips schema compilation entirely.

**Thread safety.**  The registry is *process-global* behind a lock, so
every thread (and every request handler in a service worker) shares one
warm session per schema pair instead of silently recompiling per thread —
the seed's thread-local registry paid a full schema compilation in every
new thread.  A :class:`Session` itself is thread-safe by coarse
serialization: each public call (``warm`` / ``typecheck`` /
``typecheck_many`` / ``counterexample`` / ``analysis`` / the NTA exports)
holds the session's internal lock for its duration, because the shared
fixpoint cells mutate during typechecking.  Calls on one session therefore
never run concurrently — for CPU parallelism use one session per *process*
(:mod:`repro.service`), not per thread; the GIL makes intra-process
parallel typechecking a non-goal.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.errors import BudgetExceededError, ClassViolationError
from repro.obs import explain as _explain
from repro.obs import metrics as _metrics
from repro.obs import record_router_decision
from repro.obs import trace as _trace
from repro.core.problem import TypecheckResult
from repro.engines import (
    Engine,
    get_engine,
    persistent_engines,
    routable_engines,
    shardable_engines,
)
from repro.schemas.dtd import DTD
from repro.transducers.analysis import TransducerAnalysis, analyze
from repro.transducers.rhs import RhsSym
from repro.transducers.transducer import TreeTransducer
from repro.tree_automata.nta import NTA
from repro.trees.tree import Tree
from repro.util import lru_get, lru_store

Schema = Union[DTD, NTA]

#: Default node budget of the forward engine (mirrors ``typecheck_forward``).
DEFAULT_MAX_PRODUCT_NODES = 500_000

#: Bound on the per-session transducer memos (call-compiled transducer +
#: analysis, and the auto-route decision), keyed by content hash like the
#: engines' table caches (``TRANSDUCER_TABLE_LIMIT``,
#: ``BACKWARD_TABLE_LIMIT``).
TRANSDUCER_MEMO_LIMIT = 64

# ----------------------------------------------------------------------
# Structural footprint weights (bytes per unit)
# ----------------------------------------------------------------------
# Rough pickled-size-per-unit constants behind Session._structural_bytes:
# the structural estimate replaces the old throttled re-pickling of whole
# sessions on the eviction path (ROADMAP open item).  The absolute scale
# only needs to be right within a small factor — eviction decisions are
# *relative* — and the base is periodically re-calibrated against the
# true pickled size (see Session.footprint_bytes).
_NODE_BYTES = 90          # one interned product node (small int tuple)
_EDGE_BYTES = 150         # one recorded product edge (2 nodes + label)
_ACCEPT_BYTES = 220       # one accepted π with its witness child word
_TAU_BYTES = 120          # one tree-cell τ entry (table + order + index)
_SNAPSHOT_BYTES = 400     # per-transducer snapshot bookkeeping
_WITNESS_DAG_BYTES = 2000  # one RE+ witness DAG pair
_DELRELAB_BYTES = 4000    # one compiled del-relab context


def schema_fingerprint(schema: Schema) -> str:
    """Stable content hash of a schema, prefixed by its representation."""
    if isinstance(schema, DTD):
        return f"dtd:{schema.content_hash()}"
    if isinstance(schema, NTA):
        return f"nta:{schema.content_hash()}"
    raise TypeError(f"not a schema: {schema!r}")


# ----------------------------------------------------------------------
# Per-method kwarg validation (delegated to the engine registry)
# ----------------------------------------------------------------------
def allowed_kwargs(method: str) -> frozenset:
    """The per-call option names ``typecheck(method=...)`` accepts.

    Delegates to the engine registry, which memoizes the signature
    inspection *per engine* — once per process, never once per
    typecheck.
    """
    return get_engine(method).allowed_kwargs()


def validate_method_kwargs(method: str, kwargs: Dict[str, object]) -> None:
    """Reject options the selected method does not understand.

    The seed API silently forwarded unknown ``**kwargs`` into the per-method
    functions, producing a bare ``TypeError`` from deep inside the call (or,
    worse, a typo'd option being dropped by a dispatch branch that never
    forwarded it).  This names the offending option and lists the valid ones.
    """
    get_engine(method).validate_kwargs(kwargs)


def _reject_max_tuple(method: str, max_tuple: Optional[int]) -> None:
    if max_tuple is not None:
        raise TypeError(
            f"option 'max_tuple' is not supported by method {method!r} "
            "(it bounds the forward engine's behavior tuples)"
        )


# ----------------------------------------------------------------------
# Session
# ----------------------------------------------------------------------
class Session:
    """A compiled typechecking session for one ``(sin, sout)`` schema pair.

    Construction runs :meth:`warm` (``eager=False`` defers every artifact
    to first use; the facade uses that so one-shot calls never pay for
    artifacts they do not touch).  All
    per-method entry points accept the same options as the corresponding
    ``typecheck_*`` functions; ``max_product_nodes`` defaults to the
    session-level budget.  The session's identity is the two schema
    content hashes alone: no option changes which artifacts it compiles,
    and the forward engine always runs the interned kernel.

    The public surface:

    ``typecheck(T, method="auto", ...)``
        One result, same semantics as :func:`repro.typecheck`.
    ``typecheck_many(Ts, ...)``
        A list of results, one per transducer, against the warm pair.
    ``counterexample(T, ...)``
        The counterexample input tree (or ``None`` when ``T`` typechecks).
    ``analysis(T)``
        The Proposition 16 :class:`TransducerAnalysis` (memoized; XPath/DFA
        calls are compiled away first, as in ``method="auto"``).
    """

    def __init__(
        self,
        sin: Schema,
        sout: Schema,
        *,
        max_product_nodes: int = DEFAULT_MAX_PRODUCT_NODES,
        eager: bool = True,
    ) -> None:
        self.sin = sin
        self.sout = sout
        # The default per-call node budget.  Deliberately NOT part of the
        # session identity: no compiled artifact depends on it (shared
        # ProductBFS budgets are refreshed per call, and a budget abort
        # resets the shared cells), so retrying a BudgetExceededError with
        # a larger ``max_product_nodes`` kwarg stays warm.
        self.max_product_nodes = max_product_nodes
        self.key: Tuple[str, str] = session_key(sin, sout)
        self.stats: Dict[str, object] = {
            "source": "fresh",
            "calls": 0,
            "registry_hits": 0,
            "compile_s": 0.0,
        }
        # Coarse per-session lock: public calls serialize on it, making a
        # shared session safe to hand to multiple threads (see the module
        # docstring — the registry is process-global).
        self._lock = threading.RLock()
        self._dtd_pair_value = (
            (sin, sout) if isinstance(sin, DTD) and isinstance(sout, DTD) else None
        )
        self._replus_pair = (
            self._dtd_pair_value is not None
            and sin.kind == "RE+"
            and sout.kind == "RE+"
        )
        # Compiled per-engine schema contexts, keyed by the engine's
        # registry ``schema_slot`` and per-call variant (the del-relab
        # class-check flag; ``None`` for single-variant engines).  One
        # generic store instead of one attribute per engine: a new
        # registered engine needs no session change at all.
        self._schemas: Dict[Tuple[str, object], object] = {}
        # Per-transducer memo: content hash -> (call-compiled T, analysis),
        # an LRU of TRANSDUCER_MEMO_LIMIT entries.  Content keys let equal
        # transducers parsed or unpickled per request share one analysis.
        self._analyses: "OrderedDict[str, Tuple[TreeTransducer, TransducerAnalysis]]" = (
            OrderedDict()
        )
        # Route-cost memo: content hash -> (cheapest routable engine,
        # {engine: predicted ms}).  The schema pair is fixed, so a serving
        # session pays the cost models' key scans once per transducer.
        self._auto_routes: "OrderedDict[str, Tuple[str, Dict[str, float]]]" = (
            OrderedDict()
        )
        # (calibrated base bytes, structural estimate at calibration) —
        # see footprint_bytes().
        self._footprint: Optional[Tuple[int, int]] = None
        if eager:
            self.warm()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Session({self.sin!r} -> {self.sout!r}, "
            f"source={self.stats['source']}, calls={self.stats['calls']})"
        )

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def warm(self) -> "Session":
        """Eagerly compile what an auto query on this pair reads, whatever
        the transducer: the slots of the engines ``route(None)`` names
        (``replus`` alone on RE⁺ pairs, the routable engines on other DTD
        pairs, ``delrelab`` on automaton pairs), each with only its
        transducer-independent artifacts.  Everything else — other
        engines, completions over a transducer's output alphabet, the §6
        witness DAGs — is built on first use.
        """
        with self._lock, _trace.span(
            "compile", source=str(self.stats["source"])
        ):
            start = time.perf_counter()
            choice, reachable = self.route(None)
            for name in [choice] if choice is not None else reachable:
                get_engine(name).schema(self).warm()
            self.stats["compile_s"] = float(self.stats["compile_s"]) + (
                time.perf_counter() - start
            )
            return self

    def _dtd_pair(self) -> Tuple[DTD, DTD]:
        if self._dtd_pair_value is None:
            raise ClassViolationError(
                "this method needs DTD schemas (tree automata are supported "
                "by method='delrelab')"
            )
        return self._dtd_pair_value

    def engine_schema(self, engine: Engine, variant=None):
        """The compiled schema context of ``engine`` for this pair (built
        on first use, cached per ``(schema_slot, variant)``)."""
        slot = (engine.schema_slot, variant)
        ctx = self._schemas.get(slot)
        if ctx is None:
            with _trace.span("compile", slot=engine.schema_slot):
                ctx = engine.build_schema(self, variant)
            self._schemas[slot] = ctx
        return ctx

    def forward_schema(self):
        """The compiled :class:`~repro.core.forward.ForwardSchema` (built
        on first use)."""
        return self.engine_schema(get_engine("forward"))

    def backward_schema(self):
        """The compiled :class:`~repro.backward.BackwardSchema` (built on
        first use)."""
        return self.engine_schema(get_engine("backward"))

    def replus_schema(self):
        """The compiled :class:`~repro.core.replus.ReplusSchema` (built on
        first use)."""
        return self.engine_schema(get_engine("replus"))

    def delrelab_schema(self, check_output_class: bool = True):
        """The compiled :class:`~repro.core.delrelab.DelrelabSchema`
        (built on first use, cached per class-check flag)."""
        return self.engine_schema(
            get_engine("delrelab"), bool(check_output_class)
        )

    # Structural-footprint / cache views of the generic schema store.
    @property
    def _forward(self):
        return self._schemas.get(("forward", None))

    @property
    def _backward(self):
        return self._schemas.get(("backward", None))

    @property
    def _replus(self):
        return self._schemas.get(("replus", None))

    @property
    def _delrelab(self) -> Dict[bool, object]:
        return {
            variant: ctx
            for (slot, variant), ctx in self._schemas.items()
            if slot == "delrelab"
        }

    # ------------------------------------------------------------------
    # Transducer-side memo
    # ------------------------------------------------------------------
    def _compiled_transducer(
        self, transducer: TreeTransducer
    ) -> Tuple[TreeTransducer, TransducerAnalysis]:
        key = transducer.content_hash()
        cached = lru_get(self._analyses, key)
        if cached is None:
            plain = transducer
            if transducer.uses_calls():
                from repro.xpath.compile import compile_calls

                plain = compile_calls(transducer)
            cached = (plain, analyze(plain))
            lru_store(self._analyses, key, cached, TRANSDUCER_MEMO_LIMIT)
        return cached

    def analysis(self, transducer: TreeTransducer) -> TransducerAnalysis:
        """The Proposition 16 analysis of ``T`` (calls compiled away)."""
        with self._lock:
            return self._compiled_transducer(transducer)[1]

    # ------------------------------------------------------------------
    # Typechecking
    # ------------------------------------------------------------------
    def typecheck(
        self,
        transducer: TreeTransducer,
        method: str = "auto",
        max_tuple: Optional[int] = None,
        explain: bool = False,
        **kwargs,
    ) -> TypecheckResult:
        """Decide ``T(t) ∈ Sout`` for every ``t ∈ Sin`` against the warm
        pair; same semantics and options as :func:`repro.typecheck`.
        Thread-safe: the call holds the session lock for its duration.

        ``explain=True`` additionally attaches a
        :class:`repro.obs.explain.QueryReport` as ``result.report``:
        engine routing with every predicted cost, cache provenance, and
        this query's own kernel counters (delta-scoped around the run).
        The verdict is identical either way.
        """
        with self._lock:
            if not explain:
                return self._typecheck(transducer, method, max_tuple, **kwargs)
            return self._explained(
                "typecheck", transducer, method,
                lambda: self._typecheck(transducer, method, max_tuple, **kwargs),
            )

    def _explained(
        self,
        kind: str,
        transducer: TreeTransducer,
        method: str,
        run: Callable[[], TypecheckResult],
        shardable: bool = False,
    ) -> TypecheckResult:
        """Run ``run()`` inside an explain scope and attach its report.

        The report's predictions are what :meth:`route` prices ``T`` at
        under ``method="auto"`` (``{}`` when auto does not compare costs).
        """
        with _explain.query_scope() as scope:
            start = time.perf_counter()
            result = run()
            measured_ms = (time.perf_counter() - start) * 1e3
        with self._lock:
            try:
                predicted = self.route(transducer, shardable=shardable)[1]
            except Exception:  # noqa: BLE001 - explain must never fail a query
                predicted = {}
            source = str(self.stats.get("source", "")) or None
        result.report = _explain.build_report(
            kind,
            method=method,
            result=result,
            measured_ms=measured_ms,
            scope=scope,
            predicted_ms=predicted,
            session_source=source,
        )
        return result

    def _typecheck(
        self,
        transducer: TreeTransducer,
        method: str = "auto",
        max_tuple: Optional[int] = None,
        **kwargs,
    ) -> TypecheckResult:
        self.stats["calls"] = int(self.stats["calls"]) + 1
        choice, costs = self.route(transducer, method, max_tuple)
        engine = get_engine(choice)
        engine.validate_kwargs(kwargs)
        if not engine.accepts_max_tuple:
            # Explicit methods are strict; under auto, ``max_tuple`` is
            # the forward pin and means nothing to the other engines.
            if method != "auto":
                _reject_max_tuple(method, max_tuple)
            max_tuple = None
        if method == "auto" and transducer.uses_calls():
            # Run the call-compiled transducer the route analysed (memoized)
            # rather than have the engine compile the calls again.
            transducer = self._compiled_transducer(transducer)[0]
        run_start = time.perf_counter()
        result = engine.typecheck(self, transducer, max_tuple, kwargs)
        if method == "auto":
            result.stats["auto_method"] = choice
        if costs:
            # Router audit: predicted vs. measured cost of this decision —
            # the data needed to re-fit the engines' ms_per_unit weights.
            record_router_decision(
                choice,
                actual_ms=round((time.perf_counter() - run_start) * 1e3, 3),
                predicted_ms={
                    name: round(cost, 3) for name, cost in costs.items()
                },
                transducer=transducer.content_hash()[:12],
            )
            for name, cost in costs.items():
                result.stats[f"auto_{name}_cost"] = round(cost, 3)
        return result

    def route(
        self,
        transducer: Optional[TreeTransducer],
        method: str = "auto",
        max_tuple: Optional[int] = None,
        *,
        shardable: bool = False,
    ) -> Tuple[Optional[str], Dict[str, float]]:
        """``(engine, {engine: predicted ms})``: the engine a query of
        ``T`` runs on this pair — the one routing policy behind
        :meth:`typecheck`, :meth:`retypecheck`, :meth:`typecheck_sharded`,
        the explain reports and :meth:`warm`.

        The ladder, first match wins:

        1. an explicit ``method`` is its own engine (``ValueError`` when
           unknown);
        2. RE⁺ pairs → ``replus`` (Theorem 37), before any transducer
           analysis;
        3. ``max_tuple`` on a DTD pair pins ``forward`` — a caller
           bounding the tuple width asks for the (possibly exponential)
           forward run, never a routed alternative;
        4. ``T_trac`` over DTDs → the routable engine with the smallest
           predicted wall time (``Engine.predict_cost_ms``: each engine's
           shard cost model over its own check keys, weighed by its
           calibrated ``ms_per_unit``; ties go to the earliest
           registrant).  The models read compiled schema shape only, and
           the costs are memoized per transducer content hash;
        5. del-relab → ``delrelab`` (Theorem 20).  Only non-DTD pairs get
           here: over DTDs every del-relab transducer is in ``T_trac``;
        6. any other DTD pair → ``backward``: inverse type inference is
           complete for every deterministic top-down transducer over
           DTDs (budget-guarded), so auto does not refuse the instance;
        7. otherwise :class:`~repro.errors.ClassViolationError`.

        ``shardable=True`` is the sharded fan-out's view: the rungs whose
        engine cannot shard are skipped, so RE⁺ pairs reach the cost
        comparison and non-DTD pairs are refused.  The predictions are
        non-empty exactly when rung 4 chose.

        ``transducer=None`` is the pair-level view :meth:`warm` reads:
        rungs 1-3 answer as usual, and otherwise ``(None, {engine: 0.0})``
        names, unpriced, every engine rungs 4-6 can return on the pair.
        """
        if method != "auto":
            if shardable:
                names = [engine.name for engine in shardable_engines()]
                if method not in names:
                    raise ValueError(
                        f"unknown shard method {method!r}; valid: auto, "
                        + ", ".join(names)
                    )
            get_engine(method)
            return method, {}

        def usable(name: str) -> bool:
            return not shardable or get_engine(name).shardable

        with self._lock:
            dtd_pair = self._dtd_pair_value is not None
            if self._replus_pair and usable("replus"):
                return "replus", {}
            if dtd_pair and max_tuple is not None and usable("forward"):
                return "forward", {}
            if not dtd_pair and shardable:
                self._dtd_pair()  # every shardable engine needs DTDs
            if transducer is None:
                names = ["delrelab"]
                if dtd_pair:
                    names = [engine.name for engine in routable_engines()]
                return None, {name: 0.0 for name in names if usable(name)}
            plain, analysis = self._compiled_transducer(transducer)
            if dtd_pair and analysis.in_trac:
                memo_key = plain.content_hash()
                cached = lru_get(self._auto_routes, memo_key)
                if cached is None:
                    costs = {
                        engine.name: float(engine.predict_cost_ms(self, plain))
                        for engine in routable_engines()
                    }
                    cached = (min(costs, key=costs.get), costs)
                    lru_store(
                        self._auto_routes, memo_key, cached,
                        TRANSDUCER_MEMO_LIMIT,
                    )
                best, costs = cached
                if not usable(best):
                    best = min(
                        [name for name in costs if usable(name)], key=costs.get
                    )
                return best, costs
            if analysis.is_del_relab and usable("delrelab"):
                return "delrelab", {}
            if dtd_pair and usable("backward"):
                return "backward", {}
        raise ClassViolationError(
            "instance crosses the tractability frontier: the transducer has "
            f"copying width {analysis.copying_width} and "
            f"{'unbounded' if analysis.deletion_path_width is None else analysis.deletion_path_width} "
            "deletion path width, and the schemas are "
            f"{type(self.sin).__name__}/{type(self.sout).__name__}. "
            "Options: restrict the transducer (Theorem 15/20), use "
            "DTD(RE+) schemas (Theorem 37), use DTD schemas to enable "
            "method='backward' (inverse type inference — complete for any "
            "deterministic top-down transducer over DTDs, budget-guarded), "
            "or pass max_tuple for a best-effort (possibly exponential) "
            "run of the forward engine."
        )

    # ------------------------------------------------------------------
    # Incremental re-typechecking (edit chains)
    # ------------------------------------------------------------------
    def retypecheck(
        self,
        transducer: TreeTransducer,
        base: TreeTransducer,
        method: str = "auto",
        max_tuple: Optional[int] = None,
        **kwargs,
    ) -> TypecheckResult:
        """Typecheck ``transducer`` as an *edit* of ``base``.

        Same verdict, counterexample semantics, and exceptions as
        :meth:`typecheck` of ``transducer`` alone — the differential
        suites enforce bit-identical results — but when ``base``'s
        fixpoint tables are warm in this session, only the cells whose
        dependency closure touches the edited rules are recomputed; the
        surviving cells (and their persisted kernel ``ProductBFS``
        frontiers) carry over.  The new tables are stored under the
        edited transducer's content hash, so chains of edits stay warm
        link to link.  ``method`` is resolved by :meth:`route`, exactly
        as :meth:`typecheck` resolves it: only the ``forward`` and
        ``backward`` engines diff tables; any other engine (``replus``
        on RE⁺ pairs under auto, ``delrelab``, ...) re-runs against its
        already-compiled schema, reported ``warmed``.  Anything that the
        delta path cannot serve (cold base, non-DTD pair, blown budgets,
        XPath calls, alphabet/behavior-shape changes) falls back to a
        plain cold check, reported in ``stats["retypecheck_mode"]``.

        ``explain=True`` attaches a :class:`repro.obs.explain.QueryReport`
        (including the retypecheck mode and reuse counters) as
        ``result.report``, exactly as :meth:`typecheck` does.
        """
        explain = bool(kwargs.pop("explain", False))
        with self._lock:
            if not explain:
                return self._retypecheck(
                    transducer, base, method, max_tuple, **kwargs
                )
            return self._explained(
                "retypecheck", transducer, method,
                lambda: self._retypecheck(
                    transducer, base, method, max_tuple, **kwargs
                ),
            )

    def _retypecheck(
        self,
        transducer: TreeTransducer,
        base: TreeTransducer,
        method: str,
        max_tuple: Optional[int],
        **kwargs,
    ) -> TypecheckResult:
        # The route _typecheck takes, so the resolved engine (and hence
        # the reported mode) matches the run; a refused instance raises
        # the same ClassViolationError a plain typecheck would.
        resolved = self.route(transducer, method, max_tuple)[0]
        engine = get_engine(resolved)

        def cold(reason: str) -> TypecheckResult:
            result = self._typecheck(transducer, method, max_tuple, **dict(kwargs))
            result.stats["retypecheck_mode"] = "cold"
            result.stats["retypecheck"] = {
                "mode": "cold",
                "method": resolved,
                "reason": reason,
            }
            return result

        if not engine.incremental:
            # No diffable tables for this engine — but the compiled schema
            # context (grammar views, witness DAGs, lifted automata) is
            # reusable when only the transducer changed: re-run against it
            # and report the schema-warm mode with the fallback reason.
            reason = engine.no_incremental_reason
            ctx = (
                engine.peek_schema(self, engine.schema_variant(kwargs))
                if engine.has_schema
                else None
            )
            if ctx is None or not getattr(ctx, "compiled", False):
                return cold(
                    reason if not engine.has_schema else "schema not compiled"
                )
            result = self._typecheck(
                transducer, method, max_tuple, **dict(kwargs)
            )
            result.stats["retypecheck_mode"] = "warmed"
            result.stats["retypecheck"] = {
                "mode": "warmed",
                "method": resolved,
                "reason": reason,
            }
            return result

        # Incremental engines (forward/backward): diff the base snapshot.
        engine.validate_kwargs(kwargs)
        if not engine.accepts_max_tuple:
            _reject_max_tuple(resolved, max_tuple)
        din, dout = self._dtd_pair()
        plain, _analysis = self._compiled_transducer(transducer)
        base_plain, _base_analysis = self._compiled_transducer(base)

        # The engines' preambles (empty input language, missing/ill-formed
        # root rule, wrong output root) answer before any fixpoint — a
        # cold call is free there and keeps exception parity exactly.
        root_rule = plain.rules.get((plain.initial, din.start))
        if (
            din.is_empty()
            or root_rule is None
            or len(root_rule) != 1
            or not isinstance(root_rule[0], RhsSym)
            or root_rule[0].label != dout.start
        ):
            return cold("preamble case")

        base_key = base_plain.content_hash()
        new_key = plain.content_hash()
        max_nodes = int(kwargs.get("max_product_nodes", self.max_product_nodes))

        base_tables = engine.cached_tables(self, base_key)
        tables = None
        info = None
        if base_tables is not None:
            with _trace.span(
                "retypecheck_diff", engine=resolved
            ) as diff_span:
                try:
                    out = engine.incremental_tables(
                        self, plain, base_plain, base_tables,
                        max_tuple=max_tuple, max_product_nodes=max_nodes,
                    )
                except BudgetExceededError:
                    return cold("incremental budget exceeded")
                if out is not None:
                    tables, info = out
                    diff_span.set(
                        **{k: v for k, v in info.items() if k != "mode"}
                    )
        if tables is None:
            # Cold link: engines whose plain run stores no tables (the
            # backward early-exit) saturate once so the next edit in the
            # chain has a base to diff against; for the others the cold
            # run itself stores tables under the new hash, warming the
            # *next* link by construction.
            try:
                tables = engine.saturate_tables(
                    self, plain, max_product_nodes=max_nodes
                )
            except BudgetExceededError:
                return cold("saturation budget exceeded")
            if tables is None:
                return cold(
                    "no base tables" if base_tables is None
                    else "delta path not applicable"
                )
        engine.store_tables(self, new_key, tables)
        self.stats["calls"] = int(self.stats["calls"]) + 1
        result = engine.typecheck(self, plain, max_tuple, kwargs, tables=tables)
        if info is not None:
            result.stats["retypecheck_mode"] = "incremental"
            result.stats["retypecheck"] = dict(info, mode="incremental", method=resolved)
        else:
            result.stats["retypecheck_mode"] = "warmed"
            result.stats["retypecheck"] = {"mode": "warmed", "method": resolved}
        if method == "auto":
            result.stats.setdefault("auto_method", resolved)
        return result

    def typecheck_many(
        self,
        transducers: Iterable[TreeTransducer],
        method: str = "auto",
        **kwargs,
    ) -> List[TypecheckResult]:
        """Typecheck a batch of transducers against the warm pair.

        All schema-side work is shared; per-transducer work (reachability,
        fixpoint tables) is still per item.  Errors propagate — callers
        needing per-item error capture should loop over :meth:`typecheck`.
        """
        return [
            self.typecheck(transducer, method=method, **kwargs)
            for transducer in transducers
        ]

    def counterexample(
        self,
        transducer: TreeTransducer,
        method: str = "auto",
        **kwargs,
    ) -> Optional[Tree]:
        """A counterexample input tree, or ``None`` when ``T`` typechecks."""
        return self.typecheck(transducer, method=method, **kwargs).counterexample

    # ------------------------------------------------------------------
    # Sharded forward fixpoint (the service's single-query fan-out)
    # ------------------------------------------------------------------
    def check_keys(
        self, transducer: TreeTransducer, method: str = "forward"
    ) -> List:
        """The shard units of ``T`` under ``method``'s engine (the keys
        the planners partition across workers)."""
        engine = get_engine(method)
        with self._lock:
            return engine.check_keys(self, transducer)

    def compute_shard_tables(
        self,
        transducer: TreeTransducer,
        keys,
        method: str = "forward",
        *,
        max_tuple: Optional[int] = None,
        max_product_nodes: Optional[int] = None,
    ) -> Dict[str, object]:
        """One shard of ``T``'s fixpoint under ``method``'s engine.

        Service workers call this for their partition of
        :meth:`check_keys`; the returned tables are picklable and merge
        with the engine's ``merge_tables``.  This is the single worker
        entry point for every shardable engine — the pool never branches
        on the method.

        When kernel metrics are enabled in this process the shard's own
        kernel counters ride back as ``tables["kernel_counters"]`` — the
        mergers ignore unknown keys, and ``typecheck_sharded`` pops them
        into the explain report's per-shard kernel section.
        """
        engine = get_engine(method)
        with self._lock:
            if not _metrics.kernel_metrics_enabled():
                return engine.compute_tables(
                    self, transducer, keys,
                    max_tuple=max_tuple, max_product_nodes=max_product_nodes,
                )
            with _metrics.registry.delta_scope() as scope:
                tables = engine.compute_tables(
                    self, transducer, keys,
                    max_tuple=max_tuple, max_product_nodes=max_product_nodes,
                )
            tables["kernel_counters"] = _explain.kernel_section(
                scope.counters, scope.gauges
            )
            return tables

    def typecheck_sharded(
        self,
        transducer: TreeTransducer,
        compute_shards,
        shards: int = 2,
        max_tuple: Optional[int] = None,
        planner: str = "cost",
        method: str = "forward",
        explain: bool = False,
        **kwargs,
    ) -> TypecheckResult:
        """Typecheck ``T`` with its fixpoint sharded across workers.

        ``explain=True`` attaches a :class:`repro.obs.explain.QueryReport`
        as ``result.report`` — the shard section carries the plan
        (planner, predicted loads, measured per-shard walls, spread) and,
        when the workers run with kernel metrics enabled, each shard's
        own kernel counters (``shard_kernel``); the top-level kernel
        section covers the serving process (plan + merge + final scan).

        ``method`` picks the engine to shard: ``"forward"`` (default, the
        original fan-out) partitions the hedge-cell check keys,
        ``"backward"`` partitions the per-input-symbol product cells, and
        ``"auto"`` resolves through ``route(T, shardable=True)`` — the
        typecheck ladder without its unshardable rungs, so RE⁺ pairs
        compare the forward and backward costs too.  The resolved engine
        is ``stats["shard_method"]``.  ``compute_shards(partitions,
        method)`` maps a list of key partitions to the list of their
        table snapshots under the resolved ``method`` — the worker pool
        fans the partitions out across processes (each holding a warm
        session for this pair); tests pass a sequential implementation.
        The merged tables then drive the root-check scan and
        counterexample construction here, so the verdict is exactly the
        unsharded engine's — the shards compute complete per-cell least
        fixpoints and the merge unions disjoint cells.  Partitioning never
        affects the verdict, only the balance, so the planner choice is a
        pure scheduling knob.

        ``planner`` selects the partitioner: ``"cost"`` (default)
        LPT-packs keys by their predicted cell cost (forward: tuple seeds
        plus amortized closure DFA sizes, see
        :func:`repro.core.forward.forward_key_costs`; backward:
        ``n_in_states × behavior-monoid``, see
        :func:`repro.backward.backward_key_costs`); ``"profile"``
        LPT-packs by *measured* per-key worker seconds fed back from the
        previous sharded run of an equal-content transducer on this warm
        pair, falling back to the cost model on first sight —
        ``stats["shard_profile"]`` records which source planned the run;
        ``"round-robin"`` is the blind positional split, kept for
        benchmarking the planners against.  Per-shard wall times come back
        in ``result.stats["shard_wall_s"]`` with the planner's predicted
        loads in ``stats["shard_costs"]``, so the balance is observable.
        Sharded runs record each key's *measured* fixpoint seconds
        (``key_elapsed_s``, timed per cell on the worker) for the next
        ``planner="profile"`` plan.
        """
        def run() -> TypecheckResult:
            return self._typecheck_sharded_impl(
                transducer, compute_shards, shards, max_tuple, planner,
                method, **kwargs
            )

        if not explain:
            return run()
        return self._explained(
            "typecheck_sharded", transducer, method, run, shardable=True
        )

    def _typecheck_sharded_impl(
        self,
        transducer: TreeTransducer,
        compute_shards,
        shards: int = 2,
        max_tuple: Optional[int] = None,
        planner: str = "cost",
        method: str = "forward",
        **kwargs,
    ) -> TypecheckResult:
        from repro.core.forward import plan_forward_shards

        with _trace.span("shard_plan", planner=planner) as plan_span:
            method = self.route(transducer, method, max_tuple, shardable=True)[0]
            engine = get_engine(method)
            if not engine.accepts_max_tuple:
                _reject_max_tuple(method, max_tuple)
            keys = self.check_keys(transducer, method)
            shards = max(1, min(int(shards), max(1, len(keys))))
            loads: Optional[List[float]] = None
            plan_costs: Optional[List[float]] = None
            profile_source: Optional[str] = None
            if planner == "round-robin":
                partitions: List[List] = [
                    keys[index::shards] for index in range(shards)
                ]
            elif planner in ("cost", "profile"):
                with self._lock:
                    plan_costs = list(
                        engine.key_costs(self, transducer, keys)
                    )
                    plan_schema = engine.schema(self)
                    if planner == "profile":
                        profile = plan_schema.shard_profile(
                            transducer.content_hash()
                        )
                        if profile is not None:
                            # Measured costs for the keys seen last time;
                            # the model covers any key the profile has not
                            # (the LPT only needs relative weights).
                            plan_costs = [
                                profile.get(key, cost)
                                for key, cost in zip(keys, plan_costs)
                            ]
                            profile_source = "measured"
                        else:
                            profile_source = "model"
                partitions, loads = plan_forward_shards(
                    keys, plan_costs, shards
                )
            else:
                raise ValueError(
                    f"unknown shard planner {planner!r}; "
                    "valid: cost, profile, round-robin"
                )
            plan_span.set(method=method, keys=len(keys), shards=len(partitions))
        engine.validate_kwargs(kwargs)
        snapshots = compute_shards(partitions, method)
        # Per-shard kernel counters ride the snapshots under a key the
        # mergers ignore; pop them before merging so the explain report
        # can attribute work shard by shard.
        shard_kernel = [
            snapshot.pop("kernel_counters", None)
            for snapshot in snapshots
            if isinstance(snapshot, dict)
        ]
        with _trace.span("merge", method=method) as merge_span:
            tables = engine.merge_tables(snapshots)
            shard_wall = tables.pop("shard_elapsed_s", None)
            key_elapsed = tables.pop("key_elapsed_s", None)
            merge_span.set(shards=len(partitions))
            if key_elapsed:
                # Per-key measured fixpoint seconds — previously popped and
                # visible only to the profile planner; now on the span too.
                merge_span.set(
                    key_elapsed_s={
                        str(key): round(float(elapsed), 6)
                        for key, elapsed in key_elapsed.items()
                    }
                )
            with self._lock:
                self.stats["calls"] = int(self.stats["calls"]) + 1
                result = engine.typecheck(
                    self, transducer, max_tuple, kwargs, tables=tables
                )
        result.stats["shards"] = len(partitions)
        result.stats["shard_planner"] = planner
        result.stats["shard_method"] = method
        if profile_source is not None:
            result.stats["shard_profile"] = profile_source
        if loads is not None:
            result.stats["shard_costs"] = list(loads)
        if shard_wall:
            result.stats["shard_wall_s"] = [round(s, 6) for s in shard_wall]
            result.stats["shard_spread"] = round(
                max(shard_wall) / max(min(shard_wall), 1e-9), 3
            )
        if any(shard_kernel):
            result.stats["shard_kernel"] = [
                counters or {} for counters in shard_kernel
            ]
        # Feed the measurement back for the next planner="profile" run of
        # this transducer on this pair: workers time each key's fixpoint
        # individually, so the profile is measured truth per key.
        assigned = set(keys)
        profile_out = {
            key: float(elapsed)
            for key, elapsed in (key_elapsed or {}).items()
            if key in assigned
        }
        if profile_out:
            with self._lock:
                engine.schema(self).record_shard_profile(
                    transducer.content_hash(), profile_out
                )
        return result

    def counterexample_nta(
        self, transducer: TreeTransducer, max_tuple: Optional[int] = None
    ) -> NTA:
        """Lemma 14's counterexample automaton against the warm pair.

        Threads the session's compiled :class:`ForwardSchema` through
        :func:`repro.core.cex_nta.counterexample_nta`, so repeated
        Corollary 38/39 queries reuse the shared fixpoint cells and
        reachability caches instead of building private engines.
        """
        from repro.core.cex_nta import counterexample_nta

        with self._lock:
            din, dout = self._dtd_pair()
            plain, _analysis = self._compiled_transducer(transducer)
            return counterexample_nta(
                plain, din, dout, max_tuple, schema=self.forward_schema()
            )

    def typechecks_almost_always(
        self, transducer: TreeTransducer, max_tuple: Optional[int] = None
    ) -> bool:
        """Corollary 39 against the warm pair (finitely many violations)."""
        from repro.core.almost_always import typechecks_almost_always

        with self._lock:
            din, dout = self._dtd_pair()
            plain, _analysis = self._compiled_transducer(transducer)
            return typechecks_almost_always(
                plain, din, dout, max_tuple, schema=self.forward_schema()
            )

    # ------------------------------------------------------------------
    # Footprint (size-aware registry eviction)
    # ------------------------------------------------------------------
    #: Structural growth below this many bytes never triggers a pickled
    #: re-calibration (jitter floor for freshly compiled sessions).
    CALIBRATION_FLOOR_BYTES = 64 * 1024

    def _structural_bytes(self) -> int:
        """Structural estimate of the *variable* artifact state, in bytes.

        Counts fixpoint-cell nodes/edges/accepted tuples and
        per-transducer snapshots, weighted by per-unit byte constants (see
        the module-level ``_*_BYTES`` weights) — no serialization, so the
        walk is cheap enough for the per-request eviction path.  Cells
        aliased between the shared tables and per-transducer snapshots
        (exports share live objects) are counted once, matching how
        pickling would memo them; tree cells dedupe on their
        insertion-order *list* because ``export_forward_tables`` re-packs
        the shared containers into a fresh 4-tuple per snapshot.
        """
        units = 0
        forward = self._forward
        if forward is not None:
            seen: set = set()
            hedge_entries: List = []
            tree_cells: List = []

            def collect(hedge_map, tree_map) -> None:
                for entry in hedge_map.values():
                    if id(entry) not in seen:
                        seen.add(id(entry))
                        hedge_entries.append(entry)
                for cell in tree_map.values():
                    order = cell[2]
                    if id(order) not in seen:
                        seen.add(id(order))
                        tree_cells.append(cell)

            collect(forward.shared_hedge, forward.shared_tree)
            for tables in forward.transducer_tables.values():
                collect(tables.get("hedge") or {}, tables.get("tree") or {})
            for entry in hedge_entries:
                nodes = (
                    len(entry.engine.parents)
                    if entry.engine is not None
                    else len(entry.accepted)
                )
                units += (
                    _NODE_BYTES * nodes
                    + _EDGE_BYTES * len(entry.int_edges)
                    + _ACCEPT_BYTES * len(entry.int_accepted_list)
                )
            for cell in tree_cells:
                units += _TAU_BYTES * len(cell[2])  # insertion-order list
            units += _SNAPSHOT_BYTES * len(forward.transducer_tables)
        backward = self._backward
        if backward is not None:
            for snapshot in backward.transducer_results.values():
                units += _SNAPSHOT_BYTES
                # Failing verdicts embed a counterexample tree; its node
                # count is bounded by the run's derived pairs, recorded in
                # the snapshot — no tree traversal needed here.
                stats = snapshot.get("stats")
                if snapshot.get("counterexample") is not None and stats:
                    units += _NODE_BYTES * int(stats.get("derived_pairs", 0))
            for tables in backward.transducer_tables.values():
                units += _SNAPSHOT_BYTES
                derived = tables.get("derived") or {}
                units += _ACCEPT_BYTES * sum(
                    len(phis) for phis in derived.values()
                )
        replus = self._replus
        if replus is not None:
            units += _WITNESS_DAG_BYTES * len(replus._witness_dags)
        units += _DELRELAB_BYTES * len(self._delrelab)
        return units

    def footprint_bytes(self) -> int:
        """Approximate resident bytes of this session's compiled artifacts.

        The *base* — schemas, kernels, compiled automata — is measured as
        the pickled size of :meth:`export_artifacts`
        (:func:`repro.kernel.serialize.approx_bytes`, the calibration
        path); *growth* — fixpoint cells, per-transducer tables and result
        snapshots — is tracked by the structural estimate
        (:meth:`_structural_bytes`), so a hot request stream never
        re-pickles the session: the returned value is
        ``base + structural growth since calibration``, updated per call
        from plain container lengths.  The base is re-calibrated (one
        pickle) only when the structural estimate has doubled since the
        last calibration, bounding the residual cost at O(log growth)
        measurements over a session's lifetime; the registry's byte-budget
        eviction runs on these (deliberately approximate) numbers.
        """
        with self._lock:
            structural = self._structural_bytes()
            cached = self._footprint
            if cached is not None and structural <= 2 * max(
                cached[1], self.CALIBRATION_FLOOR_BYTES
            ):
                return cached[0] + max(0, structural - cached[1])
            from repro.kernel import serialize

            base = serialize.approx_bytes(self._export_artifacts_locked())
            self._footprint = (base, structural)
            return base

    # ------------------------------------------------------------------
    # Artifact export / import (repro.cache)
    # ------------------------------------------------------------------
    def export_artifacts(self) -> Dict[str, object]:
        """The picklable schema-side artifacts of this session.

        The heavy lifting is in the schema objects themselves: a DTD carries
        its compiled content NFAs/DFAs, completed DFAs and their interned
        kernels (closure-free by design, see :mod:`repro.kernel.serialize`).
        Since the fixpoint cells went closure-free too (PR 3), the shared
        σ-independent ProductBFS cells and the per-transducer table cache
        ship along: a fresh process resumes with the fixpoints already
        converged, and repeated identical queries are answered from their
        stored tables without running the engine at all.

        Holds the session lock: with the process-global registry a
        concurrent thread may be mid-typecheck on this very session, and
        snapshotting while the shared cells mutate would either crash
        (dict changed size during iteration) or persist a mid-fixpoint
        cell as if it were converged.
        """
        with self._lock:
            return self._export_artifacts_locked()

    def _export_artifacts_locked(self) -> Dict[str, object]:
        # One blob section per persistent engine, in registration order —
        # {"sin", "sout", "forward", "backward", "replus", "delrelab"} for
        # the built-ins, byte-identical to the pre-registry layout (the
        # cache's artifact keys bake the section names in).
        artifacts: Dict[str, object] = {"sin": self.sin, "sout": self.sout}
        for engine in persistent_engines():
            artifacts[engine.name] = engine.export_state(self)
        return artifacts

    @classmethod
    def from_artifacts(
        cls,
        artifacts: Dict[str, object],
        *,
        max_product_nodes: int = DEFAULT_MAX_PRODUCT_NODES,
    ) -> "Session":
        """Rebuild a warm session from :meth:`export_artifacts` output."""
        session = cls(
            artifacts["sin"],
            artifacts["sout"],
            max_product_nodes=max_product_nodes,
            eager=False,
        )
        for engine in persistent_engines():
            data = artifacts.get(engine.name)
            if data is not None:
                engine.restore_state(session, data)
        session.stats["source"] = "artifact-cache"
        return session


# ----------------------------------------------------------------------
# In-process registry
# ----------------------------------------------------------------------
# Process-global, lock-guarded.  Sessions are mutable (shared fixpoint
# cells grow during typechecking) but serialize their own calls, so
# sharing one across threads is safe — and the alternative, the seed's
# thread-local registry, recompiled every pair silently in each new
# thread (a full schema compilation per worker thread in a server).
#
# Eviction is *size-aware*: each resident session reports an approximate
# byte footprint (:meth:`Session.footprint_bytes` — a pickled-size base
# plus a structural cell/edge-count growth estimate) and the registry
# LRU-evicts until the total fits ``_REGISTRY_MAX_BYTES``.  The old
# count-only LRU bound is kept as a backstop, but bytes are what a worker
# pinned to thousands of pairs actually runs out of.  Hit/miss/eviction
# counters and the resident footprints are exposed via
# :func:`registry_info` (and through the service's ``stats`` op).
_REGISTRY: "OrderedDict[Tuple[str, str], Session]" = OrderedDict()
_REGISTRY_LOCK = threading.RLock()
_REGISTRY_LIMIT = 32
_DEFAULT_REGISTRY_BYTES = 256 * 1024 * 1024


def _registry_bytes_from_env() -> Optional[int]:
    """``REPRO_REGISTRY_MAX_BYTES``: an int, or ``none``/``off`` to
    disable byte eviction.  A malformed value falls back to the default —
    an env typo must never make ``import repro`` raise."""
    raw = os.environ.get("REPRO_REGISTRY_MAX_BYTES")
    if raw is None:
        return _DEFAULT_REGISTRY_BYTES
    raw = raw.strip().lower()
    if raw in ("none", "off", ""):
        return None
    try:
        return int(raw)
    except ValueError:
        return _DEFAULT_REGISTRY_BYTES


#: Byte budget of the registry (``REPRO_REGISTRY_MAX_BYTES`` overrides;
#: ``None`` disables byte-based eviction).
_REGISTRY_MAX_BYTES: Optional[int] = _registry_bytes_from_env()
_REGISTRY_STATS: Dict[str, int] = {"hits": 0, "misses": 0, "evictions": 0}


def _registry() -> "OrderedDict[Tuple[str, str], Session]":
    return _REGISTRY


def set_registry_budget(
    max_bytes: Optional[int], max_sessions: Optional[int] = None
) -> None:
    """Configure registry eviction: byte budget (``None`` disables) and,
    optionally, the count backstop.  Service workers call this with the
    pool's ``worker_registry_bytes`` at startup."""
    global _REGISTRY_MAX_BYTES, _REGISTRY_LIMIT
    with _REGISTRY_LOCK:
        _REGISTRY_MAX_BYTES = None if max_bytes is None else int(max_bytes)
        if max_sessions is not None:
            _REGISTRY_LIMIT = int(max_sessions)


def _evict_over_budget(registry: "OrderedDict") -> None:
    """LRU-evict until count and byte budgets hold (lock already held)."""
    while len(registry) > _REGISTRY_LIMIT:
        registry.popitem(last=False)
        _REGISTRY_STATS["evictions"] += 1
        _metrics.counter("repro.session.registry.evictions").inc()
    if _REGISTRY_MAX_BYTES is None:
        return
    total = sum(session.footprint_bytes() for session in registry.values())
    while total > _REGISTRY_MAX_BYTES and len(registry) > 1:
        _key, victim = registry.popitem(last=False)
        total -= victim.footprint_bytes()
        _REGISTRY_STATS["evictions"] += 1
        _metrics.counter("repro.session.registry.evictions").inc()
    _metrics.gauge("repro.session.registry.bytes", policy="sum").set(total)


def session_key(sin: Schema, sout: Schema) -> Tuple[str, str]:
    """The registry/cache key of a schema pair: its two content hashes."""
    return (schema_fingerprint(sin), schema_fingerprint(sout))


def clear_registry() -> None:
    """Drop the process's warm sessions (tests and memory-pressure escape
    hatch).  Counters reset with the contents."""
    with _REGISTRY_LOCK:
        _registry().clear()
        for counter in _REGISTRY_STATS:
            _REGISTRY_STATS[counter] = 0


def registry_info() -> Dict[str, object]:
    """Registry introspection: size, budgets, hit/miss/eviction counters,
    the cached keys in LRU order and the per-pair byte footprints."""
    with _REGISTRY_LOCK:
        registry = _registry()
        pairs = [
            {
                "sin": key[0],
                "sout": key[1],
                "bytes": session.footprint_bytes(),
                "calls": int(session.stats["calls"]),
            }
            for key, session in registry.items()
        ]
        total_bytes = sum(pair["bytes"] for pair in pairs)
        _metrics.gauge("repro.session.registry.bytes", policy="sum").set(total_bytes)
        return {
            "size": len(registry),
            "limit": _REGISTRY_LIMIT,
            "max_bytes": _REGISTRY_MAX_BYTES,
            "total_bytes": total_bytes,
            **dict(_REGISTRY_STATS),
            "keys": list(registry),
            "pairs": pairs,
        }


def compile(  # noqa: A001 - the ISSUE mandates the repro.compile spelling
    sin: Schema,
    sout: Schema,
    *,
    eager: bool = True,
    cache_dir=None,
    reuse: bool = True,
) -> Session:
    """Compile — or transparently reuse — a :class:`Session` for a pair.

    Lookup order: the in-process registry (keyed by schema content
    hashes, LRU-bounded), then the on-disk artifact cache when ``cache_dir``
    is given (see :mod:`repro.cache`), then a fresh build (which is stored
    in both).  ``reuse=False`` bypasses the registry entirely (used by cold
    benchmarks); ``eager=False`` skips :meth:`Session.warm`, deferring all
    compilation to first use — except when ``cache_dir`` is given, which
    implies warming (a cold snapshot would be persisted forever).

    Registry sessions always carry the default node budget: pass
    ``max_product_nodes`` as a ``typecheck`` kwarg to bound (or enlarge) an
    individual call — the warm retry-after-``BudgetExceededError`` pattern.
    A non-default session-wide budget needs a private ``Session(...)``.
    """
    key = session_key(sin, sout)
    session = None
    registry = _registry()
    if reuse:
        with _REGISTRY_LOCK:
            session = registry.get(key)
            if session is not None:
                registry.move_to_end(key)
                session.stats["registry_hits"] = (
                    int(session.stats["registry_hits"]) + 1
                )
                _REGISTRY_STATS["hits"] += 1
                _metrics.counter("repro.session.registry.hits").inc()
            else:
                _REGISTRY_STATS["misses"] += 1
                _metrics.counter("repro.session.registry.misses").inc()
        if session is not None and eager:
            session.warm()
    if session is None and cache_dir is not None:
        from repro import cache as artifact_cache

        session = artifact_cache.load_session(sin, sout, cache_dir=cache_dir)
    if session is None:
        session = Session(sin, sout, eager=eager)
    if cache_dir is not None:
        from repro import cache as artifact_cache

        # Persisting implies compiling: a blob snapshotted before warm()
        # would be permanently cold (ensure_saved never rewrites an
        # existing file), so cache_dir overrides eager=False.  warm() is a
        # no-op on already-compiled (registry- or disk-sourced) sessions.
        session.warm()
        # Publish even registry-sourced sessions: a long-lived process must
        # still leave artifacts behind for the next one.  publish() also
        # *refreshes* the blob (throttled) once the session accumulates
        # per-transducer tables and converged shared cells — the state a
        # fresh process most wants to inherit.
        artifact_cache.publish(session, cache_dir=cache_dir)
    if reuse:
        with _REGISTRY_LOCK:
            # Another thread may have published the pair while this one was
            # compiling; prefer the incumbent so every caller converges on
            # one warm session per pair.
            existing = registry.get(key)
            if existing is not None:
                session = existing
            registry[key] = session
            registry.move_to_end(key)
            if existing is None:
                # Budgets are enforced at *admission*: the sweep reads
                # footprints (structural estimates; at worst one pickled
                # calibration) under the registry lock, which is fine next
                # to a compile but not on the per-request hit path.  A
                # resident session growing past the budget is reclaimed at
                # the next admission.
                _evict_over_budget(registry)
    return session
