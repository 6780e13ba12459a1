"""The built-in engines, ported onto the :class:`~repro.engines.Engine`
protocol.

Registration order is load-bearing (see :func:`repro.engines.register`):
``forward`` before ``backward`` keeps router ties on the paper's engine;
``replus-witnesses`` rides on the ``replus`` schema slot; ``delrelab``
is the only engine applicable to automaton pairs; ``bruteforce`` is the
testing oracle.

Heavy engine modules are imported inside the hooks, never at module
level: ``repro.backward`` imports ``repro.core.problem``, and this
module is imported by ``repro.core.session``.
"""

from __future__ import annotations

from typing import Union

from repro.engines.base import Engine, register
from repro.schemas.dtd import DTD

_NEEDS_DTD = (
    "needs DTD schemas (tree automata are supported by method='delrelab')"
)
_NEEDS_REPLUS = "needs DTD(RE+) schemas on both sides (Theorem 37)"


def _is_dtd_pair(sin, sout) -> bool:
    return isinstance(sin, DTD) and isinstance(sout, DTD)


class ForwardEngineDef(Engine):
    name = "forward"
    algorithm = "Lemma 14 forward accumulation (Theorem 15)"
    applies_to = "`T^{C,K}_trac` + DTDs"
    routable = True
    shardable = True
    incremental = True
    accepts_max_tuple = True
    persistent = True
    side_field = "tables"
    side_strip_fields = ("transducer_tables",)
    # Calibrated wall-clock per forward cost unit (DFA cells of the tuple
    # fixpoint), in milliseconds — measured on the workload families
    # (BENCH_auto.json re-derives it every run): ~33µs per unit, stable
    # across family sizes.
    ms_per_unit = 0.033
    explain_stat_keys = (
        "product_nodes", "reachable_pairs", "violations", "table_cache",
    )

    def func(self):
        from repro.core.forward import typecheck_forward

        return typecheck_forward

    def supports(self, sin, sout) -> Union[bool, str]:
        return True if _is_dtd_pair(sin, sout) else _NEEDS_DTD

    def build_schema(self, session, variant=None):
        from repro.core.forward import ForwardSchema

        return ForwardSchema(*session._dtd_pair())

    def typecheck(self, session, transducer, max_tuple, kwargs, tables=None):
        din, dout = session._dtd_pair()
        kwargs.setdefault("max_product_nodes", session.max_product_nodes)
        if tables is not None:
            kwargs = dict(kwargs, tables=tables)
        return self.func()(
            transducer, din, dout, max_tuple,
            schema=self.schema(session), **kwargs,
        )

    def check_keys(self, session, transducer):
        from repro.core.forward import forward_check_keys

        din, _dout = session._dtd_pair()
        return forward_check_keys(transducer, din, self.schema(session))

    def key_costs(self, session, transducer, keys):
        from repro.core.forward import forward_key_costs

        _din, dout = session._dtd_pair()
        out_alphabet = frozenset(transducer.alphabet | dout.alphabet)
        return list(
            forward_key_costs(keys, self.schema(session), out_alphabet)
        )

    def compute_tables(
        self, session, transducer, keys, *,
        max_tuple=None, max_product_nodes=None,
    ):
        from repro.core.forward import compute_forward_tables

        din, dout = session._dtd_pair()
        return compute_forward_tables(
            transducer, din, dout, keys,
            max_tuple=max_tuple,
            max_product_nodes=max_product_nodes or session.max_product_nodes,
            schema=self.schema(session),
        )

    def merge_tables(self, snapshots):
        from repro.core.forward import merge_forward_tables

        return merge_forward_tables(snapshots)

    def cached_tables(self, session, table_key):
        return self.schema(session).cached_tables(table_key)

    def store_tables(self, session, table_key, tables):
        self.schema(session).store_tables(table_key, tables)

    def incremental_tables(
        self, session, plain, base_plain, base_tables, *,
        max_tuple, max_product_nodes,
    ):
        from repro.core.forward import incremental_forward_tables

        din, dout = session._dtd_pair()
        return incremental_forward_tables(
            plain, base_plain, din, dout, base_tables,
            max_tuple=max_tuple, max_product_nodes=max_product_nodes,
            schema=self.schema(session),
        )

    # The forward cold link stores its own tables (typecheck_forward
    # snapshots successful runs), so there is no saturate_tables: a cold
    # link warms the *next* edit by construction.

    def export_state(self, session):
        ctx = self.peek_schema(session)
        if ctx is None:
            return None
        return {
            "usable_cache": dict(ctx.usable_cache),
            "word_cache": dict(ctx.word_cache),
            "shared_hedge": dict(ctx.shared_hedge),
            "shared_tree": dict(ctx.shared_tree),
            "transducer_tables": dict(ctx.transducer_tables),
            "shard_profiles": dict(ctx.shard_profiles),
            "compiled": ctx.compiled,
        }

    def restore_state(self, session, data):
        ctx = self.schema(session)
        ctx.usable_cache.update(data["usable_cache"])
        ctx.word_cache.update(data["word_cache"])
        ctx.shared_hedge.update(data.get("shared_hedge") or {})
        ctx.shared_tree.update(data.get("shared_tree") or {})
        ctx.transducer_tables.update(data.get("transducer_tables") or {})
        ctx.shard_profiles.update(data.get("shard_profiles") or {})
        ctx.compiled = data["compiled"]

    def publish_state(self, session):
        ctx = self.peek_schema(session)
        if ctx is None:
            return (0, 0, 0)
        return (
            len(ctx.shared_hedge),
            len(ctx.shared_tree),
            ctx.shard_profile_version,
        )

    def side_store(self, session, build=False):
        ctx = self.schema(session) if build else self.peek_schema(session)
        if ctx is None:
            return None
        return ctx.transducer_tables, ctx.transducer_table_limit


class BackwardEngineDef(Engine):
    name = "backward"
    algorithm = (
        "inverse type inference: pre-image of the bad-output complement, "
        "emptiness vs `din`"
    )
    applies_to = "**any** deterministic top-down transducer + DTDs"
    routable = True
    shardable = True
    incremental = True
    persistent = True
    side_field = "result"
    side_strip_fields = ("transducer_results",)
    # ~0.2µs per backward product cell (input content-DFA states ×
    # behavior monoid) — see the forward constant above.
    ms_per_unit = 0.0002
    explain_stat_keys = (
        "product_nodes", "derived_pairs", "behaviors", "tracked_sigmas",
        "tracked_states", "witness_fallback", "table_cache",
    )

    def func(self):
        from repro.backward import typecheck_backward

        return typecheck_backward

    def supports(self, sin, sout) -> Union[bool, str]:
        return True if _is_dtd_pair(sin, sout) else _NEEDS_DTD

    def build_schema(self, session, variant=None):
        from repro.backward import BackwardSchema

        return BackwardSchema(*session._dtd_pair())

    def typecheck(self, session, transducer, max_tuple, kwargs, tables=None):
        din, dout = session._dtd_pair()
        kwargs.setdefault("max_product_nodes", session.max_product_nodes)
        if tables is not None:
            kwargs = dict(kwargs, tables=tables)
        plain, _analysis = session._compiled_transducer(transducer)
        return self.func()(
            plain, din, dout, schema=self.schema(session), **kwargs
        )

    def check_keys(self, session, transducer):
        from repro.backward import backward_check_keys

        din, _dout = session._dtd_pair()
        plain, _analysis = session._compiled_transducer(transducer)
        return backward_check_keys(plain, din, self.schema(session))

    def key_costs(self, session, transducer, keys):
        from repro.backward import backward_key_costs

        plain, _analysis = session._compiled_transducer(transducer)
        return list(backward_key_costs(keys, self.schema(session), plain))

    def compute_tables(
        self, session, transducer, keys, *,
        max_tuple=None, max_product_nodes=None,
    ):
        from repro.backward import compute_backward_tables

        if max_tuple is not None:
            raise TypeError(
                "option 'max_tuple' is not supported by method 'backward' "
                "(it bounds the forward engine's behavior tuples)"
            )
        din, dout = session._dtd_pair()
        plain, _analysis = session._compiled_transducer(transducer)
        return compute_backward_tables(
            plain, din, dout, keys,
            max_product_nodes=max_product_nodes or session.max_product_nodes,
            schema=self.schema(session),
        )

    def merge_tables(self, snapshots):
        from repro.backward import merge_backward_tables

        return merge_backward_tables(snapshots)

    def cached_tables(self, session, table_key):
        return self.schema(session).cached_tables(table_key)

    def store_tables(self, session, table_key, tables):
        self.schema(session).store_tables(table_key, tables)

    def incremental_tables(
        self, session, plain, base_plain, base_tables, *,
        max_tuple, max_product_nodes,
    ):
        from repro.backward.engine import incremental_backward_tables

        din, dout = session._dtd_pair()
        return incremental_backward_tables(
            plain, base_plain, din, dout, base_tables,
            max_product_nodes=max_product_nodes,
            schema=self.schema(session),
        )

    def saturate_tables(self, session, plain, *, max_product_nodes):
        # The plain backward run is early-exit and stores no tables, so a
        # cold chain link saturates once to give the next edit a base.
        from repro.backward.engine import (
            backward_check_keys,
            compute_backward_tables,
        )

        din, dout = session._dtd_pair()
        schema = self.schema(session)
        return compute_backward_tables(
            plain, din, dout,
            backward_check_keys(plain, din, schema),
            max_product_nodes=max_product_nodes, schema=schema,
        )

    def export_state(self, session):
        ctx = self.peek_schema(session)
        if ctx is None:
            return None
        return {
            "transducer_results": dict(ctx.transducer_results),
            "shard_profiles": dict(ctx.shard_profiles),
            "compiled": ctx.compiled,
        }

    def restore_state(self, session, data):
        ctx = self.schema(session)
        ctx.transducer_results.update(data.get("transducer_results") or {})
        ctx.shard_profiles.update(data.get("shard_profiles") or {})
        ctx.compiled = data["compiled"]

    def publish_state(self, session):
        ctx = self.peek_schema(session)
        return (0,) if ctx is None else (ctx.shard_profile_version,)

    def side_store(self, session, build=False):
        ctx = self.schema(session) if build else self.peek_schema(session)
        if ctx is None:
            return None
        return ctx.transducer_results, ctx.transducer_result_limit


class ReplusEngineDef(Engine):
    name = "replus"
    algorithm = "the Section 5 grammar algorithm (Theorem 37)"
    applies_to = "DTD(RE⁺), any transducer"
    persistent = True
    explain_stat_keys = ("grammars",)

    def func(self):
        from repro.core.replus import typecheck_replus

        return typecheck_replus

    def supports(self, sin, sout) -> Union[bool, str]:
        if not _is_dtd_pair(sin, sout):
            return _NEEDS_DTD
        if sin.kind != "RE+" or sout.kind != "RE+":
            return _NEEDS_REPLUS
        return True

    def build_schema(self, session, variant=None):
        from repro.core.replus import ReplusSchema

        return ReplusSchema(*session._dtd_pair())

    def typecheck(self, session, transducer, max_tuple, kwargs, tables=None):
        din, dout = session._dtd_pair()
        return self.func()(
            transducer, din, dout, schema=self.schema(session), **kwargs
        )

    def export_state(self, session):
        ctx = self.peek_schema(session)
        if ctx is None:
            return None
        return {
            "witness_dags": dict(ctx._witness_dags),
            "compiled": ctx.compiled,
        }

    def restore_state(self, session, data):
        ctx = self.schema(session)
        ctx._witness_dags.update(data["witness_dags"])
        ctx.compiled = data["compiled"]


class ReplusWitnessesEngineDef(ReplusEngineDef):
    name = "replus-witnesses"
    algorithm = "the §6 two-witness DAG algorithm (Corollary 38)"
    schema_slot = "replus"  # shares the compiled ReplusSchema
    persistent = False  # the replus engine owns the shared blob section

    def func(self):
        from repro.core.replus import typecheck_replus_witnesses

        return typecheck_replus_witnesses


class DelrelabEngineDef(Engine):
    name = "delrelab"
    algorithm = "the Theorem 20 image/complement pipeline"
    applies_to = "`T_del-relab` + DTAc or DTDs"
    persistent = True
    explain_stat_keys = ("product_states", "violating_output")
    no_incremental_reason = (
        "engine has no incremental tables (Theorem 20 recomputes the "
        "image automaton per transducer)"
    )

    def func(self):
        from repro.core.delrelab import typecheck_delrelab

        return typecheck_delrelab

    def schema_variant(self, kwargs):
        return bool(kwargs.get("check_output_class", True))

    def schema(self, session, variant=None):
        # The default variant is the class-checked one, so ``Session.warm``
        # (no options) and a default typecheck share one compiled context.
        return super().schema(session, True if variant is None else variant)

    def build_schema(self, session, variant=None):
        from repro.core.delrelab import DelrelabSchema

        return DelrelabSchema(session.sin, session.sout, bool(variant))

    def typecheck(self, session, transducer, max_tuple, kwargs, tables=None):
        check = bool(kwargs.pop("check_output_class", True))
        return self.func()(
            transducer, session.sin, session.sout,
            schema=self.schema(session, check), **kwargs,
        )

    def export_state(self, session):
        return {
            flag: {
                "input_nta": ctx.input_nta,
                "output_dtac": ctx.output_dtac,
                "productive": ctx._productive,
                "complement": ctx._complement,
                "lift": dict(ctx._lift),
                "compiled": ctx.compiled,
            }
            for flag, ctx in session._delrelab.items()
        }

    def restore_state(self, session, data):
        from repro.core.delrelab import DelrelabSchema

        for flag, section in (data or {}).items():
            ctx = DelrelabSchema.__new__(DelrelabSchema)
            ctx.ain = session.sin
            ctx.aout = session.sout
            ctx.check_output_class = flag
            ctx.input_nta = section["input_nta"]
            ctx.output_dtac = section["output_dtac"]
            ctx._productive = section["productive"]
            ctx._complement = section.get("complement")
            ctx._lift = dict(section["lift"])
            ctx.compiled = section["compiled"]
            session._schemas[(self.schema_slot, flag)] = ctx


class BruteforceEngineDef(Engine):
    name = "bruteforce"
    algorithm = "enumeration oracle up to a node budget"
    applies_to = "tiny instances (testing)"
    has_schema = False
    no_incremental_reason = "engine compiles no schema artifacts"

    def func(self):
        from repro.core.bruteforce import typecheck_bruteforce

        return typecheck_bruteforce

    def supports(self, sin, sout) -> Union[bool, str]:
        return True if _is_dtd_pair(sin, sout) else _NEEDS_DTD

    def typecheck(self, session, transducer, max_tuple, kwargs, tables=None):
        din, dout = session._dtd_pair()
        return self.func()(transducer, din, dout, **kwargs)


FORWARD = register(ForwardEngineDef())
BACKWARD = register(BackwardEngineDef())
REPLUS = register(ReplusEngineDef())
REPLUS_WITNESSES = register(ReplusWitnessesEngineDef())
DELRELAB = register(DelrelabEngineDef())
BRUTEFORCE = register(BruteforceEngineDef())
