"""The ``Engine`` protocol and the process-wide engine registry.

Every typechecking algorithm in the library — the paper's forward
fixpoint (Theorem 15), the RE⁺ grammar route and its two-witness variant
(Theorem 37 / Corollary 38), del-relab lifting (Theorem 20), inverse type
inference (the backward engine), and the brute-force oracle — is one
:class:`Engine` registered here.  The session, the service pool, the
artifact cache, the CLI, and the docs all consult the *registry* instead
of branching on method names, so adding an engine (the ROADMAP's
NTA(NFA) backward lift, macro tree transducers) is one subclass plus one
:func:`register` call:

* ``supports(sin, sout)`` gates applicability per schema pair (``True``
  or a human-readable reason), consulted by the all-engines
  differential suite and the cache hydration path;
* ``routable = True`` marks the engines ``Session.route`` — the one
  ``method="auto"`` routing function — answers a DTD pair with when no
  ``max_tuple`` pins ``forward``: ``replus`` on RE⁺ pairs, ``backward``
  on the rest;
* ``export_state`` / ``restore_state`` and the side-file declarations
  (``side_field``, ``side_strip_fields``) plug the engine into the
  artifact cache: blob sections are keyed by engine name and side files
  are ``<key>.tables.<engine>.<thash>.pkl``.

Engines are stateless singletons: all per-pair compiled state lives in
the owning :class:`~repro.core.session.Session` (keyed by
``(schema_slot, variant)``), so one registry serves every session in the
process.  Heavy engine modules are imported lazily inside the methods
that need them — ``repro.backward`` imports ``repro.core.problem``, so
the registry itself must stay import-light.
"""

from __future__ import annotations

import inspect
from typing import Dict, List, Optional, Tuple, Union

#: Positional/managed parameters of the ``typecheck_*`` functions that are
#: not per-call options: the instance itself, ``max_tuple`` (an explicit
#: ``typecheck`` parameter) and the session-managed compiled-schema
#: context.
NON_OPTION_PARAMS = frozenset(
    {
        "transducer", "din", "dout", "sin", "sout", "ain", "aout",
        "max_tuple", "schema",
    }
)


class Engine:
    """One typechecking algorithm, as the registry sees it.

    Subclasses override the declarations (class attributes) and the hooks
    relevant to their capabilities; the base class implements the generic
    plumbing — memoized kwarg validation, schema-slot access, default
    persistence behavior for engines that opt out.
    """

    #: Registry key; also the ``typecheck(method=...)`` spelling, the
    #: artifact-blob section name, and the side-file name component.
    name: str = ""
    #: README method-table columns (one source of truth for the docs).
    algorithm: str = ""
    applies_to: str = ""
    #: An engine ``Session.route`` picks for a DTD pair without
    #: ``max_tuple`` (routable engines must be complete on every instance
    #: they support).
    routable: bool = False
    #: Accepts the forward engine's ``max_tuple`` escape hatch.
    accepts_max_tuple: bool = False
    #: Compiles a per-pair schema context (``build_schema``); the
    #: brute-force oracle does not.
    has_schema: bool = True
    #: Ships a section in the artifact blob (``export_state``).
    persistent: bool = False
    #: Session slot the compiled schema lives under (``replus-witnesses``
    #: shares the ``replus`` schema).  Defaults to ``name`` in
    #: ``__init_subclass__``.
    schema_slot: str = ""
    #: Payload field of this engine's side files (``None``: the engine
    #: persists no per-transducer side files).
    side_field: Optional[str] = None
    #: Artifact-blob fields relocated to side files by ``publish`` (the
    #: blob ships them empty so it never grows per served transducer).
    side_strip_fields: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if not cls.schema_slot:
            cls.schema_slot = cls.name

    def __init__(self) -> None:
        self._allowed_kwargs: Optional[frozenset] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Engine {self.name}>"

    # ------------------------------------------------------------------
    # Kwarg validation (memoized per engine — one signature inspection
    # per process, not per call)
    # ------------------------------------------------------------------
    def func(self):
        """The underlying ``typecheck_*`` function (imported lazily)."""
        raise NotImplementedError

    def allowed_kwargs(self) -> frozenset:
        """The per-call option names ``typecheck(method=name)`` accepts."""
        allowed = self._allowed_kwargs
        if allowed is None:
            params = inspect.signature(self.func()).parameters
            allowed = frozenset(
                name for name in params if name not in NON_OPTION_PARAMS
            )
            self._allowed_kwargs = allowed
        return allowed

    def validate_kwargs(self, kwargs: Dict[str, object]) -> None:
        """Reject options this engine does not understand, by name."""
        allowed = self.allowed_kwargs()
        for name in kwargs:
            if name not in allowed:
                raise TypeError(
                    f"typecheck(method={self.name!r}) got an unexpected "
                    f"option {name!r}; valid options for this method: "
                    f"{', '.join(sorted(allowed)) or '(none)'}"
                )

    # ------------------------------------------------------------------
    # Obs
    # ------------------------------------------------------------------
    #: Result-stats keys this engine's runs produce that belong in an
    #: explain report's per-engine section (subclasses extend).
    explain_stat_keys: tuple = ("product_nodes", "work", "budget")

    def explain_stats(self, stats) -> dict:
        """The engine-specific slice of a result's stats for the explain
        report (``repro.obs.explain``) — registration is all it takes for
        a new engine's numbers to show up in ``--explain`` output."""
        return {
            key: stats[key] for key in self.explain_stat_keys if key in stats
        }

    def record_table_cache(self, outcome: str) -> None:
        """Count one per-transducer table-cache probe (``hit``/``miss``)
        as ``repro.table_cache.{hits,misses}{engine=<name>}``."""
        from repro.obs import metrics as _metrics

        suffix = "hits" if outcome == "hit" else "misses"
        _metrics.counter(f"repro.table_cache.{suffix}", engine=self.name).inc()

    # ------------------------------------------------------------------
    # Applicability and compilation
    # ------------------------------------------------------------------
    def supports(self, sin, sout) -> Union[bool, str]:
        """``True`` when the engine applies to the schema pair, else a
        human-readable reason (matching the error an explicit call would
        raise)."""
        return True

    def schema_variant(self, kwargs: Dict[str, object]):
        """The schema-slot variant selected by per-call options (e.g. the
        del-relab class-check flag); ``None`` for single-variant engines.
        Must not mutate ``kwargs``."""
        return None

    def build_schema(self, session, variant=None):
        """Compile a fresh schema context for the session's pair."""
        raise NotImplementedError(f"engine {self.name!r} compiles no schema")

    def compile(self, sin, sout, variant=None):
        """A fresh schema context for a bare pair (session-less callers)."""
        from repro.core.session import Session

        return self.schema(Session(sin, sout, eager=False), variant)

    def schema(self, session, variant=None):
        """The session's compiled schema context (built on first use)."""
        return session.engine_schema(self, variant)

    def peek_schema(self, session, variant=None):
        """The session's schema context if already built, else ``None``."""
        return session._schemas.get((self.schema_slot, variant))

    # ------------------------------------------------------------------
    # Typechecking
    # ------------------------------------------------------------------
    def typecheck(self, session, transducer, max_tuple, kwargs):
        """Run the engine against the session's warm pair.

        ``kwargs`` may be mutated (defaults applied, engine-managed
        options popped).
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Persistence (persistent engines)
    # ------------------------------------------------------------------
    def export_state(self, session):
        """The engine's picklable artifact-blob section (``None`` when the
        schema was never built)."""
        return None

    def restore_state(self, session, data) -> None:
        """Hydrate a blob section produced by :meth:`export_state`."""

    def publish_state(self, session) -> Tuple:
        """A cheap fingerprint of the blob-section state worth
        re-publishing for (concatenated across engines by the cache)."""
        return ()

    def side_store(self, session, build: bool = False):
        """``(store, limit)`` of the per-transducer side-file snapshots,
        or ``None``.  ``build=True`` compiles the schema context if
        needed (the cache-hydration path); otherwise an unbuilt schema
        reports ``None`` (the publish path never forces a build)."""
        return None


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_ENGINES: "Dict[str, Engine]" = {}


def register(engine: Engine) -> Engine:
    """Add an engine to the registry (insertion order is significant: the
    docs and ``--method`` list engines in registration order)."""
    if not engine.name:
        raise ValueError("engine must declare a name")
    if engine.name in _ENGINES:
        raise ValueError(f"engine {engine.name!r} is already registered")
    _ENGINES[engine.name] = engine
    return engine


def engines() -> List[Engine]:
    """All registered engines, in registration order."""
    return list(_ENGINES.values())


def engine_names() -> Tuple[str, ...]:
    """The registered method names, in registration order."""
    return tuple(_ENGINES)


def get_engine(name: str) -> Engine:
    """The engine registered under ``name``; ``ValueError`` otherwise."""
    engine = _ENGINES.get(name)
    if engine is None:
        raise ValueError(f"unknown method {name!r}")
    return engine


def routable_engines() -> List[Engine]:
    """Engines ``Session.route`` answers a DTD pair with when no
    ``max_tuple`` pins ``forward``."""
    return [engine for engine in _ENGINES.values() if engine.routable]


def persistent_engines() -> List[Engine]:
    """Engines that ship a section in the artifact blob."""
    return [engine for engine in _ENGINES.values() if engine.persistent]


def method_table_markdown() -> str:
    """The README's method table, rendered from the registry.

    ``tests/core/test_engine_registry.py`` pins the README copy to this
    rendering, so the registry is the single source of truth for the
    documented method surface.
    """
    rows = [
        "| method | algorithm | applies to |",
        "|---|---|---|",
        "| `auto` | routed by `Session.route` on the schema class alone: "
        "RE⁺ pairs → replus; `max_tuple` pins forward on DTDs; other DTD "
        "pairs → backward; del-relab over tree automata → delrelab | "
        "everything below |",
    ]
    for engine in _ENGINES.values():
        rows.append(
            f"| `{engine.name}` | {engine.algorithm} | {engine.applies_to} |"
        )
    rows.append(
        "| *edit re-check* | `session.retypecheck(T', T)`: a plain warm "
        "query of `T'` — the compiled schema and the per-transducer "
        "result caches carry over, so a link back to an already-checked "
        "transducer is a cache hit | any edit of a transducer on a warm "
        "session |"
    )
    return "\n".join(rows)
