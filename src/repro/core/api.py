"""One-call typechecking API with algorithm selection.

``typecheck(T, Sin, Sout)`` picks the engine by schema class alone
(:meth:`repro.core.session.Session.route`):

* DTD(RE⁺) schemas → the Section 5 grammar algorithm (any transducer);
* an explicit ``max_tuple`` on DTDs → the Lemma 14 forward engine, the
  paper's (possibly exponential) best-effort run;
* any other DTD pair → the backward engine: inverse type inference is
  complete for every deterministic top-down transducer over DTDs
  (budget-guarded), in ``T_trac`` or not;
* ``T_del-relab`` + tree-automaton schemas → the Theorem 20 pipeline;
* anything else (other transducers over tree automata) → a
  :class:`~repro.errors.ClassViolationError` explaining which frontier
  was crossed (that is the paper's message: outside these classes,
  complete typechecking is provably intractable).

``result.stats["auto_method"]`` records the routed engine.

Since the compiled-session redesign this module is a thin facade over
:mod:`repro.core.session`: every call resolves the schema pair through the
in-process registry (keyed by content hashes), so repeated calls against
equal schemas — even freshly constructed ones — transparently reuse a warm
:class:`~repro.core.session.Session` and skip all schema compilation.  Hold
a session yourself (``repro.compile(sin, sout)``) when checking many
transducers against one pair.

Unknown per-call options now raise a clear :class:`TypeError` naming the
offending option instead of being forwarded blindly into the per-method
functions.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.core.problem import TypecheckResult
from repro.core.session import compile as compile_session
from repro.schemas.dtd import DTD
from repro.transducers.transducer import TreeTransducer
from repro.tree_automata.nta import NTA

Schema = Union[DTD, NTA]


def typecheck(
    transducer: TreeTransducer,
    sin: Schema,
    sout: Schema,
    method: str = "auto",
    max_tuple: Optional[int] = None,
    **kwargs,
) -> TypecheckResult:
    """Decide whether ``T(t) ∈ Sout`` for every ``t ∈ Sin`` (Definition 9).

    ``method``: ``"auto"`` (default), ``"forward"``, ``"backward"`` (the
    inverse-type-inference engine — complete for any deterministic
    top-down transducer over DTDs), ``"replus"``, ``"replus-witnesses"``,
    ``"delrelab"`` or ``"bruteforce"``.

    The signature and result semantics are unchanged from the seed API; the
    call is now served by a registry-cached compiled session, so repeated
    calls with equal schemas skip schema-side setup.
    """
    # A per-call ``max_product_nodes`` kwarg stays in ``kwargs`` and is
    # forwarded below — it must never become the registry-shared session's
    # default, or one aborted low-budget call would poison every later
    # plain call on the same schemas.
    session = compile_session(sin, sout, eager=False)
    return session.typecheck(transducer, method=method, max_tuple=max_tuple, **kwargs)
