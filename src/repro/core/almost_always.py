"""Almost-always typechecking — Corollary 39.

An instance *typechecks almost always* when the set
``{t ∈ L(din) : T(t) ∉ L(dout)}`` of counterexamples is finite (Engelfriet &
Maneth's notion, Section 6).  Since the forward engine materializes the
reachable part of Lemma 14's counterexample NTA and finiteness of NTA(NFA)
languages is decidable in PTIME (Proposition 4(1)), the corollary is
immediate: build the automaton, test finiteness.
"""

from __future__ import annotations

from typing import Optional

from repro.core.cex_nta import counterexample_nta
from repro.core.forward import ForwardSchema
from repro.schemas.dtd import DTD
from repro.transducers.transducer import TreeTransducer
from repro.tree_automata.finiteness import is_finite


def typechecks_almost_always(
    transducer: TreeTransducer,
    din: DTD,
    dout: DTD,
    max_tuple: Optional[int] = None,
    *,
    schema: Optional[ForwardSchema] = None,
) -> bool:
    """Whether only finitely many input trees violate the output schema.

    ``schema`` threads a warm session's compiled
    :class:`~repro.core.forward.ForwardSchema` into the underlying
    counterexample automaton (``session.typechecks_almost_always``), so
    warm Corollary 39 queries skip all schema-side setup.
    """
    automaton = counterexample_nta(
        transducer, din, dout, max_tuple, schema=schema
    )
    return is_finite(automaton)
