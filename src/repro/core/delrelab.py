"""Typechecking T_del-relab w.r.t. DTAc(DFA) — Theorem 20.

Pipeline (exactly the proof of Theorem 20):

1. check ``T ∈ T_del-relab`` (at most one state per rhs);
2. ``T'``: replace every *deleting* (top-level) state ``q`` by ``#(q)`` — a
   non-deleting transducer emitting the placeholder ``#``;
3. ``B_in := T'(L(A_in))`` via the Lemma 19 image construction;
4. ``Ā_out``: complement the complete deterministic output automaton by
   flipping final states;
5. ``B_out``: the #-elimination lift — ``t' ∈ L(B_out) ⟺ γ(t') ∈ L(Ā_out)``;
6. the instance typechecks iff ``L(B_in ∩ B_out) = ∅`` (Fig. A.1 emptiness).

Inputs that the transducer translates to the *empty hedge* (no initial rule
for their root symbol) are counterexamples outside the image automaton; they
are checked separately up front.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.errors import ClassViolationError
from repro.core.problem import TypecheckResult
from repro.schemas.dtd import DTD
from repro.schemas.to_nta import dtd_to_dtac, dtd_to_nta
from repro.strings.nfa import NFA
from repro.transducers.analysis import analyze
from repro.transducers.image import image_nta
from repro.transducers.rhs import RhsState, RhsSym
from repro.transducers.transducer import TreeTransducer
from repro.tree_automata.emptiness import witness_tree
from repro.tree_automata.hash_elim import HASH, eliminate_hashes, hash_elimination_lift
from repro.tree_automata.nta import NTA
from repro.tree_automata.ops import complement_dtac, intersect
from repro.util import fresh_symbol

Schema = Union[DTD, NTA]


def wrap_deleting_states(
    transducer: TreeTransducer, hash_symbol: str = HASH
) -> TreeTransducer:
    """``T'`` of Theorem 20: every top-level state ``q`` becomes ``#(q)``.

    An *initial* rhs that is not exactly one tree (the empty hedge, or two
    or more trees) is additionally rooted under ``#`` so that ``T'`` maps
    every input to a single tree — the image automaton of Lemma 19 accepts
    trees, so a hedge-shaped root output is otherwise unrepresentable.
    ``γ`` splices the wrapper away again, so the elimination semantics the
    lift and the non-tree detector reason about are unchanged.
    """
    new_rules = {}
    for key, rhs in transducer.rules.items():
        wrapped = tuple(
            RhsSym(hash_symbol, (node,)) if isinstance(node, RhsState) else node
            for node in rhs
        )
        if key[0] == transducer.initial and len(wrapped) != 1:
            wrapped = (RhsSym(hash_symbol, wrapped),)
        new_rules[key] = wrapped
    return TreeTransducer(
        transducer.states,
        transducer.alphabet | {hash_symbol},
        transducer.initial,
        new_rules,
    )


def _as_input_nta(schema: Schema) -> NTA:
    return dtd_to_nta(schema) if isinstance(schema, DTD) else schema


def _as_output_dtac(schema: Schema, check: bool) -> NTA:
    if isinstance(schema, DTD):
        return dtd_to_dtac(schema)
    if check:
        from repro.tree_automata.ops import is_bottom_up_deterministic, is_complete

        if not is_bottom_up_deterministic(schema):
            raise ClassViolationError("output automaton is not deterministic")
        if not is_complete(schema):
            raise ClassViolationError("output automaton is not complete")
    return schema


class DelrelabSchema:
    """Per-``(ain, aout)`` compiled artifacts of the Theorem 20 pipeline.

    Owns the schema-side constructions the pipeline otherwise redoes per
    call: the DTD→NTA / DTD→DTAc conversions (with the output-class check
    run exactly once), the productive-state fixpoint of the input
    automaton, and — per placeholder symbol — the complemented output
    automaton with its #-elimination lift.  A warm session shares one
    instance across transducers; standalone calls build a private one.
    """

    def __init__(self, ain: Schema, aout: Schema, check_output_class: bool = True) -> None:
        self.ain = ain
        self.aout = aout
        self.check_output_class = check_output_class
        self.input_nta = _as_input_nta(ain)
        self.output_dtac = _as_output_dtac(aout, check_output_class)
        self._productive = None
        self._complement: Optional[NTA] = None
        self._lift: dict = {}
        self.compiled = False

    def productive_witness(self):
        """``(productive states, witness)`` of the input NTA (memoized)."""
        if self._productive is None:
            from repro.tree_automata.emptiness import productive_states

            self._productive = productive_states(self.input_nta)
        return self._productive

    def lifted_complement(self, hash_symbol: str) -> NTA:
        """``B_out`` of Theorem 20: the #-elimination lift of the
        complemented output automaton.

        The complement is symbol-independent and memoized once; only the
        lift is per placeholder symbol (a transducer whose alphabet forces
        a fresh symbol pays the lift, never the complement again).
        """
        cached = self._lift.get(hash_symbol)
        if cached is None:
            if self._complement is None:
                self._complement = complement_dtac(self.output_dtac, check=False)
            cached = hash_elimination_lift(self._complement, hash_symbol)
            self._lift[hash_symbol] = cached
        if self._productive is not None:
            # Every schema-side artifact of the pipeline now exists; lazy
            # first calls warm the context just like an explicit warm().
            self.compiled = True
        return cached

    def free_hash_symbol(self, *alphabets) -> str:
        """A placeholder symbol foreign to both schema alphabets and every
        extra alphabet given (the lift requires it to be fresh)."""
        hash_symbol = HASH
        while (
            hash_symbol in self.input_nta.alphabet
            or hash_symbol in self.output_dtac.alphabet
            or any(hash_symbol in alphabet for alphabet in alphabets)
        ):
            hash_symbol += "#"
        return hash_symbol

    def warm(self) -> "DelrelabSchema":
        """Eagerly run the conversions, fixpoint and default-# lift."""
        if self.compiled:
            return self
        self.productive_witness()
        self.lifted_complement(self.free_hash_symbol())
        self.compiled = True
        return self


def _roots_without_initial_rule(
    transducer: TreeTransducer, ain: NTA, productive_witness=None
) -> Optional[str]:
    """A root symbol realizable by ``ain`` for which ``T`` has no initial
    rule, or ``None``."""
    from repro.tree_automata.emptiness import productive_states

    if productive_witness is None:
        productive_witness = productive_states(ain)
    productive, witness = productive_witness
    for state in sorted(productive & ain.finals, key=repr):
        symbol, _ = witness[state]
        if (transducer.initial, symbol) not in transducer.rules:
            return symbol
    # Witnesses record one symbol per state; scan all rules for other roots.
    for (state, symbol), nfa in ain.delta.items():
        if state not in ain.finals:
            continue
        if (transducer.initial, symbol) in transducer.rules:
            continue
        if nfa.some_word(productive) is not None:
            return symbol
    return None


def _non_tree_elimination_detector(alphabet, hash_symbol: str) -> NTA:
    """An NTA accepting the trees over ``alphabet`` whose #-elimination is
    *not* a single tree (the empty hedge or a hedge of ≥ 2 trees).

    Such outputs conform to no tree schema, so they are violations that the
    #-elimination lift — which by construction only speaks about single-tree
    eliminations — cannot flag.  States count a subtree's elimination length
    capped at two: a Σ-node always eliminates to one tree; a #-node sums its
    children.  Accepting roots are lengths 0 and ≥ 2.
    """
    states = frozenset({0, 1, 2})
    sigma = frozenset(alphabet) - {hash_symbol}
    delta = {}
    universal = NFA.universal(states)
    for symbol in sigma:
        delta[(1, symbol)] = universal
    # Children sum 0: only 0-length children.
    delta[(0, hash_symbol)] = NFA({"z"}, states, {"z": {0: {"z"}}}, {"z"}, {"z"})
    # Children sum exactly 1: 0* 1 0*.
    delta[(1, hash_symbol)] = NFA(
        {"a", "b"},
        states,
        {"a": {0: {"a"}, 1: {"b"}}, "b": {0: {"b"}}},
        {"a"},
        {"b"},
    )
    # Children sum ≥ 2: saturating counter.
    delta[(2, hash_symbol)] = NFA(
        {"a", "b", "c"},
        states,
        {
            "a": {0: {"a"}, 1: {"b"}, 2: {"c"}},
            "b": {0: {"b"}, 1: {"c"}, 2: {"c"}},
            "c": {0: {"c"}, 1: {"c"}, 2: {"c"}},
        },
        {"a"},
        {"c"},
    )
    return NTA(states, sigma | {hash_symbol}, delta, {0, 2})


def _witness_rooted(ain: NTA, symbol: str) -> Optional:
    """Some tree of ``L(ain)`` whose root is ``symbol``."""
    marker = fresh_symbol("root", [s for s in ain.states if isinstance(s, str)])
    any_state = (marker, "any")
    root_state = (marker, "root")
    wrapped = ain.map_states(lambda q: ("base", q))
    states = set(wrapped.states) | {any_state, root_state}
    delta = dict(wrapped.delta)
    universal = NFA.universal({any_state})
    for a in ain.alphabet:
        delta[(any_state, a)] = universal
    delta[(root_state, symbol)] = universal
    selector = NTA(states, ain.alphabet, delta, {root_state})
    return witness_tree(intersect(wrapped, selector))


def typecheck_delrelab(
    transducer: TreeTransducer,
    ain: Schema,
    aout: Schema,
    check_output_class: bool = True,
    schema: Optional[DelrelabSchema] = None,
) -> TypecheckResult:
    """PTIME typechecking for ``TC[T_del-relab, DTAc(DFA)]`` (Theorem 20).

    ``ain`` may be any NTA (or DTD); ``aout`` must be a DTAc (or a DTD,
    which is completed into one).  On rejection the result carries the
    *output-side* witness: a tree ``t' ∈ T'(L(A_in))`` with
    ``γ(t') ∉ L(A_out)`` (stats key ``"violating_output"``); input-side
    counterexamples for DTD schemas are available via the forward engine.

    Stats key ``"product_states"`` (also an explain stat of the registered
    engine) counts the pair states ``B_in ∩ B_out`` actually reached: the
    product is built on demand and creates a pair only once it turns
    productive, so it is usually far below ``|B_in.states| ×
    |B_out.states|``.

    ``schema`` is a :class:`DelrelabSchema` compiled for exactly these
    schema objects (a warm session passes its own; omitted, one is built
    here — including the class checks, as before).
    """
    analysis = analyze(transducer)
    if not analysis.is_del_relab:
        raise ClassViolationError(
            "transducer has an rhs with more than one state (not T_del-relab)"
        )

    if schema is None:
        schema = DelrelabSchema(ain, aout, check_output_class)
    input_nta = schema.input_nta
    stats = {"input_states": len(input_nta.states)}

    bad_root = _roots_without_initial_rule(
        transducer, input_nta, schema.productive_witness()
    )
    if bad_root is not None:
        witness = _witness_rooted(input_nta, bad_root)
        return TypecheckResult(
            False,
            "delrelab",
            counterexample=witness,
            reason=(
                f"inputs rooted {bad_root!r} translate to the empty hedge "
                "(no initial rule)"
            ),
            stats=stats,
        )

    # Foreign to the transducer's alphabet too (the lift additionally
    # requires freshness w.r.t. the output automaton — the seed raised an
    # InvalidSchemaError when '#' occurred there).
    hash_symbol = schema.free_hash_symbol(transducer.alphabet)
    wrapped = wrap_deleting_states(transducer, hash_symbol)
    b_in = image_nta(input_nta, wrapped)
    b_out = schema.lifted_complement(hash_symbol)
    product = intersect(b_in, b_out)
    stats["product_states"] = len(product.states)

    violating = witness_tree(product)
    reason = "some translated tree violates the output automaton"
    if violating is None:
        # The lift only speaks about single-tree eliminations; a root-deleting
        # rule can also translate an input to the empty hedge or a hedge of
        # several trees — not a tree at all, hence a violation of any tree
        # schema.  Catch those with the non-tree-elimination detector.
        detector = _non_tree_elimination_detector(b_in.alphabet, hash_symbol)
        violating = witness_tree(intersect(b_in, detector))
        reason = "some input translates to a non-tree hedge (root deletion)"
    if violating is None:
        return TypecheckResult(True, "delrelab", stats=stats)
    gamma = eliminate_hashes(violating, hash_symbol)
    stats["violating_output"] = gamma[0] if len(gamma) == 1 else gamma
    return TypecheckResult(
        False,
        "delrelab",
        reason=reason,
        stats=stats,
    )
