"""The counterexample NTA of Lemma 14 — reachable part.

Lemma 14 constructs an NTA ``B`` with
``L(B) = {t ∈ L(din) : T(t) ∉ L(dout)}`` whose explicit state space is
astronomically large (``O(|Σ| |Q_T|^M |dout|^{2M})``).  This module builds
the *reachable* part of ``B`` from the tables of the forward engine, giving
the same language with only the states that matter:

* ``("plain", a)`` — a valid subtree rooted ``a`` (the ``Σ`` states);
* ``("spine", q, a)`` — a valid subtree containing the violating node, whose
  root is processed in state ``q`` (the ``(a, q)`` states);
* ``("check", q, a)`` — the violating node itself (the ``(a, q, check)``
  states);
* ``("cfg", σ, b, P, τ)`` — the guessed-behavior states (the paper's
  ``(a, (q₁, ℓ₁, r₁), …)`` tuples): a valid subtree rooted ``b`` realizing
  behavior tuple τ against ``A_σ``.

With this automaton, Proposition 4 delivers everything Section 6 promises:
emptiness re-decides typechecking (a strong internal cross-check), witness
generation yields counterexamples (Corollary 38), and finiteness decides
almost-always typechecking (Corollary 39).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.forward import ForwardEngine, ForwardSchema, _chain_top_level
from repro.core.reachability import reachable_pairs
from repro.schemas.dtd import DTD
from repro.strings.nfa import NFA
from repro.transducers.rhs import RhsSym, all_states, iter_rhs_nodes, top_decomposition, top_states
from repro.transducers.transducer import TreeTransducer
from repro.tree_automata.nta import NTA


def counterexample_nta(
    transducer: TreeTransducer,
    din: DTD,
    dout: DTD,
    max_tuple: Optional[int] = None,
    *,
    schema: Optional[ForwardSchema] = None,
) -> NTA:
    """Build (the reachable part of) Lemma 14's counterexample automaton.

    ``L(result) = {t ∈ L(din) : T(t) ∉ L(dout)}``.  Root-level failures (no
    initial rule / wrong output root label) make every valid input a
    counterexample; the automaton then reduces to the input DTD's automaton.

    ``schema`` is a :class:`~repro.core.forward.ForwardSchema` compiled for
    exactly these DTD objects — a warm :class:`~repro.core.session.Session`
    passes its own (``session.counterexample_nta``), so the forward engine
    reuses the shared σ-independent fixpoint cells and reachability caches
    instead of building a private engine from scratch.
    """
    if transducer.uses_calls():
        from repro.xpath.compile import compile_calls

        transducer = compile_calls(transducer)

    if schema is None:
        schema = ForwardSchema(din, dout)

    productive = din.productive_symbols()
    # Plain states exist for every symbol; unproductive ones simply cannot
    # head an accepting run (their content can never complete below).
    plain = {("plain", a) for a in din.alphabet}

    def plain_nfa(symbol: str) -> NFA:
        return din.content_nfa(symbol).map_symbols(lambda c: ("plain", c))

    # ------------------------------------------------------------------
    # Degenerate cases: every valid input is a counterexample.
    # ------------------------------------------------------------------
    def whole_language_nta() -> NTA:
        states = set(plain)
        delta = {}
        for a in productive:
            nfa = plain_nfa(a)
            delta[(("plain", a), a)] = nfa.with_alphabet(states)
        finals = {("plain", din.start)} if din.start in productive else set()
        return NTA(states, din.alphabet, delta, finals & states)

    if din.start not in productive:
        return NTA({("plain", "∅")}, din.alphabet, {}, set())

    root_rule = transducer.rules.get((transducer.initial, din.start))
    if root_rule is None:
        return whole_language_nta()
    if len(root_rule) != 1 or not isinstance(root_rule[0], RhsSym):
        from repro.errors import ClassViolationError

        raise ClassViolationError(
            "the rule for the input root symbol must produce a single "
            "Σ-rooted tree (Definition 5)"
        )
    if root_rule[0].label != dout.start:
        return whole_language_nta()

    # ------------------------------------------------------------------
    # Forward tables.
    # ------------------------------------------------------------------
    engine = ForwardEngine(transducer, din, dout, max_tuple, schema=schema)
    pairs = reachable_pairs(
        transducer, din,
        usable_cache=schema.usable_cache, word_cache=schema.word_cache,
    )
    checks = []
    for (q, a) in pairs:
        rhs = transducer.rules.get((q, a))
        if rhs is None:
            continue
        for path, node in iter_rhs_nodes(rhs):
            if not isinstance(node, RhsSym):
                continue
            key = engine.request_hedge(node.label, a, top_states(node.children))
            checks.append(((q, a), path, node, key))
    try:
        engine.run()
    except BaseException:
        # Same abort hygiene as typecheck_forward: a mid-fixpoint abort
        # would leave shared cells with counters ahead of pushed edges.
        schema.reset_shared()
        raise

    # ------------------------------------------------------------------
    # States.
    # ------------------------------------------------------------------
    states: Set = set(plain)
    for (q, a) in pairs:
        states.add(("spine", q, a))
        states.add(("check", q, a))
    cfg_states: Set = set()
    for (sigma, b, P), table in engine.tree_vals.items():
        for tau in table:
            cfg_states.add(("cfg", sigma, b, P, tau))
    states |= cfg_states
    state_set = frozenset(states)

    delta: Dict[Tuple, NFA] = {}

    # plain states: the input DTD itself.
    for a in productive:
        delta[(("plain", a), a)] = plain_nfa(a).with_alphabet(state_set)

    # cfg states: the hedge product graphs, with finals chosen per τ.
    # (Cell keys come from the engine and are canonical: σ is None for
    # cells with an empty behavior tuple, which the kernel shares across
    # output symbols — the state names below just follow the keys.)
    for (sigma, b, P), table in engine.tree_vals.items():
        if not table:
            continue
        deferred = engine.deferred_tuple(P, b)
        hedge_key = engine.key_for(sigma, b, deferred)
        entry = engine.hedge_vals[hedge_key]
        dfa_in = din.content_dfa(b)
        graph_states = set(entry.nodes)
        transitions: Dict = {}
        child_sigma = hedge_key[0]
        for (src, c, tau_c, dst) in entry.edges:
            transitions.setdefault(src, {}).setdefault(
                ("cfg", child_sigma, c, deferred, tau_c), set()
            ).add(dst)
        taus_by_pi: Dict[Tuple, Set] = {}
        for pi_flat, pi in entry.int_accepted_list:
            taus_by_pi[pi] = engine.assembled_taus(sigma, b, P, pi_flat)
        for tau in table:
            finals = {
                node
                for node in graph_states
                if node[0] in dfa_in.finals and tau in taus_by_pi.get(node[1], ())
            }
            delta[(("cfg", sigma, b, P, tau), b)] = NFA(
                graph_states,
                state_set,
                transitions,
                entry.seeds,
                finals,
            )

    # check states: union over the rule's rhs nodes of the hedge graphs with
    # "bad final chain" acceptance.
    check_parts: Dict[Tuple[str, str], List[NFA]] = {}
    for (q, a), path, node, key in checks:
        sigma = node.label
        entry = engine.hedge_vals[key]
        dfa = engine.out_dfa(sigma)
        segments = top_decomposition(node.children)
        P = top_states(node.children)
        bad = {
            graph_node
            for graph_node in entry.nodes
            if graph_node[0] in din.content_dfa(a).finals
            and (
                lambda final: final is not None and final not in dfa.finals
            )(_chain_top_level(dfa, segments, graph_node[1]))
        }
        if not bad:
            continue
        transitions = {}
        cfg_sigma = engine.key_for(sigma, a, P)[0]
        for (src, c, tau_c, dst) in entry.edges:
            transitions.setdefault(src, {}).setdefault(
                ("cfg", cfg_sigma, c, P, tau_c), set()
            ).add(dst)
        check_parts.setdefault((q, a), []).append(
            NFA(set(entry.nodes), state_set, transitions, entry.seeds, bad)
        )
    for (q, a), parts in check_parts.items():
        union = parts[0]
        for extra in parts[1:]:
            union = union.union(extra)
        delta[(("check", q, a), a)] = union.with_alphabet(state_set)

    # spine states: one child carries the spine/check, the rest are plain.
    for (q, a) in pairs:
        rhs = transducer.rules.get((q, a))
        if rhs is None:
            continue
        inner_states = set(all_states(rhs))
        base = din.content_nfa(a)
        marked_states = {(s, flag) for s in base.states for flag in (0, 1)}
        transitions: Dict = {}
        for src, row in base.transitions.items():
            for c, targets in row.items():
                for tgt in targets:
                    # plain child: flag preserved.
                    for flag in (0, 1):
                        transitions.setdefault((src, flag), {}).setdefault(
                            ("plain", c), set()
                        ).add((tgt, flag))
                    # spine/check child: flag 0 -> 1.
                    for q2 in inner_states:
                        if (q2, c) not in pairs:
                            continue
                        for kind in ("spine", "check"):
                            transitions.setdefault((src, 0), {}).setdefault(
                                (kind, q2, c), set()
                            ).add((tgt, 1))
        delta[(("spine", q, a), a)] = NFA(
            marked_states,
            state_set,
            transitions,
            {(s, 0) for s in base.initial},
            {(s, 1) for s in base.finals},
        )

    finals = {
        ("spine", transducer.initial, din.start),
        ("check", transducer.initial, din.start),
    }
    return NTA(state_set, din.alphabet, delta, finals & state_set)
