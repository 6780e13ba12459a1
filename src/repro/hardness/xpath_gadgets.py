"""XPath hardness gadgets — Lemma 26, Theorem 28(1) and 28(2).

* :func:`theorem28_1_instance` — XPath containment in the presence of a DTD
  reduces to typechecking of non-deleting, bounded-copying transducers with
  XPath calls: the transducer lists the ``x1``-selections of ``P₁'`` then the
  ``x2``-selections of ``P₂'`` under a fresh root, and the output DTD
  ``r → x2* | x1 x1* x2 x2*`` accepts iff "``P₁`` selects something →
  ``P₂`` selects something".
* :func:`theorem28_2_instance` — unary DFA intersection emptiness reduces to
  typechecking of ``T^{XPath{//}}_trac`` transducers (C = K = 1): deep
  ``#``-chains pump out arbitrarily many copies of one ``a``-word, and the
  output DFA runs ``A_i`` on the ``i``-th copy.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.schemas.dtd import DTD
from repro.strings.dfa import DFA
from repro.transducers.rhs import RhsCall, RhsState, RhsSym
from repro.transducers.transducer import TreeTransducer
from repro.xpath.ast import Pattern
from repro.xpath.literals import marker_dtd, rewrite_with_marker
from repro.xpath.semantics import evaluate


def xpath_containment_holds(
    dtd: DTD, p1: Pattern, p2: Pattern, max_nodes: int
) -> bool:
    """Brute-force reference for containment in the presence of a DTD:
    ``f_{P1}(t, ε) ⊆ f_{P2}(t, ε)`` for all ``t ∈ L(dtd)`` up to the node
    budget (used to validate the reduction on small instances)."""
    from repro.trees.generate import enumerate_trees

    for tree in enumerate_trees(dtd, max_nodes):
        if not evaluate(p1, tree) <= evaluate(p2, tree):
            return False
    return True


def theorem28_1_instance(
    dtd: DTD, p1: Pattern, p2: Pattern
) -> Tuple[TreeTransducer, DTD, DTD]:
    """The Theorem 28(1) reduction.

    Patterns are evaluated from the fresh root ``r`` placed above the
    documents of ``dtd`` (enriched with the Lemma 26 markers); the instance
    typechecks iff ``P₁' ⊆ P₂'``-style containment holds: whenever ``P₁``
    selects a node, ``P₂`` selects one too.
    """
    marked = marker_dtd(dtd, "x1", "x2")
    p1_marked = rewrite_with_marker(p1, "x1")
    p2_marked = rewrite_with_marker(p2, "x2")

    sigma = marked.alphabet | {"r"}
    din = DTD(
        {**marked.rules(), "r": marked.start},
        start="r",
        alphabet=sigma,
    )

    # The calls are made at the *original* document root (the child of r),
    # so the patterns are evaluated from the same context node as in the
    # containment problem over ``dtd``.
    rules = {
        ("q0", "r"): (RhsSym("r", (RhsState("qs"),)),),
        ("qs", marked.start): (
            RhsCall("q1", p1_marked),
            RhsCall("q1", p2_marked),
        ),
        ("q1", "x1"): (RhsSym("x1"),),
        ("q1", "x2"): (RhsSym("x2"),),
    }
    transducer = TreeTransducer({"q0", "qs", "q1"}, sigma, "q0", rules)

    dout = DTD(
        {"r": "x2* | x1 x1* x2 x2*"},
        start="r",
        alphabet=sigma,
    )
    return transducer, din, dout


def theorem28_2_instance(
    dfas: Sequence[DFA], symbol: str = "a"
) -> Tuple[TreeTransducer, DTD, DTD]:
    """The Theorem 28(2) reduction from unary DFA intersection emptiness.

    ``din``: ``r → #``, ``# → # | $``, ``$ → a*``; the transducer (C = K = 1,
    with XPath{//} calls) outputs ``r((a^m $)^k)`` for a chain of ``k``
    ``#``-nodes; the instance typechecks iff ``⋂ L(A_i) = ∅``.
    """
    from repro.xpath.parser import parse_pattern

    machines = [dfa.complete({symbol}) for dfa in dfas]
    sigma = {"r", "#", "$", symbol}
    din = DTD({"r": "#", "#": "# | $", "$": f"{symbol}*"}, start="r", alphabet=sigma)

    rules = {
        ("q0", "r"): (RhsSym("r", (RhsCall("q1", parse_pattern(".//#")),)),),
        ("q1", "#"): (RhsCall("q2", parse_pattern(".//$")),),
        ("q2", "$"): (RhsCall("q3", parse_pattern(f".//{symbol}")), RhsSym("$")),
        ("q3", symbol): (RhsSym(symbol),),
    }
    transducer = TreeTransducer({"q0", "q1", "q2", "q3"}, sigma, "q0", rules)

    dout = DTD(
        {"r": _copy_checker(machines, symbol)},
        start="r",
        alphabet=sigma,
    )
    return transducer, din, dout


def _copy_checker(machines: List[DFA], symbol: str) -> DFA:
    """DFA over ``{a, $}``: reject exactly the words with at least ``n``
    ``$``-terminated segments whose ``i``-th segment (i ≤ n) is accepted by
    ``A_i`` (extra segments beyond ``n`` don't rescue the word)."""
    n = len(machines)
    alphabet = {symbol, "$"}
    accept = ("accept",)
    reject = ("reject",)
    states: List = [accept, reject]
    transitions: Dict = {}
    for s in alphabet:
        transitions[(accept, s)] = accept
        transitions[(reject, s)] = reject
    for index, machine in enumerate(machines):
        for q in machine.states:
            state = ("seg", index, q)
            states.append(state)
            transitions[(state, symbol)] = (
                "seg",
                index,
                machine.step(q, symbol),
            )
            if q in machine.finals:
                transitions[(state, "$")] = (
                    ("seg", index + 1, machines[index + 1].initial)
                    if index + 1 < n
                    else reject
                )
            else:
                transitions[(state, "$")] = accept
    initial = ("seg", 0, machines[0].initial)
    finals = {accept} | {("seg", i, q) for i in range(n) for q in machines[i].states}
    return DFA(states, alphabet, transitions, initial, finals)
