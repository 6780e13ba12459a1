"""Typechecking w.r.t. DTD(RE⁺) — Section 5 (Theorems 30 and 37).

Two complete algorithms for arbitrary transducers (unbounded copying *and*
deletion):

* :func:`typecheck_replus` — the grammar route: for every reachable pair
  ``(q, a)`` and rhs node ``u`` construct the extended context-free grammar
  ``G_{q,a,u}`` with ``L_{q,a,u} ⊆ L(G_{q,a,u})`` and, by Theorem 30,
  ``L(G_{q,a,u}) ⊆ L(dout(σ)) ⟺ L_{q,a,u} ⊆ L(dout(σ))``; each inclusion is
  a PTIME CFG-in-DFA test;
* :func:`typecheck_replus_witnesses` — the §6 two-witness route: the
  instance typechecks iff both ``T(t_min)`` and ``T(t_vast)`` conform, with
  both witnesses processed as DAGs so the algorithm stays polynomial despite
  their exponential unfoldings.

Counterexamples (Corollary 38): the two-witness route *is* the
counterexample generator — whenever the grammar route rejects, ``t_min`` or
``t_vast`` is a concrete counterexample.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import ClassViolationError
from repro.core.problem import TypecheckResult
from repro.core.reachability import reachable_pairs
from repro.schemas.dtd import DTD
from repro.schemas.witnesses import t_min_dag, t_vast_dag
from repro.strings.cfg import ECFG, ECFGAtom, nt, t as terminal
from repro.strings.replus import REPlus
from repro.transducers.rhs import RhsSym, iter_rhs_nodes, top_decomposition, top_states
from repro.transducers.transducer import TreeTransducer
from repro.trees.dag import DagTree, TransferTable, distinct_tree_nodes, unfold_tree
from repro.trees.tree import Tree


def _require_replus(dtd: DTD, name: str) -> None:
    if dtd.kind != "RE+":
        raise ClassViolationError(
            f"{name} is a DTD({dtd.kind}); Section 5 needs DTD(RE+)"
        )


class ReplusSchema:
    """Per-``(din, dout)`` compiled artifacts for the Section 5 algorithms.

    Validates the RE⁺ class once and owns the schema-only state both routes
    keep recomputing per call: the reachability caches, the RE⁺ views and
    output content DFAs, and the §6 witness DAGs ``t_min``/``t_vast``
    (functions of the input DTD alone).  A warm session shares one instance
    across every transducer checked against the pair; standalone calls
    build a private one, so one-shot behavior is unchanged.
    """

    def __init__(self, din: DTD, dout: DTD) -> None:
        _require_replus(din, "input schema")
        _require_replus(dout, "output schema")
        self.din = din
        self.dout = dout
        self.usable_cache: dict = {}
        self.word_cache: dict = {}
        self._witness_dags: dict = {}
        self.compiled = False

    def witness_dag(self, name: str) -> DagTree:
        """The DAG-compressed §6 witness (``"t_min"`` or ``"t_vast"``)."""
        dag = self._witness_dags.get(name)
        if dag is None:
            builder = t_min_dag if name == "t_min" else t_vast_dag
            dag = builder(self.din)
            self._witness_dags[name] = dag
        return dag

    def warm(self) -> "ReplusSchema":
        """Eagerly compile the RE⁺ views and the output content DFAs.

        The witness DAGs are built on first use: the grammar route reads
        them only to attach a counterexample, and no witness exists for
        an empty input language.
        """
        if self.compiled:
            return self
        for symbol in sorted(self.din.alphabet, key=repr):
            self.din.content_replus(symbol)
        for symbol in sorted(self.dout.alphabet, key=repr):
            self.dout.content_dfa(symbol)
        self.compiled = True
        return self


def _expand_factors(expr: REPlus, state: str) -> List[ECFGAtom]:
    """Atoms ``⟨state, b₁⟩^{α₁} ⋯ ⟨state, b_m⟩^{α_m}`` for one rhs state."""
    atoms: List[ECFGAtom] = []
    for factor in expr.factors:
        head = ("pair", state, factor.symbol)
        atoms.extend([nt(head)] * (factor.count - 1))
        atoms.append(nt(head, plus=not factor.exact))
    return atoms


def build_grammar(
    transducer: TreeTransducer,
    din: DTD,
    q: str,
    a: str,
    u_path: Tuple[int, ...],
) -> ECFG:
    """The extended CFG ``G_{q,a,u}`` of Section 5."""
    from repro.transducers.rhs import node_at

    node = node_at(transducer.rules[(q, a)], u_path)
    assert isinstance(node, RhsSym)
    segments = top_decomposition(node.children)
    states = top_states(node.children)
    e_in = din.content_replus(a)

    rules = {}
    start = ("start", q, a, u_path)
    body: List[ECFGAtom] = [terminal(s) for s in segments[0]]
    for index, state in enumerate(states):
        body.extend(_expand_factors(e_in, state))
        body.extend(terminal(s) for s in segments[index + 1])
    rules[start] = [body]

    # Pair nonterminals ⟨p, b⟩ — the language {top(T^p(t)) | t ∈ L(din, b)}.
    pending = {atom.value for atom in body if not atom.is_terminal}
    while pending:
        head = pending.pop()
        if head in rules:
            continue
        _, p, b = head
        expr = din.content_replus(b)
        rhs = transducer.rules.get((p, b))
        if rhs is None:
            rules[head] = [[]]
            continue
        segs = top_decomposition(rhs)
        tops = top_states(rhs)
        pair_body: List[ECFGAtom] = [terminal(s) for s in segs[0]]
        for index, p2 in enumerate(tops):
            pair_body.extend(_expand_factors(expr, p2))
            pair_body.extend(terminal(s) for s in segs[index + 1])
        rules[head] = [pair_body]
        for atom in pair_body:
            if not atom.is_terminal and atom.value not in rules:
                pending.add(atom.value)
    return ECFG(rules, start)


def validate_output_dag(dout: DTD, dag: DagTree) -> bool:
    """Whether the unfolding of ``dag`` satisfies ``dout`` — in DAG time."""
    if dag.label != dout.start:
        return False
    tables = {}
    for node in distinct_tree_nodes(dag):
        table = tables.get(node.label)
        if table is None:
            table = TransferTable(
                dout.content_dfa(node.label).complete(dout.alphabet | {node.label})
            )
            tables[node.label] = table
        if not table.accepts_top(node.children):
            return False
    return True


def _root_failure(
    transducer: TreeTransducer, din: DTD, dout: DTD, algorithm: str
) -> Optional[TypecheckResult]:
    """Shared root-level checks; ``None`` when the root is fine."""
    from repro.trees.generate import minimal_tree

    if din.is_empty():
        return TypecheckResult(True, algorithm, reason="input schema is empty")
    rule = transducer.rules.get((transducer.initial, din.start))
    if rule is not None and len(rule) == 1 and isinstance(rule[0], RhsSym):
        if rule[0].label == dout.start:
            return None  # root is fine; skip witness construction
    witness = minimal_tree(din)
    assert witness is not None
    if rule is None:
        return TypecheckResult(
            False,
            algorithm,
            counterexample=witness,
            reason="no initial rule: the translation is empty",
        )
    if len(rule) != 1 or not isinstance(rule[0], RhsSym):
        raise ClassViolationError(
            "the rule for the input root symbol must produce a single "
            "Σ-rooted tree (Definition 5)"
        )
    root = rule[0]
    if root.label != dout.start:
        return TypecheckResult(
            False,
            algorithm,
            counterexample=witness,
            output=transducer.apply(witness),
            reason=(
                f"output root is {root.label!r}, output schema starts with "
                f"{dout.start!r}"
            ),
        )
    return None


def typecheck_replus(
    transducer: TreeTransducer,
    din: DTD,
    dout: DTD,
    max_counterexample_nodes: int = 100_000,
    schema: Optional[ReplusSchema] = None,
) -> TypecheckResult:
    """TC[T_d,c, DTD(RE⁺)] in PTIME — Theorem 37 (grammar route).

    On rejection, the counterexample is produced by the two-witness check
    (Corollary 38: ``t_min`` or ``t_vast`` is a counterexample), unfolded to
    an explicit tree when it fits ``max_counterexample_nodes``.

    ``schema`` is a :class:`ReplusSchema` compiled for exactly these DTD
    objects (a warm session passes its own; omitted, one is built here).
    """
    if schema is None:
        schema = ReplusSchema(din, dout)
    if transducer.uses_calls():
        from repro.xpath.compile import compile_calls

        transducer = compile_calls(transducer)

    early = _root_failure(transducer, din, dout, "replus")
    if early is not None:
        return early

    pairs = reachable_pairs(
        transducer, din,
        usable_cache=schema.usable_cache, word_cache=schema.word_cache,
    )
    stats = {"reachable_pairs": len(pairs), "grammars": 0}
    failing = None
    for (q, a) in sorted(pairs):
        rhs = transducer.rules.get((q, a))
        if rhs is None:
            continue
        for path, node in iter_rhs_nodes(rhs):
            if not isinstance(node, RhsSym):
                continue
            grammar = build_grammar(transducer, din, q, a, path)
            stats["grammars"] += 1
            target = dout.content_dfa(node.label).complete(
                dout.alphabet | transducer.alphabet
            )
            included, word = grammar.included_in_dfa(target)
            if not included:
                failing = (q, a, path, node.label, word)
                break
        if failing:
            break

    if failing is None:
        return TypecheckResult(True, "replus", stats=stats)

    q, a, path, sigma, word = failing
    result = TypecheckResult(
        False,
        "replus",
        reason=(
            f"L(G_{{{q},{a},{path}}}) ⊄ dout({sigma!r}): grammar derives "
            f"children word {' '.join(map(str, word)) or 'ε'}"
        ),
        stats=stats,
    )
    # Corollary 38: t_min or t_vast is a concrete counterexample.
    witness = _two_witness_counterexample(
        transducer, dout, max_counterexample_nodes, schema
    )
    if witness is not None:
        result.counterexample, result.output = witness
    return result


def _two_witness_counterexample(
    transducer: TreeTransducer,
    dout: DTD,
    max_nodes: int,
    schema: ReplusSchema,
) -> Optional[Tuple[Tree, Optional[Tree]]]:
    for name in ("t_min", "t_vast"):
        dag = schema.witness_dag(name)
        image = transducer.apply_dag(dag)
        if image is not None and validate_output_dag(dout, image):
            continue
        try:
            tree = unfold_tree(dag, max_nodes)
        except Exception:
            return None
        return tree, transducer.apply(tree)
    return None


def typecheck_replus_witnesses(
    transducer: TreeTransducer,
    din: DTD,
    dout: DTD,
    max_counterexample_nodes: int = 100_000,
    schema: Optional[ReplusSchema] = None,
) -> TypecheckResult:
    """The §6 two-witness algorithm: typechecks iff ``T(t_min)`` and
    ``T(t_vast)`` both conform — evaluated on DAGs, hence PTIME."""
    if schema is None:
        schema = ReplusSchema(din, dout)
    if transducer.uses_calls():
        from repro.xpath.compile import compile_calls

        transducer = compile_calls(transducer)
    early = _root_failure(transducer, din, dout, "replus-witnesses")
    if early is not None:
        return early

    for name in ("t_min", "t_vast"):
        dag = schema.witness_dag(name)
        image = transducer.apply_dag(dag)
        if image is not None and validate_output_dag(dout, image):
            continue
        result = TypecheckResult(
            False,
            "replus-witnesses",
            reason=f"{name} is a counterexample",
        )
        try:
            result.counterexample = unfold_tree(dag, max_counterexample_nodes)
            result.output = transducer.apply(result.counterexample)
        except Exception:
            result.stats["counterexample_dag"] = dag
        return result
    return TypecheckResult(
        True,
        "replus-witnesses",
        reason="both t_min and t_vast conform (Lemma 36)",
    )
