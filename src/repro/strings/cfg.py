"""Extended context-free grammars — the engine behind Section 5.

Section 5 reduces typechecking w.r.t. RE⁺-DTDs to inclusion tests
``L(G_{q,a,u}) ⊆ L(dout(σ))`` for extended context-free grammars whose rule
bodies are sequences of terminals and (possibly ⁺-iterated) nonterminals.
This module provides:

* :class:`ECFG` — extended CFGs with atoms ``t``, ``N`` and ``N⁺``;
* emptiness and productive-nonterminal analysis;
* the PTIME inclusion test ``L(G) ⊆ L(D)`` for a DFA ``D`` via the classic
  reachability-relation fixpoint (the paper's pushdown × complement-DFA
  emptiness, phrased without building the PDA);
* extraction of a witness word in ``L(G) \\ L(D)`` (Corollary 38).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List, Mapping, Sequence, Tuple

from repro.errors import InvalidSchemaError
from repro.strings.dfa import DFA

Terminal = Hashable
Nonterminal = Hashable


@dataclass(frozen=True, slots=True)
class ECFGAtom:
    """One atom of a rule body: a terminal, a nonterminal, or ``N⁺``."""

    value: Hashable
    is_terminal: bool
    plus: bool = False

    def __post_init__(self) -> None:
        if self.is_terminal and self.plus:
            raise InvalidSchemaError("terminals carry no + exponent here")

    def __str__(self) -> str:
        text = str(self.value)
        if not self.is_terminal:
            text = f"<{text}>"
        return text + ("+" if self.plus else "")


def t(value: Terminal) -> ECFGAtom:
    """Terminal atom constructor."""
    return ECFGAtom(value, True)


def nt(value: Nonterminal, plus: bool = False) -> ECFGAtom:
    """Nonterminal atom constructor (optionally ⁺-iterated)."""
    return ECFGAtom(value, False, plus)


class ECFG:
    """An extended context-free grammar.

    Parameters
    ----------
    rules:
        Mapping from nonterminal to a list of alternatives; each alternative
        is a sequence of :class:`ECFGAtom`.
    start:
        The start nonterminal.
    """

    def __init__(
        self,
        rules: Mapping[Nonterminal, Sequence[Sequence[ECFGAtom]]],
        start: Nonterminal,
    ) -> None:
        self.rules: Dict[Nonterminal, List[Tuple[ECFGAtom, ...]]] = {
            head: [tuple(alt) for alt in alts] for head, alts in rules.items()
        }
        self.start = start
        if start not in self.rules:
            raise InvalidSchemaError(f"start nonterminal {start!r} has no rule")
        for head, alts in self.rules.items():
            for alt in alts:
                for atom in alt:
                    if not atom.is_terminal and atom.value not in self.rules:
                        raise InvalidSchemaError(
                            f"rule for {head!r} references undefined "
                            f"nonterminal {atom.value!r}"
                        )

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return f"ECFG(|N|={len(self.rules)}, start={self.start!r})"

    def pretty(self) -> str:
        """Human-readable listing of the grammar."""
        lines = []
        for head, alts in self.rules.items():
            bodies = " | ".join(
                " ".join(str(atom) for atom in alt) if alt else "ε" for alt in alts
            )
            lines.append(f"<{head}> → {bodies}")
        return "\n".join(lines)

    def terminals(self) -> FrozenSet[Terminal]:
        """All terminals occurring in the grammar."""
        out = set()
        for alts in self.rules.values():
            for alt in alts:
                for atom in alt:
                    if atom.is_terminal:
                        out.add(atom.value)
        return frozenset(out)

    @property
    def size(self) -> int:
        """Total number of atoms plus number of rules."""
        return len(self.rules) + sum(
            len(alt) for alts in self.rules.values() for alt in alts
        )

    # ------------------------------------------------------------------
    def productive_nonterminals(self) -> FrozenSet[Nonterminal]:
        """Nonterminals deriving at least one terminal word (fixpoint)."""
        productive: set = set()
        changed = True
        while changed:
            changed = False
            for head, alts in self.rules.items():
                if head in productive:
                    continue
                for alt in alts:
                    if all(
                        atom.is_terminal or atom.value in productive for atom in alt
                    ):
                        productive.add(head)
                        changed = True
                        break
        return frozenset(productive)

    def is_empty(self) -> bool:
        """Whether ``L(G) = ∅``."""
        return self.start not in self.productive_nonterminals()

    def is_recursive(self) -> bool:
        """Whether some nonterminal can derive a sentential form containing
        itself (the §5 grammars are non-recursive because the input DTD is)."""
        from repro.util import has_cycle

        graph: Dict[Nonterminal, set] = {}
        for head, alts in self.rules.items():
            succ = graph.setdefault(head, set())
            for alt in alts:
                for atom in alt:
                    if not atom.is_terminal:
                        succ.add(atom.value)
        return has_cycle(graph)

    def some_word(self, max_steps: int = 10_000) -> Tuple[Terminal, ...] | None:
        """A word of ``L(G)`` (shortest-derivation greedy), or ``None``."""
        words: Dict[Nonterminal, Tuple[Terminal, ...]] = {}
        changed = True
        steps = 0
        while changed and steps < max_steps:
            changed = False
            steps += 1
            for head, alts in self.rules.items():
                if head in words:
                    continue
                for alt in alts:
                    if all(atom.is_terminal or atom.value in words for atom in alt):
                        word: List[Terminal] = []
                        for atom in alt:
                            if atom.is_terminal:
                                word.append(atom.value)
                            else:
                                word.extend(words[atom.value])
                        words[head] = tuple(word)
                        changed = True
                        break
        return words.get(self.start)

    # ------------------------------------------------------------------
    # Inclusion in a regular language
    # ------------------------------------------------------------------
    def reachability_relation(
        self, dfa: DFA
    ) -> Dict[Nonterminal, Dict[Tuple, Tuple[Terminal, ...]]]:
        """For each nonterminal ``N`` the relation
        ``{(s, s') : ∃ w ∈ L(N), δ*(s, w) = s'}`` with a witness word each.

        ``dfa`` must be complete over a superset of the grammar's terminals.
        This is the PTIME core of Theorem 37.
        """
        complete = dfa.complete(self.terminals())
        relations: Dict[Nonterminal, Dict[Tuple, Tuple[Terminal, ...]]] = {
            head: {} for head in self.rules
        }

        def atom_relation(atom: ECFGAtom) -> Dict[Tuple, Tuple[Terminal, ...]]:
            if atom.is_terminal:
                return {
                    (s, complete.step(s, atom.value)): (atom.value,)
                    for s in complete.states
                }
            base = relations[atom.value]
            if not atom.plus:
                return dict(base)
            # Transitive closure under relation composition (≥ 1 iteration).
            closure = dict(base)
            frontier = dict(base)
            while frontier:
                fresh: Dict[Tuple, Tuple[Terminal, ...]] = {}
                for (s, mid), left in frontier.items():
                    for (mid2, s2), right in base.items():
                        if mid2 != mid:
                            continue
                        key = (s, s2)
                        if key not in closure and key not in fresh:
                            fresh[key] = left + right
                closure.update(fresh)
                frontier = fresh
            return closure

        changed = True
        while changed:
            changed = False
            for head, alts in self.rules.items():
                current = relations[head]
                for alt in alts:
                    # Compose the atom relations left to right.
                    partial: Dict[Tuple, Tuple[Terminal, ...]] = {
                        (s, s): () for s in complete.states
                    }
                    for atom in alt:
                        rel = atom_relation(atom)
                        composed: Dict[Tuple, Tuple[Terminal, ...]] = {}
                        for (s, mid), left in partial.items():
                            for (mid2, s2), right in rel.items():
                                if mid2 != mid:
                                    continue
                                key = (s, s2)
                                if key not in composed:
                                    composed[key] = left + right
                        partial = composed
                        if not partial:
                            break
                    for key, witness in partial.items():
                        if key not in current:
                            current[key] = witness
                            changed = True
        return relations

    def included_in_dfa(self, dfa: DFA) -> Tuple[bool, Tuple[Terminal, ...] | None]:
        """Decide ``L(G) ⊆ L(D)``; on failure return a witness word.

        Returns ``(True, None)`` or ``(False, w)`` with ``w ∈ L(G) \\ L(D)``.
        """
        complete = dfa.complete(self.terminals())
        relations = self.reachability_relation(complete)
        for (s, s2), witness in relations[self.start].items():
            if s == complete.initial and s2 not in complete.finals:
                return False, witness
        return True, None
