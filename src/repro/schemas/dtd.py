"""DTDs — Definition 1 of the paper.

A :class:`DTD` maps alphabet symbols to content models and fixes a start
symbol.  Content models may be authored as

* textual regular expressions (parsed by :func:`repro.strings.parse_regex`),
* :class:`~repro.strings.regex.Regex` ASTs,
* :class:`~repro.strings.replus.REPlus` expressions (Section 5),
* :class:`~repro.strings.nfa.NFA` or :class:`~repro.strings.dfa.DFA` objects.

Symbols of the alphabet without an explicit rule are leaves (content ``ε``),
matching the convention of the paper's examples (Example 10 gives no rules
for ``title``, ``author``, ``intro`` or ``paragraph``).

The *kind* of a DTD — ``DTD(DFA)``, ``DTD(NFA)``, ``DTD(RE+)`` — is the class
of its authored representations; it drives algorithm selection and the
complexity statements.  Compiled NFA/DFA views are cached per symbol.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Tuple, Union

from repro.errors import InvalidSchemaError
from repro.obs import trace as _trace
from repro.strings.dfa import DFA
from repro.strings.nfa import NFA
from repro.strings.regex import Regex, parse_regex, regex_to_nfa
from repro.strings.replus import REPlus, regex_is_replus, replus_from_regex
from repro.trees.tree import Hedge, Tree
from repro.util import has_cycle

ContentModel = Union[str, Regex, REPlus, NFA, DFA]


class DTD:
    """A DTD ``(d, s_d)`` over the alphabet implied by its rules.

    Parameters
    ----------
    rules:
        Mapping from symbol to content model (see module docstring).
    start:
        The start symbol ``s_d``.
    alphabet:
        Optional extra symbols (beyond rule keys and symbols occurring in
        content models).
    """

    def __init__(
        self,
        rules: Mapping[str, ContentModel],
        start: str,
        alphabet: Iterable[str] = (),
    ) -> None:
        self.start = start
        self._raw: Dict[str, ContentModel] = {}
        symbols = set(alphabet) | set(rules) | {start}
        for symbol, model in rules.items():
            if isinstance(model, str):
                model = parse_regex(model)
            self._raw[symbol] = model
            symbols |= self._model_symbols(model)
        self.alphabet: FrozenSet[str] = frozenset(symbols)
        self._nfa_cache: Dict[str, NFA] = {}
        self._dfa_cache: Dict[str, DFA] = {}
        self._complete_cache: Dict[Tuple[str, FrozenSet[str]], DFA] = {}
        self._productive: FrozenSet[str] | None = None
        self._content_hash: str | None = None

    @staticmethod
    def _model_symbols(model: ContentModel) -> set:
        if isinstance(model, Regex):
            return set(model.symbols())
        if isinstance(model, REPlus):
            return set(model.symbols())
        if isinstance(model, (NFA, DFA)):
            return set(model.alphabet)
        raise InvalidSchemaError(f"unsupported content model {model!r}")

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return f"DTD(start={self.start!r}, |Σ|={len(self.alphabet)}, kind={self.kind})"

    def pretty(self) -> str:
        """Human-readable rule listing (paper style ``a → e``)."""
        lines = [f"start: {self.start}"]
        for symbol in sorted(self._raw):
            model = self._raw[symbol]
            if isinstance(model, (Regex, REPlus)):
                lines.append(f"{symbol} → {model}")
            else:
                lines.append(f"{symbol} → {model!r}")
        return "\n".join(lines)

    @property
    def kind(self) -> str:
        """The representation class: ``RE+`` ⊂ ``regex``; ``DFA``; ``NFA``.

        ``RE+`` is reported only when *every* authored content model is an
        RE⁺ expression; automata-backed DTDs report the weakest class used
        (an NFA anywhere makes the DTD a DTD(NFA)).
        """
        kinds = set()
        for model in self._raw.values():
            if isinstance(model, REPlus) or (
                isinstance(model, Regex) and regex_is_replus(model)
            ):
                kinds.add("RE+")
            elif isinstance(model, Regex):
                kinds.add("regex")
            elif isinstance(model, DFA):
                kinds.add("DFA")
            else:
                kinds.add("NFA")
        for weakest in ("NFA", "regex", "DFA", "RE+"):
            if weakest in kinds:
                return weakest
        return "RE+"  # no rules at all: vacuously RE+

    @property
    def size(self) -> int:
        """Paper size measure: sum of the content-model sizes."""
        total = 0
        for symbol in self.alphabet:
            total += self.content_nfa(symbol).size
        return total

    def rules(self) -> Dict[str, ContentModel]:
        """The authored rules (defensive copy)."""
        return dict(self._raw)

    def content_hash(self) -> str:
        """Stable digest of the DTD's authored representation.

        Hashes the start symbol, the alphabet and every rule's canonical
        serialization (regex/RE⁺ text, or the canonical automaton form for
        NFA/DFA content models).  Equal-content DTDs — even ones built as
        distinct Python objects or in different processes — hash alike, so
        the digest can key the compiled-session registry and the on-disk
        artifact cache (ISSUE: stable content hashing).  Representation,
        not language: two different regexes for the same language hash
        differently, because the compiled artifacts are derived from the
        representation.
        """
        if self._content_hash is None:
            from repro.util import stable_digest

            parts = [
                "dtd",
                repr(self.start),
                repr(sorted(self.alphabet, key=repr)),
            ]
            for symbol in sorted(self._raw, key=repr):
                model = self._raw[symbol]
                if isinstance(model, REPlus):
                    canonical = f"replus:{model}"
                elif isinstance(model, Regex):
                    canonical = f"regex:{model}"
                elif isinstance(model, DFA):
                    canonical = f"dfa:{model.content_hash()}"
                else:
                    canonical = f"nfa:{model.content_hash()}"
                parts.append(f"{symbol!r}->{canonical}")
            self._content_hash = stable_digest(*parts)
        return self._content_hash

    def with_start(self, start: str) -> "DTD":
        """The same rules with a different start symbol — the paper's
        ``(d, a)`` notation."""
        if start not in self.alphabet:
            raise InvalidSchemaError(f"{start!r} is not an alphabet symbol")
        clone = DTD.__new__(DTD)
        clone.start = start
        clone._raw = self._raw
        clone.alphabet = self.alphabet
        clone._nfa_cache = self._nfa_cache
        clone._dfa_cache = self._dfa_cache
        clone._complete_cache = self._complete_cache
        clone._productive = self._productive
        clone._content_hash = None  # the start symbol is part of the hash
        return clone

    # ------------------------------------------------------------------
    # Content-model views
    # ------------------------------------------------------------------
    def content(self, symbol: str) -> ContentModel:
        """The authored content model (ε-regex for implicit leaves)."""
        model = self._raw.get(symbol)
        if model is None:
            from repro.strings.regex import Epsilon

            return Epsilon()
        return model

    def content_nfa(self, symbol: str) -> NFA:
        """The content model as an NFA over the DTD's alphabet (cached)."""
        cached = self._nfa_cache.get(symbol)
        if cached is not None:
            return cached
        model = self._raw.get(symbol)
        if model is None:
            nfa = NFA.epsilon_language(self.alphabet)
        elif isinstance(model, Regex):
            nfa = regex_to_nfa(model, self.alphabet)
        elif isinstance(model, REPlus):
            nfa = model.to_dfa(self.alphabet).to_nfa()
        elif isinstance(model, DFA):
            nfa = model.to_nfa().with_alphabet(self.alphabet)
        else:
            nfa = model.with_alphabet(self.alphabet)
        self._nfa_cache[symbol] = nfa
        return nfa

    def content_dfa(self, symbol: str) -> DFA:
        """The content model as a DFA (cached; determinizes if needed).

        For an authored DFA this is the original automaton, except that a
        completed view (:meth:`DFA.complete`, :meth:`DFA.complement`) is
        spelled out: the engines enumerate a content DFA's children from
        its stored moves, which omit a view's implicit sink moves.
        Otherwise the content model is compiled over the symbols it
        mentions (the DTD's alphabet, moves only where the model reads: any
        other symbol kills the run).  The potentially exponential subset construction here is
        exactly the DTD(NFA) intractability the paper charges to the schema
        class.
        """
        cached = self._dfa_cache.get(symbol)
        if cached is not None:
            return cached
        model = self._raw.get(symbol)
        with _trace.span("compile", artifact="content_dfa"):
            if isinstance(model, DFA):
                dfa = model if model.sink is None else DFA.from_nfa(model.to_nfa())
            elif isinstance(model, REPlus):
                dfa = model.to_dfa(self.alphabet)
            else:
                dfa = self.content_nfa(symbol).determinize().minimize()
        self._dfa_cache[symbol] = dfa
        return dfa

    def content_dfa_complete(self, symbol: str, alphabet: Iterable[str]) -> DFA:
        """The content DFA completed over ``alphabet`` (cached per
        ``(symbol, alphabet)``).

        The completion is a view (:meth:`DFA.complete`) sharing the content
        DFA's moves plus an implicit sink; caching keeps it — and its
        kernel, whose one ``other`` column stands for every unmentioned
        symbol — stable across engine instances.
        """
        key = (symbol, frozenset(alphabet))
        cached = self._complete_cache.get(key)
        if cached is None:
            with _trace.span("compile", artifact="content_dfa_complete"):
                cached = self.content_dfa(symbol).complete(key[1])
            self._complete_cache[key] = cached
        return cached

    def content_replus(self, symbol: str) -> REPlus:
        """The content model as an RE⁺ expression (Section 5 algorithms).

        Raises :class:`InvalidSchemaError` when the authored model is not an
        RE⁺ expression.
        """
        model = self._raw.get(symbol)
        if model is None:
            return REPlus.epsilon()
        if isinstance(model, REPlus):
            return model
        if isinstance(model, Regex) and regex_is_replus(model):
            return replus_from_regex(model)
        raise InvalidSchemaError(
            f"content model of {symbol!r} is not an RE+ expression"
        )

    # ------------------------------------------------------------------
    # Validation (Definition 1: tree satisfaction)
    # ------------------------------------------------------------------
    def accepts(self, tree) -> bool:
        """Whether ``tree`` satisfies the DTD (root = start and every node's
        child word is in its content model).

        Accepts explicit :class:`Tree` nodes and shared
        :class:`~repro.trees.dag.DagTree` witnesses alike; dags are
        validated in DAG size via memoized DFA transfer maps, never
        unfolded.
        """
        from repro.trees.dag import DagTree

        if isinstance(tree, DagTree):
            return self._accepts_dag(tree)
        return tree.label == self.start and self.partly_satisfies((tree,))

    def _accepts_dag(self, dag) -> bool:
        from repro.trees.dag import TransferTable, distinct_tree_nodes

        if dag.label != self.start:
            return False
        tables: Dict[str, TransferTable] = {}
        for node in distinct_tree_nodes(dag):
            if node.label not in self.alphabet:
                return False
            table = tables.get(node.label)
            if table is None:
                table = TransferTable(self.content_dfa(node.label))
                tables[node.label] = table
            if not table.accepts_top(node.children):
                return False
        return True

    def partly_satisfies(self, hedge: Hedge) -> bool:
        """The paper's *partly satisfies*: every node's child word conforms,
        with no requirement on the root labels of the hedge."""
        stack: List[Tree] = list(hedge)
        while stack:
            node = stack.pop()
            word = tuple(child.label for child in node.children)
            if not self.content_dfa(node.label).accepts(word):
                return False
            stack.extend(node.children)
        return True

    def violations(self, tree: Tree) -> List[Tuple[Tuple[int, ...], str]]:
        """Diagnostic list of violations ``(node address, reason)``."""
        issues: List[Tuple[Tuple[int, ...], str]] = []
        if tree.label != self.start:
            issues.append(((), f"root is {tree.label!r}, expected {self.start!r}"))
        for path, node in tree.nodes():
            word = tuple(child.label for child in node.children)
            if not self.content_dfa(node.label).accepts(word):
                issues.append(
                    (path, f"children {' '.join(word) or 'ε'} ∉ d({node.label})")
                )
        return issues

    # ------------------------------------------------------------------
    # Structural analyses
    # ------------------------------------------------------------------
    def productive_symbols(self) -> FrozenSet[str]:
        """Symbols ``a`` with ``L(d, a) ≠ ∅`` (cached — the set is
        start-independent and the DTD immutable).  A worklist fixpoint: a
        symbol is re-tested only when a symbol its content model reads becomes
        productive, not on ``|Σ|`` passes over the alphabet."""
        if self._productive is not None:
            return self._productive
        readers: Dict[str, List[str]] = {}
        for symbol in self.alphabet:
            for row in self.content_nfa(symbol).transitions.values():
                for child in row:
                    readers.setdefault(child, []).append(symbol)
        productive: set = set()
        pending = sorted(self.alphabet, key=repr)
        while pending:
            symbol = pending.pop()
            if symbol in productive or self.content_nfa(symbol).is_empty(productive):
                continue
            productive.add(symbol)
            pending.extend(r for r in readers.get(symbol, ()) if r not in productive)
        self._productive = frozenset(productive)
        return self._productive

    def is_empty(self) -> bool:
        """Whether ``L(d) = ∅``."""
        return self.start not in self.productive_symbols()

    def usable_children(self, symbol: str, productive: FrozenSet[str] | None = None):
        """Symbols occurring in some content word of ``symbol`` built from
        productive symbols — exactly the labels that can appear below a
        ``symbol`` node in a valid tree."""
        if productive is None:
            productive = self.productive_symbols()
        return self.content_nfa(symbol).used_symbols(productive)

    def reachable_symbols(self) -> FrozenSet[str]:
        """Symbols that occur in at least one tree of ``L(d)``."""
        productive = self.productive_symbols()
        if self.start not in productive:
            return frozenset()
        seen = {self.start}
        frontier = [self.start]
        while frontier:
            symbol = frontier.pop()
            for child in self.usable_children(symbol, productive):
                if child not in seen:
                    seen.add(child)
                    frontier.append(child)
        return frozenset(seen)

    def is_non_recursive(self) -> bool:
        """Whether no symbol can appear below itself in a valid tree.

        Computed on the productive-restricted child graph, so DTDs whose
        recursion is confined to unproductive symbols count as non-recursive
        (their languages agree with a non-recursive DTD's).
        """
        productive = self.productive_symbols()
        graph = {
            symbol: set(self.usable_children(symbol, productive))
            for symbol in productive
        }
        return not has_cycle(graph)

    def depth_bound(self) -> int | None:
        """Longest root-to-leaf depth over ``L(d)``; ``None`` if unbounded or
        the language is empty."""
        reachable = self.reachable_symbols()
        if not reachable:
            return None
        productive = self.productive_symbols()
        graph = {
            symbol: set(self.usable_children(symbol, productive)) & reachable
            for symbol in reachable
        }
        if has_cycle(graph):
            return None
        depth: Dict[str, int] = {}

        def height(symbol: str) -> int:
            if symbol in depth:
                return depth[symbol]
            result = 1 + max((height(b) for b in graph[symbol]), default=0)
            depth[symbol] = result
            return result

        return height(self.start)
