"""Inverse type inference — typechecking by pre-image computation.

This is the classical *backward* route of the typechecking literature
(Frisch & Hosoya, *Towards Practical Typechecking for Macro Tree
Transducers*; Martens–Neven–Gyssens, *On Typechecking Top-Down XML
Transformations*), built as a second, independent engine next to the
paper's forward accumulation method (:mod:`repro.core.forward`):

    ``T`` typechecks w.r.t. ``(din, dout)``
        ⟺  ``T⁻¹(complement of L(dout)) ∩ L(din) = ∅``.

For DTD output schemas the complement machinery is the one the repo
already owns: the DTAc complement of Theorem 20 ("switch final and
non-final states") specializes, symbol by symbol, to the *completed*
content DFAs (:meth:`repro.schemas.dtd.DTD.content_dfa_complete`) with
flipped acceptance — a tree violates ``dout`` exactly when its root label
is not the start symbol or some node's children word leaves a completed
content DFA outside its finals.

The pre-image is computed by a **backward rule induction** over the
top-down transducer.  The engine abstracts the output hedge
``T^q(t)`` of every input tree ``t`` and transducer state ``q`` by a
finite *behavior*:

``(count, label, valid, f)``
    ``count``     — the hedge length capped at two (``T(t)`` must be a
                    single tree; the empty hedge and multi-tree hedges
                    conform to no tree schema);
    ``label``     — the root label when ``count == 1`` (the output root
                    must be ``dout``'s start symbol);
    ``valid``     — whether every node of every tree in the hedge
                    satisfies its ``dout`` content model;
    ``f``         — for every *tracked* output symbol σ (one whose
                    content DFA can ever read a transducer-produced
                    hedge), the state transformation the top-level word
                    of the hedge induces on the completed content DFA of
                    σ — the transition-monoid element of the word.

Behaviors concatenate (counts add saturating, valid bits conjoin,
transformations compose), so the behavior of ``T^q(a(t₁ ⋯ t_k))`` is
computed from the rules ``rhs(q, a)`` and the child behaviors alone —
the rule induction.  Because the transducer and the completed DFAs are
deterministic, each input tree has exactly *one* behavior per state: the
map ``Φ(t): q ↦ behavior of T^q(t)`` is the pre-image automaton's state
at ``t``, and the set of reachable ``(input symbol, Φ)`` pairs — with
``din``-validity enforced by running the input content DFAs over the
children — is exactly the reachable state space of the *product* of the
pre-image NTA with ``din``.  Emptiness of that product is decided
demand-driven on the shared :class:`~repro.kernel.product.ProductBFS`
engine, one persistent product graph per input symbol (input content DFA
× behavior-map tracker), mirroring the forward engine's hedge cells.

Unlike the forward engine, the rule induction needs **no tractability
class**: copying and deletion only grow the (budget-guarded) reachable
behavior space, never the algorithm — ``typecheck_backward`` runs on
transducers with unbounded deletion path width where ``typecheck_forward``
raises :class:`~repro.errors.ClassViolationError`.  The trade is that its
cost tracks the transition monoids of the output content DFAs instead of
Lemma 14's ``n_out^{C·K}`` seed counts — small output schemas with large
transducer fan-out favor backward, wide content models favor forward
(see ``BENCH_backward.json``).

Counterexamples are extracted from the product: every derived pair
records the child-pair word that produced it (witnesses reference only
pairs derived strictly earlier, so the recursive tree construction is
well-founded), and the first *bad* pair at the input start symbol
unfolds into a concrete ``t ∈ L(din)`` with ``T(t) ∉ L(dout)``.
"""

from __future__ import annotations

import time
from collections import OrderedDict, deque
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import BudgetExceededError, ClassViolationError
from repro.kernel.interning import Interner
from repro.kernel.product import ProductBFS
from repro.obs import trace as _trace
from repro.core.forward import DTDPairSchema
from repro.core.problem import TypecheckResult
from repro.schemas.dtd import DTD
from repro.transducers.rhs import RhsCall, RhsState, RhsSym, iter_rhs_nodes
from repro.transducers.transducer import TreeTransducer
from repro.trees.generate import minimal_tree
from repro.trees.tree import Tree
from repro.util import lru_get, lru_store


def _table_cache_metric(outcome: str) -> None:
    """Count a per-transducer table-cache probe under the registry's
    per-engine label."""
    from repro.engines import get_engine

    get_engine('backward').record_table_cache(outcome)

#: A derived pre-image product state: ``(input symbol, interned Φ)``.
PairKey = Tuple[str, int]

#: How many per-transducer result snapshots a BackwardSchema retains (LRU).
BACKWARD_TABLE_LIMIT = 64


class BackwardSchema(DTDPairSchema):
    """Per-``(din, dout)`` compiled artifacts of the backward engine.

    The schema-side state mirrors :class:`~repro.core.forward.ForwardSchema`
    where the two engines consume the same artifacts — productive input
    symbols, interned input content DFAs with useful-state masks and live
    child symbols, completed output content DFAs — and *shares* them: the
    underlying automata and kernels are cached on the DTD objects (and the
    per-kernel ``aux`` memo uses the same key as the forward engine), so a
    session serving both methods compiles each artifact once.

    Per-*transducer* state is a bounded LRU of result snapshots
    (verdict, reason, counterexample) keyed by transducer content hash:
    backward behaviors mention the rules throughout, so — unlike the
    forward engine's σ-independent cells — there is no schema-only
    fixpoint fragment to share, and the natural cache unit is the finished
    answer.  Snapshots are plain picklable data; the session exports them
    into the artifact cache (side files, see :mod:`repro.cache`) and
    service workers hydrate them like forward tables.
    """

    def __init__(self, din: DTD, dout: DTD) -> None:
        super().__init__(din, dout)
        # transducer content hash -> result snapshot (LRU).
        self.transducer_results: "OrderedDict[str, Dict[str, object]]" = OrderedDict()
        self.transducer_result_limit = BACKWARD_TABLE_LIMIT
        # transducer content hash -> externalized table snapshot (LRU),
        # the warm base :func:`incremental_backward_tables` diffs against.
        # Result snapshots above carry only the finished answer; edit
        # chains additionally need the derived Φ lists themselves.
        self.transducer_tables: "OrderedDict[str, Dict[str, object]]" = OrderedDict()
        # Measured per-key (= per-input-symbol) costs of previous sharded
        # runs, mirroring ForwardSchema.shard_profiles: transducer content
        # hash -> {input symbol: attributed seconds}.  planner="profile"
        # plans repeated pairs on these instead of the size model.
        self.shard_profiles: "OrderedDict[str, Dict[str, float]]" = OrderedDict()
        self.shard_profile_version = 0

    def out_kernel(self, sigma: str, out_alphabet: frozenset):
        """Interned completed output content DFA of ``sigma``.

        Symbols without a ``dout`` rule (including symbols foreign to
        ``dout``'s alphabet) get the ε content model, completed — exactly
        the semantics of ``dout.accepts`` and of the forward engine's
        root checks.
        """
        return self.dout.content_dfa_complete(sigma, out_alphabet).kernel()

    def cached_result(self, table_key: str) -> Optional[Dict[str, object]]:
        """A previous run's snapshot for an equal transducer (LRU-touched)."""
        return lru_get(self.transducer_results, table_key)

    def store_result(self, table_key: str, snapshot: Dict[str, object]) -> None:
        lru_store(self.transducer_results, table_key, snapshot,
                  self.transducer_result_limit)

    def cached_tables(self, table_key: str) -> Optional[Dict[str, object]]:
        """A previous run's externalized table snapshot (LRU-touched)."""
        return lru_get(self.transducer_tables, table_key)

    def store_tables(self, table_key: str, tables: Dict[str, object]) -> None:
        lru_store(self.transducer_tables, table_key, tables,
                  self.transducer_result_limit)

    def shard_profile(self, table_key: str) -> Optional[Dict[str, float]]:
        """The measured per-symbol costs of a previous sharded run of an
        equal transducer, or ``None`` (LRU-touched on hit)."""
        return lru_get(self.shard_profiles, table_key)

    def record_shard_profile(
        self, table_key: str, profile: Dict[str, float]
    ) -> None:
        """Retain the measured per-symbol costs of a sharded run (LRU)."""
        lru_store(self.shard_profiles, table_key, profile,
                  self.transducer_result_limit)
        self.shard_profile_version += 1


class _Cell:
    """Per-input-symbol product cell: input content DFA × behavior tracker."""

    __slots__ = ("symbol", "idfa", "useful_mask", "child_syms", "engine",
                 "consumed", "edges")

    def __init__(self, symbol: str, idfa, useful_mask: int, child_syms) -> None:
        self.symbol = symbol
        self.idfa = idfa
        self.useful_mask = useful_mask
        self.child_syms = child_syms
        self.engine: Optional[ProductBFS] = None
        self.consumed: Dict[str, int] = {}
        self.edges: List[Tuple] = []  # (node, (c, phi), succ) when recording


class BackwardEngine:
    """The backward rule-induction fixpoint over one transducer.

    ``record_edges=True`` keeps every product edge (not just the BFS
    parent edges) so :func:`repro.backward.preimage.preimage_product_nta`
    can export the explicit pre-image × ``din`` product NTA;
    ``early_exit=False`` saturates the fixpoint instead of stopping at the
    first violation (the export needs the full reachable space).
    """

    def __init__(
        self,
        transducer: TreeTransducer,
        din: DTD,
        dout: DTD,
        max_product_nodes: int = 500_000,
        schema: Optional[BackwardSchema] = None,
        record_edges: bool = False,
        early_exit: bool = True,
    ) -> None:
        if schema is None:
            schema = BackwardSchema(din, dout)
        elif schema.din is not din or schema.dout is not dout:
            raise ValueError(
                "schema context was compiled for different DTD objects"
            )
        self.transducer = transducer
        self.din = din
        self.dout = dout
        self.schema = schema
        self.max_product_nodes = max_product_nodes
        self.record_edges = record_edges
        self.early_exit = early_exit
        self.out_alphabet = frozenset(transducer.alphabet | dout.alphabet)

        # Domain: the states whose translations can be spliced anywhere —
        # every rhs leaf state plus the initial state (the root check).
        leaves: Set[str] = {transducer.initial}
        tracked: Set[str] = set()
        for rhs in transducer.rules.values():
            for _path, node in iter_rhs_nodes(rhs):
                if isinstance(node, (RhsState, RhsCall)):
                    leaves.add(node.state)
                elif any(
                    isinstance(child, (RhsState, RhsCall))
                    for child in node.children
                ):
                    tracked.add(node.label)
        self.domain: Tuple[str, ...] = tuple(sorted(leaves))
        self._dom_index = {q: i for i, q in enumerate(self.domain)}
        self._q0_index = self._dom_index[transducer.initial]
        # Tracked output symbols: only a label with a state directly under
        # it ever reads a transducer-produced hedge with its content DFA —
        # behaviors carry transformations for exactly those.
        self.sigmas: Tuple[str, ...] = tuple(sorted(tracked))
        self._sigma_index = {s: i for i, s in enumerate(self.sigmas)}
        self._out = [
            schema.out_kernel(sigma, self.out_alphabet) for sigma in self.sigmas
        ]

        # Behavior / behavior-map interners and the operation memos (the
        # lazily built multiplication table of the transformation monoid).
        self._abs = Interner()
        self._maps = Interner()
        identity = tuple(tuple(range(idfa.n_states)) for idfa in self._out)
        self._abs_empty = self._abs.intern((0, None, True, identity))
        self._map_empty = self._maps.intern(
            (self._abs_empty,) * len(self.domain)
        )
        self._concat_memo: Dict[Tuple[int, int], int] = {}
        self._step_memo: Dict[Tuple[int, int], int] = {}
        self._sym_memo: Dict[Tuple[str, bool], int] = {}
        self._eval_memo: Dict[Tuple[str, int], int] = {}
        self._static_abs: Dict[int, int] = {}
        self._static_ok: Dict[int, bool] = {}
        self._dyn_memo: Dict[int, bool] = {}

        # Derived pairs with their witness child words.
        self.derived: Dict[str, List[int]] = {}
        self._derived_set: Set[PairKey] = set()
        self.witness: Dict[PairKey, Tuple[PairKey, ...]] = {}
        self.violation: Optional[PairKey] = None
        self.work = 0
        # Wall seconds accumulated per input-symbol cell across the chaotic
        # iteration — the measured per-key costs a sharded run exports for
        # planner="profile" (see compute_backward_tables).
        self.cell_elapsed: Dict[str, float] = {}

        self._cells: Dict[str, _Cell] = {}
        self._dependents: Dict[str, List[str]] = {}
        self._dirty: deque = deque()
        self._dirty_set: Set[str] = set()

    # ------------------------------------------------------------------
    # Behavior algebra
    # ------------------------------------------------------------------
    def _concat(self, left: int, right: int) -> int:
        """Concatenation of hedge behaviors (monoid multiplication)."""
        if left == self._abs_empty:
            return right
        if right == self._abs_empty:
            return left
        key = (left, right)
        cached = self._concat_memo.get(key)
        if cached is None:
            c1, l1, v1, f1 = self._abs.value(left)
            c2, l2, v2, f2 = self._abs.value(right)
            count = c1 + c2
            if count >= 2:
                count, label = 2, None
            elif count == 1:
                label = l1 if c1 else l2
            else:
                label = None
            composed = tuple(
                tuple(t2[x] for x in t1) for t1, t2 in zip(f1, f2)
            )
            cached = self._abs.intern((count, label, v1 and v2, composed))
            self._concat_memo[key] = cached
        return cached

    def _sym_abs(self, label: str, valid: bool) -> int:
        """The behavior of a single output tree rooted ``label``."""
        key = (label, valid)
        cached = self._sym_memo.get(key)
        if cached is None:
            columns = []
            for idfa in self._out:
                j = idfa.symbols.index(label)
                table = idfa.table
                ns = idfa.n_symbols
                columns.append(
                    tuple(table[x * ns + j] for x in range(idfa.n_states))
                )
            cached = self._abs.intern((1, label, valid, tuple(columns)))
            self._sym_memo[key] = cached
        return cached

    def _dynamic(self, node) -> bool:
        """Whether the rhs subtree mentions a state (behavior-dependent)."""
        if isinstance(node, (RhsState, RhsCall)):
            return True
        nid = id(node)
        cached = self._dyn_memo.get(nid)
        if cached is None:
            cached = any(self._dynamic(child) for child in node.children)
            self._dyn_memo[nid] = cached
        return cached

    def _static_word_ok(self, node: RhsSym) -> bool:
        """Acceptance of a state-free children word by ``A_{node.label}``."""
        nid = id(node)
        cached = self._static_ok.get(nid)
        if cached is None:
            idfa = self.schema.out_kernel(node.label, self.out_alphabet)
            word = idfa.intern_word(
                tuple(child.label for child in node.children)
            )
            assert word is not None, "output DFAs are complete over Σ_out"
            cached = idfa.is_final(idfa.run(word, start=idfa.initial))
            self._static_ok[nid] = cached
        return cached

    def _eval_sym(self, node: RhsSym, g_vals: Tuple[int, ...]) -> int:
        """The behavior of one rhs output node under child behaviors ``G``."""
        nid = id(node)
        cached = self._static_abs.get(nid)
        if cached is not None:
            return cached
        if any(isinstance(child, RhsState) for child in node.children):
            # Dynamic children word: read acceptance off the hedge
            # behavior's transformation for this (tracked) label.
            sig = self._sigma_index[node.label]
            child_abs = self._eval_hedge(node.children, g_vals)
            _count, _label, valid, f = self._abs.value(child_abs)
            idfa = self._out[sig]
            valid = valid and idfa.is_final(f[sig][idfa.initial])
        else:
            # Fixed children word; subtree validity may still be dynamic.
            valid = self._static_word_ok(node)
            if valid:
                for child in node.children:
                    child_abs = self._eval_sym(child, g_vals)
                    if not self._abs.value(child_abs)[2]:
                        valid = False
                        break
        result = self._sym_abs(node.label, valid)
        if not self._dynamic(node):
            self._static_abs[nid] = result
        return result

    def _eval_hedge(self, hedge, g_vals: Tuple[int, ...]) -> int:
        """The behavior of an rhs hedge instantiated under ``G``."""
        out = self._abs_empty
        dom_index = self._dom_index
        for node in hedge:
            if isinstance(node, RhsState):
                out = self._concat(out, g_vals[dom_index[node.state]])
            else:
                out = self._concat(out, self._eval_sym(node, g_vals))
        return out

    def eval_map(self, a: str, g_int: int) -> int:
        """``Φ`` of a tree ``a(t₁ ⋯ t_k)`` from the accumulated child map."""
        key = (a, g_int)
        cached = self._eval_memo.get(key)
        if cached is None:
            g_vals = self._maps.value(g_int)
            rules = self.transducer.rules
            phi = tuple(
                self._eval_hedge(rules.get((q, a), ()), g_vals)
                for q in self.domain
            )
            cached = self._maps.intern(phi)
            self._eval_memo[key] = cached
        return cached

    def _map_step(self, g_int: int, phi_int: int) -> int:
        """Extend the accumulated map by one more child's ``Φ``."""
        key = (g_int, phi_int)
        cached = self._step_memo.get(key)
        if cached is None:
            g_vals = self._maps.value(g_int)
            phi_vals = self._maps.value(phi_int)
            cached = self._maps.intern(
                tuple(
                    self._concat(gv, pv)
                    for gv, pv in zip(g_vals, phi_vals)
                )
            )
            self._step_memo[key] = cached
        return cached

    def bad(self, phi_int: int) -> bool:
        """Whether ``T(t) ∉ L(dout)`` for trees with behavior map ``Φ``."""
        count, label, valid, _f = self._abs.value(
            self._maps.value(phi_int)[self._q0_index]
        )
        return not (count == 1 and valid and label == self.dout.start)

    def describe(self, phi_int: int) -> str:
        """A one-line reason for a bad root behavior."""
        count, label, valid, _f = self._abs.value(
            self._maps.value(phi_int)[self._q0_index]
        )
        if count == 0:
            return "some valid input translates to the empty hedge"
        if count == 2:
            return "some valid input translates to a hedge of several trees"
        if label != self.dout.start:
            return (
                f"some valid input's output is rooted {label!r}, "
                f"not {self.dout.start!r}"
            )
        assert not valid
        return (
            "some valid input's output violates an output content model"
        )

    # ------------------------------------------------------------------
    # Fixpoint
    # ------------------------------------------------------------------
    def _register(self, a: str) -> None:
        if a in self._cells:
            return
        idfa, useful_mask, child_syms = self.schema.in_kernel_info(a)
        self._cells[a] = _Cell(a, idfa, useful_mask, child_syms)
        self.derived.setdefault(a, [])
        for c, _c_sym in child_syms:
            self._dependents.setdefault(c, []).append(a)
        self._dirty.append(a)
        self._dirty_set.add(a)

    def _mark_dependents(self, c: str) -> None:
        for a in self._dependents.get(c, ()):
            if a not in self._dirty_set:
                self._dirty.append(a)
                self._dirty_set.add(a)

    def closure_symbols(self, symbols: Iterable[str]) -> Set[str]:
        """The downward dependency closure of ``symbols``.

        A symbol's cell consumes the derived Φs of its live child symbols,
        so evaluating a restricted symbol set to *its* fixpoint needs
        exactly this closure registered — the shape a shard computes.
        """
        seen: Set[str] = set()
        stack = list(symbols)
        while stack:
            a = stack.pop()
            if a in seen:
                continue
            seen.add(a)
            _idfa, _mask, child_syms = self.schema.in_kernel_info(a)
            stack.extend(c for c, _c_sym in child_syms if c not in seen)
        return seen

    def run(
        self,
        symbols: Optional[Iterable[str]] = None,
        *,
        expand: bool = True,
    ) -> None:
        """Chaotic iteration over the per-symbol product cells.

        ``symbols`` restricts the evaluation to the downward dependency
        closure of the given input symbols (a shard's slice of the
        per-symbol cells); by default every ``din``-reachable symbol is
        registered — the complete fixpoint.

        ``expand=False`` registers *exactly* the given symbols, no
        closure: the incremental warm start pre-installs the clean child
        symbols' complete derived Φ lists (``_eval_cell`` reads them from
        the plain ``derived`` dict, no cell required) and re-runs only
        the dirty cells.
        """
        if symbols is None:
            symbols = self.din.reachable_symbols()
            if not symbols:
                return
        elif expand:
            symbols = self.closure_symbols(symbols)
            if not symbols:
                return
        for a in sorted(symbols, key=repr):
            self._register(a)
        dirty = self._dirty
        dirty_set = self._dirty_set
        cell_elapsed = self.cell_elapsed
        while dirty:
            if self.violation is not None and self.early_exit:
                return
            a = dirty.popleft()
            dirty_set.discard(a)
            tick = time.perf_counter()
            self._eval_cell(a)
            cell_elapsed[a] = (
                cell_elapsed.get(a, 0.0) + time.perf_counter() - tick
            )

    def _eval_cell(self, a: str) -> None:
        cell = self._cells[a]
        idfa = cell.idfa
        in_table = idfa.table
        in_ns = idfa.n_symbols
        in_finals = idfa.finals_mask
        useful_mask = cell.useful_mask
        n_d = idfa.n_states
        derived = self.derived
        record = self.record_edges
        engine = cell.engine
        new_this_eval: Set[int] = set()

        def note_visit(node: int) -> bool:
            new_this_eval.add(node)
            d = node % n_d
            if not in_finals >> d & 1:
                return False
            phi = self.eval_map(a, node // n_d)
            pair = (a, phi)
            if pair not in self._derived_set:
                # Materialize the witness word now: its labels reference
                # only pairs derived strictly earlier (well-foundedness of
                # the counterexample construction).
                self._derived_set.add(pair)
                self.witness[pair] = tuple(cell.engine.path(node))
                derived[a].append(phi)
                self._mark_dependents(a)
                if a == self.din.start and self.bad(phi):
                    self.violation = pair
                    if self.early_exit:
                        return True
            return False

        if engine is None:
            engine = cell.engine = ProductBFS(
                max_nodes=self.max_product_nodes,
                budget_message=(
                    "backward pre-image product exceeded {max_nodes} nodes"
                ),
            )
            before = 0
            seed = self._map_empty * n_d + idfa.initial
            if engine.push(seed, None, note_visit):
                self.work += len(engine.parents) - before
                return
        else:
            engine.max_nodes = self.max_product_nodes
            before = len(engine.parents)

        # Snapshot the Φ lists: pairs derived during this evaluation are
        # handled by the next round (the cell re-queues as its own
        # dependent when self-recursive), keeping every (node, Φ) pair
        # applied exactly once.
        child_data = []
        for c, c_sym in cell.child_syms:
            child_data.append((c, c_sym, len(derived.get(c, ()))))

        # Delta pass: apply Φs derived since the last evaluation to the
        # already-explored nodes; nodes discovered now are expanded by the
        # drain below against the full snapshot.
        existing = [
            node for node in engine.parents if node not in new_this_eval
        ]
        stop = False
        map_step = self._map_step
        for c, c_sym, snap in child_data:
            start = cell.consumed.get(c, 0)
            if start >= snap:
                continue
            cell.consumed[c] = snap
            news = derived[c][start:snap]
            for node in existing:
                d = node % n_d
                d2 = in_table[d * in_ns + c_sym]
                if d2 < 0 or not useful_mask >> d2 & 1:
                    continue
                g = node // n_d
                for phi in news:
                    succ = map_step(g, phi) * n_d + d2
                    label = (c, phi)
                    if record:
                        cell.edges.append((node, label, succ))
                    if engine.push(succ, (node, label), note_visit):
                        stop = True
                        break
                if stop:
                    break
            if stop:
                break

        if not stop:
            def successors(node: int):
                d = node % n_d
                g = node // n_d
                base = d * in_ns
                for c, c_sym, snap in child_data:
                    if not snap:
                        continue
                    d2 = in_table[base + c_sym]
                    if d2 < 0 or not useful_mask >> d2 & 1:
                        continue
                    for phi in derived[c][:snap]:
                        succ = map_step(g, phi) * n_d + d2
                        label = (c, phi)
                        if record:
                            cell.edges.append((node, label, succ))
                        yield succ, label

            engine.drain(successors, note_visit)

        self.work += len(engine.parents) - before
        if self.work > self.max_product_nodes:
            raise BudgetExceededError(
                f"backward pre-image product exceeded "
                f"{self.max_product_nodes} nodes across all input symbols"
            )

    # ------------------------------------------------------------------
    # Cross-process Φ values
    # ------------------------------------------------------------------
    # Interned behavior/map ints are private to one engine instance; the
    # shard fan-out ships Φs between processes as *externalized values*:
    # the plain tuple-of-behavior-tuples they intern.  The components are
    # engine-independent by construction — the domain/σ orders are sorted
    # and the transformation entries are kernel DFA state indices, whose
    # numbering is deterministic from the DTD content (already load-bearing
    # for the forward table merge).
    def externalize(self, phi_int: int) -> Tuple:
        """The engine-independent value of an interned Φ."""
        return tuple(
            self._abs.value(v) for v in self._maps.value(phi_int)
        )

    def internalize(self, phi_value: Tuple) -> int:
        """Intern an externalized Φ into this engine's tables."""
        return self._maps.intern(
            tuple(self._abs.intern(b) for b in phi_value)
        )

    # ------------------------------------------------------------------
    # Witness extraction
    # ------------------------------------------------------------------
    def build_tree(self, pair: PairKey) -> Tree:
        """The concrete input tree recorded for a derived pair.

        Shared sub-witnesses become shared ``Tree`` objects (trees are
        immutable), so the construction is linear in the number of
        distinct pairs even when the unfolded tree repeats subtrees.

        A single engine's witness words reference only pairs derived
        strictly earlier, so the recursion is well-founded; *merged* shard
        tables interleave different derivation schedules, where a cycle is
        theoretically possible on mutually recursive symbols — the guard
        raises :class:`WitnessCycleError` (and ``typecheck_backward``
        falls back to a local extraction run) instead of recursing forever.
        """
        memo: Dict[PairKey, Tree] = {}
        in_progress: Set[PairKey] = set()

        def build(p: PairKey) -> Tree:
            tree = memo.get(p)
            if tree is None:
                if p in in_progress:
                    raise WitnessCycleError(
                        f"witness references cycle through pair {p!r}"
                    )
                in_progress.add(p)
                tree = Tree(p[0], [build(child) for child in self.witness[p]])
                in_progress.discard(p)
                memo[p] = tree
            return tree

        return build(pair)


class WitnessCycleError(RuntimeError):
    """Merged shard witnesses formed a cycle (see ``build_tree``)."""


# ----------------------------------------------------------------------
# Shard fan-out: the per-input-symbol cells as picklable data
# ----------------------------------------------------------------------
# The backward fixpoint partitions naturally along its chaotic-iteration
# unit, the per-input-symbol product cell: a shard evaluates its assigned
# symbols (plus their downward dependency closure) to the complete least
# fixpoint and exports the derived Φs and witness words of the *assigned*
# symbols only — externalized (see BackwardEngine.externalize), so the
# values survive the process boundary.  Partitions cover the reachable
# symbols disjointly, so the merged tables carry every symbol's complete
# derived list and ``typecheck_backward(tables=merged)`` re-internalizes
# them into a fresh engine whose run() is skipped entirely.  Fixpoint
# confluence makes the merged derived *sets* — and hence the verdict —
# bit-identical to an unsharded run.


def backward_check_keys(
    transducer: TreeTransducer,
    din: DTD,
    schema: Optional[BackwardSchema] = None,
) -> List[str]:
    """The backward fan-out's check keys: the reachable input symbols.

    One key per per-symbol product cell, in the deterministic order the
    unsharded ``run()`` registers them (``schema`` is accepted for
    signature parity with :func:`~repro.core.forward.forward_check_keys`;
    the keys depend on ``din`` alone).
    """
    return sorted(din.reachable_symbols(), key=repr)


def backward_key_costs(
    keys: Sequence[str],
    schema: BackwardSchema,
    transducer: TreeTransducer,
) -> List[float]:
    """Predicted fixpoint cost of each per-symbol cell.

    The cell explores (input content DFA of ``a``) × (behavior-map
    tracker); the tracker's size follows the transition monoids of the
    tracked output content DFAs, so the model charges
    ``n_in_states × (1 + Σ_tracked n_out_states)`` per symbol — the
    measurable-shape counterpart of the forward ``n_out^m`` seed model.
    """
    out_alphabet = frozenset(transducer.alphabet | schema.dout.alphabet)
    tracked: Set[str] = set()
    for rhs in transducer.rules.values():
        for _path, node in iter_rhs_nodes(rhs):
            if isinstance(node, (RhsState, RhsCall)):
                continue
            if any(
                isinstance(child, (RhsState, RhsCall))
                for child in node.children
            ):
                tracked.add(node.label)
    monoid = 1 + sum(
        schema.out_kernel(sigma, out_alphabet).n_states
        for sigma in sorted(tracked)
    )
    costs: List[float] = []
    for a in keys:
        idfa, _mask, _child_syms = schema.in_kernel_info(a)
        costs.append(float(max(1, idfa.n_states) * monoid))
    return costs


def compute_backward_tables(
    transducer: TreeTransducer,
    din: DTD,
    dout: DTD,
    keys: Iterable[str],
    *,
    max_product_nodes: int = 500_000,
    schema: Optional[BackwardSchema] = None,
) -> Dict[str, object]:
    """One shard of the backward fixpoint: the cells of ``keys``.

    Saturates the downward dependency closure of the assigned input
    symbols (``early_exit=False`` — the merge needs complete derived
    lists) and exports the assigned symbols' Φs and witness words in
    externalized, picklable form.  A service worker calls this against
    its warm session's schema; the parent merges the shards with
    :func:`merge_backward_tables` and finishes via
    ``typecheck_backward(..., tables=merged)``.
    """
    if transducer.uses_calls():
        from repro.xpath.compile import compile_calls

        transducer = compile_calls(transducer)
    if schema is None:
        schema = BackwardSchema(din, dout)
    keys = list(keys)
    engine = BackwardEngine(
        transducer, din, dout, max_product_nodes,
        schema=schema, early_exit=False,
    )
    start = time.perf_counter()
    with _trace.span("fixpoint", engine="backward") as fix_span:
        engine.run(symbols=keys)
        fix_span.set(
            keys=len(keys),
            work=engine.work,
            key_elapsed_s={
                a: round(engine.cell_elapsed.get(a, 0.0), 6) for a in keys
            },
        )
    assigned = set(keys)
    ext_memo: Dict[int, Tuple] = {}

    def ext(phi_int: int) -> Tuple:
        value = ext_memo.get(phi_int)
        if value is None:
            value = engine.externalize(phi_int)
            ext_memo[phi_int] = value
        return value

    derived = {
        a: [ext(phi) for phi in engine.derived.get(a, ())] for a in assigned
    }
    witness = {
        (a, ext(phi)): tuple((c, ext(p)) for c, p in word)
        for (a, phi), word in engine.witness.items()
        if a in assigned
    }
    return {
        "derived": derived,
        "witness": witness,
        "work": engine.work,
        "elapsed_s": time.perf_counter() - start,
        "key_elapsed_s": {
            a: engine.cell_elapsed.get(a, 0.0) for a in assigned
        },
    }


def merge_backward_tables(
    shards: Iterable[Dict[str, object]],
) -> Dict[str, object]:
    """Union shard snapshots into one backward table set.

    Partitions are disjoint, so per-symbol derived lists concatenate
    trivially (first copy wins on overlap); ``work`` accumulates and the
    per-shard/per-key wall times collect for the planner's stats and the
    profile feedback."""
    merged: Dict[str, object] = {"derived": {}, "witness": {}, "work": 0}
    derived: Dict = merged["derived"]
    witness: Dict = merged["witness"]
    elapsed: List[float] = []
    key_elapsed: Dict[str, float] = {}
    for shard in shards:
        merged["work"] = int(merged["work"]) + int(shard.get("work", 0))
        if "elapsed_s" in shard:
            elapsed.append(float(shard["elapsed_s"]))
        key_elapsed.update(shard.get("key_elapsed_s") or {})
        for a, phis in shard["derived"].items():
            derived.setdefault(a, list(phis))
        witness.update(shard["witness"])
    if elapsed:
        merged["shard_elapsed_s"] = elapsed
    if key_elapsed:
        merged["key_elapsed_s"] = key_elapsed
    return merged


def hydrate_backward_tables(
    engine: BackwardEngine, tables: Dict[str, object]
) -> None:
    """Install merged shard tables into a fresh engine, replacing run().

    Externalized Φ values re-intern into the hydrating engine's own
    tables; the violation scan and witness unfolding then read the engine
    exactly as after a converged run."""
    for a, phis in tables["derived"].items():
        ints = [engine.internalize(value) for value in phis]
        engine.derived[a] = ints
        for phi in ints:
            engine._derived_set.add((a, phi))
    for (a, phi_value), word in tables["witness"].items():
        engine.witness[(a, engine.internalize(phi_value))] = tuple(
            (c, engine.internalize(value)) for c, value in word
        )
    engine.work = int(tables.get("work", 0))
    start = engine.din.start
    for phi in engine.derived.get(start, ()):
        if engine.bad(phi):
            engine.violation = (start, phi)
            break


def _behavior_signature(
    transducer: TreeTransducer,
) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """The ``(domain, sigmas)`` shape of a transducer's behavior values.

    Externalized Φs are tuples over the sorted domain of behaviors whose
    transformations run over the sorted tracked-σ kernels — two
    transducers' tables are exchange-compatible exactly when these match
    (same construction as ``BackwardEngine.__init__``).
    """
    leaves: Set[str] = {transducer.initial}
    tracked: Set[str] = set()
    for rhs in transducer.rules.values():
        for _path, node in iter_rhs_nodes(rhs):
            if isinstance(node, (RhsState, RhsCall)):
                leaves.add(node.state)
            elif any(
                isinstance(child, (RhsState, RhsCall))
                for child in node.children
            ):
                tracked.add(node.label)
    return tuple(sorted(leaves)), tuple(sorted(tracked))


def changed_rule_symbols(
    transducer: TreeTransducer, base: TreeTransducer
) -> Set[str]:
    """Input symbols whose rule column differs between two transducers.

    A backward cell for input symbol ``a`` is a function of the rules of
    every symbol in ``closure_symbols({a})`` (its own rules across all
    states, plus recursively the child symbols' — behaviors mention the
    rules throughout), so a cell survives an edit exactly when its
    closure avoids this set.
    """
    from repro.transducers.transducer import _canonical_rhs

    changed: Set[str] = set()
    for key in set(transducer.rules) | set(base.rules):
        _q, b = key
        if b in changed:
            continue
        new_rhs = transducer.rules.get(key)
        old_rhs = base.rules.get(key)
        if (new_rhs is None) != (old_rhs is None):
            changed.add(b)
        elif new_rhs is not None and _canonical_rhs(new_rhs) != _canonical_rhs(old_rhs):
            changed.add(b)
    return changed


def incremental_backward_tables(
    transducer: TreeTransducer,
    base_transducer: TreeTransducer,
    din: DTD,
    dout: DTD,
    base_tables: Dict[str, object],
    *,
    max_product_nodes: int = 500_000,
    schema: Optional[BackwardSchema] = None,
) -> Optional[Tuple[Dict[str, object], Dict[str, int]]]:
    """Backward tables for ``transducer`` by delta from a base snapshot.

    Diffs the rule columns per input symbol, keeps the derived Φ lists of
    every symbol whose dependency closure avoids the changed symbols (the
    per-symbol fixpoints are untouched by the edit), pre-installs them
    into a fresh engine without registering their cells, and re-runs
    exactly the dirty cells (``run(expand=False)``) — their delta passes
    consume the pre-installed children from the plain ``derived`` dict.
    Saturating (``early_exit=False``-equivalent by construction: the
    export needs complete lists), so the snapshot hydrates into
    :func:`typecheck_backward` exactly like merged shard tables.

    Returns ``(tables, info)`` with reuse counters, or ``None`` when the
    delta path does not apply (XPath calls, alphabet change, behavior
    shape change — domain states or tracked σs differ, which re-indexes
    every externalized value).
    """
    if transducer.uses_calls() or base_transducer.uses_calls():
        return None
    if frozenset(transducer.alphabet) != frozenset(base_transducer.alphabet):
        return None
    if _behavior_signature(transducer) != _behavior_signature(base_transducer):
        return None
    if schema is None:
        schema = BackwardSchema(din, dout)

    changed = changed_rule_symbols(transducer, base_transducer)
    keys = backward_check_keys(transducer, din)

    engine = BackwardEngine(
        transducer, din, dout, max_product_nodes,
        schema=schema, early_exit=False,
    )

    closure_memo: Dict[str, Set[str]] = {}

    def closure(a: str) -> Set[str]:
        cached = closure_memo.get(a)
        if cached is None:
            cached = closure_memo[a] = engine.closure_symbols((a,))
        return cached

    base_derived: Dict[str, List[Tuple]] = base_tables["derived"]  # type: ignore
    base_witness: Dict = base_tables["witness"]  # type: ignore
    clean: Set[str] = set()
    dirty: List[str] = []
    for a in keys:
        if a in base_derived and not (closure(a) & changed):
            clean.add(a)
        else:
            dirty.append(a)

    int_memo: Dict[Tuple, int] = {}

    def internal(value: Tuple) -> int:
        phi = int_memo.get(value)
        if phi is None:
            phi = int_memo[value] = engine.internalize(value)
        return phi

    reused_pairs = 0
    for a in clean:
        ints = [internal(value) for value in base_derived[a]]
        engine.derived[a] = ints
        reused_pairs += len(ints)

    start = time.perf_counter()
    engine.run(symbols=dirty, expand=False)
    # A clean din.start carries its (possibly bad) Φs from the base run;
    # mirror the hydrate-path violation scan.
    if engine.violation is None:
        root = din.start
        for phi in engine.derived.get(root, ()):
            if engine.bad(phi):
                engine.violation = (root, phi)
                break

    ext_memo: Dict[int, Tuple] = {}

    def ext(phi_int: int) -> Tuple:
        value = ext_memo.get(phi_int)
        if value is None:
            value = ext_memo[phi_int] = engine.externalize(phi_int)
        return value

    dirty_set = set(dirty)
    derived = {
        a: (base_derived[a] if a in clean
            else [ext(phi) for phi in engine.derived.get(a, ())])
        for a in keys
    }
    witness = {
        pair: word for pair, word in base_witness.items() if pair[0] in clean
    }
    for (a, phi), word in engine.witness.items():
        if a in dirty_set:
            witness[(a, ext(phi))] = tuple((c, ext(p)) for c, p in word)
    tables = {
        "derived": derived,
        "witness": witness,
        "work": engine.work,
        "elapsed_s": time.perf_counter() - start,
    }
    info = {
        "changed_symbols": len(changed),
        "dirty_symbols": len(dirty),
        "reused_symbols": len(clean),
        "reused_pairs": reused_pairs,
        "product_nodes": engine.work,
    }
    return tables, info


# ----------------------------------------------------------------------
# The public method
# ----------------------------------------------------------------------
def _result_from_snapshot(
    snapshot: Dict[str, object],
    transducer: TreeTransducer,
    stats: Dict[str, object],
    want_counterexample: bool,
) -> TypecheckResult:
    stats["product_nodes"] = 0
    stats.update(snapshot.get("stats") or {})
    if snapshot["typechecks"]:
        return TypecheckResult(True, "backward", stats=stats)
    result = TypecheckResult(
        False, "backward", reason=str(snapshot.get("reason", "")), stats=stats
    )
    if want_counterexample:
        result.counterexample = snapshot.get("counterexample")
        if result.counterexample is not None:
            result.output = transducer.apply(result.counterexample)
    return result


def typecheck_backward(
    transducer: TreeTransducer,
    din: DTD,
    dout: DTD,
    max_product_nodes: int = 500_000,
    want_counterexample: bool = True,
    schema: Optional[BackwardSchema] = None,
    tables: Optional[Dict[str, object]] = None,
) -> TypecheckResult:
    """Sound and complete typechecking by inverse type inference.

    Decides ``∀ t ∈ L(din): T(t) ∈ L(dout)`` as emptiness of the product
    of the pre-image of the bad-output language with ``din`` (see the
    module docstring).  Verdicts agree with :func:`typecheck_forward` and
    the brute-force oracle on every instance both can run (the 200-seed
    differential suite in ``tests/backward/`` enforces this), but no
    tractability class is required: transducers outside every
    ``T^{C,K}_trac`` are accepted, with :class:`BudgetExceededError`
    signalling a blown-up behavior space instead of a class violation.

    ``schema`` is a :class:`BackwardSchema` compiled for exactly these DTD
    objects — a warm :class:`~repro.core.session.Session` passes its own,
    which also enables the per-transducer result cache (an equal-content
    transducer seen before is answered from its stored snapshot,
    ``stats["table_cache"]``).

    ``tables`` injects merged shard tables (see
    :func:`compute_backward_tables` / :func:`merge_backward_tables`): the
    engine hydrates instead of running, the result cache is bypassed, and
    the verdict is bit-identical to an unsharded run by fixpoint
    confluence.
    """
    if transducer.uses_calls():
        from repro.xpath.compile import compile_calls

        transducer = compile_calls(transducer)

    shared_schema = schema is not None
    if schema is None:
        schema = BackwardSchema(din, dout)
    elif schema.din is not din or schema.dout is not dout:
        raise ValueError("schema context was compiled for different DTD objects")

    stats: Dict[str, object] = {
        "algorithm": "backward (inverse type inference)",
        "engine": "kernel",
    }

    if din.is_empty():
        return TypecheckResult(
            True, "backward", reason="input schema is empty", stats=stats
        )

    # Root checks, mirroring the forward engine's preamble: the engine
    # itself would flag these too, but the short-circuits give the same
    # cheap answers (and the same Definition 5 strictness) as forward.
    root_rule = transducer.rules.get((transducer.initial, din.start))
    if root_rule is None:
        witness = minimal_tree(din)
        assert witness is not None
        return TypecheckResult(
            False,
            "backward",
            counterexample=witness,
            output=None,
            reason="no initial rule: the translation is empty",
            stats=stats,
        )
    if len(root_rule) != 1 or not isinstance(root_rule[0], RhsSym):
        raise ClassViolationError(
            "the rule for the input root symbol must produce a single "
            "Σ-rooted tree (Definition 5)"
        )
    if root_rule[0].label != dout.start:
        witness = minimal_tree(din)
        assert witness is not None
        return TypecheckResult(
            False,
            "backward",
            counterexample=witness,
            output=transducer.apply(witness),
            reason=(
                f"output root is {root_rule[0].label!r}, "
                f"output schema starts with {dout.start!r}"
            ),
            stats=stats,
        )

    # Per-transducer result cache (session-shared schemas only — a
    # one-shot private schema is discarded with its cache; injected shard
    # tables carry their own answer and bypass the cache entirely).
    table_key = None
    if shared_schema and tables is None:
        table_key = transducer.content_hash()
        snapshot = schema.cached_result(table_key)
        if snapshot is not None:
            stats["table_cache"] = "hit"
            _table_cache_metric("hit")
            return _result_from_snapshot(
                snapshot, transducer, stats, want_counterexample
            )

    engine = BackwardEngine(
        transducer, din, dout, max_product_nodes, schema=schema
    )
    if tables is None:
        with _trace.span("fixpoint", engine="backward") as fix_span:
            engine.run()
            fix_span.set(work=engine.work)
    else:
        hydrate_backward_tables(engine, tables)
    stats["product_nodes"] = engine.work
    stats["derived_pairs"] = len(engine.witness)
    stats["behaviors"] = len(engine._abs)
    stats["tracked_sigmas"] = len(engine.sigmas)
    stats["tracked_states"] = len(engine.domain)

    cacheable_stats = {
        key: stats[key]
        for key in ("derived_pairs", "behaviors", "tracked_sigmas",
                    "tracked_states")
    }
    if engine.violation is None:
        result = TypecheckResult(True, "backward", stats=stats)
        snapshot = {
            "typechecks": True,
            "reason": "",
            "counterexample": None,
            "stats": cacheable_stats,
        }
    else:
        reason = engine.describe(engine.violation[1])
        try:
            counterexample = engine.build_tree(engine.violation)
        except (WitnessCycleError, KeyError):
            # Merged cross-shard witness schedules can (in theory) cycle
            # on mutually recursive symbols; the verdict stands, so rerun
            # a private engine purely for witness extraction.
            local = typecheck_backward(
                transducer, din, dout, max_product_nodes,
                want_counterexample=True,
            )
            counterexample = local.counterexample
            stats["witness_fallback"] = "local"
        result = TypecheckResult(False, "backward", reason=reason, stats=stats)
        if want_counterexample:
            result.counterexample = counterexample
            result.output = (
                None if counterexample is None
                else transducer.apply(counterexample)
            )
        snapshot = {
            "typechecks": False,
            "reason": reason,
            "counterexample": counterexample,
            "stats": cacheable_stats,
        }
    if table_key is not None:
        schema.store_result(table_key, snapshot)
        stats["table_cache"] = "miss"
        _table_cache_metric("miss")
    return result
