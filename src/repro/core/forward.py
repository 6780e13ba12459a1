"""The Lemma 14 typechecking engine (Theorem 15), demand-driven.

The paper's counterexample automaton guesses, for every input node, up to
``M = C·K`` triples ``(transducer state, A-state ℓ, A-state r)`` asserting
"the output hedge this node contributes in that state takes the output
content-model DFA from ``ℓ`` to ``r``", and defers their verification down
the tree.  Its emptiness check therefore computes exactly which *tuples of
behaviors* are realizable.  This module computes those tuples directly by a
demand-driven least fixpoint over two mutually recursive tables (per output
symbol σ with content DFA ``A = dout(σ)``):

``tree[(σ, b, P)]``
    the set of tuples ``τ = ((ℓ₁,r₁),…,(ℓ_m,r_m))`` such that some tree
    ``t ∈ L(din, b)`` satisfies: for all ``i``, ``top(T^{P_i}(t))`` takes
    ``A`` from ``ℓ_i`` to ``r_i`` (one tree realizes all components jointly);

``hedge[(σ, a, P)]``
    the analogous slot-pair tuples ``π`` realizable by hedges
    ``t₁⋯t_n`` with ``top(t₁)⋯top(t_n) ∈ L(din(a))``, each ``t_j`` valid.

``hedge`` is evaluated by a product BFS (content DFA × one ``A``-state per
slot) whose transitions consume ``tree`` tuples of the children; ``tree`` is
assembled from ``hedge`` of the deferred tuple ``P'`` by chaining the rhs
top-level segments through ``A`` (the paper's step (4)).  The typechecking
condition itself is Section 5's formulation, valid for all DTD inputs:
for every reachable pair ``(q, a)`` and rhs node ``u`` with label σ,
``L_{q,a,u} ⊆ L(dout(σ))`` — checked on the same product (step (3)).

Tuple lengths never exceed ``C·K`` for transducers in ``T^{C,K}_trac``
(Lemma 14's counting argument), which bounds the tables polynomially for
fixed ``C·K``; the engine enforces the bound and reports a clean
:class:`~repro.errors.BudgetExceededError` when an unrestricted transducer
blows up — that is the paper's intractability frontier showing itself.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import BudgetExceededError, ClassViolationError
from repro.kernel.product import ProductBFS
from repro.obs import trace as _trace
from repro.util import lru_get, lru_store
from repro.kernel.serialize import HedgeDecoder
from repro.schemas.dtd import DTD
from repro.strings.dfa import DFA
from repro.transducers.analysis import analyze
from repro.transducers.rhs import RhsSym, iter_rhs_nodes, top_decomposition, top_states
from repro.transducers.transducer import TreeTransducer
from repro.trees.dag import DagHedge, DagTree
from repro.trees.generate import minimal_tree
from repro.trees.tree import Tree
from repro.core.problem import TypecheckResult
from repro.core.reachability import Pair, context_for, reachable_pairs


def _table_cache_metric(outcome: str) -> None:
    """Count a per-transducer table-cache probe under the registry's
    per-engine label."""
    from repro.engines import get_engine

    get_engine('forward').record_table_cache(outcome)

Slot = Tuple[object, object]  # (A-state, A-state)
TupleKey = Tuple[str, str, Tuple[str, ...]]  # (σ, input symbol, P)

#: How many per-transducer table snapshots a ForwardSchema retains (LRU).
TRANSDUCER_TABLE_LIMIT = 64


def input_dfa_useful(din: DTD, a: str, cache: Dict[str, Tuple]) -> Tuple:
    """The input content DFA of ``a`` with its useful-state set (pruning
    dead states keeps the key fan-out at the *live* alphabet).

    ``cache`` is the owning schema context's per-symbol memo.
    """
    cached = cache.get(a)
    if cached is None:
        dfa_in = din.content_dfa(a)
        useful = dfa_in.to_nfa().useful_states()
        cached = cache[a] = (dfa_in, useful)
    return cached


def input_kernel_info(
    din: DTD,
    productive: frozenset,
    a: str,
    kern_cache: Dict[str, Tuple],
    useful_cache: Dict[str, Tuple],
) -> Tuple:
    """Interned input content DFA of ``a`` with its useful-state mask and
    the usable child symbols as ``(symbol, symbol_index)`` pairs.

    The one construction behind both engines' input-side compilation
    (:meth:`DTDPairSchema.in_kernel_info`), so the shape cached under the
    kernel-level ``aux`` memo (keyed ``("forward_in", productive)``,
    shared across schema contexts via the DTD-level DFA cache) has a
    single author.
    """
    cached = kern_cache.get(a)
    if cached is None:
        dfa_in, useful = input_dfa_useful(din, a, useful_cache)
        idfa = dfa_in.kernel()
        aux_key = ("forward_in", productive)
        cached = idfa.aux.get(aux_key)
        if cached is None:
            useful_mask = idfa.states.mask(useful)
            children = sorted(
                {
                    c
                    for (state, c), target in dfa_in.transitions.items()
                    if c in productive and state in useful and target in useful
                },
                key=repr,
            )
            child_syms = tuple((c, idfa.symbols.index(c)) for c in children)
            cached = (idfa, useful_mask, child_syms)
            idfa.aux[aux_key] = cached
        kern_cache[a] = cached
    return cached


@dataclass(frozen=True)
class Violation:
    """A failing local inclusion ``L_{q,a,u} ⊄ dout(σ)``."""

    pair: Pair
    rhs_path: Tuple[int, ...]
    sigma: str
    pi: Tuple[Slot, ...]
    bad_state: object


class HedgeEntry:
    """Fixpoint cell for a ``hedge`` key, including the product graph.

    ``accepted[π]`` stores the witness child word ``[(c, τ), …]``,
    materialized the moment π is first derived — witnesses therefore only
    reference configurations recorded strictly earlier, which keeps the
    recursive counterexample construction well-founded.

    The product graph is kept in interned-int form — nodes are flat int
    tuples ``(d, ℓ₁, r₁, …, ℓ_m, r_m)`` living inside a *persistent*
    :class:`~repro.kernel.product.ProductBFS` engine, so re-evaluations
    only propagate child behaviors added since the last round instead of
    re-running the whole BFS.  The object-level ``nodes`` / ``edges`` /
    ``seeds`` views are decoded lazily through properties — only the
    counterexample-NTA export ever reads those, so typechecking itself
    never pays the decode.

    Entries are **closure-free** and pickle whole: the decode mapping is a
    :class:`~repro.kernel.serialize.HedgeDecoder` holding the two state
    interners as data (the seed captured them in closures, which is why
    shared ProductBFS cells used to be rebuilt per process).  Interners
    assign indices deterministically, so a pickled cell's int tables remain
    valid against the equal automata any other process compiles — the basis
    of the per-transducer table cache and the on-disk artifact cache.
    """

    __slots__ = (
        "accepted",
        "int_accepted",
        "int_accepted_list",
        "int_edges",
        "int_seeds",
        "engine",
        "by_currents",
        "consumed",
        "child_keys",
        "decoder",
        "_nodes",
        "_edges",
        "_seeds",
    )

    def __init__(self) -> None:
        self.accepted: Dict[Tuple[Slot, ...], Tuple[Tuple[str, Tuple], ...]] = {}
        # Kernel state: interned accepted π (dict + insertion-order list for
        # delta slicing by dependent tree cells), accumulated edge list,
        # seeds, the persistent BFS engine, the currents-vector node index,
        # and per-child-key counts of already-propagated τ entries.
        self.int_accepted: Dict[Tuple[int, ...], Tuple[Slot, ...]] = {}
        self.int_accepted_list: List[Tuple[Tuple[int, ...], Tuple[Slot, ...]]] = []
        self.int_edges: List[Tuple] = []  # (src, c, τ_flat, dst)
        self.int_seeds: Set[Tuple[int, ...]] = set()
        self.engine = None  # ProductBFS, created at first kernel evaluation
        self.by_currents: Dict[Tuple[int, ...], List[Tuple[int, ...]]] = {}
        self.consumed: Dict[TupleKey, int] = {}
        self.child_keys: Tuple[TupleKey, ...] = ()
        self.decoder = None  # HedgeDecoder, set at first evaluation
        self._nodes: Optional[Set[Tuple]] = None
        self._edges: Optional[List[Tuple]] = None
        self._seeds: Optional[Set[Tuple]] = None

    def __getstate__(self):
        # The lazily decoded views are pure caches — drop them from the
        # pickle so blobs stay lean and deterministic.
        return tuple(
            None if name in ("_nodes", "_edges", "_seeds") and self.decoder is not None
            else getattr(self, name)
            for name in self.__slots__
        )

    def __setstate__(self, state) -> None:
        for name, value in zip(self.__slots__, state):
            setattr(self, name, value)

    @property
    def nodes(self) -> Set[Tuple]:
        """Product nodes ``(content state, π)`` in object form."""
        if self.decoder is None:
            return self._nodes if self._nodes is not None else set()
        if self._nodes is None:
            decode = self.decoder.node
            self._nodes = {decode(node) for node in self.engine.parents}
        return self._nodes

    @property
    def edges(self) -> List[Tuple]:
        """Product edges ``(src, c, τ, dst)`` in object form."""
        if self.decoder is None:
            return self._edges if self._edges is not None else []
        if self._edges is None:
            decode_node = self.decoder.node
            decode_tau = self.decoder.slots
            self._edges = [
                (decode_node(src), c, decode_tau(tau), decode_node(dst))
                for (src, c, tau, dst) in self.int_edges
            ]
        return self._edges

    @property
    def seeds(self) -> Set[Tuple]:
        """Seed nodes (identity slot pairs) in object form."""
        if self.decoder is None:
            return self._seeds if self._seeds is not None else set()
        if self._seeds is None:
            decode = self.decoder.node
            self._seeds = {decode(node) for node in self.int_seeds}
        return self._seeds


class DTDPairSchema:
    """The schema-side artifacts the forward and backward engines share:
    the productive input symbols and the interned input content DFAs with
    their useful-state masks (the automata themselves live in the
    DTD-level caches, so the two contexts of one pair share them)."""

    def __init__(self, din: DTD, dout: DTD) -> None:
        self.din = din
        self.dout = dout
        self.productive = din.productive_symbols()
        # Input content DFA caches (interned info, DFA + useful states).
        self._in_kern: Dict[str, Tuple] = {}
        self._in_useful: Dict[str, Tuple[DFA, frozenset]] = {}
        self.compiled = False

    def in_kernel_info(self, a: str):
        """Interned input content DFA info (see :func:`input_kernel_info`;
        the kernel-level memo survives across schema contexts)."""
        return input_kernel_info(
            self.din, self.productive, a, self._in_kern, self._in_useful
        )

    def warm(self):
        """Eagerly compile the transducer-independent artifacts: every
        determinized input and output content DFA and the interned input
        kernels with their useful-state masks.

        A query never determinizes after this.  The output DFAs'
        completions (over the transducer's output alphabet) and their
        kernels are built on first use.
        """
        if self.compiled:
            return self
        for a in sorted(self.din.alphabet, key=repr):
            self.in_kernel_info(a)
        for sigma in sorted(self.dout.alphabet, key=repr):
            self.dout.content_dfa(sigma)
        self.compiled = True
        return self


class ForwardSchema(DTDPairSchema):
    """Per-``(din, dout)`` compiled artifacts of the forward engine.

    Everything Lemma 14 derives from the *schemas alone* lives here, so a
    warm :class:`~repro.core.session.Session` can compile it once and share
    it across every transducer checked against the same pair:

    * the productive-symbol set and the reachability word/usable caches
      (:func:`repro.core.reachability.reachable_pairs`);
    * completed output content DFAs (delegated to the DTD-level caches) and
      the universal DFAs backing σ-independent cells;
    * interned input content DFAs with useful-state masks and live child
      symbols;
    * the *shared* fixpoint cells with an empty behavior tuple — their
      least fixpoint mentions no transducer state, so the persistent
      :class:`~repro.kernel.product.ProductBFS` graphs inside them are
      reusable across engines.

    Standalone :func:`typecheck_forward` calls build a private instance, so
    one-shot behavior is unchanged.
    """

    def __init__(self, din: DTD, dout: DTD) -> None:
        super().__init__(din, dout)
        # Reachability caches (schema-only, see core.reachability).
        self.usable_cache: Dict[str, frozenset] = {}
        self.word_cache: Dict[Tuple[str, str], Tuple[str, ...]] = {}
        # Universal output DFAs for σ-independent cells, one per alphabet.
        self._universal: Dict[frozenset, DFA] = {}
        # Shared σ-independent (empty-P) fixpoint cells:
        # hedge key -> HedgeEntry; tree key -> (vals, int, order, index).
        self.shared_hedge: Dict[TupleKey, HedgeEntry] = {}
        self.shared_tree: Dict[TupleKey, Tuple[Dict, Dict, List, Dict]] = {}
        # Per-*transducer* fixpoint tables: transducer
        # content hash -> the complete tables of a successful run, so a
        # repeated identical query skips the fixpoint entirely.  Bounded
        # LRU; entries are complete least fixpoints and stay valid even
        # after reset_shared() (they were snapshotted post-convergence).
        self.transducer_tables: "OrderedDict[str, Dict[str, object]]" = OrderedDict()
        self.transducer_table_limit = TRANSDUCER_TABLE_LIMIT

    def universal_dfa(self, alphabet: frozenset) -> DFA:
        dfa = self._universal.get(alphabet)
        if dfa is None:
            dfa = DFA.universal(alphabet)
            self._universal[alphabet] = dfa
        return dfa

    def out_dfa(self, sigma: Optional[str], out_alphabet: frozenset) -> DFA:
        """The completed output content DFA of σ (universal for ``None``)."""
        if sigma is None:
            # σ-independent cells (empty behavior tuple) never consult the
            # output DFA; a universal one keeps the code paths total.
            return self.universal_dfa(out_alphabet)
        return self.dout.content_dfa_complete(sigma, out_alphabet)

    def in_dfa_useful(self, a: str):
        """The input content DFA of ``a`` with its useful-state set."""
        return input_dfa_useful(self.din, a, self._in_useful)

    def cached_tables(self, table_key: str) -> Optional[Dict[str, object]]:
        """The complete forward tables of a previous run of an equal
        transducer, or ``None`` (LRU-touched on hit)."""
        return lru_get(self.transducer_tables, table_key)

    def store_tables(self, table_key: str, tables: Dict[str, object]) -> None:
        """Retain a successful run's tables under the transducer's hash."""
        lru_store(self.transducer_tables, table_key, tables,
                  self.transducer_table_limit)

    def reset_shared(self) -> None:
        """Drop the shared fixpoint cells (they rebuild on next use).

        Called when an engine aborts mid-fixpoint (budget exceeded,
        interrupt): the delta counters inside a shared cell may then be
        ahead of the edges actually pushed, and reusing such a cell would
        silently under-approximate the fixpoint.  The cells are cheap to
        rebuild; every other artifact in the schema context is append-only
        and stays valid.
        """
        self.shared_hedge.clear()
        self.shared_tree.clear()


class ForwardEngine:
    """Fixpoint engine shared by Theorem 15 typechecking, counterexample
    generation (Cor. 38) and the counterexample-NTA export (Cor. 39)."""

    #: Whether σ-independent (empty-P) cells live in — and are shared
    #: through — the schema context, and whether successful runs snapshot
    #: into its per-transducer table cache.
    shares_schema_cells = True

    def __init__(
        self,
        transducer: TreeTransducer,
        din: DTD,
        dout: DTD,
        max_tuple: Optional[int] = None,
        max_product_nodes: int = 500_000,
        schema: Optional[ForwardSchema] = None,
    ) -> None:
        if schema is None:
            schema = ForwardSchema(din, dout)
        elif schema.din is not din or schema.dout is not dout:
            raise ValueError(
                "schema context was compiled for different DTD objects"
            )
        self.transducer = transducer
        self.din = din
        self.dout = dout
        self.schema = schema
        self.out_alphabet = frozenset(transducer.alphabet | dout.alphabet)
        self.productive = schema.productive
        self.max_tuple = max_tuple
        self.max_product_nodes = max_product_nodes
        self._shared = schema if self.shares_schema_cells else None
        self.work = 0

        self._out_dfa: Dict[str, DFA] = {}
        self._decomp: Dict[Tuple[str, str], Tuple[Tuple[Tuple[str, ...], ...], Tuple[str, ...]]] = {}
        # Per-(σ, state, b) segment-run maps (σ depends on the transducer's
        # rhs labels, so these stay per-engine).
        self._seg: Dict[Tuple[str, str, str], Tuple[List[List[int]], int]] = {}

        self.tree_vals: Dict[TupleKey, Dict[Tuple[Slot, ...], Tuple[Slot, ...]]] = {}
        # tree_vals[key][τ] = witness π in hedge((σ, b, P')).
        self.hedge_vals: Dict[TupleKey, HedgeEntry] = {}
        # Interned mirror of tree_vals: flat int-tuple τ -> flat int-tuple π,
        # with an insertion-order list (for delta propagation into hedge
        # cells) and an index by entry-state vector ℓ₁…ℓ_m (for BFS lookups).
        self._tree_int: Dict[TupleKey, Dict[Tuple[int, ...], Tuple[int, ...]]] = {}
        self._tree_order: Dict[TupleKey, List[Tuple[int, ...]]] = {}
        self._tree_index: Dict[TupleKey, Dict[Tuple[int, ...], List[Tuple[int, ...]]]] = {}
        # How many accepted π of the supplying hedge cell each tree cell has
        # already assembled (the tree-side delta counter).
        self._tree_consumed: Dict[TupleKey, int] = {}
        self._dependents: Dict[Tuple[str, TupleKey], Set[Tuple[str, TupleKey]]] = {}
        self._dirty: deque = deque()
        self._dirty_set: Set[Tuple[str, TupleKey]] = set()
        self._registered: Set[Tuple[str, TupleKey]] = set()

    # ------------------------------------------------------------------
    # Cached views
    # ------------------------------------------------------------------
    def out_dfa(self, sigma: Optional[str]) -> DFA:
        dfa = self._out_dfa.get(sigma)
        if dfa is None:
            dfa = self.schema.out_dfa(sigma, self.out_alphabet)
            self._out_dfa[sigma] = dfa
        return dfa

    def key_for(self, sigma: str, symbol: str, P: Tuple[str, ...]) -> TupleKey:
        """Canonical cell key for ``(σ, symbol, P)``.

        A cell with an empty behavior tuple carries no σ-specific
        information — its only content is "does a valid tree/hedge exist" —
        so it is shared across all output symbols (σ → ``None``).
        For non-deleting transducers every cell below the root checks has
        ``P = ()``, which collapses the (σ, input symbol) product to a
        single chain.
        """
        if not P:
            return (None, symbol, P)
        return (sigma, symbol, P)

    def decomposition(
        self, state: str, symbol: str
    ) -> Tuple[Tuple[Tuple[str, ...], ...], Tuple[str, ...]]:
        """Segments/deferred-states of ``top(rhs(state, symbol))``; a missing
        rule contributes the empty translation (one empty segment)."""
        key = (state, symbol)
        cached = self._decomp.get(key)
        if cached is None:
            rhs = self.transducer.rules.get(key)
            if rhs is None:
                cached = (((),), ())
            else:
                cached = (top_decomposition(rhs), top_states(rhs))
            self._decomp[key] = cached
        return cached

    def deferred_tuple(self, P: Tuple[str, ...], symbol: str) -> Tuple[str, ...]:
        """The concatenated deferred tuple P' for processing ``symbol``."""
        out: List[str] = []
        for state in P:
            out.extend(self.decomposition(state, symbol)[1])
        result = tuple(out)
        if self.max_tuple is not None and len(result) > self.max_tuple:
            raise BudgetExceededError(
                f"behavior tuple grew to {len(result)} > {self.max_tuple} "
                "(transducer outside the configured T_trac class)"
            )
        return result

    # ------------------------------------------------------------------
    # Fixpoint plumbing
    # ------------------------------------------------------------------
    def _register(self, kind: str, key: TupleKey) -> None:
        node = (kind, key)
        if node in self._registered:
            return
        self._registered.add(node)
        # Cells with an empty behavior tuple mention no transducer state:
        # their least fixpoint is a function of the schemas alone, so they
        # live in the schema context and are shared (with their persistent
        # ProductBFS graphs) across engines.
        shared = self._shared if not key[2] else None
        if kind == "tree":
            if shared is not None:
                cell = shared.shared_tree.get(key)
                if cell is None:
                    cell = shared.shared_tree[key] = ({}, {}, [], {})
                vals, int_table, order, index = cell
            else:
                vals, int_table, order, index = ({}, {}, [], {})
            self.tree_vals[key] = vals
            self._tree_int[key] = int_table
            self._tree_order[key] = order
            self._tree_index[key] = index
        else:
            if shared is not None:
                entry = shared.shared_hedge.get(key)
                if entry is None:
                    entry = shared.shared_hedge[key] = HedgeEntry()
            else:
                entry = HedgeEntry()
            self.hedge_vals[key] = entry
        self._dirty.append(node)
        self._dirty_set.add(node)

    def _depend(self, read: Tuple[str, TupleKey], reader: Tuple[str, TupleKey]) -> None:
        self._register(*read)
        self._dependents.setdefault(read, set()).add(reader)

    def request_hedge(self, sigma: str, symbol: str, P: Tuple[str, ...]) -> TupleKey:
        key = self.key_for(sigma, symbol, P)
        self._register("hedge", key)
        return key

    def run(self) -> None:
        """Run the chaotic iteration to the least fixpoint."""
        dirty = self._dirty
        dirty_set = self._dirty_set
        while dirty:
            node = dirty.popleft()
            dirty_set.discard(node)
            kind, key = node
            grew = (
                self._eval_tree(key) if kind == "tree" else self._eval_hedge(key)
            )
            if grew:
                for dependent in self._dependents.get(node, ()):
                    if dependent not in dirty_set:
                        dirty.append(dependent)
                        dirty_set.add(dependent)

    # ------------------------------------------------------------------
    # Evaluation on interned ints (the object-state transcription of the
    # same fixpoint is the differential oracle in repro.kernel.reference)
    # ------------------------------------------------------------------
    # -- kernel caches --------------------------------------------------
    def _out_kernel(self, sigma: str):
        """Interned view of the (complete) output content DFA of σ."""
        return self.out_dfa(sigma).kernel()

    def _in_kernel_info(self, a: str):
        """Interned input content DFA info, compiled once per schema pair."""
        return self.schema.in_kernel_info(a)

    def _segment_maps(self, sigma: str, state: str, b: str):
        """Per-segment end-state arrays: ``maps[j][x]`` is the output DFA
        state after reading segment ``j`` of ``top(rhs(state, b))`` from
        ``x``.  Computed once per (σ, state, b), so assembling a τ never
        re-runs a segment word."""
        key = (sigma, state, b)
        cached = self._seg.get(key)
        if cached is None:
            segments, defers = self.decomposition(state, b)
            idfa = self._out_kernel(sigma)
            maps: List[List[int]] = []
            for segment in segments:
                word = idfa.intern_word(segment)
                assert word is not None, "output DFA is complete over Σ_out"
                maps.append([idfa.run(word, start=x) for x in range(idfa.n_states)])
            cached = (maps, len(defers))
            self._seg[key] = cached
        return cached

    @staticmethod
    def _decode_slots(idfa, flat: Tuple[int, ...]) -> Tuple[Slot, ...]:
        """Flat int tuple ``(ℓ₁, r₁, …)`` back to object slot pairs."""
        value = idfa.states.value
        return tuple(
            (value(flat[i]), value(flat[i + 1])) for i in range(0, len(flat), 2)
        )

    # -- tree cells -----------------------------------------------------
    def _eval_tree(self, key: TupleKey) -> bool:
        sigma, b, P = key
        if b not in self.productive:
            return False
        deferred = self.deferred_tuple(P, b)
        hedge_key = self.key_for(sigma, b, deferred)
        self._depend(("hedge", hedge_key), ("tree", key))
        entry = self.hedge_vals[hedge_key]
        accepted_list = entry.int_accepted_list
        start = self._tree_consumed.get(key, 0)
        if start >= len(accepted_list):
            return False
        idfa = self._out_kernel(sigma)
        int_table = self._tree_int[key]
        order = self._tree_order[key]
        index = self._tree_index[key]
        table = self.tree_vals[key]
        segdata = [self._segment_maps(sigma, state, b) for state in P]
        n_out = idfa.n_states
        decode_slots = self._decode_slots
        grew = False
        # τ derivation depends only on π and the (static) segment maps, so
        # each accepted π is assembled exactly once, at the delta boundary.
        for pi_flat, pi in accepted_list[start:]:
            for tau_flat in self._assemble_int(segdata, pi_flat, n_out):
                if tau_flat not in int_table:
                    int_table[tau_flat] = pi_flat
                    order.append(tau_flat)
                    index.setdefault(tau_flat[0::2], []).append(tau_flat)
                    table[decode_slots(idfa, tau_flat)] = pi
                    grew = True
        self._tree_consumed[key] = len(accepted_list)
        if len(int_table) > self.max_product_nodes:
            raise BudgetExceededError(
                f"behavior table for {key!r} exceeded "
                f"{self.max_product_nodes} tuples"
            )
        return grew

    @staticmethod
    def _assemble_int(segdata, pi_flat: Tuple[int, ...], n_out: int):
        """Interned step (4): all τ flat tuples derivable from hedge
        behavior ``pi_flat`` by chaining segment maps."""
        per_component: List[List[Tuple[int, int]]] = []
        offset = 0
        for maps, k in segdata:
            slots = pi_flat[2 * offset : 2 * (offset + k)]
            offset += k
            first = maps[0]
            pairs: List[Tuple[int, int]] = []
            for start in range(n_out):
                x = first[start]
                ok = True
                for j in range(k):
                    if slots[2 * j] != x:
                        ok = False
                        break
                    x = maps[j + 1][slots[2 * j + 1]]
                if ok:
                    pairs.append((start, x))
            if not pairs:
                return
            per_component.append(pairs)
        for combo in itertools.product(*per_component):
            yield tuple(v for pair in combo for v in pair)

    def assembled_taus(
        self, sigma: Optional[str], b: str, P: Tuple[str, ...],
        pi_flat: Tuple[int, ...],
    ) -> Set[Tuple[Slot, ...]]:
        """Every τ of tree cell ``(σ, b, P)`` derivable from the interned
        hedge behavior ``pi_flat`` (step (4)), as object slot tuples — the
        counterexample-NTA export's view of :meth:`_assemble_int`."""
        idfa = self._out_kernel(sigma)
        segdata = [self._segment_maps(sigma, state, b) for state in P]
        decode_slots = self._decode_slots
        return {
            decode_slots(idfa, tau_flat)
            for tau_flat in self._assemble_int(segdata, pi_flat, idfa.n_states)
        }

    # -- hedge cells ----------------------------------------------------
    def _eval_hedge(self, key: TupleKey) -> bool:
        sigma, a, P = key
        entry = self.hedge_vals[key]
        if entry.engine is not None:
            # A shared entry may have been created under a different
            # per-call budget; the current engine's budget governs.
            entry.engine.max_nodes = self.max_product_nodes
            # Fast no-op exit: nothing new in any child table since the last
            # evaluation (the chaotic iteration re-enqueues liberally).  A
            # shared entry may predate this engine, in which case a child
            # cell can be unregistered here — fall through to the full pass,
            # which registers the dependencies.
            consumed = entry.consumed
            orders = self._tree_order
            for child_key in entry.child_keys:
                order = orders.get(child_key)
                if order is None or consumed.get(child_key, 0) < len(order):
                    break
            else:
                return False
        idfa_in, useful_mask, child_syms = self._in_kernel_info(a)
        idfa_out = self._out_kernel(sigma)
        m = len(P)
        n_out = idfa_out.n_states

        decode_slots = self._decode_slots
        int_edges = entry.int_edges
        int_accepted = entry.int_accepted
        accepted = entry.accepted
        by_currents = entry.by_currents
        in_table = idfa_in.table
        in_n_symbols = idfa_in.n_symbols
        in_finals = idfa_in.finals_mask
        grew = False
        new_this_eval: Set[Tuple[int, ...]] = set()

        engine = entry.engine
        first_eval = engine is None
        if first_eval:
            # Seed-count guard: the seed count |Q_A|^m is the paper's
            # |dout|^{2M} factor, so super-polynomial instances fail fast.
            if n_out ** m > self.max_product_nodes:
                raise BudgetExceededError(
                    f"{n_out}^{m} behavior seeds exceed the "
                    f"product budget {self.max_product_nodes} — the instance "
                    "sits outside the tractable (fixed C·K) regime"
                )
            engine = entry.engine = ProductBFS(
                max_nodes=self.max_product_nodes,
                budget_message="hedge product exceeded {max_nodes} nodes",
            )
            # Closure-free decode descriptor: interners as data, so the
            # whole cell pickles (table cache, artifact side files).
            entry.decoder = HedgeDecoder(idfa_in.states, idfa_out.states)

        parents = engine.parents
        nodes_before = len(parents)

        def note_accept(node: Tuple[int, ...]) -> bool:
            nonlocal grew
            new_this_eval.add(node)
            by_currents.setdefault(node[2::2], []).append(node)
            if not in_finals >> node[0] & 1:
                return False
            pairs = node[1:]
            if pairs not in int_accepted:
                # Materialize the witness now: it references only
                # configurations that already exist (well-foundedness).
                pi = decode_slots(idfa_out, pairs)
                int_accepted[pairs] = pi
                entry.int_accepted_list.append((pairs, pi))
                accepted[pi] = tuple(
                    (c, decode_slots(idfa_out, tau_flat))
                    for c, tau_flat in engine.path(node)
                )
                grew = True
            return False

        child_data = []
        for c, c_sym in child_syms:
            child_key = self.key_for(sigma, c, P)
            self._depend(("tree", child_key), ("hedge", key))
            child_data.append((c, c_sym, child_key, self._tree_index[child_key]))
        entry.child_keys = tuple(item[2] for item in child_data)

        if first_eval:
            d0 = idfa_in.initial
            for combo in itertools.product(range(n_out), repeat=m):
                node = (d0,) + tuple(v for x in combo for v in (x, x))
                entry.int_seeds.add(node)
                engine.push(node, None, note_accept)

        # Delta pass: push child behaviors added since the last evaluation
        # through the *already-explored* nodes; nodes discovered during this
        # evaluation are skipped here — the drain below expands them against
        # the full tables, so every (node, τ) pair is applied exactly once.
        consumed = entry.consumed
        for c, c_sym, child_key, _index in child_data:
            order = self._tree_order[child_key]
            start = consumed.get(child_key, 0)
            if start >= len(order):
                continue
            consumed[child_key] = len(order)
            for tau_flat in order[start:]:
                ells = tau_flat[0::2]
                candidates = by_currents.get(ells)
                if not candidates:
                    continue
                label = (c, tau_flat)
                new_currents = tau_flat[1::2]
                for i in range(len(candidates)):
                    node = candidates[i]
                    if node in new_this_eval:
                        continue
                    d2 = in_table[node[0] * in_n_symbols + c_sym]
                    if d2 < 0 or not useful_mask >> d2 & 1:
                        continue
                    succ = (d2,) + tuple(
                        v for pair in zip(node[1::2], new_currents) for v in pair
                    )
                    int_edges.append((node, c, tau_flat, succ))
                    engine.push(succ, (node, label), note_accept)

        def successors(node: Tuple[int, ...]):
            base = node[0] * in_n_symbols
            starts = node[1::2]
            currents = node[2::2]
            for c, c_sym, _child_key, index in child_data:
                d2 = in_table[base + c_sym]
                if d2 < 0 or not useful_mask >> d2 & 1:
                    continue
                for tau_flat in index.get(currents, ()):
                    succ = (d2,) + tuple(
                        v
                        for pair in zip(starts, tau_flat[1::2])
                        for v in pair
                    )
                    int_edges.append((node, c, tau_flat, succ))
                    yield succ, (c, tau_flat)

        engine.drain(successors, note_accept)
        self.work += len(parents) - nodes_before
        # Invalidate the lazily decoded views (the graph may have grown).
        entry._nodes = entry._edges = None
        return grew

    # ------------------------------------------------------------------
    # Witness extraction (Corollary 38)
    # ------------------------------------------------------------------
    def hedge_witness(
        self, key: TupleKey, pi: Tuple[Slot, ...]
    ) -> Tuple[Tuple[str, Tuple[Slot, ...]], ...]:
        """The child word (with per-child τ) realizing π."""
        return self.hedge_vals[key].accepted[pi]

    def build_dag_tree(
        self, sigma: str, b: str, P: Tuple[str, ...], tau, _memo=None
    ) -> DagTree:
        """A concrete input tree realizing configuration (σ, b, P, τ),
        with subtree sharing.

        The construction is a function of the *canonical* cell key and the
        realized tuple alone (empty-``P`` cells canonicalize σ away and
        keep their deferred tuple empty), so one memo entry per
        ``(key, τ)`` makes repeated configurations share a single
        :class:`DagTree` node — a failing copying instance's witness stays
        linear in the fixpoint size instead of exponential in the depth.
        """
        memo: Dict[Tuple, object] = {} if _memo is None else _memo
        key = self.key_for(sigma, b, P)
        mkey = ("t", key, tau)
        cached = memo.get(mkey)
        if cached is None:
            pi = self.tree_vals[key][tau]
            deferred = self.deferred_tuple(P, b)
            cached = DagTree(
                b, self.build_dag_hedge(sigma, b, deferred, pi, memo)
            )
            memo[mkey] = cached
        return cached

    def build_dag_hedge(
        self, sigma: str, a: str, P: Tuple[str, ...], pi, _memo=None
    ) -> DagHedge:
        memo: Dict[Tuple, object] = {} if _memo is None else _memo
        key = self.key_for(sigma, a, P)
        mkey = ("h", key, pi)
        cached = memo.get(mkey)
        if cached is None:
            cached = DagHedge(
                self.build_dag_tree(sigma, c, P, tau, memo)
                for c, tau in self.hedge_witness(key, pi)
            )
            memo[mkey] = cached
        return cached


# ----------------------------------------------------------------------
# Fixpoint tables as data: snapshot / hydrate
# ----------------------------------------------------------------------
# The engine's least fixpoint is an ordinary value: a map from cell keys to
# (closure-free, picklable) cell contents.  These helpers move that value
# into the per-transducer table cache (and its on-disk side files) and
# back into a fresh engine whose ``run()`` is then skipped entirely.


def export_forward_tables(engine: ForwardEngine) -> Dict[str, object]:
    """Snapshot every cell the engine materialized, in picklable form.

    The snapshot shares the live cell objects (hedge entries, tree-cell
    4-tuples) rather than copying: after a converged run they are complete
    least fixpoints and are never mutated again — later engines for other
    transducers re-derive nothing new in them.
    """
    return {
        "hedge": dict(engine.hedge_vals),
        "tree": {
            key: (
                engine.tree_vals[key],
                engine._tree_int[key],
                engine._tree_order[key],
                engine._tree_index[key],
            )
            for key in engine.tree_vals
        },
    }


def hydrate_forward_tables(engine: ForwardEngine, tables: Dict[str, object]) -> None:
    """Install snapshotted tables into a fresh engine, replacing ``run()``.

    The engine must not have registered any cells yet; after hydration the
    root-check scan and the recursive counterexample construction read the
    tables exactly as they would after a converged ``run()``.  The engine's
    ``work`` stays 0: nothing was computed for *this* call.
    """
    engine.hedge_vals.update(tables["hedge"])
    for key, (vals, int_table, order, index) in tables["tree"].items():
        engine.tree_vals[key] = vals
        engine._tree_int[key] = int_table
        engine._tree_order[key] = order
        engine._tree_index[key] = index


def _chain_top_level(
    dfa: DFA, segments, pi: Tuple[Slot, ...]
) -> Optional[object]:
    """Final DFA state of the output children word of an rhs node, for a
    given hedge behavior π (the paper's step (3) chaining); ``None`` when π
    is inconsistent with the segment chaining."""
    x = dfa.run(segments[0], start=dfa.initial)
    for j, (slot_start, slot_end) in enumerate(pi):
        if slot_start != x:
            return None
        x = dfa.run(segments[j + 1], start=slot_end)
    return x


def typecheck_forward(
    transducer: TreeTransducer,
    din: DTD,
    dout: DTD,
    max_tuple: Optional[int] = None,
    max_product_nodes: int = 500_000,
    want_counterexample: bool = True,
    schema: Optional[ForwardSchema] = None,
) -> TypecheckResult:
    """Sound and complete typechecking of ``T`` w.r.t. DTDs (Theorem 15).

    ``max_tuple`` defaults to ``C·K`` from Proposition 16 when the transducer
    lies in some ``T^{C,K}_trac``; for transducers with unbounded deletion
    path width pass an explicit budget to run the engine as a (possibly
    exponential) complete procedure — :class:`BudgetExceededError` signals
    the blow-up.

    The fixpoint runs on the interned kernel (:class:`ForwardEngine`); the
    object-state transcription of the same least fixpoint lives in
    :mod:`repro.kernel.reference` as the differential-testing oracle.

    ``schema`` is a :class:`ForwardSchema` compiled for exactly these DTD
    objects — a warm :class:`~repro.core.session.Session` passes its own so
    repeated calls skip all schema-side setup; omitted, a private one is
    built and the call behaves exactly as before.  With a shared schema the
    call also consults the per-transducer table cache: an equal-content
    transducer seen before is answered from its stored least fixpoint
    without running the engine (complete tables carry the verdict
    regardless of the per-call budgets, so a hit bypasses
    ``max_product_nodes``).
    """
    return _typecheck_with(
        ForwardEngine, transducer, din, dout, max_tuple, max_product_nodes,
        want_counterexample, schema,
    )


def _typecheck_with(
    engine_cls: type,
    transducer: TreeTransducer,
    din: DTD,
    dout: DTD,
    max_tuple: Optional[int],
    max_product_nodes: int,
    want_counterexample: bool,
    schema: Optional[ForwardSchema],
) -> TypecheckResult:
    """:func:`typecheck_forward` around a given fixpoint engine class: the
    preamble, the root-check scan, the violation search and the
    counterexample construction, shared with the object-state oracle."""
    if transducer.uses_calls():
        from repro.xpath.compile import compile_calls

        transducer = compile_calls(transducer)

    shared_schema = schema is not None
    if schema is None:
        schema = ForwardSchema(din, dout)

    analysis = analyze(transducer)
    if max_tuple is None:
        if analysis.deletion_path_width is None:
            raise ClassViolationError(
                "transducer has unbounded deletion path width (not in any "
                "T^{C,K}_trac); pass max_tuple to run the general engine"
            )
        max_tuple = max(1, analysis.copying_width * analysis.deletion_path_width)

    stats = {
        "algorithm": "forward (Lemma 14)",
        "copying_width": analysis.copying_width,
        "deletion_path_width": analysis.deletion_path_width,
        "max_tuple": max_tuple,
        "engine": "kernel",
    }

    # Empty input language: vacuously typechecks.
    if din.is_empty():
        return TypecheckResult(
            True, "forward", reason="input schema is empty", stats=stats
        )

    # Root-level checks.  The minimal witness tree is only built on demand:
    # its explicit form can be huge (it is shared internally, but callers
    # may traverse it), and passing instances never need it.
    root_rule = transducer.rules.get((transducer.initial, din.start))
    if root_rule is None:
        witness = minimal_tree(din)
        assert witness is not None
        return TypecheckResult(
            False,
            "forward",
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
    root_out = root_rule[0]
    if root_out.label != dout.start:
        witness = minimal_tree(din)
        assert witness is not None
        return TypecheckResult(
            False,
            "forward",
            counterexample=witness,
            output=transducer.apply(witness),
            reason=(
                f"output root is {root_out.label!r}, "
                f"output schema starts with {dout.start!r}"
            ),
            stats=stats,
        )

    engine = engine_cls(
        transducer, din, dout, max_tuple, max_product_nodes, schema=schema
    )
    pairs = reachable_pairs(
        transducer, din,
        usable_cache=schema.usable_cache, word_cache=schema.word_cache,
    )
    checks: List[Tuple[Pair, Tuple[int, ...], str, Tuple, Tuple[str, ...], TupleKey]] = []
    for (q, a) in pairs:
        rhs = transducer.rules.get((q, a))
        if rhs is None:
            continue
        for path, node in iter_rhs_nodes(rhs):
            if not isinstance(node, RhsSym):
                continue
            segments = top_decomposition(node.children)
            P = top_states(node.children)
            key = engine.key_for(node.label, a, P)
            checks.append(((q, a), path, node.label, segments, P, key))

    # Per-transducer table cache (session-shared schema only: a one-shot
    # private schema is discarded with its cache).  A hit reuses
    # the complete least fixpoint of a previous run of an equal-content
    # transducer, so no fixpoint work happens at all.
    table_key = tables = None
    if shared_schema and engine_cls.shares_schema_cells:
        table_key = transducer.content_hash()
        tables = schema.cached_tables(table_key)

    if tables is not None:
        stats["table_cache"] = "hit"
        _table_cache_metric("hit")
        hydrate_forward_tables(engine, tables)
    else:
        with _trace.span("fixpoint", engine="forward") as fix_span:
            for _pair, _path, _sigma, _segments, _P, key in checks:
                engine.request_hedge(*key)
            try:
                engine.run()
            except BaseException:
                # A mid-fixpoint abort can leave the schema's shared cells
                # with delta counters ahead of the edges actually pushed;
                # drop them so later calls on a warm session rebuild
                # instead of reusing corrupted state.
                schema.reset_shared()
                raise
            fix_span.set(work=engine.work)
        if table_key is not None:
            schema.store_tables(table_key, export_forward_tables(engine))
            stats["table_cache"] = "miss"
            _table_cache_metric("miss")
    stats["product_nodes"] = engine.work
    stats["reachable_pairs"] = len(pairs)

    violations: List[Violation] = []
    for pair, path, sigma, segments, P, key in checks:
        dfa = engine.out_dfa(sigma)
        entry = engine.hedge_vals[key]
        for pi in entry.accepted:
            final = _chain_top_level(dfa, segments, pi)
            if final is not None and final not in dfa.finals:
                violations.append(Violation(pair, path, sigma, pi, final))
                break  # one violating π per rhs node suffices

    stats["violations"] = len(violations)
    if not violations:
        return TypecheckResult(True, "forward", stats=stats)

    result = TypecheckResult(
        False,
        "forward",
        reason=_describe(violations[0]),
        stats=stats,
    )
    if want_counterexample:
        violation = violations[0]
        (q, a) = violation.pair
        deferred_key = (violation.sigma, a, _pi_states(transducer, q, a, violation.rhs_path))
        # Witnesses are built with subtree sharing: repeated (cell, τ)
        # configurations become one shared DagTree node, so the failing
        # copying families' counterexamples stay linear in the fixpoint
        # size (their unfoldings are exponential).
        subtree = DagTree(
            a,
            engine.build_dag_hedge(
                violation.sigma, a, deferred_key[2], violation.pi
            ),
        )
        context, hole = context_for(violation.pair, pairs, din)
        counterexample = _graft_dag(context, hole, subtree)
        result.counterexample = counterexample
        result.output = transducer.apply_dag(counterexample)
    return result


def _graft_dag(context: Tree, hole: Tuple[int, ...], subtree: DagTree) -> DagTree:
    """Replace the hole of an explicit context tree by a DAG subtree.

    The context's filler trees are shared objects (``context_for`` caches
    one minimal tree per symbol), so the conversion memoizes on node
    identity and the grafted counterexample stays DAG-small.
    """
    memo: Dict[int, DagTree] = {}

    def convert(node: Tree) -> DagTree:
        cached = memo.get(id(node))
        if cached is None:
            cached = DagTree(
                node.label, DagHedge(convert(c) for c in node.children)
            )
            memo[id(node)] = cached
        return cached

    def build(node: Tree, path: Tuple[int, ...]) -> DagTree:
        if not path:
            return subtree
        index, rest = path[0], path[1:]
        parts = [
            build(child, rest) if i == index else convert(child)
            for i, child in enumerate(node.children)
        ]
        return DagTree(node.label, DagHedge(parts))

    return build(context, hole)


def _pi_states(transducer, q, a, path) -> Tuple[str, ...]:
    from repro.transducers.rhs import node_at

    node = node_at(transducer.rules[(q, a)], path)
    assert isinstance(node, RhsSym)
    return top_states(node.children)


def _describe(violation: Violation) -> str:
    q, a = violation.pair
    return (
        f"children of a {violation.sigma!r}-node produced by rhs({q!r}, {a!r}) "
        f"at {violation.rhs_path} can violate dout({violation.sigma!r})"
    )
