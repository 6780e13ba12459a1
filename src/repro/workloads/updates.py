"""Update-validation and edit-chain workload families.

Three generators back the ``repro.updates`` scenario class:

* :func:`document_pair` / :func:`safe_script` / :func:`unsafe_script` —
  a concrete editorial document schema with a canonical safe revision
  script (rename/prune/wrap) and an unsafe variant (drops the required
  title), for demos and the service round-trip tests.
* :func:`edit_arm_pair` / :func:`edit_arm_transducer` — the *edit-arm*
  family: ``arms`` independent processing states over disjoint input
  branches, so a single-rule edit changes exactly one arm's rules —
  the ``BENCH_incremental.json`` family, which times a warm re-check of
  such an edit against a fresh session's compile and check.
* :func:`random_edit_chain` — seeded chains of single-rule mutations
  over the shared :func:`~repro.workloads.random_instances.seeded_instance`
  derivation, for the 200-seed ``retypecheck``-vs-cold differential.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.schemas.dtd import DTD
from repro.transducers.rhs import RhsHedge, RhsState, RhsSym
from repro.transducers.transducer import TreeTransducer
from repro.updates.ops import EditScript, parse_update_script
from repro.workloads.random_instances import seeded_instance

__all__ = [
    "document_pair",
    "safe_script",
    "unsafe_script",
    "edit_arm_pair",
    "edit_arm_transducer",
    "random_edit_chain",
]


# ----------------------------------------------------------------------
# A concrete editorial schema with canonical revision scripts
# ----------------------------------------------------------------------
def document_pair() -> Tuple[DTD, DTD]:
    """``(din, dout)`` for the canonical update-validation demo.

    ``din`` is the authoring schema (sections of paragraphs, notes and
    figures); ``dout`` is the publication schema the revision scripts
    must land in (paragraphs renamed to ``p``, notes pruned, figures
    wrapped).
    """
    din = DTD(
        {
            "doc": "sec+",
            "sec": "title (para | note | fig)*",
            "title": "ε",
            "para": "ε",
            "note": "ε",
            "fig": "cap?",
            "cap": "ε",
        },
        start="doc",
    )
    dout = DTD(
        {
            "doc": "sec+",
            "sec": "title (p | figure)*",
            "title": "ε",
            "p": "ε",
            "figure": "fig",
            "fig": "cap?",
            "cap": "ε",
        },
        start="doc",
    )
    return din, dout


def safe_script() -> EditScript:
    """The canonical safe revision: conforms to :func:`document_pair`'s
    ``dout`` for every ``din`` document."""
    return parse_update_script(
        """
        rename para -> p
        delete-tree note under sec
        wrap fig figure
        """
    )


def unsafe_script() -> EditScript:
    """The canonical *unsafe* revision: additionally splices out the
    section titles ``dout`` requires — typechecking yields a
    counterexample document."""
    return parse_update_script(
        """
        rename para -> p
        delete-tree note under sec
        wrap fig figure
        delete-node title under sec
        """
    )


# ----------------------------------------------------------------------
# The edit-arm family (BENCH_incremental.json)
# ----------------------------------------------------------------------
def edit_arm_pair(arms: int = 12) -> Tuple[DTD, DTD]:
    """``(din, dout)`` of the edit-arm family.

    The input root fans out into ``arms`` branches ``a_i``, each over a
    shared recursive symbol ``c``; the transducer processes branch ``i``
    with its own state ``r_i``, so the forward fixpoint splits into one
    independent cell group per arm and a one-arm edit leaves the other
    ``arms - 1`` groups' tables bit-identical.
    """
    rules = {"root": " ".join(f"a{i}" for i in range(arms)), "c": "(c c)?"}
    for i in range(arms):
        rules[f"a{i}"] = "c c"
    din = DTD(rules, start="root")
    dout = DTD(
        {"root": "t*", "t": "u u u u", "u": "(u u)*"},
        start="root",
    )
    return din, dout


def edit_arm_transducer(
    arms: int = 12,
    edited: Optional[int] = None,
    variant: str = "safe",
) -> TreeTransducer:
    """The edit-arm transducer, optionally with one arm's rule edited.

    ``edited=None`` is the base (every arm copies its subtree twice under
    ``u``, an even count — typechecks).  ``edited=i`` rewrites arm ``i``'s
    ``(r_i, c)`` rule: ``variant="safe"`` appends two static ``u`` leaves
    (count stays even — still typechecks), ``variant="unsafe"`` appends
    one (odd count violates ``u``'s content model — counterexample).
    """
    if variant not in ("safe", "unsafe"):
        raise ValueError(f"variant must be 'safe' or 'unsafe', got {variant!r}")
    din, dout = edit_arm_pair(arms)
    rules = {("q", "root"): "root(q)"}
    for i in range(arms):
        rules[("q", f"a{i}")] = f"t(r{i} r{i})"
        if i == edited:
            extra = " u u" if variant == "safe" else " u"
            rules[(f"r{i}", "c")] = f"u(r{i} r{i}{extra})"
        else:
            rules[(f"r{i}", "c")] = f"u(r{i} r{i})"
    return TreeTransducer(
        states={"q"} | {f"r{i}" for i in range(arms)},
        alphabet=din.alphabet | dout.alphabet,
        initial="q",
        rules=rules,
    )


# ----------------------------------------------------------------------
# Random edit chains (the 200-seed retypecheck differential)
# ----------------------------------------------------------------------
def _random_rhs(
    rng: random.Random,
    states: List[str],
    outputs: List[str],
    top_level: bool,
    depth: int = 1,
) -> RhsHedge:
    hedge: List = []
    for _ in range(rng.randint(0 if not top_level else 1, 2)):
        roll = rng.random()
        if roll < 0.25 and top_level:
            hedge.append(RhsState(rng.choice(states)))
        elif roll < 0.5 and depth > 0:
            hedge.append(
                RhsSym(
                    rng.choice(outputs),
                    _random_rhs(rng, states, outputs, False, depth - 1),
                )
            )
        elif roll < 0.75:
            hedge.append(
                RhsSym(
                    rng.choice(outputs),
                    tuple(
                        RhsState(rng.choice(states))
                        for _ in range(rng.randint(1, 2))
                    ),
                )
            )
        else:
            hedge.append(RhsSym(rng.choice(outputs)))
    return tuple(hedge)


def _mutate(
    rng: random.Random, transducer: TreeTransducer, din: DTD
) -> TreeTransducer:
    """One random single-rule edit (replace, delete or add a rule).

    The alphabet and state set stay fixed — the shape an interactive
    edit loop produces.
    Mutations may leave every tractability class or break the root-rule
    shape; the differential checks *parity* (same verdict or same
    exception type as a cold check), not success.
    """
    states = sorted(transducer.states)
    outputs = sorted(transducer.alphabet, key=repr)
    symbols = sorted(din.alphabet, key=repr)
    rules = dict(transducer.rules)
    q = rng.choice(states)
    a = rng.choice(symbols)
    key = (q, a)
    if key == (transducer.initial, din.start):
        # Keep the root rule a single tree most of the time; sometimes
        # change its label to exercise the wrong-output-root preamble.
        rules[key] = (
            RhsSym(rng.choice(outputs), _random_rhs(rng, states, outputs, True)),
        )
    elif key in rules and rng.random() < 0.2:
        del rules[key]
    else:
        rules[key] = _random_rhs(rng, states, outputs, True)
    return TreeTransducer(
        states=set(transducer.states),
        alphabet=set(transducer.alphabet),
        initial=transducer.initial,
        rules=rules,
    )


def random_edit_chain(
    seed: int,
    length: int = 6,
    symbols: int = 3,
    num_states: int = 2,
) -> Tuple[DTD, DTD, List[TreeTransducer]]:
    """``(din, dout, chain)`` — ``chain[0]`` is the seeded base transducer
    and each successor differs from its predecessor by one random rule
    edit; ``len(chain) == length + 1``."""
    transducer, din, dout = seeded_instance(
        seed, symbols=symbols, num_states=num_states
    )
    rng = random.Random(seed * 7919 + 13)
    chain = [transducer]
    for _ in range(length):
        chain.append(_mutate(rng, chain[-1], din))
    return din, dout, chain
