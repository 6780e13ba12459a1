"""Differential tests: the demand-driven ``intersect`` against the eager
object-state product (:func:`repro.kernel.reference.intersect_object`).

The demand-driven product only creates productive pair states, so it is
compared on the language level: emptiness must agree with the seed
fixpoint run on the eager product, and every witness tree must be accepted
by both operands.
"""

import random

import pytest

from repro.kernel import reference
from repro.schemas.to_nta import dtd_to_dtac, dtd_to_nta
from repro.strings.nfa import NFA
from repro.tree_automata.emptiness import is_empty, witness_tree
from repro.tree_automata.nta import NTA
from repro.tree_automata.ops import complement_dtac, intersect
from repro.workloads import families
from repro.workloads.random_instances import random_dtd


def random_nta(rng: random.Random, symbols=("a", "b")) -> NTA:
    """A small, genuinely nondeterministic NTA over integer states."""
    states = list(range(rng.randint(1, 4)))
    delta = {}
    for q in states:
        for symbol in symbols:
            if rng.random() < 0.4:
                continue
            size = rng.randint(1, 3)
            table = {}
            for s in range(size):
                row = {}
                for child in states:
                    targets = {t for t in range(size) if rng.random() < 0.3}
                    if targets:
                        row[child] = targets
                if row:
                    table[s] = row
            initial = {s for s in range(size) if rng.random() < 0.5} or {0}
            finals = {s for s in range(size) if rng.random() < 0.4}
            delta[(q, symbol)] = NFA(range(size), states, table, initial, finals)
    finals = {q for q in states if rng.random() < 0.5}
    return NTA(states, symbols, delta, finals)


def family_pairs():
    """Same-alphabet schema pairs from the instance families: the passing
    and failing output DTDs of each family, as NTA × DTAc, NTA ×
    complemented DTAc, and random DTD pairs over shared symbols."""
    pairs = []
    for family, n in (
        (families.nd_bc_family, 2),
        (families.relabeling_family, 2),
        (families.filtering_family, 2),
        (families.wide_copy_family, 2),
    ):
        passing = family(n, True)[2]
        failing = family(n, False)[2]
        for order, (x, y) in (
            ("pass-fail", (passing, failing)),
            ("fail-pass", (failing, passing)),
        ):
            name = f"{family.__name__}-{order}"
            pairs.append((f"{name}-dtac", dtd_to_nta(x), dtd_to_dtac(y)))
            pairs.append(
                (
                    f"{name}-complement",
                    dtd_to_nta(x),
                    complement_dtac(dtd_to_dtac(y), check=False),
                )
            )
    rng = random.Random(2004)
    for index in range(6):
        x = random_dtd(rng, symbols=3)
        y = random_dtd(rng, symbols=3)
        pairs.append((f"random-dtd-{index}", dtd_to_nta(x), dtd_to_dtac(y)))
    return pairs


def check_pair(left: NTA, right: NTA) -> None:
    product = intersect(left, right)
    eager = reference.intersect_object(left, right)
    assert is_empty(product) == reference.nta_is_empty_object(eager)
    # Demand-driven: exactly the productive pairs of the eager product.
    assert product.states == reference.productive_states_object(eager)[0]
    tree = witness_tree(product, max_nodes=5_000)
    if tree is None:
        assert is_empty(product)
        return
    assert left.states_of(tree) & left.finals
    assert right.states_of(tree) & right.finals


@pytest.mark.parametrize("seed", range(120))
def test_random_nta_pairs_match_eager_product(seed):
    rng = random.Random(seed)
    check_pair(random_nta(rng), random_nta(rng))


FAMILY_PAIRS = family_pairs()


@pytest.mark.parametrize(
    "name,left,right", FAMILY_PAIRS, ids=[name for name, _, _ in FAMILY_PAIRS]
)
def test_family_pairs_match_eager_product(name, left, right):
    check_pair(left, right)


def test_random_pairs_cover_both_outcomes():
    """The seeded random pairs exercise empty and non-empty products."""
    outcomes = set()
    for seed in range(120):
        rng = random.Random(seed)
        outcomes.add(is_empty(intersect(random_nta(rng), random_nta(rng))))
    assert outcomes == {True, False}
