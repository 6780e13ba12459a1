"""Random instance generation for differential testing.

The hypothesis-based cross-validation suite draws random DTDs and random
T_trac transducers here and compares the polynomial algorithms against the
brute-force oracle.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.schemas.dtd import DTD
from repro.transducers.rhs import RhsHedge, RhsState, RhsSym
from repro.transducers.transducer import TreeTransducer


def random_dtd(
    rng: random.Random,
    symbols: int = 3,
    start: str = "s0",
    max_factors: int = 3,
) -> DTD:
    """A random DTD over ``s0 … s{symbols-1}`` with small regex content
    models (possibly recursive, possibly partially empty)."""
    names = [f"s{i}" for i in range(symbols)]
    rules = {}
    for name in names:
        factors: List[str] = []
        for _ in range(rng.randint(0, max_factors)):
            child = rng.choice(names)
            suffix = rng.choice(["", "?", "*", "+"])
            factors.append(child + suffix)
        if factors and rng.random() < 0.3:
            mid = rng.randint(1, len(factors))
            expr = " ".join(factors[:mid]) + " | " + (" ".join(factors[mid:]) or "ε")
        else:
            expr = " ".join(factors)
        rules[name] = expr if expr.strip() else "ε"
    return DTD(rules, start=start)


def random_trac_transducer(
    rng: random.Random,
    dtd: DTD,
    num_states: int = 2,
    allow_deletion: bool = True,
    allow_copying: bool = True,
    output_symbols: int = 3,
) -> TreeTransducer:
    """A random transducer with bounded copying and (optionally) deletion.

    Deleting occurrences are kept non-copying unless the deleted state is
    non-recursive, so the result stays within some ``T^{C,K}_trac``; the
    caller can verify via :func:`repro.transducers.analysis.analyze`.
    """
    states = [f"q{i}" for i in range(num_states)]
    outputs = [f"o{i}" for i in range(output_symbols)]
    alphabet = set(dtd.alphabet) | set(outputs)

    def random_rhs(depth: int, top_level: bool) -> RhsHedge:
        hedge: List = []
        for _ in range(rng.randint(0 if not top_level else 1, 2)):
            roll = rng.random()
            if roll < 0.3 and allow_deletion and top_level:
                hedge.append(RhsState(rng.choice(states)))
            elif roll < 0.5 and depth > 0:
                hedge.append(
                    RhsSym(rng.choice(outputs), random_rhs(depth - 1, False))
                )
            elif roll < 0.7 and allow_copying:
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

    rules = {}
    # The initial rule for the start symbol is a single tree.
    rules[(states[0], dtd.start)] = (
        RhsSym(outputs[0], random_rhs(1, True)),
    )
    for state in states:
        for symbol in sorted(dtd.alphabet):  # set order varies per hash seed
            if (state, symbol) in rules:
                continue
            if rng.random() < 0.25:
                continue  # missing rule: translates to ε
            rules[(state, symbol)] = random_rhs(1, True)
    return TreeTransducer(set(states), alphabet, states[0], rules)


def random_output_dtd(
    rng: random.Random, transducer: TreeTransducer, output_symbols: int = 3
) -> DTD:
    """A random output DTD over the transducer's output symbols."""
    outputs = [f"o{i}" for i in range(output_symbols)]
    rules = {}
    for name in outputs:
        factors = []
        for _ in range(rng.randint(0, 2)):
            factors.append(rng.choice(outputs) + rng.choice(["", "?", "*", "+"]))
        rules[name] = " ".join(factors) if factors else "ε"
    return DTD(rules, start=outputs[0], alphabet=transducer.alphabet)


def seeded_instance(
    seed: int, symbols: int = 3, num_states: int = 2
) -> Tuple[TreeTransducer, DTD, DTD]:
    """The 200-seed differential-test instance for ``seed``.

    One derivation shared by every suite that cross-validates engines
    (kernel vs object fixpoint in
    ``tests/core/test_forward_kernel_equivalence.py``, warm-session vs cold
    runs in ``tests/core/test_session.py``): a random DTD, a random
    ``T_trac`` transducer whose deletion/copying mix cycles with the seed,
    and a random output DTD.
    """
    rng = random.Random(seed)
    din = random_dtd(rng, symbols=symbols)
    transducer = random_trac_transducer(
        rng,
        din,
        num_states=num_states,
        allow_deletion=seed % 3 != 0,
        allow_copying=seed % 2 == 0,
    )
    dout = random_output_dtd(rng, transducer)
    return transducer, din, dout
