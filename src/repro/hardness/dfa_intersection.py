"""DFA intersection emptiness → typechecking (Theorem 18).

Given DFAs ``A₁ … A_n`` over ``Δ``, build ``(T, din, dout)`` with
``T ∈ T_{dw=2, cw=2, fdpw}`` such that the instance typechecks iff
``⋂ L(A_i) = ∅`` — the paper's PSPACE-hardness frontier for finite (but not
constant) deletion path width.

The transducer doubles ``log n`` times, producing ``n`` copies of the
``Δ``-word hanging below a chain of ``log n − 1`` ``#``-nodes (off-shape
inputs emit the symbol ``ok``); the output DFA runs ``A_i`` on the ``i``-th
copy and accepts iff some copy is rejected or ``ok`` occurs.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.schemas.dtd import DTD
from repro.strings.dfa import DFA
from repro.transducers.transducer import TreeTransducer

HASH = "#"
OK = "ok"


def _pad_to_power_of_two(dfas: Sequence[DFA], alphabet) -> List[DFA]:
    padded = list(dfas)
    minimum = 4  # the construction needs log n ≥ 2
    size = minimum
    while size < len(padded):
        size *= 2
    while len(padded) < size:
        padded.append(DFA.universal(alphabet))
    return padded


def theorem18_instance(
    dfas: Sequence[DFA],
) -> Tuple[TreeTransducer, DTD, DTD]:
    """The Theorem 18 reduction.  All DFAs must share one alphabet ``Δ``
    disjoint from ``{r, #, ok}``."""
    if not dfas:
        raise ValueError("need at least one DFA")
    delta_alphabet = frozenset().union(*[dfa.alphabet for dfa in dfas])
    if delta_alphabet & {"r", HASH, OK}:
        raise ValueError("DFA alphabet clashes with the gadget symbols")
    machines = [dfa.complete(delta_alphabet) for dfa in _pad_to_power_of_two(dfas, delta_alphabet)]
    n = len(machines)
    log_n = n.bit_length() - 1

    sigma = delta_alphabet | {"r", HASH, OK}

    # Input DTD: r → # ;  # → # | Δ*.
    delta_star = " | ".join(sorted(delta_alphabet))
    din = DTD(
        {"r": HASH, HASH: f"{HASH} | ({delta_star})*"},
        start="r",
        alphabet=sigma,
    )

    # Transducer: q0 at the root, q1 … q_logn doubling down the chain.
    states = {"q0"} | {f"q{i}" for i in range(1, log_n + 1)}
    rules: Dict[Tuple[str, str], object] = {
        ("q0", "r"): f"r(q1 {HASH} q1)",
    }
    for i in range(2, log_n + 1):
        rules[(f"q{i - 1}", HASH)] = f"q{i} {HASH} q{i}"
    for i in range(1, log_n):
        for a in delta_alphabet:
            rules[(f"q{i}", a)] = OK
    rules[(f"q{log_n}", HASH)] = OK
    for a in delta_alphabet:
        rules[(f"q{log_n}", a)] = a
    transducer = TreeTransducer(states, sigma, "q0", rules)

    # Output DTD: dout(r) simulates A₁ … A_n on the #-separated segments.
    dout_root = _segment_checker(machines, delta_alphabet)
    dout = DTD({"r": dout_root}, start="r", alphabet=sigma)
    return transducer, din, dout


def _segment_checker(machines: List[DFA], delta_alphabet) -> DFA:
    """DFA over ``Δ ∪ {#, ok}``: accept iff some ``A_i`` rejects its segment
    or ``ok`` occurs (Theorem 18's output content model)."""
    n = len(machines)
    alphabet = set(delta_alphabet) | {HASH, OK}
    accept = ("accept",)
    reject = ("reject",)
    states: List = [accept, reject]
    transitions: Dict = {}
    for symbol in alphabet:
        transitions[(accept, symbol)] = accept
        transitions[(reject, symbol)] = reject
    for index, machine in enumerate(machines):
        for q in machine.states:
            state = ("seg", index, q)
            states.append(state)
            transitions[(state, OK)] = accept
            for a in delta_alphabet:
                transitions[(state, a)] = ("seg", index, machine.step(q, a))
            if index + 1 < n:
                next_start = ("seg", index + 1, machines[index + 1].initial)
            else:
                next_start = reject  # more than n segments: well-shaped
                # outputs never produce this, so the value is immaterial.
            transitions[(state, HASH)] = (
                accept if q not in machine.finals else next_start
            )
    finals = {accept} | {
        ("seg", n - 1, q) for q in machines[-1].states if q not in machines[-1].finals
    }
    initial = ("seg", 0, machines[0].initial)
    return DFA(states, alphabet, transitions, initial, finals)
