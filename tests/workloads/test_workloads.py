"""Tests for the workload modules (paper examples + benchmark families)."""

import pytest

from repro.core import typecheck_bruteforce, typecheck_forward, typecheck_replus
from repro.schemas import dtd_to_dtac, dtd_to_nta
from repro.workloads.books import book_dtd, fig3_document, toc_transducer
from repro.workloads.families import (
    filtering_family,
    nd_bc_family,
    relabeling_family,
    replus_family,
)


class TestBooks:
    def test_fig3_is_valid(self):
        assert book_dtd().accepts(fig3_document())

    def test_toc_output_shape(self):
        out = toc_transducer().apply(fig3_document())
        assert out.label == "book"
        assert all(child.children == () for child in out.children)


class TestFamilies:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("expected", [True, False])
    def test_nd_bc_family_answers(self, n, expected):
        transducer, din, dout, claimed = nd_bc_family(n, typechecks=expected)
        assert claimed == expected
        assert typecheck_forward(transducer, din, dout).typechecks == expected
        oracle = typecheck_bruteforce(transducer, din, dout, max_nodes=2 ** (n + 1))
        assert oracle.typechecks == expected

    @pytest.mark.parametrize("expected", [True, False])
    def test_filtering_family_answers(self, expected):
        transducer, din, dout, _ = filtering_family(2, typechecks=expected)
        assert typecheck_forward(transducer, din, dout).typechecks == expected
        oracle = typecheck_bruteforce(transducer, din, dout, max_nodes=8)
        assert oracle.typechecks == expected

    @pytest.mark.parametrize("expected", [True, False])
    def test_replus_family_answers(self, expected):
        transducer, din, dout, _ = replus_family(2, typechecks=expected)
        assert typecheck_replus(transducer, din, dout).typechecks == expected
        oracle = typecheck_bruteforce(transducer, din, dout, max_nodes=8)
        assert oracle.typechecks == expected

    @pytest.mark.parametrize("expected", [True, False])
    def test_relabeling_family_answers(self, expected):
        from repro.core import typecheck_delrelab

        transducer, din, dout, _ = relabeling_family(2, typechecks=expected)
        result = typecheck_delrelab(
            transducer, dtd_to_nta(din), dtd_to_dtac(dout), check_output_class=False
        )
        assert result.typechecks == expected
        oracle = typecheck_bruteforce(transducer, din, dout, max_nodes=5)
        assert oracle.typechecks == expected

    def test_families_scale_monotonically(self):
        small = filtering_family(2)[0]
        large = filtering_family(6)[0]
        assert large.size > small.size


class TestSeededInstances:
    def test_a_seed_names_one_instance_under_every_hash_seed(self):
        """``seeded_instance(seed)`` must not depend on set iteration
        order: the 200-seed suites test the same sample in every run."""
        import json
        import os
        import subprocess
        import sys

        import repro

        script = (
            "import json\n"
            "from repro.service.protocol import instance_to_text\n"
            "from repro.workloads.random_instances import seeded_instance\n"
            "print(json.dumps([instance_to_text(*seeded_instance(s))"
            " for s in range(200)]))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        texts = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            done = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=env, timeout=120,
                check=True,
            )
            texts.append(json.loads(done.stdout))
        assert len(texts[0]) == 200
        assert texts[0] == texts[1]
