"""Stable content hashing of schemas — the keys of the session caches."""

import subprocess
import sys
from pathlib import Path

from repro.schemas import DTD, dtd_to_nta
from repro.strings.dfa import DFA
from repro.strings.nfa import NFA
from repro.strings.regex import parse_regex


class TestDTDContentHash:
    def test_equal_content_equal_hash(self):
        a = DTD({"r": "x* y?", "x": "ε"}, start="r")
        b = DTD({"x": "ε", "r": "x* y?"}, start="r")  # different rule order
        assert a is not b
        assert a.content_hash() == b.content_hash()

    def test_rule_change_changes_hash(self):
        a = DTD({"r": "x*"}, start="r")
        b = DTD({"r": "x+"}, start="r")
        assert a.content_hash() != b.content_hash()

    def test_start_symbol_is_part_of_the_hash(self):
        dtd = DTD({"r": "x*", "x": "r?"}, start="r")
        assert dtd.content_hash() != dtd.with_start("x").content_hash()

    def test_alphabet_is_part_of_the_hash(self):
        a = DTD({"r": "x*"}, start="r")
        b = DTD({"r": "x*"}, start="r", alphabet={"extra"})
        assert a.content_hash() != b.content_hash()

    def test_authored_representation_matters(self):
        # Same language, different representation class: different artifacts,
        # hence deliberately different hashes.
        regex = DTD({"r": "x*"}, start="r")
        automaton = DTD(
            {"r": DFA({0}, {"x"}, {(0, "x"): 0}, 0, {0})}, start="r"
        )
        assert regex.content_hash() != automaton.content_hash()

    def test_regex_ast_and_text_agree(self):
        text = DTD({"r": "x* y?"}, start="r")
        ast = DTD({"r": parse_regex("x* y?")}, start="r")
        assert text.content_hash() == ast.content_hash()

    def test_hash_is_cached(self):
        dtd = DTD({"r": "x*"}, start="r")
        assert dtd.content_hash() is dtd.content_hash()


class TestAutomatonContentHash:
    def test_dfa_hash_ignores_dict_order_only(self):
        t1 = {(0, "a"): 1, (1, "a"): 0}
        t2 = {(1, "a"): 0, (0, "a"): 1}
        a = DFA({0, 1}, {"a"}, t1, 0, {0})
        b = DFA({0, 1}, {"a"}, t2, 0, {0})
        assert a.content_hash() == b.content_hash()
        c = DFA({0, 1}, {"a"}, t1, 0, {1})  # different finals
        assert a.content_hash() != c.content_hash()

    def test_nfa_hash_sensitive_to_targets(self):
        a = NFA({0, 1}, {"x"}, {0: {"x": {0}}}, {0}, {0})
        b = NFA({0, 1}, {"x"}, {0: {"x": {0, 1}}}, {0}, {0})
        assert a.content_hash() != b.content_hash()

    def test_nta_hash_tracks_dtd(self):
        n1 = dtd_to_nta(DTD({"r": "x*"}, start="r"))
        n2 = dtd_to_nta(DTD({"r": "x*"}, start="r"))
        n3 = dtd_to_nta(DTD({"r": "x+"}, start="r"))
        assert n1.content_hash() == n2.content_hash()
        assert n1.content_hash() != n3.content_hash()


class TestCrossProcessStability:
    def test_hash_is_identical_in_a_fresh_interpreter(self):
        """The digest must survive hash randomization — it keys the on-disk
        cache, so two processes must agree on it."""
        script = (
            "from repro.schemas import DTD\n"
            "print(DTD({'r': 'x* y?', 'x': 'r?'}, start='r').content_hash())\n"
        )
        src = str(Path(__file__).resolve().parents[2] / "src")
        outs = set()
        for _ in range(2):
            run = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env={
                    "PYTHONPATH": src,
                    "PYTHONHASHSEED": "random",
                    "PYTHONDONTWRITEBYTECODE": "1",
                },
            )
            assert run.returncode == 0, run.stderr
            outs.add(run.stdout.strip())
        local = DTD({"r": "x* y?", "x": "r?"}, start="r").content_hash()
        assert outs == {local}
