"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import load_instance, main
from repro.errors import ReproError

GOOD = """
start book
book -> title author+ chapter+
chapter -> title intro section+
section -> title paragraph+ section*
---
initial q states q
q, book -> book(q)
q, chapter -> chapter q
q, title -> title
q, section -> q
---
start book
book -> title (chapter title+)*
"""

BAD = GOOD.replace("title (chapter title+)*", "title (chapter title title?)*")


class TestLoadInstance:
    def test_parses_sections(self):
        transducer, din, dout = load_instance(GOOD)
        assert din.start == "book"
        assert dout.start == "book"
        assert ("q", "section") in transducer.rules

    def test_comments_and_blank_lines(self):
        text = "# a comment\n" + GOOD
        transducer, _, _ = load_instance(text)
        assert transducer.initial == "q"

    def test_wrong_section_count(self):
        with pytest.raises(ReproError):
            load_instance("start r\nr -> a")

    def test_bad_rule(self):
        with pytest.raises(ReproError):
            load_instance("start r\nr is weird\n---\ninitial q\n---\nstart r")


class TestMain:
    def test_typechecking_instance(self, tmp_path, capsys):
        spec = tmp_path / "instance.txt"
        spec.write_text(GOOD, encoding="utf-8")
        assert main([str(spec)]) == 0
        assert "TYPECHECKS" in capsys.readouterr().out

    def test_failing_instance_prints_counterexample(self, tmp_path, capsys):
        spec = tmp_path / "instance.txt"
        spec.write_text(BAD, encoding="utf-8")
        assert main([str(spec)]) == 1
        out = capsys.readouterr().out
        assert "FAILS" in out
        assert "counterexample" in out

    def test_missing_file(self, capsys):
        assert main(["/no/such/file"]) == 2

    def test_help(self, capsys):
        assert main(["--help"]) == 2


class TestBatchMode:
    def _write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_multiple_files_report_per_instance_status(self, tmp_path, capsys):
        good = self._write(tmp_path, "good.txt", GOOD)
        bad = self._write(tmp_path, "bad.txt", BAD)
        assert main([good, bad]) == 1  # one failure
        out = capsys.readouterr().out
        assert f"{good}: TYPECHECKS" in out
        assert f"{bad}: FAILS" in out
        assert f"{bad}: counterexample:" in out
        assert "checked 2 instances: 1 typechecked, 1 failed, 0 errored" in out

    def test_shared_schema_pairs_compile_once(self, tmp_path, capsys):
        good = self._write(tmp_path, "good.txt", GOOD)
        again = self._write(tmp_path, "again.txt", GOOD)
        bad = self._write(tmp_path, "bad.txt", BAD)
        assert main([good, again, bad]) == 1
        out = capsys.readouterr().out
        assert "2 schema pairs compiled" in out  # good/again share a pair

    def test_batch_flag_with_single_file(self, tmp_path, capsys):
        good = self._write(tmp_path, "good.txt", GOOD)
        assert main(["--batch", good]) == 0
        out = capsys.readouterr().out
        assert f"{good}: TYPECHECKS" in out
        assert "1 schema pair compiled" in out

    def test_method_flag(self, tmp_path, capsys):
        good = self._write(tmp_path, "good.txt", GOOD)
        assert main(["--method", "forward", good]) == 0
        assert "TYPECHECKS (forward)" in capsys.readouterr().out

    def test_bad_method_is_a_usage_error(self, tmp_path, capsys):
        good = self._write(tmp_path, "good.txt", GOOD)
        assert main(["--method", "magic", good]) == 2

    def test_unknown_flag_is_a_usage_error(self, capsys):
        assert main(["--frobnicate", "x"]) == 2

    def test_missing_file_in_batch_continues_and_exits_2(self, tmp_path, capsys):
        good = self._write(tmp_path, "good.txt", GOOD)
        assert main([good, "/no/such/file"]) == 2
        captured = capsys.readouterr()
        assert f"{good}: TYPECHECKS" in captured.out
        assert "/no/such/file: ERROR:" in captured.err

    def test_cache_dir_flag(self, tmp_path, capsys):
        good = self._write(tmp_path, "good.txt", GOOD)
        cache = tmp_path / "cache"
        assert main(["--cache-dir", str(cache), good]) == 0
        assert list(cache.glob("*.session.pkl"))

    def test_trace_flag_writes_spans_per_instance(self, tmp_path, capsys):
        import json

        from repro.core.session import clear_registry
        from repro.obs import trace as obs_trace

        clear_registry()  # cold compiles guarantee compile/fixpoint spans
        good = self._write(tmp_path, "good.txt", GOOD)
        bad = self._write(tmp_path, "bad.txt", BAD)  # a second schema pair
        trace_file = tmp_path / "trace.jsonl"
        cache = tmp_path / "cache"  # cache_dir forces warm() -> compile span
        try:
            assert main(
                ["--trace", str(trace_file), "--cache-dir", str(cache),
                 good, bad]
            ) == 1
        finally:
            obs_trace.trace_to(None)
        spans = [
            json.loads(line)
            for line in trace_file.read_text().splitlines()
            if '"name"' in line
        ]
        assert any(span["name"] == "compile" for span in spans)
        assert any(span["name"] == "fixpoint" for span in spans)
        # each instance file runs under its own trace ID
        assert len({span["trace"] for span in spans}) >= 2

    def test_trace_flag_needs_a_path(self, capsys):
        assert main(["--trace"]) == 2


class TestExplainFlag:
    def _write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_single_instance_prints_report(self, tmp_path, capsys):
        from repro.core.session import clear_registry

        clear_registry()  # cold run: the kernel actually executes
        good = self._write(tmp_path, "good.txt", GOOD)
        assert main([good, "--explain"]) == 0
        out = capsys.readouterr().out
        assert "TYPECHECKS" in out
        assert "explain: typecheck via" in out
        assert "engines:" in out
        assert "kernel:" in out

    def test_batch_mode_prefixes_report_lines(self, tmp_path, capsys):
        good = self._write(tmp_path, "good.txt", GOOD)
        bad = self._write(tmp_path, "bad.txt", BAD)
        assert main(["--explain", good, bad]) == 1
        out = capsys.readouterr().out
        assert "good.txt: explain:" in out
        assert "bad.txt: explain:" in out

    def test_verdict_unchanged_without_flag(self, tmp_path, capsys):
        good = self._write(tmp_path, "good.txt", GOOD)
        assert main([good]) == 0
        assert "explain:" not in capsys.readouterr().out
