"""The on-disk artifact cache: roundtrips, invalidation, cross-process hits.

The load-bearing assertions: a populated cache directory serves a *fresh*
process (or a cleared registry) a session marked ``artifact-cache`` whose
schemas carry fully compiled DFA caches — verified by forbidding the subset
construction outright during a warm typecheck — and whose results are
identical to cold runs.  Version or format mismatches are silent misses.
"""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.cache as artifact_cache
from repro.core.session import clear_registry, compile as compile_session
from repro.strings.nfa import NFA
from repro.workloads.families import filtering_family, nd_bc_batch


@pytest.fixture(autouse=True)
def _fresh_registry():
    clear_registry()
    yield
    clear_registry()


def _populate(tmp_path, n=6):
    transducer, din, dout, expected = filtering_family(n)
    session = compile_session(din, dout, cache_dir=tmp_path, reuse=False)
    assert session.stats["source"] == "fresh"
    assert session.typecheck(transducer, method="forward").typechecks == expected
    artifact_cache.save_session(session, cache_dir=tmp_path)  # refresh caches
    return expected


class TestRoundtrip:
    def test_second_compile_hits_the_cache(self, tmp_path):
        expected = _populate(tmp_path)
        transducer, din, dout, _ = filtering_family(6)
        loaded = compile_session(din, dout, cache_dir=tmp_path, reuse=False)
        assert loaded.stats["source"] == "artifact-cache"
        result = loaded.typecheck(transducer, method="forward")
        assert result.typechecks == expected

    def test_loaded_session_skips_schema_compilation(self, tmp_path, monkeypatch):
        """After a cache hit, warm typechecking never determinizes: every
        content DFA (and its interned kernel) came back from disk."""
        _populate(tmp_path)
        transducer, din, dout, expected = filtering_family(6)
        loaded = compile_session(din, dout, cache_dir=tmp_path, reuse=False)
        assert loaded.stats["source"] == "artifact-cache"

        def forbidden(self):  # pragma: no cover - must not run
            raise AssertionError("subset construction ran on a warm session")

        monkeypatch.setattr(NFA, "determinize", forbidden)
        result = loaded.typecheck(transducer, method="forward")
        assert result.typechecks == expected

    def test_loaded_session_serves_batches(self, tmp_path):
        transducers, din, dout, expected = nd_bc_batch(6, 3)
        compile_session(din, dout, cache_dir=tmp_path, reuse=False)
        clear_registry()
        transducers, din2, dout2, _ = nd_bc_batch(6, 3)
        loaded = compile_session(din2, dout2, cache_dir=tmp_path, reuse=False)
        assert loaded.stats["source"] == "artifact-cache"
        for result in loaded.typecheck_many(transducers, method="forward"):
            assert result.typechecks == expected

    def test_lazy_compile_with_cache_dir_still_persists_warm_artifacts(
        self, tmp_path, monkeypatch
    ):
        """``cache_dir`` implies compiling: even ``eager=False`` (the CLI
        path) must not snapshot a cold session, or the blob stays cold
        forever (regression test)."""
        _, din, dout, _ = filtering_family(6)
        compile_session(din, dout, eager=False, cache_dir=tmp_path, reuse=False)
        clear_registry()
        transducer, din2, dout2, expected = filtering_family(6)
        loaded = compile_session(din2, dout2, cache_dir=tmp_path, reuse=False)
        assert loaded.stats["source"] == "artifact-cache"

        def forbidden(self):  # pragma: no cover - must not run
            raise AssertionError("subset construction ran on a warm session")

        monkeypatch.setattr(NFA, "determinize", forbidden)
        result = loaded.typecheck(transducer, method="forward")
        assert result.typechecks == expected

    def test_registry_takes_precedence_over_disk(self, tmp_path):
        _populate(tmp_path)
        _, din, dout, _ = filtering_family(6)
        first = compile_session(din, dout, cache_dir=tmp_path)
        second = compile_session(din, dout, cache_dir=tmp_path)
        assert first is second


class TestInvalidation:
    def test_version_bump_misses(self, tmp_path, monkeypatch):
        _populate(tmp_path)
        monkeypatch.setattr(repro, "__version__", "0.0.0-test")
        monkeypatch.setattr(artifact_cache, "__version__", "0.0.0-test")
        _, din, dout, _ = filtering_family(6)
        session = compile_session(din, dout, cache_dir=tmp_path, reuse=False)
        assert session.stats["source"] == "fresh"

    def test_corrupt_blob_is_a_silent_miss(self, tmp_path):
        _populate(tmp_path)
        (blob,) = Path(tmp_path).glob("*.session.pkl")
        blob.write_bytes(b"not a pickle")
        _, din, dout, _ = filtering_family(6)
        session = compile_session(din, dout, cache_dir=tmp_path, reuse=False)
        assert session.stats["source"] == "fresh"

    def test_stale_kernel_format_is_a_silent_miss(self, tmp_path):
        _populate(tmp_path)
        (path,) = Path(tmp_path).glob("*.session.pkl")
        envelope = pickle.loads(path.read_bytes())
        envelope["kernel_format"] = -1
        path.write_bytes(pickle.dumps(envelope))
        _, din, dout, _ = filtering_family(6)
        session = compile_session(din, dout, cache_dir=tmp_path, reuse=False)
        assert session.stats["source"] == "fresh"

    def test_clear_removes_artifacts_and_orphaned_temp_files(self, tmp_path):
        import os
        import time

        _populate(tmp_path)
        # a genuinely orphaned temp file (writer died an age ago)...
        orphan = Path(tmp_path) / "orphan123.tmp"
        orphan.write_bytes(b"torn write")
        stale = time.time() - 7200
        os.utime(orphan, (stale, stale))
        # ...and a live concurrent writer's fresh temp file
        live = Path(tmp_path) / "live456.tmp"
        live.write_bytes(b"mid-write")
        assert artifact_cache.clear(tmp_path) == 1
        assert not list(Path(tmp_path).glob("*.session.pkl"))
        assert not orphan.exists()
        assert live.exists()  # never sweep a possibly-live writer


_SUBPROCESS_SCRIPT = """
import sys
import repro
from repro.workloads.families import filtering_family

transducer, din, dout, expected = filtering_family(6)
session = repro.compile(din, dout, cache_dir=sys.argv[1])
result = session.typecheck(transducer, method="forward")
assert result.typechecks == expected
print(session.stats["source"])
"""


class TestCrossProcess:
    def test_second_process_hits_the_artifact_cache(self, tmp_path):
        """A genuinely separate process compiles once, a second one loads."""
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        runs = [
            subprocess.run(
                [sys.executable, "-c", _SUBPROCESS_SCRIPT, str(tmp_path)],
                capture_output=True,
                text=True,
                env=env,
            )
            for _ in range(2)
        ]
        for run in runs:
            assert run.returncode == 0, run.stderr
        assert runs[0].stdout.strip() == "fresh"
        assert runs[1].stdout.strip() == "artifact-cache"
