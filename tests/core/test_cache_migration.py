"""Cache format migration: what older cache directories do on load.

Blob sections and side-file names come from engine declarations.  The
blob keeps the exact section layout readers index it by, and side files
carry the owning engine's name in the filename and payload.  Format 3
dropped the options fingerprint from the key and the pre-registry
side-file names (``<key>.tables.<hash>.pkl`` forward,
``<key>.btables.<hash>.pkl`` backward): a directory a format-2 release
wrote is a silent miss — a fresh session, never an error.
"""

import pytest

import repro.cache as artifact_cache
from repro import __version__
from repro.core.session import (
    clear_registry,
    compile as compile_session,
    schema_fingerprint,
)
from repro.engines import get_engine, persistent_engines
from repro.kernel import serialize
from repro.util import stable_digest
from repro.workloads.families import filtering_family


@pytest.fixture(autouse=True)
def _fresh_registry():
    clear_registry()
    yield
    clear_registry()


def _donor(tmp_path, n=6):
    """A published session that served one transducer on both engines."""
    transducer, din, dout, expected = filtering_family(n)
    session = compile_session(din, dout, cache_dir=tmp_path, reuse=False)
    assert session.typecheck(transducer, method="forward").typechecks == expected
    assert session.typecheck(transducer, method="backward").typechecks == expected
    return session, transducer, expected


def _snapshots(session, engine_name):
    store, _limit = get_engine(engine_name).side_store(session)
    assert store, f"donor session stored no {engine_name} snapshots"
    return dict(store)


class TestBlobLayout:
    def test_blob_sections_are_the_v13_layout(self, tmp_path):
        """Old readers index the blob by these exact section names; the
        registry must reproduce them (persistent engines in registration
        order), not invent new ones."""
        session, _transducer, _expected = _donor(tmp_path)
        path = artifact_cache.save_session(session, cache_dir=tmp_path)
        payload = serialize.loads(path.read_bytes())
        assert set(payload["artifacts"]) == {
            "sin", "sout", "forward", "backward", "replus", "delrelab",
        }
        assert set(payload["artifacts"]) == {"sin", "sout"} | {
            engine.name for engine in persistent_engines()
        }


class TestLegacySideFiles:
    def _write_format_2(self, directory, session):
        """The directory a format-2 release left behind: the blob under
        its options-fingerprinted key, side files under pre-registry
        names (kind in the name, no ``engine`` in the payload)."""
        key = stable_digest(
            "session-artifact",
            schema_fingerprint(session.sin),
            schema_fingerprint(session.sout),
            repr(sorted({"use_kernel": True}.items())),
            "cache-format:2",
            f"kernel-format:{serialize.KERNEL_FORMAT}",
            f"repro:{__version__}",
        )
        payload = {
            "cache_format": 2,
            "version": __version__,
            "key": key,
            "artifacts": session.export_artifacts(),
        }
        artifact_cache.artifact_path(directory, key).write_bytes(
            serialize.dumps(payload)
        )
        for engine_name, kind, field in (
            ("forward", "tables", "tables"),
            ("backward", "btables", "result"),
        ):
            for thash, snapshot in _snapshots(session, engine_name).items():
                side = {
                    "cache_format": 2,
                    "key": key,
                    "transducer": thash,
                    field: snapshot,
                }
                (directory / f"{key}.{kind}.{thash}.pkl").write_bytes(
                    serialize.dumps(side)
                )
        return key

    def test_format_2_directory_is_a_silent_miss(self, tmp_path):
        session, transducer, expected = _donor(tmp_path / "donor")
        old_dir = tmp_path / "format2"
        old_dir.mkdir()
        old_key = self._write_format_2(old_dir, session)
        # Even under the current key's file name, the format-2 header is
        # refused.
        new_key = artifact_cache.artifact_key(session.sin, session.sout)
        assert new_key != old_key
        artifact_cache.artifact_path(old_dir, new_key).write_bytes(
            artifact_cache.artifact_path(old_dir, old_key).read_bytes()
        )

        clear_registry()
        _t, din, dout, _e = filtering_family(6)
        assert artifact_cache.load_session(din, dout, cache_dir=old_dir) is None
        loaded = compile_session(din, dout, cache_dir=old_dir, reuse=False)
        assert loaded.stats["source"] == "fresh"
        for method in ("forward", "backward"):
            result = loaded.typecheck(transducer, method=method)
            assert result.typechecks == expected
            assert result.stats["table_cache"] == "miss", method

    def test_format_4_artifact_is_a_miss(self, tmp_path):
        """Format 5 changed the pickled DFA shape (sparse moves, completed
        views with an implicit sink): a blob written with format 4 is a
        miss, never a load — at its own key or at the current one."""
        session, transducer, expected = _donor(tmp_path / "donor")
        old_dir = tmp_path / "format4"
        old_dir.mkdir()
        old_key = stable_digest(
            "session-artifact",
            schema_fingerprint(session.sin),
            schema_fingerprint(session.sout),
            "cache-format:4",
            f"kernel-format:{serialize.KERNEL_FORMAT}",
            f"repro:{__version__}",
        )
        new_key = artifact_cache.artifact_key(session.sin, session.sout)
        assert new_key != old_key
        for key in (old_key, new_key):
            payload = {
                "cache_format": 4,
                "version": __version__,
                "key": key,
                "artifacts": session.export_artifacts(),
            }
            artifact_cache.artifact_path(old_dir, key).write_bytes(
                serialize.dumps(payload)
            )

        clear_registry()
        _t, din, dout, _e = filtering_family(6)
        assert artifact_cache.load_session(din, dout, cache_dir=old_dir) is None
        loaded = compile_session(din, dout, cache_dir=old_dir, reuse=False)
        assert loaded.stats["source"] == "fresh"
        assert loaded.typecheck(transducer).typechecks == expected

    def test_new_side_files_carry_the_engine_name(self, tmp_path):
        session, transducer, _expected = _donor(tmp_path)
        key = artifact_cache.artifact_key(session.sin, session.sout)
        artifact_cache.publish(session, cache_dir=tmp_path, min_interval_s=0)
        thash = transducer.content_hash()
        for engine_name, field in (("forward", "tables"), ("backward", "result")):
            path = artifact_cache.side_file_path(
                tmp_path, key, engine_name, thash
            )
            assert path.exists(), engine_name
            payload = serialize.loads(path.read_bytes())
            assert payload["engine"] == engine_name
            assert payload["transducer"] == thash
            assert isinstance(payload[field], dict)
