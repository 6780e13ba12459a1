"""Closure-free fixpoint tables: pickling, the per-transducer table cache,
session-aware NTA exports, global-registry thread sharing, cache pruning."""

import pickle
import threading

import pytest

import repro
from repro import cache as artifact_cache
from repro.core.almost_always import typechecks_almost_always
from repro.core.cex_nta import counterexample_nta
from repro.core.forward import ForwardSchema, typecheck_forward
from repro.core.session import Session, clear_registry, compile as compile_session
from repro.tree_automata.emptiness import is_empty
from repro.workloads.families import filtering_family, nd_bc_batch, nd_bc_family
from repro.workloads.random_instances import seeded_instance


def _rename_state(hedge, old, new):
    """An rhs hedge with state leaves renamed (content-hash perturbation)."""
    from repro.transducers.rhs import RhsState, RhsSym

    out = []
    for node in hedge:
        if isinstance(node, RhsState) and node.state == old:
            out.append(RhsState(new))
        elif isinstance(node, RhsSym):
            out.append(RhsSym(node.label, _rename_state(node.children, old, new)))
        else:
            out.append(node)
    return tuple(out)


class TestClosureFreePickling:
    def test_hedge_entries_round_trip_through_pickle(self):
        """The acceptance property: HedgeEntry (ProductBFS graph included)
        pickles — no closures anywhere in the fixpoint tables."""
        transducer, din, dout, _ = nd_bc_family(6)
        schema = ForwardSchema(din, dout)
        typecheck_forward(transducer, din, dout, schema=schema)
        tables = schema.transducer_tables[transducer.content_hash()]
        assert tables["hedge"], "no hedge cells were snapshotted"
        restored = pickle.loads(pickle.dumps(tables))
        for key, entry in tables["hedge"].items():
            other = restored["hedge"][key]
            assert set(other.accepted) == set(entry.accepted)
            assert other.int_accepted == entry.int_accepted
            # the decoded views still work after the round trip
            assert other.nodes == entry.nodes
            assert other.seeds == entry.seeds
            assert other.edges == entry.edges

    def test_shared_cells_round_trip_through_pickle(self):
        transducer, din, dout, _ = filtering_family(5)
        schema = ForwardSchema(din, dout)
        typecheck_forward(transducer, din, dout, schema=schema)
        assert schema.shared_hedge
        restored = pickle.loads(pickle.dumps(schema.shared_hedge))
        for key, entry in schema.shared_hedge.items():
            assert set(restored[key].accepted) == set(entry.accepted)

    def test_object_path_entries_still_pickle(self):
        from repro.kernel.reference import typecheck_forward_object

        transducer, din, dout, _ = nd_bc_family(4)
        engine_schema = ForwardSchema(din, dout)
        result = typecheck_forward_object(
            transducer, din, dout, schema=engine_schema
        )
        assert result.typechecks
        # The oracle's per-engine cells never leak into the shared schema.
        assert not engine_schema.transducer_tables
        assert not engine_schema.shared_hedge


class TestTransducerTableCache:
    def test_hit_skips_the_fixpoint_entirely(self):
        transducer, din, dout, expected = nd_bc_family(8)
        session = Session(din, dout)
        first = session.typecheck(transducer, method="forward")
        assert first.stats.get("table_cache") == "miss"
        assert first.stats["product_nodes"] > 0
        second = session.typecheck(transducer, method="forward")
        assert second.typechecks == first.typechecks == expected
        assert second.stats.get("table_cache") == "hit"
        assert second.stats["product_nodes"] == 0

    def test_hit_for_equal_content_distinct_objects(self):
        """The cache keys by content hash, not identity — a fresh parse of
        the same transducer hits."""
        transducer, din, dout, _ = nd_bc_family(6, typechecks=False)
        session = Session(din, dout)
        session.typecheck(transducer, method="forward")
        clone, _din, _dout, _ = nd_bc_family(6, typechecks=False)
        assert clone is not transducer
        result = session.typecheck(clone, method="forward")
        assert result.stats.get("table_cache") == "hit"
        assert not result.typechecks
        assert result.verify(clone, din.accepts, dout.accepts)

    def test_distinct_transducers_do_not_collide(self):
        transducers, din, dout, expected = nd_bc_batch(6, 4)
        session = Session(din, dout)
        for transducer in transducers:
            result = session.typecheck(transducer, method="forward")
            assert result.stats.get("table_cache") == "miss"
            assert result.typechecks == expected

    def test_cache_is_lru_bounded(self):
        transducer, din, dout, _ = nd_bc_family(5)
        schema = ForwardSchema(din, dout)
        schema.transducer_table_limit = 2
        for index in range(4):
            schema.store_tables(f"hash{index}", {"hedge": {}, "tree": {}})
        assert len(schema.transducer_tables) == 2
        assert "hash3" in schema.transducer_tables

    def test_one_shot_calls_do_not_pay_for_hashing(self):
        """Standalone typecheck_forward (private schema) skips the cache
        machinery — no stats key, same verdict."""
        transducer, din, dout, expected = nd_bc_family(5)
        result = typecheck_forward(transducer, din, dout)
        assert "table_cache" not in result.stats
        assert result.typechecks == expected

    def test_cached_tables_survive_a_budget_abort_of_another_call(self):
        from repro.errors import BudgetExceededError

        from repro.transducers.transducer import TreeTransducer

        transducer, din, dout, expected = filtering_family(6)
        session = Session(din, dout)
        session.typecheck(transducer, method="forward")
        # same pair, different transducer content (renamed state) so the
        # aborting call cannot be served from the table cache
        renamed = TreeTransducer(
            {"z"},
            transducer.alphabet,
            "z",
            {
                ("z", symbol): _rename_state(rhs, "q", "z")
                for (_state, symbol), rhs in transducer.rules.items()
            },
        )
        with pytest.raises(BudgetExceededError):
            session.typecheck(renamed, method="forward", max_product_nodes=1)
        # the shared cells were reset, but the snapshot stays serviceable
        result = session.typecheck(transducer, method="forward")
        assert result.stats.get("table_cache") == "hit"
        assert result.typechecks == expected


class TestArtifactCacheCarriesTables:
    def test_cold_process_inherits_tables_and_shared_cells(self, tmp_path):
        """The *production* path: compile(cache_dir=...) publishes, a later
        compile() after the throttle window refreshes the blob with the
        accrued tables, and a session rebuilt from it answers a repeated
        transducer from its table cache — no fixpoint in the new process."""
        transducer, din, dout, expected = nd_bc_family(7)
        clear_registry()
        session = compile_session(din, dout, cache_dir=tmp_path)
        session.typecheck(transducer, method="forward")
        # age the last publish past the throttle window, then take the
        # production refresh path (compile -> cache.publish)
        session.stats["published_at"] = float(session.stats["published_at"]) - 60
        compile_session(din, dout, cache_dir=tmp_path)

        clear_registry()
        _, din2, dout2, _ = nd_bc_family(7)
        rebuilt = artifact_cache.load_session(
            din2, dout2, cache_dir=tmp_path
        )
        assert rebuilt is not None
        assert rebuilt.stats["source"] == "artifact-cache"
        assert rebuilt.forward_schema().shared_hedge  # shared cells shipped
        clone, _, _, _ = nd_bc_family(7)
        result = rebuilt.typecheck(clone, method="forward")
        assert result.typechecks == expected
        assert result.stats.get("table_cache") == "hit"
        assert result.stats["product_nodes"] == 0

    def test_publish_throttles_and_detects_growth(self, tmp_path):
        transducer, din, dout, _ = nd_bc_family(5)
        clear_registry()
        session = compile_session(din, dout, cache_dir=tmp_path)
        path = artifact_cache.ensure_saved(session, cache_dir=tmp_path)
        stamp = path.stat().st_mtime
        # no new state: publish is a no-op even with the throttle disabled
        artifact_cache.publish(session, cache_dir=tmp_path, min_interval_s=0)
        assert path.stat().st_mtime == stamp
        # new state + throttle window still open: skipped
        session.typecheck(transducer, method="forward")
        artifact_cache.publish(session, cache_dir=tmp_path)
        assert path.stat().st_mtime == stamp
        # new state + throttle disabled: rewritten
        artifact_cache.publish(session, cache_dir=tmp_path, min_interval_s=0)
        assert path.stat().st_mtime >= stamp
        rebuilt = artifact_cache.load_session(
            din, dout, cache_dir=tmp_path
        )
        assert rebuilt.forward_schema().transducer_tables


class TestSessionAwareNtaExports:
    @pytest.mark.parametrize("seed", [1, 2, 5, 8, 11, 14])
    def test_counterexample_nta_matches_standalone(self, seed):
        from repro.errors import ClassViolationError

        transducer, din, dout = seeded_instance(seed)
        try:
            standalone = counterexample_nta(transducer, din, dout)
        except ClassViolationError:
            pytest.skip("instance outside the forward fragment")
        session = Session(din, dout, eager=False)
        warm = session.counterexample_nta(transducer)
        again = session.counterexample_nta(transducer)
        for automaton in (warm, again):
            assert is_empty(automaton) == is_empty(standalone), f"seed {seed}"

    def test_typechecks_almost_always_matches_standalone(self):
        checked = 0
        for seed in range(30):
            transducer, din, dout = seeded_instance(seed)
            from repro.errors import ClassViolationError

            try:
                standalone = typechecks_almost_always(transducer, din, dout)
            except ClassViolationError:
                continue
            session = Session(din, dout, eager=False)
            assert session.typechecks_almost_always(transducer) == standalone, (
                f"seed {seed}"
            )
            checked += 1
        assert checked >= 5

    def test_warm_nta_reuses_schema_caches(self):
        transducer, din, dout, _ = filtering_family(5)
        session = Session(din, dout)
        session.typecheck(transducer, method="forward")
        words_before = dict(session.forward_schema().word_cache)
        session.counterexample_nta(transducer)
        # the export consumed the session's reachability caches in place
        assert session.forward_schema().word_cache.keys() >= words_before.keys()


class TestGlobalRegistry:
    def test_threads_share_one_session(self):
        clear_registry()
        _, din, dout, _ = nd_bc_family(5)
        sessions = []

        def worker():
            _, a, b, _ = nd_bc_family(5)
            sessions.append(compile_session(a, b, eager=False))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len({id(session) for session in sessions}) == 1

    def test_concurrent_typechecks_on_one_session_are_correct(self):
        clear_registry()
        transducers, din, dout, expected = nd_bc_batch(7, 8)
        session = compile_session(din, dout)
        results = [None] * len(transducers)

        def worker(index):
            results[index] = session.typecheck(
                transducers[index], method="forward"
            )

        threads = [
            threading.Thread(target=worker, args=(index,))
            for index in range(len(transducers))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(result.typechecks == expected for result in results)


class TestCachePruning:
    def _populate(self, tmp_path, count):
        paths = []
        for index in range(count):
            clear_registry()
            _, din, dout, _ = nd_bc_family(3 + index)
            session = compile_session(din, dout, cache_dir=tmp_path, reuse=False)
            path = artifact_cache.ensure_saved(session, cache_dir=tmp_path)
            paths.append(path)
        return paths

    def test_max_bytes_prunes_oldest_first(self, tmp_path):
        import os
        import time

        paths = self._populate(tmp_path, 3)
        # make mtime order unambiguous regardless of filesystem resolution
        now = time.time()
        for index, path in enumerate(paths):
            os.utime(path, (now + index, now + index))
        sizes = [path.stat().st_size for path in paths]
        budget = sizes[1] + sizes[2]
        removed = artifact_cache.clear(tmp_path, max_bytes=budget)
        assert removed == 1
        assert not paths[0].exists()
        assert paths[1].exists() and paths[2].exists()

    def test_zero_budget_clears_everything(self, tmp_path):
        paths = self._populate(tmp_path, 2)
        removed = artifact_cache.clear(tmp_path, max_bytes=0)
        assert removed == 2
        assert not any(path.exists() for path in paths)

    def test_default_clear_unchanged(self, tmp_path):
        paths = self._populate(tmp_path, 2)
        assert artifact_cache.clear(tmp_path) == 2
        assert not any(path.exists() for path in paths)

    def test_load_touches_mtime_for_lru(self, tmp_path):
        import os
        import time

        paths = self._populate(tmp_path, 1)
        old = time.time() - 3600
        os.utime(paths[0], (old, old))
        clear_registry()
        _, din, dout, _ = nd_bc_family(3)
        loaded = artifact_cache.load_session(
            din, dout, cache_dir=tmp_path
        )
        assert loaded is not None
        assert paths[0].stat().st_mtime > old + 1800


class TestTableSideFiles:
    """Per-transducer table snapshots live in side files, not the blob."""

    def _warm_published(self, tmp_path, n=6, count=3):
        """A published session that served ``count`` distinct transducers."""
        from repro.transducers.transducer import TreeTransducer

        clear_registry()
        transducer, din, dout, expected = nd_bc_family(n)
        session = compile_session(din, dout, cache_dir=tmp_path)
        transducers = [transducer]
        for j in range(1, count):
            renamed = TreeTransducer(
                {f"z{j}"},
                transducer.alphabet,
                f"z{j}",
                {
                    (f"z{j}", symbol): _rename_state(rhs, "q", f"z{j}")
                    for (_state, symbol), rhs in transducer.rules.items()
                },
            )
            transducers.append(renamed)
        for item in transducers:
            assert session.typecheck(item, method="forward").typechecks == expected
        artifact_cache.publish(session, cache_dir=tmp_path, min_interval_s=0)
        return session, din, dout, transducers, expected

    def test_publish_writes_one_side_file_per_transducer(self, tmp_path):
        import pathlib

        _session, _din, _dout, transducers, _e = self._warm_published(tmp_path)
        side = list(pathlib.Path(tmp_path).glob("*.tables.*.pkl"))
        assert len(side) == len(transducers)
        hashes = {t.content_hash() for t in transducers}
        # New-format side files carry the owning engine's name.
        assert {
            p.name.split(".tables.")[1].removesuffix(".pkl") for p in side
        } == {f"forward.{h}" for h in hashes}

    def test_blob_stays_small_as_tables_accrue(self, tmp_path):
        """The ROADMAP open item: the schema blob must not grow per served
        transducer — tables go to side files."""
        import pathlib

        session, din, dout, _ts, _e = self._warm_published(tmp_path, count=1)
        (blob,) = pathlib.Path(tmp_path).glob("*.session.pkl")
        size_one = blob.stat().st_size
        self._warm_published(tmp_path, count=4)
        size_four = blob.stat().st_size
        # identical shared-cell state, more tables: blob within a hair
        assert abs(size_four - size_one) < max(256, size_one // 20)

    def test_fresh_process_hydrates_tables_from_side_files(self, tmp_path):
        _s, din, dout, transducers, expected = self._warm_published(tmp_path)
        clear_registry()
        rebuilt = artifact_cache.load_session(
            din, dout, cache_dir=tmp_path
        )
        assert rebuilt is not None
        schema = rebuilt.forward_schema()
        assert len(schema.transducer_tables) == len(transducers)
        result = rebuilt.typecheck(transducers[-1], method="forward")
        assert result.typechecks == expected
        assert result.stats.get("table_cache") == "hit"
        assert result.stats["product_nodes"] == 0

    def test_v2_blob_with_embedded_tables_still_loads(self, tmp_path):
        """Migration: a blob written by the embedded-tables format (the
        whole export_artifacts dict, tables inline) must load, tables
        included — old caches survive the side-file split."""
        from pathlib import Path

        from repro.kernel import serialize

        clear_registry()
        transducer, din, dout, expected = nd_bc_family(5)
        session = Session(din, dout, eager=False)
        session.typecheck(transducer, method="forward")
        assert session.forward_schema().transducer_tables
        key = artifact_cache.artifact_key(din, dout)
        payload = {
            "cache_format": artifact_cache.CACHE_FORMAT,
            "version": repro.__version__,
            "key": key,
            "artifacts": session.export_artifacts(),  # tables embedded
        }
        Path(tmp_path, f"{key}.session.pkl").write_bytes(
            serialize.dumps(payload)
        )
        clear_registry()
        rebuilt = artifact_cache.load_session(
            din, dout, cache_dir=tmp_path
        )
        assert rebuilt is not None
        assert rebuilt.forward_schema().transducer_tables
        result = rebuilt.typecheck(transducer, method="forward")
        assert result.typechecks == expected
        assert result.stats.get("table_cache") == "hit"

    def test_clear_prunes_side_files_independently(self, tmp_path):
        """Old table snapshots fall to the byte budget while the (newer)
        schema blob survives."""
        import os
        import pathlib
        import time as time_module

        self._warm_published(tmp_path)
        directory = pathlib.Path(tmp_path)
        (blob,) = directory.glob("*.session.pkl")
        side = sorted(directory.glob("*.tables.*.pkl"))
        now = time_module.time()
        for index, path in enumerate(side):
            os.utime(path, (now - 3600 + index, now - 3600 + index))
        os.utime(blob, (now, now))  # the blob is the most recent entry
        keep = blob.stat().st_size + side[-1].stat().st_size
        removed = artifact_cache.clear(tmp_path, max_bytes=keep)
        assert removed == len(side) - 1
        assert blob.exists() and side[-1].exists()
        assert not any(path.exists() for path in side[:-1])


class TestClearConcurrencySafety:
    """`clear` races other pruners/publishers by design (satellite bugfix)."""

    def test_vanished_victims_are_tolerated_and_not_counted(
        self, tmp_path, monkeypatch
    ):
        import os as os_module
        import pathlib

        self._make_blobs(tmp_path, 3)
        victims = sorted(pathlib.Path(tmp_path).glob("*.session.pkl"))
        real_unlink = os_module.unlink
        stolen = str(victims[0])

        def racing_unlink(path, *args, **kwargs):
            # another process "wins the race" for the first victim
            if str(path) == stolen:
                real_unlink(path)  # it is gone...
                real_unlink(path)  # ...so ours raises FileNotFoundError
            return real_unlink(path, *args, **kwargs)

        monkeypatch.setattr(artifact_cache.os, "unlink", racing_unlink)
        removed = artifact_cache.clear(tmp_path)
        assert removed == 2  # only the deletions this call performed
        assert not any(path.exists() for path in victims)

    def test_missing_directory_is_zero_not_an_error(self, tmp_path):
        assert artifact_cache.clear(tmp_path / "never-created") == 0

    def test_file_vanishing_between_scan_and_stat(self, tmp_path, monkeypatch):
        import pathlib

        self._make_blobs(tmp_path, 2)
        paths = sorted(pathlib.Path(tmp_path).glob("*.session.pkl"))
        real_scandir = artifact_cache.os.scandir

        class _VanishingEntry:
            def __init__(self, entry):
                self._entry = entry
                self.name = entry.name
                self.path = entry.path

            def stat(self):
                raise FileNotFoundError(self.path)

        def scan(directory):
            entries = list(real_scandir(directory))
            return [
                _VanishingEntry(e) if e.path == str(paths[0]) else e
                for e in entries
            ]

        monkeypatch.setattr(artifact_cache.os, "scandir", scan)
        removed = artifact_cache.clear(tmp_path)
        assert removed == 1  # the vanished entry is skipped, not fatal
        assert not paths[1].exists()

    def _make_blobs(self, tmp_path, count):
        clear_registry()
        for index in range(count):
            _t, din, dout, _e = nd_bc_family(3 + index)
            session = compile_session(
                din, dout, cache_dir=tmp_path, reuse=False
            )
            artifact_cache.ensure_saved(session, cache_dir=tmp_path)
