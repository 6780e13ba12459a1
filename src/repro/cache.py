"""On-disk artifact cache for compiled typechecking sessions.

The second level of the compiled-session cache (the first is the in-process
registry in :mod:`repro.core.session`): pickled schema-side kernel
artifacts, keyed by the same schema *content hashes*, so a fresh
process pointed at a populated cache directory skips schema compilation
entirely::

    session = repro.compile(din, dout, cache_dir="/var/cache/repro")
    session.stats["source"]   # "artifact-cache" on a hit, "fresh" otherwise

Layout: one ``<key>.session.pkl`` file per ``(sin, sout)`` pair, where
``<key>`` is the SHA-256 of the two schema content hashes and the
versioning pins.  Per-transducer snapshots live in *side files*
``<key>.tables.<engine>.<transducer_hash>.pkl`` next to the schema blob
(forward fixpoint tables, backward result snapshots): they are what
actually grows over a service's lifetime (one complete least fixpoint per
distinct transducer), so keeping them out of the schema blob means
``publish`` never has to rewrite the whole session as tables accrue, and
:func:`clear` can prune table snapshots independently of (and before) the
schema artifacts they accompany.  All files are written atomically (temp
file + rename), so concurrent writers at worst both do the work once.

Versioned invalidation: the key bakes in the library version and the
cache/kernel format numbers, and every blob carries a header that is
re-checked on load — a stale or foreign file is treated as a miss, never an
error.  Blobs are loaded with :mod:`pickle`: point ``cache_dir`` only at
directories your own processes write (the artifact-cache use case), never
at untrusted data.

The default directory honors the ``REPRO_CACHE_DIR`` environment variable
and falls back to ``~/.cache/repro-typecheck``.
"""

from __future__ import annotations

import os
import tempfile
import time
from pathlib import Path
from typing import Dict, Optional

from repro import __version__
from repro.obs import metrics as _metrics
from repro.core.session import Session, schema_fingerprint, session_key
from repro.engines import engines as registered_engines
from repro.engines import persistent_engines
from repro.kernel import serialize
from repro.util import stable_digest

#: Bump when the artifact payload layout changes shape.  2: forward
#: artifacts carry the shared fixpoint cells and the per-transducer table
#: cache (closure-free HedgeEntry).  3: the key is the schema pair alone
#: (no options fingerprint) and side files always name their engine.
#: 4: DFAs memoize their completeness (a new slot) and the forward and
#: backward artifacts no longer carry per-key cost profiles.  5: content DFAs
#: store moves only on the symbols their model mentions, completions are
#: views with an implicit ``sink`` (a new slot), and interned DFA kernels
#: grew the ``alphabet``/``other`` column fields.
CACHE_FORMAT = 5

ENV_VAR = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """The cache directory used when none is given explicitly."""
    configured = os.environ.get(ENV_VAR)
    if configured:
        return Path(configured)
    return Path.home() / ".cache" / "repro-typecheck"


def artifact_key(sin, sout) -> str:
    """The content-hash key of a ``(sin, sout)`` pair.

    Includes the library version and both format numbers, so upgrading the
    library (or the kernel layout) invalidates every old artifact by
    construction — old files simply stop being addressed.
    """
    sin_fp, sout_fp = session_key(sin, sout)
    return stable_digest(
        "session-artifact",
        sin_fp,
        sout_fp,
        f"cache-format:{CACHE_FORMAT}",
        f"kernel-format:{serialize.KERNEL_FORMAT}",
        f"repro:{__version__}",
    )


def artifact_path(cache_dir, key: str) -> Path:
    return Path(cache_dir) / f"{key}.session.pkl"


def side_file_path(
    cache_dir, key: str, engine_name: str, transducer_hash: str
) -> Path:
    """The side file holding one transducer's snapshot for one engine."""
    return (
        Path(cache_dir) / f"{key}.tables.{engine_name}.{transducer_hash}.pkl"
    )


def _write_atomic(directory: Path, path: Path, blob: bytes) -> None:
    """Atomic publish: a reader only ever sees complete files."""
    fd, tmp_name = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def save_session(session: Session, cache_dir=None) -> Path:
    """Persist a session's schema-side artifacts; returns the file path.

    Per-transducer tables are *not* embedded — they go to side files (see
    :func:`_publish_tables`, called by :func:`publish`), so the schema blob
    stays at its compiled-artifacts size no matter how many transducers
    the session has served.
    """
    if cache_dir is None:
        cache_dir = default_cache_dir()
    directory = Path(cache_dir)
    directory.mkdir(parents=True, exist_ok=True)
    key = artifact_key(session.sin, session.sout)
    artifacts = session.export_artifacts()
    # Per-transducer snapshots go to write-once side files so the schema
    # blob never grows per served transducer — each engine declares which
    # of its state fields are side-file material (``side_strip_fields``).
    for engine in persistent_engines():
        section = artifacts.get(engine.name)
        if not isinstance(section, dict):
            continue
        stripped = None
        for field in engine.side_strip_fields:
            if section.get(field):
                if stripped is None:
                    stripped = dict(section)
                stripped[field] = {}
        if stripped is not None:
            artifacts = {**artifacts, engine.name: stripped}
    payload = {
        "cache_format": CACHE_FORMAT,
        "version": __version__,
        "key": key,
        "artifacts": artifacts,
    }
    path = artifact_path(directory, key)
    _write_atomic(directory, path, serialize.dumps(payload))
    _metrics.counter("repro.cache.publishes").inc()
    session.stats["published_state"] = _artifact_state(session)
    session.stats["published_at"] = time.monotonic()
    return path


def _publish_tables(session: Session, cache_dir) -> int:
    """Write side files for table snapshots not yet on disk; returns the
    number written.

    Snapshots are complete least fixpoints and never mutate, so each side
    file is write-once — existence is the only check.  Un-throttled by
    design: one small side file per *new* transducer is exactly the growth
    the blob-splitting exists to absorb.
    """
    pending = []
    with session._lock:
        for engine in registered_engines():
            if engine.side_field is None:
                continue
            store_pair = engine.side_store(session)
            if store_pair is None:
                continue
            store, _limit = store_pair
            if store:
                pending.append((engine, list(store.items())))
    if not pending:
        return 0
    directory = Path(cache_dir)
    directory.mkdir(parents=True, exist_ok=True)
    key = artifact_key(session.sin, session.sout)
    written = 0
    for engine, items in pending:
        for transducer_hash, snapshot in items:
            path = side_file_path(directory, key, engine.name, transducer_hash)
            if path.exists():
                continue
            payload = {
                "cache_format": CACHE_FORMAT,
                "key": key,
                "engine": engine.name,
                "transducer": transducer_hash,
                engine.side_field: snapshot,
            }
            _write_atomic(directory, path, serialize.dumps(payload))
            written += 1
    return written


def _hydrate_kind(
    entries, key: str, field: str, store: dict, limit: int
) -> int:
    """Select and install one kind of side-file payload into ``store``.

    ``entries`` are pre-scanned ``(mtime, path)`` pairs of one prefix
    kind.  Newest-mtime first — they win the LRU budget — bounded by the
    owning schema's ``limit`` so a directory holding years of snapshots
    cannot balloon one session, tolerant of concurrent pruners (vanished
    files are simply skipped).
    """
    entries.sort(reverse=True)  # newest first
    selected = []
    for _mtime, path in entries:
        if len(selected) >= limit:
            break
        try:
            payload = serialize.loads(Path(path).read_bytes())
        except OSError:
            continue
        if not isinstance(payload, dict) or payload.get("key") != key:
            continue
        if payload.get("cache_format") != CACHE_FORMAT:
            continue
        transducer_hash = payload.get("transducer")
        value = payload.get(field)
        if not isinstance(transducer_hash, str) or not isinstance(value, dict):
            continue
        if transducer_hash not in store:
            selected.append((transducer_hash, value))
    # Insert oldest-first: the in-memory cache evicts from the front, so
    # the newest snapshots must land at the recently-used end.
    for transducer_hash, value in reversed(selected):
        store.setdefault(transducer_hash, value)
    return len(selected)


def _load_side_files(session: Session, cache_dir, key: str) -> int:
    """Hydrate per-transducer side files into a freshly loaded session.

    One directory scan buckets snapshots by the engine their name carries
    (``<key>.tables.<engine>.<hash>.pkl``).  Buckets for engines the
    schema pair does not support are skipped — foreign leftovers, never
    an error.  Each bucket then hydrates through :func:`_hydrate_kind`
    into the store :meth:`~repro.engines.Engine.side_store` names.
    """
    side_engines = [
        engine for engine in registered_engines()
        if engine.side_field is not None
    ]
    if not side_engines:
        return 0
    try:
        names = list(os.scandir(Path(cache_dir)))
    except OSError:
        return 0
    by_name = {engine.name: engine for engine in side_engines}
    tables_prefix = f"{key}.tables."
    buckets: Dict[str, list] = {engine.name: [] for engine in side_engines}
    for entry in names:
        if not (
            entry.name.endswith(".pkl") and entry.name.startswith(tables_prefix)
        ):
            continue
        rest = entry.name[len(tables_prefix):]
        engine = by_name.get(rest.split(".", 1)[0])
        if engine is None:
            continue
        try:
            buckets[engine.name].append((entry.stat().st_mtime, entry.path))
        except OSError:
            pass  # pruned concurrently — not our snapshot anymore
    loaded = 0
    for engine in side_engines:
        if not buckets[engine.name]:
            continue
        if engine.supports(session.sin, session.sout) is not True:
            continue  # foreign leftovers for a pair this engine rejects
        store_pair = engine.side_store(session, build=True)
        if store_pair is None:
            continue
        store, limit = store_pair
        loaded += _hydrate_kind(
            buckets[engine.name], key, engine.side_field, store, limit
        )
    return loaded


def ensure_saved(session: Session, cache_dir=None) -> Path:
    """Persist the session's artifacts unless the file already exists.

    The no-op path is what long-lived servers hit on every call after the
    first; a stale key (version bump, changed schemas) simply addresses a
    different file, so existence is the only check needed.
    """
    if cache_dir is None:
        cache_dir = default_cache_dir()
    key = artifact_key(session.sin, session.sout)
    path = artifact_path(cache_dir, key)
    if path.exists():
        return path
    return save_session(session, cache_dir=cache_dir)


def _artifact_state(session: Session) -> tuple:
    """A cheap fingerprint of the *blob* state worth re-publishing for.

    Per-transducer tables and backward result snapshots are deliberately
    absent: they live in side files (written un-throttled by
    :func:`publish`), so a session that only accrues them never rewrites
    its schema blob.  What does grow the blob is the forward engine's
    shared σ-independent cells, whose counts its ``publish_state``
    reports.
    """
    state: list = []
    for engine in persistent_engines():
        state.extend(engine.publish_state(session))
    return tuple(state)


def publish(session: Session, cache_dir=None, min_interval_s: float = 30.0) -> Path:
    """Persist the session's artifacts, refreshing stale blobs.

    ``ensure_saved`` alone would freeze the blob at its first (usually
    empty) state forever: sessions accumulate their most valuable
    artifacts — converged shared cells, per-transducer fixpoint tables —
    *after* the first save.  ``publish`` rewrites the blob when the
    schema-side state grew, throttled to ``min_interval_s`` so a steady
    request stream is not re-serializing it per call, and writes a
    (write-once, un-throttled) side file for every table snapshot not yet
    on disk.  This is what ``repro.compile`` calls on every cache-backed
    lookup.
    """
    if cache_dir is None:
        cache_dir = default_cache_dir()
    path = ensure_saved(session, cache_dir=cache_dir)
    _publish_tables(session, cache_dir)
    state = _artifact_state(session)
    if state == session.stats.get("published_state"):
        return path
    published_at = session.stats.get("published_at")
    now = time.monotonic()
    if (
        published_at is not None
        and min_interval_s > 0
        and now - float(published_at) < min_interval_s
    ):
        return path
    return save_session(session, cache_dir=cache_dir)


def load_session(sin, sout, *, cache_dir=None) -> Optional[Session]:
    """Rebuild a warm session from the cache; ``None`` on any miss.

    A miss is silent by design — a stale format, a version bump, a torn
    file or a foreign blob all mean "compile fresh", never an exception.
    """
    session = _load_session(sin, sout, cache_dir=cache_dir)
    _metrics.counter(
        "repro.cache.hits" if session is not None else "repro.cache.misses"
    ).inc()
    return session


def _load_session(sin, sout, *, cache_dir=None) -> Optional[Session]:
    if cache_dir is None:
        cache_dir = default_cache_dir()
    key = artifact_key(sin, sout)
    path = artifact_path(cache_dir, key)
    try:
        blob = path.read_bytes()
    except OSError:
        return None
    payload = serialize.loads(blob)
    if not isinstance(payload, dict):
        return None
    if payload.get("cache_format") != CACHE_FORMAT:
        return None
    if payload.get("version") != __version__:
        return None
    if payload.get("key") != key:
        return None
    artifacts = payload.get("artifacts")
    if not isinstance(artifacts, dict):
        return None
    try:
        if schema_fingerprint(artifacts["sin"]) != schema_fingerprint(sin):
            return None
        if schema_fingerprint(artifacts["sout"]) != schema_fingerprint(sout):
            return None
        try:
            # Touch on hit: mtime is the LRU recency signal of clear().
            os.utime(path)
        except OSError:
            pass
        session = Session.from_artifacts(artifacts)
        # Per-transducer snapshots come from side files.
        _load_side_files(session, cache_dir, key)
        # The session's state *is* the blob's state: stamp it so publish()
        # rewrites only once it actually grows beyond what is on disk.
        session.stats["published_state"] = _artifact_state(session)
        session.stats["published_at"] = time.monotonic()
        return session
    except Exception:
        return None


def clear(cache_dir=None, max_bytes: Optional[int] = None) -> int:
    """Prune artifacts in ``cache_dir``; returns the count actually removed.

    With ``max_bytes=None`` every artifact goes (the seed behavior).  With
    a byte budget the cache is LRU-pruned instead: files are deleted
    oldest-``mtime``-first until the survivors fit in ``max_bytes`` —
    writes set the file's mtime and :func:`load_session` touches blobs on
    every hit, so mtime order is recency order.  Schema blobs
    (``*.session.pkl``) and per-transducer side files (``*.tables.*.pkl``,
    plus the ``*.btables.*.pkl`` files format-2 caches wrote) are
    independent LRU entries: cold table snapshots are pruned without
    touching the (much smaller, dearly recompiled) schema artifacts next
    to them.  The typechecking service bounds its cache directory this way
    on startup (:data:`repro.service.pool.DEFAULT_CACHE_BYTES`).

    Concurrency: the service prunes while other processes publish and
    load, so every per-file step tolerates the file vanishing between the
    directory scan and ``stat``/``unlink`` — a racing deletion is someone
    else doing this function's job, never an error — and the return value
    counts only deletions *this* call performed.

    Also sweeps ``*.tmp`` orphans left by a writer killed between
    ``mkstemp`` and the atomic rename (orphans are not counted).  Only
    files older than an hour are treated as orphans: a fresh ``.tmp`` may
    be a *live* concurrent writer mid-``os.replace``.
    """
    if cache_dir is None:
        cache_dir = default_cache_dir()
    directory = Path(cache_dir)
    try:
        listing = list(os.scandir(directory))
    except OSError:
        return 0  # no directory (or it vanished) — nothing to prune
    entries = []
    tmp_files = []
    for entry in listing:
        name = entry.name
        if name.endswith(".tmp"):
            tmp_files.append(entry)
            continue
        if not name.endswith(".pkl"):
            continue
        if not (
            name.endswith(".session.pkl")
            or ".tables." in name
            or ".btables." in name
        ):
            continue
        try:
            stat = entry.stat()
        except OSError:
            continue  # deleted by a concurrent pruner mid-scan
        entries.append((stat.st_mtime, stat.st_size, entry.path))
    if max_bytes is None:
        victims = [path for (_mtime, _size, path) in entries]
    else:
        entries.sort()  # oldest first
        total = sum(size for (_mtime, size, _path) in entries)
        victims = []
        for _mtime, size, path in entries:
            if total <= max_bytes:
                break
            victims.append(path)
            total -= size
    removed = 0
    for path in victims:
        try:
            os.unlink(path)
            removed += 1
        except OSError:
            pass  # already gone — only count our own deletions
    orphan_age = time.time() - 3600
    for entry in tmp_files:
        try:
            if entry.stat().st_mtime < orphan_age:
                os.unlink(entry.path)
        except OSError:
            pass
    if removed:
        _metrics.counter("repro.cache.prunes").inc(removed)
    return removed
