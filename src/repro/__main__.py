"""Command-line interface: ``python -m repro [options] <instance> ...``.

The CLI consumes simple instance files with three sections separated by
lines of ``---``:

1. the input DTD: first line ``start <symbol>``, then rules ``a -> regex``;
2. the transducer: first line ``initial <state> states <q1> <q2> ...``,
   then rules ``q, a -> rhs`` in the paper's term syntax;
3. the output DTD (same format as the input DTD).

Example (the paper's Example 10/11)::

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

Options::

    --batch            per-instance report lines prefixed by the file name,
                       plus a summary (implied when several files are given)
    --method METHOD    algorithm override: auto (default), forward, backward
                       (inverse type inference — the cross-checking second
                       engine), replus, replus-witnesses, delrelab, bruteforce.
                       auto routes by schema class alone: DTD(RE+) pairs
                       to replus, other DTD pairs to backward, del-relab
                       transducers over tree automata to delrelab; the
                       report line names the engine that ran
    --cache-dir DIR    persist/reuse compiled schema artifacts in DIR
                       (see repro.cache)
    --update FILE      update-validation mode: FILE is an XML edit script
                       (one ``rename a -> b`` / ``delete-node a`` /
                       ``insert-after a x`` / ``wrap a w`` op per line, see
                       repro.updates); each instance file then carries just
                       TWO sections — input DTD ``---`` output DTD — and
                       the checked transducer is the script compiled over
                       the input alphabet
    --trace FILE       append JSON-lines trace spans (compile, fixpoint,
                       ...) to FILE; each instance is
                       checked under its own trace ID (see repro.obs.trace)
    --explain          print each instance's query attribution report after
                       its verdict: the engine that ran with its measured
                       ms, cache provenance, and the query's own kernel
                       counters (repro.obs.explain)

Several instance files may be given; all instances sharing a schema pair
are checked against one warm compiled session (``repro.compile``), so the
schema-side work is done once per *distinct* pair, not once per file.

Exit status 0 = every instance typechecks, 1 = at least one fails (a
counterexample is printed), 2 = usage error or any instance errored.

The ``serve`` subcommand starts the multi-process typechecking service
(:mod:`repro.service`) instead of checking files::

    python -m repro serve [--host H] [--port P] [--workers N]
                          [--cache-dir DIR] [--max-cache-bytes B]
                          [--max-inflight N] [--max-inflight-total N]
                          [--worker-registry-bytes B]
                          [--worker-pair-limit N]
                          [--trace FILE] [--trace-max-bytes B]
                          [--metrics-port P]
                          [--slow-query-log FILE] [--slow-ms N]

``--max-inflight`` bounds one connection's in-flight requests,
``--max-inflight-total`` the aggregate across all connections,
``--worker-registry-bytes`` sets each worker's session-registry byte
budget (size-aware eviction of warm schema pairs), and
``--worker-pair-limit`` bounds each worker's protocol-v2 pinned-pair
registry (evicted pins re-establish transparently on next use).
``--trace FILE`` appends JSON-lines trace spans from the server and every
worker to FILE (``--trace-max-bytes B`` bounds the file with a
one-segment ``.1`` rotation); ``--metrics-port P`` serves the merged
metrics registry in Prometheus text format on a second port — with
``/healthz`` (liveness) and ``/readyz`` (all workers alive) views — and
turns on the kernel counters.  ``--slow-query-log FILE`` appends one
JSON line per single-instance request slower than ``--slow-ms N``
(default 100): wire identifiers, trace ID, and the query's full explain
report, so one log entry reconstructs a slow query; loggable ops
then always run with explain on (the log's documented overhead).  It
speaks the JSON-lines protocol of :mod:`repro.service.protocol` (v2
sticky pairs included); drive it with
:class:`repro.service.client.ServiceClient`.
"""

from __future__ import annotations

import sys
from typing import List, Optional

from repro.engines import engine_names
from repro.errors import ReproError
from repro.core.session import compile as compile_session

# The CLI's section format is the service's wire format; the parsers live
# with the protocol and are re-exported here for backwards compatibility.
from repro.service.protocol import (  # noqa: F401 - re-exported names
    load_instance,
    parse_dtd_section,
    parse_transducer_section,
)

_METHODS = ("auto", *engine_names())


def _parse_args(argv: List[str]):
    """Manual flag parsing (keeps the seed's exit-code contract: usage
    problems print the module docstring and return 2)."""
    files: List[str] = []
    batch = False
    method = "auto"
    cache_dir: Optional[str] = None
    update: Optional[str] = None
    trace: Optional[str] = None
    explain = False
    index = 0
    while index < len(argv):
        arg = argv[index]
        if arg in ("-h", "--help"):
            return None
        if arg == "--batch":
            batch = True
        elif arg == "--explain":
            explain = True
        elif arg == "--method":
            index += 1
            if index >= len(argv) or argv[index] not in _METHODS:
                return None
            method = argv[index]
        elif arg == "--cache-dir":
            index += 1
            if index >= len(argv):
                return None
            cache_dir = argv[index]
        elif arg == "--update":
            index += 1
            if index >= len(argv):
                return None
            update = argv[index]
        elif arg == "--trace":
            index += 1
            if index >= len(argv):
                return None
            trace = argv[index]
        elif arg.startswith("-"):
            return None
        else:
            files.append(arg)
        index += 1
    if not files:
        return None
    return (
        files, batch or len(files) > 1, method, cache_dir, update, trace,
        explain,
    )


def _load_update_pair(name: str, script):
    """Update-validation mode: a two-section DTD pair file plus the
    compiled edit script (the transducer is derived, not authored)."""
    from repro.schemas.dtd import DTD
    from repro.service.protocol import _is_alphabet_line, split_sections
    from repro.updates import compile_script

    with open(name, encoding="utf-8") as handle:
        sections = split_sections(handle.read())
    if len(sections) != 2:
        from repro.errors import ParseError

        raise ParseError(
            "--update instances carry 2 sections (input DTD --- output "
            f"DTD), found {len(sections)}"
        )
    din = parse_dtd_section(sections[0])
    transducer = compile_script(script, din.alphabet)
    dout = parse_dtd_section(sections[1])
    if not (len(sections[1]) > 1 and _is_alphabet_line(sections[1][1])):
        # Same per-instance widening convention as load_instance: the
        # output DTD's content models usually mention only a fragment of
        # the labels the edited documents may carry.
        dout = DTD(dout.rules(), start=dout.start, alphabet=transducer.alphabet)
    return transducer, din, dout


def _check_one(
    name: str, method: str, cache_dir: Optional[str], script=None,
    explain: bool = False,
):
    """Load and typecheck one instance file against a (shared) session.

    With ``--trace`` active each instance runs under its own fresh trace
    ID, so one slow file's spans are separable from its batch-mates'.
    """
    from repro.obs import trace as trace_mod

    if not trace_mod.enabled():
        return _check_one_inner(name, method, cache_dir, script, explain)
    with trace_mod.root():
        return _check_one_inner(name, method, cache_dir, script, explain)


def _check_one_inner(
    name: str, method: str, cache_dir: Optional[str], script=None,
    explain: bool = False,
):
    if script is not None:
        transducer, din, dout = _load_update_pair(name, script)
    else:
        with open(name, encoding="utf-8") as handle:
            transducer, din, dout = load_instance(handle.read())
    # The registry inside compile() hands back one warm session per
    # distinct (din, dout) content hash, so schema artifacts are compiled
    # once per pair across the whole batch.
    session = compile_session(din, dout, eager=False, cache_dir=cache_dir)
    return session, session.typecheck(transducer, method=method, explain=explain)


def _parse_serve_args(argv: List[str]):
    """Flags of the ``serve`` subcommand; ``None`` on usage error."""
    options = {
        "host": "127.0.0.1", "port": 8722, "workers": 2,
        "cache_dir": None, "max_cache_bytes": None,
        "max_inflight": None, "max_inflight_total": None,
        "worker_registry_bytes": None, "worker_pair_limit": None,
        "trace": None, "trace_max_bytes": None, "metrics_port": None,
        "slow_query_log": None, "slow_ms": None,
    }
    index = 0
    while index < len(argv):
        arg = argv[index]
        if arg in ("-h", "--help"):
            return None
        if arg in ("--host", "--port", "--workers", "--cache-dir",
                   "--max-cache-bytes", "--max-inflight",
                   "--max-inflight-total", "--worker-registry-bytes",
                   "--worker-pair-limit", "--trace", "--trace-max-bytes",
                   "--metrics-port", "--slow-query-log", "--slow-ms"):
            index += 1
            if index >= len(argv):
                return None
            value = argv[index]
            if arg == "--host":
                options["host"] = value
            elif arg == "--cache-dir":
                options["cache_dir"] = value
            elif arg == "--trace":
                options["trace"] = value
            elif arg == "--slow-query-log":
                options["slow_query_log"] = value
            elif arg == "--slow-ms":
                try:
                    options["slow_ms"] = float(value)
                except ValueError:
                    return None
            else:
                try:
                    options[arg[2:].replace("-", "_")] = int(value)
                except ValueError:
                    return None
        else:
            return None
        index += 1
    # Semantic range checks are usage errors too (exit 2, not a traceback).
    if not 0 <= int(options["port"]) <= 65535:
        return None
    if int(options["workers"]) < 1:
        return None
    metrics_port = options["metrics_port"]
    if metrics_port is not None and not 0 <= int(metrics_port) <= 65535:
        return None
    max_cache = options["max_cache_bytes"]
    if max_cache is not None and int(max_cache) < 0:
        return None
    for flag in ("max_inflight", "max_inflight_total", "worker_registry_bytes",
                 "worker_pair_limit", "trace_max_bytes"):
        value = options[flag]
        if value is not None and int(value) < 1:
            return None
    slow_ms = options["slow_ms"]
    if slow_ms is not None and not slow_ms >= 0:
        return None
    return options


def _serve(argv: List[str]) -> int:
    options = _parse_serve_args(argv)
    if options is None:
        print(__doc__)
        return 2
    from repro.service.pool import DEFAULT_CACHE_BYTES
    from repro.service.server import (
        DEFAULT_MAX_INFLIGHT,
        DEFAULT_MAX_INFLIGHT_TOTAL,
        DEFAULT_SLOW_MS,
        run_server,
    )

    max_cache_bytes = options["max_cache_bytes"]
    max_inflight = options["max_inflight"]
    max_inflight_total = options["max_inflight_total"]
    try:
        return run_server(
            options["host"],
            options["port"],
            workers=options["workers"],
            cache_dir=options["cache_dir"],
            cache_max_bytes=(
                DEFAULT_CACHE_BYTES if max_cache_bytes is None else max_cache_bytes
            ),
            max_inflight=(
                DEFAULT_MAX_INFLIGHT if max_inflight is None else max_inflight
            ),
            max_inflight_total=(
                DEFAULT_MAX_INFLIGHT_TOTAL
                if max_inflight_total is None
                else max_inflight_total
            ),
            worker_registry_bytes=options["worker_registry_bytes"],
            worker_pair_limit=options["worker_pair_limit"],
            trace_path=options["trace"],
            trace_max_bytes=options["trace_max_bytes"],
            metrics_port=options["metrics_port"],
            slow_query_log=options["slow_query_log"],
            slow_ms=(
                DEFAULT_SLOW_MS
                if options["slow_ms"] is None
                else options["slow_ms"]
            ),
        )
    except OSError as exc:
        # Bind failures (port in use, bad host) are usage errors, not bugs.
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv: List[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "serve":
        return _serve(argv[1:])
    parsed = _parse_args(argv)
    if parsed is None:
        print(__doc__)
        return 2
    files, batch, method, cache_dir, update, trace, explain = parsed
    if trace is not None:
        from repro.obs import trace as trace_mod

        try:
            trace_mod.trace_to(trace)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    script = None
    if update is not None:
        from repro.updates import parse_update_script

        try:
            with open(update, encoding="utf-8") as handle:
                script = parse_update_script(handle.read())
        except (ReproError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    if not batch:
        # Single-instance mode: the seed's exact output contract
        # (--explain appends its report after the verdict lines).
        try:
            _, result = _check_one(files[0], method, cache_dir, script, explain)
        except (ReproError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if result.typechecks:
            print(f"TYPECHECKS ({result.algorithm})")
            if result.report is not None:
                print(result.report.render())
            return 0
        print(f"FAILS ({result.algorithm}): {result.reason}")
        if result.counterexample is not None:
            print(f"counterexample: {result.counterexample}")
            print(f"its translation: {result.output}")
        if result.report is not None:
            print(result.report.render())
        return 1

    passed = failed = errored = 0
    sessions = set()  # content-hash keys, stable across registry eviction
    for name in files:
        try:
            session, result = _check_one(name, method, cache_dir, script, explain)
        except (ReproError, OSError) as exc:
            print(f"{name}: ERROR: {exc}", file=sys.stderr)
            errored += 1
            continue
        sessions.add(session.key)
        if result.typechecks:
            print(f"{name}: TYPECHECKS ({result.algorithm})")
            passed += 1
        else:
            print(f"{name}: FAILS ({result.algorithm}): {result.reason}")
            if result.counterexample is not None:
                print(f"{name}: counterexample: {result.counterexample}")
                print(f"{name}: its translation: {result.output}")
            failed += 1
        if result.report is not None:
            for line in result.report.render().splitlines():
                print(f"{name}: {line}")
    total = len(files)
    print(
        f"checked {total} instance{'s' if total != 1 else ''}: "
        f"{passed} typechecked, {failed} failed, {errored} errored "
        f"({len(sessions)} schema pair{'s' if len(sessions) != 1 else ''} compiled)"
    )
    if errored:
        return 2
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover - exercised via tests
    sys.exit(main())
