#!/usr/bin/env python
"""Old-vs-new benchmark for the ``repro.kernel`` interned-state automata
kernel, seeding the repo's perf trajectory.

Times the seed object-state implementations (the oracles retained in
:mod:`repro.kernel.reference`, ``typecheck_forward_object`` included)
against the interned kernel on the ``workloads/families.py`` scaling
families plus DFA/NTA micro-workloads, verifies every result, and writes
``BENCH_kernel.json`` at the repo root.

The warm-vs-cold *session* family (compiled ``Session`` batches vs fresh
per-call pipelines, plus the registry-backed one-shot repeat) is measured
alongside and written to ``BENCH_session.json``.

The *compile* family times eager ``repro.compile`` plus the first
``method="auto"`` query on fresh ``nd_bc(n)`` pairs (rows in
``BENCH_kernel.json``); the smoke gate fails if nd_bc(256) takes more
than :data:`COMPILE_SMOKE_MAX_RATIO` times nd_bc(64) — linear compile
reads ~4x.

The *backward* family (PR 5) races the inverse-type-inference engine
(``repro.backward``, ``method="backward"``) against the forward engine on
the same workload families plus the wide-copy/small-output family built
for it, asserting verdict parity on both polarities of every row, and
writes ``BENCH_backward.json``; the smoke gate bounds the backward
engine at 1.2x of forward on the forward-friendly family and requires it
to beat forward on the wide-copy family.  ``method="auto"`` sends every
non-RE⁺ DTD pair to ``backward`` without pricing forward, so these gates
guard that route's premise.

The *service* family (PR 3) measures the multi-process worker pool on the
``nd_bc_batch`` workload — batch throughput with 1/2/4 workers against the
in-process session baseline, the per-transducer table-cache repeat, and
sticky-pair request bytes — and writes ``BENCH_service.json``.  Multi-worker
speedups are hardware-bound: the file records ``cpu_count`` and the smoke
gate adapts (on a single-CPU runner it only asserts bounded pool overhead
and correctness; with >= 2 CPUs it requires a real 2-worker speedup).

The *incremental* family times ``Session.retypecheck`` — the warm
re-check behind the ``repro.updates`` edit-script workloads, a plain
``method="auto"`` query on a compiled session — against a fresh
session's compile plus check of the same single-rule edits on the
edit-arm family, asserting verdict parity with a cold session on both
polarities of every edit, and writes ``BENCH_incremental.json``; the
smoke gate requires the warm re-check to beat the fresh session by a
real margin.

The *obs* family (PR 8) prices the ``repro.obs`` telemetry layer on the
``nd_bc`` forward family: ``plain_s`` patches the span seam out entirely
(no instrumentation at all), ``off_s`` runs the shipped disabled path
(null-span check, unmetered kernel drain), and ``on_s`` runs with a live
JSON-lines trace sink plus the metered kernel drain.  The rows land in
``BENCH_obs.json``; the smoke gate bounds ``off_over_plain`` — what
every untelemetered caller pays for the hooks existing — at
:data:`OBS_SMOKE_MAX_OVERHEAD`, while ``on_over_off`` is informational.

``--only FAMILY`` (repeatable, comma-separated) restricts a run to the
named families.  Output files are merged *in place*: only the row groups
that actually re-ran replace their old sections, so a partial run
refreshes stale BENCH_*.json sections without truncating the rest.

Usage::

    python benchmarks/bench_kernel.py            # full run
    python benchmarks/bench_kernel.py --only incremental,session
                                                 # re-time the warm edit
                                                 # re-check and the session
                                                 # family, keep the other
                                                 # sections
    python benchmarks/bench_kernel.py --smoke    # CI guard: fails (exit 1)
                                                 # if the kernel is slower
                                                 # than the baseline on the
                                                 # smoke family, a warm
                                                 # session fails to beat
                                                 # cold setup, the worker
                                                 # pool misses its
                                                 # (cpu-adaptive) gate,
                                                 # a warm edit re-check
                                                 # fails to beat a fresh
                                                 # session, or cold
                                                 # compile scales worse
                                                 # than 8x from nd_bc(64)
                                                 # to nd_bc(256)
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.backward import typecheck_backward  # noqa: E402
from repro.core.api import typecheck  # noqa: E402
from repro.core.forward import typecheck_forward  # noqa: E402
from repro.core.session import Session, clear_registry  # noqa: E402
from repro.kernel import reference  # noqa: E402
from repro.schemas.to_nta import dtd_to_nta  # noqa: E402
from repro.strings.dfa import DFA  # noqa: E402
from repro.tree_automata.emptiness import productive_states  # noqa: E402
from repro.workloads.families import (  # noqa: E402
    filtering_family,
    nd_bc_batch,
    nd_bc_family,
    wide_copy_family,
)

SMOKE_FAMILY = ("nd_bc", 16)
# CI guard threshold: the smoke family runs at ~2x locally; requiring only
# ≥ 0.8x keeps the gate meaningful (a real regression drops well below)
# without flaking on noisy shared runners.
SMOKE_MIN_SPEEDUP = 0.8
# Warm sessions must beat cold setup.  Local speedups on the smoke batch are
# ~3x; 1.2x keeps the guard meaningful without flaking on shared runners.
SESSION_SMOKE_FAMILY = (16, 6)
SESSION_SMOKE_MIN_SPEEDUP = 1.2
# Service pool gate: with real CPUs a 2-worker pool must beat 1 worker;
# time-sliced single-CPU runners can only be held to bounded overhead.
SERVICE_SMOKE_MIN_SPEEDUP = 1.15
SERVICE_SMOKE_MIN_RATIO_1CPU = 0.3
# Sticky-pair gate: request bytes are deterministic, so the bound is firm —
# pinning the pair must cut the total request bytes of a 10-item run well
# below the same queries sent with inline schemas (locally ~0.6x).
STICKY_SMOKE_MAX_BYTES_RATIO = 0.8
# Backward-engine gates: verdict parity with forward is asserted on every
# row; the timing gates bound the inverse-type-inference engine at 1.2x of
# forward on the forward-friendly smoke family (locally ~0.3x, i.e.
# backward wins there too) and require it to *beat* the forward engine on
# the wide-copy/small-output family built for it (locally ~0.002x).  Auto
# routes every non-RE⁺ DTD pair to backward without pricing the
# alternatives, so these gates guard that design's premise: backward is
# never far behind forward.
BACKWARD_SMOKE_MAX_RATIO = 1.2
BACKWARD_WIDE_COPY_MAX_RATIO = 0.5
# Observability gate: the disabled telemetry path (null-span check plus
# the unmetered kernel drain) must cost no more than 5% over a build with
# the span seam patched out entirely — the hooks are supposed to be free
# when nobody turned them on.  Locally the ratio is ~1.0x.
OBS_SMOKE_MAX_OVERHEAD = 1.05
# Each obs timing sample runs its variant back to back for at least this
# long, and the gate reads the median of paired per-repetition ratios over
# at least OBS_MIN_SAMPLES repetitions: a best-of-7 over single ~4 ms calls
# read 0.88x-1.30x for unchanged code, which no 5% bound can resolve.
OBS_SAMPLE_S = 0.05
OBS_MIN_SAMPLES = 41
# Warm edit re-check gate: after a single-rule edit, ``retypecheck`` on
# the compiled session must beat a fresh session's compile plus check of
# the edited transducer; 0.8x keeps the gate meaningful without flaking.
INCREMENTAL_SMOKE_MAX_RATIO = 0.8
# Linear-compile gate: eager compile plus the first auto query on a fresh
# nd_bc(256) pair may take at most this multiple of nd_bc(64).  The chain
# is 4x longer, so a cost linear in the schema reads ~4x; content automata
# determinized, minimized and interned over the whole alphabet read ~17x.
# A ratio of two sizes on one host does not depend on the host's speed.
COMPILE_SMOKE_SIZES = (64, 256)
COMPILE_SMOKE_MAX_RATIO = 8.0

# ``--only`` choices; each family owns the BENCH_*.json row groups it
# re-runs (forward/dfa/nta share BENCH_kernel.json, service covers every
# service-* group).
FAMILIES = (
    "forward", "dfa", "nta", "compile", "backward", "session",
    "service", "incremental", "obs",
)


def _obs_row(variants, repeat: int) -> Dict[str, float]:
    """Time the ``(name, seam, fn)`` variants plain/off/on; the row fields.

    Variants are interleaved within every repetition, in reversed order
    on odd repetitions so a linear host drift biases no variant.  Each
    sample is the mean per call over one batch of back-to-back calls
    lasting about :data:`OBS_SAMPLE_S`, run inside the variant's ``seam``
    with the cyclic garbage collector paused (as ``timeit`` does).  The
    ratios are medians of the per-repetition ratios of adjacent samples,
    over at least :data:`OBS_MIN_SAMPLES` repetitions: on a shared 2-vCPU
    host one batch still swings 2x between phases, and an A/A run (the
    same code as both variants) read 0.89x-1.15x as a ratio of separate
    minima but stayed within 1.5% of 1.00x as a paired median.  Times are
    per-call medians.
    """
    start = time.perf_counter()
    variants[0][2]()
    calls = int(OBS_SAMPLE_S / max(time.perf_counter() - start, 1e-6)) + 1
    times: Dict[str, List[float]] = {name: [] for name, _seam, _fn in variants}
    for index in range(max(repeat, OBS_MIN_SAMPLES)):
        for name, seam, fn in variants if index % 2 == 0 else variants[::-1]:
            with seam():
                gc.collect()
                gc.disable()
                try:
                    start = time.perf_counter()
                    for _ in range(calls):
                        fn()
                    elapsed = time.perf_counter() - start
                finally:
                    gc.enable()
            times[name].append(elapsed / calls)

    def paired(top: str, bottom: str) -> float:
        return statistics.median(
            a / b for a, b in zip(times[top], times[bottom])
        )

    return {
        "plain_s": statistics.median(times["plain"]),
        "off_s": statistics.median(times["off"]),
        "on_s": statistics.median(times["on"]),
        "off_over_plain": paired("off", "plain"),
        "on_over_off": paired("on", "off"),
        "samples": len(times["plain"]),
        "calls_per_sample": calls,
    }


def best_of(fn, repeat: int) -> float:
    """Best-of-``repeat`` wall time in seconds (min is robust to noise)."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def counter_dfa(n: int, symbols: int = 3) -> DFA:
    """A complete n-state counter DFA over ``symbols`` letters."""
    sigma = [f"x{j}" for j in range(symbols)]
    transitions = {
        (i, sigma[j]): (i + j + 1) % n for i in range(n) for j in range(symbols)
    }
    return DFA(range(n), sigma, transitions, 0, {0})


def bench_forward(results, sizes, repeat: int) -> None:
    """typecheck_forward: interned kernel vs the seed object fixpoint
    (the oracle ``reference.typecheck_forward_object``)."""
    for name, family, n in sizes:
        transducer, din, dout, expected = family(n)
        # Warm the DTD-level caches both engines share, and verify both
        # engines give the right answer before timing anything.
        for check in (typecheck_forward, reference.typecheck_forward_object):
            result = check(transducer, din, dout)
            assert result.typechecks == expected, (name, n, check.__name__)
        old = best_of(
            lambda: reference.typecheck_forward_object(transducer, din, dout),
            repeat,
        )
        new = best_of(
            lambda: typecheck_forward(transducer, din, dout),
            repeat,
        )
        results.append(
            {
                "group": "forward",
                "name": f"{name}({n})",
                "family": name,
                "n": n,
                "baseline_s": old,
                "kernel_s": new,
                "speedup": old / new,
            }
        )


def bench_backward(results, sizes, repeat: int) -> None:
    """Forward vs backward engine across the workload families.

    Every row checks verdict parity on *both* polarities of the family
    (passing and failing variants) before timing — the backward engine's
    reason to exist is being an independent oracle, so a disagreement is
    a benchmark failure, not a data point.  The parity checks skip
    counterexample materialization so both engines time the bare decision
    procedure (witnesses are shared DAGs now — linear-size even on the
    copying families — but building one is still not the engines' race).
    """
    for name, family, n in sizes:
        transducer, din, dout, expected = family(n)
        for typechecks in (True, False):
            t_v, din_v, dout_v, exp_v = family(n, typechecks)
            forward_v = typecheck_forward(
                t_v, din_v, dout_v, want_counterexample=False
            )
            backward_v = typecheck_backward(
                t_v, din_v, dout_v, want_counterexample=False
            )
            assert forward_v.typechecks == backward_v.typechecks == exp_v, (
                name, n, typechecks,
            )
        forward_s = best_of(
            lambda: typecheck_forward(transducer, din, dout), repeat
        )
        backward_s = best_of(
            lambda: typecheck_backward(transducer, din, dout), repeat
        )
        results.append(
            {
                "group": "backward",
                "name": f"{name}({n})",
                "family": name,
                "n": n,
                "forward_s": forward_s,
                "backward_s": backward_s,
                "backward_over_forward": backward_s / forward_s,
            }
        )


def bench_dfa(results, sizes, repeat: int) -> None:
    """DFA product / inclusion / minimize: kernel vs reference objects."""
    for n in sizes:
        left, right = counter_dfa(n), counter_dfa(n + 1)
        cases = {
            "dfa_product": (
                lambda: reference.dfa_product_object(left, right),
                lambda: left.product(right),
            ),
            "dfa_inclusion": (
                lambda: reference.dfa_contains_object(left, right),
                lambda: left.contains(right),
            ),
            "dfa_minimize": (
                lambda: reference.dfa_minimize_object(left.product(right, "either")),
                lambda: left.product(right, "either").minimize(),
            ),
        }
        for case, (old_fn, new_fn) in cases.items():
            assert old_fn() == new_fn(), case  # benchmarks verify correctness
            old = best_of(old_fn, repeat)
            new = best_of(new_fn, repeat)
            results.append(
                {
                    "group": "dfa",
                    "name": f"{case}({n})",
                    "family": case,
                    "n": n,
                    "baseline_s": old,
                    "kernel_s": new,
                    "speedup": old / new,
                }
            )


def bench_nta(results, sizes, repeat: int) -> None:
    """NTA emptiness fixpoint: interned worklist vs whole-δ rescans.

    Chain DTDs of depth ``n``: the seed fixpoint needs ``n`` rounds, each
    rescanning all of δ, while the worklist re-tests only unlocked rules.
    """
    for n in sizes:
        _, din, _, _ = nd_bc_family(n)
        nta = dtd_to_nta(din)
        old_set, _ = reference.productive_states_object(nta)
        new_set, _ = productive_states(nta)
        assert old_set == new_set
        old = best_of(lambda: reference.productive_states_object(nta), repeat)
        new = best_of(lambda: productive_states(nta), repeat)
        results.append(
            {
                "group": "nta",
                "name": f"nta_productive({n})",
                "family": "nta_productive",
                "n": n,
                "baseline_s": old,
                "kernel_s": new,
                "speedup": old / new,
            }
        )


def bench_compile(results, sizes, repeat: int) -> None:
    """Eager compile plus the first auto query on never-compiled pairs.

    Every repetition builds fresh ``nd_bc(n)`` DTD objects, so nothing is
    cached, then times ``repro.compile(din, dout, reuse=False)`` and one
    ``method="auto"`` typecheck: the cold path of a pair seen for the
    first time.  Each row records the best compile and compile + query
    times; the largest size also records its ratio over the smallest,
    which the smoke gate bounds at :data:`COMPILE_SMOKE_MAX_RATIO`.
    """
    from repro import compile as compile_pair

    rows = []
    for n in sizes:
        compile_s = total_s = float("inf")
        for _ in range(repeat):
            transducer, din, dout, expected = nd_bc_family(n)
            gc.collect()
            start = time.perf_counter()
            session = compile_pair(din, dout, reuse=False)
            compiled = time.perf_counter()
            result = session.typecheck(transducer)
            done = time.perf_counter()
            assert result.typechecks == expected
            compile_s = min(compile_s, compiled - start)
            total_s = min(total_s, done - start)
        rows.append(
            {
                "group": "compile",
                "name": f"compile+first auto nd_bc(n={n})",
                "family": "nd_bc",
                "n": n,
                "compile_ms": compile_s * 1e3,
                "compile_and_first_query_ms": total_s * 1e3,
            }
        )
    rows[-1]["over_smallest"] = (
        rows[-1]["compile_and_first_query_ms"]
        / rows[0]["compile_and_first_query_ms"]
    )
    results.extend(rows)


def bench_session(results, sizes, repeat: int) -> None:
    """Warm session batches vs cold per-call pipelines.

    *Cold* rebuilds the schema pair (fresh DTD objects, as a fresh process
    would) and runs the full pipeline for every transducer; *warm* compiles
    one ``Session`` for the pair — session construction included in the
    timed region — and serves the whole batch from it.  The ``one-shot``
    variant times the unchanged ``typecheck()`` facade on fresh DTD objects
    each call: the in-process registry makes repeats warm transparently.
    """
    for n, k in sizes:
        transducers, _, _, expected = nd_bc_batch(n, k)

        def cold():
            for transducer in transducers:
                _, din, dout, _ = nd_bc_family(n)
                result = typecheck_forward(transducer, din, dout)
                assert result.typechecks == expected

        def warm():
            _, din, dout, _ = nd_bc_family(n)
            session = Session(din, dout)
            for result in session.typecheck_many(transducers, method="forward"):
                assert result.typechecks == expected

        def one_shot_registry():
            clear_registry()
            for transducer in transducers:
                _, din, dout, _ = nd_bc_family(n)
                result = typecheck(transducer, din, dout, method="forward")
                assert result.typechecks == expected

        cold_s = best_of(cold, repeat)
        warm_s = best_of(warm, repeat)
        registry_s = best_of(one_shot_registry, repeat)
        results.append(
            {
                "group": "session",
                "name": f"nd_bc_batch(n={n}, k={k})",
                "family": "nd_bc_batch",
                "n": n,
                "k": k,
                "cold_s": cold_s,
                "warm_s": warm_s,
                "one_shot_registry_s": registry_s,
                "per_call_cold_ms": cold_s / k * 1e3,
                "per_call_warm_ms": warm_s / k * 1e3,
                "speedup": cold_s / warm_s,
                "one_shot_registry_speedup": cold_s / registry_s,
            }
        )


def _variant_batch(n: int, k: int, offset: int):
    """``k`` nd_bc transducer variants with globally unique state names.

    Distinct content hashes per repetition defeat the per-transducer table
    cache on *both* sides of the comparison, so throughput rows measure
    honest per-item fixpoint work, not cache hits.
    """
    from repro.transducers.transducer import TreeTransducer

    _, din, dout, expected = nd_bc_family(n)
    alphabet = set(din.alphabet) | {f"t{i}" for i in range(n + 1)}
    transducers = []
    for j in range(offset, offset + k):
        state = f"q{j}"
        rules = {
            (state, f"s{i}"): f"t{i}({state})" if i < n else f"t{n}"
            for i in range(n + 1)
        }
        transducers.append(TreeTransducer({state}, alphabet, state, rules))
    return transducers, din, dout, expected


def bench_service(results, sizes, repeat: int, worker_counts) -> None:
    """Worker-pool throughput on the batch workload, vs in-process.

    Every timed run checks its verdicts; the pool is warmed (every worker
    compiles the pair once, hydrating from a shared artifact-cache dir)
    before timing, so rows measure steady-state serving.  Each repetition
    uses a fresh variant batch (see :func:`_variant_batch`); the identical
    repeat served from the per-transducer table cache is measured
    separately as ``table_cache_speedup``.
    """
    import os
    import tempfile

    from repro.core.session import clear_registry
    from repro.service.pool import WorkerPool

    cpu_count = os.cpu_count() or 1
    for n, k in sizes:
        batches = [_variant_batch(n, k, offset=r * k) for r in range(repeat + 1)]
        _, din, dout, expected = batches[0]

        def time_batches(run) -> float:
            """Best wall time of ``run`` over the distinct timed batches."""
            times = []
            for transducers, _din, _dout, _exp in batches[1:]:
                start = time.perf_counter()
                run(transducers)
                times.append(time.perf_counter() - start)
            return min(times)

        clear_registry()
        session = Session(din, dout)

        def in_process(transducers):
            for result in session.typecheck_many(transducers, method="forward"):
                assert result.typechecks == expected

        in_process(batches[0][0])  # warm the schema artifacts
        base_s = time_batches(in_process)
        # identical repeat: every item now hits the table cache
        repeat_s = best_of(lambda: in_process(batches[1][0]), repeat)

        row = {
            "group": "service",
            "name": f"nd_bc_batch(n={n}, k={k})",
            "family": "nd_bc_batch",
            "n": n,
            "k": k,
            "cpu_count": cpu_count,
            "in_process_s": base_s,
            "table_cache_repeat_s": repeat_s,
            "table_cache_speedup": base_s / repeat_s,
            "workers": {},
        }

        with tempfile.TemporaryDirectory() as cache_dir:
            for workers in worker_counts:
                pool = WorkerPool(workers, cache_dir=cache_dir)
                try:
                    def served(transducers):
                        for result in pool.typecheck_batch(
                            din, dout, transducers, method="forward"
                        ):
                            assert result.typechecks == expected

                    served(batches[0][0])  # warm every worker's session
                    pool_s = time_batches(served)
                    row["workers"][str(workers)] = {
                        "batch_s": pool_s,
                        "throughput_per_s": k / pool_s,
                        "vs_in_process": base_s / pool_s,
                    }
                finally:
                    pool.close()

        one = row["workers"].get("1")
        if one is not None:
            for _workers, data in row["workers"].items():
                data["speedup_vs_1_worker"] = one["batch_s"] / data["batch_s"]
        results.append(row)


def bench_service_sticky(results, n: int, k: int, repeat: int) -> None:
    """Sticky pairs vs inline-schema requests: request bytes and latency.

    One TCP server, one pair, ``k`` transducers.  The inline loop (the
    ``v1_*`` fields) ships the full instance per request; the sticky loop
    pins the pair once and ships bare transducer payloads.  The server
    serves both through the same pinned path.  Each loop runs over the same warmed
    transducers (table-cache hits), so the timing difference is the wire
    and parse overhead the sticky mode exists to remove.
    """
    import asyncio
    import threading

    from repro.service.client import ServiceClient
    from repro.service.pool import WorkerPool
    from repro.service.server import ServiceServer

    class CountingFile:
        def __init__(self, inner):
            self._inner = inner
            self.sent = 0

        def write(self, data):
            self.sent += len(data)
            return self._inner.write(data)

        def __getattr__(self, name):
            return getattr(self._inner, name)

    transducers, din, dout, expected = _variant_batch(n, k, offset=900_000)
    pool = WorkerPool(2)
    service = ServiceServer(pool)
    loop = asyncio.new_event_loop()
    started = threading.Event()

    def run():
        asyncio.set_event_loop(loop)

        async def go():
            await service.start("127.0.0.1", 0)
            started.set()

        loop.run_until_complete(go())
        loop.run_forever()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(10)
    try:
        def v1_pass():
            with ServiceClient(port=service.port) as client:
                client._file = CountingFile(client._file)
                for transducer in transducers:
                    result = client.typecheck(
                        transducer, din, dout, method="forward"
                    )
                    assert result["typechecks"] == expected
                return client._file.sent

        def sticky_pass():
            with ServiceClient(port=service.port) as client:
                client._file = CountingFile(client._file)
                handle = client.pair(din, dout)
                for transducer in transducers:
                    result = handle.typecheck(transducer, method="forward")
                    assert result["typechecks"] == expected
                return client._file.sent

        v1_bytes = v1_pass()  # also warms every routed worker
        sticky_bytes = sticky_pass()
        v1_s = best_of(v1_pass, repeat)
        sticky_s = best_of(sticky_pass, repeat)
    finally:
        async def shutdown():
            await service.close()
            pending = [
                task
                for task in asyncio.all_tasks()
                if task is not asyncio.current_task()
            ]
            for task in pending:
                task.cancel()
            await asyncio.gather(*pending, return_exceptions=True)

        asyncio.run_coroutine_threadsafe(shutdown(), loop).result(timeout=10)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=5)
        pool.close()
    results.append(
        {
            "group": "service-sticky",
            "name": f"sticky_vs_v1(n={n}, k={k})",
            "family": "sticky_vs_v1",
            "n": n,
            "k": k,
            "v1_request_bytes": v1_bytes,
            "sticky_request_bytes": sticky_bytes,
            "bytes_ratio": sticky_bytes / v1_bytes,
            "v1_s": v1_s,
            "sticky_s": sticky_s,
            "latency_speedup": v1_s / sticky_s,
        }
    )


def bench_incremental(results, sizes, repeat: int) -> None:
    """Warm ``Session.retypecheck`` vs a fresh session on single-rule edits.

    The edit-arm family changes one arm's rules per edit.  Before any
    timing, every edit (both polarities) is re-checked on the warm
    session *and* by a cold session, and the verdicts must agree — a
    re-check that drifts from a cold check is a correctness failure, not
    a data point.

    Each timing repetition re-checks a *distinct* edited transducer
    (fresh content hash, different arm) so the warm session's
    per-transducer result cache never answers it.  ``retypecheck_s`` is
    the ``method="auto"`` re-check on a session that already checked the
    base; ``cold_s`` builds a fresh session over freshly parsed schemas
    and checks the same edit, so it pays the schema compile the warm
    session amortizes.  ``incremental_over_cold`` is their ratio.
    """
    from repro.workloads.updates import edit_arm_pair, edit_arm_transducer

    for arms in sizes:
        din, dout = edit_arm_pair(arms)
        base = edit_arm_transducer(arms)

        parity = Session(din, dout)
        assert parity.typecheck(base).typechecks
        for i in range(arms):
            for variant, expected in (("safe", True), ("unsafe", False)):
                edited = edit_arm_transducer(arms, edited=i, variant=variant)
                warm_result = parity.retypecheck(edited, base)
                cold = Session(*edit_arm_pair(arms)).typecheck(edited)
                assert warm_result.typechecks == cold.typechecks == expected, (
                    arms, i, variant,
                )

        # A fresh warm session for timing: ``parity`` has every edit's
        # result cached, which would turn the timed re-checks into hits.
        warm = Session(din, dout)
        assert warm.typecheck(base).typechecks
        variants = [
            edit_arm_transducer(arms, edited=i % arms, variant="safe")
            for i in range(min(repeat, arms))
        ]
        fresh_pairs = [edit_arm_pair(arms) for _ in variants]

        # Each edit is timed on both sides back to back, so a drift in the
        # host's speed moves both samples alike.
        warm_times, cold_times = [], []
        for edited, pair in zip(variants, fresh_pairs):
            start = time.perf_counter()
            warm.retypecheck(edited, base)
            mid = time.perf_counter()
            Session(*pair).typecheck(edited)
            warm_times.append(mid - start)
            cold_times.append(time.perf_counter() - mid)
        retypecheck_s, cold_s = min(warm_times), min(cold_times)
        results.append(
            {
                "group": "incremental",
                "name": f"edit_arm({arms})",
                "family": "edit_arm",
                "n": arms,
                "engine": warm.route(base),
                "retypecheck_s": retypecheck_s,
                "cold_s": cold_s,
                "incremental_over_cold": retypecheck_s / cold_s,
            }
        )


def bench_obs(results, sizes, repeat: int) -> None:
    """Telemetry overhead on the forward engine: patched-out vs off vs on.

    ``plain_s`` monkeypatches ``repro.obs.trace.span`` to a constant
    null-span factory, removing even the shipped disabled-path check —
    the closest honest stand-in for a build with no hooks at all.
    ``off_s`` is the real disabled path every untelemetered caller runs
    (null-span lookup, unmetered kernel drain, counter increments);
    the smoke gate holds ``off_over_plain`` to
    :data:`OBS_SMOKE_MAX_OVERHEAD`.  ``on_s`` enables the JSON-lines
    trace sink and the metered kernel drain; its ratio over ``off_s`` is
    recorded but not gated — turning telemetry on is allowed to cost.

    Bare ``typecheck_forward`` calls are timed on purpose: each builds a
    private schema, so no table cache flattens the engine work the
    instrumentation is amortised against.  The three variants are
    interleaved round-robin within every repetition — phase-sequential
    timing lets host-load drift masquerade as a telemetry cost (or
    credit) several times larger than the real sub-1% delta — and each
    sample is a batch of calls (see :func:`_obs_row`).
    """
    import contextlib
    import tempfile

    from repro.obs import metrics as obs_metrics
    from repro.obs import trace as obs_trace

    null_span = obs_trace._NULL_SPAN
    real_span = obs_trace.span

    @contextlib.contextmanager
    def patched_out():
        obs_trace.span = lambda *args, **attrs: null_span
        try:
            yield
        finally:
            obs_trace.span = real_span

    @contextlib.contextmanager
    def disabled():
        assert not obs_trace.enabled()
        assert not obs_metrics.kernel_metrics_enabled()
        yield

    @contextlib.contextmanager
    def enabled(sink_path):
        obs_trace.trace_to(sink_path)
        obs_metrics.enable_kernel_metrics()
        try:
            yield
        finally:
            obs_metrics.disable_kernel_metrics()
            obs_trace.trace_to(None)
            obs_trace._LOCAL.trace_id = None
            obs_trace._LOCAL.span_id = None

    for name, family, n in sizes:
        transducer, din, dout, expected = family(n)
        result = typecheck_forward(transducer, din, dout)
        assert result.typechecks == expected, (name, n)

        def run():
            typecheck_forward(transducer, din, dout)

        with tempfile.TemporaryDirectory() as sink_dir:
            sink_path = str(Path(sink_dir) / "bench_trace.jsonl")
            row = _obs_row(
                [
                    ("plain", patched_out, run),
                    ("off", disabled, run),
                    ("on", lambda: enabled(sink_path), run),
                ],
                repeat,
            )
        results.append(
            {"group": "obs", "name": f"{name}({n})", "family": name, "n": n,
             **row}
        )

    # The explain seam (PR 10): ``Session.typecheck(explain=False)`` must
    # cost no more than calling the unwrapped check directly.  ``plain``
    # bypasses the wrapper (lock + inner ``_typecheck``, exactly what the
    # wrapper runs when explain is off); ``off`` is the shipped default
    # path; ``on`` builds the full QueryReport (delta-scoped kernel
    # counters, predicted costs) and is informational.  Warm sessions are
    # timed on purpose — table-cache hits are the fastest queries, so the
    # per-call wrapper overhead is largest relative to them.
    for name, family, n in sizes:
        transducer, din, dout, expected = family(n)
        session = Session(din, dout, eager=False)
        assert session.typecheck(transducer).typechecks == expected, (name, n)

        def plain_run():
            with session._lock:
                session._typecheck(transducer, "auto", None)

        row = _obs_row(
            [
                ("plain", contextlib.nullcontext, plain_run),
                ("off", contextlib.nullcontext,
                 lambda: session.typecheck(transducer)),
                ("on", contextlib.nullcontext,
                 lambda: session.typecheck(transducer, explain=True)),
            ],
            repeat,
        )
        results.append(
            {"group": "obs", "name": f"{name}_explain({n})", "family": name,
             "n": n, **row}
        )


def _merge_bench(path: Path, new_rows, mode: str, repeat: int, summarize) -> None:
    """Write ``path``, replacing only the row groups that re-ran.

    Groups present in ``new_rows`` overwrite their old sections; rows of
    groups a ``--only`` run skipped survive from the existing file, so a
    partial run refreshes stale sections in place instead of truncating
    the file to whatever it happened to run.  Summary fields are
    recomputed over the *merged* rows, keeping them consistent with the
    file's contents rather than the last run's subset.
    """
    existing = []
    if path.exists():
        try:
            existing = json.loads(path.read_text()).get("benchmarks", [])
        except (json.JSONDecodeError, OSError):
            existing = []
    ran_groups = {row["group"] for row in new_rows}
    merged = [row for row in existing if row.get("group") not in ran_groups]
    merged += new_rows
    summary = {"mode": mode, "repeat": repeat}
    summary.update(summarize(merged))
    summary["benchmarks"] = merged
    path.write_text(json.dumps(summary, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes; exit 1 if the kernel is slower "
                             "than the baseline on the smoke family, a "
                             "warm session fails to beat cold setup, or "
                             "a warm edit re-check fails to beat a fresh "
                             "session")
    parser.add_argument("--only", action="append", metavar="FAMILY",
                        help="run only these bench families (repeatable or "
                             f"comma-separated; choices: {', '.join(FAMILIES)}"
                             "); BENCH_*.json sections owned by families "
                             "not selected are preserved in place")
    parser.add_argument("--repeat", type=int, default=None,
                        help="timing repetitions (default: 5, smoke: 7)")
    parser.add_argument("--output", type=Path,
                        default=REPO_ROOT / "BENCH_kernel.json")
    parser.add_argument("--output-session", type=Path,
                        default=REPO_ROOT / "BENCH_session.json")
    parser.add_argument("--output-service", type=Path,
                        default=REPO_ROOT / "BENCH_service.json")
    parser.add_argument("--output-backward", type=Path,
                        default=REPO_ROOT / "BENCH_backward.json")
    parser.add_argument("--output-incremental", type=Path,
                        default=REPO_ROOT / "BENCH_incremental.json")
    parser.add_argument("--output-obs", type=Path,
                        default=REPO_ROOT / "BENCH_obs.json")
    args = parser.parse_args(argv)
    repeat = args.repeat or (7 if args.smoke else 5)
    only = set()
    for spec in args.only or ():
        only.update(part.strip() for part in spec.split(",") if part.strip())
    unknown = only - set(FAMILIES)
    if unknown:
        parser.error(
            f"unknown --only families: {', '.join(sorted(unknown))} "
            f"(choices: {', '.join(FAMILIES)})"
        )

    def want(family: str) -> bool:
        return not only or family in only

    results: list = []
    compile_results: list = []
    session_results: list = []
    service_results: list = []
    backward_results: list = []
    incremental_results: list = []
    obs_results: list = []
    if args.smoke:
        if want("forward"):
            bench_forward(
                results, [("nd_bc", nd_bc_family, SMOKE_FAMILY[1])], repeat
            )
        if want("backward"):
            bench_backward(
                backward_results,
                [("nd_bc", nd_bc_family, SMOKE_FAMILY[1]),
                 ("wide_copy", wide_copy_family, 8)],
                repeat,
            )
        if want("dfa"):
            bench_dfa(results, [16], repeat)
        if want("nta"):
            bench_nta(results, [32], repeat)
        if want("compile"):
            bench_compile(compile_results, COMPILE_SMOKE_SIZES, repeat)
        if want("session"):
            bench_session(session_results, [SESSION_SMOKE_FAMILY], repeat)
        if want("service"):
            bench_service(
                service_results, [(16, 12)], min(repeat, 3),
                worker_counts=(1, 2),
            )
            bench_service_sticky(service_results, 12, 10, min(repeat, 3))
        if want("incremental"):
            bench_incremental(incremental_results, [8], repeat)
        if want("obs"):
            bench_obs(
                obs_results, [("nd_bc", nd_bc_family, SMOKE_FAMILY[1])], repeat
            )
    else:
        if want("forward"):
            bench_forward(
                results,
                [
                    ("nd_bc", nd_bc_family, 16),
                    ("nd_bc", nd_bc_family, 32),
                    ("nd_bc", nd_bc_family, 64),
                    ("filtering", filtering_family, 32),
                    ("filtering", filtering_family, 48),
                ],
                repeat,
            )
        if want("backward"):
            bench_backward(
                backward_results,
                [
                    ("nd_bc", nd_bc_family, 16),
                    ("nd_bc", nd_bc_family, 64),
                    ("filtering", filtering_family, 32),
                    ("wide_copy", wide_copy_family, 8),
                    ("wide_copy", wide_copy_family, 16),
                ],
                repeat,
            )
        if want("dfa"):
            bench_dfa(results, [16, 48, 96], repeat)
        if want("nta"):
            bench_nta(results, [32, 96, 256], repeat)
        if want("compile"):
            bench_compile(compile_results, (16, 64, 128, 256), repeat)
        if want("session"):
            bench_session(
                session_results, [(16, 6), (32, 12), (64, 8)], repeat
            )
        if want("service"):
            bench_service(
                service_results, [(24, 24), (48, 16)], min(repeat, 3),
                worker_counts=(1, 2, 4),
            )
            bench_service_sticky(service_results, 24, 24, min(repeat, 3))
        if want("incremental"):
            bench_incremental(incremental_results, [8, 16], repeat)
        if want("obs"):
            bench_obs(
                obs_results,
                [("nd_bc", nd_bc_family, 16), ("nd_bc", nd_bc_family, 32)],
                repeat,
            )

    import os as _os

    mode = "smoke" if args.smoke else "full"
    cpu_count = _os.cpu_count() or 1
    written = []

    def kernel_summary(rows):
        forward = [r for r in rows if r["group"] == "forward"]
        if not forward:
            return {}
        largest = max(forward, key=lambda r: (r["n"], r["baseline_s"]))
        return {
            "largest_forward": largest["name"],
            "largest_forward_speedup": largest["speedup"],
        }

    def session_summary(rows):
        largest = max(rows, key=lambda r: (r["n"], r["cold_s"]))
        return {
            "largest_batch": largest["name"],
            "largest_batch_warm_speedup": largest["speedup"],
        }

    def service_summary(rows):
        best_scaling = None
        for row in rows:
            if row["group"] != "service":
                continue
            for workers, data in row["workers"].items():
                if workers == "1":
                    continue
                candidate = (
                    data.get("speedup_vs_1_worker", 0.0), workers, row["name"]
                )
                if best_scaling is None or candidate > best_scaling:
                    best_scaling = candidate
        return {
            "cpu_count": cpu_count,
            "note": (
                "multi-worker speedups are bounded by cpu_count: on a "
                "single-CPU host the workers time-slice one core and the "
                "pool can only match (not beat) one worker"
            ),
            "best_multi_worker_speedup": (
                None if best_scaling is None else {
                    "speedup_vs_1_worker": best_scaling[0],
                    "workers": int(best_scaling[1]),
                    "family": best_scaling[2],
                }
            ),
        }

    def backward_summary(rows):
        best = min(rows, key=lambda r: r["backward_over_forward"])
        return {
            "note": (
                "backward_over_forward < 1 means the inverse-type-inference "
                "engine beats the Lemma 14 forward engine on the family; "
                "verdicts are asserted identical on every row (both "
                "polarities) before timing"
            ),
            "best_family": best["name"],
            "best_backward_over_forward": best["backward_over_forward"],
        }

    def incremental_summary(rows):
        worst = max(rows, key=lambda r: r["incremental_over_cold"])
        return {
            "note": (
                "incremental_over_cold is the method='auto' "
                "Session.retypecheck of a single-rule edit on a session "
                "that already checked the base, over a fresh session's "
                "compile plus check of the same edit on freshly parsed "
                "schemas; verdict parity with a cold session is asserted "
                "on both polarities of every edit before timing; the "
                "smoke gate bounds the worst ratio at "
                f"{INCREMENTAL_SMOKE_MAX_RATIO}x"
            ),
            "worst_family": worst["name"],
            "worst_incremental_over_cold": worst["incremental_over_cold"],
        }

    def obs_summary(rows):
        worst = max(rows, key=lambda r: r["off_over_plain"])
        return {
            "note": (
                "off_over_plain is the shipped disabled telemetry path "
                "(null spans, unmetered kernel drain) over a run with the "
                "span seam patched out entirely — the price of the hooks "
                "existing, which the smoke gate bounds at "
                f"{OBS_SMOKE_MAX_OVERHEAD}x; on_over_off is what enabling "
                "the trace sink and metered kernel drain actually costs "
                "and is informational; *_explain rows price the "
                "Session.typecheck explain seam the same way (off = "
                "explain=False default path, on = full QueryReport)"
            ),
            "worst_family": worst["name"],
            "worst_off_over_plain": worst["off_over_plain"],
        }

    for path, rows, file_repeat, summarize in (
        (args.output, results + compile_results, repeat, kernel_summary),
        (args.output_session, session_results, repeat, session_summary),
        (args.output_service, service_results, min(repeat, 3),
         service_summary),
        (args.output_backward, backward_results, repeat, backward_summary),
        (args.output_incremental, incremental_results, repeat,
         incremental_summary),
        (args.output_obs, obs_results, repeat, obs_summary),
    ):
        if rows:
            _merge_bench(path, rows, mode, file_repeat, summarize)
            written.append(path)

    service_batches = [r for r in service_results if r["group"] == "service"]
    all_rows = (
        results + compile_results + session_results + service_results
        + backward_results + incremental_results + obs_results
    )
    width = max((len(r["name"]) for r in all_rows), default=0)
    for r in results:
        print(
            f"{r['name']:<{width}}  baseline {r['baseline_s'] * 1e3:8.2f} ms"
            f"  kernel {r['kernel_s'] * 1e3:8.2f} ms"
            f"  speedup {r['speedup']:6.2f}x"
        )
    for r in compile_results:
        ratio = r.get("over_smallest")
        print(
            f"{r['name']:<{width}}  compile {r['compile_ms']:8.2f} ms"
            f"  +first query {r['compile_and_first_query_ms']:8.2f} ms"
            + (f"  over smallest {ratio:5.2f}x" if ratio is not None else "")
        )
    for r in backward_results:
        print(
            f"{r['name']:<{width}}  forward  {r['forward_s'] * 1e3:8.2f} ms"
            f"  bwd    {r['backward_s'] * 1e3:8.2f} ms"
            f"  b/f    {r['backward_over_forward']:6.2f}x"
        )
    for r in session_results:
        print(
            f"{r['name']:<{width}}  cold     {r['cold_s'] * 1e3:8.2f} ms"
            f"  warm   {r['warm_s'] * 1e3:8.2f} ms"
            f"  speedup {r['speedup']:6.2f}x"
            f"  (one-shot registry {r['one_shot_registry_speedup']:.2f}x)"
        )
    for r in service_batches:
        scaling = "  ".join(
            f"{workers}w {data['batch_s'] * 1e3:8.2f} ms"
            f" ({data.get('speedup_vs_1_worker', 1.0):.2f}x)"
            for workers, data in sorted(r["workers"].items(), key=lambda kv: int(kv[0]))
        )
        print(
            f"{r['name']:<{width}}  in-proc  {r['in_process_s'] * 1e3:8.2f} ms"
            f"  pool: {scaling}"
            f"  table-cache repeat {r['table_cache_speedup']:.1f}x"
        )
    for r in service_results:
        if r["group"] == "service-sticky":
            print(
                f"{r['name']:<{width}}  v1 {r['v1_request_bytes']:>9} B"
                f"  sticky {r['sticky_request_bytes']:>9} B"
                f"  ({r['bytes_ratio']:.2f}x bytes,"
                f" {r['latency_speedup']:.2f}x latency)"
            )
    for r in incremental_results:
        print(
            f"{r['name']:<{width}}  cold     {r['cold_s'] * 1e3:8.2f} ms"
            f"  warm   {r['retypecheck_s'] * 1e3:8.2f} ms"
            f"  ratio  {r['incremental_over_cold']:6.2f}x"
            f"  ({r['engine']})"
        )
    for r in obs_results:
        print(
            f"{r['name']:<{width}}  plain    {r['plain_s'] * 1e3:8.2f} ms"
            f"  off    {r['off_s'] * 1e3:8.2f} ms"
            f"  off/plain {r['off_over_plain']:5.2f}x"
            f"  (on/off {r['on_over_off']:.2f}x)"
        )
    print()
    for path in written:
        print(f"wrote {path}")

    if args.smoke:
        failed = False
        forward = [r for r in results if r["group"] == "forward"]
        smoke = next(
            (r for r in forward if r["n"] == SMOKE_FAMILY[1]), None
        )
        if smoke is not None and smoke["speedup"] < SMOKE_MIN_SPEEDUP:
            print(
                f"SMOKE FAILURE: interned kernel slower than the object-state "
                f"baseline on {smoke['name']} "
                f"({smoke['kernel_s'] * 1e3:.2f} ms vs "
                f"{smoke['baseline_s'] * 1e3:.2f} ms; speedup "
                f"{smoke['speedup']:.2f}x < {SMOKE_MIN_SPEEDUP}x)",
                file=sys.stderr,
            )
            failed = True
        session_smoke = session_results[0] if session_results else None
        if (
            session_smoke is not None
            and session_smoke["speedup"] < SESSION_SMOKE_MIN_SPEEDUP
        ):
            print(
                f"SMOKE FAILURE: warm session does not beat cold setup on "
                f"{session_smoke['name']} "
                f"({session_smoke['warm_s'] * 1e3:.2f} ms vs "
                f"{session_smoke['cold_s'] * 1e3:.2f} ms; speedup "
                f"{session_smoke['speedup']:.2f}x < "
                f"{SESSION_SMOKE_MIN_SPEEDUP}x)",
                file=sys.stderr,
            )
            failed = True
        service_smoke = service_batches[0] if service_batches else None
        two = (
            None if service_smoke is None
            else service_smoke["workers"]["2"]["speedup_vs_1_worker"]
        )
        if two is None:
            pass
        elif cpu_count >= 2:
            # Real cores available: a 2-worker pool must actually scale.
            if two < SERVICE_SMOKE_MIN_SPEEDUP:
                print(
                    f"SMOKE FAILURE: 2-worker pool does not beat 1 worker on "
                    f"{service_smoke['name']} ({two:.2f}x < "
                    f"{SERVICE_SMOKE_MIN_SPEEDUP}x with {cpu_count} CPUs)",
                    file=sys.stderr,
                )
                failed = True
        elif two < SERVICE_SMOKE_MIN_RATIO_1CPU:
            # One time-sliced CPU cannot scale; only bound the overhead.
            print(
                f"SMOKE FAILURE: 2-worker pool overhead out of bounds on "
                f"{service_smoke['name']} ({two:.2f}x < "
                f"{SERVICE_SMOKE_MIN_RATIO_1CPU}x on a single CPU)",
                file=sys.stderr,
            )
            failed = True
        if (
            service_smoke is not None
            and service_smoke["table_cache_speedup"] < 1.0
        ):
            print(
                "SMOKE FAILURE: identical-repeat table-cache serving is "
                f"slower than recomputing "
                f"({service_smoke['table_cache_speedup']:.2f}x < 1x)",
                file=sys.stderr,
            )
            failed = True
        backward_smoke = next(
            (r for r in backward_results
             if r["family"] == "nd_bc" and r["n"] == SMOKE_FAMILY[1]),
            None,
        )
        if (
            backward_smoke is not None
            and backward_smoke["backward_over_forward"]
            > BACKWARD_SMOKE_MAX_RATIO
        ):
            print(
                f"SMOKE FAILURE: backward engine too slow on "
                f"{backward_smoke['name']} "
                f"({backward_smoke['backward_s'] * 1e3:.2f} ms vs forward "
                f"{backward_smoke['forward_s'] * 1e3:.2f} ms; ratio "
                f"{backward_smoke['backward_over_forward']:.2f}x > "
                f"{BACKWARD_SMOKE_MAX_RATIO}x)",
                file=sys.stderr,
            )
            failed = True
        wide_copy = next(
            (r for r in backward_results if r["family"] == "wide_copy"),
            None,
        )
        if (
            wide_copy is not None
            and wide_copy["backward_over_forward"]
            > BACKWARD_WIDE_COPY_MAX_RATIO
        ):
            print(
                f"SMOKE FAILURE: backward engine does not beat forward on "
                f"its own family {wide_copy['name']} "
                f"({wide_copy['backward_over_forward']:.3f}x > "
                f"{BACKWARD_WIDE_COPY_MAX_RATIO}x)",
                file=sys.stderr,
            )
            failed = True
        sticky = next(
            (r for r in service_results if r["group"] == "service-sticky"),
            None,
        )
        if (
            sticky is not None
            and sticky["bytes_ratio"] >= STICKY_SMOKE_MAX_BYTES_RATIO
        ):
            # Byte accounting is deterministic: sticky mode must actually
            # stop re-shipping schema text.
            print(
                f"SMOKE FAILURE: sticky mode does not shrink request bytes "
                f"on {sticky['name']} ({sticky['bytes_ratio']:.2f}x >= "
                f"{STICKY_SMOKE_MAX_BYTES_RATIO}x of inline)",
                file=sys.stderr,
            )
            failed = True
        for row in obs_results:
            if row["off_over_plain"] > OBS_SMOKE_MAX_OVERHEAD:
                print(
                    f"SMOKE FAILURE: disabled telemetry path is not free on "
                    f"{row['name']} ({row['off_s'] * 1e3:.2f} ms vs "
                    f"{row['plain_s'] * 1e3:.2f} ms with the span seam "
                    f"patched out; ratio {row['off_over_plain']:.3f}x > "
                    f"{OBS_SMOKE_MAX_OVERHEAD}x)",
                    file=sys.stderr,
                )
                failed = True
        for row in compile_results:
            if row.get("over_smallest", 0.0) > COMPILE_SMOKE_MAX_RATIO:
                print(
                    f"SMOKE FAILURE: cold compile + first query does not "
                    f"scale linearly: {row['name']} takes "
                    f"{row['over_smallest']:.2f}x nd_bc(n="
                    f"{COMPILE_SMOKE_SIZES[0]}) "
                    f"({row['compile_and_first_query_ms']:.2f} ms; "
                    f"> {COMPILE_SMOKE_MAX_RATIO}x)",
                    file=sys.stderr,
                )
                failed = True
        for row in incremental_results:
            if row["incremental_over_cold"] > INCREMENTAL_SMOKE_MAX_RATIO:
                print(
                    f"SMOKE FAILURE: warm edit re-check does not beat a "
                    f"fresh session on {row['name']} "
                    f"({row['retypecheck_s'] * 1e3:.2f} ms vs "
                    f"{row['cold_s'] * 1e3:.2f} ms; ratio "
                    f"{row['incremental_over_cold']:.2f}x > "
                    f"{INCREMENTAL_SMOKE_MAX_RATIO}x)",
                    file=sys.stderr,
                )
                failed = True
        if failed:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
