#!/usr/bin/env python3
"""The typechecking service, end to end.

Spawns ``python -m repro serve`` (2 workers) as a real subprocess, waits
for its ready line, then drives it with the thin client:

1. ``ping`` / ``stats`` — liveness, pool health and per-worker
   session-registry detail (resident pairs, footprints, eviction
   counters);
2. a *sticky pair* (protocol v2): ``client.pair(din, dout)`` pins the
   schema pair once, then a mixed 12-transducer batch ships bare
   transducer payloads fanned out across the workers;
3. the same query twice — the repeat is served from the worker's
   per-transducer fixpoint-table cache (watch ``stats.table_cache``);
4. a counterexample, parsed back into a tree.

Run:  python examples/service_demo.py
"""

import os
import subprocess
import sys
import time
from pathlib import Path

REPO_SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(REPO_SRC))

from repro import DTD, TreeTransducer  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402


def book_schemas():
    din = DTD(
        {
            "book": "title author+ chapter+",
            "chapter": "title intro section+",
            "section": "title paragraph+ section*",
        },
        start="book",
    )
    dout = DTD(
        {"book": "title (chapter title+)*"},
        start="book",
        alphabet=din.alphabet,
    )
    return din, dout


def toc_variants(din, count=12):
    """Table-of-contents variants; every other one leaks ``intro``."""
    variants = []
    for j in range(count):
        state = f"q{j}"
        rules = {
            (state, "book"): f"book({state})",
            (state, "chapter"): f"chapter {state}",
            (state, "title"): "title",
            (state, "section"): state,
        }
        if j % 2:
            rules[(state, "intro")] = "intro"
        variants.append(TreeTransducer({state}, din.alphabet, state, rules))
    return variants


def main() -> int:
    din, dout = book_schemas()
    variants = toc_variants(din)

    print("spawning: python -m repro serve --port 0 --workers 2")
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--workers", "2"],
        stdout=subprocess.PIPE,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(REPO_SRC)),
    )
    try:
        ready = server.stdout.readline().strip()
        print(f"  {ready}")
        port = int(ready.rsplit(":", 1)[1])

        deadline = time.time() + 30
        while True:
            try:
                client = ServiceClient(port=port)
                break
            except OSError:
                if time.time() > deadline:
                    raise
                time.sleep(0.2)

        with client:
            banner = client.ping()
            print(
                f"  server {banner['version']} (protocol "
                f"{banner['protocol']}), {banner['workers']} workers\n"
            )

            print("pinning the schema pair (protocol v2 sticky mode):")
            pair = client.pair(din, dout)
            print(f"batch of {len(variants)} transducer variants, bare payloads:")
            start = time.perf_counter()
            verdicts = pair.typecheck_many(variants)
            elapsed = (time.perf_counter() - start) * 1e3
            for j, verdict in enumerate(verdicts):
                flag = "PASS" if verdict["typechecks"] else "FAIL"
                print(f"  variant {j:2d}: {flag}  ({verdict['algorithm']})")
            print(
                f"  ...{elapsed:.1f} ms total, fanned across the pool "
                f"(pair {pair.pair_id[:12]}… pinned once)\n"
            )

            print("repeat of variant 0 (per-transducer table cache):")
            for attempt in ("first", "second"):
                result = pair.typecheck(variants[0])
                print(
                    f"  {attempt}: typechecks={result['typechecks']} "
                    f"table_cache={result['stats'].get('table_cache')} "
                    f"({client.last_response['elapsed_ms']} ms)"
                )
            print()

            print("counterexample for a leaking variant:")
            witness = pair.counterexample(variants[1])
            print(f"  {witness}\n")

            stats = client.stats()
            detail = stats.pop("workers_detail")
            print("pool stats:", stats)
            for entry in detail:
                registry = entry["registry"]
                print(
                    f"  worker {entry['worker']}: "
                    f"{registry['size']} resident pair(s), "
                    f"{registry['total_bytes']} B, "
                    f"hits={registry['hits']} misses={registry['misses']} "
                    f"evictions={registry['evictions']}, "
                    f"{len(entry['pinned_pairs'])} pinned"
                )
        return 0
    finally:
        server.terminate()
        try:
            server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            server.kill()


if __name__ == "__main__":
    raise SystemExit(main())
