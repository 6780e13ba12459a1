"""End-to-end typechecking benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (see ``perfbench/README.md``):
``cold_pairs``, ``warm_session``, ``served_sticky``, ``tree_automata``.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` is a separate
run that prints the per-layer metrics.  Human-readable lines (sample
counts, failure rate, provenance) come first; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--toy`` shrinks every workload for the self-test (``selftest.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold_pairs", "warm_session", "served_sticky", "tree_automata")
#: Set-up starts with importing the program; a fresh interpreter times it.
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import repro, repro.service.client; "
    "print(time.perf_counter() - t)"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="toy sizes (self-test)")
    return parser.parse_args(argv)


def make_workload(name: str, seed: int, toy: bool, out_dir: str):
    from inprocess import ColdPairs, TreeAutomata, WarmSession
    from served import ServedSticky

    if name == "served_sticky":
        return ServedSticky(seed, toy, ROOT, out_dir)
    cls = {"cold_pairs": ColdPairs, "warm_session": WarmSession,
           "tree_automata": TreeAutomata}[name]
    return cls(seed, toy)


def import_seconds(reps: int):
    """Seconds to import the program, timed in ``reps`` fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return [
        float(subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
            capture_output=True, text=True, check=True, timeout=120,
        ).stdout)
        for _ in range(reps)
    ]


def _fresh(path: str) -> str:
    if os.path.exists(path):
        os.remove(path)
    return path


def traced_run(workload, seconds: float, out_dir: str, tag: str):
    """Untraced reference phase, then the traced phase, then the extras
    measured outside any op.  Returns ``(records, metrics)``."""
    import repro.obs
    from repro.obs import metrics as program_metrics

    from common import counter_total
    from report import per_layer
    import spans as spanlib

    half = seconds / 2
    reference, reference_busy = workload.run(half, spanlib.NullTracer())
    program_file = _fresh(os.path.join(out_dir, f"program-{tag}.jsonl"))
    tracer = spanlib.Tracer()
    repro.obs.trace_to(program_file)
    repro.obs.enable_kernel_metrics()
    before = program_metrics.snapshot()
    try:
        records, busy = workload.run(half, tracer, measure_extras=True)
    finally:
        after = program_metrics.snapshot()
        repro.obs.disable_kernel_metrics()
        repro.obs.trace_to(None)
    if workload.name == "served_sticky":
        extras = dict(workload.extras, hops=workload.serving_hops())
    else:
        workload.measure_extras()
        extras = dict(workload.extras)
        for name in ("repro.kernel.node_expansions", "repro.kernel.cells_created"):
            extras[name] = counter_total(after, name) - counter_total(before, name)
    op_ids = {span["op"] for span in tracer.spans if span["op"] is not None}
    all_spans = list(tracer.spans) + spanlib.program_spans(program_file, op_ids)
    if workload.name == "served_sticky":
        workload.close()  # the server has written its last span once stopped
        all_spans += spanlib.program_spans(workload.server_trace_path, op_ids)
    spanlib.dump(os.path.join(out_dir, f"spans-{tag}.jsonl"), all_spans)
    ok_ref = sum(1 for r in reference if "error" not in r)
    ok_traced = sum(1 for r in records if "error" not in r)
    ratio = (ok_traced / busy) / (ok_ref / reference_busy) if ok_ref and busy else 0.0
    metrics = per_layer(records, all_spans, spanlib.self_times(all_spans), extras, ratio)
    return reference + records, metrics


def main(argv=None) -> int:
    # String hashes are salted per process and set and dict order follows
    # them, which moves the engines' run time by over 10% from one process
    # to the next on the same inputs.  One fixed salt for this process and
    # its children keeps that out of the spread; the seed still renames
    # every symbol and state, so the order still varies with the seed.
    if argv is None and os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED="0"))
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    # One CPU for this process and its children (the served workload's
    # server and worker): on a shared VM, wakeups across CPUs otherwise
    # dominate a served round trip and double or halve it from run to run.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)

    from common import adopt_orphans, median, percentile, stop_children
    import report
    import spans

    adopt_orphans()
    # A SIGTERM (say, from a caller's timeout) unwinds through the
    # ``finally`` below, which stops the server and every child process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    workload = make_workload(args.workload, args.seed, args.toy, out_dir)
    tag = f"{args.workload}-{args.seed}"
    try:
        workload.prepare()  # inputs and oracle verdicts: benchmark work, untimed
        reps = 1 if args.trace else workload.setup_reps
        setups = []
        for index in range(reps):
            begin = time.perf_counter()
            if args.workload == "served_sticky":
                workload.setup(keep=index == reps - 1, trace=bool(args.trace))
            else:
                workload.setup(keep=index == reps - 1)
            setups.append(time.perf_counter() - begin)
        imports = [] if args.trace else import_seconds(workload.setup_reps)
        setup_s = median(imports) + median(setups)
        if args.trace:
            records, metrics = traced_run(workload, args.seconds, out_dir, tag)
            units = report.PER_LAYER
        else:
            records, busy_s = workload.run(args.seconds, spans.NullTracer())
            metrics = report.end_to_end(records, busy_s, setup_s, workload.peak_rss_mb())
            units = report.END_TO_END
    except Exception:  # noqa: BLE001 - report, clean up, exit non-zero
        traceback.print_exc()
        return 1
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)  # let the clean-up finish
        workload.close()
        stop_children()

    attempted = len(records)
    failed = sum(1 for r in records if not r.get("ok"))
    samples = report.latencies(records)
    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} callers={workload.callers} workers={workload.workers} "
          f"nproc={os.cpu_count()} python={platform.python_version()}")
    if not args.trace:
        print(f"# setup_s = median import {[round(s, 4) for s in imports]} "
              f"+ median set-up {[round(s, 4) for s in setups]}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"# latency samples n={len(samples)}; ops_per_s divides by "
          f"{'the wall' if args.workload == 'served_sticky' else 'the summed op'} time of the timed phase")
    # The mix shares are assumptions (no record of real traffic exists),
    # so each op kind's latency is given on its own as well.
    for kind, kind_samples in report.latencies_by_kind(records).items():
        print(f"latency_ms[{kind}]: n={len(kind_samples)} "
              f"share={len(kind_samples) / max(1, len(samples)):.3f} "
              f"p50={percentile(kind_samples, 0.5):.6g} p90={percentile(kind_samples, 0.9):.6g}")
    if not args.trace and len(samples) >= 1000:
        print(f"latency_p99_ms = {percentile(samples, 0.99):.6g} ms  (n={len(samples)})")
    print(f"fail_rate = {failed / attempted if attempted else 0:.6g}  ({failed}/{attempted})")
    for record in records:
        if not record.get("ok"):
            print(f"# failed op: {record.get('kind')} {record.get('error', 'wrong answer')}")
            break
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
