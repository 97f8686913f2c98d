"""weylhull benchmark: four workloads, end-to-end timings, a traced run per layer.

One workload per process:

    python3 perfbench/run.py --workload hull-highdim --seed 1 --seconds 20 --trace 0

repeats the workload's op list (built from the seed) in whole rounds for
about ``--seconds`` seconds, checks every op's output, and prints as its last
line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics (setup_s, wall_s,
op_p50_ms, peak_rss_mb); ``--trace 1`` wraps every weylhull layer and
reports the per-layer metrics instead, writing its spans to
``.perfbench_out/``.  Without ``--workload`` it runs all four workloads, each
untraced and then traced in fresh processes, and prints a summary with the
tracing overhead.  The package is imported from ``src/`` of the checkout
this file sits in.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: fresh processes timed for setup_s; the median is reported
SETUP_REPEATS = 3
#: fewest rounds a run makes, whatever --seconds says
MIN_ROUNDS = 3

sys.path.insert(0, HERE)
from workloads import FACTORIES, WORKLOADS  # noqa: E402


def _import_package():
    """Import weylhull from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    import weylhull

    if not os.path.abspath(weylhull.__file__).startswith(SRC + os.sep):
        raise ImportError(f"weylhull imported from {weylhull.__file__}, not from {SRC}")
    import importlib

    names = ("coefficients", "absorption", "arrangements", "exactlp", "cones", "hull",
             "walks", "mc", "asymptotics", "verify", "cli")
    return [weylhull] + [importlib.import_module(f"weylhull.{n}") for n in names]


def _lru_caches(modules):
    seen = {}
    for mod in modules:
        for value in vars(mod).values():
            if hasattr(value, "cache_clear") and getattr(value, "__module__", "").startswith("weylhull"):
                seen[id(value)] = value
    return list(seen.values())


def _coefficient_cache_stats(caches):
    infos = [c.cache_info() for c in caches if c.__module__ == "weylhull.coefficients"]
    return sum(i.hits for i in infos), sum(i.misses for i in infos)


def _time_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to the end of its setup."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed), "--setup-only"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"setup process failed: {proc.stderr.strip()[-400:]}")
    return elapsed


def _op_times(rounds: list[list[float]]) -> list[float]:
    """Each op's median time over the rounds.

    The host this benchmark was tuned on runs in a fast and a slow phase
    (about 1.4x apart) that switch every second or so, in a mix that drifts
    from minute to minute.  The median over rounds spread across the run
    lands in the phase that dominates.  Over five-seed sets it spread less
    from run to run than the fastest time or the lower quartile, and less
    than the mean on three workloads of four.
    """
    return [statistics.median(times) for times in zip(*rounds)]


def _run_round(ops, tracer, problems):
    """Run every op once; returns (op seconds list, failed count).

    ``problems`` collects one message per op that failed or gave a wrong
    output; a wrong output's message starts with WRONG.
    """
    times, failed = [], 0
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # an op that raises is counted, the run goes on
            t1 = time.perf_counter()
            times.append(t1 - t0)
            if tracer is not None and op.cli:
                tracer.record("cli.process", t0, t1, {"bytes": len(getattr(exc, "output", ""))})
            failed += 1
            problems.setdefault(op.name, f"failed: {exc}")
            continue
        t1 = time.perf_counter()
        times.append(t1 - t0)
        if tracer is not None and op.cli:
            tracer.record("cli.process", t0, t1, {"bytes": len(out.encode())})
        message = op.check(out)
        if message is not None:
            if op.known_fault:
                failed += 1
                problems.setdefault(op.name, f"known fault: {message}")
            else:
                problems.setdefault(op.name, f"WRONG: {message}")
    return times, failed


def run_workload(args) -> int:
    modules = _import_package()
    if args.setup_only:
        FACTORIES[args.workload](args.seed, ROOT)
        return 0
    setup = [] if args.trace else [_time_setup(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
    work = FACTORIES[args.workload](args.seed, ROOT)
    caches = _lru_caches(modules)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(modules)

    problems: dict = {}
    rounds, walls, cache_stats = [], [], []
    attempted = failed = 0
    t_measure = time.perf_counter()
    while len(walls) < MIN_ROUNDS or time.perf_counter() - t_measure + statistics.median(walls) <= args.seconds:
        for cache in caches:
            cache.cache_clear()
        gc.collect()
        if tracer is not None:
            tracer.round = len(walls)
        times, n_failed = _run_round(work.ops, tracer, problems)
        cache_stats.append(_coefficient_cache_stats(caches))
        rounds.append(times)
        walls.append(sum(times))
        attempted += len(times)
        failed += n_failed

    if tracer is not None:
        tracer.round = -1
    for check in work.extra_checks:
        message = check()
        if message is not None:
            problems[f"untimed check {message.split(':')[0]}"] = f"WRONG: {message}"

    correct = not any(message.startswith("WRONG") for message in problems.values())
    for name, message in problems.items():
        print(f"{name}: {message}", file=sys.stderr)
    if tracer is not None:
        tracer.uninstall()
        metrics = tracer.metrics(sum(_op_times(rounds)), walls, cache_stats)
        tracer.dump(os.path.join(ROOT, ".perfbench_out", f"spans-{args.workload}-seed{args.seed}.jsonl"))
    else:
        per_op = _op_times(rounds)
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": sum(per_op), "unit": "s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(per_op), "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    print(f"# {args.workload} seed={args.seed}: {len(walls)} rounds of {len(work.ops)} ops, "
          f"round wall {min(walls):.3f}..{max(walls):.3f} s", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in fresh processes, untraced then traced, with a summary."""
    summary = {}
    for workload in WORKLOADS:
        results = {}
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} trace={trace}: exit {proc.returncode}", file=sys.stderr)
                return 1
            results[trace] = json.loads(lines[-1])
        e2e, layers = results[0], results[1]
        overhead = layers["metrics"]["trace.wall_s"]["value"] - e2e["metrics"]["wall_s"]["value"]
        summary[workload] = {"correct": e2e["correct"] and layers["correct"], "attempted": e2e["attempted"],
                             "failed": e2e["failed"], "metrics": e2e["metrics"],
                             "trace_overhead_s": overhead, "per_layer": layers["metrics"]}
        m = e2e["metrics"]
        print(f"{workload:20s} setup_s {m['setup_s']['value']:.3f}  wall_s {m['wall_s']['value']:.3f}  "
              f"op_p50_ms {m['op_p50_ms']['value']:.3f}  peak_rss_mb {m['peak_rss_mb']['value']:.1f}  "
              f"attempted {e2e['attempted']}  failed {e2e['failed']}  trace overhead {overhead:+.3f} s")
    print(json.dumps(summary))
    return 0 if all(s["correct"] for s in summary.values()) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
