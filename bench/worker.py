"""One workload in one fresh, single-threaded process.

    python3 bench/worker.py --workload NAME --seed N --seconds S --mode MODE --t-spawn T

MODE is `setup` (set up, then stop where timing would start), `run` (the
untraced closed loop that gives the end-to-end figures) or `trace` (rounds
of an untraced, a traced and a cProfile pass over the same operations).
Set-up time is the CPU time of this process up to its first timed
operation, so it counts interpreter start; T, the parent's
`time.monotonic()` just before it started this process, gives the wall
time as well.  The result is one JSON object on the last line of stdout.

The end-to-end times are scaled to a reference speed (`reference.py`): an
operation's CPU time by the reference loop timed right before and after
it, the set-up's by the median of the reference loop timed every
`SETUP_SAMPLE_S` of CPU time during set-up.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import math
import pstats
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

import reference

SETUP_SAMPLE_S = 0.005
SETUP_SPEED = reference.SpeedSampler(SETUP_SAMPLE_S)
if __name__ == "__main__":
    SETUP_SPEED.start()  # before torusbv is imported: importing it is set-up

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import torusbv  # noqa: E402  (after the path points at this checkout)

import tracing  # noqa: E402
import workloads  # noqa: E402

FAILURES_SHOWN = 5
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10


class PassResult:
    """Operation and failure counts accumulated over passes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record_failure(self, op, reason):
        self.failed += 1
        if len(self.failures) < FAILURES_SHOWN:
            self.failures.append(f"{op.kind}: {op.label}: {reason}")


def run_pass(ops, result: PassResult, tracer=None, profiler=None) -> array:
    """Run every operation once, closed loop; check each output outside the
    timed region.  Returns the latency of each operation in seconds, read
    from the thread's CPU-time clock: the operations never block, and on a
    virtual machine this clock leaves out the time the hypervisor gave the
    CPU to someone else, which wall time does not."""
    clock = time.thread_time
    latencies = array("d")
    for op in ops:
        if tracer is not None:
            tracer.active = True
        if profiler is not None:
            profiler.enable()
        t0 = clock()
        try:
            out = op.fn(*op.args)
            error = None
        except (Exception, SystemExit) as exc:  # a failed operation, counted
            error = exc
        t1 = clock()
        if profiler is not None:
            profiler.disable()
        if tracer is not None:
            tracer.active = False
        latencies.append(t1 - t0)
        result.attempted += 1
        if error is not None:
            result.record_failure(op, f"raised {type(error).__name__}: {error}")
            continue
        try:
            ok = op.check(out)
        except Exception as exc:  # an output the reference cannot read
            ok = False
            error = exc
        if not ok:
            result.record_failure(op, "differs from the reference" if error is None
                                  else f"unreadable output: {error!r}")
    return latencies


def run_scaled_pass(ops, chunk, result: PassResult):
    """`run_pass` in chunks of `chunk` operations with the reference loop
    timed before and after each chunk.  Returns each operation's latency
    in reference seconds (its CPU time times `reference.REFERENCE_MS` over the mean
    reference time around its chunk), the raw CPU times, and the
    reference times."""
    scaled, raw, refs = array("d"), array("d"), array("d")
    before = reference.time_loop()
    refs.append(before)
    for start in range(0, len(ops), chunk):
        lat = run_pass(ops[start:start + chunk], result)
        after = reference.time_loop()
        refs.append(after)
        scale = reference.REFERENCE_MS * 1e-3 / ((before + after) / 2)
        scaled.extend(t * scale for t in lat)
        raw.extend(lat)
        before = after
    return scaled, raw, refs


def tail(sorted_latencies):
    """(percentile, value, samples beyond) at the highest percentile of the
    ladder that keeps at least ten samples beyond it, else the median."""
    n = len(sorted_latencies)
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(pct / 100 * n))
        if n - rank >= MIN_BEYOND or pct == TAIL_LADDER[-1]:
            return pct, sorted_latencies[rank - 1], n - rank


def setup(name, seed):
    """Build the workload's pass and run its warm-up."""
    workload = workloads.build(name, seed)
    run_pass(workload.warmup, PassResult())
    # the inputs live for the whole run: keep them out of every GC scan, so
    # that collection cost does not grow with the size of a pass
    gc.collect()
    gc.freeze()
    return workload


def timed_run(workload, seconds):
    """Whole scaled passes until `seconds` have elapsed.  Each operation's
    latency is the median of its scaled latencies over the passes."""
    result = PassResult()
    passes, raw_rates, refs = [], [], array("d")
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        scaled, raw, ref = run_scaled_pass(workload.ops, workload.chunk, result)
        passes.append(scaled)
        raw_rates.append(len(raw) / sum(raw))
        refs.extend(ref)
    wall = time.perf_counter() - start
    ordered = sorted(statistics.median(samples) for samples in zip(*passes))
    pct, tail_s, beyond = tail(ordered)
    return {
        "attempted": result.attempted,
        "failed": result.failed,
        "failures": result.failures,
        "passes": len(passes),
        "pass_ops": len(ordered),
        "chunk": workload.chunk,
        "wall_s": wall,
        "raw_pass_ops_per_s": statistics.median(raw_rates),
        "reference_ms": statistics.median(refs) * 1e3,
        "reference_nominal_ms": reference.REFERENCE_MS,
        "reference_runs": len(refs),
        "ops_per_s": len(ordered) / sum(ordered),
        "op_p50_ms": statistics.median(ordered) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "tail_pct": pct,
        "tail_beyond": beyond,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def fraction_self_s(profiler) -> tuple:
    """(self seconds in fractions.py, share of all profiled self time)."""
    stats = pstats.Stats(profiler).stats
    total = sum(row[2] for row in stats.values())
    frac = sum(row[2] for key, row in stats.items() if Path(key[0]).name == "fractions.py")
    return frac, (frac / total if total else 0.0)


def traced_run(workload, seconds):
    """Rounds of untraced, traced and profiled passes until `seconds` have
    elapsed; counts come from one traced pass (they repeat exactly), times
    are medians over rounds."""
    result = PassResult()
    tracer = tracing.Tracer()
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        untraced = sum(run_pass(workload.ops, result))
        tracer.reset()
        tracer.install()
        try:
            traced = sum(run_pass(workload.ops, result, tracer=tracer))
        finally:
            tracer.uninstall()
        layer = tracer.metrics()
        profiler = cProfile.Profile()
        run_pass(workload.ops, result, profiler=profiler)
        layer["fractions.self_s"], layer["fractions.self_frac"] = fraction_self_s(profiler)
        layer["trace.overhead_frac"] = traced / untraced - 1
        rounds.append(layer)
    metrics = {}
    for key, value in rounds[-1].items():
        if key.endswith(("self_s", "self_frac", "overhead_frac")):
            metrics[key] = statistics.median(r[key] for r in rounds)
        else:
            metrics[key] = value
    return {
        "attempted": result.attempted,
        "failed": result.failed,
        "failures": result.failures,
        "rounds": len(rounds),
        "pass_ops": len(workload.ops),
        "missing": tracer.missing,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    parser.add_argument("--t-spawn", type=float, required=True)
    args = parser.parse_args(argv)

    if Path(torusbv.__file__).resolve().parent != ROOT / "src" / "torusbv":
        raise SystemExit(f"imported torusbv from {torusbv.__file__}, not from this checkout")
    workload = setup(args.workload, args.seed)
    setup_cpu = time.process_time()
    setup_wall = time.monotonic() - args.t_spawn
    SETUP_SPEED.stop()
    setup_cpu -= SETUP_SPEED.spent
    out = {
        "setup_s": setup_cpu * SETUP_SPEED.scale(),
        "setup_cpu_s": setup_cpu,
        "setup_reference_ms": statistics.median(SETUP_SPEED.samples) * 1e3,
        "setup_wall_s": setup_wall,
        "strata": workload.strata,
    }
    if args.mode == "run":
        out.update(timed_run(workload, args.seconds))
    elif args.mode == "trace":
        out.update(traced_run(workload, args.seconds))
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
