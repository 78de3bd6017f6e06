"""torusbv benchmark: one workload, end-to-end or per-layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in a fresh
single-threaded worker process (`bench/worker.py`) as a closed loop with one
caller, so at most two processes exist at a time.  With `--trace 0` the
worker's set-up is repeated in separate processes and the median set-up
time is reported with the untraced end-to-end figures, whose times are
CPU times scaled to a reference speed (see `reference.py`); with
`--trace 1` one worker reports the per-layer figures.  Every operation is checked
against an exact reference.  The last line of stdout is one JSON object;
the lines before it repeat the figures with their sample counts and the
conditions of the run.  The exit code is 1 when any operation failed and
2 when the benchmark could not run at all (then no result is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("witt-sweep", "polyvector-cli", "rep-theory")
SETUP_SPAWNS = 9
SETUP_TIMEOUT_S = 60
RUN_GRACE_S = 120
NOTE = "times only its own processes; no CPU pinning or cache control"

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MiB",
}


def per_layer_units() -> dict:
    units = {}
    for key in tracing.CALL_COUNTERS:
        units[key] = "count"
    units["bvalgebra.wedge.term_pairs"] = "count"
    units["parsing.parse_polyvector.chars"] = "chars"
    units["parsing.format_polyvector.chars"] = "chars"
    units["cli.main.out_bytes"] = "bytes"
    for layer in tracing.LAYERS:
        units[f"{layer}.self_s"] = "s"
    for key in ("bvalgebra.gerstenhaber_bracket.inner_terms_per_out_term",
                "bvalgebra.wedge.zero_pair_frac", "bvalgebra.store.zero_dropped_frac"):
        units[key] = "ratio"
    units["fractions.self_s"] = "s"
    units["fractions.self_frac"] = "ratio"
    units["trace.overhead_frac"] = "ratio"
    return units


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def commit() -> str:
    """The checked-out commit, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn(workload, seed, seconds, mode, timeout) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    t_spawn = time.monotonic()
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
           "--t-spawn", repr(t_spawn)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker exceeded {timeout} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def header(args, strata) -> list:
    pass_ops = sum(strata.values())
    return [
        f"workload {args.workload} | seed {args.seed} | python {platform.python_version()}"
        f" | commit {commit()} | nproc {os.cpu_count()}",
        NOTE,
        f"closed loop, one caller, one fresh single-threaded worker; one pass = {pass_ops} ops: "
        + ", ".join(f"{k} {v}" for k, v in strata.items()),
    ]


def end_to_end(args):
    # set-up-only spawns before and after the measuring one, so that their
    # median is not taken from a single moment of the machine
    before = SETUP_SPAWNS // 2
    spawns = [spawn(args.workload, args.seed, args.seconds, "setup", SETUP_TIMEOUT_S)
              for _ in range(before)]
    run = spawn(args.workload, args.seed, args.seconds, "run", args.seconds + RUN_GRACE_S)
    spawns += [run] + [spawn(args.workload, args.seed, args.seconds, "setup", SETUP_TIMEOUT_S)
                       for _ in range(SETUP_SPAWNS - before - 1)]
    setup_cpu = statistics.median(s["setup_cpu_s"] for s in spawns)
    setup_wall = statistics.median(s["setup_wall_s"] for s in spawns)
    n, m, passes = run["attempted"], run["pass_ops"], run["passes"]
    per_op = f"{m} ops, each the median scaled CPU time of {passes} passes"
    values = {
        "setup_s": (statistics.median(s["setup_s"] for s in spawns),
                    f"scaled CPU time, median of {len(spawns)} spawns; unscaled "
                    f"{setup_cpu:.4f} s, wall time from spawn {setup_wall:.4f} s"),
        "ops_per_s": (run["ops_per_s"], f"{per_op}; {n} runs in {run['wall_s']:.1f} s, "
                      f"unscaled median pass {run['raw_pass_ops_per_s']:.1f} ops/s"),
        "op_p50_ms": (run["op_p50_ms"], per_op),
        "op_tail_ms": (run["op_tail_ms"],
                       f"p{run['tail_pct']:g} of {per_op}, {run['tail_beyond']} beyond"),
        "peak_rss_mb": (run["peak_rss_mb"], "1 worker process"),
    }
    lines = header(args, run["strata"])
    lines.append(f"times scaled to a reference speed: the reference loop, timed around every "
                 f"{run['chunk']} op(s), takes {run['reference_nominal_ms']:g} ms there and took a median "
                 f"{run['reference_ms']:.4f} ms over {run['reference_runs']} runs here")
    for name, (value, samples) in values.items():
        lines.append(f"  {name:<12} {value:>14.6f} {END_TO_END_UNITS[name]:<5} {samples}")
    lines.append(f"  {'failed_frac':<12} {run['failed'] / n:>14.6f} {'ratio':<5} "
                 f"{run['failed']} of {n} runs")
    metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, (v, _) in values.items()}
    return run, lines, metrics


def per_layer(args):
    run = spawn(args.workload, args.seed, args.seconds, "trace", args.seconds + RUN_GRACE_S)
    units = per_layer_units()
    lines = header(args, run["strata"])
    lines.append(f"per layer, from {run['rounds']} rounds of one pass each untraced, traced and "
                 f"under cProfile; counts from one traced pass, times are medians (s per pass)")
    lines.append("missing wrapped names: " + (", ".join(run["missing"]) or "none"))
    metrics = {}
    for name, unit in units.items():
        value = run["metrics"][name]
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"  {name:<58} {value:>14.6f} {unit}")
    return run, lines, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (ROOT / "src" / "torusbv" / "__init__.py").is_file():
            raise BenchError(f"no torusbv sources under {ROOT / 'src'}")
        run, lines, metrics = (per_layer if args.trace else end_to_end)(args)
    except BenchError as exc:
        sys.stderr.write(f"benchmark: {exc}\n")
        return 2
    for failure in run["failures"]:
        lines.append(f"FAILED {failure}")
    print("\n".join(lines))
    correct = run["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
