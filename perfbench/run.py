"""c2lab benchmark: one command for every workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs repetitions of the workload, each in a fresh interpreter (worker.py),
until the next one would end after S seconds (at least two; with --trace 1
at least one round), and takes extra set-up samples until there are at
least five.  It prints every metric by name with its unit, then, as the
last line, one JSON object: {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end ones.  run_s is the sum over
the check list of each check's least scaled CPU time across the run's
repetitions, largest_check_s the least scaled CPU time of the largest
check, setup_s the median CPU time of set-up, and peak_rss_mb the median
peak memory.  A scaled CPU time is a CPU time times the repetition's
cal_factor (see worker.py): the time at the reference machine's speed.
CPU time leaves out the time the host of a shared virtual machine gives
this vCPU to others, the scaling takes out the machine's changes of
speed, and interference only ever adds time, so a check's least time
varies least from run to run.  Each repetition's wall, CPU and scaled
times are printed, and kept with the rest of it in perfbench/out/.

With --trace 1 each round is one untraced and one traced repetition, and
the metrics are the per-layer ones, each layer's share of the traced
run_s, and the tracing overhead.  Exits non-zero, printing no result, if a
repetition cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = ("parametric", "position", "oracles", "admissibility")
END_TO_END = [("setup_s", "s"), ("run_s", "s"), ("largest_check_s", "s"), ("peak_rss_mb", "MB")]
MIN_REPS = 2
SETUP_SAMPLES = 5
DEADLINE_S = 170.0


class RepFailed(Exception):
    pass


def _spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    # c2lab makes no BLAS calls; one BLAS thread keeps OpenBLAS's idle
    # helper threads from adding CPU time to set-up.
    env = dict(os.environ, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1")
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed), "--mode", mode]
    spawned_at = time.time()
    try:
        proc = subprocess.run(
            cmd + ["--spawned-at", repr(spawned_at)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as e:
        raise RepFailed(f"{mode} repetition of {workload} passed the deadline") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepFailed(f"{mode} repetition of {workload} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description="c2lab benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    start = time.monotonic()
    deadline = start + DEADLINE_S
    plain, traced, setups = [], [], []
    try:
        while True:
            t0 = time.monotonic()
            rep = _spawn(args.workload, args.seed, "run", deadline)
            plain.append(rep)
            setups.append(rep)
            if args.trace:
                traced.append(_spawn(args.workload, args.seed, "trace", deadline))
            round_s = time.monotonic() - t0
            enough = len(plain) >= (1 if args.trace else MIN_REPS)
            if enough and time.monotonic() - start + round_s > args.seconds:
                break
        while len(setups) < SETUP_SAMPLES:
            setups.append(_spawn(args.workload, args.seed, "setup", deadline))
    except RepFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    reps = plain + traced
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    correct = all(r["correct"] for r in reps)
    for line in sorted({f for r in reps for f in r["failures"]}):
        print(f"failed: {line}")
    for i, r in enumerate(reps):
        kind = "traced" if i >= len(plain) else "plain"
        print(f"repetition {i + 1} ({kind}): scaled / CPU / wall"
              f" run_s = {r['run_cpu_s'] * r['cal_factor']:.4f} / {r['run_cpu_s']:.4f} / {r['run_s']:.4f}"
              f", largest_check_s = {r['largest_check_cpu_s'] * r['cal_factor']:.4f}"
              f" / {r['largest_check_cpu_s']:.4f} / {r['largest_check_s']:.4f}"
              f"; CPU / wall setup_s = {r['setup_cpu_s']:.4f} / {r['setup_s']:.4f}"
              f"; peak_rss_mb = {r['peak_rss_mb']:.1f}")
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"reps-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"plain": plain, "traced": traced, "setups": setups}, fh)

    median = statistics.median
    if args.trace:
        import tracing

        metrics = {}
        units = dict(tracing.METRICS)
        for name in units:
            vals = [r["layers"][name] for r in traced if name in r["layers"]]
            if vals:
                metrics[name] = {"value": median(vals), "unit": units[name]}
        run_traced = median(r["run_s"] for r in traced)
        run_plain = median(r["run_s"] for r in plain)
        metrics["trace.run_s"] = {"value": run_traced, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": run_traced - run_plain, "unit": "s"}
        metrics["trace.overhead_pct"] = {"value": 100.0 * (run_traced - run_plain) / run_plain, "unit": "%"}
    else:
        least = {
            name: min(r["check_cpu_s"][name] * r["cal_factor"] for r in plain) for name in plain[0]["check_cpu_s"]
        }
        values = {
            "setup_s": median(r["setup_cpu_s"] for r in setups),
            "run_s": sum(least.values()),
            "largest_check_s": min(r["largest_check_cpu_s"] * r["cal_factor"] for r in plain),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} repetitions"
          + (f" and {len(traced)} traced" if args.trace else "")
          + f", {len(setups)} set-ups, {time.monotonic() - start:.1f} s")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"checks attempted = {attempted}, failed = {failed}, correct = {str(correct).lower()}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
