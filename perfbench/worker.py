"""One repetition of a workload, in a fresh interpreter.

Started by run.py; prints one JSON object on its last line of output.
Set-up ends when the workload is ready: the interpreter has started,
c2lab (with numpy and networkx) is imported, and the workload's fields,
graphs and graph files are built.  Its wall time counts from the moment
run.py spawned this process, its CPU time from the start of the process.  The check list then runs once, from cold program caches, and is
judged afterwards, outside the timed region.

Every time is taken as wall time and as the CPU time of this process
(user plus system, all threads).  The checks run in one thread, so on an
idle machine the two are the same.

The shared machine this benchmark was made on changes speed by up to 1.9x
over seconds to minutes, and the CPU time of a check changes with it.  So
the worker also times a calibration unit of the benchmark's own: the
recount of [Psi_wheel4] over F_3 (recount.py, no c2lab code).  It runs the
unit for 0.1 s after set-up, and after every batch of checks that took
CAL_BATCH_S or more, for CAL_SHARE of the batch's time, outside every timed
region.  cal_factor is CAL_REF_S over the unit's mean CPU time in this
repetition; a check's CPU time times cal_factor is its CPU time at the
reference machine's speed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

CAL_REF_S = 0.0155  # CPU time of one calibration unit on the reference machine
CAL_BATCH_S = 0.25
CAL_SHARE = 0.05
CAL_MIN_S = 0.03


def calibrate(seconds: float) -> tuple:
    """Run calibration units for at least ``seconds`` of wall time: (CPU s, units)."""
    import recount as R

    edges, V = R.spec_graph("wheel:4")
    units = 0
    t0, c0 = time.perf_counter(), time.process_time()
    while True:
        R.psi_zeros(edges, V, 3)
        units += 1
        if units >= 2 and time.perf_counter() - t0 >= seconds:
            return time.process_time() - c0, units


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True, help="time.time() at spawn")
    ap.add_argument("--mode", choices=("run", "trace", "setup"), default="run")
    args = ap.parse_args()

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import c2lab  # imports every c2lab module
    import c2lab.cli  # noqa: F401

    if not os.path.abspath(c2lab.__file__).startswith(src + os.sep):
        raise SystemExit(f"c2lab was imported from {c2lab.__file__}, not from {src}")

    import checks

    tracer = None
    if args.mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        ctx = checks.Context(args.seed, tmp)
        check_list = checks.build(args.workload, ctx)
        setup_s = time.time() - args.spawned_at
        setup_cpu_s = time.process_time()
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s, "setup_cpu_s": setup_cpu_s}))
            return 0
        if tracer:
            tracer.reset()

        outputs = []
        wall, cpu = {}, {}
        cal_cpu_s, cal_units = calibrate(0.1)
        batch_s = 0.0
        for i, ch in enumerate(check_list):
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                outputs.append((ch.run(), None))
            except Exception as e:  # a check that raises is a failed check, not a crash
                outputs.append((None, f"{type(e).__name__}: {e}"))
            wall[ch.name] = time.perf_counter() - t0
            cpu[ch.name] = time.process_time() - c0
            batch_s += wall[ch.name]
            if batch_s >= CAL_BATCH_S or i == len(check_list) - 1:
                c, u = calibrate(max(CAL_MIN_S, CAL_SHARE * batch_s))
                cal_cpu_s += c
                cal_units += u
                batch_s = 0.0
        run_s = sum(wall.values())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        largest = checks.LARGEST[args.workload]
        result = {
            "setup_s": setup_s,
            "setup_cpu_s": setup_cpu_s,
            "run_s": run_s,
            "run_cpu_s": sum(cpu.values()),
            "largest_check_s": wall[largest],
            "largest_check_cpu_s": cpu[largest],
            "peak_rss_mb": peak_rss_mb,
            "cal_factor": CAL_REF_S * cal_units / cal_cpu_s,
        }
        if tracer:
            tracer.uninstall()
            result["layers"] = tracer.metrics(run_s)
            tracer.write_spans(
                os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}-pid{os.getpid()}.jsonl")
            )

    failed = []
    wrong = []
    for ch, (out, err) in zip(check_list, outputs):
        if err is not None:
            failed.append(f"{ch.name}: {err}")
            continue
        problems = ch.verify(out)
        if problems:
            failed.append(f"{ch.name}: {'; '.join(problems)}")
            wrong.append(ch.name)
    result.update(
        attempted=len(check_list),
        failed=len(failed),
        correct=not wrong,
        failures=failed,
        check_s=wall,
        check_cpu_s=cpu,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
