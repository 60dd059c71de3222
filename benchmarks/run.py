"""Benchmark of the orbitstar engine.

    python3 benchmarks/run.py --workload sym-star --seed 1 --seconds 35 --trace 0

Each workload runs in fresh child processes (worker.py), one at a time,
each single-threaded.  With --trace 0 the benchmark starts timed processes
for at most --seconds and reports the median of each end-to-end metric
over them.  With --trace 1 it runs one timed, one span-traced and
one counting process and reports the per-layer metrics.  The last line of
stdout is the JSON result; the lines before it name every metric with its
unit, and a "meta" line records the Python version, core count, load
average and the net line count of src/.  See benchmarks/README.md.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
CHILD_TIMEOUT_S = 170
SETUP_PROCESSES = 5

# Timed warm repeats per process: enough for a warm time of about a second.
WARM_REPS = {"verify-all": 1, "sym-star": 4, "orbit-ideal": 4}

END_TO_END = {"setup_s": "s", "cold_s": "s", "warm_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def run_worker(mode, ops, extra=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode, *extra]
    try:
        proc = subprocess.run(cmd, input=json.dumps(ops), capture_output=True,
                              text=True, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process exceeded {CHILD_TIMEOUT_S} s") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def src_lines():
    return sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((ROOT / "src").rglob("*.py"))
    )


def measure(workload, ops, seconds):
    """End-to-end metrics, as medians over processes.

    setup_s comes from SETUP_PROCESSES set-up-only processes plus the timed
    ones.  Timed processes are started one after another for at most
    `seconds`: another starts only if one as long as the last still fits.
    """
    setups = [run_worker("setup", [])["setup_s"] for _ in range(SETUP_PROCESSES)]
    reps = ["--warm-reps", str(WARM_REPS[workload])]
    runs = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        # the independent checks are deterministic, so one process runs them
        runs.append(run_worker("time", ops, reps + (["--check"] if not runs else [])))
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            break
    setups += [r["setup_s"] for r in runs]
    metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}}
    for name, unit in END_TO_END.items():
        if name != "setup_s":
            metrics[name] = {"value": statistics.median(r[name] for r in runs),
                             "unit": unit}
    return runs, metrics


def layers(workload, ops, seed):
    """Per-layer metrics from one timed, one traced and one counting process."""
    OUT_DIR.mkdir(exist_ok=True)
    # the timed process only supplies the untraced cold_s
    timed = run_worker("time", ops, ["--check", "--warm-reps", "0"])
    traced = run_worker("trace", ops, [
        "--trace-out", str(OUT_DIR / f"trace-{workload}-seed{seed}.json")])
    counted = run_worker("count", ops)
    values = dict(counted["layers"])
    values.update(traced["layers"])
    values["trace.overhead_ratio"] = traced["cold_s"] / timed["cold_s"]
    units = {}
    for name in values:
        if name.endswith("_s"):
            units[name] = "s"
        elif name.endswith("_ns"):
            units[name] = "ns"
        elif name.endswith("ratio"):
            units[name] = "ratio"
        else:
            units[name] = "count"
    metrics = {n: {"value": values[n], "unit": units[n]} for n in sorted(values)}
    return [timed, traced, counted], metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Exit through SystemExit on SIGTERM, so that subprocess.run kills and
    # waits for the worker it is running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "orbitstar" / "__init__.py").is_file():
        print(f"error: no orbitstar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    ops = gen.generate(args.workload, args.seed)
    try:
        if args.trace:
            runs, metrics = layers(args.workload, ops, args.seed)
        else:
            runs, metrics = measure(args.workload, ops, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)

    meta = {
        "workload": args.workload, "seed": args.seed, "processes": len(runs),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()), "src_lines": src_lines(),
        "error_rate": failed / attempted,
    }
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"error_rate = {meta['error_rate']:.6g} ({failed} of {attempted} operations failed)")
    print("meta " + json.dumps(meta))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
