"""dframes benchmark: runs one workload and prints its metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is built from ./src.  Each
workload runs in a fresh child process (benchmarks/worker.py), one CLI job
at a time in a closed loop with a single client, after a warm-up pass.
Set-up (importing dframes and writing the workload's documents) is timed in
several fresh processes and reported as their median.

The last line of stdout is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics for --trace 0 and the per-layer metrics, from a
separately traced run, for --trace 1.  Work files go to .bench_work/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))

SETUP_SAMPLES = 5
DEADLINE_S = 170   # a run must end within 180 s

# end-to-end metric name -> unit
END_TO_END = {
    "wall_s": "s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks, as numpy's default."""
    values = sorted(values)
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def end_to_end(result: dict, setups: list, tail: float) -> tuple[dict, list]:
    """The end-to-end metrics.  Times are in reference seconds (see
    worker.SpeedProbe), which cancels drift in the speed of a shared host."""
    walls = [sum(p["reference"]) for p in result["passes"]]
    raw = [sum(p["latencies"]) for p in result["passes"]]
    lat = [t for p in result["passes"] for t in p["reference"]]
    setup = [s["setup_ref_s"] for s in setups]
    metrics = {
        "wall_s": statistics.median(walls),
        "job_p50_s": percentile(lat, 0.5),
        "job_p90_s": percentile(lat, tail),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes = [
        f"{len(walls)} passes of {result['jobs_per_pass']} jobs; wall_s is the median "
        "pass in reference seconds of " + ", ".join(f"{w:.4f}" for w in walls),
        "raw pass seconds: " + ", ".join(f"{w:.4f}" for w in raw)
        + f"; median calibration {1000 * statistics.median(c for p in result['passes'] for c in p['calibrations']):.3f} ms",
        f"job latency over {len(lat)} samples; job_p90_s reports p{round(100 * tail)}, "
        f"with {len(lat) * (1 - tail):.0f} samples beyond it",
        f"setup_s is the median of {len(setup)} fresh processes: "
        + ", ".join(f"{s:.4f}" for s in setup)
        + " (raw " + ", ".join(f"{s['setup_s']:.4f}" for s in setups) + ")",
    ]
    return metrics, notes


def child(mode: str, args, directory: str, src: str, deadline: float, extra=()) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--dir", directory, "--src", src, *extra]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {mode} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "dframes", "cli.py")):
        sys.stderr.write("error: run from the root of a dframes checkout (no src/dframes here)\n")
        return 2
    work = os.path.abspath(os.path.join(".bench_work", f"run-{os.getpid()}"))
    try:
        extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            spans = os.path.abspath(os.path.join(
                ".bench_work", "traces", f"{args.workload}-seed{args.seed}.jsonl"))
            extra += ["--spans", spans]
        setups = [child("setup", args, os.path.join(work, f"setup{k}"), src, deadline)
                  for k in range(SETUP_SAMPLES - 1 if not args.trace else 0)]
        result = child("run", args, os.path.join(work, "docs"), src, deadline, extra)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"error: the workload did not finish within {DEADLINE_S} s\n")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(result["failures"])
    attempted = result["attempted"]
    correct = failed == 0 and result.get("consistent", True)
    if args.trace:
        import layers
        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, (unit, _) in layers.PER_LAYER.items()}
        notes = result["notes"]
    else:
        values, notes = end_to_end(result, setups + [result],
                                   workloads.WORKLOADS[args.workload].tail)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in notes:
        print(f"  {line}")
    print(f"  failed_frac {failed}/{attempted} = {failed / attempted:.4f}")
    for line in result["failures"][:10]:
        print(f"  FAILED {line}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
