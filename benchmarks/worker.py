"""One benchmark process: set-up, then (in `run` mode) warm-up and the timed
closed loop over a workload's job list.

    python3 benchmarks/worker.py setup --workload W --seed N --dir D --src SRC
    python3 benchmarks/worker.py run   --workload W --seed N --dir D --src SRC \\
        --seconds S --trace 0|1 [--spans PATH]

Set-up imports dframes from SRC and writes the workload's documents into D;
its time is the set-up sample.  Jobs run one at a time through
`dframes.cli.main(argv, stdout=...)` with D as the working directory.  The
last line of stdout is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
from collections import Counter

import workloads


def import_dframes(src: str):
    sys.path.insert(0, src)
    import dframes.cli

    if not os.path.abspath(dframes.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"dframes was imported from {dframes.cli.__file__}, not {src}")
    return dframes.cli.main


# calibrate() takes about this long on an uncontended 2.1 GHz Xeon vCPU;
# reference seconds are seconds as if it always did.
CAL_REF_S = 0.004


def calibrate() -> float:
    """Seconds taken by a fixed reference computation that does not use
    dframes: Python loops over small NumPy boolean arrays, the instruction
    mix of the library's hot paths.  It measures how fast the machine is
    running at that moment."""
    import numpy as np  # here, not at the top: set-up timing covers its import

    leq = np.random.default_rng(0).random((24, 24)) < 0.3
    t0 = time.perf_counter()
    found = 0
    for i in range(24):
        for j in range(24):
            cand = np.where(leq[:, i] & leq[:, j])[0]
            found += len([k for k in cand if leq[cand, k].all()])
    return time.perf_counter() - t0


class SpeedProbe:
    """Converts elapsed time into reference seconds while jobs run.

    Ticks cut time into segments: a timer signal every INTERVAL seconds,
    and an explicit tick at every job boundary.  Each tick times
    calibrate(); a segment counts as its length times CAL_REF_S over the
    mean calibration at its two ends, so speed changes within a long job
    are followed.  Time spent in ticks lies in no segment, so job times
    exclude it.  An inactive probe has no timer and calibrates nothing:
    its reference seconds are raw seconds."""

    INTERVAL = 0.2

    def __init__(self, active: bool = True):
        self.active = active
        self.raw = 0.0       # seconds in closed segments
        self.ref = 0.0       # the same, in reference seconds
        self.samples: list = []
        self._start = None
        self._busy = False

    def tick(self, signum=None, frame=None):
        if self._busy:       # the timer fired during an explicit tick
            return
        self._busy = True
        end = time.perf_counter()
        cal = calibrate() if self.active else CAL_REF_S
        if self._start is not None:
            seconds = end - self._start
            self.raw += seconds
            self.ref += seconds * CAL_REF_S / ((self.samples[-1] + cal) / 2)
        self.samples.append(cal)
        self._start = time.perf_counter()
        self._busy = False

    def __enter__(self):
        self.tick()
        if self.active:
            self._previous = signal.signal(signal.SIGALRM, self.tick)
            signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc):
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)


def run_job_list(main, jobs, tracer=None):
    """Run the jobs in order: (raw seconds per job, reference seconds per
    job, calibrations, outputs).  With a tracer the probe is inactive:
    spans would absorb its time."""
    raw, ref, outputs = [], [], []
    with SpeedProbe(active=tracer is None) as probe:
        for argv in jobs:
            stdout, stderr = io.StringIO(), io.StringIO()
            raw0, ref0 = probe.raw, probe.ref
            if tracer is None:
                code = main(argv, stdout=stdout, stderr=stderr)
            else:
                tracer.job += 1
                code = tracer.call(f"cli.{argv[0]}", main, argv, stdout=stdout, stderr=stderr)
            probe.tick()
            raw.append(probe.raw - raw0)
            ref.append(probe.ref - ref0)
            outputs.append((argv, code, stdout.getvalue()))
    return raw, ref, probe.samples, outputs


def closed_loop(main, jobs, seconds, expected, tracer=None) -> list[dict]:
    """Repeat the job list until `seconds` are used up: another pass starts
    if it would end at most half a pass late, and there is at least one.
    Each pass records its wall time (the sum of its job latencies), the
    latencies in raw and reference seconds, the calibrations taken during
    it, failures, counters and the span range it produced."""
    passes = []
    start = time.perf_counter()
    while True:
        gc.collect()
        lo = 0
        if tracer is not None:
            tracer.counts = Counter()
            lo = len(tracer.spans)
        begin = time.perf_counter()
        latencies, reference, calibrations, outputs = run_job_list(main, jobs, tracer)
        elapsed = time.perf_counter() - begin
        failures = []
        for argv, code, text in outputs:
            why = workloads.job_failures(argv, code, text, expected)
            if why:
                failures.append(f"{workloads.job_key(argv)}: {'; '.join(why)}")
        passes.append({
            "wall": sum(latencies), "latencies": latencies, "reference": reference,
            "calibrations": calibrations, "failures": failures,
            "counts": dict(tracer.counts) if tracer is not None else {},
            "spans": (lo, len(tracer.spans)) if tracer is not None else (0, 0),
        })
        if time.perf_counter() - start > seconds - elapsed / 2:
            return passes


def warm_up(main, workload) -> None:
    for argv in workload.warmup:
        code = main(list(argv), stdout=io.StringIO(), stderr=io.StringIO())
        if code != 0:
            raise SystemExit(f"warm-up job {workloads.job_key(argv)} exited {code}")


def traced_run(main, jobs, seconds, expected, spans_path):
    """Half the time with counters only, half with spans.  Returns the
    passes, the per-layer metrics, notes, and whether the counters were
    consistent between passes and with spans on and off."""
    import layers
    from tracer import Tracer

    counting = Tracer(spans=False)
    layers.install(counting, [layers.ADMISSION])
    try:
        plain = closed_loop(main, jobs, seconds / 2, expected, counting)
    finally:
        counting.uninstall()

    tracer = Tracer()
    layers.install(tracer)
    try:
        traced = closed_loop(main, jobs, seconds / 2, expected, tracer)
    finally:
        tracer.uninstall()

    problems = []
    reference = traced[0]["counts"]
    for k, p in enumerate(traced[1:], 2):
        if p["counts"] != reference:
            problems.append(f"traced pass {k} counters differ from pass 1")
    for k, p in enumerate(plain, 1):
        for key in layers.PAIR_COUNTS:
            if p["counts"].get(key, 0) != reference.get(key, 0):
                problems.append(f"{key}: {p['counts'].get(key, 0)} untraced (pass {k}), "
                                f"{reference.get(key, 0)} traced")

    analysis = layers.Analysis(tracer.spans)
    metrics, incl_total, self_total, jobs_ns = [], Counter(), Counter(), 0
    for p in traced:
        lo, hi = p["spans"]
        incl, layer_self, wall_ns = analysis.job_list(lo, hi)
        incl_total += incl
        self_total += layer_self
        jobs_ns += wall_ns
        metrics.append(layers.job_list_metrics(incl, layer_self, Counter(p["counts"]), hi - lo))
    per_layer = layers.median_metrics(metrics)
    plain_wall = statistics.median(p["wall"] for p in plain)
    traced_wall = statistics.median(p["wall"] for p in traced)
    per_layer["trace.overhead_frac"] = traced_wall / plain_wall - 1

    name, t = layers.dominant(incl_total)
    notes = [
        f"traced passes: {len(traced)}, untraced passes: {len(plain)}; "
        f"median pass {traced_wall:.4f} s traced, {plain_wall:.4f} s untraced",
        f"dominant operation: {name} ({100 * t / jobs_ns:.1f}% of traced job time), "
        f"layer {name.split('.')[0]}",
        "inclusive share by operation: " + ", ".join(
            f"{op} {100 * ns / jobs_ns:.1f}%" for op, ns in incl_total.most_common(8)),
        "self-time share by layer: " + ", ".join(
            f"{layer} {100 * self_total[layer] / jobs_ns:.1f}%" for layer in layers.LAYERS),
        "no layer waits: one client, one thread, nothing queues, so no wait time is reported",
    ]
    if spans_path:
        os.makedirs(os.path.dirname(spans_path), exist_ok=True)
        tracer.write(spans_path)
        notes.append(f"{len(tracer.spans)} spans written to {spans_path}")
    return plain + traced, per_layer, notes + problems, not problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    t0 = time.perf_counter()
    main_fn = import_dframes(os.path.abspath(args.src))
    workloads.write_documents(workload, args.dir)
    setup_s = time.perf_counter() - t0
    cal = statistics.median(calibrate() for _ in range(3))
    result = {"setup_s": setup_s, "setup_ref_s": setup_s * CAL_REF_S / cal}
    if args.mode == "run":
        expected = workloads.load_expected()
        os.chdir(args.dir)
        jobs = workload.job_list(args.seed)
        warm_up(main_fn, workload)
        if args.trace:
            passes, per_layer, notes, consistent = traced_run(
                main_fn, jobs, args.seconds, expected, args.spans)
            result.update(per_layer=per_layer, notes=notes, consistent=consistent)
        else:
            passes = closed_loop(main_fn, jobs, args.seconds, expected)
        result.update(
            jobs_per_pass=len(jobs),
            passes=[{k: p[k] for k in ("latencies", "reference", "calibrations")}
                    for p in passes],
            failures=[f for p in passes for f in p["failures"]],
            attempted=len(jobs) * len(passes),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
