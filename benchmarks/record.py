"""Record the exit code and report digest of every job any workload seed can
produce, into benchmarks/expected.json.

    python3 benchmarks/record.py

Run from the root of a checkout, on the commit whose outputs are the
reference; the benchmark then counts any job that differs as failed.
"""

from __future__ import annotations

import io
import json
import os
import shutil

import workloads
from worker import import_dframes


def main() -> int:
    main_fn = import_dframes(os.path.abspath("src"))
    work = os.path.abspath(os.path.join(".bench_work", "record"))
    home = os.getcwd()
    expected = {}
    try:
        for workload in workloads.WORKLOADS.values():
            workloads.write_documents(workload, work)
            os.chdir(work)
            for argv in workload.every_job():
                stdout = io.StringIO()
                code = main_fn(argv, stdout=stdout, stderr=io.StringIO())
                text = stdout.getvalue()
                bad = workloads.fact_failures(argv, text)
                if bad:
                    raise SystemExit(f"{workloads.job_key(argv)} violates: {bad}")
                expected[workloads.job_key(argv)] = {"exit": code,
                                                     "sha256": workloads.digest(text)}
                print(f"{code} {workloads.job_key(argv)}", flush=True)
            os.chdir(home)
    finally:
        os.chdir(home)
        shutil.rmtree(work, ignore_errors=True)
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
