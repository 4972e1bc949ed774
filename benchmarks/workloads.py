"""The four benchmark workloads: their input documents, job lists and the
correctness gate every job's output must pass.

A job is the argv of one `dframes` CLI call.  Document paths in an argv are
bare file names: the worker runs jobs from inside the directory holding the
generated documents, so report bytes (which echo the path) do not depend on
where the checkout lives.

This module does not import dframes at import time; set-up timing starts
before that import.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

# `props corpus --seed S` appends six seeded random d-frames to the corpus.
# The props seed is the workload seed modulo this many, so every seed a run
# can receive has a digest recorded in expected.json.
PROPS_SEEDS = 16


def doc_name(spec: str) -> str:
    return spec.replace(":", "_") + ".json"


def _each(commands, specs) -> tuple:
    return tuple((cmd, doc_name(spec)) for spec in specs for cmd in commands)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    specs: tuple = ()    # every document the jobs and the warm-up read
    jobs: tuple = ()     # the timed job list, before the seed orders it
    warmup: tuple = ()   # small jobs run once before timing
    # The percentile job_p90_s reports: p90 where a run at the benchmark's
    # 25 s yields at least 100 job samples, so that ten lie beyond it; else
    # the highest lower one with ten beyond.  Fixed per workload so that a
    # faster or slower machine does not switch percentiles between runs.
    tail: float = 0.5

    def job_list(self, seed: int) -> list[list[str]]:
        """The timed job list for a seed, in the order it runs."""
        if self.name == "corpus-sweep":
            return [["props", "corpus", "--seed", str(seed % PROPS_SEEDS)]]
        jobs = [list(argv) for argv in self.jobs]
        random.Random(seed).shuffle(jobs)
        return jobs

    def every_job(self) -> list[list[str]]:
        """Every job any seed can produce (what expected.json records)."""
        if self.name == "corpus-sweep":
            return [self.job_list(s)[0] for s in range(PROPS_SEEDS)]
        return sorted(self.job_list(0))


_THREE_THREE = "min:chain:3:chain:3"
_LATTICE_SPECS = (_THREE_THREE, "min:chain:5:chain:5", "sym:chain:5",
                  "min:bool:2:chain:5", "min:chain:5:bool:2", "sym:bool:2",
                  "min:bool:3:chain:4")
_LARGE_SPECS = ("min:chain:40:chain:40", "sym:chain:30", "sym:bool:5")

WORKLOADS = {w.name: w for w in (
    Workload(
        name="corpus-sweep",
        why="props corpus: 67 small d-frames; sub-d-locale admission and Sublocale.as_frame dominate",
        specs=(_THREE_THREE,),
        warmup=(("props", doc_name(_THREE_THREE)),),
    ),
    # 15 jobs: an odd count keeps p50 and p90 of the pooled latencies inside
    # one job's samples instead of between two jobs'.
    Workload(
        name="dsub-lattice",
        why="dsub and hat on few parents with large sub-d-locale lattices; the join/meet tables dominate",
        specs=_LATTICE_SPECS,
        jobs=_each(("dsub", "hat"), _LATTICE_SPECS)
        + (("dsub", doc_name("min:bool:2:chain:5"), "--json"),),
        warmup=_each(("dsub", "hat"), (_THREE_THREE,)),
        tail=0.9,   # 7-12 passes: 105-180 samples
    ),
    Workload(
        name="large-carrier",
        why="check, classify and hat on 30-40 element carriers; order tables and loading dominate, no enumeration",
        specs=_LARGE_SPECS + ("min:chain:13:chain:13",),
        jobs=_each(("check", "classify", "hat"), _LARGE_SPECS),
        warmup=_each(("check", "classify", "hat"), ("min:chain:13:chain:13",)),
        tail=0.75,  # 6-10 passes: 54-90 samples
    ),
    Workload(
        name="miner",
        why="mine --max-frame 4: searches 136 d-frames; relation enumeration and thousands of tiny admissions",
        jobs=(("mine", "--max-frame", "4"),),
        warmup=(("mine", "--max-frame", "3"),),
    ),
)}


def write_documents(workload: Workload, directory: str) -> None:
    """Generate and write every input document of a workload."""
    from dframes import documents

    os.makedirs(directory, exist_ok=True)
    for spec in workload.specs:
        text = documents.dumps(documents.dframe_from_spec(spec))
        with open(os.path.join(directory, doc_name(spec)), "w", encoding="utf-8") as fh:
            fh.write(text)


# -- correctness -------------------------------------------------------------------


def job_key(argv) -> str:
    return " ".join(argv)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_expected(path: str = EXPECTED_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# Facts asserted independently of the recorded digests.
_FACTS = {
    "dsub " + doc_name("min:chain:3:chain:3"): (r"\[pass\] member count :: 10 members\n",),
    "dsub " + doc_name("min:chain:5:chain:5"): (r"\[pass\] member count :: 226 members\n",),
    # The documented criterion-5 outcome: 3.3's dense core is o(c).o(c).
    "hat " + doc_name("min:chain:3:chain:3"): (r"\n  label: o\(c\)\.o\(c\)\n",),
    "mine --max-frame 4": (r"\n  searched 136 valid d-frames\n",),
}


def fact_failures(argv, stdout: str) -> list[str]:
    """Independent facts the report of this job violates."""
    bad = [pattern for pattern in _FACTS.get(job_key(argv), ())
           if not re.search(pattern, stdout)]
    if argv[0] == "props":
        verdicts = re.findall(r"^\[(\w+)\] ", stdout, flags=re.M)
        if not verdicts or any(v != "pass" for v in verdicts) or "\nresult: ok\n" not in stdout:
            bad.append("every props verdict passes")
    return bad


def job_failures(argv, exit_code: int, stdout: str, expected: dict) -> list[str]:
    """Why this job's result is wrong; empty when it is right."""
    want = expected.get(job_key(argv))
    if want is None:
        return ["no recorded result"]
    bad = []
    if exit_code != want["exit"]:
        bad.append(f"exit {exit_code}, expected {want['exit']}")
    if digest(stdout) != want["sha256"]:
        bad.append("report digest differs")
    return bad + fact_failures(argv, stdout)
