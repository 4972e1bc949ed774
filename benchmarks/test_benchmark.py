"""Self-tests for the benchmark.  Run from the root of the checkout:

    python3 -m pytest benchmarks

They take about half a minute: two of them run the benchmark briefly on the
dsub-lattice workload.
"""

from __future__ import annotations

import io
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

import layers
import run
import workloads
import worker
from tracer import Tracer, outermost, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

MAIN = worker.import_dframes(os.path.join(ROOT, "src"))


def _definition():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_definition_matches_the_code():
    spec = _definition()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_every_metric_is_printed_with_its_unit_and_counters_repeat():
    spec = _definition()
    common = ["--workload", "dsub-lattice", "--seed", "3", "--seconds", "1"]
    plain = _result(_bench(*common, "--trace", "0"))
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 15
    assert {k: v["unit"] for k, v in plain["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert all(v["value"] > 0 for v in plain["metrics"].values())

    traced = [_result(_bench(*common, "--trace", "1")) for _ in range(2)]
    for result in traced:
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in spec["per_layer"]}
    counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
              for r in traced]
    assert counts[0] == counts[1]
    assert counts[0]["subdlocale.members"] > 226


def test_run_outside_a_checkout_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "miner", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture
def docs(tmp_path):
    workloads.write_documents(workloads.WORKLOADS["dsub-lattice"], str(tmp_path))
    home = os.getcwd()
    os.chdir(tmp_path)
    yield tmp_path
    os.chdir(home)


def test_injected_wrong_digest_counts_as_a_failure(docs):
    expected = workloads.load_expected()
    jobs = [["dsub", workloads.doc_name("min:chain:3:chain:3")],
            ["hat", workloads.doc_name("min:chain:3:chain:3")]]
    assert worker.closed_loop(MAIN, jobs, 0, expected)[0]["failures"] == []

    key = workloads.job_key(jobs[1])
    tampered = dict(expected, **{key: dict(expected[key], sha256="0" * 64)})
    failures = worker.closed_loop(MAIN, jobs, 0, tampered)[0]["failures"]
    assert failures == [f"{key}: report digest differs"]


def test_independent_facts_are_checked():
    key = "dsub " + workloads.doc_name("min:chain:5:chain:5")
    assert workloads.fact_failures(key.split(), "[pass] member count :: 225 members\n")
    assert workloads.fact_failures(["props", "corpus"], "[pass] a\n[FAIL] b\nresult: failure\n")


def test_same_seed_same_inputs_and_digests(docs, tmp_path_factory):
    workload = workloads.WORKLOADS["dsub-lattice"]
    assert workload.job_list(5) == workload.job_list(5)
    again = tmp_path_factory.mktemp("again")
    workloads.write_documents(workload, str(again))
    for spec in workload.specs:
        name = workloads.doc_name(spec)
        assert (docs / name).read_bytes() == (again / name).read_bytes()
    jobs = [["dsub", workloads.doc_name(spec)] for spec in workload.specs[:2]]
    digests = [[workloads.digest(text) for _, _, text in worker.run_job_list(MAIN, jobs)[-1]]
               for _ in range(2)]
    assert digests[0] == digests[1]


def test_different_seed_changes_the_corpus_sweep_corpus():
    from dframes import documents
    from dframes.search import frame_pool, random_dframe

    sweep = workloads.WORKLOADS["corpus-sweep"]
    assert sweep.job_list(1) != sweep.job_list(2)
    # props draws its extra d-frames this way from its --seed
    pool = frame_pool(4)
    corpora = [[documents.dumps(random_dframe(random.Random(int(s)), pool=pool))
                for _ in range(6)]
               for s in (sweep.job_list(1)[0][3], sweep.job_list(2)[0][3])]
    assert corpora[0] != corpora[1]
    expected = workloads.load_expected()
    assert (expected[workloads.job_key(sweep.job_list(1)[0])]
            != expected[workloads.job_key(sweep.job_list(2)[0])])


def test_self_time_on_a_synthetic_span_tree():
    #   root [0, 100]
    #     a [10, 40]        b [50, 70]      c [35, 60] overlaps a and b
    #       a1 [15, 25]
    spans = [
        ["cli.root", 0, 100, -1, 0],
        ["order.a", 10, 40, 0, 0],
        ["frames.a1", 15, 25, 1, 0],
        ["order.b", 50, 70, 0, 0],
        ["dframe.c", 35, 60, 0, 0],
    ]
    # root's children cover [10, 70]; a's child covers 10 of its 30
    assert self_times(spans) == [40, 20, 10, 20, 25]

    nested = [["x.f", 0, 10, -1, 0], ["y.g", 1, 9, 0, 0], ["x.f", 2, 8, 1, 0]]
    assert outermost(nested) == [True, True, False]
    incl, layer_self, wall = layers.Analysis(nested).job_list(0, 3)
    assert wall == 10 and incl == {"y.g": 8}
    assert layer_self == {"x": 2 + 6, "y": 2}


def test_tracer_wraps_every_binding_and_restores_them():
    import dframes.search
    import dframes.subdlocale
    import dframes.sweeps

    original = dframes.subdlocale.build_sub_d_locale
    tracer = Tracer()
    layers.install(tracer)
    try:
        for module in (dframes.subdlocale, dframes.sweeps, dframes.search):
            assert module.build_sub_d_locale is not original
        out = io.StringIO()
        assert tracer.call("cli.mine", MAIN, ["mine", "--max-frame", "2"], stdout=out) == 0
    finally:
        tracer.uninstall()
    for module in (dframes.subdlocale, dframes.sweeps, dframes.search):
        assert module.build_sub_d_locale is original
    assert tracer.counts["search.dframes_searched"] > 0
    assert tracer.counts["subdlocale.pairs_examined"] > 0
    assert all(end >= start for _, start, end, _, _ in tracer.spans)
