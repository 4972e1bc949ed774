import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dframes import cli, search
from dframes.cli import main as cli_main
from dframes.documents import loads
from dframes.fixtures import three_three
from dframes.frames import Frame
from dframes.order import Lattice


def test_check_valid_document(run_cli, fixture_dir):
    code, out, err = run_cli(["check", str(fixture_dir / "sym3.json")])
    assert code == 0
    assert "result: ok" in out
    assert out.count("[pass]") == 9


def test_check_invalid_document(run_cli, fixture_dir):
    code, out, _ = run_cli(["check", str(fixture_dir / "bad_contot.json"), "--strict"])
    assert code == 1
    assert "[FAIL] con-tot" in out


def test_check_missing_and_empty_files(run_cli, tmp_path):
    code, _, err = run_cli(["check", str(tmp_path / "absent.json")])
    assert code == 2 and "error" in err
    empty = tmp_path / "empty.json"
    empty.write_text("")
    code, _, err = run_cli(["check", str(empty)])
    assert code == 2 and "error" in err


def test_gen_round_trips_through_the_loader(run_cli):
    code, out, _ = run_cli(["gen", "min:chain:3:chain:3"])
    assert code == 0
    loaded = loads(out, strict=True)
    tt = three_three()
    assert loaded.minus.elements == tt.minus.elements
    assert (loaded.con == tt.con).all() and (loaded.tot == tt.tot).all()
    assert loaded.minus.name == "3"


def test_gen_unknown_spec(run_cli):
    code, _, err = run_cli(["gen", "pow:chain:9"])
    assert code == 2 and "error" in err


def test_gen_writes_to_file(run_cli, tmp_path):
    target = tmp_path / "sym2.json"
    code, out, _ = run_cli(["gen", "sym:chain:2", "-o", str(target)])
    assert code == 0 and out == ""
    loaded = loads(target.read_text(), strict=True)
    assert loaded.validate().ok and loaded.minus.n == 2


def test_dsub_members_and_dot(run_cli, fixture_dir, tmp_path):
    dot_path = tmp_path / "out.dot"
    code, out, _ = run_cli(["dsub", str(fixture_dir / "three_three.json"),
                            "--dot", str(dot_path)])
    assert code == 0
    assert "10 members" in out
    assert "c(c).o(c)" in out
    dot = dot_path.read_text()
    assert dot.count("label=") == 10 and dot.count("->") == 16


def test_dsub_size_guard(run_cli, fixture_dir):
    code, _, err = run_cli(["dsub", str(fixture_dir / "three_three.json"),
                            "--max-pairs", "3"])
    assert code == 2 and "error" in err


@pytest.mark.parametrize("command", ["check", "classify"])
def test_commands_that_never_enumerate_take_no_size_guard(run_cli, fixture_dir, command):
    code, out, _ = run_cli([command, str(fixture_dir / "three_three.json"),
                            "--max-pairs", "3"])
    assert code == 2 and out == ""


def test_dsub_json_mode(run_cli, fixture_dir):
    code, out, _ = run_cli(["dsub", str(fixture_dir / "three_three.json"), "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["command"] == "dsub"


def test_hat_reports_core_carriers(run_cli, fixture_dir):
    code, out, _ = run_cli(["hat", str(fixture_dir / "sym3.json")])
    assert code == 0
    assert "minus: {0, 1}" in out
    assert "[pass] core below every dense sub-d-locale" in out


def test_classify_exit_codes(run_cli, fixture_dir):
    code, out, _ = run_cli(["classify", str(fixture_dir / "three_three.json")])
    assert code == 0
    assert "corrigible" in out


def test_props_on_single_document(run_cli, fixture_dir):
    code, out, _ = run_cli(["props", str(fixture_dir / "sym3.json")])
    assert code == 0
    assert "[pass] property suites" in out
    assert "[pass] componentwise-dense counterexample :: witness ('bc', 'ab')" in out


def test_props_small_corpus_with_seed(run_cli):
    code, out, _ = run_cli(["props", "corpus", "--corpus-size", "3", "--seed", "5"])
    assert code == 0
    assert "property suites" in out


def test_mine_command(run_cli):
    code, out, _ = run_cli(["mine", "--max-frame", "3"])
    assert code == 0
    assert "searched 8 valid d-frames" in out


def test_mine_json_is_deterministic(run_cli):
    args = ["mine", "--max-frame", "3", "--json"]
    first, second = run_cli(args), run_cli(args)
    assert first == second
    assert json.loads(first[1])["ok"] is True


def test_hat_skips_minimality_beyond_the_guard(run_cli, tmp_path):
    doc = tmp_path / "big.json"
    # 2^(5+5) = 1,024 sublocale pairs, past the default guard of 400
    code, _, _ = run_cli(["gen", "sym:bool:5", "-o", str(doc)])
    assert code == 0
    code, out, _ = run_cli(["hat", str(doc)])
    assert code == 0
    assert "skipped: enumeration exceeds the size guard" in out
    assert "[pass] core is dense" in out


@pytest.mark.parametrize("spec, members", [("sym:bool:4", 16), ("min:bool:4:chain:5", 226)])
def test_sixteen_element_carriers_pass_the_default_guard(run_cli, tmp_path, spec, members):
    # B16 has 16 elements but 4 primes: 2^(4+4) = 256 sublocale pairs
    doc = tmp_path / "doc.json"
    assert run_cli(["gen", spec, "-o", str(doc)])[0] == 0
    code, out, _ = run_cli(["dsub", str(doc)])
    assert code == 0 and f"[pass] member count :: {members} members" in out
    code, out, _ = run_cli(["hat", str(doc)])
    assert code == 0 and "[pass] core below every dense sub-d-locale" in out
    code, out, _ = run_cli(["props", str(doc)])
    assert code == 0 and "[pass] property suites" in out
    assert "sub-d-locale sweep skipped" not in out


@pytest.mark.parametrize("command", ["dsub", "hat", "props"])
def test_max_frame_is_not_a_guard_option(run_cli, fixture_dir, command):
    code, out, _ = run_cli([command, str(fixture_dir / "three_three.json"),
                            "--max-frame", "12"])
    assert code == 2 and out == ""


@pytest.mark.parametrize("command", ["dsub", "hat", "classify", "props"])
def test_commands_fail_cleanly_on_invalid_dframes(run_cli, fixture_dir, command):
    code, out, _ = run_cli([command, str(fixture_dir / "bad_contot.json"), "--strict"])
    assert code == 1
    assert "[FAIL] axioms" in out


def test_check_rejects_non_frame_carrier(run_cli, tmp_path):
    doc = tmp_path / "m3.json"
    doc.write_text(json.dumps({
        "minus": {"elements": ["0", "x", "y", "z", "1"],
                  "covers": [["0", "x"], ["0", "y"], ["0", "z"],
                             ["x", "1"], ["y", "1"], ["z", "1"]]},
        "plus": {"elements": ["0", "1"], "covers": [["0", "1"]]},
        "con": [], "tot": [],
    }))
    code, _, err = run_cli(["check", str(doc)])
    assert code == 2 and "distributive" in err


def test_dsub_is_byte_deterministic(run_cli, fixture_dir):
    args = ["dsub", str(fixture_dir / "three_three.json")]
    first = run_cli(args)
    second = run_cli(args)
    assert first == second


def test_props_is_byte_deterministic(run_cli):
    args = ["props", "corpus", "--corpus-size", "3", "--seed", "9"]
    assert run_cli(args) == run_cli(args)


def test_usage_error_exit_code(run_cli, capsys):
    code, _, _ = run_cli(["no-such-command"])
    assert code == 2


def test_main_builds_one_parser_per_process(run_cli, fixture_dir, monkeypatch):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        assert run_cli(["check", str(fixture_dir / "sym3.json")])[0] == 0
        assert run_cli(["check", "--max-frame", "many", "x.json"])[0] == 2
        assert run_cli(["check", str(fixture_dir / "sym3.json")])[0] == 0
    finally:
        cli._parser.cache_clear()
    assert built == [1]


def test_mine_past_the_relation_cap_exits_2(run_cli, monkeypatch):
    # 8x8 chains: 3,432 con maps x 3,432 tot maps, past the 2^18 candidate cap
    monkeypatch.setattr(search, "frame_pool", lambda max_size: [Frame.chain(8)])
    code, out, err = run_cli(["mine", "--max-frame", "8"])
    assert code == 2 and out == ""
    assert err == ("error: 3432 x 3432 = 11778624 con x tot candidates "
                   "exceed the cap of 262144\n")


@pytest.mark.parametrize("args", [["mine", "--max-frame", "8"],
                                  ["props", "corpus", "--corpus-size", "8"],
                                  ["mine", "--max-frame", "9"],
                                  ["props", "corpus", "--corpus-size", "9"]])
def test_a_frame_pool_past_seven_elements_exits_2(run_cli, monkeypatch, args):
    def refuse(*args, **kwargs):
        raise AssertionError("a poset or a lattice was built")

    monkeypatch.setattr(search, "_least_labelling", refuse)
    monkeypatch.setattr(Lattice, "__init__", refuse)
    code, out, err = run_cli(args)
    assert code == 2 and out == ""
    assert err == f"error: frames of {args[-1]} elements exceed the pool guard of 7\n"


def test_mine_over_the_seven_element_pool_exits_2_at_the_candidate_cap(run_cli):
    # the pool of 7 is built, and a pair of its frames passes the candidate cap
    code, out, err = run_cli(["mine", "--max-frame", "7"])
    assert code == 2 and out == ""
    assert err == ("error: 532 x 532 = 283024 con x tot candidates "
                   "exceed the cap of 262144\n")


def test_mine_searches_a_six_chain_pair_under_the_cap(run_cli, monkeypatch):
    # 252 x 252 = 63,504 candidates pass the cap
    monkeypatch.setattr(search, "frame_pool", lambda max_size: [Frame.chain(6)])
    code, out, _ = run_cli(["mine", "--max-frame", "6", "--max-candidates", "5"])
    assert code == 0 and "searched 5 valid d-frames" in out


@pytest.mark.parametrize("limit", [[], ["--max-candidates", "1"]])
def test_mine_refuses_an_oversized_window_before_searching(run_cli, monkeypatch, limit):
    # only the last pair (8-chain x 8-chain) is past the cap; the 2-chain
    # pairs before it would be searched if the guard waited for the loop,
    # and the first of them alone would pass --max-candidates 1
    monkeypatch.setattr(search, "frame_pool",
                        lambda max_size: [Frame.chain(2), Frame.chain(8)])
    calls = []
    verdicts = search._verdicts
    monkeypatch.setattr(search, "_verdicts",
                        lambda *args: calls.append(args) or verdicts(*args))
    code, out, err = run_cli(["mine", "--max-frame", "8", *limit])
    assert code == 2 and out == ""
    assert err == ("error: 3432 x 3432 = 11778624 con x tot candidates "
                   "exceed the cap of 262144\n")
    assert calls == []


def test_mine_reaches_window_five(run_cli):
    # the report recorded from the mask enumerator; no timing is asserted
    code, out, _ = run_cli(["mine", "--max-frame", "5"])
    assert code == 0 and "searched 2270 valid d-frames" in out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "04ec7900c07fe3f41f701933ce98f71ddb933e4da5632cec6d9ebab819fd7a24")


C2 = {"elements": ["0", "1"], "covers": [["0", "1"]]}


@pytest.mark.parametrize("doc, message", [
    ({"minus": {"elements": ["0", "1"], "covers": [["0", "1", "1"]]}, "plus": C2},
     "minus covers[0] is not a pair"),
    ({"minus": {"elements": 3, "covers": []}, "plus": C2}, "minus elements must be a list"),
    ({"minus": C2, "plus": C2, "con": 7}, "con must be a list"),
    ({"minus": {"elements": ["0", "1", "0"], "covers": [["0", "1"]]}, "plus": C2},
     "repeats the element id '0'"),
    (b'\xff\xfe{"minus": {}}', "'utf-8' codec can't decode byte 0xff"),
    (b"[" * 200000, "invalid JSON: maximum recursion depth exceeded"),
], ids=["cover-not-a-pair", "elements-not-a-list", "con-not-a-list", "duplicate-ids",
        "not-utf-8", "nested-past-the-recursion-limit"])
def test_check_malformed_document_exits_2(run_cli, tmp_path, doc, message):
    path = tmp_path / "doc.json"
    path.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
    code, out, err = run_cli(["check", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


_ids = st.sampled_from(["0", "1", "a", "b", 0, 1])
_json = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | _ids,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6,
)
_pairs = st.lists(st.lists(_ids, min_size=2, max_size=2), max_size=4)
# Chains always carry a frame, so documents built on them reach validation.
_chains = st.lists(st.sampled_from(["0", "a", "b", "1"]), unique=True, min_size=1,
                   max_size=4).map(lambda e: {"elements": e,
                                              "covers": [list(c) for c in zip(e, e[1:])]})


def _mostly(good, bad):
    """Draw `good` three times in four, so most documents get past the shape checks."""
    return st.integers(0, 3).flatmap(lambda k: bad if k == 0 else good)


_blocks = _mostly(_chains, st.fixed_dictionaries(
    {"elements": st.lists(_ids, max_size=4) | _json},
    optional={"covers": _pairs | _json, "leq": _pairs, "name": _json},
) | _json)
_relations = _mostly(_pairs, st.lists(_json, max_size=3) | _json)
_documents = _mostly(st.fixed_dictionaries(
    {"minus": _blocks, "plus": _blocks},
    optional={"con": _relations, "tot": _relations, "name": _json},
), _json)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=_documents)
def test_check_exits_cleanly_on_any_json_document(doc):
    """Only DFramesErrors may escape the loader, so `check` exits 0, 1 or 2."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        for strict in ([], ["--strict"]):
            code = cli_main(["check", str(path), *strict], stdout=io.StringIO(),
                            stderr=io.StringIO())
            assert code in (0, 1, 2)


# -- 256-element carriers and the carrier guard -----------------------------------

# sha256 of each report on `dframes gen sym:bool:8 -o b256.json`, recorded
# from the n^4 preorder, the pairwise scans and the int64 products
REACH_256 = {
    "check": "48a118778dca320f496151de4656ea6535fe41755de110bbdfa6a99d1d8c7be6",
    "classify": "09daa8e50e37188a98b6ffbf114e0a1626f838d2d6d9ae3a8fc781dc6704baba",
    "hat": "dfdd9cd65a3bbd4135a5b385b66128d4d3c5bc14a709b6bbf4219c65916b32e7",
}


def test_check_classify_and_hat_reach_256_element_carriers(run_cli, tmp_path, monkeypatch):
    # the reports name the document's path, so it is the recorded one; no
    # timing is asserted
    monkeypatch.chdir(tmp_path)
    assert run_cli(["gen", "sym:bool:8", "-o", "b256.json"])[0] == 0
    for command, digest in REACH_256.items():
        code, out, _ = run_cli([command, "b256.json"])
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest, command


def _count_lattices(monkeypatch):
    built = []
    init = Lattice.__init__
    monkeypatch.setattr(Lattice, "__init__", lambda self, *a: built.append(a) or init(self, *a))
    return built


@pytest.mark.parametrize("spec, message", [
    ("sym:bool:9", "bool:9 has more than 256 elements"),
    ("min:chain:3:chain:300", "chain:300 has more than 256 elements"),
    ("sym:bool:4000", "bool:4000 has more than 256 elements"),
])
def test_gen_refuses_a_carrier_past_the_guard_before_building(run_cli, monkeypatch, spec,
                                                             message):
    built = _count_lattices(monkeypatch)
    code, out, err = run_cli(["gen", spec])
    assert code == 2 and out == ""
    assert err == f"error: {message}; the kernels take n^3 steps and stop at 256^3 = 16777216\n"
    assert built == []


def test_check_refuses_a_document_past_the_guard_before_building(run_cli, monkeypatch, tmp_path):
    elements = [f"x{k}" for k in range(300)]
    chain = {"elements": elements, "covers": [list(c) for c in zip(elements, elements[1:])]}
    path = tmp_path / "chain300.json"
    path.write_text(json.dumps({"minus": C2, "plus": chain}))
    built = _count_lattices(monkeypatch)
    code, out, err = run_cli(["check", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error: frame block 'plus' has more than 256 elements")
    assert built == []


@pytest.mark.parametrize("args", [["props", "corpus", "--max-pairs", "0"],
                                  ["props", "corpus", "--corpus-size", "-3"],
                                  ["mine", "--max-candidates", "-5"],
                                  ["mine", "--max-candidates", "0"],
                                  ["mine", "--max-frame", "-1"],
                                  ["dsub", "doc.json", "--max-pairs", "-1"],
                                  ["hat", "doc.json", "--max-pairs", "0"]])
def test_non_positive_sizes_guards_and_caps_exit_2(run_cli, monkeypatch, capsys, args):
    # refused while the arguments are parsed, before any document is read
    # or any d-frame built
    def refuse(*args, **kwargs):
        raise AssertionError("the command ran")

    for name in ("full_sweep", "mine", "standard_corpus"):
        monkeypatch.setattr(cli, name, refuse)
    monkeypatch.setattr(cli.documents, "load_path", refuse)
    code, out, _ = run_cli(args)
    assert code == 2 and out == ""
    assert f"argument {args[-2]}: must be at least 1, got {args[-1]}" in capsys.readouterr().err
