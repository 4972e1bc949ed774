import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dframes import search
from dframes.cli import main as cli_main
from dframes.documents import loads
from dframes.fixtures import three_three
from dframes.frames import Frame


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
    code, _, _ = run_cli(["gen", "sym:bool:4", "-o", str(doc)])
    assert code == 0
    code, out, _ = run_cli(["hat", str(doc)])
    assert code == 0
    assert "skipped: enumeration exceeds the size guard" in out
    assert "[pass] core is dense" in out


def test_props_fails_on_invalid_document(run_cli, fixture_dir):
    code, out, _ = run_cli(["props", str(fixture_dir / "bad_contot.json")])
    assert code == 1
    assert "[FAIL] axioms" in out


@pytest.mark.parametrize("command", ["dsub", "hat", "classify"])
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


def test_mine_past_the_relation_cap_exits_2(run_cli, monkeypatch):
    # 6x6 chains leave 25 free con cells, past the 2^18 candidate cap
    monkeypatch.setattr(search, "frame_pool", lambda max_size: [Frame.chain(6)])
    code, out, err = run_cli(["mine", "--max-frame", "6"])
    assert code == 2 and out == ""
    assert err == "error: 2^25 candidate relations exceed the cap of 262144\n"


@pytest.mark.parametrize("limit", [[], ["--max-candidates", "1"]])
def test_mine_refuses_an_oversized_window_before_searching(run_cli, monkeypatch, limit):
    # only the last pair (6-chain x 6-chain) is past the cap; the 2-chain
    # pairs before it would be searched if the guard waited for the loop,
    # and the first of them alone would pass --max-candidates 1
    monkeypatch.setattr(search, "frame_pool",
                        lambda max_size: [Frame.chain(2), Frame.chain(6)])
    calls = []
    monkeypatch.setattr(search, "check_dframe", lambda df: calls.append(df))
    code, out, err = run_cli(["mine", "--max-frame", "6", *limit])
    assert code == 2 and out == ""
    assert err == "error: 2^25 candidate relations exceed the cap of 262144\n"
    assert calls == []


C2 = {"elements": ["0", "1"], "covers": [["0", "1"]]}


@pytest.mark.parametrize("doc, message", [
    ({"minus": {"elements": ["0", "1"], "covers": [["0", "1", "1"]]}, "plus": C2},
     "minus covers[0] is not a pair"),
    ({"minus": {"elements": 3, "covers": []}, "plus": C2}, "minus elements must be a list"),
    ({"minus": C2, "plus": C2, "con": 7}, "con must be a list"),
    ({"minus": {"elements": ["0", "1", "0"], "covers": [["0", "1"]]}, "plus": C2},
     "repeats the element id '0'"),
], ids=["cover-not-a-pair", "elements-not-a-list", "con-not-a-list", "duplicate-ids"])
def test_check_malformed_document_exits_2(run_cli, tmp_path, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
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
