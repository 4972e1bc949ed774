import json

import pytest

from dframes.documents import (
    dframe_from_spec,
    dumps,
    from_document,
    load_path,
    loads,
    to_document,
)
from dframes.errors import ParseError, UnknownElement, UnknownSpec
from dframes.fixtures import three_three


def test_round_trip_preserves_structure():
    tt = three_three()
    again = loads(dumps(tt), strict=True)
    assert again.name == tt.name
    assert again.minus.elements == tt.minus.elements
    assert again.plus.elements == tt.plus.elements
    assert (again.con == tt.con).all() and (again.tot == tt.tot).all()
    assert again.validate().ok


def test_spec_strings():
    tt = dframe_from_spec("min:chain:3:chain:3")
    assert tt.minus.name == "3" and tt.validate().ok
    sym = dframe_from_spec("sym:bool:2")
    assert sym.minus.n == 4 and sym.validate().ok
    assert dframe_from_spec("sym:chain:1").is_trivial


@pytest.mark.parametrize("bad", [
    "", "sym", "min:chain:3", "foo:chain:2", "sym:chain", "sym:chain:x",
    "sym:chain:2:junk", "min:chain:2:chain:2:extra",
    "sym:chain:²", "sym:bool:²", "min:chain:²:chain:3",
])
def test_unknown_specs(bad):
    with pytest.raises(UnknownSpec):
        dframe_from_spec(bad)


def test_generator_closure_completes_sparse_documents():
    doc = {
        "name": "sparse",
        "minus": {"elements": ["0", "c", "1"], "covers": [["0", "c"], ["c", "1"]]},
        "plus": {"elements": ["0", "1"], "covers": [["0", "1"]]},
        "con": [],
        "tot": [],
    }
    df = from_document(doc)
    assert df.validate().ok
    # nullary pairs appear even though the lists were empty
    assert ("0", "1") in df.con_pairs() and ("1", "0") in df.con_pairs()


def test_strict_mode_reports_missing_closure():
    doc = {
        "name": "sparse",
        "minus": {"elements": ["0", "1"], "covers": [["0", "1"]]},
        "plus": {"elements": ["0", "1"], "covers": [["0", "1"]]},
        "con": [["0", "0"]],
        "tot": [["1", "1"]],
    }
    df = from_document(doc, strict=True)
    report = df.validate()
    assert not report.ok


def test_parse_errors():
    with pytest.raises(ParseError):
        loads("")
    with pytest.raises(ParseError):
        loads("{not json")
    with pytest.raises(ParseError):
        loads(json.dumps({"minus": {"elements": ["0"]}}))
    with pytest.raises(ParseError):
        loads(json.dumps({
            "minus": {"elements": ["0"], "covers": []},
            "plus": {"elements": ["0"], "covers": []},
            "con": [["0"]],
        }))
    with pytest.raises(ParseError):
        load_path("/nonexistent/file.json")


def test_unknown_element_reference():
    doc = {
        "minus": {"elements": ["0", "1"], "covers": [["0", "1"]]},
        "plus": {"elements": ["0", "1"], "covers": [["0", "1"]]},
        "con": [["0", "zz"]],
        "tot": [],
    }
    with pytest.raises(UnknownElement):
        from_document(doc)


def test_leq_pairs_accepted_in_place_of_covers():
    doc = {
        "minus": {"elements": ["0", "c", "1"],
                  "leq": [["0", "c"], ["c", "1"], ["0", "1"]]},
        "plus": {"elements": ["0", "1"], "leq": [["0", "1"]]},
        "con": [],
        "tot": [],
    }
    df = from_document(doc)
    assert df.minus.n == 3 and df.validate().ok


def test_document_shape():
    doc = to_document(three_three())
    assert set(doc) == {"name", "minus", "plus", "con", "tot"}
    assert all(len(pair) == 2 for pair in doc["con"] + doc["tot"])
