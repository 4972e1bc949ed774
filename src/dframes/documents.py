"""JSON documents describing d-frames, and the generator spec parser.

Document shape:

    {"name": str,
     "minus": {"elements": [ids], "covers": [[lo, hi], ...] | "leq": [[a, b], ...]},
     "plus":  {...},
     "con": [[plus_id, minus_id], ...],
     "tot": [[minus_id, plus_id], ...]}

Relation lists are generators by default: the loader closes them under the
nullary pairs, lower/upper sets and the binary combination laws before
validation.  Strict mode validates the literal sets instead.
"""

from __future__ import annotations

import json

import numpy as np

from .dframe import (DFrame, close_con_generators, close_tot_generators, minimal_dframe,
                     symmetric_dframe)
from .errors import ParseError, SizeGuardExceeded, UnknownSpec
from .frames import Frame
from .order import Lattice

# Validation, the generator closure and the density kernels take about n^3
# steps on the larger carrier of n elements, so carriers stop at 256.
MAX_CARRIER = 256


def _carrier_guard(n: int, what: str) -> None:
    """Refuse a carrier of n elements past MAX_CARRIER, before it is built."""
    if n > MAX_CARRIER:
        raise SizeGuardExceeded(
            f"{what} has more than {MAX_CARRIER} elements; the kernels take n^3 steps "
            f"and stop at {MAX_CARRIER}^3 = {MAX_CARRIER ** 3}")


def frame_to_block(frame: Frame) -> dict:
    covers = [
        [frame.elements[i], frame.elements[j]]
        for i, j in zip(*np.where(frame.covers))
    ]
    return {"name": frame.name, "elements": list(frame.elements), "covers": covers}


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{what} must be a list, got {type(value).__name__}")
    return value


def _pairs(value, what: str) -> list[tuple[str, str]]:
    """A list of two-element lists, as pairs of element ids."""
    out = []
    for k, pair in enumerate(_list(value, what)):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ParseError(f"{what}[{k}] is not a pair: {pair!r}")
        out.append((str(pair[0]), str(pair[1])))
    return out


def _parse_block(block, default_name: str):
    """Check a frame block and pass its carrier through the guard; returns
    the function that builds its frame."""
    if not isinstance(block, dict) or "elements" not in block:
        raise ParseError(f"frame block {default_name!r} needs an 'elements' list")
    elements = [str(e) for e in _list(block["elements"], f"{default_name} elements")]
    if len(set(elements)) != len(elements):
        dup = next(e for e in elements if elements.count(e) > 1)
        raise ParseError(f"frame block {default_name!r} repeats the element id {dup!r}")
    _carrier_guard(len(elements), f"frame block {default_name!r}")
    for key in ("covers", "leq"):
        if key in block:
            pairs = _pairs(block[key], f"{default_name} {key}")
            break
    else:
        raise ParseError(f"frame block {default_name!r} needs 'covers' or 'leq'")
    name = str(block.get("name", default_name))
    return lambda: Frame(Lattice.from_covers(elements, pairs), name=name)


def to_document(df: DFrame) -> dict:
    return {
        "name": df.name,
        "minus": frame_to_block(df.minus),
        "plus": frame_to_block(df.plus),
        "con": [[p, m] for p, m in df.con_pairs()],
        "tot": [[m, p] for m, p in df.tot_pairs()],
    }


def from_document(doc: dict, strict: bool = False) -> DFrame:
    """Build the (unvalidated) d-frame a document describes.

    Run validate() on the result; the loader only guarantees well-formed
    carriers and resolvable relation pairs.
    """
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    for key in ("minus", "plus"):
        if key not in doc:
            raise ParseError(f"document is missing the {key!r} frame block")
    builds = [_parse_block(doc[key], key) for key in ("minus", "plus")]  # both guarded first
    minus, plus = (build() for build in builds)

    con = np.zeros((plus.n, minus.n), dtype=bool)
    for p, m in _pairs(doc.get("con", []), "con"):
        con[plus.idx(p), minus.idx(m)] = True
    tot = np.zeros((minus.n, plus.n), dtype=bool)
    for m, p in _pairs(doc.get("tot", []), "tot"):
        tot[minus.idx(m), plus.idx(p)] = True

    if not strict:
        con = close_con_generators(minus, plus, con)
        tot = close_tot_generators(minus, plus, tot)
    return DFrame(minus, plus, con, tot, name=str(doc.get("name", "dframe")))


def loads(text: str, strict: bool = False) -> DFrame:
    if not text.strip():
        raise ParseError("empty document")
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # nesting past the recursion limit
        raise ParseError(f"invalid JSON: {exc}") from None
    return from_document(doc, strict=strict)


def load_path(path, strict: bool = False) -> DFrame:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    return loads(text, strict=strict)


def _fmt_pairs(pairs) -> str:
    inner = ", ".join("[" + ", ".join(json.dumps(x) for x in p) + "]" for p in pairs)
    return f"[{inner}]"


def dumps(df: DFrame) -> str:
    """Render a document with one block per line; pair lists stay inline so
    files remain diffable and hand-editable."""
    doc = to_document(df)

    def block(b):
        return ("{" + f'"name": {json.dumps(b["name"])}, '
                f'"elements": {json.dumps(b["elements"])}, '
                f'"covers": {_fmt_pairs(b["covers"])}' + "}")

    lines = [
        "{",
        f'  "name": {json.dumps(doc["name"])},',
        f'  "minus": {block(doc["minus"])},',
        f'  "plus": {block(doc["plus"])},',
        f'  "con": {_fmt_pairs(doc["con"])},',
        f'  "tot": {_fmt_pairs(doc["tot"])}',
        "}",
    ]
    return "\n".join(lines) + "\n"


# -- generator specs ------------------------------------------------------------


def _frame_from_spec(parts: list[str]):
    """The function that builds the frame the leading parts name, once the
    carrier passed the guard, and the parts after them."""
    if not parts:
        raise UnknownSpec("spec ended where a frame was expected")
    kind = parts[0]
    if kind == "chain":
        if len(parts) < 2 or not parts[1].isdecimal():
            raise UnknownSpec("chain needs a size, e.g. chain:3")
        size = int(parts[1])
        _carrier_guard(size, f"chain:{size}")
        return lambda: Frame.chain(size), parts[2:]
    if kind == "bool":
        if len(parts) < 2 or not parts[1].isdecimal():
            raise UnknownSpec("bool needs an atom count, e.g. bool:2")
        atoms = int(parts[1])
        _carrier_guard(2 ** min(atoms, 64), f"bool:{atoms}")  # capped: no huge int
        return lambda: Frame.boolean(atoms), parts[2:]
    raise UnknownSpec(f"unknown frame kind {kind!r} (expected chain or bool)")


def dframe_from_spec(spec: str) -> DFrame:
    """Build a d-frame from a spec string.

    Supported: ``min:<frame>:<frame>`` and ``sym:<frame>`` where a frame is
    ``chain:N`` or ``bool:N`` (N atoms).  Examples: ``min:chain:3:chain:3``
    is the d-frame called 3.3; ``sym:chain:3`` is the symmetric d-frame on
    the 3-chain.
    """
    parts = spec.strip().split(":")
    if not parts or parts == [""]:
        raise UnknownSpec("empty spec")
    head, rest = parts[0], parts[1:]
    if head == "sym":
        frame, rest = _frame_from_spec(rest)
        if rest:
            raise UnknownSpec(f"trailing spec parts {rest!r}")
        return symmetric_dframe(frame())
    if head == "min":
        minus, rest = _frame_from_spec(rest)
        plus, rest = _frame_from_spec(rest)
        if rest:
            raise UnknownSpec(f"trailing spec parts {rest!r}")
        return minimal_dframe(minus(), plus())
    raise UnknownSpec(f"unknown constructor {head!r} (expected min or sym)")
