"""Answers must not depend on the order in which a document lists its elements.

Each input is written as a document with both element lists (and its pair
lists) shuffled, loaded literally, and compared with the original on every
order-independent answer the library gives.  Kernels that pick an element by
position, such as a bound or implication table that takes the first upper
bound, agree with the correct answer when elements come in a linear
extension, and are caught here once they do not.
"""

import json
import random
from itertools import product
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from dframes.density import classify, dense_core, galois_check
from dframes.documents import load_path, loads, to_document
from dframes.fixtures import double_negation_without_excluded_middle, incorrigible_minimal
from dframes.frames import Frame, enumerate_sublocales
from dframes.order import Lattice
from dframes.search import (
    enumerate_con_relations,
    enumerate_dframes,
    enumerate_tot_relations,
    frame_pool,
    random_dframe,
    standard_corpus,
)
from dframes.subdlocale import enumerate_sub_d_locales
from oracles import are_isomorphic

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"
SHUFFLES = 3


def _inputs():
    pool = frame_pool(4)
    fixtures = [load_path(path, strict=True) for path in sorted(FIXTURE_DIR.glob("*.json"))]
    return (standard_corpus(4) + fixtures
            + [double_negation_without_excluded_middle(), incorrigible_minimal()]
            + [random_dframe(random.Random(seed), pool=pool) for seed in range(60)])


INPUTS = _inputs()


def answers(df) -> dict:
    """Everything the library decides about df that no element order can change."""
    report = df.validate()
    out = {"axioms": [(check.name, check.ok) for check in report.checks]}
    if not report.ok:
        return out
    ds = enumerate_sub_d_locales(df)
    core = dense_core(df).core
    out.update(
        classify=classify(df).as_dict(),
        lattice=(ds.n, ds.is_distributive, ds.is_modular),
        core=(len(core.minus.members), len(core.plus.members)),
        sublocales=(len(enumerate_sublocales(df.minus)), len(enumerate_sublocales(df.plus))),
        primes=(len(df.minus.primes), len(df.plus.primes)),
        galois=galois_check(df).ok,
    )
    return out


def relabelled(df, order_minus, order_plus, rng=None):
    """df written as a document listing its elements in the given orders, and
    its pair lists shuffled by rng if one is given, then loaded literally."""
    doc = to_document(df)
    doc["minus"]["elements"], doc["plus"]["elements"] = list(order_minus), list(order_plus)
    if rng is not None:
        for pairs in (doc["minus"]["covers"], doc["plus"]["covers"], doc["con"], doc["tot"]):
            rng.shuffle(pairs)
    return loads(json.dumps(doc), strict=True)


def assert_same_answers(df, other):
    assert answers(other) == answers(df), df.name
    if df.validate().ok:
        assert are_isomorphic(df, other), df.name


def test_inputs_cover_valid_and_invalid_dframes():
    verdicts = {df.validate().ok for df in INPUTS}
    assert verdicts == {True, False}
    assert len(INPUTS) > 80


def test_answers_do_not_depend_on_element_order():
    rng = random.Random(11)
    moved = 0
    for df in INPUTS:
        for _ in range(SHUFFLES):
            order_minus, order_plus = list(df.minus.elements), list(df.plus.elements)
            rng.shuffle(order_minus)
            rng.shuffle(order_plus)
            other = relabelled(df, order_minus, order_plus, rng)
            moved += (other.minus.elements, other.plus.elements) != (
                df.minus.elements, df.plus.elements)
            assert_same_answers(df, other)
    assert moved > len(INPUTS)


@st.composite
def relabellings(draw):
    """An input d-frame with a permutation of each element list."""
    df = draw(st.sampled_from(INPUTS))
    return (df, draw(st.permutations(df.minus.elements)),
            draw(st.permutations(df.plus.elements)))


@settings(max_examples=40, deadline=None)
@given(case=relabellings())
def test_answers_do_not_depend_on_any_permutation(case):
    df, order_minus, order_plus = case
    assert_same_answers(df, relabelled(df, order_minus, order_plus))



def _permuted(frame, perm):
    """frame with old element perm[i] listed i-th."""
    return Frame(Lattice(frame.names(perm), frame.leq[np.ix_(perm, perm)]), name=frame.name)


def _listed(rels, rows=slice(None), cols=slice(None)):
    """The relations, each restricted to rows x cols, as a sorted list of keys."""
    return sorted(rel[rows][:, cols].tobytes() for rel in rels)


def test_miner_enumeration_does_not_depend_on_element_order():
    """The con maps backtrack over a linear extension of the irreducibles;
    frame_pool lists elements in one, so only a relabelling shows whether
    the enumeration depends on it."""
    rng = random.Random(14)
    pool = frame_pool(4)
    pairs = [(m, p) for m, p in product(pool, pool) if m.is_trivial == p.is_trivial]
    for (minus, plus), _ in product(pairs, range(SHUFFLES)):
        pm, pp = rng.sample(range(minus.n), minus.n), rng.sample(range(plus.n), plus.n)
        other_minus, other_plus = _permuted(minus, pm), _permuted(plus, pp)

        assert _listed(enumerate_con_relations(other_minus, other_plus)) == _listed(
            enumerate_con_relations(minus, plus), pp, pm)
        assert _listed(enumerate_tot_relations(other_minus, other_plus)) == _listed(
            enumerate_tot_relations(minus, plus), pm, pp)
        want = sorted((df.con[np.ix_(pp, pm)].tobytes(), df.tot[np.ix_(pm, pp)].tobytes())
                      for df in enumerate_dframes(minus, plus))
        got = sorted((df.con.tobytes(), df.tot.tobytes())
                     for df in enumerate_dframes(other_minus, other_plus))
        assert got == want, (minus.name, plus.name, pm, pp)
