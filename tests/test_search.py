import random
from itertools import product

import numpy as np
import pytest

from dframes.density import is_corrigible
from dframes.dframe import DFrame, check_dframe, close_con_generators, close_tot_generators
from dframes.errors import SizeGuardExceeded
from dframes.order import are_order_isomorphic
from dframes.search import (
    all_distributive_lattices,
    all_lattices,
    enumerate_con_relations,
    enumerate_dframes,
    enumerate_tot_relations,
    frame_pool,
    mine,
    partnerless_sublocales,
    random_dframe,
    standard_corpus,
)
from dframes.fixtures import three_three
from dframes.frames import Frame, enumerate_sublocales
from dframes.subdlocale import build_sub_d_locale


def test_lattice_counts_up_to_five():
    lats = all_lattices(5)
    by_size = {}
    for lat in lats:
        by_size[lat.n] = by_size.get(lat.n, 0) + 1
    assert by_size == {1: 1, 2: 1, 3: 1, 4: 2, 5: 5}
    assert len(all_distributive_lattices(5)) == 8


def test_lattices_pairwise_nonisomorphic():
    lats = all_lattices(5)
    for i, a in enumerate(lats):
        for b in lats[i + 1:]:
            if a.n == b.n:
                assert not are_order_isomorphic(a, b)


def test_corpus_members_are_valid():
    corpus = standard_corpus(4)
    assert all(df.validate().ok for df in corpus)
    names = [df.name for df in corpus]
    assert len(set(names)) == len(names)


def test_corpus_size():
    # 5 symmetric + 4x4 minimal pairs over nontrivial frames + trivial.trivial
    assert len(standard_corpus(4)) == 5 + 16 + 1


def test_random_dframe_is_deterministic_and_valid():
    pool = frame_pool(3)
    one = random_dframe(random.Random(11), pool=pool)
    two = random_dframe(random.Random(11), pool=pool)
    assert one.validate().ok
    assert (one.con == two.con).all() and (one.tot == two.tot).all()
    assert one.minus.elements == two.minus.elements


def test_relation_enumeration_on_two_chains():
    c2 = Frame.chain(2)
    cons = enumerate_con_relations(c2, c2)
    tots = enumerate_tot_relations(c2, c2)
    assert len(cons) == 2 and len(tots) == 2  # minimal and everything
    valid = list(enumerate_dframes(c2, c2))
    assert len(valid) == 1  # only the minimal pair survives con-tot


def test_all_chain_dframes_are_corrigible():
    """Every d-frame over chains of length at most three: the double maps
    are monotone self-maps of chains, hence meet-preserving."""
    report = mine(max_frame=3)
    assert report.incorrigible == []
    assert report.searched == 8


def test_miner_finds_double_negation_without_excluded_middle():
    report = mine(max_frame=3)
    assert len(report.double_negation_without_excluded_middle) == 1


def test_miner_is_deterministic():
    a, b = mine(max_frame=3), mine(max_frame=3)
    assert a.summary_lines() == b.summary_lines()


def test_miner_respects_candidate_cap():
    report = mine(max_frame=3, max_candidates=2)
    assert report.searched == 3  # stops right after crossing the cap


def test_partnerless_report_shape():
    found = partnerless_sublocales(three_three())
    assert found == []  # every sublocale of a minimal pair has a partner


def test_incorrigible_witness_found_at_size_four():
    pool = frame_pool(4)
    b4 = next(f for f in pool if f.n == 4 and not all(
        f.leq[i, j] or f.leq[j, i] for i in range(4) for j in range(4)))
    c2 = next(f for f in pool if f.n == 2)
    from dframes.dframe import minimal_dframe

    assert not is_corrigible(minimal_dframe(c2, b4))


def _closed_relations_bruteforce(minus, plus, close, shape):
    """Oracle: every mask over the free cells whose full closure is itself."""
    forced = close(minus, plus, np.zeros(shape, dtype=bool))
    free = [cell for cell in np.ndindex(shape) if not forced[cell]]
    out = []
    for mask in range(2 ** len(free)):
        rel = forced.copy()
        for bit, cell in enumerate(free):
            if mask >> bit & 1:
                rel[cell] = True
        if (close(minus, plus, rel) == rel).all():
            out.append(rel)
    return out


def _small_pairs(max_size, max_cells):
    pool = frame_pool(max_size)
    return [(m, p) for m, p in product(pool, pool) if m.n * p.n <= max_cells]


def test_step_enumeration_matches_the_closure_oracle():
    pairs = _small_pairs(5, 20)
    total = 0
    for minus, plus in pairs:
        for fast, close, shape in (
            (enumerate_con_relations, close_con_generators, (plus.n, minus.n)),
            (enumerate_tot_relations, close_tot_generators, (minus.n, plus.n)),
        ):
            got = fast(minus, plus)
            want = _closed_relations_bruteforce(minus, plus, close, shape)
            assert len(got) == len(want), (minus.name, plus.name, fast.__name__)
            assert all((g == w).all() for g, w in zip(got, want))
            total += len(got)
    assert (len(pairs), total) == (55, 1214)


def test_enumerate_dframes_matches_the_double_loop():
    for minus, plus in _small_pairs(4, 12):
        want = [
            (con, tot)
            for con in enumerate_con_relations(minus, plus)
            for tot in enumerate_tot_relations(minus, plus)
            if check_dframe(DFrame(minus, plus, con, tot)).ok
        ]
        got = list(enumerate_dframes(minus, plus))
        assert len(got) == len(want)
        assert all((df.con == con).all() and (df.tot == tot).all()
                   for df, (con, tot) in zip(got, want))


def _partnerless_unmemoised(df):
    subs_minus = enumerate_sublocales(df.minus)
    subs_plus = enumerate_sublocales(df.plus)
    out = []
    for sm in subs_minus:
        if not any(build_sub_d_locale(df, sm, sp)[1].ok for sp in subs_plus):
            out.append(("minus", sm))
    for sp in subs_plus:
        if not any(build_sub_d_locale(df, sm, sp)[1].ok for sm in subs_minus):
            out.append(("plus", sp))
    return out


def test_partnerless_matches_the_unmemoised_loops():
    pool = frame_pool(3)
    searched = 0
    for minus, plus in product(pool, pool):
        if minus.is_trivial != plus.is_trivial:
            continue
        for df in enumerate_dframes(minus, plus):
            assert partnerless_sublocales(df) == _partnerless_unmemoised(df)
            searched += 1
    assert searched == mine(max_frame=3).searched


def test_miner_at_size_four():
    report = mine(max_frame=4)
    assert report.searched == 136
    assert len(report.incorrigible) == 73
    assert len(report.double_negation_without_excluded_middle) == 11
    assert report.partnerless == []


def test_relation_cap_raises_a_size_guard():
    c2, b4 = Frame.chain(2), Frame.boolean(2)
    # 8 cells, 5 forced by the nullary pairs: 2^3 candidates
    assert len(enumerate_con_relations(c2, b4, cap=8)) >= 1
    with pytest.raises(SizeGuardExceeded):
        enumerate_con_relations(c2, b4, cap=7)
    with pytest.raises(SizeGuardExceeded):
        enumerate_tot_relations(c2, b4, cap=7)
    with pytest.raises(SizeGuardExceeded):
        next(enumerate_dframes(c2, b4, cap=7))
