import random
from itertools import product

import numpy as np
import pytest

from dframes import search
from dframes.density import is_corrigible
from dframes.dframe import (
    DFrame,
    check_dframe,
    close_con_generators,
    close_tot_generators,
)
from dframes.errors import SizeGuardExceeded
from dframes.order import Lattice, down_closure_pairs, up_closure_pairs
from dframes.search import (
    count_candidates,
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
from oracles import all_lattices, are_order_isomorphic

# the oracle's scan, run once: the lattices of up to n elements are its prefix
SCANNED = all_lattices(6)


def test_lattice_counts_up_to_five():
    lats = [lat for lat in SCANNED if lat.n <= 5]
    by_size = {}
    for lat in lats:
        by_size[lat.n] = by_size.get(lat.n, 0) + 1
    assert by_size == {1: 1, 2: 1, 3: 1, 4: 2, 5: 5}
    assert sum(lat.is_distributive for lat in lats) == 8


@pytest.mark.parametrize("size", range(7))
def test_frame_pool_is_the_mask_scan(size):
    # the distributive lattices of the scan, in its order, under its labels
    scanned = [lat for lat in SCANNED if lat.n <= size and lat.is_distributive]
    pool = frame_pool(size)
    assert [f.name for f in pool] == [f"D{k}" for k in range(len(scanned))]
    assert [f.elements for f in pool] == [lat.elements for lat in scanned]
    assert [f.leq.tobytes() for f in pool] == [lat.leq.tobytes() for lat in scanned]


def test_frame_pool_of_seven_elements():
    # OEIS A006982: 1, 1, 1, 2, 3, 5, 8 distributive lattices of 1 to 7 elements
    pool = frame_pool(7)
    sizes = [f.n for f in pool]
    assert [sizes.count(n) for n in range(1, 8)] == [1, 1, 1, 2, 3, 5, 8]
    assert all(f.is_distributive for f in pool)
    for i, a in enumerate(pool):
        for b in pool[i + 1:]:
            assert not (a.n == b.n and are_order_isomorphic(a, b))


@pytest.mark.parametrize("size", [8, 9])
def test_frame_pool_refuses_more_than_seven_elements_before_building(monkeypatch, size):
    def refuse(*args, **kwargs):
        raise AssertionError("a poset or a lattice was built")

    monkeypatch.setattr(search, "_least_labelling", refuse)
    monkeypatch.setattr(Lattice, "__init__", refuse)
    with pytest.raises(SizeGuardExceeded) as err:
        frame_pool(size)
    assert str(err.value) == f"frames of {size} elements exceed the pool guard of 7"


def test_lattices_pairwise_nonisomorphic():
    lats = [lat for lat in SCANNED if lat.n <= 5]
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
    assert report.searched == 2  # stops at the cap, before counting the next d-frame


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


def _closure_step(minus, plus, rel, order_closure):
    """The oracle's own step on (plus x minus): the order closure, then the
    two binary laws applied to every pair of members at once."""
    step = order_closure(plus, minus, rel).copy()  # the closure comes back read-only
    ps, ms = np.where(step)
    step[plus.join[ps[:, None], ps], minus.meet[ms[:, None], ms]] = True
    step[plus.meet[ps[:, None], ps], minus.join[ms[:, None], ms]] = True
    return step


def _con_closure_step(minus, plus, con):
    """One round of the con closure: the lower set, then the binary laws."""
    return _closure_step(minus, plus, con, down_closure_pairs)


def _tot_closure_step(minus, plus, tot):
    """One round of the tot closure: the upper set, then the binary laws."""
    return _closure_step(minus, plus, tot.T, up_closure_pairs).T


def _step_fixpoint(minus, plus, rel, step):
    """The fixpoint of the oracle's step above rel."""
    while True:
        nxt = step(minus, plus, rel)
        if (nxt == rel).all():
            return rel
        rel = nxt


def test_loader_closure_matches_the_fixpoint_of_the_pairwise_step():
    """close_con_generators and close_tot_generators, which close each line
    to a principal ideal or filter, reach the same sets as the pairwise step
    on seeded generator sets."""
    rng = random.Random(13)
    # the binary laws add cells only beside a frame that is not a chain, so
    # the 8-element Boolean frame is drawn more often
    pool = frame_pool(4) + [Frame.boolean(3)] * 3 + [Frame.chain(6)]
    lawful = 0
    for _ in range(300):
        minus, plus = rng.choice(pool), rng.choice(pool)
        for close, step, order, shape, nullary in (
            (close_con_generators, _con_closure_step, lambda r: down_closure_pairs(plus, minus, r),
             (plus.n, minus.n), ((plus.bottom, minus.top), (plus.top, minus.bottom))),
            (close_tot_generators, _tot_closure_step, lambda r: up_closure_pairs(minus, plus, r),
             (minus.n, plus.n), ((minus.bottom, plus.top), (minus.top, plus.bottom))),
        ):
            gens = np.zeros(shape, dtype=bool)
            for _ in range(rng.randrange(7)):
                gens[rng.randrange(shape[0]), rng.randrange(shape[1])] = True
            start = gens.copy()
            for cell in nullary:
                start[cell] = True
            want = _step_fixpoint(minus, plus, start, step)
            assert (close(minus, plus, gens) == want).all(), (minus.name, plus.name, gens)
            lawful += int((want != order(start)).any())
    assert lawful > 50  # the binary laws, not the order closure alone, added cells


def _enumerate_relations(minus, plus, forced, step):
    """Oracle: the forced cells plus each subset of the free ones (bit k of
    the mask sets the k-th free cell in row-major order) that the step
    leaves fixed."""
    rows, cols = np.where(~forced)
    shifts = np.arange(len(rows))
    out = []
    for mask in range(2 ** len(rows)):
        rel = forced.copy()
        rel[rows, cols] = (mask >> shifts) & 1
        if (step(minus, plus, rel) == rel).all():
            out.append(rel)
    return out


def _closed_relations_bruteforce(minus, plus, close, shape):
    """Oracle for the oracle: every mask over the free cells whose full
    closure is itself."""
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


def _oracle_cons(minus, plus):
    forced = close_con_generators(minus, plus, np.zeros((plus.n, minus.n), dtype=bool))
    return _enumerate_relations(minus, plus, forced, _con_closure_step)


def _oracle_tots(minus, plus):
    forced = close_tot_generators(minus, plus, np.zeros((minus.n, plus.n), dtype=bool))
    return _enumerate_relations(minus, plus, forced, _tot_closure_step)


def _small_pairs(max_size, max_cells):
    pool = frame_pool(max_size)
    return [(m, p) for m, p in product(pool, pool) if m.n * p.n <= max_cells]


def test_step_enumeration_matches_the_closure_oracle():
    pairs = _small_pairs(5, 20)
    total = 0
    for minus, plus in pairs:
        sizes = []
        for fast, oracle, close, shape in (
            (enumerate_con_relations, _oracle_cons, close_con_generators, (plus.n, minus.n)),
            (enumerate_tot_relations, _oracle_tots, close_tot_generators, (minus.n, plus.n)),
        ):
            got = fast(minus, plus)
            for want in (oracle(minus, plus),
                         _closed_relations_bruteforce(minus, plus, close, shape)):
                assert len(got) == len(want), (minus.name, plus.name, fast.__name__)
                assert all((g == w).all() for g, w in zip(got, want))
            sizes.append(len(got))
        assert count_candidates(minus, plus) == sizes[0] * sizes[1]
        total += sum(sizes)
    assert (len(pairs), total) == (55, 1214)


def test_enumerate_dframes_matches_the_double_loop():
    """The nine-axiom check of every con x tot candidate in the window,
    against the one array test per frame pair."""
    pool = frame_pool(4)
    pairs = [(m, p) for m, p in product(pool, pool) if m.is_trivial == p.is_trivial]
    candidates = valid = 0
    for minus, plus in pairs:
        want = []
        for con in _oracle_cons(minus, plus):
            for tot in _oracle_tots(minus, plus):
                candidates += 1
                if check_dframe(DFrame(minus, plus, con, tot)).ok:
                    want.append((con, tot))
        got = list(enumerate_dframes(minus, plus))
        assert len(got) == len(want)
        assert all((df.con == con).all() and (df.tot == tot).all()
                   for df, (con, tot) in zip(got, want))
        valid += len(got)
    assert (len(pairs), candidates, valid) == (17, 1653, 136)


def test_candidate_count_matches_the_enumeration_at_window_six():
    pool = frame_pool(6)
    pairs = [(m, p) for m, p in product(pool, pool) if m.is_trivial == p.is_trivial]
    candidates = valid = 0
    for minus, plus in pairs:
        count = count_candidates(minus, plus)
        assert count == len(enumerate_con_relations(minus, plus)) * len(
            enumerate_tot_relations(minus, plus)), (minus.name, plus.name)
        candidates += count
        valid += sum(1 for _ in enumerate_dframes(minus, plus))
    assert (len(pairs), candidates, valid) == (145, 1001667, 45311)


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


def test_partnerless_admits_by_the_matrix(monkeypatch):
    import dframes.search
    import dframes.subdlocale

    calls = []

    def counted(*args):
        calls.append(args)
        return build_sub_d_locale(*args)

    for module in (dframes.subdlocale, dframes.search):
        monkeypatch.setattr(module, "build_sub_d_locale", counted)
    pool = frame_pool(3)
    searched = 0
    for minus, plus in product(pool, pool):
        if minus.is_trivial == plus.is_trivial:
            for df in enumerate_dframes(minus, plus):
                partnerless_sublocales(df)
                searched += 1
    assert searched == 8 and calls == []  # the d-frames mine(max_frame=3) searches


def test_miner_at_size_four():
    report = mine(max_frame=4)
    assert report.searched == 136
    assert len(report.incorrigible) == 73
    assert len(report.double_negation_without_excluded_middle) == 11
    assert report.partnerless == []


def test_relation_cap_raises_a_size_guard():
    c2, b4 = Frame.chain(2), Frame.boolean(2)
    # 4 con maps (the one join-irreducible of c2 into b4) x 4 tot maps
    assert count_candidates(c2, b4) == 16
    assert len(enumerate_con_relations(c2, b4, cap=16)) == 4
    with pytest.raises(SizeGuardExceeded):
        enumerate_con_relations(c2, b4, cap=15)
    with pytest.raises(SizeGuardExceeded):
        enumerate_tot_relations(c2, b4, cap=15)
    with pytest.raises(SizeGuardExceeded):
        next(enumerate_dframes(c2, b4, cap=15))
    # antitone maps from the 5 (7) join-irreducibles of a 6-chain (8-chain)
    # into it: C(10, 5) = 252 and C(14, 7) = 3,432
    c6, c8 = Frame.chain(6), Frame.chain(8)
    assert count_candidates(c6, c6) == 252 * 252
    with pytest.raises(SizeGuardExceeded, match="3432 x 3432 = 11778624"):
        count_candidates(c8, c8)
