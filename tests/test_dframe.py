import hashlib
import random
from collections import Counter
from itertools import chain, product

import numpy as np
import pytest

from dframes.dframe import (
    AxiomCheck,
    DFrame,
    DFrameHom,
    check_dframe,
    check_dframe_hom,
    close_con_generators,
    close_tot_generators,
    dense_hom_witness,
    image_factorization,
    is_dense_hom,
    is_extremal_epi,
    is_monomorphism,
    is_regular,
    minimal_dframe,
    rather_below,
    symmetric_dframe,
)
from dframes.errors import InvalidDFrame, TrivialMismatch
from dframes.fixtures import (
    componentwise_dense_counterexample,
    invalid_all_pairs,
    three_three,
    two_two,
)
from dframes.frames import Frame, FrameHom, enumerate_sublocales
from dframes.order import down_closure_pairs, up_closure_pairs
from dframes.search import frame_pool, standard_corpus
from dframes.subdlocale import admission_matrix, enumerate_sub_d_locales
from oracles import dframe_axioms, directed_joins_bruteforce


C2, C3, B4 = Frame.chain(2), Frame.chain(3), Frame.boolean(2)


def test_symmetric_dframes_pass_all_axioms():
    for frame in (C2, C3, B4, Frame.chain(1)):
        report = check_dframe(symmetric_dframe(frame))
        assert report.ok, str(report.first_failure)


def test_minimal_dframe_values():
    tt = three_three()
    assert sorted(tt.con_pairs()) == [
        ("0", "0"), ("0", "1"), ("0", "c"), ("1", "0"), ("c", "0")]
    assert sorted(tt.tot_pairs()) == [
        ("0", "1"), ("1", "0"), ("1", "1"), ("1", "c"), ("c", "1")]


def test_minimal_trivial_cases():
    one = Frame.chain(1)
    assert minimal_dframe(one, one).validate().ok
    with pytest.raises(TrivialMismatch):
        minimal_dframe(one, C2)
    with pytest.raises(TrivialMismatch):
        minimal_dframe(C2, one)


def test_symmetric_small_values():
    s2 = symmetric_dframe(C2)
    assert sorted(s2.con_pairs()) == [("0", "0"), ("0", "1"), ("1", "0")]
    assert sorted(s2.tot_pairs()) == [("0", "1"), ("1", "0"), ("1", "1")]
    assert symmetric_dframe(Frame.chain(1)).is_trivial


def test_all_pairs_fails_con_tot_with_witness():
    report = check_dframe(invalid_all_pairs())
    assert not report.ok
    failure = report.first_failure
    assert failure.name in ("con-tot-plus", "con-tot-minus")
    assert failure.witness


def test_axiom_witnesses_for_broken_relations():
    # con missing the down-closure of (1, 0)
    con = np.zeros((2, 2), dtype=bool)
    con[1, 0] = True  # (top, bottom) only; (0, 0), (0, 1) missing
    tot = np.zeros((2, 2), dtype=bool)
    tot[1, :] = True
    tot[:, 1] = True
    report = check_dframe(DFrame(C2, C2, con, tot))
    names = {c.name for c in report.checks if not c.ok}
    assert "con-down" in names
    # tot missing its nullary pair
    con2 = np.zeros((2, 2), dtype=bool)
    con2[0, :] = True
    con2[:, 0] = True
    tot2 = np.zeros((2, 2), dtype=bool)
    tot2[:, 1] = True  # up-closed but (1, 0) missing
    report2 = check_dframe(DFrame(C2, C2, con2, tot2))
    assert any(c.name == "tot-join" and not c.ok for c in report2.checks)


def test_assert_valid_raises():
    with pytest.raises(InvalidDFrame):
        invalid_all_pairs().assert_valid()


def test_dframe_keeps_frozen_owned_arrays_and_copies_the_rest():
    tt = three_three()
    frozen = tt.con.copy()
    frozen.flags.writeable = False
    writeable = tt.tot.copy()
    df = DFrame(tt.minus, tt.plus, frozen, writeable)
    assert df.con is frozen
    assert df.tot is not writeable and not df.tot.flags.writeable
    writeable[:] = False  # the caller's later writes do not reach df
    assert (df.tot == tt.tot).all()
    # read-only views of frozen owned arrays are kept, so a swap shares its
    # parent's relations; a read-only view of a writable array is copied
    assert np.shares_memory(df.swap().con, df.con) and np.shares_memory(df.swap().tot, df.tot)
    loose = writeable.T
    loose.flags.writeable = False
    view = DFrame(tt.plus, tt.minus, frozen.T, loose)
    assert view.con.base is frozen
    assert view.tot.flags.owndata and not np.shares_memory(view.tot, writeable)


READ_ONLY_RESULTS = {
    "rather_below": lambda df: rather_below(df)[0],
    "rather_below swap": lambda df: rather_below(df)[1],
    "restricted_con": lambda df: enumerate_sub_d_locales(df).members[1].restricted_con(),
    "restricted_tot": lambda df: enumerate_sub_d_locales(df).members[1].restricted_tot(),
    "images con": lambda df: DFrameHom.identity(df).images()[0],
    "images tot": lambda df: DFrameHom.identity(df).images()[1],
    "admission_matrix": lambda df: admission_matrix(
        df, enumerate_sublocales(df.minus), enumerate_sublocales(df.plus)),
    "down_closure_pairs": lambda df: down_closure_pairs(df.plus, df.minus, df.con),
    "up_closure_pairs": lambda df: up_closure_pairs(df.minus, df.plus, df.tot),
    "close_con_generators": lambda df: close_con_generators(df.minus, df.plus, df.con),
    "close_tot_generators": lambda df: close_tot_generators(df.minus, df.plus, df.tot),
}


@pytest.mark.parametrize("name", READ_ONLY_RESULTS)
def test_returned_arrays_are_read_only(name):
    assert not READ_ONLY_RESULTS[name](three_three()).flags.writeable


def test_dframe_keeps_closed_generators_without_a_copy():
    tt = three_three()
    con = close_con_generators(tt.minus, tt.plus, tt.con)
    tot = close_tot_generators(tt.minus, tt.plus, tt.tot)
    df = DFrame(tt.minus, tt.plus, con, tot)
    assert df.con is con and df.tot is tot


def test_validation_runs_once_per_dframe():
    tt = three_three()
    assert tt.validate() is tt.validate()
    assert tt.swap().validate() is not tt.validate()


def test_dframe_hom_checker():
    tt = three_three()
    ident = DFrameHom.identity(tt)
    ok, _ = check_dframe_hom(ident)
    assert ok
    _, _, hom = componentwise_dense_counterexample()
    ok, _ = check_dframe_hom(hom)
    assert ok
    # a component that is not a frame hom
    broken = DFrameHom(tt, tt, FrameHom(tt.minus, tt.minus, [2, 2, 2]),
                       FrameHom.identity(tt.plus))
    ok, violations = check_dframe_hom(broken)
    assert not ok and violations


def test_monomorphisms():
    tt = three_three()
    assert is_monomorphism(DFrameHom.identity(tt))
    _, _, hom = componentwise_dense_counterexample()
    assert not is_monomorphism(hom)
    fac = image_factorization(hom)
    assert is_monomorphism(fac.embedding)


def all_dframe_homs(dom, cod):
    """Brute-force enumeration of d-frame homomorphisms, for oracles."""
    minus_maps = [
        FrameHom(dom.minus, cod.minus, list(m))
        for m in product(range(cod.minus.n), repeat=dom.minus.n)
    ]
    plus_maps = [
        FrameHom(dom.plus, cod.plus, list(m))
        for m in product(range(cod.plus.n), repeat=dom.plus.n)
    ]
    out = []
    for fm in minus_maps:
        if not fm.is_hom:
            continue
        for fp in plus_maps:
            if not fp.is_hom:
                continue
            cand = DFrameHom(dom, cod, fm, fp)
            if cand.is_hom:
                out.append(cand)
    return out


def test_mono_matches_left_cancellation():
    """Categorical oracle: componentwise injectivity agrees with left
    cancellability over all homomorphisms from probe d-frames that carry a
    3-chain on each side in turn."""
    probes_domains = [minimal_dframe(C3, C2, name="3.2"), minimal_dframe(C2, C3, name="2.3")]
    for target, cod in [
        (three_three(), three_three()),
        (three_three(), symmetric_dframe(B4)),
        (two_two(), three_three()),
        (symmetric_dframe(C2), symmetric_dframe(B4)),
    ]:
        probes = [g for dom in probes_domains for g in all_dframe_homs(dom, target)]
        for hom in all_dframe_homs(target, cod):
            signatures = {
                (tuple(hom.minus.mapping[g.minus.mapping]),
                 tuple(hom.plus.mapping[g.plus.mapping]),
                 g.dom.minus.n, g.dom.plus.n)
                for g in probes
            }
            cancellable = len(signatures) == len(probes)
            assert is_monomorphism(hom) == cancellable


def test_image_factorization_identity():
    tt = three_three()
    fac = image_factorization(DFrameHom.identity(tt))
    assert fac.image is tt
    assert fac.image.minus.elements == tt.minus.elements
    assert (fac.image.con == tt.con).all()
    assert fac.embedding.compose(fac.onto) == DFrameHom.identity(tt)


def test_homs_between_d_frames_with_different_relations_differ():
    # the same frames and component maps, but the two con relations differ
    low, high = minimal_dframe(B4, B4), symmetric_dframe(B4)
    assert (low.con != high.con).any()
    assert DFrameHom.identity(low) != DFrameHom.identity(high)
    # equal relations on distinct objects still compare equal, and hash alike
    again = minimal_dframe(B4, B4)
    assert again is not low and DFrameHom.identity(again) == DFrameHom.identity(low)
    assert hash(DFrameHom.identity(again)) == hash(DFrameHom.identity(low))


def test_image_factorization_of_quotient_is_the_sub_d_locale():
    tt = three_three()
    ds = enumerate_sub_d_locales(tt)
    member = ds.members[ds.labels.index("c(c).o(c)")]
    q = member.quotient_hom()
    fac = image_factorization(q)
    assert fac.image.minus.elements == ("c", "1")
    assert fac.image.plus.elements == ("0", "1")
    assert (fac.image.con == member.con).all()
    assert (fac.image.tot == member.tot).all()
    # onto: the image is the codomain's frames, not a rebuilt copy
    assert fac.image.minus is q.cod.minus and fac.image.plus is q.cod.plus
    assert is_extremal_epi(fac.onto)
    assert is_monomorphism(fac.embedding)
    assert fac.embedding.compose(fac.onto) == q


def test_factorization_rejects_a_map_pair_that_is_no_homomorphism():
    # c goes up to 1 on the plus side, so the con image is no lower set
    tt = three_three()
    hom = DFrameHom(tt, tt, FrameHom.identity(tt.minus), FrameHom(tt.plus, tt.plus, ["1", "c", "1"]))
    with pytest.raises(InvalidDFrame) as err:
        image_factorization(hom)
    assert str(err.value) == "con-down: FAIL at ('c', 'c', 'below', '1', 'c')"


def test_factorization_recomposes_everywhere():
    tt = three_three()
    for hom in all_dframe_homs(tt, symmetric_dframe(C2)):
        fac = image_factorization(hom)
        assert is_extremal_epi(fac.onto)
        assert is_monomorphism(fac.embedding)
        assert fac.embedding.compose(fac.onto) == hom
        assert fac.image.validate().ok


def test_image_keeps_the_relations_it_is_given(monkeypatch):
    passed, init = {}, DFrame.__init__

    def recording(self, minus, plus, con, tot, name=None):
        passed[name] = con, tot
        init(self, minus, plus, con, tot, name=name)

    monkeypatch.setattr(DFrame, "__init__", recording)
    tt, small = three_three(), two_two()
    inclusion = DFrameHom(small, tt, FrameHom(small.minus, tt.minus, ["0", "1"]),
                          FrameHom(small.plus, tt.plus, ["0", "1"]))
    # onto on both sides, yet carrying less con and tot than the codomain
    # holds: no extremal epi, so its image is a new d-frame
    fewer = DFrameHom(minimal_dframe(B4, B4), symmetric_dframe(B4),
                      FrameHom.identity(B4), FrameHom.identity(B4))
    kinds = Counter()
    for hom in all_dframe_homs(tt, symmetric_dframe(C2)) + [inclusion, fewer]:
        image, epi = image_factorization(hom).image, is_extremal_epi(hom)
        kinds[epi] += 1
        if epi:  # the codomain itself: nothing is copied
            assert image is hom.cod
        else:
            con, tot = passed[image.name]
            assert image.con is con and image.tot is tot
    assert kinds[True] and kinds[False] >= 2
    assert (image_factorization(fewer).image.con == fewer.dom.con).all()


def test_extremal_epi_characterisation():
    tt = three_three()
    assert is_extremal_epi(DFrameHom.identity(tt))
    ds = enumerate_sub_d_locales(tt)
    for member in ds.members:
        assert is_extremal_epi(member.quotient_hom())
    # a non-surjective mono is not an extremal epi
    small = two_two()
    inclusion = DFrameHom(
        small, tt,
        FrameHom(small.minus, tt.minus, ["0", "1"]),
        FrameHom(small.plus, tt.plus, ["0", "1"]),
    )
    fac = image_factorization(inclusion)
    assert fac.image.minus.elements == ("0", "1")
    assert is_monomorphism(fac.embedding)
    assert not is_extremal_epi(fac.embedding)
    assert not is_extremal_epi(inclusion)


def test_dense_morphisms():
    tt = three_three()
    assert is_dense_hom(DFrameHom.identity(tt))
    _, _, hom = componentwise_dense_counterexample()
    assert hom.minus.is_dense and hom.plus.is_dense
    assert not is_dense_hom(hom)
    assert dense_hom_witness(hom) == ("bc", "ab")


def test_dense_morphisms_have_dense_components():
    tt = three_three()
    for cod in (three_three(), symmetric_dframe(C2)):
        for hom in all_dframe_homs(tt, cod):
            if is_dense_hom(hom):
                assert hom.minus.is_dense and hom.plus.is_dense


def test_regularity():
    assert is_regular(symmetric_dframe(B4))
    assert not is_regular(three_three())
    assert is_regular(minimal_dframe(Frame.chain(1), Frame.chain(1)))


def test_rather_below_sits_inside_the_order():
    for df in (three_three(), symmetric_dframe(B4), symmetric_dframe(C3)):
        rb_minus, rb_plus = rather_below(df)
        assert not (rb_minus & ~df.minus.leq).any()
        assert not (rb_plus & ~df.plus.leq).any()


def test_generator_closure_produces_valid_relations():
    con = np.zeros((B4.n, C3.n), dtype=bool)
    con[B4.idx("a"), C3.idx("c")] = True
    closed = close_con_generators(C3, B4, con)
    assert (close_con_generators(C3, B4, closed) == closed).all()
    assert closed[B4.bottom, C3.top] and closed[B4.top, C3.bottom]
    tot = np.zeros((C3.n, B4.n), dtype=bool)
    closed_tot = close_tot_generators(C3, B4, tot)
    candidate = DFrame(C3, B4, closed, closed_tot)
    report = check_dframe(candidate)
    assert report.ok, str(report.first_failure)


def test_scott_closure_is_identity_on_con():
    # why check_dframe passes con-dirjoin without computing anything
    corpus = [df for df in standard_corpus(3) if df.con.sum() <= 16]
    assert len(corpus) == 8
    for df in [three_three(), symmetric_dframe(B4)] + corpus:
        closed = directed_joins_bruteforce(df.plus, df.minus, df.con)
        assert (closed == df.con).all()


# -- the swap symmetry and the failure witnesses ----------------------------------

POOL4 = frame_pool(4)

# Each axiom's name on the swap (L+, L-, conᵀ, totᵀ).
MIRRORED_AXIOM = {
    "con-down": "con-down", "con-join": "con-meet", "con-meet": "con-join",
    "tot-up": "tot-up", "tot-meet": "tot-join", "tot-join": "tot-meet",
    "con-tot-plus": "con-tot-minus", "con-tot-minus": "con-tot-plus",
    "con-dirjoin": "con-dirjoin",
}


def _random_relation(rng, shape, close):
    """Noise, a closed generator set, or a closed set with one cell flipped."""
    kind = rng.randrange(3)
    if kind == 0:
        density = rng.random()
        return np.array([[rng.random() < density for _ in range(shape[1])]
                         for _ in range(shape[0])], dtype=bool)
    gens = np.zeros(shape, dtype=bool)
    for _ in range(rng.randrange(3)):
        gens[rng.randrange(shape[0]), rng.randrange(shape[1])] = True
    rel = close(gens).copy()
    if kind == 2:
        i, j = rng.randrange(shape[0]), rng.randrange(shape[1])
        rel[i, j] = not rel[i, j]
    return rel


def random_relation_pairs(seed, count):
    """Seeded frame pairs from frame_pool(4) with random con and tot, most
    of them invalid."""
    rng = random.Random(seed)
    for _ in range(count):
        minus, plus = rng.choice(POOL4), rng.choice(POOL4)
        con = _random_relation(rng, (plus.n, minus.n),
                               lambda g: close_con_generators(minus, plus, g))
        tot = _random_relation(rng, (minus.n, plus.n),
                               lambda g: close_tot_generators(minus, plus, g))
        yield DFrame(minus, plus, con, tot)


def test_swap_mirrors_the_axiom_verdicts():
    checked = 0
    for df in random_relation_pairs(seed=11, count=3000):
        verdicts = {c.name: c.ok for c in check_dframe(df).checks}
        assert df.swap().swap() is df
        mirrored = {c.name: c.ok for c in check_dframe(df.swap()).checks}
        assert mirrored == {MIRRORED_AXIOM[name]: ok for name, ok in verdicts.items()}
        checked += not all(verdicts.values())
    assert checked > 2000


# sha256 of the reports of the broken pairs among random_relation_pairs(7, 600)
WITNESS_DIGEST = "34fa922e2d2de156baeb98981c022da3bb158419d62a6943e7e5af38564fa733"


def test_failure_witnesses_are_pinned():
    reports = [check_dframe(df) for df in random_relation_pairs(seed=7, count=600)]
    broken = [r for r in reports if not r.ok]
    assert len(broken) > 300
    failing = {c.name for r in broken for c in r.checks if not c.ok}
    assert failing == set(MIRRORED_AXIOM) - {"con-dirjoin"}
    text = "\n".join(str(r) for r in broken)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == WITNESS_DIGEST


def test_each_failed_law_is_scanned_once(monkeypatch):
    # axiom_verdicts scans both binary laws of a relation that fails its
    # order check, and check_dframe reads their witnesses from that scan; the
    # failed laws of an ordered relation are scanned once, for their witnesses
    from dframes import dframe as dframe_module

    scans, scan = [], dframe_module._first_bad_pair
    monkeypatch.setattr(dframe_module, "_first_bad_pair", lambda *args: scans.append(1) or scan(*args))
    unordered = 0
    for df in random_relation_pairs(seed=7, count=600):
        scans.clear()
        ok = {c.name: c.ok for c in check_dframe(df).checks}
        expected = 0
        for order, laws in (("con-down", ("con-join", "con-meet")), ("tot-up", ("tot-meet", "tot-join"))):
            expected += 2 if not ok[order] else sum(not ok[law] for law in laws)
            unordered += not ok[order]
        assert len(scans) == expected, str(check_dframe(df))
    assert unordered > 300


# -- the line tests of the binary laws -------------------------------------------


def _random_order_closed_pairs(seed, count):
    """Seeded frame pairs from frame_pool(4), half of them with the Boolean
    B4 on one side, whose con is a lower set and whose tot is an upper set:
    the order closures of a few random cells, most often with the nullary
    pairs, or fully closed generator sets."""
    rng = random.Random(seed)
    for _ in range(count):
        minus, plus = rng.choice(POOL4), rng.choice(POOL4)
        if rng.random() < 0.5:
            minus, plus = rng.choice([(minus, B4), (B4, plus)])
        con = np.zeros((plus.n, minus.n), dtype=bool)
        tot = np.zeros((minus.n, plus.n), dtype=bool)
        for rel in (con, tot):
            for _ in range(rng.randrange(1, 7)):
                rel[rng.randrange(rel.shape[0]), rng.randrange(rel.shape[1])] = True
        if rng.random() < 0.8:
            con[plus.bottom, minus.top] = con[plus.top, minus.bottom] = True
            tot[minus.bottom, plus.top] = tot[minus.top, plus.bottom] = True
        if rng.random() < 0.2:
            con, tot = close_con_generators(minus, plus, con), close_tot_generators(minus, plus, tot)
        yield DFrame(minus, plus, down_closure_pairs(plus, minus, con),
                     up_closure_pairs(minus, plus, tot))


BINARY_LAWS = ("con-join", "con-meet", "tot-meet", "tot-join")


def _scanned_binary_laws(df):
    """The four binary laws by the definitional all-pairs scan, as check_dframe names them."""
    axioms = dframe_axioms(df)
    return {name: AxiomCheck(name, *axioms[name]) for name in BINARY_LAWS}


def test_line_tests_match_the_pair_scan():
    """check_dframe's nine verdicts equal the definitional oracle's, and its
    witnesses for the binary laws the all-pairs scan's, on random lower and
    upper sets (where the line tests run) and on random relations (where
    most fail their order check)."""
    verdicts = Counter()
    for df in chain(_random_order_closed_pairs(seed=3, count=1500),
                    random_relation_pairs(seed=5, count=1000)):
        report = {check.name: check for check in check_dframe(df).checks}
        assert {name: check.ok for name, check in report.items()} == {
            name: ok for name, (ok, _) in dframe_axioms(df).items()}, (df.con, df.tot)
        ordered = {"con": report["con-down"].ok, "tot": report["tot-up"].ok}
        for name, scanned in _scanned_binary_laws(df).items():
            assert report[name] == scanned, (df.con, df.tot, name)
            if ordered[name[:3]] and scanned.witness[1:] != ("missing",):
                verdicts[name, scanned.ok] += 1
    # every law passes and fails its line test many times
    assert len(verdicts) == 8 and min(verdicts.values()) > 50, verdicts
