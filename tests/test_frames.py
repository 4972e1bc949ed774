from itertools import combinations, product

import numpy as np
import pytest

from dframes.density import double_pseudocomplement_sets
from dframes.dframe import DFrameHom, image_factorization, symmetric_dframe
from dframes.errors import CarrierMismatch, DomainMismatch, NotAFrame, SizeGuardExceeded
from dframes.fixtures import componentwise_dense_counterexample
from dframes.frames import (
    Frame,
    FrameHom,
    Nucleus,
    Sublocale,
    booleanization,
    check_frame_hom,
    closed_sublocale,
    enumerate_sublocales,
    one_sublocale,
    open_sublocale,
    sublocale_label,
    whole_sublocale,
)
from dframes.order import Lattice
from dframes.search import frame_pool, standard_corpus
from oracles import join_all


C3 = Frame.chain(3)
C4 = Frame.chain(4)
B4 = Frame.boolean(2)
# every frame of up to 6 elements, B16 and the 8-chain
POOL6 = frame_pool(6) + [Frame.boolean(4), Frame.chain(8)]


def test_frame_requires_distributivity():
    with pytest.raises(NotAFrame):
        Frame(Lattice.pentagon())


def test_frame_is_a_lattice():
    assert isinstance(Frame.chain(3), Lattice)
    assert isinstance(Frame.from_covers("0a1", [("0", "a"), ("a", "1")]), Frame)


def test_frame_from_a_lattice_shares_its_tables(monkeypatch):
    lattice = Lattice.boolean(2)
    built = []
    init = Lattice.__init__
    monkeypatch.setattr(Lattice, "__init__", lambda self, *a: built.append(a) or init(self, *a))
    frame = Frame(lattice, name="B4")
    assert built == []
    assert frame.meet is lattice.meet and frame.join is lattice.join and frame.leq is lattice.leq


def test_non_distributive_constructors_raise_through_frame():
    for build, triple in ((Frame.pentagon, "('c', 'a', 'b')"), (Frame.diamond3, "('x', 'y', 'z')")):
        with pytest.raises(NotAFrame) as err:
            build()
        assert str(err.value) == f"not distributive; witness triple {triple}"


def test_check_frame_hom_identity_and_constant():
    ok, _ = check_frame_hom(FrameHom.identity(C3))
    assert ok
    constant_top = FrameHom(C3, C3, [C3.top] * 3)
    ok, violations = check_frame_hom(constant_top)
    assert not ok
    assert violations[0].law == "bottom"


def test_frame_hom_takes_arrays_indices_and_names():
    # the 3-chain 0 < c < 1 collapsed onto its top two elements
    array = np.array([1, 1, 2])
    homs = [FrameHom(C3, C3, array), FrameHom(C3, C3, [1, 1, 2]),
            FrameHom(C3, C3, ["c", "c", "1"])]
    assert homs[0] == homs[1] == homs[2]
    assert array.flags.writeable  # the caller's array is copied, not frozen
    for bad in (np.array([1, 2]), np.array([[0, 1, 2]]), [0, 1], [0, 1, 3], [-1, 0, 2]):
        with pytest.raises(DomainMismatch):
            FrameHom(C3, C3, bad)


def test_collapse_map_is_a_hom():
    # the 4-chain-to-3-chain collapse used by the dense counterexample
    _, _, hom = componentwise_dense_counterexample()
    assert hom.minus.is_hom
    assert hom.minus.is_dense


def test_dense_frame_homs():
    assert FrameHom.identity(C3).is_dense
    _, bmap = booleanization(C3)
    assert bmap.is_dense
    q = closed_sublocale(C3, "c").quotient_hom()
    assert not q.is_dense


def test_sublocales_of_small_frames():
    subs = enumerate_sublocales(C3)
    assert [s.members for s in subs] == [(2,), (0, 2), (1, 2), (0, 1, 2)]
    assert len(enumerate_sublocales(Frame.chain(2))) == 2
    assert enumerate_sublocales(Frame.chain(1))[0].members == (0,)


def brute_force_sublocales(frame):
    """Definitional filter over all subsets containing the top."""
    found = []
    rest = [i for i in range(frame.n) if i != frame.top]
    for size in range(len(rest) + 1):
        for extra in combinations(rest, size):
            members = set(extra) | {frame.top}
            meets_ok = all(frame.meet[x, y] in members for x in members for y in members)
            imps_ok = all(
                frame.implies(a, s) in members for a in range(frame.n) for s in members
            )
            if meets_ok and imps_ok:
                found.append(tuple(sorted(members)))
    return sorted(found, key=lambda m: (len(m), m))


@pytest.mark.parametrize(
    "frame",
    [C3, C4, B4, Frame.boolean(3)] + POOL6,
    ids=lambda f: f.name,
)
def test_sublocale_enumeration_matches_bruteforce(frame):
    subs = enumerate_sublocales(frame)
    assert [s.members for s in subs] == brute_force_sublocales(frame)
    assert len(subs) == 2 ** len(frame.primes)


def test_sublocale_enumeration_matches_nucleus_fixpoints():
    # independent route: every valid nucleus map's fixpoints form a sublocale
    for frame in (C3, B4):
        fixpoint_sets = set()
        for mapping in product(range(frame.n), repeat=frame.n):
            nu = Nucleus(frame, list(mapping))
            if nu.is_valid:
                fixpoint_sets.add(nu.fixpoints().members)
        assert fixpoint_sets == {s.members for s in enumerate_sublocales(frame)}


def brute_force_join_irreducibles(frame):
    """The elements other than bottom that are not the join of the elements
    strictly below them."""
    return tuple(
        x for x in range(frame.n)
        if x != frame.bottom
        and join_all(frame, [y for y in range(frame.n) if y != x and frame.leq[y, x]]) != x
    )


@pytest.mark.parametrize("frame", POOL6,
                         ids=lambda f: f.name)
def test_join_irreducibles_match_bruteforce(frame):
    assert frame.join_irreducibles == brute_force_join_irreducibles(frame)


def test_size_guard():
    # the guard counts sublocales, 2^|primes|, and refuses before building one
    with pytest.raises(SizeGuardExceeded):
        enumerate_sublocales(Frame.boolean(2), 3)  # 2^2 > 3
    chain = Frame.chain(12)
    with pytest.raises(SizeGuardExceeded):
        enumerate_sublocales(chain)  # 2^11 > 400
    assert chain._sublocales == {}


def test_open_and_closed_sublocales():
    assert closed_sublocale(C3, "c").members == (1, 2)
    assert open_sublocale(C3, "c").members == (0, 2)
    assert open_sublocale(C3, "1") == whole_sublocale(C3)
    assert closed_sublocale(B4, "a").members == tuple(
        i for i in range(B4.n) if B4.leq[B4.idx("a"), i]
    )


def test_quotient_maps():
    whole = whole_sublocale(C3)
    assert (whole.quotient == np.arange(3)).all()
    one = one_sublocale(C3)
    assert (one.quotient == C3.top).all()
    cc = closed_sublocale(C3, "c")
    assert [C3.elements[q] for q in cc.quotient] == ["c", "c", "1"]


def test_quotient_is_idempotent_inflationary_and_fixes_members():
    for frame in (C3, C4, B4):
        for sub in enumerate_sublocales(frame):
            q = sub.quotient
            assert (q[q] == q).all()
            assert all(frame.leq[a, q[a]] for a in range(frame.n))
            nucleus = sub.nucleus()
            assert nucleus.is_valid
            assert nucleus.fixpoints() == sub


def test_booleanization_values():
    sub, bmap = booleanization(C3)
    assert sub.members == (0, 2)
    assert bmap.cod.elements[bmap(C3.idx("c"))] == "1"
    sub4, _ = booleanization(C4)
    assert C4.names(sub4.members) == ("0", "1")
    subb, bb = booleanization(B4)
    assert subb.is_whole
    assert (bb.mapping == np.arange(B4.n)).all()


@pytest.mark.parametrize("frame", POOL6,
                         ids=lambda f: f.name)
def test_booleanization_is_the_double_negation_image(frame):
    sub, bmap = booleanization(frame)
    star = frame.implication[:, frame.bottom]
    double = star[star]
    assert sub.members == tuple(sorted(set(double.tolist())))
    assert bmap.cod is sub.as_frame
    assert (np.asarray(sub.members)[bmap.mapping] == double).all()


def test_booleanization_is_least_dense():
    for frame in (C3, C4, B4):
        bool_sub, bmap = booleanization(frame)
        assert bmap.is_hom
        assert bmap.is_dense
        for sub in enumerate_sublocales(frame):
            if frame.bottom in sub.members:  # dense sublocale
                assert sub.contains(bool_sub)


def test_sublocale_join_meet():
    cc, oc = closed_sublocale(C3, "c"), open_sublocale(C3, "c")
    one = one_sublocale(C3)
    assert cc.join_with(one) == cc
    assert cc.meet_with(one) == one
    assert cc.join_with(oc) == whole_sublocale(C3)
    assert cc.meet_with(oc) == one
    with pytest.raises(CarrierMismatch):
        cc.meet_with(one_sublocale(B4))


def same_names_other_order():
    """D3 and D4 of the 4-element pool, which both name their elements
    x0..x3, and a rebuild of D3 with the same names and order."""
    pool = {f.name: f for f in frame_pool(4)}
    d3, d4 = pool["D3"], pool["D4"]
    assert d3.elements == d4.elements and not np.array_equal(d3.leq, d4.leq)
    rebuilt = Frame(Lattice(d3.elements, d3.leq))
    assert rebuilt is not d3
    return d3, d4, rebuilt


def test_compose_compares_the_carriers_order():
    d3, d4, rebuilt = same_names_other_order()
    with pytest.raises(CarrierMismatch):
        FrameHom.identity(d4).compose(FrameHom.identity(d3))
    assert FrameHom.identity(rebuilt).compose(FrameHom.identity(d3)).is_hom


def test_frame_hom_equality_compares_the_carriers_order():
    d3, d4, rebuilt = same_names_other_order()
    assert FrameHom.identity(d3) != FrameHom.identity(d4)
    assert FrameHom.identity(d3) == FrameHom.identity(rebuilt)


def test_sublocale_equality_compares_the_carriers_order():
    d3, d4, rebuilt = same_names_other_order()
    assert whole_sublocale(d3) != whole_sublocale(d4)
    assert whole_sublocale(d3) == whole_sublocale(rebuilt)


def test_sublocale_join_and_meet_compare_the_carriers_order():
    d3, d4, rebuilt = same_names_other_order()
    for op in ("join_with", "meet_with"):
        with pytest.raises(CarrierMismatch):
            getattr(whole_sublocale(d3), op)(whole_sublocale(d4))
        assert getattr(whole_sublocale(d3), op)(whole_sublocale(rebuilt)) == whole_sublocale(d3)


def join_by_frontier(s, t):
    """All meets of subsets of the union, grown from the union one round of
    binary meets at a time.  The reference for Sublocale.join_with."""
    F = s.frame
    pool = sorted(set(s.members) | set(t.members))
    out = {F.top}
    frontier = set(pool)
    while frontier:
        out |= frontier
        frontier = {F.meet[x, y] for x in out for y in pool if F.meet[x, y] not in out}
    return Sublocale(F, out)


def test_join_with_matches_the_frontier_loop():
    # joins against the frontier loop, and inclusion and meets, which go by
    # prime masks, against Python sets
    for frame in frame_pool(5) + [Frame.chain(6), Frame.boolean(3)]:
        subs = enumerate_sublocales(frame)
        for s, t in product(subs, subs):
            assert s.join_with(t) is join_by_frontier(s, t)
            assert s.contains(t) == (set(t.members) <= set(s.members))
            assert s.meet_with(t) is Sublocale(frame, set(s.members) & set(t.members))
    # a double-pseudocomplement image need not be a sublocale; containment
    # in a sublocale still means inclusion of its members
    pairs, not_sublocales = 0, 0
    for df in standard_corpus(5):
        for image, frame in zip(double_pseudocomplement_sets(df)[:2], (df.minus, df.plus)):
            not_sublocales += not image.is_valid
            for s in enumerate_sublocales(frame):
                assert s.contains(image) == (set(image.members) <= set(s.members))
                pairs += 1
    assert (pairs, not_sublocales) == (804, 28)


def test_enumerated_sublocales_form_a_lattice():
    for frame in (C3, B4):
        subs = enumerate_sublocales(frame)
        for s, t in product(subs, subs):
            assert s.meet_with(t) in subs
            join = s.join_with(t)
            assert join in subs
            assert join.contains(s) and join.contains(t)
            assert all(u.contains(join) for u in subs if u.contains(s) and u.contains(t))


def test_booleanization_map_is_hom_onto_members():
    sub, bmap = booleanization(C4)
    assert bmap.is_hom
    assert bmap.is_surjective
    # joins in the image are the double pseudocomplement of carrier joins
    star = C4.implication[:, C4.bottom]
    for x in range(C4.n):
        for y in range(C4.n):
            recomputed = star[star[C4.join[x, y]]]
            assert sub.members[bmap(C4.join[x, y])] == recomputed


def test_sublocales_are_interned_per_frame():
    members = ["c", "1"]
    assert Sublocale(C3, members) is Sublocale(C3, members)
    assert Sublocale(C3, members) is closed_sublocale(C3, "c")
    twin = Frame.chain(3)
    assert twin is not C3
    assert Sublocale(twin, members) == Sublocale(C3, members)
    assert hash(Sublocale(twin, members)) == hash(Sublocale(C3, members))
    assert Sublocale(twin, members) is not Sublocale(C3, members)


def test_sublocale_labels():
    assert sublocale_label(whole_sublocale(C3)) == "3"
    assert sublocale_label(one_sublocale(C3)) == "1"
    assert sublocale_label(closed_sublocale(C3, "c")) == "c(c)"
    assert sublocale_label(open_sublocale(C3, "c")) == "o(c)"
    # {0, b, 1} in the 4-chain is neither an up-set nor an implication image
    odd = Sublocale(C4, ["0", "b", "1"])
    assert odd.is_valid
    assert sublocale_label(odd) == "{0,b,1}"


def label_by_construction(s):
    """The label found by building c(a), then o(a), for each a in index
    order until one equals s: the reference for sublocale_label."""
    F = s.frame
    if s.is_whole:
        return F.name
    if s.is_one:
        return "1"
    for make, kind in ((closed_sublocale, "c"), (open_sublocale, "o")):
        for a in range(F.n):
            if s == make(F, a):
                return f"{kind}({F.elements[a]})"
    return "{" + ",".join(F.names(s.members)) + "}"


@pytest.mark.parametrize("frame", POOL6, ids=lambda f: f.name)
def test_sublocale_labels_match_the_construction_search(frame):
    for s in enumerate_sublocales(frame):
        assert sublocale_label(s) == label_by_construction(s)


def test_sublocale_as_frame_round_trip():
    cc = closed_sublocale(C3, "c")
    frame = cc.as_frame
    assert frame.elements == ("c", "1")
    q = cc.quotient_hom()
    assert q.is_hom and q.is_surjective


# -- sub-frames by restriction -------------------------------------------------


def rebuilt_frame(frame, members):
    """The frame on members rebuilt from their order alone: the poset checks,
    both bound tables and the distributivity scan that Frame.restrict skips."""
    ix = np.asarray(members)
    lattice = Lattice(frame.names(ix), frame.leq[np.ix_(ix, ix)])
    assert lattice.is_distributive
    return Frame(lattice)


def assert_same_frame(derived, rebuilt):
    assert derived.elements == rebuilt.elements
    for table in ("leq", "meet", "join", "implication", "covers"):
        assert (getattr(derived, table) == getattr(rebuilt, table)).all(), table
    assert (derived.bottom, derived.top) == (rebuilt.bottom, rebuilt.top)


# indexed top first too: a parent join outside the members then lies below
# members of higher index, so only the closure finds the least member above it
@pytest.mark.parametrize("frame", POOL6 + [
    Frame(Lattice(f.elements[::-1], f.leq[::-1, ::-1]), name=f"{f.name}-top-first") for f in POOL6
], ids=lambda f: f.name)
def test_sublocale_frames_are_the_rebuilt_frames(frame):
    for sub in enumerate_sublocales(frame):
        assert_same_frame(sub.as_frame, rebuilt_frame(frame, sub.members))


@pytest.mark.parametrize("dom, cod, mapping", [
    (Frame.chain(3), Frame.boolean(2), ["0", "a", "1"]),
    (Frame.chain(3), Frame.boolean(3), ["0", "ab", "1"]),
    (Frame.chain(4), Frame.boolean(3), ["0", "a", "ab", "1"]),
    (Frame.boolean(2), Frame.boolean(3), ["0", "a", "bc", "1"]),
], ids=["C3-B4", "C3-B8", "C4-B8", "B4-B8"])
def test_image_frames_are_the_rebuilt_sub_frames(dom, cod, mapping):
    f = FrameHom(dom, cod, mapping)
    assert f.is_hom and not f.is_surjective and len(f.image_indices()) >= 3
    hom = DFrameHom(symmetric_dframe(dom), symmetric_dframe(cod), f, f)
    fac = image_factorization(hom)
    for incl in (fac.embedding.minus, fac.embedding.plus):
        assert_same_frame(incl.dom, rebuilt_frame(cod, incl.mapping))
    assert fac.embedding.compose(fac.onto) == hom


def test_factorization_refuses_an_image_that_is_no_sub_frame():
    # a and b are in the image, their join 1 is not
    f = FrameHom(C3, B4, ["0", "a", "b"])
    hom = DFrameHom(symmetric_dframe(C3), symmetric_dframe(B4), f, f)
    with pytest.raises(DomainMismatch, match="not closed under meets and joins"):
        image_factorization(hom)
