import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dframes.errors import CyclicOrder, NotALattice, UnknownElement
from dframes.order import (
    Lattice,
    _bool_matmul,
    _joins,
    _closure_from_pairs,
    bound_table,
    down_closure_pairs,
    up_closure_pairs,
)
from dframes.frames import Frame
from dframes.search import frame_pool
from oracles import (
    all_lattices,
    are_order_isomorphic,
    brute_bound,
    directed_joins_bruteforce,
    join_all,
    meet_all,
)


def brute_glb(lat, i, j):
    return brute_bound(lat.leq, i, j, lower=True)


def brute_lub(lat, i, j):
    return brute_bound(lat.leq, i, j, lower=False)


SAMPLE_LATTICES = [
    Lattice.chain(1),
    Lattice.chain(3),
    Lattice.chain(4),
    Lattice.boolean(2),
    Lattice.boolean(3),
    Lattice.pentagon(),
    Lattice.diamond3(),
]


def test_chain_tables():
    c3 = Lattice.chain(3)
    assert c3.elements == ("0", "c", "1")
    assert c3.meet[c3.idx("c"), c3.idx("1")] == c3.idx("c")
    assert c3.join[c3.idx("0"), c3.idx("c")] == c3.idx("c")


def test_diamond_meet_join_forced():
    lat = Lattice.from_covers("0ab1", [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
    a, b = lat.idx("a"), lat.idx("b")
    assert lat.meet[a, b] == lat.bottom
    assert lat.join[a, b] == lat.top


@pytest.mark.parametrize("lat", SAMPLE_LATTICES, ids=lambda lat: f"n{lat.n}")
def test_tables_agree_with_bruteforce(lat):
    for i in range(lat.n):
        for j in range(lat.n):
            assert lat.meet[i, j] == brute_glb(lat, i, j)
            assert lat.join[i, j] == brute_lub(lat, i, j)


KERNEL_LATTICES = all_lattices(5) + [Lattice.boolean(3), Lattice.chain(8), Lattice.chain(40)]


@pytest.mark.parametrize("lat", KERNEL_LATTICES, ids=lambda lat: f"n{lat.n}-{lat.leq.sum()}")
def test_bound_kernel_matches_per_pair_scan(lat):
    for lower, built in ((True, lat.meet), (False, lat.join)):
        table, ok = bound_table(lat.leq, lower)
        assert ok.all()
        assert table.dtype == np.int64
        expected = [[brute_bound(lat.leq, i, j, lower) for j in range(lat.n)] for i in range(lat.n)]
        assert table.tolist() == expected
        assert built.tolist() == expected


NON_LATTICES = [
    # two maximal elements: every glb exists, a and b have no lub
    ("0ab", [("0", "a"), ("0", "b")], "no lub for 'a' and 'b'"),
    # an antichain: no common lower bound at all
    ("abc", [], "no glb for 'a' and 'b'"),
    # two minimal elements under a top
    ("ab1", [("a", "1"), ("b", "1")], "no glb for 'a' and 'b'"),
    # a bow tie: c and d have two lower bounds and no greatest one
    ("0abcd1", [("0", "a"), ("0", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
                ("c", "1"), ("d", "1")], "no glb for 'c' and 'd'"),
]


@pytest.mark.parametrize("elements, covers, message", NON_LATTICES)
def test_non_lattices_name_the_first_missing_bound(elements, covers, message):
    with pytest.raises(NotALattice) as err:
        Lattice.from_covers(elements, covers)
    assert str(err.value) == message
    leq = _closure_from_pairs(tuple(elements), covers)
    for lower in (True, False):
        table, ok = bound_table(leq, lower)
        for i in range(len(elements)):
            for j in range(len(elements)):
                expected = brute_bound(leq, i, j, lower)
                assert ok[i, j] == (expected is not None)
                if expected is not None:
                    assert table[i, j] == expected


def test_pentagon_is_a_lattice_but_not_distributive():
    n5 = Lattice.pentagon()
    assert n5.n == 5
    witness = n5.distributivity_witness
    assert witness is not None
    a, b, c = witness
    assert n5.meet[a, n5.join[b, c]] != n5.join[n5.meet[a, b], n5.meet[a, c]]


def loop_distributivity_witness(lat):
    """The first index triple violating distributivity, in row-major order,
    by a triple loop: the reference for distributivity_witness."""
    meet, join = lat.meet.tolist(), lat.join.tolist()
    for a in range(lat.n):
        for b in range(lat.n):
            for c in range(lat.n):
                if meet[a][join[b][c]] != join[meet[a][b]][meet[a][c]]:
                    return a, b, c
    return None


@pytest.mark.parametrize("lat", KERNEL_LATTICES + [Lattice.pentagon(), Lattice.diamond3()],
                         ids=lambda lat: f"n{lat.n}-{lat.leq.sum()}")
def test_distributivity_witness_is_the_first_row_major_violation(lat):
    assert lat.distributivity_witness == loop_distributivity_witness(lat)


def test_distributivity_verdicts():
    # of the kernel lattices only N5 and M3 (up to isomorphism) are not
    assert sum(not lat.is_distributive for lat in KERNEL_LATTICES) == 2
    assert Lattice.chain(3).is_distributive
    assert Lattice.boolean(2).is_distributive
    assert not Lattice.diamond3().is_distributive


def test_cyclic_covers_rejected():
    with pytest.raises(CyclicOrder):
        Lattice.from_covers("ab", [("a", "b"), ("b", "a")])


def test_missing_bounds_rejected():
    # two incomparable points: no common upper bound
    with pytest.raises(NotALattice):
        Lattice.from_covers("ab", [])


def test_unknown_element_in_covers():
    with pytest.raises(UnknownElement):
        Lattice.from_covers("ab", [("a", "zz")])


def test_heyting_on_chain():
    c3 = Lattice.chain(3)
    c, zero, one = c3.idx("c"), c3.idx("0"), c3.idx("1")
    # brute force over all x with c /\ x <= 0
    expected = join_all(c3, [x for x in range(3) if c3.leq[c3.meet[c, x], zero]])
    assert c3.implies(c, zero) == expected == zero
    for a in range(3):
        assert c3.implies(a, a) == one
        assert c3.implies(one, a) == a


@pytest.mark.parametrize(
    "lat", [lat for lat in SAMPLE_LATTICES if lat.is_distributive],
    ids=lambda lat: f"n{lat.n}",
)
def test_residuation_law(lat):
    for a in range(lat.n):
        for b in range(lat.n):
            imp = lat.implies(a, b)
            for c in range(lat.n):
                assert lat.leq[lat.meet[a, c], b] == lat.leq[c, imp]


def implication_by_joins(lat):
    """Each cell a -> b as the join_all of {c | a meet c <= b}, one cell at a
    time.  The reference for Lattice.implication."""
    table = np.zeros((lat.n, lat.n), dtype=np.int64)
    for a in range(lat.n):
        for b in range(lat.n):
            table[a, b] = join_all(lat, np.where(lat.leq[lat.meet[a, :], b])[0])
    return table


def test_implication_table_matches_the_per_cell_joins():
    lattices = frame_pool(5) + [Lattice.chain(40), Frame.boolean(5),
                                Lattice.pentagon(), Lattice.diamond3()]
    # indexed top first: the least upper bound is then never the first one by index
    reversed_ = [Lattice(lat.elements[::-1], lat.leq[::-1, ::-1]) for lat in lattices[-3:]]
    for lat in lattices + reversed_:
        assert (lat.implication == implication_by_joins(lat)).all(), lat


@pytest.mark.parametrize("lat", frame_pool(6) + [Frame.boolean(4), Frame.chain(8),
                                                 Lattice.chain(80)],
                         ids=lambda lat: f"{lat.n}-{int(lat.leq.sum())}")
def test_set_bound_step_matches_the_folds(lat):
    """_joins against join_all and meet_all on seeded masks of every density,
    the empty row first."""
    rng = np.random.default_rng(lat.n)
    rows = rng.random((64, lat.n)) < rng.random((64, 1))
    rows[0] = False
    joins, meets = _joins(rows, lat.leq), _joins(rows, lat.leq.T)
    for row, join, meet in zip(rows, joins, meets):
        assert join == join_all(lat, np.flatnonzero(row))
        assert meet == meet_all(lat, np.flatnonzero(row))


def test_pseudocomplements():
    c3 = Lattice.chain(3)
    c = c3.idx("c")
    assert c3.pseudocomplement(c) == c3.bottom
    assert c3.pseudocomplement(c3.pseudocomplement(c)) == c3.top
    assert c3.pseudocomplement(c3.bottom) == c3.top
    b4 = Lattice.boolean(2)
    for x in range(b4.n):
        star = b4.pseudocomplement(x)
        assert b4.meet[x, star] == b4.bottom and b4.join[x, star] == b4.top
        assert b4.pseudocomplement(star) == x


# -- pair-set machinery ------------------------------------------------------


def pair_matrix(a, b, pairs):
    mat = np.zeros((a.n, b.n), dtype=bool)
    for i, j in pairs:
        mat[i, j] = True
    return mat


def test_down_closure_extremes():
    a, b = Lattice.chain(3), Lattice.boolean(2)
    top_only = pair_matrix(a, b, [(a.top, b.top)])
    assert down_closure_pairs(a, b, top_only).all()
    bottom_only = pair_matrix(a, b, [(a.bottom, b.bottom)])
    assert (down_closure_pairs(a, b, bottom_only) == bottom_only).all()
    assert (up_closure_pairs(a, b, bottom_only)).all()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_down_closure_matches_definition(data):
    a = data.draw(st.sampled_from(SAMPLE_LATTICES))
    b = data.draw(st.sampled_from(SAMPLE_LATTICES))
    cells = [(i, j) for i in range(a.n) for j in range(b.n)]
    chosen = data.draw(st.lists(st.sampled_from(cells), max_size=5))
    mat = pair_matrix(a, b, chosen)
    closed = down_closure_pairs(a, b, mat)
    expected = np.zeros_like(mat)
    for x in range(a.n):
        for y in range(b.n):
            expected[x, y] = any(a.leq[x, i] and b.leq[y, j] for i, j in chosen)
    assert (closed == expected).all()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_directed_join_closure_matches_bruteforce(data):
    # Over finite carriers the directed-join closure is the identity, which
    # is why no code in the package computes it.
    a = data.draw(st.sampled_from([Lattice.chain(3), Lattice.boolean(2)]))
    b = data.draw(st.sampled_from([Lattice.chain(2), Lattice.chain(3)]))
    cells = [(i, j) for i in range(a.n) for j in range(b.n)]
    chosen = data.draw(st.lists(st.sampled_from(cells), max_size=6))
    mat = pair_matrix(a, b, chosen)
    assert (directed_joins_bruteforce(a, b, mat) == mat).all()


def test_directed_join_closure_fixes_down_sets():
    a, b = Lattice.boolean(2), Lattice.chain(3)
    mat = down_closure_pairs(a, b, pair_matrix(a, b, [(a.idx("a"), b.idx("c"))]))
    assert (directed_joins_bruteforce(a, b, mat) == mat).all()


def test_directed_join_closure_fixes_antichains():
    b4 = Lattice.boolean(2)
    c3 = Lattice.chain(3)
    antichain = pair_matrix(b4, c3, [(b4.idx("a"), c3.idx("0")), (b4.idx("b"), c3.idx("c"))])
    assert (directed_joins_bruteforce(b4, c3, antichain) == antichain).all()


def test_order_isomorphism_search():
    assert are_order_isomorphic(Lattice.chain(3), Lattice.chain(3))
    assert not are_order_isomorphic(Lattice.chain(4), Lattice.boolean(2))
    assert are_order_isomorphic(
        Lattice.boolean(2),
        Lattice.from_covers("0xy1", [("0", "x"), ("0", "y"), ("x", "1"), ("y", "1")]),
    )


def test_float32_boolean_product_matches_int64():
    """The float32 product's `> 0` is exact: it equals the int64 product's on
    random boolean matrices of every density up to 64 x 64."""
    rng = np.random.default_rng(17)
    for _ in range(300):
        n, k, m = rng.integers(1, 65, size=3)
        density = rng.random()
        a, b = rng.random((n, k)) < density, rng.random((k, m)) < density
        want = (a.astype(np.int64) @ b.astype(np.int64)) > 0
        got = _bool_matmul(a, b)
        assert got.dtype == bool and (got == want).all()
    full = np.ones((64, 64), dtype=bool)
    assert _bool_matmul(full, full).all() and not _bool_matmul(full, ~full).any()
