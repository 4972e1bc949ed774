import gc
import inspect
import io
import os
import random
import subprocess
import sys
import textwrap
import weakref
from collections import Counter
from functools import cached_property, reduce
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from dframes import cli, documents, subdlocale, sweeps
from dframes.density import (
    con_preorder,
    dense_core,
    dense_members,
    double_pseudocomplements,
    is_dense_sub_d_locale,
    pseudocomplements,
    saturation_nucleus,
)
from dframes.dframe import (
    DFrame,
    check_dframe,
    is_extremal_epi,
    minimal_dframe,
    symmetric_dframe,
)
from dframes.errors import BrokenInvariant, InvalidDFrame, NotASubDLocale, SizeGuardExceeded
from dframes.fixtures import three_three
from dframes.search import frame_pool, random_dframe, standard_corpus
from dframes.frames import (
    Frame,
    Sublocale,
    closed_sublocale,
    enumerate_sublocales,
    one_sublocale,
    open_sublocale,
    whole_sublocale,
)
from dframes.subdlocale import (
    SubDLocale,
    SubDLocaleLattice,
    admission_matrix,
    axiom_planes,
    build_sub_d_locale,
    enumerate_sub_d_locales,
    hasse_dot,
    induced_relations,
    join_sub_d_locales,
    quotient_epis,
    try_sub_d_locale,
)
from dframes.sweeps import Sweep, full_sweep, sweep_dframe
from dframes.order import bound_table
from oracles import brute_bound, dframe_axioms, member_quotient_morphisms

C3 = Frame.chain(3)
SRC = str(Path(__file__).resolve().parent.parent / "src")

# The known Hasse diagram of the sub-d-locale lattice of the minimal d-frame
# on two 3-chains: ten members, sixteen cover edges.
FIGURE_LABELS = {
    "3.3", "c(c).3", "3.c(c)", "3.o(c)", "o(c).3",
    "c(c).c(c)", "c(c).o(c)", "o(c).c(c)", "o(c).o(c)", "1.1",
}
FIGURE_COVERS = {
    ("c(c).3", "3.3"), ("3.c(c)", "3.3"), ("3.o(c)", "3.3"), ("o(c).3", "3.3"),
    ("c(c).c(c)", "c(c).3"), ("c(c).o(c)", "c(c).3"),
    ("c(c).c(c)", "3.c(c)"), ("o(c).c(c)", "3.c(c)"),
    ("c(c).o(c)", "3.o(c)"), ("o(c).o(c)", "3.o(c)"),
    ("o(c).c(c)", "o(c).3"), ("o(c).o(c)", "o(c).3"),
    ("1.1", "c(c).c(c)"), ("1.1", "c(c).o(c)"),
    ("1.1", "o(c).c(c)"), ("1.1", "o(c).o(c)"),
}


def test_try_sub_d_locale_accepts_nontrivial_pairs():
    tt = three_three()
    sub = try_sub_d_locale(tt, closed_sublocale(tt.minus, "c"), open_sublocale(tt.plus, "c"))
    assert sub.label == "c(c).o(c)"
    assert sub.as_dframe.validate().ok
    whole = try_sub_d_locale(tt, whole_sublocale(tt.minus), whole_sublocale(tt.plus))
    assert whole.is_whole
    assert (whole.con == tt.con).all() and (whole.tot == tt.tot).all()


def test_try_sub_d_locale_rejects_one_sided_trivial():
    tt = three_three()
    with pytest.raises(NotASubDLocale) as exc:
        try_sub_d_locale(tt, whole_sublocale(tt.minus), one_sublocale(tt.plus))
    assert exc.value.report.first_failure.name.startswith("con-tot")


def test_enumerate_reproduces_the_known_diagram():
    ds = enumerate_sub_d_locales(three_three())
    assert ds.n == 10
    assert set(ds.labels) == FIGURE_LABELS
    covers = {
        (ds.labels[i], ds.labels[j])
        for i, j in zip(*np.where(ds.covers))
    }
    assert covers == FIGURE_COVERS


def test_enumerate_trivial_and_sym2():
    triv = minimal_dframe(Frame.chain(1), Frame.chain(1))
    assert enumerate_sub_d_locales(triv).n == 1
    s2 = symmetric_dframe(Frame.chain(2))
    ds = enumerate_sub_d_locales(s2)
    assert ds.n == brute_force_count(s2)


def brute_force_count(df):
    """Independent double loop with definitional induced relations."""
    count = 0
    for sm in enumerate_sublocales(df.minus):
        for sp in enumerate_sublocales(df.plus):
            con = np.zeros((len(sp.members), len(sm.members)), dtype=bool)
            for p, m in zip(*np.where(df.con)):
                con[sp.members.index(sp.quotient[p]), sm.members.index(sm.quotient[m])] = True
            tot = df.tot[np.ix_(sm.members, sp.members)]
            from dframes.dframe import DFrame

            cand = DFrame(sm.as_frame, sp.as_frame, con, tot)
            if check_dframe(cand).ok:
                count += 1
    return count


def test_enumeration_count_matches_bruteforce_oracle():
    for df in (three_three(), symmetric_dframe(Frame.boolean(2))):
        assert enumerate_sub_d_locales(df).n == brute_force_count(df)


def test_size_guard():
    tt = three_three()
    for _ in range(2):  # a refused size is not memoised
        with pytest.raises(SizeGuardExceeded):
            enumerate_sub_d_locales(tt, max_pairs=3)


def test_each_call_builds_a_lattice_its_caller_alone_holds():
    # 3.3 has 2^(2+2) = 16 sublocale pairs: any guard from 16 up passes and
    # builds an equal lattice; a smaller one raises on every call
    tt = three_three()
    ds = enumerate_sub_d_locales(tt)
    for max_pairs in (400, 16, 100):
        again = enumerate_sub_d_locales(tt, max_pairs=max_pairs)
        assert again is not ds
        assert np.array_equal(again.pairs, ds.pairs) and again.labels == ds.labels
    for _ in range(2):
        with pytest.raises(SizeGuardExceeded):
            enumerate_sub_d_locales(tt, max_pairs=15)
    # nothing on the d-frame keeps a lattice alive once its caller drops it
    alive = weakref.ref(ds)
    del ds, again
    gc.collect()
    assert alive() is None


def test_join_and_meet_tables_hold_the_narrowest_signed_type():
    # signed, so that a missing member's -1 still fails the certificate
    for chain, n, expected in ((3, 10, np.int8), (4, 50, np.int8), (5, 226, np.int16)):
        ds = enumerate_sub_d_locales(minimal_dframe(Frame.chain(chain), Frame.chain(chain)))
        assert ds.n == n
        assert ds.join_table.dtype == ds.meet_table.dtype == expected


def test_sweeps_admit_each_pair_of_a_dframe_once(monkeypatch):
    tt = three_three()
    dense_core(tt)  # the core admits its own pair as a cross-check
    planes, built, induced = [], Counter(), Counter()

    def counted_planes(parent, subs_minus, subs_plus):
        if parent is tt:
            planes.append((len(subs_minus), len(subs_plus)))
        return axiom_planes(parent, subs_minus, subs_plus)

    def counter(original, calls):
        def counted(parent, minus, plus):
            if parent is tt:
                calls[minus, plus] += 1
            return original(parent, minus, plus)
        return counted

    monkeypatch.setattr(subdlocale, "axiom_planes", counted_planes)
    monkeypatch.setattr(subdlocale, "build_sub_d_locale", counter(build_sub_d_locale, built))
    monkeypatch.setattr(subdlocale, "induced_relations", counter(induced_relations, induced))
    assert full_sweep([tt]).ok
    assert planes == [(len(enumerate_sublocales(tt.minus)), len(enumerate_sublocales(tt.plus)))]
    assert not built
    # the sweep decides the member quotients in the parent's index space; the
    # per-morphism route induces each member's relations once
    assert not induced
    member_quotient_morphisms([tt])
    assert induced and max(induced.values()) == 1


def test_full_sweep_enumerates_lattices_only_at_its_guard(monkeypatch):
    # a guard that refuses a lattice skips its member quotients too: nothing
    # enumerates the lattice again at the default guard
    guards = []

    def spy(*args, **kwargs):
        call = inspect.signature(enumerate_sub_d_locales).bind(*args, **kwargs)
        call.apply_defaults()
        guards.append(call.arguments["max_pairs"])
        return enumerate_sub_d_locales(*args, **kwargs)

    monkeypatch.setattr(sweeps, "enumerate_sub_d_locales", spy)
    corpus = standard_corpus(3) + [three_three()]
    assert full_sweep(corpus, max_pairs=1).ok
    assert len(guards) == len(corpus) and set(guards) == {1}


def test_full_sweep_decides_each_lattice_member_laws_once(monkeypatch):
    # dense_members, quotient_epis and member_cores: one member_plane call
    # each per lattice, which sweep_dframe and sweep_quotients share
    calls = _count_calls(monkeypatch, subdlocale.member_plane)
    corpus = standard_corpus(3) + [three_three()]
    assert all(df.minus.n * df.plus.n <= 16 for df in corpus)
    assert full_sweep(corpus).ok
    assert len(calls) == 3 * len(corpus)
    assert Counter(id(ds) for ds, _ in calls) == {id(ds): 3 for ds, _ in calls}


# check_dframe's axioms, in its order: the order of axiom_planes' planes.
AXIOMS = tuple(c.name for c in check_dframe(three_three()).checks)

# The parents of the dsub-lattice benchmark workload.
LATTICE_SPECS = ("min:chain:5:chain:5", "sym:chain:5", "min:bool:2:chain:5",
                 "min:chain:5:bool:2", "sym:bool:2", "min:bool:3:chain:4")


def _lattice_parents():
    """3.3 and the other parents of the dsub-lattice benchmark workload."""
    return [three_three()] + [documents.dframe_from_spec(s) for s in LATTICE_SPECS]


def _valid_parents():
    """3.3, sym:bool:4, the lattice parents, standard_corpus(5) and 200 seeded
    random d-frames."""
    rng = random.Random(8)
    pool = frame_pool(4)
    return ([three_three(), documents.dframe_from_spec("sym:bool:4")]
            + [documents.dframe_from_spec(s) for s in LATTICE_SPECS]
            + standard_corpus(5) + [random_dframe(rng, pool=pool) for _ in range(200)])


def test_admission_matrix_matches_the_axiom_route():
    failures = Counter()
    for df in _valid_parents():
        subs_minus, subs_plus = enumerate_sublocales(df.minus), enumerate_sublocales(df.plus)
        admitted = admission_matrix(df, subs_minus, subs_plus)
        assert admitted.shape == (len(subs_minus), len(subs_plus))
        for i, sm in enumerate(subs_minus):
            for j, sp in enumerate(subs_plus):
                report = build_sub_d_locale(df, sm, sp)[1]
                assert admitted[i, j] == report.ok, (df.name, sm, sp)
                failures[tuple(c.name for c in report.checks if not c.ok)] += 1
    # over a valid parent only the con-tot axioms fail, and each side alone
    # rejects some pairs
    assert set(failures) == {(), ("con-tot-plus",), ("con-tot-minus",),
                             ("con-tot-plus", "con-tot-minus")}
    assert sum(failures.values()) > 6000


def _oracle_planes(df, subs_minus, subs_plus) -> np.ndarray:
    """axiom_planes by the definitional oracle on each pair's own d-frame."""
    def verdicts(sm, sp):
        axioms = dframe_axioms(SubDLocale(df, sm, sp).as_dframe)
        return [axioms[name][0] for name in AXIOMS]
    return np.array([[verdicts(sm, sp) for sp in subs_plus] for sm in subs_minus]).transpose(2, 0, 1)


def test_axiom_planes_match_the_axiom_route_per_axiom_and_pair():
    mismatches, pairs = [], 0
    for df in _valid_parents():
        subs_minus, subs_plus = enumerate_sublocales(df.minus), enumerate_sublocales(df.plus)
        planes = axiom_planes(df, subs_minus, subs_plus)
        assert planes.shape == (9, len(subs_minus), len(subs_plus))
        assert not planes.flags.writeable
        expected = _oracle_planes(df, subs_minus, subs_plus)
        mismatches += [(df.name, *cell) for cell in np.argwhere(planes != expected)]
        pairs += len(subs_minus) * len(subs_plus)
    assert mismatches == [] and pairs > 7000


def _single_cell_mutants(df):
    """df with one cell of con, or one of tot, flipped: every such quadruple."""
    for name in ("con", "tot"):
        for cell in np.ndindex(getattr(df, name).shape):
            rel = getattr(df, name).copy()
            rel[cell] = not rel[cell]
            con, tot = (rel, df.tot) if name == "con" else (df.con, rel)
            yield DFrame(df.minus, df.plus, con, tot, name=f"{df.name} {name}{cell}")


def test_axiom_planes_reject_what_the_axiom_route_rejects(fixture_dir):
    # Over a valid parent only the con-tot planes ever reject (see above), so
    # invalid quadruples show the other six rejecting: on the whole pair,
    # whose induced relations are the quadruple's own, and on every other
    # pair, where both routes raise or both give the same planes.
    quads = [documents.load_path(str(fixture_dir / "bad_contot.json"), strict=True)]
    quads += [*_single_cell_mutants(three_three()),
              *_single_cell_mutants(documents.dframe_from_spec("sym:bool:2"))]
    rejected, batched = Counter(), 0
    for df in quads:
        subs_minus, subs_plus = enumerate_sublocales(df.minus), enumerate_sublocales(df.plus)
        expected = {}
        for sm in subs_minus:
            for sp in subs_plus:
                try:
                    expected[sm, sp] = _oracle_planes(df, [sm], [sp])
                except BrokenInvariant:
                    with pytest.raises(BrokenInvariant):
                        axiom_planes(df, [sm], [sp])
                    continue
                assert (axiom_planes(df, [sm], [sp]) == expected[sm, sp]).all(), (df.name, sm, sp)
        whole = expected[subs_minus[-1], subs_plus[-1]][:, 0, 0]
        rejected.update(AXIOMS[k] for k in np.flatnonzero(~whole))
        if len(expected) == len(subs_minus) * len(subs_plus):
            batched += 1
            assert (axiom_planes(df, subs_minus, subs_plus)
                    == _oracle_planes(df, subs_minus, subs_plus)).all(), df.name
    assert set(rejected) == set(AXIOMS) - {"con-dirjoin"}
    assert batched > 10


def test_axiom_planes_agree_across_chunk_sizes(monkeypatch):
    # two 7-chains: 4096 pairs of 7 * 7 * 7 cells span several chunks by default
    df = documents.dframe_from_spec("min:chain:7:chain:7")
    subs = enumerate_sublocales(df.minus), enumerate_sublocales(df.plus)
    assert 4096 * 7 ** 3 > 2 * subdlocale._SCAN_BLOCK // 16
    planes = axiom_planes(df, *subs)
    for block in (1, 16 * 61 * 7 ** 3, 1 << 40):  # one pair, 61 pairs, all pairs a chunk
        monkeypatch.setattr(subdlocale, "_SCAN_BLOCK", block)
        assert (axiom_planes(df, *subs) == planes).all(), block
    assert planes.all(axis=0).sum() == enumerate_sub_d_locales(df, max_pairs=4096).n


def test_enumeration_refuses_an_invalid_parent(fixture_dir):
    bad = documents.load_path(str(fixture_dir / "bad_contot.json"), strict=True)
    assert not bad.validate().ok
    for _ in range(2):  # a refusal is not remembered either
        with pytest.raises(InvalidDFrame):
            enumerate_sub_d_locales(bad)


def _count_calls(monkeypatch, original):
    """Replace every binding of original in the dframes modules with a
    counting wrapper; returns the list the calls are appended to."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "dframes":
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    return calls


def test_dsub_checks_only_its_parent_and_builds_no_member_frame(monkeypatch, tmp_path):
    path = tmp_path / "five_five.json"
    path.write_text(documents.dumps(documents.dframe_from_spec("min:chain:5:chain:5")))
    checks = _count_calls(monkeypatch, check_dframe)
    builds = []
    raw = Sublocale.__dict__["as_frame"]

    def counted(self):
        builds.append(self)
        return raw.func(self)

    prop = cached_property(counted)
    prop.__set_name__(Sublocale, "as_frame")
    monkeypatch.setattr(Sublocale, "as_frame", prop)
    out = io.StringIO()
    assert cli.main(["dsub", str(path)], stdout=out) == 0
    assert "member count :: 226 members" in out.getvalue()
    assert len(checks) == 1 and builds == []


def test_dsub_refuses_by_primes_before_enumerating_a_sublocale(monkeypatch, tmp_path):
    # two 40-chains: 2^(39+39) sublocale pairs
    path = tmp_path / "forty_forty.json"
    path.write_text(documents.dumps(documents.dframe_from_spec("min:chain:40:chain:40")))
    calls = _count_calls(monkeypatch, enumerate_sublocales)
    err = io.StringIO()
    assert cli.main(["dsub", str(path)], stdout=io.StringIO(), stderr=err) == 2
    assert "sublocale pairs exceed the guard of 400" in err.getvalue()
    assert calls == []


def test_induced_tot_is_restriction_and_quotients_are_extremal():
    ds = enumerate_sub_d_locales(three_three())
    for member in ds.members:
        assert (member.tot == member.restricted_tot()).all()
        assert is_extremal_epi(member.quotient_hom())
        # unique relations: rebuilding from scratch agrees
        rebuilt, report = build_sub_d_locale(member.parent, member.minus, member.plus)
        assert report.ok
        assert (rebuilt.con == member.con).all() and (rebuilt.tot == member.tot).all()


def test_member_laws_match_the_per_member_routes():
    # every member of every lattice: standard_corpus(6) at 1024 pairs, 200
    # seeded random d-frames and the parents of the dsub-lattice workload
    rng, pool = random.Random(25), frame_pool(4)
    lattices = ([enumerate_sub_d_locales(df, max_pairs=1024) for df in standard_corpus(6)]
                + [enumerate_sub_d_locales(random_dframe(rng, pool=pool)) for _ in range(200)]
                + [enumerate_sub_d_locales(df) for df in _lattice_parents()])
    verdicts, mismatches = Counter(), []
    for ds in lattices:
        dense, epis = dense_members(ds), quotient_epis(ds)
        assert dense.shape == epis.shape == (ds.n,)
        assert not dense.flags.writeable and not epis.flags.writeable
        for k, m in enumerate(ds.members):
            expected = (is_dense_sub_d_locale(m), is_extremal_epi(m.quotient_hom()))
            if (dense[k], epis[k]) != expected:
                mismatches.append((ds.parent.name, m.label))
            verdicts[expected] += 1
    assert mismatches == []
    assert set(verdicts) == {(True, True), (False, True)}
    assert sum(verdicts.values()) > 20000


def test_quotient_epis_reject_a_tot_image_that_is_not_the_restriction():
    # Over a single-cell mutant of tot the image of tot under a quotient pair
    # can leave its restriction; the per-member route raises there.
    verdicts = Counter()
    for base in (three_three(), documents.dframe_from_spec("sym:bool:2")):
        pairs = enumerate_sub_d_locales(base).pairs
        for cell in np.ndindex(base.tot.shape):
            tot = base.tot.copy()
            tot[cell] = not tot[cell]
            bad = DFrame(base.minus, base.plus, base.con, tot, name=f"{base.name} tot{cell}")
            ds = SubDLocaleLattice(bad, pairs)
            for m, batched in zip(ds.members, quotient_epis(ds)):
                try:
                    expected = is_extremal_epi(m.quotient_hom())
                except BrokenInvariant:
                    expected = False
                assert batched == expected, (bad.name, m.label)
                verdicts[expected] += 1
    assert verdicts[True] > 0 and verdicts[False] > 0


EPI_VERDICT = "3.3: quotient pairs are extremal epis"


@pytest.mark.parametrize("side", [0, 1])
def test_a_quotient_missing_a_member_element_fails_the_epi_verdict(monkeypatch, side):
    # c(c).c(c) is not dense, so its quotients reach no density verdict
    tt = three_three()
    ds = enumerate_sub_d_locales(tt)
    k = ds.labels.index("c(c).c(c)")
    lat = (tt.minus, tt.plus)[side]
    x = lat.idx("c")  # a member of c(c) on both sides, below the top

    gather = SubDLocaleLattice.stacks

    def missing(lattice, attr):
        stacks = gather(lattice, attr)
        if attr == "quotient" and lattice.parent is tt:  # every lattice of tt, the sweep's too
            stacks[side][k][stacks[side][k] == x] = lat.top  # nothing reaches x
        return stacks

    assert x in (ds.members[k].minus, ds.members[k].plus)[side].members
    monkeypatch.setattr(SubDLocaleLattice, "stacks", missing)
    assert list(np.flatnonzero(~quotient_epis(ds))) == [k]
    sweep = Sweep()
    sweep_dframe(tt, sweep)
    assert sweep.failures() == [(EPI_VERDICT, "")]


def test_join_values():
    ds = enumerate_sub_d_locales(three_three())
    lbl = list(ds.labels)
    j = ds.join(lbl.index("c(c).c(c)"), lbl.index("o(c).o(c)"))
    assert ds.labels[j] == "3.3"
    assert ds.join(ds.bottom, lbl.index("3.c(c)")) == lbl.index("3.c(c)")


def test_meet_values():
    ds = enumerate_sub_d_locales(three_three())
    lbl = list(ds.labels)
    m = ds.meet(lbl.index("3.c(c)"), lbl.index("3.o(c)"))
    assert ds.labels[m] == "1.1"
    assert ds.meet(ds.top, lbl.index("c(c).3")) == lbl.index("c(c).3")
    # the componentwise intersection (3, {1}) is not the meet here
    inter_minus = whole_sublocale(three_three().minus)
    assert len(inter_minus.members) == 3


def test_join_is_least_upper_bound_exhaustively():
    ds = enumerate_sub_d_locales(three_three())
    for i in range(ds.n):
        for j in range(ds.n):
            k = ds.join(i, j)
            assert k == ds.index_of(join_sub_d_locales(ds.members[i], ds.members[j]))
            assert ds.leq[i, k] and ds.leq[j, k]
            for u in range(ds.n):
                if ds.leq[i, u] and ds.leq[j, u]:
                    assert ds.leq[k, u]
            m = ds.meet(i, j)
            assert ds.leq[m, i] and ds.leq[m, j]
            for u in range(ds.n):
                if ds.leq[u, i] and ds.leq[u, j]:
                    assert ds.leq[u, m]


def test_is_join_and_is_meet_accept_exactly_the_per_pair_bounds():
    ds = enumerate_sub_d_locales(three_three())
    for i in range(ds.n):
        for j in range(ds.n):
            lub, glb = brute_bound(ds.leq, i, j, lower=False), brute_bound(ds.leq, i, j, lower=True)
            assert [ds.is_join(k, i, j) for k in range(ds.n)] == [k == lub for k in range(ds.n)]
            assert [ds.is_meet(k, i, j) for k in range(ds.n)] == [k == glb for k in range(ds.n)]


@pytest.mark.parametrize("df", [three_three(), documents.dframe_from_spec("sym:chain:5")],
                         ids=lambda d: d.name)
def test_componentwise_join_of_many_members_is_the_iterated_binary_join(df):
    # the member at the OR of many mask pairs: members are closed under OR
    ds = enumerate_sub_d_locales(df)
    if ds.n <= 10:  # every nonempty set of members
        subsets = [ks for size in range(1, ds.n + 1) for ks in combinations(range(ds.n), size)]
    else:
        rng = random.Random(5)
        subsets = [tuple(rng.sample(range(ds.n), rng.randint(2, 6))) for _ in range(200)]
    for ks in subsets + [tuple(range(ds.n))]:
        assert ds.by_mask[np.bitwise_or.reduce(ds.masks[list(ks)])] == reduce(ds.join, ks)


def test_index_of_rejects_non_members():
    ds = enumerate_sub_d_locales(three_three())
    partial = SubDLocaleLattice(ds.parent, ds.pairs[:-1])
    assert partial.index_of(ds.members[0]) == 0
    with pytest.raises(KeyError):
        partial.index_of(ds.members[-1])
    # 2.2's whole pair has the mask of 3.3's o(c).o(c), over other frames
    two_two = enumerate_sub_d_locales(minimal_dframe(Frame.chain(2), Frame.chain(2)))
    with pytest.raises(KeyError):
        ds.index_of(two_two.members[two_two.top])


BOUNDS_VERDICT = "3.3: constructive joins and meets realise the bounds"
DENSE_MEET_VERDICT = "3.3: meets of dense members are dense intersections"


def test_a_join_missing_from_a_partial_lattice_is_a_broken_invariant(monkeypatch):
    tt = three_three()
    ds = enumerate_sub_d_locales(tt)
    partial = SubDLocaleLattice(tt, ds.pairs[:-1])  # drops the whole pair 3.3
    lbl = list(partial.labels)
    i, j = lbl.index("3.c(c)"), lbl.index("3.o(c)")  # their join is 3.3
    with pytest.raises(BrokenInvariant, match="not a member"):
        partial.join(i, j)
    with pytest.raises(BrokenInvariant, match="not a member"):
        partial.top
    with pytest.raises(BrokenInvariant, match="not a member"):
        SubDLocaleLattice(tt, ds.pairs[1:]).bottom  # drops the one-point pair 1.1
    monkeypatch.setattr(sweeps, "enumerate_sub_d_locales", lambda df, **guards: partial)
    sweep = Sweep()
    sweep_dframe(tt, sweep)
    assert (BOUNDS_VERDICT, "") in sweep.failures()


def test_sweep_records_a_wrong_join_index_as_a_failed_verdict(monkeypatch):
    # the definition check takes the bottom for every join
    monkeypatch.setattr(SubDLocaleLattice, "is_join", lambda self, k, i, j: k == self.bottom)
    sweep = Sweep()
    sweep_dframe(three_three(), sweep)
    assert (BOUNDS_VERDICT, "") in sweep.failures()


def test_sweep_records_a_wrong_meet_index_as_a_failed_verdict(monkeypatch):
    # the definition check takes the top for every meet
    monkeypatch.setattr(SubDLocaleLattice, "is_meet", lambda self, k, i, j: k == self.top)
    sweep = Sweep()
    sweep_dframe(three_three(), sweep)
    assert (DENSE_MEET_VERDICT, "") in sweep.failures()


def test_sweep_records_an_admission_disagreement_as_a_failed_verdict(monkeypatch):
    tt = three_three()

    def rejects_the_whole_pair(parent, subs_minus, subs_plus):
        planes = axiom_planes(parent, subs_minus, subs_plus).copy()
        if parent is tt:
            i = next(i for i, s in enumerate(subs_minus) if s.is_whole)
            j = next(j for j, s in enumerate(subs_plus) if s.is_whole)
            planes[AXIOMS.index("con-tot-plus"), i, j] = False
        return planes

    monkeypatch.setattr(subdlocale, "axiom_planes", rejects_the_whole_pair)
    sweep = Sweep()
    sweep_dframe(tt, sweep)
    assert sweep.failures() == [
        ("3.3: axiom route admits the members, induced tot equals restriction", "")]


def test_sweep_fails_a_lattice_that_repeats_a_pair(monkeypatch):
    # the repeated pair sets no new cell of the member grid, so only the
    # member count tells the lattice from the axiom route's
    tt = three_three()

    def repeats_its_last_pair(parent, max_pairs=400):
        ds = enumerate_sub_d_locales(parent, max_pairs)
        if parent is not tt:
            return ds
        return SubDLocaleLattice(parent, np.vstack([ds.pairs, ds.pairs[-1:]]))

    monkeypatch.setattr(sweeps, "enumerate_sub_d_locales", repeats_its_last_pair)
    sweep = Sweep()
    sweep_dframe(tt, sweep)
    assert sweep.failures() == [
        ("3.3: axiom route admits the members, induced tot equals restriction", "")]


def test_bounds_check_survives_optimised_python():
    script = textwrap.dedent(f"""
        from dframes.fixtures import three_three
        from dframes.subdlocale import SubDLocaleLattice
        from dframes.sweeps import Sweep, sweep_dframe
        SubDLocaleLattice.is_join = lambda self, k, i, j: k == self.bottom
        sweep = Sweep()
        sweep_dframe(three_three(), sweep)
        assert False, "asserts must be stripped under -O"
        print(({BOUNDS_VERDICT!r}, "") in sweep.failures())
    """)
    done = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": SRC})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "True"


def test_handed_out_arrays_are_frozen():
    tt = three_three()
    lazy = enumerate_sub_d_locales(tt).members[4]
    assert "relations" not in vars(lazy)
    lazy.tot  # builds con with it
    assert lazy.as_dframe.con is lazy.con and lazy.as_dframe.tot is lazy.tot
    sub = closed_sublocale(tt.minus, "c")
    sub.member_vector, sub.quotient  # materialise the cached arrays
    member = enumerate_sub_d_locales(tt).members[3]
    core = dense_core(tt)  # memoised: every caller on tt shares it
    tt.minus.implication, tt.minus.covers
    swapped = tt.swap()
    handed_out = [pseudocomplements(d) for d in (tt, swapped)]
    handed_out += [con_preorder(d) for d in (tt, swapped)]
    handed_out += [double_pseudocomplements(d) for d in (tt, swapped)]
    swap_core = dense_core(swapped)  # computed on the swap, from its own memo
    # a d-frame holds con, tot and, in its memo, its minus side's
    # pseudocomplements and preorder; a frame its order, meets, joins,
    # implications, covers and orders
    for obj, count in ((sub, 2), (member, 2),
                       (core.nu_minus, 1), (core.nu_plus, 1), (core.core, 2),
                       (member.quotient_hom().minus, 1), (tt.minus, 6),
                       (tt, 4), (swapped, 4), (saturation_nucleus(swapped), 1),
                       (swap_core.core, 2), (swap_core.nu_minus, 1), (lazy, 2),
                       (lazy.as_dframe, 2)):
        arrays = held_arrays(obj)
        assert len(arrays) == count
        assert not any(a.flags.writeable for a in arrays)
    assert vars(swapped)["_pseudocomplements"] is handed_out[1]
    assert not any(a.flags.writeable for a in handed_out)


def test_constructive_join_standalone():
    tt = three_three()
    a = try_sub_d_locale(tt, closed_sublocale(tt.minus, "c"), closed_sublocale(tt.plus, "c"))
    b = try_sub_d_locale(tt, open_sublocale(tt.minus, "c"), open_sublocale(tt.plus, "c"))
    joined = join_sub_d_locales(a, b)
    assert joined.is_whole


def test_displayed_nondistributivity_computation():
    ds = enumerate_sub_d_locales(three_three())
    lbl = list(ds.labels)
    oo, tc, to = lbl.index("o(c).o(c)"), lbl.index("3.c(c)"), lbl.index("3.o(c)")
    lhs = ds.join_table[oo, ds.meet_table[tc, to]]
    assert ds.labels[ds.meet_table[tc, to]] == "1.1"
    assert ds.labels[lhs] == "o(c).o(c)"
    rhs = ds.meet_table[ds.join_table[oo, tc], ds.join_table[oo, to]]
    assert ds.labels[ds.join_table[oo, tc]] == "3.3"
    assert ds.labels[rhs] == "3.o(c)"
    assert lhs != rhs
    assert not ds.is_distributive
    assert ds.distributivity_witness() is not None


def test_distributivity_of_small_lattices():
    triv = minimal_dframe(Frame.chain(1), Frame.chain(1))
    assert enumerate_sub_d_locales(triv).is_distributive
    s2 = enumerate_sub_d_locales(symmetric_dframe(Frame.chain(2)))
    # two members form a chain: distributive by brute force
    assert s2.is_distributive
    assert s2.modularity_witness() is None


def test_dot_output():
    ds = enumerate_sub_d_locales(three_three())
    dot = ds.dot()
    assert dot.count("label=") == 10
    assert dot.count("->") == 16
    assert dot.startswith("digraph")
    triv = enumerate_sub_d_locales(minimal_dframe(Frame.chain(1), Frame.chain(1)))
    assert triv.dot().count("->") == 0
    chain = hasse_dot(["0", "c", "1"], Frame.chain(3).leq)
    assert chain.count("label=") == 3
    assert chain.count("->") == 2


def test_dot_is_deterministic():
    a = enumerate_sub_d_locales(three_three()).dot()
    b = enumerate_sub_d_locales(three_three()).dot()
    assert a == b


def test_dot_matches_a_per_cell_scan():
    # edges in row-major order of (lower, upper), as the DOT output promises
    def scan(labels, leq):
        n = len(labels)
        lines = ["digraph hasse {", "  rankdir=BT;", "  node [shape=plaintext];"]
        lines += [f'  n{i} [label="{lab}"];' for i, lab in enumerate(labels)]
        lines += [f"  n{i} -> n{j};" for i in range(n) for j in range(n)
                  if i != j and leq[i][j] and not any(
                      k not in (i, j) and leq[i][k] and leq[k][j] for k in range(n))]
        return "\n".join(lines + ["}"]) + "\n"

    for df in (three_three(), symmetric_dframe(Frame.chain(4))):  # 10 and 50 members
        ds = enumerate_sub_d_locales(df)
        assert ds.dot() == scan(ds.labels, ds.leq.tolist())
    assert hasse_dot("abc", Frame.chain(3).leq) == scan("abc", Frame.chain(3).leq.tolist())


def test_dot_renders_the_covers_it_holds():
    for df in _lattice_parents():
        ds = enumerate_sub_d_locales(df)
        assert ds.dot() == hasse_dot(ds.labels, ds.leq), df.name


# -- the vectorised order, tables and witnesses against per-pair routes -------


def distributivity_violations(ds):
    """Every index triple violating distributivity, in row-major order, by a
    triple loop: the reference for distributivity_witness."""
    meet, join = ds.meet_table.tolist(), ds.join_table.tolist()
    for a in range(ds.n):
        for b in range(ds.n):
            for c in range(ds.n):
                if meet[a][join[b][c]] != join[meet[a][b]][meet[a][c]]:
                    yield a, b, c


def modularity_violations(ds):
    """The same for modularity (a <= b), the reference for modularity_witness."""
    meet, join, leq = ds.meet_table.tolist(), ds.join_table.tolist(), ds.leq.tolist()
    for a in range(ds.n):
        for b in range(ds.n):
            if not leq[a][b]:
                continue
            for x in range(ds.n):
                if join[a][meet[x][b]] != meet[join[a][x]][b]:
                    yield a, b, x


def loop_witness(ds, violations):
    first = next(violations(ds), None)
    return None if first is None else tuple(ds.labels[k] for k in first)


def assert_matches_per_pair_routes(ds):
    members = ds.members
    assert ds.leq.tolist() == [[s.leq(t) for t in members] for s in members]
    for table, lower in ((ds.join_table, False), (ds.meet_table, True)):
        assert table.tolist() == [[brute_bound(ds.leq, i, j, lower) for j in range(ds.n)]
                                  for i in range(ds.n)]


def test_order_tables_and_witnesses_match_the_per_pair_routes_on_the_corpus():
    lattices = [enumerate_sub_d_locales(df) for df in standard_corpus(5) + [three_three()]]
    lattices = [ds for ds in lattices if ds.n <= 40]
    assert len(lattices) == 37
    for ds in lattices:
        assert_matches_per_pair_routes(ds)
        name = ds.parent.name
        assert ds.distributivity_witness() == loop_witness(ds, distributivity_violations), name
        assert ds.modularity_witness() == loop_witness(ds, modularity_violations), name
    verdicts = {(ds.is_distributive, ds.is_modular) for ds in lattices}
    assert verdicts == {(True, True), (False, False)}


def test_order_tables_and_witnesses_on_five_five():
    ds = enumerate_sub_d_locales(minimal_dframe(Frame.chain(5), Frame.chain(5), name="5.5"))
    assert ds.n == 226
    assert_matches_per_pair_routes(ds)
    assert ds.distributivity_witness() == loop_witness(ds, distributivity_violations)
    assert ds.modularity_witness() == loop_witness(ds, modularity_violations)


def test_witness_labels_on_three_three_are_pinned():
    ds = enumerate_sub_d_locales(three_three())
    assert ds.distributivity_witness() == ("o(c).o(c)", "o(c).c(c)", "c(c).o(c)")
    assert ds.modularity_witness() == ("o(c).o(c)", "3.o(c)", "c(c).c(c)")
    distributive = enumerate_sub_d_locales(minimal_dframe(Frame.chain(2), Frame.chain(4)))
    assert distributive.n == 8
    assert distributive.distributivity_witness() is None
    assert distributive.modularity_witness() is None


@pytest.mark.parametrize("witness, violations", [
    ("distributivity_witness", distributivity_violations),
    ("modularity_witness", modularity_violations),
])
def test_witness_found_late(witness, violations):
    # list the members whose row holds no violation first, so the first
    # violating row comes after all of them
    ds = enumerate_sub_d_locales(three_three())
    bad = sorted({a for a, _, _ in violations(ds)})
    order = [k for k in range(ds.n) if k not in bad] + bad
    late = SubDLocaleLattice(ds.parent, ds.pairs[order])
    found = getattr(late, witness)()
    assert found == loop_witness(late, violations)
    assert late.labels.index(found[0]) == ds.n - len(bad) > 0


def doctored(ds, side):
    """The order of ds with the top (bottom) made incomparable to the rest,
    which leaves the coatoms without a join (the atoms without a meet)."""
    leq = ds.leq.copy()
    if side == "join":
        leq[:, ds.top] = False
    else:
        leq[ds.bottom, :] = False
    leq[np.diag_indices(ds.n)] = True
    return leq


@pytest.mark.parametrize("side", ["join", "meet"])
def test_a_non_lattice_order_breaks_the_tables(side):
    ds = enumerate_sub_d_locales(three_three())
    ds.leq = doctored(ds, side)
    with pytest.raises(BrokenInvariant, match=f"must have unique {side}s"):
        getattr(ds, f"{side}_table")


def test_table_check_survives_optimised_python():
    script = textwrap.dedent("""
        from dframes.errors import BrokenInvariant
        from dframes.fixtures import three_three
        from dframes.subdlocale import enumerate_sub_d_locales
        ds = enumerate_sub_d_locales(three_three())
        leq = ds.leq.copy()
        leq[:, ds.top] = False
        leq[ds.top, ds.top] = True
        ds.leq = leq
        assert False, "asserts must be stripped under -O"
        try:
            ds.join_table
        except BrokenInvariant as err:
            print(err)
    """)
    done = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": SRC})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "sub-d-locales must have unique joins"


def test_tables_match_the_order_kernel():
    # the order kernel, bound_table, on the sub-d-locale order is the oracle
    # for the mask tables: on standard_corpus(6), whose D12.D12 is 6.6 (the
    # 6-element chain is D12 in the pool), and on the parents of the
    # dsub-lattice benchmark workload
    parents = (standard_corpus(6) + [three_three()]
               + [documents.dframe_from_spec(spec) for spec in LATTICE_SPECS])
    sizes = []
    for df in parents:
        ds = enumerate_sub_d_locales(df, max_pairs=1024)
        for table, lower in ((ds.join_table, False), (ds.meet_table, True)):
            expected, ok = bound_table(ds.leq, lower)
            assert ok.all() and (table == expected).all(), df.name
        sizes.append(ds.n)
    assert (len(parents), max(sizes)) == (165, 962)  # 6.6 has 962 members


def certificate_mutant(ds, table, condition, lower):
    """table with one condition of the table check broken and the others
    kept: the extreme of the order everywhere (absorption), the column
    where the row lies below it and the extreme elsewhere (symmetry), or
    the extreme on one pair of incomparable members whose bound it is not
    (monotonicity along the covers)."""
    rel, extreme = (ds.leq.T, ds.bottom) if lower else (ds.leq, ds.top)
    if condition == "absorption":
        return np.full_like(table, extreme)
    if condition == "symmetry":
        return np.where(rel, np.arange(ds.n), extreme)
    i, j = next((i, j) for i, j in np.argwhere(~rel & ~rel.T) if table[i, j] != extreme)
    table = table.copy()
    table[i, j] = table[j, i] = extreme
    return table


@pytest.mark.parametrize("condition", ["symmetry", "bounds", "absorption", "monotonicity"])
@pytest.mark.parametrize("side", ["join", "meet"])
def test_the_table_check_needs_each_of_its_conditions(monkeypatch, side, condition):
    ds = enumerate_sub_d_locales(three_three())
    lower = side == "meet"
    if condition == "bounds":
        # with the other extreme cut off, the mask table is still symmetric,
        # absorbing and monotone, but no longer above both arguments
        ds.leq = doctored(ds, "join" if lower else "meet")
    else:
        lookup = subdlocale._lookup_table
        monkeypatch.setattr(subdlocale, "_lookup_table", lambda *args: certificate_mutant(
            ds, lookup(*args), condition, lower))
    with pytest.raises(BrokenInvariant, match=f"must have unique {side}s"):
        getattr(ds, f"{side}_table")


def test_a_join_cell_missing_from_a_partial_lattice_is_a_broken_invariant():
    # 3.c(c), the join of c(c).c(c) and o(c).c(c), is left out; the lookup's
    # -1, read as the last member, would pass the rest of the check, since
    # 3.3 is the least upper bound left in the order
    ds = enumerate_sub_d_locales(three_three())
    keep = [ds.labels.index(label) for label in ("1.1", "c(c).c(c)", "o(c).c(c)", "3.3")]
    partial = SubDLocaleLattice(ds.parent, ds.pairs[keep])
    with pytest.raises(BrokenInvariant, match="must have unique joins"):
        partial.join_table


def held_arrays(obj):
    """The arrays among obj's attributes, and inside its tuples and lists."""
    return [a for v in vars(obj).values() for a in (v if isinstance(v, (tuple, list)) else (v,))
            if isinstance(a, np.ndarray)]


def test_lattice_arrays_are_frozen():
    ds = enumerate_sub_d_locales(three_three())
    # materialise the cached arrays and every table of per-sublocale rows
    ds.join_table, ds.meet_table, ds.covers, ds.labels
    for attr in ("quotient", "member_vector", "mask", "label"):
        ds.rows(attr)
    arrays = held_arrays(ds)
    assert any(a is ds.pairs for a in arrays) and any(a is ds.leq for a in arrays)
    assert not any(a.flags.writeable for a in arrays)


def test_members_come_in_the_canonical_order():
    # the admitted pairs sorted by total member count, then the minus and
    # the plus member tuples: the order reports and diagrams list them in
    lattices, members = 0, 0
    for df in standard_corpus(5) + [three_three()]:
        try:
            ds = enumerate_sub_d_locales(df)
        except SizeGuardExceeded:
            continue
        subs_minus, subs_plus = ds.sublocales
        admitted = [SubDLocale(df, subs_minus[i], subs_plus[j])
                    for i, j in np.argwhere(admission_matrix(df, subs_minus, subs_plus))]
        admitted.sort(key=lambda s: (len(s.minus.members) + len(s.plus.members),
                                     s.minus.members, s.plus.members))
        assert list(ds.members) == admitted, df.name
        assert ds.labels == tuple(s.label for s in admitted)
        lattices, members = lattices + 1, members + ds.n
    assert (lattices, members) == (59, 2274)


def image_relations(parent, minus, plus):
    """The quotient images of con and tot, built through position dicts."""
    pos_m = {m: k for k, m in enumerate(minus.members)}
    pos_p = {p: k for k, p in enumerate(plus.members)}
    con = np.zeros((len(plus.members), len(minus.members)), dtype=bool)
    for p, m in zip(*np.where(parent.con)):
        con[pos_p[plus.quotient[p]], pos_m[minus.quotient[m]]] = True
    tot = np.zeros((len(minus.members), len(plus.members)), dtype=bool)
    for m, p in zip(*np.where(parent.tot)):
        tot[pos_m[minus.quotient[m]], pos_p[plus.quotient[p]]] = True
    return con, tot


def test_induced_and_restricted_relations_match_np_ix():
    pairs = 0
    for df in standard_corpus(4) + [three_three()]:
        for sm in enumerate_sublocales(df.minus):
            for sp in enumerate_sublocales(df.plus):
                con, tot = induced_relations(df, sm, sp)
                expected_con, expected_tot = image_relations(df, sm, sp)
                assert (con == expected_con).all() and (tot == expected_tot).all()
                candidate = SubDLocale(df, sm, sp)
                assert (candidate.con == con).all() and (candidate.tot == tot).all()
                assert (candidate.restricted_con()
                        == df.con[np.ix_(sp.members, sm.members)]).all()
                assert (candidate.restricted_tot()
                        == df.tot[np.ix_(sm.members, sp.members)]).all()
                pairs += 1
    assert pairs > 100
