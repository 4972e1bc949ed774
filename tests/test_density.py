import os
import random
import subprocess
import sys
import textwrap
import threading
from collections import Counter
from dataclasses import FrozenInstanceError
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dframes import density
from dframes.dframe import DFrame, DFrameHom, minimal_dframe, symmetric_dframe
from dframes.documents import dframe_from_spec
from dframes.density import (
    are_isomorphic,
    classify,
    con_preorder,
    coreflection_report,
    corrigibility,
    dense_core,
    dense_core_map,
    dframe_isomorphism,
    double_pseudocomplement_sets,
    double_pseudocomplements,
    galois_check,
    is_corrigible,
    is_dense_sub_d_locale,
    is_double_negation,
    is_dually_subfit,
    is_excluded_middle,
    is_skeletal,
    pseudocomplement,
    pseudocomplements,
    saturation_nucleus,
    sublocale_generated_by,
)
from dframes.fixtures import (
    componentwise_dense_counterexample,
    double_negation_without_excluded_middle,
    incorrigible_minimal,
    three_three,
    two_two,
)
from dframes.errors import BrokenInvariant, EquivalenceMismatch
from dframes.frames import Frame, Nucleus, Sublocale, whole_sublocale
from dframes.search import frame_pool, mine, random_dframe, standard_corpus
from dframes.sweeps import full_sweep, standard_morphisms
from dframes.subdlocale import enumerate_sub_d_locales
from oracles import join_all, meet_all

C3, B4 = Frame.chain(3), Frame.boolean(2)
SMALL_CORPUS = standard_corpus(4)


def test_pseudocomplement_values():
    tt = three_three()
    assert pseudocomplement(tt, "minus", tt.minus.idx("c")) == tt.plus.idx("0")
    s3 = symmetric_dframe(C3)
    pc = pseudocomplements(s3)
    assert [C3.elements[pc[C3.idx(x)]] for x in "0c1"] == ["1", "0", "0"]


def test_bottom_pseudocomplement_is_top_everywhere():
    for df in SMALL_CORPUS:
        assert pseudocomplements(df)[df.minus.bottom] == df.plus.top
        assert pseudocomplements(df.swap())[df.plus.bottom] == df.minus.top


def test_galois_laws_on_named_examples():
    sb4 = symmetric_dframe(B4)
    assert galois_check(sb4).ok
    pc = pseudocomplements(sb4)
    assert (double_pseudocomplements(sb4) == np.arange(B4.n)).all()
    tt = three_three()
    assert galois_check(tt).ok
    c = tt.minus.idx("c")
    assert pc is not None
    assert double_pseudocomplements(tt)[c] == tt.minus.top


@pytest.mark.parametrize("df", SMALL_CORPUS, ids=lambda d: d.name)
def test_galois_laws_over_corpus(df):
    report = galois_check(df)
    assert report.ok, report.failures[0]


def test_double_pseudocomplement_sets():
    s3 = symmetric_dframe(C3)
    minus_set, plus_set, minus_ok, plus_ok = double_pseudocomplement_sets(s3)
    assert C3.names(minus_set.members) == ("0", "1")
    assert C3.names(plus_set.members) == ("0", "1")
    assert minus_ok and plus_ok
    whole, _, _, _ = double_pseudocomplement_sets(symmetric_dframe(B4))
    assert whole.is_whole
    bad_minus, _, sub_ok, _ = double_pseudocomplement_sets(incorrigible_minimal())
    assert not sub_ok  # both atoms double to the top; meet closure fails


def test_dense_sub_d_locale_verdicts():
    tt = three_three()
    ds = enumerate_sub_d_locales(tt)
    verdicts = {m.label: is_dense_sub_d_locale(m) for m in ds.members}
    assert verdicts["3.3"] is True
    assert verdicts["1.1"] is False
    dense = {label for label, ok in verdicts.items() if ok}
    assert dense == {"3.3", "3.o(c)", "o(c).3", "o(c).o(c)"}


def test_con_preorder_contains_order_and_known_table():
    tt = three_three()
    pre = con_preorder(tt)
    assert (~tt.minus.leq | pre).all()
    # minimal relations make the preorder ignore everything except bottom:
    # a below b unless b is the bottom while a is not.
    expected = np.array([[True, True, True], [False, True, True], [False, True, True]])
    assert (pre == expected).all()
    sb4 = symmetric_dframe(B4)
    assert (con_preorder(sb4) == B4.leq).all() and (con_preorder(sb4.swap()) == B4.leq).all()


def test_dense_core_named_examples():
    s3 = symmetric_dframe(C3)
    core = dense_core(s3)
    assert C3.names(core.core.minus.members) == ("0", "1")
    assert C3.names(core.core.plus.members) == ("0", "1")
    triv = minimal_dframe(Frame.chain(1), Frame.chain(1))
    assert dense_core(triv).core.is_whole
    sb4 = symmetric_dframe(B4)
    assert dense_core(sb4).core.is_whole


def test_dense_core_of_three_three_is_the_boolean_pair():
    """Every route (saturation fixpoints, generated sublocale of the double
    image, density verdicts over the enumeration) puts the smallest dense
    sub-d-locale of the minimal 3.3 at o(c).o(c), the Boolean pair."""
    tt = three_three()
    core = dense_core(tt)
    assert core.core.label == "o(c).o(c)"
    ds = enumerate_sub_d_locales(tt)
    dense = [m for m in ds.members if is_dense_sub_d_locale(m)]
    assert all(core.core.leq(m) for m in dense)
    assert any(m == core.core for m in dense)
    # strictly below the whole d-frame
    assert not core.core.is_whole


@pytest.mark.parametrize("df", SMALL_CORPUS, ids=lambda d: d.name)
def test_core_membership_three_conditions_agree(df):
    core = dense_core(df)
    for lat, order, sat, members in (
        (df.minus, con_preorder(df), core.nu_minus.mapping, core.core.minus.members),
        (df.plus, con_preorder(df.swap()), core.nu_plus.mapping, core.core.plus.members),
    ):
        for x in range(lat.n):
            in_core = x in members
            receptive = bool((~order[:, x] | lat.leq[:, x]).all())
            own_join = sat[x] == x
            assert in_core == receptive == own_join


def sublocale_generated_by_fixpoint(frame, seed) -> Sublocale:
    """Smallest sublocale containing the seed: close under meets and
    implications from arbitrary elements until nothing new appears.  The
    reference for frames.sublocale_generated_by."""
    members = set(int(i) for i in seed) | {frame.top}
    imp = frame.implication
    while True:
        new = set()
        mem = sorted(members)
        for x in mem:
            for y in mem:
                new.add(int(frame.meet[x, y]))
        for a in range(frame.n):
            for s in mem:
                new.add(int(imp[a, s]))
        if new <= members:
            return Sublocale(frame, members)
        members |= new


CLOSURE_FRAMES = frame_pool(6) + [Frame.boolean(4), Frame.chain(8)]


@pytest.mark.parametrize("frame", CLOSURE_FRAMES, ids=lambda f: f.name)
def test_generated_sublocale_matches_the_fixpoint_on_small_seeds(frame):
    seeds = [seed for size in range(5) for seed in combinations(range(frame.n), size)]
    for seed in seeds:
        assert sublocale_generated_by(frame, seed) is sublocale_generated_by_fixpoint(frame, seed)


def test_generated_sublocale_matches_the_fixpoint_past_bit_63():
    chain = Frame.chain(80)  # 79 primes, so prime supports need more than 64 bits
    rng = random.Random(17)
    seeds = [(k,) for k in range(56, 80)] + [tuple(rng.sample(range(80), 4)) for _ in range(40)]
    seeds += [(0, 64), (1, 65), (63, 64, 79)]
    for seed in seeds:
        assert sublocale_generated_by(chain, seed) is sublocale_generated_by_fixpoint(chain, seed)


def test_generated_sublocale_matches_fixpoints():
    for df in (three_three(), symmetric_dframe(C3), symmetric_dframe(B4)):
        core = dense_core(df)
        dbl_minus, dbl_plus = double_pseudocomplement_sets(df)[:2]
        assert sublocale_generated_by(df.minus, dbl_minus.members) == core.nu_minus.fixpoints()
        assert sublocale_generated_by(df.plus, dbl_plus.members) == core.nu_plus.fixpoints()


def test_corrigibility_verdicts():
    assert is_corrigible(symmetric_dframe(B4))
    assert is_corrigible(symmetric_dframe(C3))
    report = corrigibility(incorrigible_minimal())
    assert not report.corrigible
    assert not report.minus_ok and report.plus_ok
    assert set(report.minus_conditions.values()) == {False}


def test_skeletal_morphisms():
    tt = three_three()
    assert is_skeletal(DFrameHom.identity(tt))
    dn = double_negation_without_excluded_middle()
    # every morphism from a double negation d-frame is skeletal
    core_q = dense_core(dn).core.quotient_hom()
    assert is_skeletal(core_q)
    _, _, hom = componentwise_dense_counterexample()
    assert isinstance(is_skeletal(hom), bool)


def test_dense_core_map_identity_and_quotient():
    s3 = symmetric_dframe(C3)
    ident = DFrameHom.identity(s3)
    mapped = dense_core_map(ident)
    assert (mapped.minus.mapping == np.arange(2)).all()
    assert mapped.is_hom


def test_classification_records():
    assert classify(symmetric_dframe(B4)).as_dict() == {
        "double_negation": True,
        "excluded_middle": True,
        "dually_subfit": True,
        "corrigible": True,
        "regular": True,
    }
    dn = classify(double_negation_without_excluded_middle())
    assert dn.double_negation and not dn.excluded_middle
    tt = classify(three_three())
    assert not tt.double_negation and tt.corrigible and not tt.dually_subfit


def test_excluded_middle_forces_double_negation_on_corpus():
    for df in SMALL_CORPUS:
        if is_excluded_middle(df):
            assert is_double_negation(df)
        if is_double_negation(df):
            assert is_corrigible(df) and is_dually_subfit(df)


def test_core_is_dually_subfit_everywhere():
    for df in SMALL_CORPUS:
        realized = dense_core(df).as_dframe
        assert is_dually_subfit(realized)
        assert (con_preorder(realized) == realized.minus.leq).all()
        assert (con_preorder(realized.swap()) == realized.plus.leq).all()


def test_dually_subfit_isomorphic_to_core():
    for df in SMALL_CORPUS:
        if is_dually_subfit(df):
            assert are_isomorphic(df, dense_core(df).as_dframe)


def test_isomorphism_search():
    tt = three_three()
    assert are_isomorphic(tt, symmetric_dframe(C3))  # identical relations on chains
    assert not are_isomorphic(tt, two_two())
    core = dense_core(tt).as_dframe
    assert dframe_isomorphism(core, two_two()) is not None


def test_minimal_and_symmetric_coincide_on_chains():
    """On a chain, disjointness means one side is the bottom and covering
    means one side is the top, so the symmetric relations ARE the minimal
    ones.  The two constructions therefore share their dense core."""
    tt = three_three()
    s3 = symmetric_dframe(C3)
    assert (tt.con == s3.con).all() and (tt.tot == s3.tot).all()
    assert dense_core(tt).core.minus.members == dense_core(s3).core.minus.members


def test_spec_galois_chase_on_minimal_three_three():
    tt = three_three()
    c = tt.minus.idx("c")
    assert pseudocomplement(tt, "minus", c) == tt.plus.idx("0")
    assert pseudocomplement(tt, "plus", tt.plus.idx("0")) == tt.minus.idx("1")
    assert double_pseudocomplements(tt)[c] == tt.minus.idx("1")


def test_coreflection_report_on_fixtures():
    dfs = [three_three(), symmetric_dframe(B4), two_two(),
           double_negation_without_excluded_middle(), incorrigible_minimal()]
    report = coreflection_report(dfs)
    assert report.ok, report.failures


def test_coreflection_report_skips_non_skeletal_morphisms():
    ds = enumerate_sub_d_locales(three_three())
    q = ds.members[ds.labels.index("c(c).c(c)")].quotient_hom()
    assert not is_skeletal(q) and is_dually_subfit(q.cod)
    assert coreflection_report([], [q]).ok
    assert vars(q)["_is_skeletal"] is False  # decided once, kept by the morphism


def test_corrigible_means_double_negation_core():
    for df in SMALL_CORPUS:
        if is_corrigible(df):
            assert is_double_negation(dense_core(df).as_dframe)


def test_dense_quotients_fix_pseudocomplements():
    tt = three_three()
    to_plus, to_minus = pseudocomplements(tt), pseudocomplements(tt.swap())
    ds = enumerate_sub_d_locales(tt)
    for member in ds.members:
        if not is_dense_sub_d_locale(member):
            continue
        q_minus, q_plus = member.minus.quotient, member.plus.quotient
        for a in range(tt.minus.n):
            assert q_plus[to_plus[a]] == to_plus[a]
        for p in range(tt.plus.n):
            assert q_minus[to_minus[p]] == to_minus[p]


def test_pairs_containing_double_sets_are_dense():
    from dframes.subdlocale import build_sub_d_locale

    df = symmetric_dframe(C3)
    dbl_minus, dbl_plus = double_pseudocomplement_sets(df)[:2]
    pair = Sublocale(df.minus, set(dbl_minus.members) | {df.minus.idx("c")})
    assert pair.is_valid  # the whole 3-chain in this case
    cand, report = build_sub_d_locale(df, pair, dbl_plus)
    assert report.ok
    assert is_dense_sub_d_locale(cand)
    assert (cand.con == cand.restricted_con()).all()


def test_pseudocomplement_rejects_unknown_side():
    with pytest.raises(ValueError):
        pseudocomplement(three_three(), "sideways", 0)


def test_galois_laws_on_a_large_boolean_frame():
    # 16 elements per side: 2^16 subsets, past what the all-subsets oracle scans
    big = symmetric_dframe(Frame.boolean(4))
    assert galois_check(big).ok
    assert is_double_negation(big) and is_excluded_middle(big)


def galois_check_by_all_subsets(df):
    """The Galois laws with the join-to-meet law scanned over every subset of
    each side, by size.  The reference for galois_check, whose empty-set and
    pair scan must report the same failures."""
    rep = density.GaloisReport()
    for side, d in (("minus", df), ("plus", df.swap())):
        lat, other = d.minus, d.plus
        to_op, dbl = pseudocomplements(d), double_pseudocomplements(d)
        for a in range(lat.n):
            if not lat.leq[a, dbl[a]]:
                rep.note(f"{side} below double", (lat.elements[a],))
            if to_op[dbl[a]] != to_op[a]:
                rep.note(f"{side} triple equals single", (lat.elements[a],))
        for size in range(lat.n + 1):
            bad = next((list(c) for c in combinations(range(lat.n), size)
                        if to_op[join_all(lat, c)] != meet_all(other, to_op[list(c)])), None)
            if bad is not None:
                rep.note(f"{side} join to meet", tuple(lat.names(bad)))
                break
    Lm, Lp, con = df.minus, df.plus, df.con
    to_plus, to_minus = pseudocomplements(df), pseudocomplements(df.swap())
    dbl_m, dbl_p = double_pseudocomplements(df), double_pseudocomplements(df.swap())
    for p in range(Lp.n):
        for a in range(Lm.n):
            c = bool(con[p, a])
            if c != bool(Lm.leq[a, to_minus[p]]) or c != bool(Lp.leq[p, to_plus[a]]):
                rep.note("consistency vs comparisons", (Lp.elements[p], Lm.elements[a]))
            if c != bool(con[dbl_p[p], a]) or c != bool(con[p, dbl_m[a]]):
                rep.note("consistency under double maps", (Lp.elements[p], Lm.elements[a]))
    return rep


def test_galois_pair_scan_matches_the_all_subsets_scan():
    pool = frame_pool(4)
    for df in standard_corpus(5) + [random_dframe(random.Random(seed), pool=pool)
                                    for seed in range(200)]:
        assert galois_check(df).failures == galois_check_by_all_subsets(df).failures, df.name
    # a corrupted pseudocomplement map on each side makes both routes fail
    witnesses = Counter()
    for seed, df in enumerate(d for d in standard_corpus(5) if min(d.minus.n, d.plus.n) >= 3):
        rng = np.random.default_rng(seed)
        for d in (df, df.swap()):
            vars(d)["_pseudocomplements"] = rng.integers(d.plus.n, size=d.minus.n)
        failures = galois_check(df).failures
        assert failures and failures == galois_check_by_all_subsets(df).failures, df.name
        witnesses.update(len(w) for law, w in failures if law.endswith("join to meet"))
    assert witnesses[0] and witnesses[2]


# -- randomised law checks ----------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_galois_laws_on_random_dframes(seed):
    from dframes.search import frame_pool, random_dframe

    df = random_dframe(random.Random(seed), pool=frame_pool(4))
    assert galois_check(df).ok


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_core_is_dense_and_subfit_on_random_dframes(seed):
    from dframes.search import frame_pool, random_dframe

    df = random_dframe(random.Random(seed), pool=frame_pool(4))
    core = dense_core(df)
    assert is_dense_sub_d_locale(core.core)
    assert is_dually_subfit(core.as_dframe)
    corrigibility(df)  # the seven-way agreement must never break


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_classification_chain_on_random_dframes(seed):
    from dframes.search import frame_pool, random_dframe

    df = random_dframe(random.Random(seed), pool=frame_pool(4))
    props = classify(df)  # raises if the implication chain breaks
    if props.excluded_middle:
        assert props.double_negation
    if props.double_negation:
        assert props.dually_subfit and props.corrigible


# -- the per-cell loops kept as oracles for the array forms ---------------------

LARGE_SPECS = ("min:chain:40:chain:40", "sym:chain:30", "sym:bool:5")


@pytest.fixture(scope="module")
def oracle_corpus():
    """Both sides of standard_corpus(5), incorrigible_minimal(), 200 seeded
    random d-frames and the benchmark's large carriers."""
    pool = frame_pool(4)
    dframes = (
        standard_corpus(5) + [incorrigible_minimal()]
        + [random_dframe(random.Random(seed), pool=pool) for seed in range(200)]
        + [dframe_from_spec(spec) for spec in LARGE_SPECS]
    )
    return [d for df in dframes for d in (df, df.swap())]


def separates_by_search(df):
    """Every a not below b has a witness c, p with p con (b meet c) but not
    p con (a meet c), one cell at a time.  The reference for density._separates."""
    Lm, Lp, con = df.minus, df.plus, df.con
    for a in range(Lm.n):
        for b in range(Lm.n):
            if Lm.leq[a, b]:
                continue
            if not any(
                not con[p, Lm.meet[c, a]] and con[p, Lm.meet[c, b]]
                for c in range(Lm.n) for p in range(Lp.n)
            ):
                return False
    return True


def double_transfers_by_search(df):
    """x con (a meet b) gives x con (a^.. meet b), one cell at a time.  The
    reference for the corrigibility condition "consistency transfers through
    the double"."""
    lat, con, double = df.minus, df.con, double_pseudocomplements(df)
    return all(
        not (con[x, lat.meet[a, b]] and not con[x, lat.meet[double[a], b]])
        for a in range(lat.n) for b in range(lat.n) for x in range(df.plus.n)
    )


def test_separation_matches_the_witness_search(oracle_corpus):
    verdicts = Counter()
    for d in oracle_corpus:
        verdict = density._separates(d)
        assert verdict == separates_by_search(d), d.name
        verdicts[verdict] += 1
    assert verdicts[True] and verdicts[False]


def consistency_preorder_by_contexts(df):
    """[a, b] iff every p consistent with b meet c, for any c, is consistent
    with a meet c, reduced over every (p, c) at once: n^4 work.  The
    reference for density._consistency_preorder's map comparison."""
    Lm = df.minus
    ctx = df.con[:, Lm.meet]            # (p, x, c) -> con[p, x /\ c]
    out = np.zeros((Lm.n, Lm.n), dtype=bool)
    for a in range(Lm.n):
        out[a, :] = (~ctx | ctx[:, a, :][:, None, :]).all(axis=(0, 2))
    return out


def test_map_preorder_matches_the_context_reduction(oracle_corpus):
    differs = 0
    for d in oracle_corpus:
        preorder = density._consistency_preorder(d)
        assert (preorder == consistency_preorder_by_contexts(d)).all(), d.name
        differs += int((preorder != d.minus.leq).any())
    assert 0 < differs < len(oracle_corpus)  # both preorders that are orders and ones that are not


def test_double_transfer_condition_matches_the_cell_search(oracle_corpus):
    transfers = density._CONDITION_NAMES[5]
    verdicts = Counter()
    for d in oracle_corpus:
        verdict = density._corrigibility_conditions(d)[transfers]
        assert verdict == double_transfers_by_search(d), d.name
        verdicts[verdict] += 1
    assert verdicts[True] and verdicts[False]
    assert not density._corrigibility_conditions(incorrigible_minimal())[transfers]


def test_classify_and_hat_reach_64_and_80_element_carriers(run_cli, tmp_path):
    records = {
        "sym:bool:6": dict(corrigible=True, double_negation=True, dually_subfit=True,
                           excluded_middle=True, regular=True),
        "min:chain:80:chain:80": dict(corrigible=True, double_negation=False,
                                      dually_subfit=False, excluded_middle=False, regular=False),
    }
    for spec, record in records.items():
        path = tmp_path / f"{spec.replace(':', '_')}.json"
        assert run_cli(["gen", spec, "-o", str(path)])[0] == 0
        code, out, _ = run_cli(["classify", str(path)])
        assert code == 0 and "result: ok" in out
        assert "".join(f"-- {key} --\n  {value}\n" for key, value in sorted(record.items())) in out
    code, out, _ = run_cli(["hat", str(tmp_path / "sym_bool_6.json")])
    assert code == 0 and "label: B64.B64" in out


# -- the swap symmetry -----------------------------------------------------------

MIRROR_CORPUS = SMALL_CORPUS + [
    random_dframe(random.Random(seed), pool=frame_pool(4)) for seed in range(40)]


def test_swap_exchanges_the_sides_of_the_density_layer():
    for df in MIRROR_CORPUS:
        assert df.swap().swap() is df
        pc = pseudocomplements(df), pseudocomplements(df.swap())
        pre = con_preorder(df), con_preorder(df.swap())
        core, corr = dense_core(df), corrigibility(df)
        # a fresh swap computes everything anew; df.swap() already holds df's
        # plus side, and computes its own dense core here
        for sw in (DFrame(df.plus, df.minus, df.con.T, df.tot.T), df.swap()):
            assert (pseudocomplements(sw) == pc[1]).all()
            assert (pseudocomplements(sw.swap()) == pc[0]).all()
            assert (con_preorder(sw) == pre[1]).all() and (con_preorder(sw.swap()) == pre[0]).all()
            assert (saturation_nucleus(sw).mapping == core.nu_plus.mapping).all()
            core_sw = dense_core(sw)
            assert core_sw.core.minus == core.core.plus and core_sw.core.plus == core.core.minus
            assert (core_sw.nu_minus.mapping == core.nu_plus.mapping).all()
            assert (core_sw.nu_plus.mapping == core.nu_minus.mapping).all()
            corr_sw = corrigibility(sw)
            assert corr_sw.minus_conditions == corr.plus_conditions
            assert corr_sw.plus_conditions == corr.minus_conditions
            assert classify(sw) == classify(df)


# Unvalidated: the plus elements consistent with the minus top are 0, a and b,
# but their join 1 is not, so con is not join-closed.
BROKEN_CON = textwrap.dedent("""
    import numpy as np
    from dframes.dframe import DFrame
    from dframes.frames import Frame
    c2, b4 = Frame.chain(2), Frame.boolean(2)
    con = np.ones((b4.n, c2.n), dtype=bool)
    con[b4.top, c2.top] = False
    broken = DFrame(c2, b4, con, np.ones((c2.n, b4.n), dtype=bool))
""")


def test_pseudocomplements_reject_a_con_that_is_not_join_closed():
    scope = {}
    exec(BROKEN_CON, scope)
    with pytest.raises(BrokenInvariant, match="must stay consistent"):
        pseudocomplements(scope["broken"])


def test_pseudocomplement_check_survives_optimised_python():
    script = BROKEN_CON + textwrap.dedent("""
        from dframes.density import pseudocomplements
        from dframes.errors import BrokenInvariant
        try:
            pseudocomplements(broken)
        except BrokenInvariant:
            print("raised")
    """)
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "raised"


# -- the per-d-frame memo ------------------------------------------------------


BUILDERS = ("_largest_consistent", "_consistency_preorder", "_saturation_nucleus",
            "_dense_core")


@pytest.fixture
def builds(monkeypatch):
    """Counts, per d-frame object, every run of the memoised builders of the
    pseudocomplements, the consistency preorder, the saturation nucleus and
    the dense core, and keeps the d-frames they ran on, so that no id is
    reused while counting."""
    counts = Counter()
    seen = {}

    def counted(name, build):
        def wrapper(df):
            seen[id(df)] = df
            counts[name, id(df)] += 1
            return build(df)
        return wrapper

    for name in BUILDERS:
        monkeypatch.setattr(density, name, counted(name, getattr(density, name)))
    return counts, seen


def assert_built_once(builds):
    counts, seen = builds
    assert {name for name, _ in counts} == set(BUILDERS)
    assert max(counts.values()) == 1
    # the core runs on no swap; the plus side it reads is built on the swap
    cores = [seen[key] for name, key in counts if name == "_dense_core"]
    assert not {id(df.swap()) for df in cores} & {id(df) for df in cores}
    assert all(("_saturation_nucleus", id(df.swap())) in counts for df in cores)


def test_mine_builds_derived_structure_once_per_dframe(builds):
    assert mine(max_frame=3).searched > 0
    assert_built_once(builds)


def test_full_sweep_builds_derived_structure_once_per_dframe(builds):
    corpus = standard_corpus(3) + [three_three()]
    assert full_sweep(corpus).ok
    assert_built_once(builds)


def test_standard_morphisms_hold_every_member_quotient_of_the_largest_product():
    # 2 x 8 elements is the largest product standard_morphisms enumerates;
    # its 1 + 7 primes give 256 sublocale pairs, inside the default guard
    df = minimal_dframe(Frame.chain(2), Frame.chain(8))
    assert len(df.minus.primes) + len(df.plus.primes) == 8
    morphisms, pairs = standard_morphisms([df])
    quotients = [m.quotient_hom() for m in enumerate_sub_d_locales(df).members]
    assert len(quotients) == 128
    assert morphisms[3:-1] == quotients
    assert pairs[2:] == [(q, DFrameHom.identity(df)) for q in quotients]


def test_props_decides_each_morphism_skeletal_once(run_cli, monkeypatch):
    from dframes import sweeps

    homs, calls = {}, Counter()
    decide, carries = density.is_skeletal, density._carries_preorder

    def counted_decide(hom):
        homs[id(hom)] = hom
        return decide(hom)

    def counted_carries(hom):
        calls["carries"] += 1
        return carries(hom)

    for module in (density, sweeps):
        monkeypatch.setattr(module, "is_skeletal", counted_decide)
    monkeypatch.setattr(density, "_carries_preorder", counted_carries)
    code, out, _ = run_cli(["props", "corpus", "--seed", "5"])
    assert code == 0 and "result: ok" in out
    # one decision per morphism, of at most one preorder test per component
    assert homs and calls["carries"] <= 2 * len(homs)


def test_classify_admits_the_core_pair_once(monkeypatch):
    # corrigibility builds the dense core, so classify runs the core pair's
    # nine-axiom admission, and only that one; a whole pair's d-frame is the
    # parent, which is admitted by its own memoised report
    from dframes import dframe as dframe_module

    calls = []
    check = dframe_module.check_dframe
    monkeypatch.setattr(dframe_module, "check_dframe",
                        lambda df: calls.append(df) or check(df))
    for make in (three_three, two_two, double_negation_without_excluded_middle,
                 incorrigible_minimal):
        df = make()
        calls.clear()
        classify(df)
        core = dense_core(df)
        if core.core.is_whole:
            assert core.as_dframe is df and calls == []
        else:
            assert calls == [core.as_dframe]


def test_dense_core_is_memoised():
    tt = three_three()
    core = dense_core(tt)
    assert dense_core(tt) is core
    assert pseudocomplements(tt) is pseudocomplements(tt)
    assert con_preorder(tt) is con_preorder(tt)
    assert saturation_nucleus(tt) is saturation_nucleus(tt) is core.nu_minus
    # the plus side is kept by the swap, which is built once
    assert saturation_nucleus(tt.swap()) is core.nu_plus
    assert pseudocomplements(tt.swap()) is pseudocomplements(tt.swap())
    assert double_pseudocomplement_sets(tt) is double_pseudocomplement_sets(tt)
    # an equal but distinct d-frame has its own memo
    assert dense_core(three_three()) is not core


def test_a_failed_dense_core_is_not_memoised(monkeypatch):
    tt = three_three()
    monkeypatch.setattr(density, "sublocale_generated_by",
                        lambda frame, seed: whole_sublocale(frame))
    for _ in range(2):
        with pytest.raises(EquivalenceMismatch, match="saturation fixpoints differ"):
            dense_core(tt)
    monkeypatch.undo()
    assert dense_core(tt).core.label == "o(c).o(c)"


def test_shared_dense_core_cannot_be_changed():
    core = dense_core(three_three())
    with pytest.raises(ValueError):
        core.nu_minus.mapping[0] = 5
    with pytest.raises(FrozenInstanceError):
        core.nu_minus = core.nu_plus
    mapping = np.arange(C3.n)
    nucleus = Nucleus(C3, mapping)
    mapping[0] = 2
    assert nucleus.mapping[0] == 0


def test_concurrent_first_calls_agree():
    # Unsynchronised: racing first calls may each build the core, and every
    # caller must still get an equal, fully checked one.
    corpus = [three_three(), *standard_corpus(3)]  # fresh: nothing memoised yet
    results = []
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: results.append(
            [(dense_core(df).core.label, classify(df)) for df in corpus]))
            for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 8
    assert all(r == results[0] for r in results)
    assert results[0][0][0] == "o(c).o(c)"
