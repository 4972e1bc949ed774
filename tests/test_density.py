import os
import random
import subprocess
import sys
import textwrap
import threading
from collections import Counter
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dframes import density
from dframes.dframe import DFrame, DFrameHom, minimal_dframe, symmetric_dframe
from dframes.density import (
    ConPreorder,
    Pseudocomplements,
    are_isomorphic,
    classify,
    con_preorder,
    coreflection_report,
    corrigibility,
    dense_core,
    dense_core_map,
    dframe_isomorphism,
    double_pseudocomplement_sets,
    galois_check,
    is_corrigible,
    is_dense_sub_d_locale,
    is_double_negation,
    is_dually_subfit,
    is_excluded_middle,
    is_skeletal,
    pseudocomplement,
    pseudocomplements,
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
from dframes.sweeps import full_sweep
from dframes.subdlocale import enumerate_sub_d_locales

C3, B4 = Frame.chain(3), Frame.boolean(2)
SMALL_CORPUS = standard_corpus(4)


def test_pseudocomplement_values():
    tt = three_three()
    assert pseudocomplement(tt, "minus", tt.minus.idx("c")) == tt.plus.idx("0")
    s3 = symmetric_dframe(C3)
    pc = Pseudocomplements(s3)
    assert [C3.elements[pc.to_plus[C3.idx(x)]] for x in "0c1"] == ["1", "0", "0"]


def test_bottom_pseudocomplement_is_top_everywhere():
    for df in SMALL_CORPUS:
        pc = Pseudocomplements(df)
        assert pc.to_plus[df.minus.bottom] == df.plus.top
        assert pc.to_minus[df.plus.bottom] == df.minus.top


def test_galois_laws_on_named_examples():
    sb4 = symmetric_dframe(B4)
    assert galois_check(sb4).ok
    pc = Pseudocomplements(sb4)
    assert (pc.double_minus() == np.arange(B4.n)).all()
    tt = three_three()
    assert galois_check(tt).ok
    c = tt.minus.idx("c")
    assert pc is not None
    assert Pseudocomplements(tt).double_minus()[c] == tt.minus.top


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
    pre = ConPreorder(tt)
    assert (~tt.minus.leq | pre.minus).all()
    # minimal relations make the preorder ignore everything except bottom:
    # a below b unless b is the bottom while a is not.
    expected = np.array([[True, True, True], [False, True, True], [False, True, True]])
    assert (pre.minus == expected).all()
    sb4 = symmetric_dframe(B4)
    pre4 = ConPreorder(sb4)
    assert (pre4.minus == B4.leq).all() and (pre4.plus == B4.leq).all()


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
    pre = ConPreorder(df)
    for lat, order, sat, members in (
        (df.minus, pre.minus, core.nu_minus.mapping, core.core.minus.members),
        (df.plus, pre.plus, core.nu_plus.mapping, core.core.plus.members),
    ):
        for x in range(lat.n):
            in_core = x in members
            receptive = bool((~order[:, x] | lat.leq[:, x]).all())
            own_join = sat[x] == x
            assert in_core == receptive == own_join


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
        pre = ConPreorder(realized)
        assert (pre.minus == realized.minus.leq).all()
        assert (pre.plus == realized.plus.leq).all()


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
    assert Pseudocomplements(tt).double_minus()[c] == tt.minus.idx("1")


def test_coreflection_report_on_fixtures():
    dfs = [three_three(), symmetric_dframe(B4), two_two(),
           double_negation_without_excluded_middle(), incorrigible_minimal()]
    report = coreflection_report(dfs)
    assert report.ok, report.failures


def test_corrigible_means_double_negation_core():
    for df in SMALL_CORPUS:
        if is_corrigible(df):
            assert is_double_negation(dense_core(df).as_dframe)


def test_dense_quotients_fix_pseudocomplements():
    tt = three_three()
    pc = Pseudocomplements(tt)
    ds = enumerate_sub_d_locales(tt)
    for member in ds.members:
        if not is_dense_sub_d_locale(member):
            continue
        q_minus, q_plus = member.minus.quotient, member.plus.quotient
        for a in range(tt.minus.n):
            assert q_plus[pc.to_plus[a]] == pc.to_plus[a]
        for p in range(tt.plus.n):
            assert q_minus[pc.to_minus[p]] == pc.to_minus[p]


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
    # 16 elements per side: exercises the binary-subsets fallback sweep
    big = symmetric_dframe(Frame.boolean(4))
    assert galois_check(big).ok
    assert is_double_negation(big) and is_excluded_middle(big)


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


# -- the swap symmetry -----------------------------------------------------------

MIRROR_CORPUS = SMALL_CORPUS + [
    random_dframe(random.Random(seed), pool=frame_pool(4)) for seed in range(40)]


def test_swap_exchanges_the_sides_of_the_density_layer():
    for df in MIRROR_CORPUS:
        assert df.swap().swap() is df
        pc, pre, core, corr = pseudocomplements(df), con_preorder(df), dense_core(df), corrigibility(df)
        # a fresh swap computes its own structure; df.swap() reads df's, mirrored
        for sw in (DFrame(df.plus, df.minus, df.con.T, df.tot.T), df.swap()):
            pc_sw = pseudocomplements(sw)
            assert (pc_sw.to_plus == pc.to_minus).all() and (pc_sw.to_minus == pc.to_plus).all()
            pre_sw = con_preorder(sw)
            assert (pre_sw.minus == pre.plus).all() and (pre_sw.plus == pre.minus).all()
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
        Pseudocomplements(scope["broken"])


def test_pseudocomplement_check_survives_optimised_python():
    script = BROKEN_CON + textwrap.dedent("""
        from dframes.density import Pseudocomplements
        from dframes.errors import BrokenInvariant
        try:
            Pseudocomplements(broken)
        except BrokenInvariant:
            print("raised")
    """)
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "raised"


# -- the per-d-frame memo ------------------------------------------------------


@pytest.fixture
def builds(monkeypatch):
    """Counts, per d-frame, every Pseudocomplements and ConPreorder built and
    every dense core computed, and lists the d-frames they were built for.
    The d-frames are kept alive so that no id is reused while counting."""
    counts = Counter()
    seen = []

    def counted(name, build):
        def wrapper(*args):
            df = args[-1]  # (self, df) for a constructor, (df) for the core
            seen.append(df)
            counts[name, id(df)] += 1
            return build(*args)
        return wrapper

    monkeypatch.setattr(Pseudocomplements, "__init__",
                        counted("pc", Pseudocomplements.__init__))
    monkeypatch.setattr(ConPreorder, "__init__", counted("pre", ConPreorder.__init__))
    monkeypatch.setattr(density, "_dense_core", counted("core", density._dense_core))
    return counts, seen


def assert_built_once(builds):
    counts, seen = builds
    assert {name for name, _ in counts} == {"pc", "pre", "core"}
    assert max(counts.values()) == 1
    # a swap builds nothing: its structure is read from its parent's
    assert not {id(df.swap()) for df in seen} & {id(df) for df in seen}


def test_mine_builds_derived_structure_once_per_dframe(builds):
    assert mine(max_frame=3).searched > 0
    assert_built_once(builds)


def test_full_sweep_builds_derived_structure_once_per_dframe(builds):
    corpus = standard_corpus(3) + [three_three()]
    assert full_sweep(corpus).ok
    assert_built_once(builds)


def test_dense_core_is_memoised():
    tt = three_three()
    core = dense_core(tt)
    assert dense_core(tt) is core
    assert pseudocomplements(tt) is pseudocomplements(tt)
    assert con_preorder(tt) is con_preorder(tt)
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
