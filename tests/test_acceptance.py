"""Acceptance criteria, one test per criterion.

Each test records a PASS/FAIL line (printed in the terminal summary) before
asserting, so every criterion's outcome is visible in one place.
"""

import time

import numpy as np
import pytest

import conftest
from dframes.dframe import DFrameHom, is_extremal_epi, is_monomorphism
from dframes.dframe import is_dense_hom, image_factorization
from dframes.density import (
    classify,
    con_preorder,
    corrigibility,
    dense_core,
    dense_core_map,
    galois_check,
    is_corrigible,
    is_dense_sub_d_locale,
    is_double_negation,
    is_dually_subfit,
    is_excluded_middle,
    is_skeletal,
)
from dframes.dframe import dense_hom_witness
from dframes.fixtures import (
    componentwise_dense_counterexample,
    double_negation_without_excluded_middle,
    incorrigible_minimal,
    three_three,
)
from dframes.frames import Frame
from dframes.dframe import symmetric_dframe
from dframes.search import standard_corpus
from dframes.subdlocale import enumerate_sub_d_locales

from oracles import are_isomorphic, member_quotient_morphisms
from test_subdlocale import FIGURE_COVERS, FIGURE_LABELS


def record(number: int, ok: bool, detail: str) -> bool:
    mark = "PASS" if ok else "FAIL"
    conftest.ACCEPTANCE_LINES.append(f"criterion {number}: {mark} - {detail}")
    return ok


@pytest.fixture(scope="module")
def corpus():
    dom, cod, _ = componentwise_dense_counterexample()
    return standard_corpus(5) + [
        three_three(),
        symmetric_dframe(Frame.chain(3)),
        symmetric_dframe(Frame.boolean(2)),
        double_negation_without_excluded_middle(),
        incorrigible_minimal(),
        dom,
        cod,
    ]


def test_criterion_1_figure_reproduction():
    start = time.perf_counter()
    ds = enumerate_sub_d_locales(three_three())
    elapsed = time.perf_counter() - start
    covers = {(ds.labels[i], ds.labels[j]) for i, j in zip(*np.where(ds.covers))}
    ok = (
        ds.n == 10
        and set(ds.labels) == FIGURE_LABELS
        and covers == FIGURE_COVERS
        and elapsed < 1.0
    )
    assert record(1, ok, f"10 members, labelled cover graph exact, {elapsed:.3f}s")


def test_criterion_2_nondistributivity_witness():
    ds = enumerate_sub_d_locales(three_three())
    lbl = list(ds.labels)
    oo, tc, to = lbl.index("o(c).o(c)"), lbl.index("3.c(c)"), lbl.index("3.o(c)")
    lhs = ds.join(oo, ds.meet(tc, to))
    rhs = ds.meet(ds.join(oo, tc), ds.join(oo, to))
    ok = (
        ds.labels[ds.meet(tc, to)] == "1.1"
        and ds.labels[lhs] == "o(c).o(c)"
        and ds.labels[ds.join(oo, tc)] == "3.3"
        and ds.labels[rhs] == "3.o(c)"
    )
    assert record(2, ok, "o(c).o(c) v (3.c(c) ^ 3.o(c)) = o(c).o(c); "
                         "(.. v 3.c(c)) ^ (.. v 3.o(c)) = 3.o(c)")


def test_criterion_3_dense_components_counterexample():
    _, _, hom = componentwise_dense_counterexample()
    witness = dense_hom_witness(hom)
    ok = (
        hom.is_hom
        and hom.minus.is_dense
        and hom.plus.is_dense
        and not is_dense_hom(hom)
        and witness == ("bc", "ab")
    )
    assert record(3, ok, f"component-dense, pair not dense, witness {witness}")


def test_criterion_4_smallest_dense_over_corpus(corpus):
    start = time.perf_counter()
    violations = []
    for df in corpus:
        core = dense_core(df)
        if not is_dense_sub_d_locale(core.core):
            violations.append((df.name, "core not dense"))
        ds = enumerate_sub_d_locales(df)
        dense_members = [m for m in ds.members if is_dense_sub_d_locale(m)]
        if not any(m == core.core for m in ds.members):
            violations.append((df.name, "core not enumerated"))
        for member in dense_members:
            if not core.core.leq(member):
                violations.append((df.name, f"core above dense member {member.label}"))
    elapsed = time.perf_counter() - start
    ok = not violations and elapsed < 60.0
    assert record(4, ok, f"{len(corpus)} d-frames, {elapsed:.1f}s, "
                         f"{len(violations)} violations")


def test_criterion_5_named_examples():
    s3 = symmetric_dframe(Frame.chain(3))
    core_s3 = dense_core(s3)
    sym_ok = (
        s3.minus.names(core_s3.core.minus.members) == ("0", "1")
        and s3.plus.names(core_s3.core.plus.members) == ("0", "1")
    )
    tt = three_three()
    core_tt = dense_core(tt)
    tt_is_own_core = core_tt.core.is_whole
    ok = sym_ok and tt_is_own_core
    record(5, ok, f"Sym(3) core = Booleanization pair: {sym_ok}; "
                  f"3.3 its own core: {tt_is_own_core} (computed core {core_tt.core.label})")
    assert sym_ok
    # The double-pseudocomplement sets of the minimal 3.3 are {0, 1} on both
    # sides, so o(c).o(c) is a strictly smaller dense sub-d-locale (criterion
    # 4 verifies it is one) and 3.3 cannot be its own smallest dense
    # sub-d-locale.
    assert tt_is_own_core, (
        "3.3 is not its own smallest dense sub-d-locale: its dense core is "
        f"{core_tt.core.label}; every density route (restriction equality, "
        "double-pseudocomplement containment, saturation fixpoints) agrees"
    )


def test_criterion_6_lemma_equivalence_suites(corpus):
    violations = []
    for df in corpus:
        if not galois_check(df).ok:
            violations.append((df.name, "pseudocomplement laws"))
        core = dense_core(df)
        for lat, order, sat, members in (
            (df.minus, con_preorder(df), core.nu_minus.mapping, core.core.minus.members),
            (df.plus, con_preorder(df.swap()), core.nu_plus.mapping, core.core.plus.members),
        ):
            for x in range(lat.n):
                in_core = x in members
                receptive = bool((~order[:, x] | lat.leq[:, x]).all())
                own_join = sat[x] == x
                if not (in_core == receptive == own_join):
                    violations.append((df.name, "membership conditions"))
                    break
        try:
            corrigibility(df)   # raises if the seven conditions disagree
            is_dually_subfit(df)  # raises if the two routes disagree
            classify(df)        # raises on implication-chain violations
        except Exception as exc:  # noqa: BLE001 - recorded as a violation
            violations.append((df.name, str(exc)))
            continue
        realized = core.as_dframe
        if not is_dually_subfit(realized):
            violations.append((df.name, "core not dually subfit"))
        if is_dually_subfit(df) and not are_isomorphic(df, realized):
            violations.append((df.name, "dually subfit but core differs"))
        if is_excluded_middle(df) and not is_double_negation(df):
            violations.append((df.name, "excluded middle without double negation"))
        if is_double_negation(df) and not is_corrigible(df):
            violations.append((df.name, "double negation without corrigibility"))
    ok = not violations
    assert record(6, ok, f"{len(corpus)} d-frames, {len(violations)} violations"
                  + (f"; first: {violations[0]}" if violations else ""))


def test_criterion_7_factorisation_soundness(corpus):
    morphisms, _ = member_quotient_morphisms(corpus)
    violations = []
    for hom in morphisms:
        fac = image_factorization(hom)
        if not is_extremal_epi(fac.onto):
            violations.append((hom.name, "onto part not extremal"))
        if not is_monomorphism(fac.embedding):
            violations.append((hom.name, "embedding not mono"))
        if fac.embedding.compose(fac.onto) != hom:
            violations.append((hom.name, "composite differs"))
        if is_monomorphism(hom) != (hom.minus.is_injective and hom.plus.is_injective):
            violations.append((hom.name, "mono test disagrees with injectivity"))
    ok = not violations
    assert record(7, ok, f"{len(morphisms)} morphisms, {len(violations)} violations")


def test_criterion_8_core_functoriality(corpus):
    morphisms, pairs = member_quotient_morphisms(corpus)
    violations = []

    for df in corpus:
        core = dense_core(df)
        ident = dense_core_map(DFrameHom.identity(df))
        n_m = len(core.core.minus.members)
        n_p = len(core.core.plus.members)
        if not ((ident.minus.mapping == np.arange(n_m)).all()
                and (ident.plus.mapping == np.arange(n_p)).all()):
            violations.append((df.name, "core of identity differs from identity"))

    checked = 0
    for outer, inner in pairs:
        if not is_skeletal(outer):
            continue
        checked += 1
        lhs = dense_core_map(outer.compose(inner))
        rhs = dense_core_map(outer).compose(dense_core_map(inner))
        if lhs != rhs:
            violations.append((outer.name, inner.name))
    ok = not violations and checked > 0
    assert record(8, ok, f"{checked} composable skeletal pairs, "
                         f"{len(violations)} violations")


def test_criterion_9_byte_determinism(run_cli, fixture_dir):
    dsub_args = ["dsub", str(fixture_dir / "three_three.json")]
    props_args = ["props", "corpus", "--corpus-size", "3", "--seed", "7"]
    dsub_same = run_cli(dsub_args) == run_cli(dsub_args)
    props_same = run_cli(props_args) == run_cli(props_args)
    ok = dsub_same and props_same
    assert record(9, ok, f"dsub identical: {dsub_same}; props identical: {props_same}")
