"""Property sweeps: every structural law this package relies on, run over a
corpus of d-frames and morphisms with first-witness reporting.

Shared by the props command and the test suite so both exercise the same
checks.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .dframe import (
    DFrameHom,
    image_factorization,
    is_dense_hom,
    is_extremal_epi,
    is_monomorphism,
)
from .density import (
    classify,
    con_preorder,
    coreflection_report,
    dense_core,
    dense_core_map,
    double_pseudocomplement_sets,
    galois_check,
    is_dense_sub_d_locale,
    is_dually_subfit,
    is_skeletal,
    pseudocomplements,
)
from .errors import BrokenInvariant, SizeGuardExceeded
from .frames import enumerate_sublocales
from .order import _bool_matmul
from . import subdlocale
# Nothing calls build_sub_d_locale through this binding: the sweep's second
# route is axiom_planes.  It stays because benchmarks/test_benchmark.py
# checks that the tracer wraps it in this module.
from .subdlocale import build_sub_d_locale, enumerate_sub_d_locales  # noqa: F401


class Sweep:
    """Accumulates named verdicts; first witness per failed check."""

    def __init__(self):
        self.verdicts = []

    def check(self, name: str, ok: bool, detail: str = ""):
        self.verdicts.append((name, bool(ok), detail))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.verdicts)

    def failures(self):
        return [(n, d) for n, ok, d in self.verdicts if not ok]


def sweep_dframe(df, sweep: Sweep, max_pairs: int = 400):
    """All per-d-frame law checks; enumeration-based ones are size-guarded."""
    name = df.name
    sweep.check(f"{name}: axioms", df.validate().ok)

    galois = galois_check(df)
    sweep.check(f"{name}: pseudocomplement laws", galois.ok,
                "" if galois.ok else str(galois.failures[0]))

    sides = (df, df.swap())
    orders = [(d.minus, con_preorder(d)) for d in sides]
    sweep.check(f"{name}: order inside consistency preorder",
                all((~lat.leq | pre).all() for lat, pre in orders))
    sweep.check(f"{name}: preorder transitive",
                all((~_bool_matmul(pre, pre) | pre).all() for _, pre in orders))

    core = dense_core(df)
    sweep.check(f"{name}: dense core is dense", is_dense_sub_d_locale(core.core))

    # The three characterisations of core membership agree elementwise, on
    # both sides: being a member, having no strict preorder-predecessors
    # above the order, and being one's own saturation.
    ok_membership = True
    for side_core, nu, (lat, order) in zip((core.core.minus, core.core.plus),
                                           (core.nu_minus, core.nu_plus), orders):
        for x in range(lat.n):
            in_core = x in side_core.members
            receptive = bool((~order[:, x] | lat.leq[:, x]).all())
            own_join = nu.mapping[x] == x
            if not (in_core == receptive == own_join):
                ok_membership = False
                break
    sweep.check(f"{name}: core membership characterisations agree", ok_membership)

    props = classify(df)  # raises on implication-chain violations
    sweep.check(f"{name}: implication chain", True, str(props.as_dict()))

    realized = core.as_dframe
    sweep.check(f"{name}: core dually subfit", is_dually_subfit(realized))

    cref = coreflection_report([df])
    sweep.check(f"{name}: coreflection facts", cref.ok,
                "" if cref.ok else str(cref.failures[0]))

    try:
        ds = enumerate_sub_d_locales(df, max_pairs=max_pairs)
    except SizeGuardExceeded:
        sweep.check(f"{name}: sub-d-locale sweep skipped (size guard)", True)
        return

    dense_members = [m for m in ds.members if is_dense_sub_d_locale(m)]
    sweep.check(
        f"{name}: dense core below every dense sub-d-locale",
        all(core.core.leq(m) for m in dense_members),
    )
    sweep.check(f"{name}: dense core enumerated", any(m == core.core for m in ds.members))

    ok_fix = True
    for m in dense_members:
        for d, q in ((df, m.plus.quotient), (df.swap(), m.minus.quotient)):
            to_plus = pseudocomplements(d)
            if not all(q[to_plus[a]] == to_plus[a] for a in range(d.minus.n)):
                ok_fix = False
    sweep.check(f"{name}: dense quotients fix pseudocomplements", ok_fix)

    # On every pair: the axiom planes (which check that induced tot is the
    # restriction) admit exactly the members, and pairs holding the double sets are dense.
    subs_minus, subs_plus = (enumerate_sublocales(f, max_pairs) for f in (df.minus, df.plus))
    # through the module, so a patched or traced binding sees it
    planes = subdlocale.axiom_planes(df, subs_minus, subs_plus)
    members = {(m.minus, m.plus): m for m in ds.members}
    sweep.check(f"{name}: axiom route admits the members, induced tot equals restriction",
                {(subs_minus[i], subs_plus[j]) for i, j in np.argwhere(planes.all(axis=0))}
                == members.keys())
    dbl_m, dbl_p = double_pseudocomplement_sets(df)[:2]
    above_dbl = [members.get((sm, sp)) for sm in subs_minus if sm.contains(dbl_m)
                 for sp in subs_plus if sp.contains(dbl_p)]
    ok_dense_pairs = all(m is not None and is_dense_sub_d_locale(m)
                         and bool((m.con == m.restricted_con()).all()) for m in above_dbl)
    ok_epi = all(is_extremal_epi(m.quotient_hom()) for m in ds.members)
    sweep.check(f"{name}: quotient pairs are extremal epis", ok_epi)

    # join() and meet() check the lub/glb facts internally; run them on all
    # pairs for small lattices and a deterministic sample for larger ones.
    if ds.n <= 16:
        sample = [(i, j) for i in range(ds.n) for j in range(i, ds.n)]
    else:
        sample = [((k * 7919) % ds.n, (k * 104729) % ds.n) for k in range(12)]
    ok_bounds = True
    for i, j in sample:
        try:
            ds.join(i, j)
            ds.meet(i, j)
        except BrokenInvariant:
            ok_bounds = False
            break
    sweep.check(f"{name}: constructive joins and meets realise the bounds", ok_bounds)

    ok_dense_meet = True
    dense_sample = dense_members if len(dense_members) <= 12 else dense_members[:12]
    # ds holds exactly the pairs the axiom route admitted (checked above),
    # so a pair is looked up, not re-admitted.
    for s, t in combinations(dense_sample, 2):
        try:
            idx = ds.pair_index(s.minus.meet_with(t.minus), s.plus.meet_with(t.plus))
        except KeyError:
            ok_dense_meet = False
            break
        if not is_dense_sub_d_locale(ds.members[idx]):
            ok_dense_meet = False
            break
        if not ds.is_meet(idx, ds.index_of(s), ds.index_of(t)):
            ok_dense_meet = False
            break
    sweep.check(f"{name}: meets of dense members are dense intersections", ok_dense_meet)

    sweep.check(f"{name}: pairs containing the double sets are dense", ok_dense_pairs)


def sweep_morphism(hom: DFrameHom, sweep: Sweep):
    name = hom.name
    sweep.check(f"{name}: is a d-frame homomorphism", hom.is_hom)

    fac = image_factorization(hom)
    sweep.check(f"{name}: image factor is extremal epi", is_extremal_epi(fac.onto))
    sweep.check(f"{name}: image embedding is mono", is_monomorphism(fac.embedding))
    sweep.check(f"{name}: factorisation recomposes",
                fac.embedding.compose(fac.onto) == hom)
    sweep.check(
        f"{name}: mono agrees with componentwise injectivity",
        is_monomorphism(hom) == (hom.minus.is_injective and hom.plus.is_injective),
    )
    if is_dense_hom(hom):
        sweep.check(f"{name}: dense morphism has dense components",
                    hom.minus.is_dense and hom.plus.is_dense)


def sweep_functoriality(pairs, sweep: Sweep):
    """hat of a composite equals the composite of hats when the outer
    morphism is skeletal; hat of the identity is the identity."""
    for outer, inner in pairs:
        if not is_skeletal(outer):
            continue
        lhs = dense_core_map(outer.compose(inner))
        rhs = dense_core_map(outer).compose(dense_core_map(inner))
        sweep.check(
            f"core functor: {outer.name} after {inner.name}",
            lhs == rhs,
        )


def sweep_identity_functor(dframes, sweep: Sweep):
    for df in dframes:
        core = dense_core(df)
        mapped = dense_core_map(DFrameHom.identity(df))
        n_m, n_p = len(core.core.minus.members), len(core.core.plus.members)
        ok = bool(
            (mapped.minus.mapping == np.arange(n_m)).all()
            and (mapped.plus.mapping == np.arange(n_p)).all()
        )
        sweep.check(f"{df.name}: core of identity is identity", ok)


def standard_morphisms(dframes) -> tuple[list, list]:
    """A deterministic morphism corpus over the given d-frames.

    Returns (morphisms, composable_pairs): identities, dense-core
    quotients, the sub-d-locale quotients of the smaller members, the
    componentwise-dense counterexample, and the composable combinations.
    """
    from .fixtures import componentwise_dense_counterexample

    morphisms = []
    pairs = []
    for df in dframes:
        ident = DFrameHom.identity(df)
        morphisms.append(ident)
        core = dense_core(df)
        q_core = core.core.quotient_hom()
        morphisms.append(q_core)
        pairs.append((q_core, ident))
        # Quotient onto the core of the realized core: composable follow-up
        # whose outer map comes from a dually subfit d-frame, hence skeletal.
        realized = core.as_dframe
        again = dense_core(realized)
        q_again = again.core.quotient_hom()
        morphisms.append(q_again)
        pairs.append((q_again, q_core))
        # A valid d-frame is trivial on both sides or on neither, and an
        # n-element frame has at most n - 1 primes, so a product of at most
        # 16 elements has at most 2 ** (1 + 7) = 256 sublocale pairs, inside
        # the default guard.
        if df.minus.n * df.plus.n <= 16:
            for member in enumerate_sub_d_locales(df).members:
                q = member.quotient_hom()
                morphisms.append(q)
                pairs.append((q, ident))
    _, _, counterexample = componentwise_dense_counterexample()
    morphisms.append(counterexample)
    return morphisms, pairs


def full_sweep(dframes, max_pairs: int = 400) -> Sweep:
    sweep = Sweep()
    for df in dframes:
        sweep_dframe(df, sweep, max_pairs=max_pairs)
    morphisms, pairs = standard_morphisms(dframes)
    for hom in morphisms:
        sweep_morphism(hom, sweep)
    sweep_identity_functor(dframes, sweep)
    sweep_functoriality(pairs, sweep)
    cref = coreflection_report(dframes, morphisms)
    sweep.check("coreflection sweep over corpus", cref.ok,
                "" if cref.ok else str(cref.failures[0]))
    return sweep
