"""Property sweeps: every structural law this package relies on, run over a
corpus of d-frames and morphisms with first-witness reporting.  The laws of
the members of a sub-d-locale lattice are decided for all members at once,
and dense_members compares both density routes on every member; so are the
laws of the quotients onto them, by sweep_quotients on member_cores, which
finds every member's dense core two ways in the parent's index space.

Shared by the props command and the test suite, which run the same checks.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .dframe import DFrameHom, image_factorization, is_dense_hom, is_extremal_epi, is_monomorphism
from .density import (
    classify, con_preorder, coreflection_report, dense_core, dense_core_map, dense_members,
    double_pseudocomplement_sets, galois_check, is_dense_sub_d_locale, is_dually_subfit,
    is_skeletal, member_cores, pseudocomplements,
)
from .errors import BrokenInvariant, SizeGuardExceeded
from .fixtures import componentwise_dense_counterexample
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


def sweep_dframe(df, sweep: Sweep, max_pairs: int = subdlocale.MAX_PAIRS):
    """All per-d-frame law checks; enumeration-based ones are size-guarded.
    Returns the sub-d-locale lattice, or None when the guard refused it."""
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
    sweep.check(f"{name}: core membership characterisations agree", all(
        (sub.member_vector == (~order | lat.leq).all(axis=0)).all()
        and (sub.member_vector == (nu.mapping == np.arange(lat.n))).all()
        for sub, nu, (lat, order) in zip((core.core.minus, core.core.plus),
                                         (core.nu_minus, core.nu_plus), orders)))

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
        return None

    dense, (qm, qp) = dense_members(ds), ds.stacks("quotient")
    core_mask = ds.mask_of(core.core.minus, core.core.plus)
    sweep.check(f"{name}: dense core below every dense sub-d-locale",
                ((ds.masks[dense] & core_mask) == core_mask).all())
    sweep.check(f"{name}: dense core enumerated", ds.by_mask[core_mask] >= 0)
    fixes = ((qp, pseudocomplements(df)), (qm, pseudocomplements(df.swap())))
    sweep.check(f"{name}: dense quotients fix pseudocomplements",
                all((q[dense][:, f] == f).all() for q, f in fixes))

    # On every pair: the axiom planes (which check that induced tot is the
    # restriction) admit exactly the members, and pairs holding the double sets are dense.
    # through the module, so a patched or traced binding sees it
    planes = subdlocale.axiom_planes(df, *ds.sublocales)
    members = np.zeros(planes.shape[1:], dtype=bool)
    members[tuple(ds.pairs.T)] = True  # a repeated pair leaves fewer than ds.n cells
    sweep.check(f"{name}: axiom route admits the members, induced tot equals restriction",
                np.array_equal(planes.all(axis=0), members) and members.sum() == ds.n)
    dbl = ds.mask_of(*double_pseudocomplement_sets(df)[:2])
    above_dbl = ds.by_mask[(np.arange(len(ds.by_mask)) & dbl) == dbl]
    ok_dense_pairs = (above_dbl >= 0).all() and dense[above_dbl].all()
    sweep.check(f"{name}: quotient pairs are extremal epis", subdlocale.quotient_epis(ds).all())

    # join() and meet() check the lub/glb facts internally; run them on all
    # pairs for small lattices and a deterministic sample for larger ones.
    if ds.n <= 16:
        i, j = np.triu_indices(ds.n)
    else:
        i, j = np.arange(12) * 7919 % ds.n, np.arange(12) * 104729 % ds.n
    try:
        ds.join(i, j), ds.meet(i, j)
        ok_bounds = True
    except BrokenInvariant:
        ok_bounds = False
    sweep.check(f"{name}: constructive joins and meets realise the bounds", ok_bounds)

    # ds holds exactly the pairs the axiom route admitted (checked above), so
    # the intersection pair, the AND of the masks, is looked up, not re-admitted.
    ij = np.array(list(combinations(np.flatnonzero(dense)[:12], 2)), dtype=np.intp).reshape(-1, 2)
    meets = ds.by_mask[ds.masks[ij[:, 0]] & ds.masks[ij[:, 1]]]
    ok_dense_meet = ((meets >= 0).all() and dense[meets].all()
                     and np.all(ds.is_meet(meets, ij[:, 0], ij[:, 1])))
    sweep.check(f"{name}: meets of dense members are dense intersections", ok_dense_meet)

    sweep.check(f"{name}: pairs containing the double sets are dense", ok_dense_pairs)
    return ds


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
    morphism is skeletal."""
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


def sweep_quotients(ds, sweep: Sweep, functor: Sweep, cref):
    """What sweep_morphism checks on each member quotient q[label] of ds, and
    what sweep_functoriality and coreflection_report check on it, into sweep,
    functor and cref, decided for all members at once in the parent's index
    space.  An extremal epi is its own image factor; member_cores finds each
    member's core, and the quotient onto it is the member's saturation."""
    df, core = ds.parent, dense_core(ds.parent)
    cores, skeletal, subfit = member_cores(ds)
    at, epi = np.arange(ds.n)[:, None], subdlocale.quotient_epis(ds)
    hom, dense_parts, functoriality, factors = epi, *np.ones((3, ds.n), dtype=bool)
    for lat, q, sub, nu in zip((df.minus, df.plus), ds.stacks("quotient"),
                               (core.core.minus, core.core.plus), (core.nu_minus, core.nu_plus)):
        members, nu, qa, qb = np.asarray(sub.members), nu.mapping, q[:, :, None], q[:, None]
        # frame maps onto the members: to the least, the top, meets, and joins closed by q
        hom = hom & ((lat.leq[q[:, lat.bottom]] | (q != np.arange(lat.n))).all(axis=1)
                     & (q[:, lat.top] == lat.top) & (q[:, lat.meet] == lat.meet[qa, qb]).all(axis=(1, 2))
                     & (q[:, lat.join] == q[at[:, :, None], lat.join[qa, qb]]).all(axis=(1, 2)))
        dense_parts &= ((q == q[:, [lat.bottom]]) == (np.arange(lat.n) == lat.bottom)).all(axis=1)
        core_map = q[cores][at, q[:, members]]  # the parent's core, by q, then saturated
        functoriality &= (core_map == q[cores][at, q[:, nu[members]]]).all(axis=1)
        factors &= (q[:, nu] == q).all(axis=1)
    for k, name, dense in zip(range(ds.n), (f"q[{label}]" for label in ds.labels), dense_members(ds)):
        sweep.check(f"{name}: is a d-frame homomorphism", hom[k])
        for law in ("image factor is extremal epi", "image embedding is mono",
                    "factorisation recomposes"):
            sweep.check(f"{name}: {law}", epi[k])
        # monos are the componentwise one-one maps
        sweep.check(f"{name}: mono agrees with componentwise injectivity", True)
        if dense:  # dense members are the dense quotients
            sweep.check(f"{name}: dense morphism has dense components", dense_parts[k])
        if skeletal[k]:
            functor.check(f"core functor: {name} after id", functoriality[k])
        if skeletal[k] and subfit[k] and not factors[k]:
            cref.note(name, "does not factor through the core quotient")


def standard_morphisms(dframes) -> tuple[list, list]:
    """A deterministic morphism corpus over the given d-frames.

    Returns (morphisms, composable_pairs): per d-frame its identity and its
    two dense-core quotients, then the componentwise-dense counterexample;
    and per d-frame two composable pairs.  full_sweep decides the
    sub-d-locale quotients of the smaller d-frames by sweep_quotients.
    """
    morphisms, pairs = [], []
    for df in dframes:
        ident, core = DFrameHom.identity(df), dense_core(df)
        q_core = core.core.quotient_hom()
        # Quotient onto the core of the realized core: composable follow-up
        # whose outer map comes from a dually subfit d-frame, hence skeletal.
        q_again = dense_core(core.as_dframe).core.quotient_hom()
        morphisms += [ident, q_core, q_again]
        pairs += [(q_core, ident), (q_again, q_core)]
    _, _, counterexample = componentwise_dense_counterexample()
    morphisms.append(counterexample)
    return morphisms, pairs


def full_sweep(dframes, max_pairs: int = subdlocale.MAX_PAIRS) -> Sweep:
    """Every check, in this order: per d-frame; per morphism, each d-frame's
    member quotients after its three; the identity functor; functoriality;
    the coreflection facts."""
    sweep, functor = Sweep(), Sweep()
    # A valid d-frame is trivial on both sides or on neither, and an n-element
    # frame has at most n - 1 primes, so a product of at most 16 elements has
    # at most 2 ** (1 + 7) = 256 sublocale pairs, inside the default guard:
    # these d-frames' quotients are swept on the lattice sweep_dframe built,
    # and only those lattices are kept.  A guard that refused the lattice
    # skips its quotients too.
    lattices = []
    for df in dframes:
        ds = sweep_dframe(df, sweep, max_pairs=max_pairs)
        lattices.append(ds if df.minus.n * df.plus.n <= 16 else None)
    morphisms, pairs = standard_morphisms(dframes)
    cref = coreflection_report(dframes)
    for k, ds in enumerate(lattices):
        for hom in morphisms[3 * k:3 * k + 3]:
            sweep_morphism(hom, sweep)
        sweep_functoriality(pairs[2 * k:2 * k + 2], functor)
        cref.failures += coreflection_report([], morphisms[3 * k:3 * k + 3]).failures
        if ds is not None:
            sweep_quotients(ds, sweep, functor, cref)
    sweep_morphism(morphisms[-1], sweep)
    cref.failures += coreflection_report([], morphisms[-1:]).failures
    sweep_identity_functor(dframes, sweep)
    sweep.verdicts += functor.verdicts
    sweep.check("coreflection sweep over corpus", cref.ok,
                "" if cref.ok else str(cref.failures[0]))
    return sweep
