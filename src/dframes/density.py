"""Pseudocomplements, dense sub-d-locales, and the smallest dense quotient.

The consistency relation induces an antitone Galois connection between the
two component frames; its double maps generate the dense core, the
smallest dense sub-d-locale.  The same data yields the structural
predicates for a d-frame: corrigible, skeletal (for morphisms), double
negation, excluded middle and dually subfit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations

import numpy as np

from .dframe import DFrame, DFrameHom, is_regular
from .errors import BrokenInvariant, CharacterizationMismatch, EquivalenceMismatch
from .frames import FrameHom, Nucleus, Sublocale
from .order import order_isomorphisms
from .subdlocale import SubDLocale, try_sub_d_locale


# -- the per-d-frame memo -----------------------------------------------------


def _memo(df: DFrame, key: str, build):
    """build(df), run once per d-frame and kept in the d-frame's instance dict.

    A DFrame's arrays are read-only, so whatever is derived from them stays
    valid as long as the d-frame lives, and dies with it.  A build that
    raises stores nothing: the next call runs it, and fails, again.
    """
    memo = vars(df)
    if key not in memo:
        memo[key] = build(df)
    return memo[key]


# -- pseudocomplements -------------------------------------------------------


class Pseudocomplements:
    """The two pseudocomplement maps of a d-frame, materialised as arrays.

    to_plus[a] is the largest plus element consistent with a; to_minus[p]
    is the largest minus element consistent with p.  That the joins defining
    them are themselves consistent is checked on construction.
    """

    def __init__(self, df: DFrame):
        self.df = df
        to_plus = np.zeros(df.minus.n, dtype=np.int64)
        for a in range(df.minus.n):
            to_plus[a] = df.plus.join_all(np.where(df.con[:, a])[0])
            if not df.con[to_plus[a], a]:
                raise BrokenInvariant("join of consistent elements must stay consistent")
        to_minus = np.zeros(df.plus.n, dtype=np.int64)
        for p in range(df.plus.n):
            to_minus[p] = df.minus.join_all(np.where(df.con[p, :])[0])
            if not df.con[p, to_minus[p]]:
                raise BrokenInvariant("join of consistent elements must stay consistent")
        to_plus.flags.writeable = False
        to_minus.flags.writeable = False
        self.to_plus = to_plus
        self.to_minus = to_minus

    def double_minus(self) -> np.ndarray:
        """a |-> pseudocomplement of the pseudocomplement, on the minus side."""
        return self.to_minus[self.to_plus]

    def double_plus(self) -> np.ndarray:
        return self.to_plus[self.to_minus]


def pseudocomplements(df: DFrame) -> Pseudocomplements:
    """The d-frame's Pseudocomplements, built once per d-frame."""
    return _memo(df, "_pseudocomplements", Pseudocomplements)


def pseudocomplement(df: DFrame, side: str, x: int) -> int:
    """Largest opposite-side element consistent with x."""
    pc = pseudocomplements(df)
    if side == "minus":
        return int(pc.to_plus[x])
    if side == "plus":
        return int(pc.to_minus[x])
    raise ValueError(f"side must be 'minus' or 'plus', got {side!r}")


def double_pseudocomplement_sets(df: DFrame):
    """The image sets of the double maps and whether each is a sublocale,
    built once per d-frame."""
    return _memo(df, "_double_pseudocomplement_sets", _double_sets)


def _double_sets(df: DFrame):
    pc = pseudocomplements(df)
    minus_set = Sublocale(df.minus, set(pc.double_minus().tolist()))
    plus_set = Sublocale(df.plus, set(pc.double_plus().tolist()))
    return minus_set, plus_set, minus_set.is_valid, plus_set.is_valid


@dataclass
class GaloisReport:
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def note(self, law: str, witness):
        self.failures.append((law, witness))


def galois_check(df: DFrame, subset_cap: int = 4096) -> GaloisReport:
    """Exhaustively verify the Galois-connection laws of the pseudocomplements.

    Covers: x <= x^.., x^... = x^., joins turn into meets of
    pseudocomplements over every subset (capped), the three-way equivalence
    between consistency and the two comparisons, and invariance of
    consistency under the double maps.
    """
    pc = pseudocomplements(df)
    rep = GaloisReport()
    Lm, Lp, con = df.minus, df.plus, df.con
    dbl_m, dbl_p = pc.double_minus(), pc.double_plus()

    for a in range(Lm.n):
        if not Lm.leq[a, dbl_m[a]]:
            rep.note("minus below double", (Lm.elements[a],))
        if pc.to_plus[dbl_m[a]] != pc.to_plus[a]:
            rep.note("minus triple equals single", (Lm.elements[a],))
    for p in range(Lp.n):
        if not Lp.leq[p, dbl_p[p]]:
            rep.note("plus below double", (Lp.elements[p],))
        if pc.to_minus[dbl_p[p]] != pc.to_minus[p]:
            rep.note("plus triple equals single", (Lp.elements[p],))

    for side, lat, to_op, other in (
        ("minus", Lm, pc.to_plus, Lp),
        ("plus", Lp, pc.to_minus, Lm),
    ):
        if 2 ** lat.n <= subset_cap:
            idxs = range(lat.n)
            subsets = (
                list(c) for size in range(lat.n + 1) for c in combinations(idxs, size)
            )
        else:
            # Binary cases generate the law for all finite joins; the empty
            # subset covers the nullary case.
            subsets = chain([[]], ([i, j] for i in range(lat.n) for j in range(lat.n)))
        for subset in subsets:
            lhs = to_op[lat.join_all(subset)]
            rhs = other.meet_all(to_op[subset])
            if lhs != rhs:
                rep.note(f"{side} join to meet", tuple(lat.names(subset)))
                break

    for p in range(Lp.n):
        for a in range(Lm.n):
            c = bool(con[p, a])
            if c != bool(Lm.leq[a, pc.to_minus[p]]) or c != bool(Lp.leq[p, pc.to_plus[a]]):
                rep.note("consistency vs comparisons", (Lp.elements[p], Lm.elements[a]))
            if c != bool(con[dbl_p[p], a]) or c != bool(con[p, dbl_m[a]]):
                rep.note("consistency under double maps", (Lp.elements[p], Lm.elements[a]))
    return rep


# -- dense sub-d-locales ------------------------------------------------------


def is_dense_sub_d_locale(s: SubDLocale) -> bool:
    """Dense: the induced con is the restriction of the parent con.

    Evaluated both definitionally and through the double-pseudocomplement
    containment; the two must agree, and a mismatch is surfaced loudly as a
    bug rather than a verdict.
    """
    definitional = bool((s.con == s.restricted_con()).all())
    minus_set, plus_set, _, _ = double_pseudocomplement_sets(s.parent)
    characterized = s.minus.contains(minus_set) and s.plus.contains(plus_set)
    if definitional != characterized:
        raise CharacterizationMismatch(
            f"density tests disagree on {s.label}: "
            f"restriction={definitional}, containment={characterized}"
        )
    return definitional


def sublocale_generated_by(frame, seed) -> Sublocale:
    """Smallest sublocale containing the seed: close under meets and
    implications from arbitrary elements."""
    members = set(int(i) for i in seed) | {frame.top}
    imp = frame.lattice.implication
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


# -- the consistency preorder and the dense core ------------------------------


class ConPreorder:
    """The componentwise preorders induced by the consistency relation.

    On the minus side, a is below b when every consistency witness against
    b-in-context is already one against a-in-context; dually on the plus
    side.  Both contain the lattice order and are transitive.
    """

    def __init__(self, df: DFrame):
        self.df = df
        Lm, Lp, con = df.minus, df.plus, df.con
        # minus[a, b]: forall c, p: con[p, b /\ c] -> con[p, a /\ c]
        ctx_m = con[:, Lm.meet]            # (p, x, c) -> con[p, x /\ c]
        self.minus = np.zeros((Lm.n, Lm.n), dtype=bool)
        for a in range(Lm.n):
            self.minus[a, :] = (~ctx_m | ctx_m[:, a, :][:, None, :]).all(axis=(0, 2))
        # plus[p, q]: forall t, a: con[q /\ t, a] -> con[p /\ t, a]
        ctx_p = con[Lp.meet, :]            # (x, t, a) -> con[x /\ t, a]
        self.plus = np.zeros((Lp.n, Lp.n), dtype=bool)
        for p in range(Lp.n):
            self.plus[p, :] = (~ctx_p | ctx_p[p, :, :][None, :, :]).all(axis=(1, 2))
        self.minus.flags.writeable = False
        self.plus.flags.writeable = False

    def saturation_minus(self) -> np.ndarray:
        """a |-> join of everything below a in the minus preorder."""
        Lm = self.df.minus
        return np.asarray(
            [Lm.join_all(np.where(self.minus[:, a])[0]) for a in range(Lm.n)],
            dtype=np.int64,
        )

    def saturation_plus(self) -> np.ndarray:
        Lp = self.df.plus
        return np.asarray(
            [Lp.join_all(np.where(self.plus[:, p])[0]) for p in range(Lp.n)],
            dtype=np.int64,
        )


def con_preorder(df: DFrame) -> ConPreorder:
    """The d-frame's ConPreorder, built once per d-frame."""
    return _memo(df, "_con_preorder", ConPreorder)


@dataclass(frozen=True)
class DenseCore:
    """The smallest dense sub-d-locale with its defining nuclei."""

    parent: DFrame
    nu_minus: Nucleus
    nu_plus: Nucleus
    core: SubDLocale

    @property
    def as_dframe(self) -> DFrame:
        return self.core.as_dframe


def dense_core(df: DFrame) -> DenseCore:
    """The smallest dense sub-d-locale, computed once per d-frame.

    The saturation maps of the consistency preorder are verified to be
    nuclei; their fixpoint sublocales are cross-checked against the
    independently computed smallest sublocales containing the
    double-pseudocomplement sets, and the result is verified dense.
    """
    return _memo(df, "_dense_core", _dense_core)


def _dense_core(df: DFrame) -> DenseCore:
    pre = con_preorder(df)
    nu_m = Nucleus(df.minus, pre.saturation_minus())
    nu_p = Nucleus(df.plus, pre.saturation_plus())
    for side, nu in (("minus", nu_m), ("plus", nu_p)):
        bad = nu.violation()
        if bad is not None:
            raise EquivalenceMismatch(f"saturation on the {side} side is not a nucleus: {bad}")

    fix_m, fix_p = nu_m.fixpoints(), nu_p.fixpoints()
    dbl_m, dbl_p = double_pseudocomplement_sets(df)[:2]
    gen_m = sublocale_generated_by(df.minus, dbl_m.members)
    gen_p = sublocale_generated_by(df.plus, dbl_p.members)
    if fix_m != gen_m or fix_p != gen_p:
        raise EquivalenceMismatch(
            "saturation fixpoints differ from the sublocales generated by the "
            f"double pseudocomplements: {fix_m.members} vs {gen_m.members}, "
            f"{fix_p.members} vs {gen_p.members}"
        )

    core = try_sub_d_locale(df, fix_m, fix_p)
    if not is_dense_sub_d_locale(core):
        raise EquivalenceMismatch("the dense core failed its own density check")
    return DenseCore(df, nu_m, nu_p, core)


# -- corrigibility -------------------------------------------------------------


@dataclass
class CorrigibilityReport:
    minus_conditions: dict
    plus_conditions: dict

    @property
    def minus_ok(self) -> bool:
        return all(self.minus_conditions.values())

    @property
    def plus_ok(self) -> bool:
        return all(self.plus_conditions.values())

    @property
    def corrigible(self) -> bool:
        return self.minus_ok and self.plus_ok


_CONDITION_NAMES = (
    "double image is a sublocale",
    "double image equals the dense core carrier",
    "preorder matches comparison with the double",
    "double map preserves binary meets",
    "pseudocomplement ignores one double",
    "consistency transfers through the double",
    "preorder absorbs the double map",
)


def corrigibility(df: DFrame) -> CorrigibilityReport:
    """Evaluate the seven equivalent conditions independently on each side.

    The seven results must agree per side (they are provably equivalent);
    disagreement raises instead of returning a verdict.
    """
    pc = pseudocomplements(df)
    pre = con_preorder(df)
    hat = dense_core(df)
    out = []
    for side, lat, other, single, double, order, fix in (
        ("minus", df.minus, df.plus, pc.to_plus, pc.double_minus(), pre.minus, hat.core.minus),
        ("plus", df.plus, df.minus, pc.to_minus, pc.double_plus(), pre.plus, hat.core.plus),
    ):
        image = Sublocale(lat, set(double.tolist()))
        conds = {}
        conds[_CONDITION_NAMES[0]] = image.is_valid
        conds[_CONDITION_NAMES[1]] = image == fix
        conds[_CONDITION_NAMES[2]] = bool(
            (lat.leq[:, double] == order).all()  # b <= a^.. iff b below a
        )
        conds[_CONDITION_NAMES[3]] = bool((double[lat.meet] == lat.meet[np.ix_(double, double)]).all())
        conds[_CONDITION_NAMES[4]] = bool(
            (single[lat.meet] == single[lat.meet[np.ix_(double, np.arange(lat.n))]]).all()
        )
        if side == "minus":
            def consistent(own, foreign):
                return bool(df.con[foreign, own])
        else:
            def consistent(own, foreign):
                return bool(df.con[own, foreign])
        cond6 = all(
            not (consistent(lat.meet[a, b], x)
                 and not consistent(lat.meet[double[a], b], x))
            for a in range(lat.n) for b in range(lat.n) for x in range(other.n)
        )
        conds[_CONDITION_NAMES[5]] = cond6
        conds[_CONDITION_NAMES[6]] = bool((~order | order[double, :]).all())
        values = set(conds.values())
        if len(values) > 1:
            raise EquivalenceMismatch(
                f"corrigibility conditions disagree on the {side} side of {df.name}: {conds}"
            )
        out.append(conds)
    return CorrigibilityReport(out[0], out[1])


def is_corrigible(df: DFrame) -> bool:
    return corrigibility(df).corrigible


# -- skeletal morphisms and functoriality --------------------------------------


def is_skeletal(hom: DFrameHom) -> bool:
    """Both components carry the consistency preorders into each other."""
    pre_d, pre_c = con_preorder(hom.dom), con_preorder(hom.cod)
    fm, fp = hom.minus.mapping, hom.plus.mapping
    ok_minus = (~pre_d.minus | pre_c.minus[np.ix_(fm, fm)]).all()
    ok_plus = (~pre_d.plus | pre_c.plus[np.ix_(fp, fp)]).all()
    return bool(ok_minus and ok_plus)


def dense_core_map(hom: DFrameHom) -> DFrameHom:
    """The induced map between dense cores.

    Sends a fixpoint to the codomain saturation of its image; for skeletal
    morphisms this assignment is functorial.
    """
    dom_core, cod_core = dense_core(hom.dom), dense_core(hom.cod)
    src, tgt = dom_core.as_dframe, cod_core.as_dframe
    sat_m = cod_core.nu_minus.mapping
    sat_p = cod_core.nu_plus.mapping
    minus = FrameHom(src.minus, tgt.minus, [
        cod_core.core.minus.position(int(sat_m[hom.minus.mapping[a]]))
        for a in dom_core.core.minus.members
    ])
    plus = FrameHom(src.plus, tgt.plus, [
        cod_core.core.plus.position(int(sat_p[hom.plus.mapping[p]]))
        for p in dom_core.core.plus.members
    ])
    return DFrameHom(src, tgt, minus, plus, name=f"core({hom.name})")


# -- classification -------------------------------------------------------------


@dataclass(frozen=True)
class DFrameProperties:
    double_negation: bool
    excluded_middle: bool
    dually_subfit: bool
    corrigible: bool
    regular: bool

    def as_dict(self) -> dict:
        return {
            "double_negation": self.double_negation,
            "excluded_middle": self.excluded_middle,
            "dually_subfit": self.dually_subfit,
            "corrigible": self.corrigible,
            "regular": self.regular,
        }


def is_double_negation(df: DFrame) -> bool:
    pc = pseudocomplements(df)
    return bool(
        (pc.double_minus() == np.arange(df.minus.n)).all()
        and (pc.double_plus() == np.arange(df.plus.n)).all()
    )


def is_excluded_middle(df: DFrame) -> bool:
    """Every element is total with its pseudocomplement."""
    pc = pseudocomplements(df)
    return bool(
        df.tot[np.arange(df.minus.n), pc.to_plus].all()
        and df.tot[pc.to_minus, np.arange(df.plus.n)].all()
    )


def _dually_subfit_definitional(df: DFrame) -> bool:
    """The two separation conditions, evaluated by direct witness search."""
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
    for p in range(Lp.n):
        for q in range(Lp.n):
            if Lp.leq[p, q]:
                continue
            if not any(
                not con[Lp.meet[p, t], c] and con[Lp.meet[q, t], c]
                for t in range(Lp.n) for c in range(Lm.n)
            ):
                return False
    return True


def is_dually_subfit(df: DFrame) -> bool:
    """Dually subfit means the consistency preorder is the lattice order.

    Checked both through the definitional witness search and through the
    preorder; the two must agree.
    """
    pre = con_preorder(df)
    by_preorder = bool(
        (pre.minus == df.minus.leq).all() and (pre.plus == df.plus.leq).all()
    )
    by_definition = _dually_subfit_definitional(df)
    if by_preorder != by_definition:
        raise EquivalenceMismatch(
            f"dual subfitness tests disagree on {df.name}: "
            f"preorder={by_preorder}, definitional={by_definition}"
        )
    return by_preorder


def classify(df: DFrame) -> DFrameProperties:
    """The full property record, with the implication chain asserted."""
    props = DFrameProperties(
        double_negation=is_double_negation(df),
        excluded_middle=is_excluded_middle(df),
        dually_subfit=is_dually_subfit(df),
        corrigible=is_corrigible(df),
        regular=is_regular(df),
    )
    if props.excluded_middle and not props.double_negation:
        raise EquivalenceMismatch(f"{df.name}: excluded middle without double negation")
    if props.double_negation and not (props.corrigible and props.dually_subfit):
        raise EquivalenceMismatch(f"{df.name}: double negation without its consequences")
    return props


# -- isomorphism and the coreflection sweep -------------------------------------


def dframe_isomorphism(a: DFrame, b: DFrame):
    """A pair of component order isomorphisms carrying con to con and tot
    to tot, or None."""
    for fm in order_isomorphisms(a.minus.lattice, b.minus.lattice):
        fm = np.asarray(fm)
        for fp in order_isomorphisms(a.plus.lattice, b.plus.lattice):
            fp = np.asarray(fp)
            if (a.con == b.con[np.ix_(fp, fm)]).all() and (a.tot == b.tot[np.ix_(fm, fp)]).all():
                return fm, fp
    return None


def are_isomorphic(a: DFrame, b: DFrame) -> bool:
    return dframe_isomorphism(a, b) is not None


@dataclass
class CoreflectionReport:
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def coreflection_report(dframes, skeletal_homs=()) -> CoreflectionReport:
    """Desk-scale verification of the coreflection facts.

    For each d-frame: the core of the core is the core; dually subfit
    d-frames are isomorphic to their core; corrigible d-frames have a
    double-negation core.  For each skeletal morphism into a dually subfit
    codomain: it factors through the core quotient as the core map.
    """
    rep = CoreflectionReport()
    for df in dframes:
        core = dense_core(df)
        realized = core.as_dframe
        again = dense_core(realized)
        if not again.core.is_whole:
            rep.failures.append((df.name, "core not idempotent"))
        if not is_dually_subfit(realized):
            rep.failures.append((df.name, "core not dually subfit"))
        if is_dually_subfit(df) and not are_isomorphic(df, realized):
            rep.failures.append((df.name, "dually subfit but not isomorphic to its core"))
        if is_corrigible(df) and not is_double_negation(realized):
            rep.failures.append((df.name, "corrigible but core lacks double negation"))
    for hom in skeletal_homs:
        if not is_skeletal(hom):
            rep.failures.append((hom.name, "not skeletal"))
            continue
        if not is_dually_subfit(hom.cod):
            continue
        dom_core = dense_core(hom.dom)
        # The factorisation: f equals (f restricted to the core) after the
        # core quotient, because saturation is absorbed by skeletal maps
        # into dually subfit codomains.
        nu_m = dom_core.nu_minus.mapping
        nu_p = dom_core.nu_plus.mapping
        if not (
            (hom.minus.mapping[nu_m] == hom.minus.mapping).all()
            and (hom.plus.mapping[nu_p] == hom.plus.mapping).all()
        ):
            rep.failures.append((hom.name, "does not factor through the core quotient"))
    return rep
