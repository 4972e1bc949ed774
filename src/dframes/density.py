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

from .dframe import DFrame, DFrameHom, _memo, is_regular
from .errors import BrokenInvariant, CharacterizationMismatch, EquivalenceMismatch
from .frames import FrameHom, Nucleus, Sublocale
from .order import order_isomorphisms
from .subdlocale import SubDLocale, try_sub_d_locale


# -- two-sided structure -------------------------------------------------------


def _sided(df: DFrame, key: str, build):
    """_memo for a structure with a minus and a plus side.

    A swap builds and keeps none: it reads the structure of the d-frame it
    was swapped from, mirrored by the structure's swap(), which shares every
    array.
    """
    if df.swapped_from is None:
        return _memo(df, key, build)
    return _memo(df.swapped_from, key, build).swap()


def _mirror(obj, **fields):
    """A shallow copy of obj with some fields replaced; nothing is rebuilt."""
    out = object.__new__(type(obj))
    vars(out).update(vars(obj), **fields)
    return out


# -- pseudocomplements -------------------------------------------------------


class Pseudocomplements:
    """The two pseudocomplement maps of a d-frame, materialised as arrays.

    to_plus[a] is the largest plus element consistent with a; to_minus[p]
    is the largest minus element consistent with p, which is to_plus of the
    swap.  That the joins defining them are themselves consistent is
    checked on construction.
    """

    def __init__(self, df: DFrame):
        self.df = df
        self.to_plus = _largest_consistent(df)
        self.to_minus = _largest_consistent(df.swap())

    def swap(self) -> "Pseudocomplements":
        """The same maps seen from df.swap()."""
        return _mirror(self, df=self.df.swap(), to_plus=self.to_minus, to_minus=self.to_plus)

    def double_minus(self) -> np.ndarray:
        """a |-> pseudocomplement of the pseudocomplement, on the minus side;
        swap().double_minus() is the plus side's."""
        return self.to_minus[self.to_plus]


def _largest_consistent(df: DFrame) -> np.ndarray:
    """a |-> the join of the plus elements consistent with a, checked to be
    consistent with a itself."""
    out = np.zeros(df.minus.n, dtype=np.int64)
    for a in range(df.minus.n):
        out[a] = df.plus.join_all(np.where(df.con[:, a])[0])
        if not df.con[out[a], a]:
            raise BrokenInvariant("join of consistent elements must stay consistent")
    out.flags.writeable = False
    return out


def pseudocomplements(df: DFrame) -> Pseudocomplements:
    """The d-frame's Pseudocomplements, built once per d-frame."""
    return _sided(df, "_pseudocomplements", Pseudocomplements)


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
    minus_set, plus_set = _double_set(df), _double_set(df.swap())
    return minus_set, plus_set, minus_set.is_valid, plus_set.is_valid


def _double_set(df: DFrame) -> Sublocale:
    """The image of the minus double map as a member set, a sublocale or not."""
    return Sublocale(df.minus, set(pseudocomplements(df).double_minus().tolist()))


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
    rep = GaloisReport()
    for side, d in (("minus", df), ("plus", df.swap())):
        pc = pseudocomplements(d)
        lat, other, to_op, dbl = d.minus, d.plus, pc.to_plus, pc.double_minus()
        for a in range(lat.n):
            if not lat.leq[a, dbl[a]]:
                rep.note(f"{side} below double", (lat.elements[a],))
            if to_op[dbl[a]] != to_op[a]:
                rep.note(f"{side} triple equals single", (lat.elements[a],))

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

    Lm, Lp, con, pc = df.minus, df.plus, df.con, pseudocomplements(df)
    dbl_m, dbl_p = pc.double_minus(), pc.swap().double_minus()
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
        self.minus = _consistency_preorder(df)
        self.plus = _consistency_preorder(df.swap())

    def swap(self) -> "ConPreorder":
        """The same preorders seen from df.swap()."""
        return _mirror(self, df=self.df.swap(), minus=self.plus, plus=self.minus)

    def saturation_minus(self) -> np.ndarray:
        """a |-> join of everything below a in the minus preorder;
        swap().saturation_minus() is the plus side's."""
        Lm = self.df.minus
        return np.asarray(
            [Lm.join_all(np.where(self.minus[:, a])[0]) for a in range(Lm.n)],
            dtype=np.int64,
        )


def _consistency_preorder(df: DFrame) -> np.ndarray:
    """The minus preorder: [a, b] iff every p consistent with b meet c, for
    any c, is consistent with a meet c."""
    Lm = df.minus
    ctx = df.con[:, Lm.meet]            # (p, x, c) -> con[p, x /\ c]
    out = np.zeros((Lm.n, Lm.n), dtype=bool)
    for a in range(Lm.n):
        out[a, :] = (~ctx | ctx[:, a, :][:, None, :]).all(axis=(0, 2))
    out.flags.writeable = False
    return out


def con_preorder(df: DFrame) -> ConPreorder:
    """The d-frame's ConPreorder, built once per d-frame."""
    return _sided(df, "_con_preorder", ConPreorder)


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

    def swap(self) -> "DenseCore":
        """The same core seen from parent.swap()."""
        return DenseCore(self.parent.swap(), self.nu_plus, self.nu_minus, self.core.swap())


def dense_core(df: DFrame) -> DenseCore:
    """The smallest dense sub-d-locale, computed once per d-frame.

    The saturation maps of the consistency preorder are verified to be
    nuclei; their fixpoint sublocales are cross-checked against the
    independently computed smallest sublocales containing the
    double-pseudocomplement sets, and the result is verified dense.
    """
    return _sided(df, "_dense_core", _dense_core)


def _dense_core(df: DFrame) -> DenseCore:
    nu_m, nu_p = (_saturation_nucleus(side, d) for side, d in (("minus", df), ("plus", df.swap())))
    core = try_sub_d_locale(df, nu_m.fixpoints(), nu_p.fixpoints())
    if not is_dense_sub_d_locale(core):
        raise EquivalenceMismatch("the dense core failed its own density check")
    return DenseCore(df, nu_m, nu_p, core)


def _saturation_nucleus(side: str, df: DFrame) -> Nucleus:
    """The saturation of the minus consistency preorder, verified to be a
    nucleus whose fixpoints are the sublocale generated by the double
    pseudocomplements."""
    nu = Nucleus(df.minus, con_preorder(df).saturation_minus())
    bad = nu.violation()
    if bad is not None:
        raise EquivalenceMismatch(f"saturation on the {side} side is not a nucleus: {bad}")
    fix, gen = nu.fixpoints(), sublocale_generated_by(df.minus, _double_set(df).members)
    if fix != gen:
        raise EquivalenceMismatch(
            f"saturation fixpoints differ on the {side} side from the sublocale generated "
            f"by the double pseudocomplements: {fix.members} vs {gen.members}"
        )
    return nu


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
    out = []
    for side, d in (("minus", df), ("plus", df.swap())):
        conds = _corrigibility_conditions(d)
        if len(set(conds.values())) > 1:
            raise EquivalenceMismatch(
                f"corrigibility conditions disagree on the {side} side of {df.name}: {conds}"
            )
        out.append(conds)
    return CorrigibilityReport(out[0], out[1])


def _corrigibility_conditions(df: DFrame) -> dict:
    """The seven conditions on the minus side, each computed on its own."""
    lat, con, pc = df.minus, df.con, pseudocomplements(df)
    single, double, order = pc.to_plus, pc.double_minus(), con_preorder(df).minus
    image = _double_set(df)
    conds = {}
    conds[_CONDITION_NAMES[0]] = image.is_valid
    conds[_CONDITION_NAMES[1]] = image == dense_core(df).core.minus
    conds[_CONDITION_NAMES[2]] = bool(
        (lat.leq[:, double] == order).all()  # b <= a^.. iff b below a
    )
    conds[_CONDITION_NAMES[3]] = bool((double[lat.meet] == lat.meet[np.ix_(double, double)]).all())
    conds[_CONDITION_NAMES[4]] = bool(
        (single[lat.meet] == single[lat.meet[np.ix_(double, np.arange(lat.n))]]).all()
    )
    conds[_CONDITION_NAMES[5]] = all(
        not (con[x, lat.meet[a, b]] and not con[x, lat.meet[double[a], b]])
        for a in range(lat.n) for b in range(lat.n) for x in range(df.plus.n)
    )
    conds[_CONDITION_NAMES[6]] = bool((~order | order[double, :]).all())
    return conds


def is_corrigible(df: DFrame) -> bool:
    return corrigibility(df).corrigible


# -- skeletal morphisms and functoriality --------------------------------------


def is_skeletal(hom: DFrameHom) -> bool:
    """Both components carry the consistency preorders into each other."""
    return all(_carries_preorder(h) for h in (hom, hom.swap()))


def _carries_preorder(hom: DFrameHom) -> bool:
    """The minus component carries the minus preorders into each other."""
    f = hom.minus.mapping
    return bool((~con_preorder(hom.dom).minus | con_preorder(hom.cod).minus[np.ix_(f, f)]).all())


def dense_core_map(hom: DFrameHom) -> DFrameHom:
    """The induced map between dense cores.

    Sends a fixpoint to the codomain saturation of its image; for skeletal
    morphisms this assignment is functorial.
    """
    return DFrameHom(dense_core(hom.dom).as_dframe, dense_core(hom.cod).as_dframe,
                     _core_component(hom), _core_component(hom.swap()),
                     name=f"core({hom.name})")


def _core_component(hom: DFrameHom) -> FrameHom:
    """The minus component of the core map."""
    src, cod_core = dense_core(hom.dom).core.minus, dense_core(hom.cod)
    tgt, sat = cod_core.core.minus, cod_core.nu_minus.mapping
    return FrameHom(src.as_frame, tgt.as_frame, [
        tgt.position(int(sat[hom.minus.mapping[a]])) for a in src.members
    ])


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
    return all(
        (pseudocomplements(d).double_minus() == np.arange(d.minus.n)).all()
        for d in (df, df.swap())
    )


def is_excluded_middle(df: DFrame) -> bool:
    """Every element is total with its pseudocomplement."""
    return all(
        d.tot[np.arange(d.minus.n), pseudocomplements(d).to_plus].all()
        for d in (df, df.swap())
    )


def _dually_subfit_definitional(df: DFrame) -> bool:
    """The separation condition on each side, by direct witness search."""
    return all(_separates(d) for d in (df, df.swap()))


def _separates(df: DFrame) -> bool:
    """Every a not below b on the minus side has a witness c, p: p is
    consistent with b meet c but not with a meet c."""
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


def is_dually_subfit(df: DFrame) -> bool:
    """Dually subfit means the consistency preorder is the lattice order.

    Checked both through the definitional witness search and through the
    preorder; the two must agree.
    """
    by_preorder = all((con_preorder(d).minus == d.minus.leq).all() for d in (df, df.swap()))
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
        # The factorisation: f equals (f restricted to the core) after the
        # core quotient, because saturation is absorbed by skeletal maps
        # into dually subfit codomains.
        if not all(
            (h.minus.mapping[dense_core(h.dom).nu_minus.mapping] == h.minus.mapping).all()
            for h in (hom, hom.swap())
        ):
            rep.failures.append((hom.name, "does not factor through the core quotient"))
    return rep
