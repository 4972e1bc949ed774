"""Pseudocomplements, dense sub-d-locales, and the smallest dense quotient.

The consistency relation induces an antitone Galois connection between the
two component frames; its double maps generate the dense core, the
smallest dense sub-d-locale.  The same data yields the structural
predicates for a d-frame: corrigible, skeletal (for morphisms), double
negation, excluded middle and dually subfit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .dframe import DFrame, DFrameHom, _image, _memo, _partner_bound, is_regular
from .errors import BrokenInvariant, CharacterizationMismatch, EquivalenceMismatch
from .frames import FrameHom, Nucleus, Sublocale, sublocale_generated_by
from .order import _bool_matmul, _frozen, _joins
from .subdlocale import SubDLocale, SubDLocaleLattice, member_plane, try_sub_d_locale


# -- pseudocomplements -------------------------------------------------------
#
# Every per-side structure below is a function of one d-frame's minus side,
# built once and kept in that d-frame's memo.  The plus side is the same
# function of df.swap(), which is built once and keeps its own memo.


def pseudocomplements(df: DFrame) -> np.ndarray:
    """a |-> the largest plus element consistent with a, built once per
    d-frame and read-only; pseudocomplements(df.swap()) is the plus side's.
    That the joins defining it are themselves consistent is checked."""
    return _memo(df, "_pseudocomplements", _largest_consistent)


def _largest_consistent(df: DFrame) -> np.ndarray:
    """a |-> the join of the plus elements consistent with a, checked to be
    consistent with a itself."""
    return _partner_bound(df.con.T, df.plus.leq, "join of consistent elements must stay consistent")


def double_pseudocomplements(df: DFrame) -> np.ndarray:
    """a |-> the pseudocomplement of the pseudocomplement, on the minus side,
    read-only; double_pseudocomplements(df.swap()) is the plus side's."""
    return _frozen(pseudocomplements(df.swap())[pseudocomplements(df)])


def pseudocomplement(df: DFrame, side: str, x: int) -> int:
    """Largest opposite-side element consistent with x."""
    if side == "minus":
        return int(pseudocomplements(df)[x])
    if side == "plus":
        return int(pseudocomplements(df.swap())[x])
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
    return Sublocale(df.minus, set(double_pseudocomplements(df).tolist()))


@dataclass
class LawFailures:
    """A check's failures in the order found, each a (subject, detail) pair:
    a law and its witness, or a d-frame and the law it breaks."""

    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def note(self, subject: str, detail):
        self.failures.append((subject, detail))


def galois_check(df: DFrame) -> LawFailures:
    """Exhaustively verify the Galois-connection laws of the pseudocomplements.

    Covers: x <= x^.., x^... = x^., joins into meets of pseudocomplements on
    the empty set and all pairs (which generate the law, since every finite
    join or meet is a fold of the binary tables), consistency against the
    two comparisons, and consistency under the double maps.  The first
    failing pair is reported in row-major order.
    """
    rep = LawFailures()
    for side, d in (("minus", df), ("plus", df.swap())):
        lat, other = d.minus, d.plus
        to_op, dbl = pseudocomplements(d), double_pseudocomplements(d)
        for a in range(lat.n):
            if not lat.leq[a, dbl[a]]:
                rep.note(f"{side} below double", (lat.elements[a],))
            if to_op[dbl[a]] != to_op[a]:
                rep.note(f"{side} triple equals single", (lat.elements[a],))

        bad = np.triu(to_op[lat.join] != other.meet[to_op[:, None], to_op], 1)  # pairs i < j
        if to_op[lat.bottom] != other.top:
            rep.note(f"{side} join to meet", ())
        elif bad.any():
            rep.note(f"{side} join to meet", lat.names(np.argwhere(bad)[0]))

    Lm, Lp, con = df.minus, df.plus, df.con
    to_plus, to_minus = pseudocomplements(df), pseudocomplements(df.swap())
    dbl_m, dbl_p = double_pseudocomplements(df), double_pseudocomplements(df.swap())
    laws = np.stack([(con != Lm.leq[:, to_minus].T) | (con != Lp.leq[:, to_plus]),  # [p, a, law]
                     (con != con[dbl_p]) | (con != con[:, dbl_m])], axis=2)
    for p, a, law in np.argwhere(laws):
        rep.note(("consistency vs comparisons", "consistency under double maps")[law],
                 (Lp.elements[p], Lm.elements[a]))
    return rep


# -- dense sub-d-locales ------------------------------------------------------


def is_dense_sub_d_locale(s: SubDLocale) -> bool:
    """Dense: the induced con is the restriction of the parent con.

    Evaluated both definitionally and through the double-pseudocomplement
    containment; the two must agree, and a mismatch is surfaced loudly as a
    bug rather than a verdict.
    """
    minus_set, plus_set, _, _ = double_pseudocomplement_sets(s.parent)
    return _agreed(s.label, bool((s.con == s.restricted_con()).all()),
                   s.minus.contains(minus_set) and s.plus.contains(plus_set))


def dense_members(ds: SubDLocaleLattice) -> np.ndarray:
    """[k]: whether member k is dense, decided once per lattice for every
    member at once the two ways is_dense_sub_d_locale decides one: the image
    of parent con under its quotients is its restriction, and its mask pair
    contains the double sets'."""
    return _memo(ds, "_dense_members", _dense_members)


def _dense_members(ds: SubDLocaleLattice) -> np.ndarray:
    con, dbl = ds.parent.con, ds.mask_of(*double_pseudocomplement_sets(ds.parent)[:2])
    definitional = member_plane(ds, lambda at, qm, qp, box: (
        _image(con, qp, qm, con.shape) == con & box.transpose(0, 2, 1)).all(axis=(1, 2)))
    characterized = (ds.masks & dbl) == dbl
    for k in np.flatnonzero(definitional != characterized)[:1]:
        _agreed(ds.labels[k], bool(definitional[k]), bool(characterized[k]))
    return definitional


def _agreed(label: str, definitional: bool, characterized: bool) -> bool:
    """The density verdict; CharacterizationMismatch if the routes disagree."""
    if definitional != characterized:
        raise CharacterizationMismatch(
            f"density tests disagree on {label}: "
            f"restriction={definitional}, containment={characterized}"
        )
    return definitional


# -- the consistency preorder and the dense core ------------------------------


def con_preorder(df: DFrame) -> np.ndarray:
    """The minus consistency preorder, built once per d-frame and read-only;
    con_preorder(df.swap()) is the plus side's.

    a is below b when every consistency witness against b-in-context is
    already one against a-in-context.  It contains the lattice order and is
    transitive.
    """
    return _memo(df, "_con_preorder", _consistency_preorder)


def _consistency_preorder(df: DFrame) -> np.ndarray:
    """The minus preorder: [a, b] iff every p consistent with b meet c, for
    any c, is consistent with a meet c.

    The p consistent with x are the principal ideal of f(x), with f the
    pseudocomplements, so [a, b] iff f(b meet c) <= f(a meet c) for every c.
    """
    F = pseudocomplements(df)[df.minus.meet]  # F[x, c] = f(x /\ c)
    return _frozen(df.plus.leq[F[None], F[:, None]].all(axis=-1))


def saturation_nucleus(df: DFrame) -> Nucleus:
    """The saturation of the minus consistency preorder, built once per
    d-frame; saturation_nucleus(df.swap()) is the plus side's.

    a |-> the join of everything below a in the preorder, verified to be a
    nucleus whose fixpoints are the sublocale generated by the double
    pseudocomplements.  Its fixpoints are the minus carrier of the dense core.
    """
    return _memo(df, "_saturation_nucleus", _saturation_nucleus)


def _saturation_nucleus(df: DFrame) -> Nucleus:
    Lm, order = df.minus, con_preorder(df)
    nu = Nucleus(Lm, _joins(order.T, Lm.leq))
    bad = nu.violation()
    if bad is not None:
        raise EquivalenceMismatch(f"saturation on the minus side of {df.name} is not a "
                                  f"nucleus: {bad}")
    fix, gen = nu.fixpoints(), sublocale_generated_by(Lm, _double_set(df).members)
    if fix != gen:
        raise EquivalenceMismatch(
            f"saturation fixpoints differ on the minus side of {df.name} from the sublocale "
            f"generated by the double pseudocomplements: {fix.members} vs {gen.members}"
        )
    return nu


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

    Its component sublocales are the fixpoints of the two saturation nuclei;
    the pair is admitted by the nine-axiom route and verified dense.
    """
    return _memo(df, "_dense_core", _dense_core)


def _dense_core(df: DFrame) -> DenseCore:
    nu_m, nu_p = saturation_nucleus(df), saturation_nucleus(df.swap())
    core = try_sub_d_locale(df, nu_m.fixpoints(), nu_p.fixpoints())
    if not is_dense_sub_d_locale(core):
        raise EquivalenceMismatch("the dense core failed its own density check")
    return DenseCore(df, nu_m, nu_p, core)


def member_cores(ds: SubDLocaleLattice) -> tuple:
    """(cores, skeletal, subfit): per member k of ds, the member that is its
    dense core, whether its quotient is skeletal and whether it is dually
    subfit, decided for all members at once in the parent's index space,
    where a member keeps the parent's order and meets, closes its joins by
    its quotient and has its con image for con.  The core is found the two
    ways _saturation_nucleus finds one and checked dense in its member, and
    dual subfitness is decided the two ways _dually_subfit decides it:
    EquivalenceMismatch if they disagree or a core is not dense,
    BrokenInvariant if a core is not a member.
    """
    df, quotients = ds.parent, ds.stacks("quotient")
    sides = [(side, d, con_preorder(d), np.array(d.minus.prime_support, dtype=np.int64))
             for side, d in (("minus", df), ("plus", df.swap()))]

    def law(at, qm, qp, box):
        con, labels, t = _image(df.con, qp, qm, df.con.shape), ds.labels[at], np.arange(len(qm))
        rels, fixed = (con.transpose(0, 2, 1), con), [q == np.arange(q.shape[1]) for q in (qm, qp)]
        # [t, a]: the largest partner consistent with a in member t
        f = [_joins(rel.reshape(-1, rel.shape[2]), d.plus.leq).reshape(rel.shape[:2])
             for rel, (_, d, _, _) in zip(rels, sides)]
        out = []
        for (side, d, order, support), rel, q, vec, other, pc, op in zip(
                sides, rels, (qm, qp), fixed, fixed[::-1], f, f[::-1]):
            # the preorder and saturation of member t, built as for a d-frame
            lat, F = d.minus, pc[:, d.minus.meet]  # F[t, x, c] = f(x /\ c)
            pre = (d.plus.leq[F[:, None], F[:, :, None]] | ~vec[:, None, None]).all(axis=-1)
            below = (pre.transpose(0, 2, 1) & vec[:, None]).reshape(-1, lat.n)
            nu = np.take_along_axis(q, _joins(below, lat.leq).reshape(q.shape), axis=1)
            mask = np.bitwise_or.reduce(np.where(vec, support[np.take_along_axis(op, pc, axis=1)], 0),
                                        axis=1)  # the primes of the double pseudocomplements
            generated = (support | mask[:, None]) == mask[:, None]
            for k in np.flatnonzero((((nu == np.arange(lat.n)) & vec) != generated).any(axis=1))[:1]:
                raise EquivalenceMismatch(f"saturation fixpoints differ from the sublocale generated by "
                                          f"the double pseudocomplements in member {labels[k]} ({side})")
            inside = vec[:, :, None] & vec[:, None]
            cols = (vec[:, :, None] & other[:, None]).reshape(len(q), 1, -1)  # (c, p) in member t
            cells = rel[:, lat.meet].reshape(len(q), lat.n, -1)  # [t, a, (c, p)]: p con a /\ c
            witness = np.matmul(~cells & cols, (cells & cols).transpose(0, 2, 1), dtype=np.float32) > 0
            out.append(((~order | pre[t[:, None, None], q[:, :, None], q[:, None]]).all(axis=(1, 2)),
                        ((pre == lat.leq) | ~inside).all(axis=(1, 2)),
                        (lat.leq | witness | ~inside).all(axis=(1, 2)), mask))
        (carried_m, subfit_m, separated_m, mask_m), (carried_p, subfit_p, separated_p, mask_p) = out
        subfit, cores = subfit_m & subfit_p, ds.by_mask[mask_m | mask_p << len(df.minus.primes)]
        for k in np.flatnonzero(subfit != separated_m & separated_p)[:1]:
            raise EquivalenceMismatch(f"dual subfitness tests disagree on member {labels[k]} "
                                      f"of {df.name}: preorder={subfit[k]}")
        for k in np.flatnonzero(cores < 0)[:1]:
            raise BrokenInvariant(f"the dense core of member {labels[k]} is not a member")
        # the core's con, the image of the member's under the core's quotients
        # (which absorb the member's), is the member's on the core's cells
        qm, qp = (q[cores] for q in quotients)
        core_con = _image(df.con, qp, qm, con.shape[1:])
        core_box = (qp == np.arange(qp.shape[1]))[:, :, None] & (qm == np.arange(qm.shape[1]))[:, None]
        for k in np.flatnonzero((core_con != con & core_box).any(axis=(1, 2)))[:1]:
            raise EquivalenceMismatch(f"the dense core of member {labels[k]} is not dense in it")
        return np.stack([cores, carried_m & carried_p, subfit], axis=1)

    cores, skeletal, subfit = member_plane(ds, law).T
    return cores, skeletal.astype(bool), subfit.astype(bool)


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
    disagreement raises instead of returning a verdict.  The dense core is
    built first, so its pair is admitted and checked dense before condition
    2 compares each double image with that side's core carrier.
    """
    dense_core(df)
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
    lat, con, single = df.minus, df.con, pseudocomplements(df)
    double, order = double_pseudocomplements(df), con_preorder(df)
    image = _double_set(df)
    conds = {}
    conds[_CONDITION_NAMES[0]] = image.is_valid
    conds[_CONDITION_NAMES[1]] = image == saturation_nucleus(df).fixpoints()
    conds[_CONDITION_NAMES[2]] = bool(
        (lat.leq[:, double] == order).all()  # b <= a^.. iff b below a
    )
    conds[_CONDITION_NAMES[3]] = bool((double[lat.meet] == lat.meet[double[:, None], double]).all())
    conds[_CONDITION_NAMES[4]] = bool(
        (single[lat.meet] == single[lat.meet[double]]).all()
    )
    conds[_CONDITION_NAMES[5]] = bool(  # con[x, a /\ b] gives con[x, a^.. /\ b]
        (~con[:, lat.meet] | con[:, lat.meet[double, :]]).all()
    )
    conds[_CONDITION_NAMES[6]] = bool((~order | order[double, :]).all())
    return conds


def is_corrigible(df: DFrame) -> bool:
    return corrigibility(df).corrigible


# -- skeletal morphisms and functoriality --------------------------------------


def is_skeletal(hom: DFrameHom) -> bool:
    """Both components carry the consistency preorders into each other."""
    return _memo(hom, "_is_skeletal",
                 lambda h: all(_carries_preorder(g) for g in (h, h.swap())))


def _carries_preorder(hom: DFrameHom) -> bool:
    """The minus component carries the minus preorders into each other."""
    f = hom.minus.mapping
    return bool((~con_preorder(hom.dom) | con_preorder(hom.cod)[f[:, None], f]).all())


def dense_core_map(hom: DFrameHom) -> DFrameHom:
    """The induced map between dense cores.

    Sends a fixpoint to the codomain saturation of its image; for skeletal
    morphisms this assignment is functorial.
    """
    dom, cod = dense_core(hom.dom), dense_core(hom.cod)
    return DFrameHom(dom.as_dframe, cod.as_dframe,
                     _core_component(hom.minus, dom.core.minus, cod.core.minus, cod.nu_minus),
                     _core_component(hom.plus, dom.core.plus, cod.core.plus, cod.nu_plus),
                     name=f"core({hom.name})")


def _core_component(f: FrameHom, src: Sublocale, tgt: Sublocale, sat: Nucleus) -> FrameHom:
    """One component of the core map: src's members go by f into the
    codomain, then by its saturation into the core carrier tgt."""
    image = sat.mapping[f.mapping[np.asarray(src.members)]]
    return FrameHom(src.as_frame, tgt.as_frame, np.searchsorted(tgt.members, image))


# -- classification -------------------------------------------------------------


@dataclass(frozen=True)
class DFrameProperties:
    double_negation: bool
    excluded_middle: bool
    dually_subfit: bool
    corrigible: bool
    regular: bool

    def as_dict(self) -> dict:
        return asdict(self)


def is_double_negation(df: DFrame) -> bool:
    return all(
        (double_pseudocomplements(d) == np.arange(d.minus.n)).all()
        for d in (df, df.swap())
    )


def is_excluded_middle(df: DFrame) -> bool:
    """Every element is total with its pseudocomplement."""
    return all(
        d.tot[np.arange(d.minus.n), pseudocomplements(d)].all()
        for d in (df, df.swap())
    )


def _separates(df: DFrame) -> bool:
    """Every a not below b on the minus side has a witness c, p: p is
    consistent with b meet c but not with a meet c.  With
    below[a, (p, c)] = con[p, a meet c], a witness for (a, b) is a column
    that is False in row a and True in row b; one boolean matrix product
    finds them for every pair."""
    Lm = df.minus
    below = df.con[:, Lm.meet].transpose(1, 0, 2).reshape(Lm.n, -1)
    return bool((Lm.leq | _bool_matmul(~below, below.T)).all())


def is_dually_subfit(df: DFrame) -> bool:
    """Dually subfit means the consistency preorder is the lattice order,
    decided once per d-frame.

    Checked both through the definitional witness search and through the
    preorder; the two must agree.
    """
    return _memo(df, "_dually_subfit", _dually_subfit)


def _dually_subfit(df: DFrame) -> bool:
    by_preorder = all((con_preorder(d) == d.minus.leq).all() for d in (df, df.swap()))
    by_definition = all(_separates(d) for d in (df, df.swap()))
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


# -- the coreflection sweep -----------------------------------------------------


def coreflection_report(dframes, homs=()) -> LawFailures:
    """Desk-scale verification of the coreflection facts.

    For each d-frame: the core of the core is the core; dually subfit
    d-frames are their own core; corrigible d-frames have a double-negation
    core.  Over finite carriers a d-frame is isomorphic to its core exactly
    when the core is whole, so that is the fact checked.  Of the morphisms,
    each skeletal one into a dually subfit codomain factors through the core
    quotient as the core map.
    """
    rep = LawFailures()
    for df in dframes:
        core = dense_core(df)
        realized = core.as_dframe
        again = dense_core(realized)
        if not again.core.is_whole:
            rep.note(df.name, "core not idempotent")
        if not is_dually_subfit(realized):
            rep.note(df.name, "core not dually subfit")
        if is_dually_subfit(df) and not core.core.is_whole:
            rep.note(df.name, "dually subfit but not isomorphic to its core")
        if is_corrigible(df) and not is_double_negation(realized):
            rep.note(df.name, "corrigible but core lacks double negation")
    for hom in homs:
        if not (is_skeletal(hom) and is_dually_subfit(hom.cod)):
            continue
        # The factorisation: f equals (f restricted to the core) after the
        # core quotient, because saturation is absorbed by skeletal maps
        # into dually subfit codomains.
        if not all(
            (h.minus.mapping[saturation_nucleus(h.dom).mapping] == h.minus.mapping).all()
            for h in (hom, hom.swap())
        ):
            rep.note(hom.name, "does not factor through the core quotient")
    return rep
