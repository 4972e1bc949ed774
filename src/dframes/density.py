"""Pseudocomplements, dense sub-d-locales, and the smallest dense quotient.

The consistency relation induces an antitone Galois connection between the
two component frames; its double maps generate the dense core, the
smallest dense sub-d-locale.  The same data yields the structural
predicates for a d-frame: corrigible, skeletal (for morphisms), double
negation, excluded middle and dually subfit.  One kernel, density_planes,
decides a side's density for a stack of members: a d-frame is the stack of
its whole pair, and member_cores stacks a lattice's members.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .dframe import DFrame, DFrameHom, _image, _memo, _partner_bound, is_regular
from .errors import BrokenInvariant, CharacterizationMismatch, EquivalenceMismatch
from .frames import FrameHom, Nucleus, Sublocale
from .order import _bool_matmul, _frozen, _joins, _row_blocks
from .subdlocale import SubDLocale, SubDLocaleLattice, member_box, member_plane, try_sub_d_locale


# -- pseudocomplements -------------------------------------------------------
#
# Every per-side structure below is a function of one d-frame's minus side,
# built once and kept in that d-frame's memo.  The plus side is the same
# function of df.swap(), which is built once and keeps its own memo; the
# preorder and saturation come from density_planes on its stack of one.


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
    sets = [Sublocale(d.minus, set(double_pseudocomplements(d).tolist())) for d in (df, df.swap())]
    return (*sets, *(s.is_valid for s in sets))


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
        _image(con, qp, qm, con.shape) == con & box).all(axis=(1, 2)))
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


def density_planes(d: DFrame, pc, op, vec, labels) -> tuple:
    """(pre, nu, primes) per member t of a stack on d's minus side: t keeps
    the parent's order and meets, has the members vec[t], the image of its
    nucleus q, and has pseudocomplements pc[t] on this side, the bottom off
    the members, and op[t] on the other.

    pre[t, a, b]: every p consistent with b meet c, for any member c, is
    consistent with a meet c, so pc[t, b meet c] <= pc[t, a meet c].  nu[t]:
    a |-> the join of the elements below a, which is that of the members
    below a: with b, so is q(b) (for a member c, q(b) meet c = q(b meet c)
    is b meet c if that is a member, and pc[t, a meet c] is the bottom if
    not).  Members are closed under the member's joins (pc turns joins into
    meets), so nu needs no closure by the quotient.  primes[t, k]:
    primes[k] is minimal above a double pseudocomplement; they must generate
    nu[t]'s fixpoints (EquivalenceMismatch naming labels[t])."""
    lat, F = d.minus, pc[:, d.minus.meet]  # F[t, x, c] = pc[t, x /\ c]
    pre, leq = np.empty((len(pc), lat.n, lat.n), dtype=bool), d.plus.leq.ravel()
    for rows in _row_blocks(lat.n, pre.size):  # one flat index into leq gathers faster than two
        pre[:, rows] = (leq[F[:, None] * d.plus.n + F[:, rows, None]] | ~vec[:, None, None]).all(axis=-1)
    nu = _joins(pre.transpose(0, 2, 1).reshape(-1, lat.n), lat.leq).reshape(vec.shape)
    primes = (lat.minimal_primes[op[np.arange(len(op))[:, None], pc]] & vec[:, :, None]).any(axis=1)
    generated = (lat.minimal_primes <= primes[:, None]).all(axis=2)
    for k in np.flatnonzero((((nu == np.arange(lat.n)) & vec) != generated).any(axis=1))[:1]:
        raise EquivalenceMismatch(f"saturation fixpoints differ from the sublocale generated by the double "
                                  f"pseudocomplements in {labels[k]} on the minus side of {d.name}")
    return pre, nu, primes


def _separated(d: DFrame, rel, vec, other) -> np.ndarray:
    """[t]: every a not below b among the members vec[t] has a witness c
    among them and p among other[t] with rel[t, b meet c, p] but not
    rel[t, a meet c, p], for rel[t] member t's con transposed; one boolean
    product a block of (c, p) of at most SLAB_CELLS cells at a time."""
    lat, (size, _, width) = d.minus, rel.shape
    witnessed = lat.leq | ~(vec[:, :, None] & vec[:, None])
    for cs in _row_blocks(lat.n, size * lat.n * width):
        cells = rel[:, lat.meet[:, cs]].reshape(size, lat.n, -1)  # [t, a, (c, p)]
        live = (vec[:, cs, None] & other[:, None]).reshape(size, 1, -1)
        witnessed |= _bool_matmul(~cells & live, cells.transpose(0, 2, 1))
    return witnessed.all(axis=(1, 2))


def _checked_subfit(df: DFrame, pres, con, fixed, labels) -> np.ndarray:
    """[t]: member t's preorders pres are the orders on its members, side by
    side, each side checked by _separated on its con[t] (EquivalenceMismatch
    naming labels[t] where they disagree); the plus side is decided only for
    the members whose minus side is ordered."""
    subfit = np.ones(len(con), dtype=bool)
    for side, d, pre, rel, (vec, other) in zip(("minus", "plus"), (df, df.swap()), pres,
                                               (con.transpose(0, 2, 1), con), (fixed, fixed[::-1])):
        at = np.flatnonzero(subfit)
        if not at.size:
            break
        ordered = ((pre[at] == d.minus.leq) | ~(vec[at, :, None] & vec[at, None])).all(axis=(1, 2))
        separated = _separated(d, rel[at], vec[at], other[at])
        for k in np.flatnonzero(ordered != separated)[:1]:
            raise EquivalenceMismatch(f"dual subfitness tests disagree on {labels[at[k]]} of {df.name} "
                                      f"({side}): preorder={ordered[k]}, definitional={separated[k]}")
        subfit[at] = ordered
    return subfit


def _whole_pair(d: DFrame) -> tuple:
    """(preorder, saturation) of d's minus side: density_planes on the stack
    of d's whole pair, the saturation checked to be a nucleus, kept in d's
    memo by its two readers below."""
    pre, nu, _ = density_planes(d, pseudocomplements(d)[None], pseudocomplements(d.swap())[None],
                                np.ones((1, d.minus.n), dtype=bool), ("the whole pair",))
    nu = Nucleus(d.minus, nu[0])
    if not nu.is_valid:
        raise EquivalenceMismatch(f"saturation on the minus side of {d.name} is not a "
                                  f"nucleus: {nu.violation()}")
    return _frozen(pre)[0], nu


def con_preorder(df: DFrame) -> np.ndarray:
    """The minus consistency preorder, built once per d-frame and read-only;
    con_preorder(df.swap()) is the plus side's.

    a is below b when every consistency witness against b-in-context is
    already one against a-in-context.  It contains the lattice order and is
    transitive.
    """
    return _memo(df, "_whole_pair", _whole_pair)[0]


def saturation_nucleus(df: DFrame) -> Nucleus:
    """The saturation of the minus consistency preorder, built once per
    d-frame; saturation_nucleus(df.swap()) is the plus side's.

    a |-> the join of everything below a in the preorder, verified to be a
    nucleus (density_planes checks its fixpoints).  Its fixpoints are the
    minus carrier of the dense core.
    """
    return _memo(df, "_whole_pair", _whole_pair)[1]


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
    subfit, by density_planes and _checked_subfit on the stack of ds's
    members.  A core is checked to be a member (BrokenInvariant) and dense
    in its member (EquivalenceMismatch)."""
    df, quotients = ds.parent, ds.stacks("quotient")
    sides = [(d, con_preorder(d)) for d in (df, df.swap())]
    bits = 1 << np.arange(len(df.minus.primes) + len(df.plus.primes))

    def law(at, qm, qp, box):
        con, labels, t = _image(df.con, qp, qm, df.con.shape), ds.labels[at], np.arange(len(qm))
        fixed = [q == np.arange(q.shape[1]) for q in (qm, qp)]
        # [t, a]: the largest partner consistent with a in member t
        pcs = [_joins(rel.reshape(-1, rel.shape[2]), d.plus.leq).reshape(rel.shape[:2])
               for rel, (d, _) in zip((con.transpose(0, 2, 1), con), sides)]
        planes = [density_planes(d, pc, op, vec, labels)
                  for (d, _), vec, pc, op in zip(sides, fixed, pcs, pcs[::-1])]
        subfit = _checked_subfit(df, [pre for pre, _, _ in planes], con, fixed, labels)
        skeletal = np.logical_and.reduce([
            (~order | pre[t[:, None, None], q[:, :, None], q[:, None]]).all(axis=(1, 2))
            for (_, order), (pre, *_), q in zip(sides, planes, (qm, qp))])
        cores = ds.by_mask[np.concatenate([primes for _, _, primes in planes], axis=1) @ bits]
        for k in np.flatnonzero(cores < 0)[:1]:
            raise BrokenInvariant(f"the dense core of member {labels[k]} is not a member")
        # the core's con, the image of the member's under the core's quotients
        # (which absorb the member's), is the member's on the core's cells
        qm, qp = (q[cores] for q in quotients)
        core_con = _image(df.con, qp, qm, con.shape[1:])
        for k in np.flatnonzero((core_con != con & member_box(qm, qp)).any(axis=(1, 2)))[:1]:
            raise EquivalenceMismatch(f"the dense core of member {labels[k]} is not dense in it")
        return np.stack([cores, skeletal, subfit], axis=1)

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
        conds = _memo(d, "_corrigibility_conditions", _corrigibility_conditions)
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
    image = Sublocale(lat, set(double.tolist()))  # a sublocale or not
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


def is_dually_subfit(df: DFrame) -> bool:
    """Dually subfit: both consistency preorders are the lattice orders,
    decided once per d-frame and checked by the witness search (_separated)."""
    return _memo(df, "_dually_subfit", _dually_subfit)


def _dually_subfit(df: DFrame) -> bool:
    sides = (df, df.swap())
    return bool(_checked_subfit(df, [con_preorder(d)[None] for d in sides], df.con[None],
                                [np.ones((1, d.minus.n), dtype=bool) for d in sides], ("the whole pair",))[0])


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
