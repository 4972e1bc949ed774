"""D-frames: pairs of frames with consistency and totality relations.

The consistency relation con lives in (plus x minus) and the totality
relation tot in (minus x plus); both are stored as boolean matrices over
element indices.  Validation names each axiom individually and reports the
first counterexample tuple, which keeps failures actionable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BrokenInvariant, CarrierMismatch, InvalidDFrame, TrivialMismatch
from .frames import Frame, FrameHom
from .order import down_closure_pairs, is_down_closed_pairs, is_up_closed_pairs, up_closure_pairs


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    ok: bool
    witness: tuple = ()

    def __str__(self):
        if self.ok:
            return f"{self.name}: ok"
        return f"{self.name}: FAIL at {self.witness}"


@dataclass(frozen=True)
class AxiomReport:
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def first_failure(self):
        return next((c for c in self.checks if not c.ok), None)

    def __str__(self):
        return "; ".join(str(c) for c in self.checks)


class DFrame:
    """A quadruple (minus frame, plus frame, con, tot).

    The constructor only stores; run validate() or use the checked
    factories below.  con[p, m] means plus element p is consistent with
    minus element m; tot[m, p] means they are total.
    """

    def __init__(self, minus: Frame, plus: Frame, con: np.ndarray, tot: np.ndarray,
                 name: str | None = None):
        con = np.asarray(con, dtype=bool)
        tot = np.asarray(tot, dtype=bool)
        if con.shape != (plus.n, minus.n):
            raise CarrierMismatch(f"con must be {plus.n}x{minus.n}, got {con.shape}")
        if tot.shape != (minus.n, plus.n):
            raise CarrierMismatch(f"tot must be {minus.n}x{plus.n}, got {tot.shape}")
        self.minus = minus
        self.plus = plus
        self.con = con.copy()
        self.tot = tot.copy()
        self.con.flags.writeable = False
        self.tot.flags.writeable = False
        self.name = name if name is not None else f"{minus.name}.{plus.name}"

    def con_pairs(self) -> list[tuple[str, str]]:
        return [
            (self.plus.elements[p], self.minus.elements[m])
            for p, m in zip(*np.where(self.con))
        ]

    def tot_pairs(self) -> list[tuple[str, str]]:
        return [
            (self.minus.elements[m], self.plus.elements[p])
            for m, p in zip(*np.where(self.tot))
        ]

    def validate(self) -> AxiomReport:
        return check_dframe(self)

    def assert_valid(self) -> "DFrame":
        report = self.validate()
        if not report.ok:
            raise InvalidDFrame(report)
        return self

    @property
    def is_trivial(self):
        return self.minus.is_trivial and self.plus.is_trivial

    def __repr__(self):
        return f"DFrame({self.name}: |con|={int(self.con.sum())}, |tot|={int(self.tot.sum())})"


def check_dframe(df: DFrame) -> AxiomReport:
    """Run the nine named axioms, each with a first-counterexample witness."""
    Lm, Lp, con, tot = df.minus, df.plus, df.con, df.tot
    checks = []

    # (con-down): con is a lower set of plus x minus.
    if is_down_closed_pairs(Lp.lattice, Lm.lattice, con):
        checks.append(AxiomCheck("con-down", True))
    else:
        checks.append(AxiomCheck("con-down", False, _down_witness(Lp, Lm, con)))

    checks.append(_pairwise_check(
        "con-join", con, Lp.join, Lm.meet, Lp.elements, Lm.elements,
        nullary=(Lp.bottom, Lm.top)))
    checks.append(_pairwise_check(
        "con-meet", con, Lp.meet, Lm.join, Lp.elements, Lm.elements,
        nullary=(Lp.top, Lm.bottom)))

    # (tot-up): tot is an upper set of minus x plus.
    if is_up_closed_pairs(Lm.lattice, Lp.lattice, tot):
        checks.append(AxiomCheck("tot-up", True))
    else:
        checks.append(AxiomCheck("tot-up", False, _up_witness(Lm, Lp, tot)))

    checks.append(_pairwise_check(
        "tot-meet", tot, Lm.join, Lp.meet, Lm.elements, Lp.elements,
        nullary=(Lm.bottom, Lp.top)))
    checks.append(_pairwise_check(
        "tot-join", tot, Lm.meet, Lp.join, Lm.elements, Lp.elements,
        nullary=(Lm.top, Lp.bottom)))

    # (con-tot), plus side: phi con a and a tot psi force phi <= psi.
    comp = (con.astype(np.int64) @ tot.astype(np.int64)) > 0
    bad = comp & ~Lp.leq
    if bad.any():
        p1, p2 = next(zip(*np.where(bad)))
        m = int(np.where(con[p1, :] & tot[:, p2])[0][0])
        checks.append(AxiomCheck(
            "con-tot-plus", False,
            (Lp.elements[p1], "con", Lm.elements[m], "tot", Lp.elements[p2])))
    else:
        checks.append(AxiomCheck("con-tot-plus", True))

    # (con-tot), minus side: phi con a and b tot phi force a <= b.
    comp2 = (con.astype(np.int64).T @ tot.astype(np.int64).T) > 0
    bad2 = comp2 & ~Lm.leq
    if bad2.any():
        m1, m2 = next(zip(*np.where(bad2)))
        p = int(np.where(con[:, m1] & tot[m2, :])[0][0])
        checks.append(AxiomCheck(
            "con-tot-minus", False,
            (Lp.elements[p], "con", Lm.elements[m1], "while", Lm.elements[m2],
             "tot", Lp.elements[p])))
    else:
        checks.append(AxiomCheck("con-tot-minus", True))

    # (con-dirjoin): a finite directed set holds its own join, so every
    # relation is closed under directed joins (directed_joins_bruteforce is
    # the test oracle).
    checks.append(AxiomCheck("con-dirjoin", True))

    return AxiomReport(tuple(checks))


def _pairwise_check(name, rel, row_op, col_op, row_names, col_names, nullary):
    rows, cols = np.where(rel)
    if len(rows):
        # combined[i, j] = rel[row_op[r_i, r_j], col_op[c_i, c_j]]
        combined = rel[row_op[rows[:, None], rows], col_op[cols[:, None], cols]]
        if not combined.all():
            i, j = next(zip(*np.where(~combined)))
            return AxiomCheck(name, False, (
                (row_names[rows[i]], col_names[cols[i]]),
                (row_names[rows[j]], col_names[cols[j]]),
            ))
    if not rel[nullary]:
        return AxiomCheck(name, False, ((row_names[nullary[0]], col_names[nullary[1]]), "missing"))
    return AxiomCheck(name, True)


def _down_witness(Lp, Lm, con):
    for p, m in zip(*np.where(con)):
        for p2 in np.where(Lp.leq[:, p])[0]:
            for m2 in np.where(Lm.leq[:, m])[0]:
                if not con[p2, m2]:
                    return (Lp.elements[p2], Lm.elements[m2], "below",
                            Lp.elements[p], Lm.elements[m])
    return ()


def _up_witness(Lm, Lp, tot):
    for m, p in zip(*np.where(tot)):
        for m2 in np.where(Lm.leq[m, :])[0]:
            for p2 in np.where(Lp.leq[p, :])[0]:
                if not tot[m2, p2]:
                    return (Lm.elements[m2], Lp.elements[p2], "above",
                            Lm.elements[m], Lp.elements[p])
    return ()


# -- canonical constructors ---------------------------------------------------


def minimal_dframe(minus: Frame, plus: Frame, name: str | None = None) -> DFrame:
    """The d-frame with the smallest possible relations.

    Valid exactly when neither frame is trivial or both are; with only one
    trivial side the con-tot axiom collapses the other side's bounds.
    """
    if minus.is_trivial != plus.is_trivial:
        raise TrivialMismatch("exactly one component frame is trivial")
    con = np.zeros((plus.n, minus.n), dtype=bool)
    con[plus.bottom, :] = True
    con[:, minus.bottom] = True
    tot = np.zeros((minus.n, plus.n), dtype=bool)
    tot[minus.top, :] = True
    tot[:, plus.top] = True
    return DFrame(minus, plus, con, tot, name=name).assert_valid()


def symmetric_dframe(frame: Frame, name: str | None = None) -> DFrame:
    """Both components equal; con is disjointness, tot is covering."""
    meet, join = frame.meet, frame.join
    con = meet.T == frame.bottom  # con[p, m]: p /\ m = 0
    tot = join == frame.top       # tot[m, p]: m \/ p = 1
    if name is None:
        name = f"Sym({frame.name})"
    return DFrame(frame, frame, con, tot, name=name).assert_valid()


# -- morphisms ---------------------------------------------------------------


class DFrameHom:
    """A pair of frame maps expected to preserve con and tot."""

    def __init__(self, dom: DFrame, cod: DFrame, minus: FrameHom, plus: FrameHom,
                 name: str | None = None):
        if minus.dom is not dom.minus or minus.cod is not cod.minus:
            raise CarrierMismatch("minus component does not map dom.minus to cod.minus")
        if plus.dom is not dom.plus or plus.cod is not cod.plus:
            raise CarrierMismatch("plus component does not map dom.plus to cod.plus")
        self.dom = dom
        self.cod = cod
        self.minus = minus
        self.plus = plus
        self.name = name or "f"

    @classmethod
    def identity(cls, df: DFrame) -> "DFrameHom":
        return cls(df, df, FrameHom.identity(df.minus), FrameHom.identity(df.plus), name="id")

    def compose(self, inner: "DFrameHom") -> "DFrameHom":
        """self after inner."""
        if inner.cod is not self.dom:
            raise CarrierMismatch("composition endpoints do not line up")
        return DFrameHom(
            inner.dom, self.cod,
            self.minus.compose(inner.minus), self.plus.compose(inner.plus),
            name=f"{self.name}.{inner.name}",
        )

    def con_image(self) -> np.ndarray:
        """Image of dom's con inside cod's index space."""
        out = np.zeros((self.cod.plus.n, self.cod.minus.n), dtype=bool)
        ps, ms = np.where(self.dom.con)
        out[self.plus.mapping[ps], self.minus.mapping[ms]] = True
        return out

    def tot_image(self) -> np.ndarray:
        out = np.zeros((self.cod.minus.n, self.cod.plus.n), dtype=bool)
        ms, ps = np.where(self.dom.tot)
        out[self.minus.mapping[ms], self.plus.mapping[ps]] = True
        return out

    def violations(self) -> list:
        """Frame-hom failures of both components plus relation preservation."""
        out = [("minus " + v.law, v.witness) for v in self.minus.violations()]
        out += [("plus " + v.law, v.witness) for v in self.plus.violations()]
        bad_con = self.con_image() & ~self.cod.con
        if bad_con.any():
            p, m = next(zip(*np.where(bad_con)))
            out.append(("con", (self.cod.plus.elements[p], self.cod.minus.elements[m])))
        bad_tot = self.tot_image() & ~self.cod.tot
        if bad_tot.any():
            m, p = next(zip(*np.where(bad_tot)))
            out.append(("tot", (self.cod.minus.elements[m], self.cod.plus.elements[p])))
        return out

    @cached_property
    def is_hom(self) -> bool:
        return not self.violations()

    def __eq__(self, other):
        return (
            isinstance(other, DFrameHom)
            and self.minus == other.minus
            and self.plus == other.plus
        )

    def __hash__(self):
        return hash((self.minus, self.plus))

    def __repr__(self):
        return f"DFrameHom({self.name}: {self.dom.name} -> {self.cod.name})"


def check_dframe_hom(hom: DFrameHom) -> tuple[bool, list]:
    bad = hom.violations()
    return (not bad, bad)


def is_monomorphism(hom: DFrameHom) -> bool:
    """Monos are exactly the componentwise one-one homomorphisms."""
    return hom.minus.is_injective and hom.plus.is_injective


def is_extremal_epi(hom: DFrameHom) -> bool:
    """Componentwise surjective, and the con and tot images are exactly the
    codomain con and tot (over finite carriers the con image needs no Scott
    closure)."""
    if not (hom.minus.is_surjective and hom.plus.is_surjective):
        return False
    return bool((hom.con_image() == hom.cod.con).all() and (hom.tot_image() == hom.cod.tot).all())


def dense_hom_witness(hom: DFrameHom):
    """A pair (phi, a) whose image is consistent while the pair is not."""
    ps, ms = np.where(~hom.dom.con)
    hit = hom.cod.con[hom.plus.mapping[ps], hom.minus.mapping[ms]]
    if hit.any():
        k = int(np.where(hit)[0][0])
        return (hom.dom.plus.elements[ps[k]], hom.dom.minus.elements[ms[k]])
    return None


def is_dense_hom(hom: DFrameHom) -> bool:
    """Dense homomorphisms reflect the consistency relation."""
    return dense_hom_witness(hom) is None


@dataclass(frozen=True)
class Factorization:
    onto: DFrameHom
    image: DFrame
    embedding: DFrameHom


def image_factorization(hom: DFrameHom) -> Factorization:
    """Factor through the image d-frame: a surjection followed by a mono.

    The image carries the sub-frames generated by the component images, the
    con image (already Scott closed over finite carriers) and the tot image.
    """
    # Subframes, not sublocales: image carriers keep the codomain's joins.
    img_minus = _subframe(hom.cod.minus, hom.minus.image_indices())
    img_plus = _subframe(hom.cod.plus, hom.plus.image_indices())

    pos_minus = {idx: k for k, idx in enumerate(hom.minus.image_indices())}
    pos_plus = {idx: k for k, idx in enumerate(hom.plus.image_indices())}

    con_img = np.zeros((img_plus.n, img_minus.n), dtype=bool)
    ps, ms = np.where(hom.dom.con)
    con_img[
        [pos_plus[int(i)] for i in hom.plus.mapping[ps]],
        [pos_minus[int(i)] for i in hom.minus.mapping[ms]],
    ] = True
    if not is_down_closed_pairs(img_plus.lattice, img_minus.lattice, con_img):
        raise BrokenInvariant("con image of a surjection must be a lower set")

    tot_img = np.zeros((img_minus.n, img_plus.n), dtype=bool)
    ms, ps = np.where(hom.dom.tot)
    tot_img[
        [pos_minus[int(i)] for i in hom.minus.mapping[ms]],
        [pos_plus[int(i)] for i in hom.plus.mapping[ps]],
    ] = True

    image = DFrame(img_minus, img_plus, con_img, tot_img,
                   name=f"im({hom.name})").assert_valid()
    onto = DFrameHom(
        hom.dom, image,
        FrameHom(hom.dom.minus, img_minus, [pos_minus[int(i)] for i in hom.minus.mapping]),
        FrameHom(hom.dom.plus, img_plus, [pos_plus[int(i)] for i in hom.plus.mapping]),
        name=f"{hom.name}-onto",
    )
    embedding = DFrameHom(
        image, hom.cod,
        FrameHom(img_minus, hom.cod.minus, list(hom.minus.image_indices())),
        FrameHom(img_plus, hom.cod.plus, list(hom.plus.image_indices())),
        name=f"{hom.name}-incl",
    )
    return Factorization(onto, image, embedding)


def _subframe(frame: Frame, indices) -> Frame:
    """The subset as a frame with the inherited order.

    Valid when the subset is closed under the frame's meets and joins (image
    of a frame hom always is); then bounds and operations restrict.
    """
    from .order import Lattice

    sub = np.asarray(sorted(indices))
    leq = frame.leq[np.ix_(sub, sub)]
    return Frame(Lattice(frame.names(sub), leq), name=f"{frame.name}|{len(sub)}")


# -- regularity ---------------------------------------------------------------


def rather_below(df: DFrame) -> tuple[np.ndarray, np.ndarray]:
    """The two composites of con and tot.

    Returns (minus, plus): minus[a, b] iff some phi has phi con a and
    b tot phi; plus[phi, psi] iff some a has phi con a and a tot psi.  The
    con-tot axiom says both sit inside the lattice orders.
    """
    plus = (df.con.astype(np.int64) @ df.tot.astype(np.int64)) > 0
    minus = (df.con.astype(np.int64).T @ df.tot.astype(np.int64).T) > 0
    return minus, plus


def is_regular(df: DFrame) -> bool:
    """Every element is the join of the elements rather below it."""
    rb_minus, rb_plus = rather_below(df)
    for b in range(df.minus.n):
        if df.minus.join_all(np.where(rb_minus[:, b])[0]) != b:
            return False
    for q in range(df.plus.n):
        if df.plus.join_all(np.where(rb_plus[:, q])[0]) != q:
            return False
    return True


# -- generator closure ---------------------------------------------------------
#
# Relation sets are convenient to author as generators; the loader closes
# them under everything except con-tot, which no closure can repair.  The
# transpose of tot obeys con's laws with upper sets for lower sets, so both
# share one extensive step on (plus x minus), iterated to its fixpoint.


def _closure_step(minus: Frame, plus: Frame, rel: np.ndarray, order_closure) -> np.ndarray:
    step = order_closure(plus.lattice, minus.lattice, rel)
    ps, ms = np.where(step)
    step[plus.join[ps[:, None], ps], minus.meet[ms[:, None], ms]] = True
    step[plus.meet[ps[:, None], ps], minus.join[ms[:, None], ms]] = True
    return step


def con_closure_step(minus: Frame, plus: Frame, con: np.ndarray) -> np.ndarray:
    """One round of the con closure: the lower set, then the binary laws."""
    return _closure_step(minus, plus, con, down_closure_pairs)


def tot_closure_step(minus: Frame, plus: Frame, tot: np.ndarray) -> np.ndarray:
    """One round of the tot closure: the upper set, then the binary laws."""
    return _closure_step(minus, plus, tot.T, up_closure_pairs).T


def _close(minus: Frame, plus: Frame, rel, order_closure) -> np.ndarray:
    rel = np.asarray(rel, dtype=bool).copy()
    rel[plus.bottom, minus.top] = True
    rel[plus.top, minus.bottom] = True
    while True:
        step = _closure_step(minus, plus, rel, order_closure)
        if (step == rel).all():
            return rel
        rel = step


def close_con_generators(minus: Frame, plus: Frame, con: np.ndarray) -> np.ndarray:
    """Close a set of con generators under the nullary pairs, lower sets and
    the two binary combination laws."""
    return _close(minus, plus, con, down_closure_pairs)


def close_tot_generators(minus: Frame, plus: Frame, tot: np.ndarray) -> np.ndarray:
    """Close a set of tot generators under the nullary pairs, upper sets and
    the two binary combination laws."""
    return _close(minus, plus, np.asarray(tot).T, up_closure_pairs).T
