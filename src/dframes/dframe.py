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

from .errors import BrokenInvariant, CarrierMismatch, DomainMismatch, InvalidDFrame, TrivialMismatch
from .frames import Frame, FrameHom
from .order import _bool_matmul, _frozen, _joins, _row_blocks


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

    The constructor only stores, keeping an array that is read-only and owns
    its data, or is a view of such an array (a swap's transposes), and
    copying any other; run validate() or use the checked factories below.
    con[p, m]: plus p con minus m; tot[m, p]: m tot p.
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
        self.con, self.tot = (a if _frozen_owner(a) else a.copy() for a in (con, tot))
        self.con.flags.writeable = self.tot.flags.writeable = False
        self.name = name if name is not None else f"{minus.name}.{plus.name}"

    def swap(self) -> "DFrame":
        """The d-frame (plus, minus, con transposed, tot transposed).

        Built once, so df.swap() is df.swap() and df.swap().swap() is df.
        Each per-side computation is written for the minus side and run on
        df and on df.swap(), so the swap's memo holds df's plus-side
        structure, built once.
        """
        swapped = vars(self).get("_swap")
        if swapped is None:
            swapped = DFrame(self.plus, self.minus, self.con.T, self.tot.T,
                             name=f"swap({self.name})")
            swapped._swap = self
            swapped = vars(self).setdefault("_swap", swapped)
        return swapped

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
        """check_dframe, run once per d-frame."""
        return _memo(self, "_axioms", check_dframe)

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


def _frozen_owner(a: np.ndarray) -> bool:
    """a is read-only, and so is the array owning its data: a itself or its base."""
    owner = a if a.base is None else a.base
    return (not a.flags.writeable and isinstance(owner, np.ndarray)
            and owner.flags.owndata and not owner.flags.writeable)


def _memo(df, key: str, build):
    """build(df), run once per d-frame or morphism and kept in its instance dict.

    Its arrays are read-only, so whatever is derived from them stays
    valid as long as it lives, and dies with it.  A build that
    raises stores nothing: the next call runs it, and fails, again.
    """
    memo = vars(df)
    if key not in memo:
        memo[key] = build(df)
    return memo[key]


def _partner_bound(rows: np.ndarray, leq: np.ndarray, law: str) -> np.ndarray:
    """a |-> the join under leq of the elements rows[a] relates a to, checked
    to be related to a itself: on con.T and the plus order the largest
    consistent partner, on tot and the reversed order the least total one."""
    out = _joins(rows, leq)
    if not rows[np.arange(len(rows)), out].all():
        raise BrokenInvariant(law)
    return _frozen(out)


# The nine axioms in report order, the order of axiom_verdicts' rows.
AXIOMS = ("con-down", "con-join", "con-meet", "tot-up", "tot-meet", "tot-join",
          "con-tot-plus", "con-tot-minus", "con-dirjoin")
_PASSED = {name: AxiomCheck(name, True) for name in AXIOMS}


def check_dframe(df: DFrame) -> AxiomReport:
    """The nine named axioms by axiom_verdicts, each failed one with its first counterexample."""
    Lm, Lp = df.minus, df.plus
    ok, found = axiom_verdicts(Lm, Lp, df.con[None], df.tot[None], (Lm.join, Lp.join),
                               (Lm.bottom, Lp.bottom), [lat.orders.sum(1)[:, None] for lat in (Lm, Lp)], True)
    return AxiomReport(tuple(_PASSED[name] if row[0] else AxiomCheck(name, False, _witness(df, name, found))
                             for name, row in zip(AXIOMS, ok)))


def _witness(df: DFrame, name: str, found: dict) -> tuple:
    """The first counterexample to axiom name, which df fails (from found where it is)."""
    Lm, Lp, con, tot = df.minus, df.plus, df.con, df.tot

    def law(rel, row_op, col_op, rows, cols, nullary):
        bad = found[name, 0] if (name, 0) in found else _first_bad_pair(rel, row_op, col_op)
        if bad is None:
            return ((rows.elements[nullary[0]], cols.elements[nullary[1]]), "missing")
        return tuple((rows.elements[r], cols.elements[c]) for r, c in bad)

    return {
        "con-down": lambda: _order_witness(con, Lp, Lm, upper=False),
        "con-join": lambda: law(con, Lp.join, Lm.meet, Lp, Lm, (Lp.bottom, Lm.top)),
        "con-meet": lambda: law(con, Lp.meet, Lm.join, Lp, Lm, (Lp.top, Lm.bottom)),
        "tot-up": lambda: _order_witness(tot, Lm, Lp, upper=True),
        "tot-meet": lambda: law(tot, Lm.join, Lp.meet, Lm, Lp, (Lm.bottom, Lp.top)),
        "tot-join": lambda: law(tot, Lm.meet, Lp.join, Lm, Lp, (Lm.top, Lp.bottom)),
        "con-tot-plus": lambda: _con_tot_witness(found[name][0], con, tot, lambda p1, m, p2: (
            Lp.elements[p1], "con", Lm.elements[m], "tot", Lp.elements[p2])),
        "con-tot-minus": lambda: _con_tot_witness(found[name][0].T, con.T, tot.T, lambda m1, p, m2: (
            Lp.elements[p], "con", Lm.elements[m1], "while", Lm.elements[m2], "tot", Lp.elements[p])),
    }[name]()


def axiom_verdicts(minus: Frame, plus: Frame, con, tot, joins, bottoms, counts, box) -> tuple:
    """(verdicts, found): verdicts[k][t] is whether the pair (con[t], tot[t])
    passes the k-th axiom of AXIOMS; found[law, t] is a binary law's first
    failing pair of cells (or None) where its relation failed the order
    check, found[law][t] the cells breaking a con-tot law.

    The pairs share minus x plus's index space, orders, meets and tops, and
    each side of pair t is a lattice of members: joins and bottoms hold its
    join table and bottom (per pair where stacked), counts its [below,
    above] counts ([., t, x]: the members below or above x), and box[t] its
    plus x minus member cells (True: every cell).  tot.T obeys con's laws
    for the reversed orders, so the stack [con, tot.T] is decided at once.
    """
    (join_m, join_p), (bot_m, bot_p), (counts_m, counts_p) = joins, bottoms, counts
    at = np.arange(len(con))
    rel = np.array([con, tot.transpose(0, 2, 1)])
    closure = _bool_matmul(_bool_matmul(plus.orders[:, None], rel), minus.orders.transpose(0, 2, 1)[:, None])
    ordered = ~(closure & box & ~rel).any(axis=(2, 3))  # con is a lower set, tot an upper set
    # Once con is a lower set, con-join holds iff each column is closed under
    # plus joins ((p, a) and (p', a') give (p, a/\a') and (p', a/\a')), and
    # con-meet iff each row is closed under minus joins; on tot.T these are
    # tot-meet and tot-join.  A nonempty down-set of a finite lattice closed
    # under binary joins is the down-set of its join, so a line passes iff it
    # is empty or one of its cells has as many members below it (above it,
    # on tot.T) as the line has cells.  Where the order check failed, every
    # pair of cells is scanned, in con's and in tot's row-major order.
    cols, rows = ((np.where(lines, counts[..., :, None], 0) == lines.sum(axis=2, keepdims=True))
                  .any(axis=2).all(axis=2)
                  for lines, counts in ((rel, counts_p), (rel.transpose(0, 1, 3, 2), counts_m)))
    found, laws = {}, [[("con-join", join_p, minus.meet), ("con-meet", plus.meet, join_m)],  # on con
                       [("tot-meet", join_m, plus.meet), ("tot-join", minus.meet, join_p)]]  # on tot
    for s, t in [] if ordered.all() else np.argwhere(~ordered):
        for ok, (law, *ops) in zip((cols, rows), laws[s]):
            found[law, t] = _first_bad_pair((con, tot)[s][t], *(op if op.ndim == 2 else op[t] for op in ops))
            ok[s, t] = found[law, t] is None
    corner, other = rel[:, at, bot_p, minus.top], rel[:, at, plus.top, bot_m]  # the nullary cells
    found["con-tot-plus"] = _bool_matmul(con, tot) & ~plus.leq
    found["con-tot-minus"] = _bool_matmul(tot, con) & ~minus.leq.T
    return [
        ordered[0], cols[0] & corner[0], rows[0] & other[0],
        ordered[1], cols[1] & other[1], rows[1] & corner[1],
        # (con-tot): phi con a and a tot psi force phi <= psi, and phi con a
        # and b tot phi force a <= b (transposed here)
        ~found["con-tot-plus"].any(axis=(1, 2)), ~found["con-tot-minus"].any(axis=(1, 2)),
        # (con-dirjoin): a finite directed set holds its own join (the tests
        # confirm this with a brute-force scan of the directed subsets)
        np.ones(len(con), dtype=bool),
    ], found


def _first_bad_pair(rel, row_op, col_op):
    """The first pair of rel's cells (r, c), (r', c') in row-major order with
    rel[row_op[r, r'], col_op[c, c']] false, or None; a block of rows at a time."""
    rows, cols = np.where(rel)
    for at in _row_blocks(len(rows), len(rows)):
        combined = rel[row_op[rows[at, None], rows], col_op[cols[at, None], cols]]
        if not combined.all():
            i, j = next(zip(*np.where(~combined)))
            return (rows[at][i], cols[at][i]), (rows[j], cols[j])
    return None


def _order_witness(rel, rows, cols, upper) -> tuple:
    """The first pair missing below (above, if upper) a member, in rel's row-major order."""
    row_leq, col_leq = (rows.leq.T, cols.leq.T) if upper else (rows.leq, cols.leq)
    for r, c in zip(*np.where(rel)):
        for r2, c2 in np.argwhere(row_leq[:, r, None] & col_leq[:, c] & ~rel)[:1]:
            return (rows.elements[r2], cols.elements[c2], "above" if upper else "below",
                    rows.elements[r], cols.elements[c])


def _con_tot_witness(bad, con, tot, witness) -> tuple:
    """witness(x, y, z) of the first x con y, y tot z with (x, z) in bad."""
    x, z = next(zip(*np.where(bad)))
    y = int(np.where(con[x, :] & tot[:, z])[0][0])
    return witness(x, y, z)


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

    def swap(self) -> "DFrameHom":
        """The same pair of maps between the swapped d-frames."""
        return DFrameHom(self.dom.swap(), self.cod.swap(), self.plus, self.minus, name=self.name)

    def images(self) -> tuple[np.ndarray, np.ndarray]:
        """The images of dom's con and tot inside cod's index space, built once."""
        m, p = self.minus.mapping[None], self.plus.mapping[None]
        return _memo(self, "_images", lambda hom: (
            _frozen(_image(hom.dom.con, p, m, hom.cod.con.shape)[0]),
            _frozen(_image(hom.dom.tot, m, p, hom.cod.tot.shape)[0])))

    def violations(self) -> list:
        """Frame-hom failures of both components plus relation preservation."""
        out = [("minus " + v.law, v.witness) for v in self.minus.violations()]
        out += [("plus " + v.law, v.witness) for v in self.plus.violations()]
        con_image, tot_image = self.images()
        cod = self.cod
        for law, bad, rows, cols in (("con", con_image & ~cod.con, cod.plus, cod.minus),
                                     ("tot", tot_image & ~cod.tot, cod.minus, cod.plus)):
            if bad.any():
                r, c = next(zip(*np.where(bad)))
                out.append((law, (rows.elements[r], cols.elements[c])))
        return out

    @cached_property
    def is_hom(self) -> bool:
        return not self.violations()

    def __eq__(self, other):
        """Equal component maps between d-frames with equal relations."""
        return (
            isinstance(other, DFrameHom)
            and self.minus == other.minus
            and self.plus == other.plus
            and all(a is b or ((a.con == b.con).all() and (a.tot == b.tot).all())
                    for a, b in ((self.dom, other.dom), (self.cod, other.cod)))
        )

    def __hash__(self):
        return hash((self.minus, self.plus))

    def __repr__(self):
        return f"DFrameHom({self.name}: {self.dom.name} -> {self.cod.name})"


def _image(rel: np.ndarray, q_rows: np.ndarray, q_cols: np.ndarray, shape) -> np.ndarray:
    """[t]: rel's image, of the given shape, under q_rows[t] on rows and q_cols[t] on columns."""
    image = np.zeros((len(q_rows), *shape), dtype=bool)
    rows, cols = rel.nonzero()
    image[np.arange(len(q_rows))[:, None], q_rows[:, rows], q_cols[:, cols]] = True
    return image


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
    con_image, tot_image = hom.images()
    return bool((con_image == hom.cod.con).all() and (tot_image == hom.cod.tot).all())


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
    The image of an extremal epi is its codomain.
    """
    (onto_m, incl_m), (onto_p, incl_p) = _factor(hom.minus), _factor(hom.plus)
    im, ip = incl_m.mapping, incl_p.mapping
    con_image, tot_image = hom.images()  # both vanish outside the image carriers
    if (onto_m is hom.minus and onto_p is hom.plus
            and (con_image == hom.cod.con).all() and (tot_image == hom.cod.tot).all()):
        image = hom.cod
    else:
        image = DFrame(onto_m.cod, onto_p.cod, _frozen(con_image[ip[:, None], im]),
                       _frozen(tot_image[im[:, None], ip]), name=f"im({hom.name})")
    image.assert_valid()  # a map pair that is no homomorphism fails here
    onto = DFrameHom(hom.dom, image, onto_m, onto_p, name=f"{hom.name}-onto")
    embedding = DFrameHom(image, hom.cod, incl_m, incl_p, name=f"{hom.name}-incl")
    return Factorization(onto, image, embedding)


def _factor(f: FrameHom) -> tuple[FrameHom, FrameHom]:
    """f as a surjection onto its image followed by the inclusion.

    Subframes, not sublocales: the image keeps the codomain's joins, and is
    the codomain itself when f is onto.  The image of a frame hom is closed
    under the codomain's meets and joins, so it is the restriction whose
    closure is the identity; an image that is not raises DomainMismatch.
    """
    if f.is_surjective:
        return f, FrameHom.identity(f.cod)
    idx = np.asarray(f.image_indices())
    if not np.isin(np.stack([f.cod.meet, f.cod.join])[:, idx[:, None], idx], idx).all():
        raise DomainMismatch(f"the image of {f!r} is not closed under meets and joins")
    image = f.cod.restrict(idx, np.arange(f.cod.n), f"{f.cod.name}|{len(idx)}")
    return FrameHom(f.dom, image, np.searchsorted(idx, f.mapping)), FrameHom(image, f.cod, idx)


# -- regularity ---------------------------------------------------------------


def rather_below(df: DFrame) -> tuple[np.ndarray, np.ndarray]:
    """The two composites of con and tot.

    Returns (minus, plus): minus[a, b] iff some phi has phi con a and
    b tot phi; plus is minus of the swap, plus[phi, psi] iff some a has
    phi con a and a tot psi.  The con-tot axiom says both sit inside the
    lattice orders.
    """
    return tuple(_frozen(_bool_matmul(d.con.T, d.tot.T)) for d in (df, df.swap()))


def is_regular(df: DFrame) -> bool:
    """Every element is the join of the elements rather below it."""
    return all((_joins(rb.T, d.minus.leq) == np.arange(d.minus.n)).all()
               for d, rb in zip((df, df.swap()), rather_below(df)))


# -- generator closure ---------------------------------------------------------
#
# Relation sets are convenient to author as generators; the loader closes
# them under everything except con-tot, which no closure can repair.  The
# transpose of tot obeys con's laws for the reversed orders (upper sets for
# lower sets, meets for joins), so both share one extensive step on
# (plus x minus), iterated to its fixpoint.  A lower set obeys the binary
# laws iff its lines are closed under joins (see axiom_verdicts), that is, iff
# each nonempty line is the principal ideal of its join.


def _closure_step(plus_leq: np.ndarray, minus_leq: np.ndarray, rel: np.ndarray) -> np.ndarray:
    """The lower set of rel, then each nonempty column and each nonempty row
    closed to the principal ideal of its join, all for the given orders (for
    the reversed orders: the upper set, and principal filters of meets)."""
    step = _bool_matmul(_bool_matmul(plus_leq, rel), minus_leq.T)
    step = plus_leq[:, _joins(step.T, plus_leq)] & step.any(axis=0)
    return minus_leq[:, _joins(step, minus_leq)].T & step.any(axis=1)[:, None]


def _close(minus: Frame, plus: Frame, rel, upper: bool) -> np.ndarray:
    """The least relation above rel holding the nullary pairs, a lower set
    (an upper set when upper is set) obeying the binary laws."""
    rel = np.asarray(rel, dtype=bool).copy()
    rel[plus.bottom, minus.top] = True
    rel[plus.top, minus.bottom] = True
    plus_leq, minus_leq = (plus.leq.T, minus.leq.T) if upper else (plus.leq, minus.leq)
    while True:
        step = _closure_step(plus_leq, minus_leq, rel)
        if (step == rel).all():
            return _frozen(rel)
        rel = step


def close_con_generators(minus: Frame, plus: Frame, con: np.ndarray) -> np.ndarray:
    """Close a set of con generators under the nullary pairs, lower sets and
    the two binary combination laws."""
    return _close(minus, plus, con, upper=False)


def close_tot_generators(minus: Frame, plus: Frame, tot: np.ndarray) -> np.ndarray:
    """Close a set of tot generators under the nullary pairs, upper sets and
    the two binary combination laws."""
    return _close(minus, plus, np.asarray(tot).T, upper=True).T
