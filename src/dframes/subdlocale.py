"""Sub-d-locales and their complete lattice.

A pair of component sublocales determines at most one d-frame quotient: the
consistency relation is the Scott closure of the image of con under the
quotient pair, and the totality relation is the restriction of tot.  A pair
is admitted exactly when the induced quadruple passes the d-frame axioms:
admission_matrix tests every pair at once by one order test.  The sweeps
check it against axiom_planes, which decides the nine axioms themselves for
every pair at once; build_sub_d_locale decides them for one pair.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .dframe import _SCAN_BLOCK, DFrame, DFrameHom, _partner_bound, _memo
from .errors import BrokenInvariant, CarrierMismatch, NotASubDLocale, SizeGuardExceeded
from .frames import Sublocale, enumerate_sublocales, sublocale_generated_by
from .order import _bool_matmul, _distributivity_witness, _frozen, bound_table, cover_relation


class SubDLocale:
    """A sublocale pair, admitted by enumerate_sub_d_locales or
    try_sub_d_locale, with its induced relations: con and tot are built
    together on first use, indexed by positions inside the member frames.
    """

    def __init__(self, parent: DFrame, minus: Sublocale, plus: Sublocale):
        self.parent = parent
        self.minus = minus
        self.plus = plus

    @cached_property
    def con(self) -> np.ndarray:
        self.con, self.tot = induced_relations(self.parent, self.minus, self.plus)
        return self.con

    @cached_property
    def tot(self) -> np.ndarray:
        self.con, self.tot = induced_relations(self.parent, self.minus, self.plus)
        return self.tot

    @cached_property
    def label(self) -> str:
        return f"{self.minus.label}.{self.plus.label}"

    @cached_property
    def as_dframe(self) -> DFrame:
        if self.is_whole:
            return self.parent
        return DFrame(self.minus.as_frame, self.plus.as_frame, self.con, self.tot,
                      name=self.label)

    def quotient_hom(self) -> DFrameHom:
        """The extremal epimorphism from the parent onto this sub-d-locale."""
        return DFrameHom(self.parent, self.as_dframe, self.minus.quotient_hom(),
                         self.plus.quotient_hom(), name=f"q[{self.label}]")

    def restricted_con(self) -> np.ndarray:
        """Parent con restricted to the member sets, in position space."""
        return _restrict(self.parent.con, self.plus, self.minus)

    def restricted_tot(self) -> np.ndarray:
        return _restrict(self.parent.tot, self.minus, self.plus)

    def leq(self, other: "SubDLocale") -> bool:
        """Componentwise sublocale inclusion."""
        return other.minus.contains(self.minus) and other.plus.contains(self.plus)

    @property
    def is_whole(self) -> bool:
        return self.minus.is_whole and self.plus.is_whole

    def __eq__(self, other):
        return (
            isinstance(other, SubDLocale)
            and self.parent.minus.elements == other.parent.minus.elements
            and self.parent.plus.elements == other.parent.plus.elements
            and self.minus.members == other.minus.members
            and self.plus.members == other.plus.members
        )

    def __hash__(self):
        return hash((self.minus.members, self.plus.members))

    def __repr__(self):
        return f"SubDLocale({self.label} of {self.parent.name})"


def induced_relations(parent: DFrame, minus: Sublocale, plus: Sublocale):
    """The unique candidate relations for the quotient onto a sublocale pair.

    con is the Scott closure of the image of parent con under the quotient
    pair, which over finite carriers is the image itself; tot is the image
    of parent tot, which always equals the restriction.  A failed check
    raises BrokenInvariant.  Both come back read-only.
    """
    # a quotient value is a member, so its position is its rank among the
    # sorted members
    pos_m = np.searchsorted(minus.members, minus.quotient)
    pos_p = np.searchsorted(plus.members, plus.quotient)

    con = np.zeros((len(plus.members), len(minus.members)), dtype=bool)
    ps, ms = np.where(parent.con)
    con[pos_p[ps], pos_m[ms]] = True

    tot = np.zeros((len(minus.members), len(plus.members)), dtype=bool)
    ms, ps = np.where(parent.tot)
    tot[pos_m[ms], pos_p[ps]] = True
    restriction = _restrict(parent.tot, minus, plus)
    if not (tot == restriction).all():
        raise BrokenInvariant("quotient image of tot must equal its restriction")
    con.flags.writeable = tot.flags.writeable = False
    return con, tot


def _restrict(relation: np.ndarray, rows: Sublocale, cols: Sublocale) -> np.ndarray:
    """The relation on the members of two sublocales, in position space."""
    return _frozen(relation[np.asarray(rows.members)[:, None], np.asarray(cols.members)])


def build_sub_d_locale(parent: DFrame, minus: Sublocale, plus: Sublocale):
    """(SubDLocale, report): the candidate and its nine-axiom report."""
    candidate = SubDLocale(parent, minus, plus)
    return candidate, candidate.as_dframe.validate()


def try_sub_d_locale(parent: DFrame, minus: Sublocale, plus: Sublocale) -> SubDLocale:
    """Validate a sublocale pair; raises NotASubDLocale with the witness."""
    candidate, report = build_sub_d_locale(parent, minus, plus)
    if not report.ok:
        raise NotASubDLocale(report)
    return candidate


def join_sub_d_locales(a: SubDLocale, b: SubDLocale) -> SubDLocale:
    """Least upper bound: componentwise sublocale joins with induced relations.

    Always valid; this is how arbitrary joins witness that the sub-d-locales
    form a complete lattice.
    """
    if a.parent is not b.parent and (
        a.parent.minus.elements != b.parent.minus.elements
        or a.parent.plus.elements != b.parent.plus.elements
    ):
        raise CarrierMismatch("sub-d-locales of different parents")
    return try_sub_d_locale(
        a.parent, a.minus.join_with(b.minus), a.plus.join_with(b.plus)
    )


class SubDLocaleLattice:
    """The enumerated lattice of sub-d-locales of one parent.

    Members are looked up by their (minus, plus) sublocale pair.
    """

    def __init__(self, parent: DFrame, members: list[SubDLocale]):
        self.parent = parent
        self.members = tuple(members)
        self._index = {(s.minus, s.plus): i for i, s in enumerate(members)}
        n = len(members)
        minus = np.array([s.minus.member_vector for s in members]).reshape(n, parent.minus.n)
        plus = np.array([s.plus.member_vector for s in members]).reshape(n, parent.plus.n)
        # componentwise inclusion, as SubDLocale.leq: no member of i lies outside j
        self.leq = ~_bool_matmul(minus, ~minus.T) & ~_bool_matmul(plus, ~plus.T)
        self.leq.flags.writeable = False

    @property
    def n(self) -> int:
        return len(self.members)

    @cached_property
    def labels(self) -> tuple:
        return tuple(s.label for s in self.members)

    def index_of(self, s: SubDLocale) -> int:
        return self.pair_index(s.minus, s.plus)

    def pair_index(self, minus: Sublocale, plus: Sublocale) -> int:
        """Index of the member with these components; KeyError if none."""
        try:
            return self._index[(minus, plus)]
        except KeyError:
            raise KeyError(f"({minus!r}, {plus!r}) is not a member") from None

    @cached_property
    def bottom(self) -> int:
        return int(np.where(self.leq.sum(axis=1) == self.n)[0][0])

    @cached_property
    def top(self) -> int:
        return int(np.where(self.leq.sum(axis=0) == self.n)[0][0])

    def is_join(self, k: int, i: int, j: int) -> bool:
        """Whether k is the least upper bound of i and j: above both, and
        below every common upper bound."""
        uppers = self.leq[i] & self.leq[j]
        return bool(uppers[k] and self.leq[k, uppers].all())

    def is_meet(self, k: int, i: int, j: int) -> bool:
        """Whether k is the greatest lower bound of i and j.

        Generally NOT the componentwise intersection: the intersection pair
        may fail the axioms, in which case the meet drops further down.
        """
        lowers = self.leq[:, i] & self.leq[:, j]
        return bool(lowers[k] and self.leq[lowers, k].all())

    def _componentwise_join(self, *ks: int) -> int:
        """Index of the componentwise sublocale join of the members ks: on
        each side, the sublocale generated by their members.  That join is
        always a sub-d-locale, so a lattice missing it was not enumerated
        whole: BrokenInvariant."""
        minus = [x for k in ks for x in self.members[k].minus.members]
        plus = [x for k in ks for x in self.members[k].plus.members]
        idx = self._index.get((sublocale_generated_by(self.parent.minus, minus),
                               sublocale_generated_by(self.parent.plus, plus)))
        if idx is None:
            labels = " and ".join(self.members[k].label for k in ks)
            raise BrokenInvariant(f"the join of {labels} is not a member")
        return idx

    def join(self, i: int, j: int) -> int:
        """Join by the componentwise construction, checked against the
        definition of the least upper bound."""
        idx = self._componentwise_join(i, j)
        if not self.is_join(idx, i, j):
            raise BrokenInvariant("constructive join must be the lub")
        return idx

    def meet(self, i: int, j: int) -> int:
        """Greatest lower bound, realised as the join of all lower bounds."""
        idx = self._componentwise_join(*np.flatnonzero(self.leq[:, i] & self.leq[:, j]))
        if not self.is_meet(idx, i, j):
            raise BrokenInvariant("join of lower bounds must be the glb")
        return idx

    @cached_property
    def join_table(self) -> np.ndarray:
        """All least upper bounds from the order kernel."""
        table, ok = bound_table(self.leq, lower=False)
        if not ok.all():
            raise BrokenInvariant("sub-d-locales must have unique joins")
        return _frozen(table)

    @cached_property
    def meet_table(self) -> np.ndarray:
        table, ok = bound_table(self.leq, lower=True)
        if not ok.all():
            raise BrokenInvariant("sub-d-locales must have unique meets")
        return _frozen(table)

    def distributivity_witness(self):
        """The first triple (a, b, c) of labels, in row-major order, violating
        meet-over-join distribution, or None."""
        witness = _distributivity_witness(self.meet_table, self.join_table)
        return None if witness is None else tuple(self.labels[k] for k in witness)

    def modularity_witness(self):
        """The first triple (a, b, x) of labels, in row-major order, with
        a <= b violating modularity, or None."""
        meet, join = self.meet_table, self.join_table
        above = np.arange(self.n)[:, None]  # b, down the rows
        for a in range(self.n):
            bad = join[a, meet.T] != meet[join[a], above]
            bad &= self.leq[a][:, None]
            if bad.any():
                b, x = np.argwhere(bad)[0]
                return (self.labels[a], self.labels[b], self.labels[x])
        return None

    @cached_property
    def is_distributive(self) -> bool:
        return self.distributivity_witness() is None

    @cached_property
    def is_modular(self) -> bool:
        return self.modularity_witness() is None

    @cached_property
    def covers(self) -> np.ndarray:
        return cover_relation(self.leq)

    def dot(self) -> str:
        return hasse_dot(self.labels, self.leq)

    def __repr__(self):
        return f"SubDLocaleLattice({self.parent.name}: {self.n} members)"


def enumerate_sub_d_locales(parent: DFrame, max_pairs: int = 400) -> SubDLocaleLattice:
    """All sublocale pairs that induce valid quotients, in canonical order.

    Each side has 2^|primes| sublocales, so more than max_pairs pairs are
    refused before any is enumerated.  Canonical order is by total member
    count, then componentwise member tuples, which makes reports and
    diagrams reproducible.  The lattice is built once per d-frame; a
    refused size is not remembered, so it raises on every call.
    """
    pairs = 2 ** (len(parent.minus.primes) + len(parent.plus.primes))
    if pairs > max_pairs:
        raise SizeGuardExceeded(f"{pairs} sublocale pairs exceed the guard of {max_pairs}")
    return _memo(parent, "_sub_d_locales", lambda df: _enumerate(df, max_pairs))


def _enumerate(parent: DFrame, max_pairs: int) -> SubDLocaleLattice:
    subs_minus = enumerate_sublocales(parent.minus, max_pairs)
    subs_plus = enumerate_sublocales(parent.plus, max_pairs)
    found = [SubDLocale(parent, subs_minus[i], subs_plus[j])
             for i, j in np.argwhere(admission_matrix(parent, subs_minus, subs_plus))]
    found.sort(key=lambda s: (
        len(s.minus.members) + len(s.plus.members),
        s.minus.members, s.plus.members,
    ))
    return SubDLocaleLattice(parent, found)


def admission_matrix(parent: DFrame, subs_minus, subs_plus) -> np.ndarray:
    """[i, j]: whether (subs_minus[i], subs_plus[j]) induces a d-frame.

    Over a valid parent (InvalidDFrame otherwise) only the two con-tot
    axioms can fail.  Con-tot-plus holds iff q+(f(a)) <= q+(g(q-(a))) for
    every minus element a: f(a) is the largest plus element consistent with
    a, so q+(f(a)) is the largest induced partner of q-(a), and g(a) is the
    least one total with a (the meet of all of them).  Con-tot-minus is the
    same test on the swap.
    """
    from .density import pseudocomplements

    parent.assert_valid()
    quotients = [np.array([s.quotient for s in subs]) for subs in (subs_minus, subs_plus)]
    sides = []
    for df, (q_minus, q_plus) in ((parent, quotients), (parent.swap(), quotients[::-1])):
        f = pseudocomplements(df)
        g = _partner_bound(df.tot, df.plus.leq.T, "meet of total elements must stay total")
        sides.append(df.plus.leq[q_plus[:, f][:, None, :], q_plus[:, g[q_minus]]].all(-1))
    return _frozen(sides[0].T & sides[1])


def axiom_planes(parent: DFrame, subs_minus, subs_plus) -> np.ndarray:
    """[k, i, j]: whether the quotient onto (subs_minus[i], subs_plus[j])
    passes check_dframe's k-th axiom, with none of admission_matrix's maps.

    Each pair lives in the parent's index space: con and tot are images
    under its quotients (BrokenInvariant where tot's is not the restriction)
    and its frames keep the parent's order and meets and quotient its joins.
    A chunk of pairs (one at least) keeps about four temporaries of at most
    _SCAN_BLOCK / 16 cells alive, a quarter megabyte: large enough to
    amortise the chunk's calls, small enough to add no measurable peak."""
    qm, qp = (np.array([s.quotient for s in subs], dtype=np.intp).reshape(len(subs), lat.n)
              for subs, lat in ((subs_minus, parent.minus), (subs_plus, parent.plus)))
    i, j = (k.ravel() for k in np.indices((len(qm), len(qp))))
    step = max(1, _SCAN_BLOCK // (16 * parent.con.size * max(parent.con.shape)))
    planes = np.ones((9, len(i)), dtype=bool)  # con-dirjoin holds over finite carriers
    for s in range(0, len(i), step):
        planes[:8, s:s + step] = _pair_planes(parent, qm[i[s:s + step]], qp[j[s:s + step]])
    return _frozen(planes.reshape(9, len(qm), len(qp)))


def _pair_planes(parent: DFrame, qm: np.ndarray, qp: np.ndarray) -> list:
    """The first eight planes of the pairs whose quotients are qm's and qp's rows."""
    Lm, Lp, at = parent.minus, parent.plus, np.arange(len(qm))
    con, tot = (np.zeros((len(qm), *rel.shape), dtype=bool) for rel in (parent.con, parent.tot))
    for image, rel, q_rows, q_cols in ((con, parent.con, qp, qm), (tot, parent.tot, qm, qp)):
        rows, cols = np.nonzero(rel)
        image[at[:, None], q_rows[:, rows], q_cols[:, cols]] = True
    box = (qm == np.arange(Lm.n))[:, :, None] & (qp == np.arange(Lp.n))[:, None, :]  # members
    if (tot != (parent.tot & box)).any():
        raise BrokenInvariant("quotient image of tot must equal its restriction")

    def product(a, b):
        return np.matmul(a, b, dtype=np.float32) > 0

    def lower(rel, rows, cols, box):  # rel holds the members below its cells
        return ~(product(product(rows, rel), cols.T) & box & ~rel).any(axis=(1, 2))

    con_down = lower(con, Lp.leq, Lm.leq, box.transpose(0, 2, 1))
    tot_up = lower(tot, Lm.leq.T, Lp.leq.T, box)
    join_m, join_p = qm[:, Lm.join], qp[:, Lp.join]
    meet_m, meet_p = (np.broadcast_to(lat.meet, (len(at), lat.n, lat.n)) for lat in (Lm, Lp))
    return [con_down,
            _law_plane(con_down, con, join_p, meet_m, True, con[at, qp[:, Lp.bottom], Lm.top]),
            _law_plane(con_down, con, meet_p, join_m, False, con[at, Lp.top, qm[:, Lm.bottom]]),
            tot_up,
            _law_plane(tot_up, tot, join_m, meet_p, False, tot[at, qm[:, Lm.bottom], Lp.top]),
            _law_plane(tot_up, tot, meet_m, join_p, True, tot[at, Lm.top, qp[:, Lp.bottom]]),
            ~(product(con, tot) & ~Lp.leq).any(axis=(1, 2)),    # con-tot-plus
            ~(product(tot, con) & ~Lm.leq.T).any(axis=(1, 2))]  # con-tot-minus, transposed


def _law_plane(order_ok, rel, row_op, col_op, by_cols, nullary) -> np.ndarray:
    """[t]: rel[t] holds its nullary cell, and rel[t][x, y] and rel[t][x', y']
    give rel[t][row_op[t][x, x'], col_op[t][y, y']]: where order_ok[t], a
    test on lines (see check_dframe), each column closed under row_op when
    by_cols is set and each row under col_op if not; elsewhere a scan."""
    lines, op = (rel, row_op) if by_cols else (rel.transpose(0, 2, 1), col_op)
    combined = lines[np.arange(len(rel))[:, None, None], op]
    ok = ~(lines[:, :, None] & lines[:, None] & ~combined).any(axis=(1, 2, 3))
    for t in np.flatnonzero(~order_ok):  # every pair of rel[t]'s cells
        xs, ys = np.nonzero(rel[t])
        block = max(1, _SCAN_BLOCK // max(1, len(xs)))
        ok[t] = all(rel[t][row_op[t][xs[s:s + block, None], xs],
                           col_op[t][ys[s:s + block, None], ys]].all()
                    for s in range(0, len(xs), block))
    return ok & nullary


def hasse_dot(labels, leq: np.ndarray) -> str:
    """Deterministic DOT rendering of the cover relation of a finite order.

    One node per element with its display label; one edge per cover pair,
    drawn from the lower to the upper element.
    """
    lines = ["digraph hasse {", "  rankdir=BT;", "  node [shape=plaintext];"]
    for i, lab in enumerate(labels):
        lines.append(f'  n{i} [label="{lab}"];')
    for i, j in np.argwhere(cover_relation(np.asarray(leq, dtype=bool))):
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
