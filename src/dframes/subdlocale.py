"""Sub-d-locales and their complete lattice.

A pair of component sublocales determines at most one d-frame quotient: con
is the image of parent con under the quotient pair (its own Scott closure
over finite carriers), and tot is the restriction of tot.  admission_matrix
admits every pair at once by one order test; the sweeps check it against
axiom_planes, which decides the nine axioms for every pair at once, and
build_sub_d_locale decides them for one pair.  The lattice holds the admitted
pairs as positions in the two sublocale lists, and every per-member array
is a gather from one row per sublocale.  It works on prime mask pairs (joins
are ORs, and its join and meet tables are lookups checked against its
order); member_plane decides a law for all its members at once in the
parent's index space, as quotient_epis does.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .dframe import _SCAN_BLOCK, DFrame, DFrameHom, _image, _memo, _partner_bound, axiom_verdicts
from .errors import BrokenInvariant, NotASubDLocale, SizeGuardExceeded
from .frames import Sublocale, _same_frame, enumerate_sublocales
from .order import _bool_matmul, _distributivity_witness, _frozen, cover_relation


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
    def relations(self) -> tuple:
        """(con, tot), from induced_relations."""
        return induced_relations(self.parent, self.minus, self.plus)

    con = property(lambda self: self.relations[0])
    tot = property(lambda self: self.relations[1])

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
        """Equal components, which compare carriers and members."""
        return isinstance(other, SubDLocale) and (self.minus, self.plus) == (other.minus, other.plus)

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
    # a quotient value is a member, so each image lies on the member rows
    # and columns, which it is gathered on
    con = _image(parent.con, plus.quotient[None], minus.quotient[None], parent.con.shape)[0]
    tot = _image(parent.tot, minus.quotient[None], plus.quotient[None], parent.tot.shape)[0]
    if (tot != (parent.tot & minus.member_vector[:, None] & plus.member_vector)).any():
        raise BrokenInvariant("quotient image of tot must equal its restriction")
    return _restrict(con, plus, minus), _restrict(tot, minus, plus)


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
    """Least upper bound: componentwise sublocale joins with induced relations;
    CarrierMismatch if the carriers differ.

    Always valid; this is how arbitrary joins witness that the sub-d-locales
    form a complete lattice.
    """
    return try_sub_d_locale(a.parent, a.minus.join_with(b.minus), a.plus.join_with(b.plus))


class SubDLocaleLattice:
    """The enumerated lattice of sub-d-locales of one parent, in prime
    coordinates.  pairs[k] holds member k's positions in the two sublocale
    lists, and per-member arrays are gathers of per-sublocale rows: masks[k]
    holds member k's minus primes below its plus primes, and by_mask[m] is
    the member with mask pair m, or -1.  Members are closed under OR, so a
    join is the OR of two masks and a meet the largest member inside their
    AND; leq, from the member sets, checks both.
    """

    def __init__(self, parent: DFrame, pairs):
        self.parent = parent
        self.pairs = _frozen(np.array(pairs, dtype=np.intp).reshape(-1, 2))
        # all of both sides: the pair guard has bounded their product
        self.sublocales = tuple(enumerate_sublocales(lat, 2 ** len(lat.primes))
                                for lat in (parent.minus, parent.plus))
        minus, plus = self.stacks("mask")
        shift = len(parent.minus.primes)
        self.masks = _frozen(minus | plus << shift)
        self.by_mask = np.full(2 ** (shift + len(parent.plus.primes)), -1, dtype=np.int64)
        self.by_mask[self.masks] = np.arange(self.n)
        self.by_mask.flags.writeable = False

    @property
    def n(self) -> int:
        return len(self.pairs)

    def rows(self, attr: str) -> list:
        """[minus, plus]: attr (quotient, member_vector, mask or label) of
        every sublocale of that side, one row per sublocale, built once."""
        return _memo(self, f"_{attr}_rows", lambda ds: [
            _frozen(np.array([getattr(s, attr) for s in subs])) for subs in ds.sublocales])

    def stacks(self, attr: str) -> list:
        """[minus, plus]: attr of the members' components, one row per member."""
        return [rows[at] for rows, at in zip(self.rows(attr), self.pairs.T)]

    @cached_property
    def members(self) -> tuple:
        """The members as SubDLocales, built on first use."""
        minus, plus = self.sublocales
        return tuple(SubDLocale(self.parent, minus[i], plus[j]) for i, j in self.pairs.tolist())

    @cached_property
    def labels(self) -> tuple:
        return tuple(f"{minus}.{plus}" for minus, plus in zip(*self.stacks("label")))

    @cached_property
    def leq(self) -> np.ndarray:
        """Componentwise inclusion, as SubDLocale.leq: no member of i lies outside j."""
        minus, plus = self.stacks("member_vector")
        return _frozen(~_bool_matmul(minus, ~minus.T) & ~_bool_matmul(plus, ~plus.T))

    @cached_property
    def below_mask(self) -> np.ndarray:
        """[m]: the largest member inside mask pair m, or -1.  Members are
        closed under OR, so it is the member at the OR of the members inside
        m; those ORs, over the submasks of every m, are taken a bit at a time."""
        inside = np.where(self.by_mask < 0, 0, np.arange(len(self.by_mask)))
        for bit in range(len(inside).bit_length() - 1):
            halves = inside.reshape(-1, 2, 1 << bit)  # [:, 1] has the bit set
            halves[:, 1] |= halves[:, 0]
        return _frozen(self.by_mask[inside])

    def _member(self, lookup: np.ndarray, mask: int, what: str, *ks) -> int:
        """lookup[mask]; BrokenInvariant naming what, filled with ks' labels, if missing."""
        if lookup[mask] < 0:
            what = what.format(*(self.labels[k] for k in ks))
            raise BrokenInvariant(f"the {what} is not a member")
        return int(lookup[mask])

    def mask_of(self, minus: Sublocale, plus: Sublocale) -> int:
        """The mask pair of two member sets, sublocales or not."""
        return minus.mask | plus.mask << len(self.parent.minus.primes)

    def index_of(self, s: SubDLocale) -> int:
        """Index of the member with s's components; KeyError if none or over other frames."""
        ours = (_same_frame(s.minus.frame, self.parent.minus)
                and _same_frame(s.plus.frame, self.parent.plus))
        idx = int(self.by_mask[self.mask_of(s.minus, s.plus)]) if ours else -1
        if idx < 0:
            raise KeyError(f"{s!r} is not a member")
        return idx

    @cached_property
    def bottom(self) -> int:
        return self._member(self.by_mask, 0, "one-point pair")

    @cached_property
    def top(self) -> int:
        return self._member(self.by_mask, len(self.by_mask) - 1, "whole pair")

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

    def join(self, i: int, j: int) -> int:
        """The member at the OR of the masks, checked to be the lub."""
        idx = self._member(self.by_mask, self.masks[i] | self.masks[j], "join of {} and {}", i, j)
        if not self.is_join(idx, i, j):
            raise BrokenInvariant("constructive join must be the lub")
        return idx

    def meet(self, i: int, j: int) -> int:
        """The largest member inside the AND of the masks, checked to be the glb."""
        idx = self._member(self.below_mask, self.masks[i] & self.masks[j],
                           "join of the members below {} and {}", i, j)
        if not self.is_meet(idx, i, j):
            raise BrokenInvariant("constructive meet must be the glb")
        return idx

    @cached_property
    def join_table(self) -> np.ndarray:
        """All joins: the members at the ORs of the masks, checked against leq."""
        table = _lookup_table(self.by_mask, self.masks, np.bitwise_or)
        return _certified(table, self.leq, self.covers, "joins")

    @cached_property
    def meet_table(self) -> np.ndarray:
        """All meets: the largest members inside the ANDs, checked against leq."""
        table = _lookup_table(self.below_mask, self.masks, np.bitwise_and)
        return _certified(table, self.leq.T, self.covers.T, "meets")

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
        return _dot(self.labels, self.covers)

    def __repr__(self):
        return f"SubDLocaleLattice({self.parent.name}: {self.n} members)"


def enumerate_sub_d_locales(parent: DFrame, max_pairs: int = 400) -> SubDLocaleLattice:
    """All sublocale pairs that induce valid quotients, in canonical order.

    Each side has 2^|primes| sublocales, so more than max_pairs pairs are
    refused before any is enumerated.  Canonical order is by total member
    count, then componentwise member tuples, which makes reports and
    diagrams reproducible.  Every call builds a fresh lattice, which lives
    as long as its caller holds it.
    """
    pairs = 2 ** (len(parent.minus.primes) + len(parent.plus.primes))
    if pairs > max_pairs:
        raise SizeGuardExceeded(f"{pairs} sublocale pairs exceed the guard of {max_pairs}")
    subs = [enumerate_sublocales(lat, max_pairs) for lat in (parent.minus, parent.plus)]
    i, j = np.nonzero(admission_matrix(parent, *subs))
    # per side, the member counts and the ranks of the member tuples (the
    # inverse of the permutation that sorts them)
    sizes = [np.array([len(s.members) for s in side]) for side in subs]
    ranks = [np.argsort(sorted(range(len(side)), key=lambda k: side[k].members)) for side in subs]
    order = np.lexsort((ranks[1][j], ranks[0][i], sizes[0][i] + sizes[1][j]))
    return SubDLocaleLattice(parent, np.stack([i, j], axis=1)[order])


def admission_matrix(parent: DFrame, subs_minus, subs_plus) -> np.ndarray:
    """[i, j]: whether (subs_minus[i], subs_plus[j]) induces a d-frame: over a
    valid parent (InvalidDFrame otherwise) admitted_pairs decides the only two
    axioms that can fail, with its pseudocomplements and least total partners."""
    from .density import pseudocomplements

    parent.assert_valid()
    maps = [(pseudocomplements(df),
             _partner_bound(df.tot, df.plus.leq.T, "meet of total elements must stay total"))
            for df in (parent, parent.swap())]
    return _frozen(admitted_pairs(parent.minus, parent.plus, subs_minus, subs_plus, *maps))


def admitted_pairs(minus, plus, subs_minus, subs_plus, minus_maps, plus_maps) -> np.ndarray:
    """[..., i, j]: the con-tot axioms of the quotient onto (subs_minus[i],
    subs_plus[j]), with maps (f, g) on minus and (f', g') on plus that may
    share leading axes.  Con-tot-plus holds iff q+(f(a)) <= q+(g(q-(a))), or
    f(a) <= q+(g(q-(a))) as q+ is a closure, for every minus element a: f(a)
    is the largest plus element consistent with a, and g(a) the least one
    total with a.  Con-tot-minus is the same test on plus."""
    q = [np.array([s.quotient for s in subs]) for subs in (subs_minus, subs_plus)]
    sides = [lat.leq[:, q_cod].transpose(1, 0, 2)[:, f[..., None, :], g[..., q_dom]].all(-1)
             for lat, q_dom, q_cod, (f, g) in ((plus, *q, minus_maps), (minus, *q[::-1], plus_maps))]
    return np.moveaxis(sides[0], 0, -1) & np.moveaxis(sides[1], 0, -2)


def axiom_planes(parent: DFrame, subs_minus, subs_plus) -> np.ndarray:
    """[k, i, j]: whether the quotient onto (subs_minus[i], subs_plus[j])
    passes check_dframe's k-th axiom, with none of admission_matrix's maps.

    Each pair lives in the parent's index space: con and tot are images
    under its quotients (BrokenInvariant where tot's is not the restriction)
    and its frames keep the parent's order and meets and quotient its joins.
    A chunk of pairs (one at least) keeps its temporaries under a quarter
    megabyte each: large enough to amortise the chunk's calls, small enough
    to add no measurable peak."""
    Lm, Lp = parent.minus, parent.plus
    sub_m, sub_p = (np.array([s.quotient for s in subs], dtype=np.intp).reshape(len(subs), lat.n)
                    for subs, lat in ((subs_minus, Lm), (subs_plus, Lp)))
    i, j = (k.ravel() for k in np.indices((len(sub_m), len(sub_p))))
    step, planes = max(1, _SCAN_BLOCK // (16 * parent.con.size * max(parent.con.shape))), []
    for at in (slice(s, s + step) for s in range(0, len(i), step)):
        qm, qp = sub_m[i[at]], sub_p[j[at]]
        con, tot = _image(parent.con, qp, qm, parent.con.shape), _image(parent.tot, qm, qp, parent.tot.shape)
        box = (qp == np.arange(Lp.n))[:, :, None] & (qm == np.arange(Lm.n))[:, None]  # members
        if (tot != (parent.tot & box.transpose(0, 2, 1))).any():
            raise BrokenInvariant("quotient image of tot must equal its restriction")
        counts = [np.matmul(q == np.arange(lat.n), lat.orders, dtype=np.int32)
                  for q, lat in ((qm, Lm), (qp, Lp))]
        planes.append(axiom_verdicts(Lm, Lp, con, tot, (qm[:, Lm.join], qp[:, Lp.join]),
                                     (qm[:, Lm.bottom], qp[:, Lp.bottom]), counts, box))
    return _frozen(np.concatenate(planes, axis=1).reshape(9, len(sub_m), len(sub_p)))


def member_plane(ds: SubDLocaleLattice, law) -> np.ndarray:
    """[k]: law(at, qm, qp, box) on member k, a verdict or a row, for chunks
    `at` of the members as axiom_planes takes pairs: qm and qp stack the
    chunk's quotients, and box[t] holds the minus x plus cells of the
    elements both fix."""
    (qm, qp), Lm, Lp = ds.stacks("quotient"), ds.parent.minus, ds.parent.plus
    parts, step = [], max(1, _SCAN_BLOCK // (16 * Lm.n * Lp.n))
    for at in (slice(s, s + step) for s in range(0, ds.n, step)):
        box = (qm[at] == np.arange(Lm.n))[:, :, None] & (qp[at] == np.arange(Lp.n))[:, None]
        parts.append(law(at, qm[at], qp[at], box))
    return _frozen(np.concatenate(parts))


def quotient_epis(ds: SubDLocaleLattice) -> np.ndarray:
    """[k]: is_extremal_epi(ds.members[k].quotient_hom()), decided once per
    lattice in the parent's index space: each quotient hits exactly its
    member set, and the image of tot is its restriction (that of con is
    member k's con)."""
    return _memo(ds, "_quotient_epis", _quotient_epis)


def _quotient_epis(ds: SubDLocaleLattice) -> np.ndarray:
    tot, (vm, vp) = ds.parent.tot, ds.stacks("member_vector")
    return member_plane(ds, lambda at, qm, qp, box: (
        ((qm[:, :, None] == np.arange(ds.parent.minus.n)).any(axis=1) == vm[at]).all(axis=1)
        & ((qp[:, :, None] == np.arange(ds.parent.plus.n)).any(axis=1) == vp[at]).all(axis=1)
        & (_image(tot, qm, qp, tot.shape) == tot & box).all(axis=(1, 2))))


def _lookup_table(lookup: np.ndarray, masks: np.ndarray, op) -> np.ndarray:
    """[i, j] = lookup[op(masks[i], masks[j])], a block of rows at a time."""
    n = len(masks)
    table = np.empty((n, n), dtype=np.min_scalar_type(-n))  # signed: -1 marks a non-member
    step = max(1, _SCAN_BLOCK // max(1, n))
    for s in range(0, n, step):
        table[s:s + step] = lookup[op(masks[s:s + step, None], masks)]
    return table


def _certified(table: np.ndarray, leq: np.ndarray, covers: np.ndarray, kind: str) -> np.ndarray:
    """table, frozen, if it is the lub table of leq, whose cover relation is
    covers (the glb table, for leq.T and covers.T); BrokenInvariant if not.
    It is if its cells are members and it is symmetric, above both arguments,
    u at (i, u) for i <= u, and monotone along the covers: a common upper
    bound u of i and j then has table[i, j] <= table[u, j] = u.  A gather
    takes about _SCAN_BLOCK / 16 cells, half a megabyte of indices, so that
    it adds no measurable peak."""
    at, step = np.arange(len(table)), max(1, _SCAN_BLOCK // (16 * max(1, len(table))))
    ok = table.min(initial=0) >= 0
    for s in range(0, len(table), step):
        rows = table[s:s + step]
        ok = ok and ((rows == table[:, s:s + step].T).all()  # symmetric
                     and leq[at[s:s + step, None], rows].all()  # above both arguments
                     and (rows == at)[leq[s:s + step]].all())  # u at (i, u) for i <= u
    lower, upper = np.nonzero(covers)
    for s in range(0, len(lower), step):  # monotone along the covers
        ok = ok and leq[table[lower[s:s + step]], table[upper[s:s + step]]].all()
    if not ok:
        raise BrokenInvariant(f"sub-d-locales must have unique {kind}")
    return _frozen(table)


def hasse_dot(labels, leq: np.ndarray) -> str:
    """Deterministic DOT rendering of the cover relation of a finite order: one
    node per element with its display label, and one edge per cover pair,
    drawn from the lower to the upper element (_dot, which dot() shares)."""
    return _dot(labels, cover_relation(np.asarray(leq, dtype=bool)))


def _dot(labels, covers: np.ndarray) -> str:
    lines = ["digraph hasse {", "  rankdir=BT;", "  node [shape=plaintext];"]
    for i, lab in enumerate(labels):
        lines.append(f'  n{i} [label="{lab}"];')
    for i, j in np.argwhere(covers):
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
