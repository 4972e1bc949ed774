"""Small-model enumeration: the frame pool, built from posets by Birkhoff
duality, the standard d-frame corpus, seeded random d-frames, and the miner.

Everything here is bounded-exhaustive and deterministic so corpus sweeps
and miner reports replay byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice, product

import numpy as np

from .density import is_corrigible, is_double_negation, is_excluded_middle
from .dframe import (
    DFrame,
    close_con_generators,
    close_tot_generators,
    minimal_dframe,
    symmetric_dframe,
)
from .errors import EquivalenceMismatch, SizeGuardExceeded
from .frames import Frame, enumerate_sublocales
from .order import Lattice, _frozen
# Nothing calls build_sub_d_locale through this binding; it stays because
# benchmarks/test_benchmark.py checks that the tracer wraps it here.
from .subdlocale import admission_matrix, admitted_pairs, build_sub_d_locale  # noqa: F401


def frame_pool(max_size: int) -> list[Frame]:
    """All finite frames up to max_size elements, up to isomorphism.

    A finite frame is the down-set lattice of a poset (Birkhoff): posets grow
    a point at a time, each point above one down-set, while they have at most
    max_size down-sets, and isomorphic ones meet under one labelling.
    """
    if max_size > 7:
        raise SizeGuardExceeded(f"frames of {max_size} elements exceed the pool guard of 7")
    found: dict = {}
    posets = [(0,)]  # each poset as its down-sets, bitmasks over its points
    for downsets in (d for d in posets if len(d) <= max_size):  # posets grows as it is read
        leq = _least_labelling(downsets)
        if found.setdefault(leq.tobytes(), leq) is leq:
            point = downsets[-1] + 1  # the last down-set holds every point
            posets += [downsets + tuple(s | point for s in downsets if s & d == d)
                       for d in downsets]
    leqs = sorted(found.values(), key=lambda leq: (len(leq), leq.sum(), leq.tobytes()))
    return [Frame(Lattice([f"x{i}" for i in range(len(leq))], leq), name=f"D{k}")
            for k, leq in enumerate(leqs)]


def _least_labelling(downsets: tuple) -> np.ndarray:
    """The inclusion order of downsets along its least-mask linear extension
    (bit k: the k-th pair i < j, row-major, has i <= j), a mask scan's first copy."""
    below = [[s & t == s for t in downsets] for s in downsets]

    def extensions(order, left):
        if not left:
            yield order
        for x in left:
            if not any(below[y][x] for y in left - {x}):
                yield from extensions(order + [x], left - {x})

    best = min(extensions([], set(range(len(downsets)))), key=lambda order: [  # highest bit first
        below[a][b] for i, a in enumerate(order) for b in order[i + 1:]][::-1])
    return np.array([[below[a][b] for b in best] for a in best])


def standard_corpus(max_size: int = 5) -> list[DFrame]:
    """The generated corpus: every minimal and symmetric d-frame over the
    distributive lattices with at most max_size elements."""
    pool = frame_pool(max_size)
    # a minimal d-frame needs both frames trivial or neither
    return ([symmetric_dframe(frame, name=f"Sym({frame.name})") for frame in pool]
            + [minimal_dframe(a, b, name=f"{a.name}.{b.name}")
               for a, b in product(pool, pool) if a.is_trivial == b.is_trivial])


def random_dframe(rng, pool: list[Frame]) -> DFrame:
    """A seeded random d-frame: random frame pair from the pool plus random
    generator pairs closed into valid relations.

    The closure handles every axiom except con-tot; candidates violating it
    are rejected and retried, so the draw always terminates (the minimal
    relations are always valid).
    """
    for attempt in range(64):
        minus = rng.choice(pool)
        plus = rng.choice(pool)
        if minus.is_trivial != plus.is_trivial:
            continue
        con = np.zeros((plus.n, minus.n), dtype=bool)
        tot = np.zeros((minus.n, plus.n), dtype=bool)
        for _ in range(rng.randrange(0, 3)):
            con[rng.randrange(plus.n), rng.randrange(minus.n)] = True
        for _ in range(rng.randrange(0, 3)):
            tot[rng.randrange(minus.n), rng.randrange(plus.n)] = True
        candidate = DFrame(
            minus, plus,
            close_con_generators(minus, plus, con),
            close_tot_generators(minus, plus, tot),
            name=f"rnd{attempt}",
        )
        if candidate.validate().ok:
            return candidate
    return minimal_dframe(pool[-1], pool[-1], name="rnd-fallback")


# -- bounded-exhaustive relation enumeration -----------------------------------
#
# Fix a frame pair.  A valid con is fixed by f(a) = max{p : p con a}, which
# sends 0 to 1 and joins to meets, hence by its values on the
# join-irreducibles J(L-): each antitone map J(L-) -> L+ extends, by
# f(a) = meet of f(j) over j <= a, to exactly one valid con, con[p, a] iff
# p <= f(a).  Dually a valid tot is fixed by g(a) = min{p : a tot p} on the
# primes of L-, extended by g(a) = join of g(k) over primes k >= a, and
# tot[a, p] iff g(a) <= p (Birkhoff, Rings of sets, 1937; Davey and
# Priestley, Introduction to Lattices and Order, ch. 5).  A con and a tot
# make a d-frame iff f <= g on L- and f' <= g' on L+, where
# f'(p) = max{a : p con a} and g'(p) = min{a : a tot p}.


def _irreducibles(minus: Frame, con: bool) -> tuple[list, list]:
    """J(L-) for con, the primes for tot, in a linear extension of minus's
    order, and for each the earlier positions it covers within that set."""
    order = sorted(minus.join_irreducibles if con else minus.primes,
                   key=lambda x: int(minus.leq[:, x].sum()))
    covers = []
    for i, x in enumerate(order):
        below = [a for a in range(i) if minus.leq[order[a], x]]
        covers.append([a for a in below
                       if not any(minus.leq[order[a], order[c]] for c in below if c != a)])
    return order, covers


def _antitone_maps(covers: list, plus: Frame, cap: int) -> np.ndarray:
    """Every antitone map from the positions of covers into plus, one per row.

    Backtracks position by position, all partial maps at once: each value is
    bounded by the meet of the values at the positions it covers.  Each step
    is counted from its bounds' down-sets before it is built, and one past cap
    raises SizeGuardExceeded: every partial map extends (by plus's bottom)."""
    maps = np.zeros((1, 0), dtype=np.intp)
    for i in range(len(covers)):
        bound = np.full(len(maps), plus.top)
        for a in covers[i]:
            bound = plus.meet[bound, maps[:, a]]
        if (count := int(plus.leq.sum(axis=0)[bound].sum())) > cap:
            raise SizeGuardExceeded(f"{count} antitone maps on the first {i + 1} of "
                                    f"{len(covers)} irreducibles exceed the cap of {cap}")
        rows, values = np.nonzero(plus.leq[:, bound].T)
        maps = np.column_stack([maps[rows], values])
    return maps


def _candidates(minus: Frame, plus: Frame, cap: int) -> list:
    """The con side and the tot side, each as its irreducibles in order and
    their antitone maps; SizeGuardExceeded past cap con x tot candidates."""
    sides = []
    for side in ("con", "tot"):
        order, covers = _irreducibles(minus, side == "con")
        try:
            sides.append((order, _antitone_maps(covers, plus, cap)))
        except SizeGuardExceeded as exc:
            raise SizeGuardExceeded(f"{side} side: {exc}") from None
    cons, tots = (len(maps) for _, maps in sides)
    if cons * tots > cap:
        raise SizeGuardExceeded(
            f"{cons} x {tots} = {cons * tots} con x tot candidates exceed the cap of {cap}")
    return sides


def count_candidates(minus: Frame, plus: Frame, cap: int = 1 << 18) -> int:
    """The con x tot candidates of a frame pair, the product of its two sides'
    antitone maps; SizeGuardExceeded when there are more than cap."""
    (_, f), (_, g) = _candidates(minus, plus, cap)
    return len(f) * len(g)


def _relations(minus: Frame, plus: Frame, con: bool, order: list, maps: np.ndarray) -> tuple:
    """Every valid con (or tot) relation, stacked, and its map f (or g) on
    minus, one row each, from the irreducibles' order and antitone maps.

    They come in mask order: the bitmask over the free cells, bit k the k-th
    free cell in row-major order.  The forced cells are held by every
    relation, so the last cell in which two relations differ decides."""
    op, start = (plus.meet, plus.top) if con else (plus.join, plus.bottom)
    full = np.full((len(maps), minus.n), start)
    for col, x in enumerate(order):
        reach = minus.leq[x] if con else minus.leq[:, x]
        full[:, reach] = op[full[:, reach], maps[:, col, None]]
    rels = plus.leq[:, full].transpose(1, 0, 2) if con else plus.leq[full]
    key = np.lexsort(rels.reshape(len(rels), -1).T)
    return full[key], _frozen(rels[key])


def enumerate_con_relations(minus: Frame, plus: Frame, cap: int = 1 << 18) -> list[np.ndarray]:
    """Every valid consistency relation between two frames, in bitmask order
    over the cells the nullary pairs leave free, within the candidate cap."""
    return list(_relations(minus, plus, True, *_candidates(minus, plus, cap)[0])[1])


def enumerate_tot_relations(minus: Frame, plus: Frame, cap: int = 1 << 18) -> list[np.ndarray]:
    return list(_relations(minus, plus, False, *_candidates(minus, plus, cap)[1])[1])


def enumerate_dframes(minus: Frame, plus: Frame, cap: int = 1 << 18):
    """All valid d-frames on a fixed frame pair, con-major, as an iterator;
    both sides' antitone maps are built, and the cap enforced, at the call."""
    return _dframes(minus, plus, _candidates(minus, plus, cap))


def _dframes(minus: Frame, plus: Frame, sides: list):
    """The valid d-frames from both sides' maps, by one array test over every
    con x tot candidate.  Each row of a con and each column of a tot is principal,
    so f' picks the row's member with the most elements below it, and g' the
    column's with the fewest."""
    (f, cons), (g, tots) = (_relations(minus, plus, con, *side)
                            for con, side in zip((True, False), sides))
    height = minus.leq.sum(axis=0)
    f_adj = np.where(cons, height, -1).argmax(axis=2)
    g_adj = np.where(tots.transpose(0, 2, 1), height, minus.n + 1).argmin(axis=2)
    valid = (plus.leq[f[:, None], g[None]].all(axis=2)
             & minus.leq[f_adj[:, None], g_adj[None]].all(axis=2))
    for i, k in zip(*np.nonzero(valid)):
        yield DFrame(minus, plus, cons[i], tots[k])


# -- the miner -------------------------------------------------------------------
_CHUNK = 256  # the d-frames of a frame pair that _verdicts decides at a time


@dataclass
class MinerReport:
    """What bounded-exhaustive search over small d-frames turned up.

    Findings are observations about the searched window only; absence of a
    finding is never evidence of nonexistence.
    """

    searched: int = 0
    incorrigible: list = field(default_factory=list)
    double_negation_without_excluded_middle: list = field(default_factory=list)
    partnerless: list = field(default_factory=list)

    def summary_lines(self) -> list[str]:
        lines = [f"searched {self.searched} valid d-frames"]
        for title, names in (("incorrigible", self.incorrigible),
                             ("double negation without excluded middle",
                              self.double_negation_without_excluded_middle),
                             ("one-sided sublocales with no partner", self.partnerless)):
            lines.append(f"{title}: {len(names)} found")
            lines += [f"  {name}" for name in names[:5]]
        return lines


def _describe(df: DFrame) -> str:
    con = ",".join(f"({p},{m})" for p, m in df.con_pairs())
    tot = ",".join(f"({m},{p})" for m, p in df.tot_pairs())
    return f"{df.minus.name}x{df.plus.name} con=[{con}] tot=[{tot}]"


def partnerless_sublocales(df: DFrame) -> list:
    """Component sublocales admitting no partner on the other side: the
    rows and columns of the admission matrix with no admitted pair."""
    subs = enumerate_sublocales(df.minus), enumerate_sublocales(df.plus)
    return _partnerless(admission_matrix(df, *subs), *subs)


def _partnerless(admitted: np.ndarray, subs_minus, subs_plus) -> list:
    return ([("minus", s) for s, ok in zip(subs_minus, admitted.any(axis=1).tolist()) if not ok]
            + [("plus", s) for s, ok in zip(subs_plus, admitted.any(axis=0).tolist()) if not ok])


def _verdicts(minus: Frame, plus: Frame, con: np.ndarray, tot: np.ndarray, subs) -> list:
    """(corrigible, double negation, excluded middle, partnerless sublocales)
    of each stacked con and tot, from its maps f, f', g and g' (as defined
    before _irreducibles); two corrigibility conditions must agree per side."""
    height_m, height_p = minus.leq.sum(axis=0), plus.leq.sum(axis=0)
    f = np.where(con, height_p[:, None], -1).argmax(axis=1)
    f_adj = np.where(con, height_m, -1).argmax(axis=2)
    g = np.where(tot, height_p, plus.n + 1).argmin(axis=2)
    g_adj = np.where(tot, height_m[:, None], minus.n + 1).argmin(axis=1)
    corrigible = negation = True
    for lat, rel, double in ((minus, con, np.take_along_axis(f_adj, f, 1)),
                             (plus, con.transpose(0, 2, 1), np.take_along_axis(f, f_adj, 1))):
        by_meets, by_consistency = _corrigibility_twice(lat, rel, double)
        if (by_meets != by_consistency).any():
            raise EquivalenceMismatch(f"corrigibility disagrees on {minus.name}x{plus.name}")
        corrigible &= by_meets
        negation &= (double == np.arange(lat.n)).all(axis=1)
    excluded = plus.leq[g, f].all(axis=1) & minus.leq[g_adj, f_adj].all(axis=1)
    admitted = admitted_pairs(minus, plus, *subs, (f, g), (f_adj, g_adj))
    return list(zip(corrigible.tolist(), negation.tolist(), excluded.tolist(),
                    (_partnerless(a, *subs) for a in admitted)))


def _corrigibility_twice(lat: Frame, rel: np.ndarray, double: np.ndarray) -> tuple:
    """[k], on lat's side: whether double[k] preserves binary meets, and
    whether rel[k][x, a meet b] gives rel[k][x, double[k](a) meet b]."""
    via = np.take_along_axis(rel, lat.meet[double].reshape(len(rel), 1, -1), 2)
    return ((double[:, lat.meet] == lat.meet[double[:, :, None], double[:, None]]).all(axis=(1, 2)),
            (~rel[:, :, lat.meet] | via.reshape(*rel.shape, lat.n)).all(axis=(1, 2, 3)))


def mine(max_frame: int = 3, max_candidates: int = 20000) -> MinerReport:
    """Sweep all valid d-frames over small frame pairs for the phenomena the
    infinite examples exhibit; record findings, never assert absences.
    _verdicts decides each frame pair's d-frames in chunks, and the pair's
    first d-frame also goes through the per-d-frame route, which must agree."""
    report = MinerReport()
    pool = frame_pool(max_frame)
    # every pair's maps pass the candidate cap before any d-frame is
    # searched, so max_candidates cannot hide an oversized pair
    searches = [(minus, plus, enumerate_dframes(minus, plus)) for minus, plus
                in product(pool, pool) if minus.is_trivial == plus.is_trivial]
    for minus, plus, dframes in searches:
        subs = enumerate_sublocales(minus), enumerate_sublocales(plus)
        first = True
        while chunk := list(islice(dframes, max(0, min(_CHUNK, max_candidates - report.searched)))):
            verdicts = _verdicts(minus, plus, np.stack([df.con for df in chunk]),
                                 np.stack([df.tot for df in chunk]), subs)
            df = chunk[0]
            if first and verdicts[0] != (is_corrigible(df), is_double_negation(df),
                                         is_excluded_middle(df), partnerless_sublocales(df)):
                raise EquivalenceMismatch(f"the miner's verdicts on {_describe(df)} differ")
            first = False
            report.searched += len(chunk)
            for df, (corrigible, negation, excluded, partnerless) in zip(chunk, verdicts):
                if not corrigible:
                    report.incorrigible.append(_describe(df))
                if negation and not excluded:
                    report.double_negation_without_excluded_middle.append(_describe(df))
                for side, sub in partnerless:
                    members = ",".join(sub.frame.names(sub.members))
                    report.partnerless.append(f"{_describe(df)} {side} {{{members}}}")
    return report
