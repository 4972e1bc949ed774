"""Brute-force oracles the tests compare the library against.

Each one computes by definition or by exhaustive search what the library
computes with a table kernel or a construction: least and greatest bounds
by a per-pair scan, set joins and meets by folds of the binary tables,
directed-join closure by listing directed subsets, order and d-frame
isomorphism by backtracking (the library checks "the dense core is whole"
where these would compare a d-frame with its core), every bounded lattice
by scanning order masks, the sub-d-locale quotients of a corpus one
DFrameHom at a time (the sweep decides them per lattice), and the nine
d-frame axioms by their definitions (the library counts members on lines).
"""

from functools import reduce
from itertools import combinations

import numpy as np

from dframes.errors import NotALattice
from dframes.order import Lattice, Poset
from dframes.subdlocale import enumerate_sub_d_locales
from dframes.sweeps import standard_morphisms


def brute_bound(leq: np.ndarray, i: int, j: int, lower: bool):
    """The glb (lower) or lub of i and j by a per-pair scan of leq: the
    common bounds, and among them the one that every other one bounds; None
    if there is none.  The reference for bound_table and for the join and
    meet of the sub-d-locale lattice."""
    rel = leq.T if lower else leq  # x bounds k iff rel[k, x]
    cand = np.flatnonzero(rel[i] & rel[j])
    best = cand[rel[np.ix_(cand, cand)].all(axis=1)]
    return int(best[0]) if len(best) == 1 else None


def join_all(lat: Lattice, idxs) -> int:
    """The join of a set of elements, folded from the binary join table."""
    return int(reduce(lambda x, y: lat.join[x, y], idxs, lat.bottom))


def meet_all(lat: Lattice, idxs) -> int:
    return int(reduce(lambda x, y: lat.meet[x, y], idxs, lat.top))


def dframe_axioms(df) -> dict:
    """{axiom: (ok, witness)} for check_dframe's nine axioms, by definition.

    con and tot are checked to be lower and upper sets cell against cell, the
    four binary laws by combining every pair of cells (and by the nullary
    cell), and con-tot over every triple; con-dirjoin holds over finite
    carriers (directed_joins_bruteforce shows it).  The witness is check_dframe's
    for a binary law, the first pair in row-major order or the missing
    nullary cell, and () for the rest.
    """
    minus, plus, con, tot = df.minus, df.plus, df.con, df.tot

    def lower(rel, rows, cols):  # [r2, r, c2, c]: (r, c) in rel and (r2, c2) below it
        below = rel[None, :, None, :] & rows[:, :, None, None] & cols[None, None, :, :]
        return bool((rel[:, None, :, None] | ~below).all())

    def law(rel, row_op, col_op, rows, cols, nullary):
        r, c = np.nonzero(rel)
        bad = np.argwhere(~rel[row_op[r[:, None], r], col_op[c[:, None], c]])
        if len(bad):
            (i, j), names = bad[0], (rows.elements, cols.elements)
            return False, tuple((names[0][r[k]], names[1][c[k]]) for k in (i, j))
        if not rel[nullary]:
            return False, ((rows.elements[nullary[0]], cols.elements[nullary[1]]), "missing")
        return True, ()

    triples_plus = con[:, :, None] & tot[None, :, :]  # [p, m, p']: p con m, m tot p'
    triples_minus = con.T[:, :, None] & tot.T[None, :, :]  # [m, p, m']: p con m, m' tot p
    return {
        "con-down": (lower(con, plus.leq, minus.leq), ()),
        "con-join": law(con, plus.join, minus.meet, plus, minus, (plus.bottom, minus.top)),
        "con-meet": law(con, plus.meet, minus.join, plus, minus, (plus.top, minus.bottom)),
        "tot-up": (lower(tot, minus.leq.T, plus.leq.T), ()),
        "tot-meet": law(tot, minus.join, plus.meet, minus, plus, (minus.bottom, plus.top)),
        "tot-join": law(tot, minus.meet, plus.join, minus, plus, (minus.top, plus.bottom)),
        "con-tot-plus": (bool((plus.leq[:, None, :] | ~triples_plus).all()), ()),
        "con-tot-minus": (bool((minus.leq[:, None, :] | ~triples_minus).all()), ()),
        "con-dirjoin": (True, ()),
    }


def directed_joins_bruteforce(a: Lattice, b: Lattice, pairs: np.ndarray) -> np.ndarray:
    """Definitional D operator: enumerate every nonempty directed subset.

    Over a finite product order every directed subset contains an upper
    bound of itself (chase internal upper bounds pairwise), hence contains
    its own join, so D adds nothing and relations are never Scott-closed
    explicitly.  Exponential in the number of pairs; keep inputs small.
    """
    members = list(zip(*np.where(pairs)))
    if len(members) > 16:
        raise ValueError("brute-force directed-join oracle is exponential; keep inputs small")
    out = pairs.copy()
    for size in range(1, len(members) + 1):
        for subset in combinations(members, size):
            if is_directed(a, b, subset):
                out[join_all(a, [p[0] for p in subset]), join_all(b, [p[1] for p in subset])] = True
    return out


def is_directed(a: Lattice, b: Lattice, subset) -> bool:
    for (x1, y1), (x2, y2) in combinations(subset, 2):
        if not any(
            a.leq[x1, x] and a.leq[x2, x] and b.leq[y1, y] and b.leq[y2, y]
            for (x, y) in subset
        ):
            return False
    return True


def order_isomorphisms(a: Poset, b: Poset):
    """Generate order isomorphisms a -> b as index lists, by backtracking.

    Candidates are pruned by (below-count, above-count) profiles; fine for
    the desk-scale carriers the tests compare.
    """
    if a.n != b.n:
        return
    profile_a = [(int(a.leq[:, i].sum()), int(a.leq[i, :].sum())) for i in range(a.n)]
    profile_b = [(int(b.leq[:, i].sum()), int(b.leq[i, :].sum())) for i in range(b.n)]
    if sorted(profile_a) != sorted(profile_b):
        return
    order = sorted(range(a.n), key=lambda i: profile_a[i])
    image = [-1] * a.n
    used = [False] * b.n

    def backtrack(k):
        if k == a.n:
            yield list(image)
            return
        i = order[k]
        for j in range(b.n):
            if used[j] or profile_a[i] != profile_b[j]:
                continue
            ok = True
            for i2 in order[:k]:
                if a.leq[i, i2] != b.leq[j, image[i2]] or a.leq[i2, i] != b.leq[image[i2], j]:
                    ok = False
                    break
            if ok:
                image[i] = j
                used[j] = True
                yield from backtrack(k + 1)
                used[j] = False
                image[i] = -1

    yield from backtrack(0)


def are_order_isomorphic(a, b) -> bool:
    return next(order_isomorphisms(a, b), None) is not None


def dframe_isomorphism(a, b):
    """A pair of component order isomorphisms carrying con to con and tot
    to tot, or None."""
    for fm in order_isomorphisms(a.minus, b.minus):
        fm = np.asarray(fm)
        for fp in order_isomorphisms(a.plus, b.plus):
            fp = np.asarray(fp)
            if (a.con == b.con[np.ix_(fp, fm)]).all() and (a.tot == b.tot[np.ix_(fm, fp)]).all():
                return fm, fp
    return None


def are_isomorphic(a, b) -> bool:
    return dframe_isomorphism(a, b) is not None


def all_lattices(max_size: int) -> list[Lattice]:
    """All bounded lattices with at most max_size elements, up to isomorphism.

    The oracle for search.frame_pool, which builds the distributive ones from
    posets, and the tests' source of lattices that are not distributive.
    Posets are enumerated as upper-triangular relations (every finite poset
    admits a topological labelling); Lattice rejects those that are not
    transitive or not lattices, and isomorphism search deduplicates the rest.
    It scans 2^(n(n-1)/2) masks per size n, upward, so each lattice is the
    copy with the least mask.
    """
    found: list[Lattice] = []
    for n in range(1, max_size + 1):
        slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for mask in range(2 ** len(slots)):
            leq = np.eye(n, dtype=bool)
            for bit, (i, j) in enumerate(slots):
                if mask >> bit & 1:
                    leq[i, j] = True
            try:
                lat = Lattice([f"x{k}" for k in range(n)], leq)
            except (ValueError, NotALattice):
                continue
            if not any(lat.n == other.n and are_order_isomorphic(lat, other) for other in found):
                found.append(lat)
    found.sort(key=lambda lat: (lat.n, lat.leq.sum(), lat.leq.tobytes()))
    return found


def member_quotient_morphisms(dframes) -> tuple[list, list]:
    """standard_morphisms with each d-frame's three morphisms followed by the
    quotient onto every member of its sub-d-locale lattice when it has at most
    16 cells, as full_sweep's batch covers them, each quotient paired with
    the identity after it.  Each quotient is a DFrameHom onto the member's
    own d-frame: the per-morphism route the batch is compared against."""
    homs, inner = standard_morphisms(dframes)
    morphisms, pairs = [], []
    for k, df in enumerate(dframes):
        morphisms += homs[3 * k:3 * k + 3]
        pairs += inner[2 * k:2 * k + 2]
        if df.minus.n * df.plus.n <= 16:
            quotients = [member.quotient_hom() for member in enumerate_sub_d_locales(df).members]
            morphisms += quotients
            pairs += [(q, homs[3 * k]) for q in quotients]
    return morphisms + homs[-1:], pairs
