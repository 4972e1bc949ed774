"""Brute-force oracles the tests compare the library against.

Each one computes by definition or by exhaustive search what the library
computes with a table kernel or a construction: least and greatest bounds
by a per-pair scan, set joins and meets by folds of the binary tables,
directed-join closure by listing directed subsets, isomorphism by
backtracking, and every bounded lattice by scanning order masks.
"""

from functools import reduce
from itertools import combinations

import numpy as np

from dframes.errors import NotALattice
from dframes.order import Lattice, order_isomorphisms


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


def are_order_isomorphic(a, b) -> bool:
    return next(order_isomorphisms(a, b), None) is not None


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
