"""Finite posets and bounded lattices with explicit order and operation tables.

Elements are opaque string ids mapped to dense integer indices; every
operation below works on indices against numpy tables, which keeps meets,
joins and closure computations O(1) table lookups or small matrix products.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import CyclicOrder, NotALattice, UnknownElement


def _bool_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The boolean product: out[i, j] iff a[i, k] and b[k, j] for some k.

    Multiplied in float32, which has a BLAS path (int64 has none).  Every
    term is 0 or 1 and adding a nonnegative float never lowers a sum, so a
    sum is positive exactly when one of its terms is: `> 0` is exact at any
    size.
    """
    return (a.astype(np.float32) @ b.astype(np.float32)) > 0


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def cover_relation(leq: np.ndarray) -> np.ndarray:
    """covers[i, j] iff j covers i (strictly above, nothing in between)."""
    lt = leq & ~np.eye(len(leq), dtype=bool)
    return _frozen(lt & ~_bool_matmul(lt, lt))


def bound_table(leq: np.ndarray, lower: bool) -> tuple[np.ndarray, np.ndarray]:
    """(table, ok): the glb (lower) or lub table of a finite order.

    Row i takes the lower bounds of i as candidates and, for each j, the
    least-bound step over those also below j; ok[i, j] is False where the
    common lower bounds have no greatest element (or there are none), and
    table[i, j] is then meaningless.  Upper bounds give the lub.  Each row's
    slab is n x |down(i)| booleans, so memory stays O(n^2).
    """
    rel = np.asarray(leq, dtype=bool)
    rel = np.ascontiguousarray(rel.T if lower else rel)  # x bounds k iff rel[k, x]
    n = len(rel)
    sizes = rel.sum(axis=1)
    table = np.zeros((n, n), dtype=np.int64)
    ok = np.zeros((n, n), dtype=bool)
    for i in range(n):
        bounds = np.flatnonzero(rel[i])  # the candidates, bounds of i
        best, ok[i] = _least_bound(rel[:, bounds], sizes[bounds])  # row j: those also bounding j
        table[i] = bounds[best]
    return table, ok


def _least_bound(bounds: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(best, ok) per row r of bounds, where bounds[r, u] says u is an upper
    bound of row r's set and sizes[u] is |up(u)|.

    The upper bounds U of a set in a finite order form an up-set, so every u
    in U has |up(u)| <= |U|, with equality exactly when u is the least
    element of U, the set's join.  best[r] is that u and ok[r] whether it
    exists; where it does not, best[r] is meaningless.  Lower bounds and
    down-set sizes give the meet.
    """
    hit = bounds & (sizes == bounds.sum(axis=1)[:, None])
    best = hit.argmax(axis=1)  # 0 in a row without a hit
    return best, (best > 0) | hit[:, 0]


def _joins(rows: np.ndarray, leq: np.ndarray) -> np.ndarray:
    """The join under leq of each row's set, where rows[r, x] puts x in set r
    (the bottom for an empty row); leq.T gives the meets.  The least-bound
    step picks the least of the set's upper bounds."""
    return _least_bound(~_bool_matmul(rows, ~leq), leq.sum(axis=1))[0]


def _distributivity_witness(meet: np.ndarray, join: np.ndarray):
    """The first index triple (a, b, c) in row-major order violating
    a∧(b∨c) = (a∧b)∨(a∧c) in the given tables, or None."""
    for a in range(len(meet)):
        bad = meet[a, join] != join[np.ix_(meet[a], meet[a])]
        if bad.any():
            b, c = np.argwhere(bad)[0]
            return (a, int(b), int(c))
    return None


class Poset:
    """A finite partial order: element ids plus a boolean leq matrix.

    leq[i, j] holds iff element i is below element j.  The matrix is
    validated on construction and frozen afterwards.
    """

    def __init__(self, elements, leq: np.ndarray):
        elements = tuple(str(e) for e in elements)
        if len(set(elements)) != len(elements):
            raise ValueError(f"duplicate element ids: {elements}")
        leq = np.asarray(leq, dtype=bool)
        n = len(elements)
        if leq.shape != (n, n):
            raise ValueError(f"leq must be {n}x{n}, got {leq.shape}")
        if not leq[np.diag_indices(n)].all():
            raise ValueError("leq is not reflexive")
        sym = leq & leq.T
        if sym.sum() > n:
            i, j = next(zip(*np.where(sym & ~np.eye(n, dtype=bool))))
            raise CyclicOrder(f"{elements[i]} and {elements[j]} are mutually below each other")
        if (_bool_matmul(leq, leq) & ~leq).any():
            raise ValueError("leq is not transitive")
        self.elements = elements
        self.leq = _frozen(leq.copy())
        self.n = n

    @cached_property
    def index(self) -> dict:
        return {e: i for i, e in enumerate(self.elements)}

    def idx(self, element: str) -> int:
        try:
            return self.index[str(element)]
        except KeyError:
            raise UnknownElement(f"unknown element id {element!r}") from None

    @cached_property
    def covers(self) -> np.ndarray:
        return cover_relation(self.leq)

    def __repr__(self):
        return f"{type(self).__name__}({list(self.elements)})"


def _closure_from_pairs(elements, pairs):
    """Reflexive-transitive closure of the given (below, above) id pairs."""
    n = len(elements)
    index = {e: i for i, e in enumerate(elements)}
    leq = np.eye(n, dtype=bool)
    for lo, hi in pairs:
        for e in (lo, hi):
            if str(e) not in index:
                raise UnknownElement(f"order pair refers to unknown element {e!r}")
        leq[index[str(lo)], index[str(hi)]] = True
    while True:
        step = leq | _bool_matmul(leq, leq)
        if (step == leq).all():
            return leq
        leq = step


class Lattice(Poset):
    """A finite bounded lattice: a poset with total meet/join tables.

    The tables are derived from leq and checked to be genuine greatest lower
    and least upper bounds; completeness is automatic at finite size.
    """

    def __init__(self, elements, leq):
        super().__init__(elements, leq)
        if self.n == 0:
            raise NotALattice("a bounded lattice needs at least one element")
        self.meet = _frozen(self._bound_table(lower=True))
        self.join = _frozen(self._bound_table(lower=False))
        bottoms = np.where(self.leq.sum(axis=1) == self.n)[0]
        tops = np.where(self.leq.sum(axis=0) == self.n)[0]
        if len(bottoms) != 1 or len(tops) != 1:
            raise NotALattice("missing a unique bottom or top element")
        self.bottom = int(bottoms[0])
        self.top = int(tops[0])

    def _bound_table(self, lower: bool) -> np.ndarray:
        table, ok = bound_table(self.leq, lower)
        if not ok.all():
            i, j = np.argwhere(~ok)[0]  # the first bad pair in row-major order
            kind = "glb" if lower else "lub"
            raise NotALattice(f"no {kind} for {self.elements[i]!r} and {self.elements[j]!r}")
        return table

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_covers(cls, elements, cover_pairs) -> "Lattice":
        """Build a lattice from Hasse cover pairs (lower, upper)."""
        return cls(elements, _closure_from_pairs(tuple(str(e) for e in elements), cover_pairs))

    @classmethod
    def chain(cls, n: int) -> "Lattice":
        """The n-element chain.  The 3-chain is conventionally 0 < c < 1;
        longer chains letter their middle elements from 'a'."""
        if n < 1:
            raise NotALattice("chain needs at least one element")
        if n == 1:
            return cls(("0",), np.ones((1, 1), dtype=bool))
        if n == 2:
            mids = []
        elif n == 3:
            mids = ["c"]
        else:
            mids = [chr(ord("a") + k) for k in range(n - 2)]
        elements = ["0"] + mids + ["1"]
        covers = [(elements[i], elements[i + 1]) for i in range(n - 1)]
        return cls.from_covers(elements, covers)

    @classmethod
    def boolean(cls, atoms: int) -> "Lattice":
        """The Boolean lattice on the given atoms (2**atoms elements)."""
        if atoms < 0:
            raise NotALattice("negative atom count")
        letters = [chr(ord("a") + k) for k in range(atoms)]
        names = []
        for mask in range(2**atoms):
            if mask == 0:
                names.append("0")
            elif mask == 2**atoms - 1:
                names.append("1")
            else:
                names.append("".join(letters[k] for k in range(atoms) if mask >> k & 1))
        n = 2**atoms
        leq = np.zeros((n, n), dtype=bool)
        for i in range(n):
            for j in range(n):
                leq[i, j] = (i & j) == i
        return cls(names, leq)

    @classmethod
    def pentagon(cls) -> "Lattice":
        """N5, the standard non-distributive, non-modular witness."""
        return cls.from_covers("0abc1", [("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"), ("b", "1")])

    @classmethod
    def diamond3(cls) -> "Lattice":
        """M3, three incomparable atoms; non-distributive but modular."""
        covers = [("0", x) for x in "xyz"] + [(x, "1") for x in "xyz"]
        return cls.from_covers("0xyz1", covers)

    # -- structure tests ---------------------------------------------------

    @cached_property
    def distributivity_witness(self):
        """A triple (a, b, c) violating a∧(b∨c) = (a∧b)∨(a∧c), or None."""
        return _distributivity_witness(self.meet, self.join)

    @cached_property
    def is_distributive(self) -> bool:
        return self.distributivity_witness is None

    # -- Heyting structure (valid on distributive carriers) ----------------

    @cached_property
    def implication(self) -> np.ndarray:
        """Table of relative pseudocomplements a -> b = max{c | a∧c <= b}.

        Only meaningful on distributive lattices, where the join below
        itself satisfies a∧(a->b) <= b; elsewhere each cell is still the
        join of its candidates.  Per row a, cand[b, c] holds iff a∧c <= b,
        and the set-bound step finds each candidate set's join.
        """
        table = np.zeros((self.n, self.n), dtype=np.int64)
        for a in range(self.n):
            table[a] = _joins(self.leq[self.meet[a, :], :].T, self.leq)
        return _frozen(table)

    def implies(self, a: int, b: int) -> int:
        return int(self.implication[a, b])

    def pseudocomplement(self, a: int) -> int:
        return int(self.implication[a, self.bottom])

    def names(self, idxs) -> tuple:
        return tuple(self.elements[i] for i in idxs)


# -- sets of pairs over a product of two lattices ---------------------------
#
# A subset of A x B is a boolean matrix with shape (A.n, B.n); the product
# order is componentwise.


def down_closure_pairs(a: Lattice, b: Lattice, pairs: np.ndarray) -> np.ndarray:
    """Smallest lower set of the product containing the given pairs."""
    return _frozen(_bool_matmul(_bool_matmul(a.leq, pairs), b.leq.T))


def up_closure_pairs(a: Lattice, b: Lattice, pairs: np.ndarray) -> np.ndarray:
    """Smallest upper set of the product containing the given pairs."""
    return _frozen(_bool_matmul(_bool_matmul(a.leq.T, pairs), b.leq))


def order_isomorphisms(a: Poset, b: Poset):
    """Generate order isomorphisms a -> b as index lists, by backtracking.

    Candidates are pruned by (below-count, above-count) profiles; fine for
    the desk-scale carriers this package works with.
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
