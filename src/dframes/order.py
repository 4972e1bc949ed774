"""Finite posets and bounded lattices with explicit order and operation tables.

Elements are opaque string ids mapped to dense integer indices; every
operation below works on indices against numpy tables, which keeps meets,
joins and closure computations O(1) table lookups or small matrix products.
"""

from __future__ import annotations

from functools import cached_property, reduce
from itertools import combinations

import numpy as np

from .errors import CyclicOrder, NotALattice, UnknownElement


def _bool_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a.astype(np.int64) @ b.astype(np.int64)) > 0


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def cover_relation(leq: np.ndarray) -> np.ndarray:
    """covers[i, j] iff j covers i (strictly above, nothing in between)."""
    lt = leq & ~np.eye(len(leq), dtype=bool)
    return _frozen(lt & ~_bool_matmul(lt, lt))


def bound_table(leq: np.ndarray, lower: bool) -> tuple[np.ndarray, np.ndarray]:
    """(table, ok): the glb (lower) or lub table of a finite order.

    The common lower bounds B of i and j form a down-set, so every k in B
    has |down(k)| <= |B|, with equality exactly when k is the greatest
    element of B.  Row i therefore looks, among the lower bounds of i, for
    the one below j whose down-set size equals |B|; ok[i, j] is False where
    there is none (B has no greatest element, or is empty), and table[i, j]
    is then meaningless.  Upper bounds and up-set sizes give the lub.  Each
    row's slab is n x |down(i)| booleans, so memory stays O(n^2).
    """
    rel = np.asarray(leq, dtype=bool)
    rel = np.ascontiguousarray(rel.T if lower else rel)  # x bounds k iff rel[k, x]
    n = len(rel)
    sizes = rel.sum(axis=1)
    table = np.zeros((n, n), dtype=np.int64)
    ok = np.zeros((n, n), dtype=bool)
    rows = np.arange(n)
    for i in range(n):
        bounds = np.flatnonzero(rel[i])  # the candidates, bounds of i
        common = rel[:, bounds]  # common[j, c]: candidate c also bounds j
        hit = common & (sizes[bounds] == common.sum(axis=1)[:, None])
        best = hit.argmax(axis=1)
        table[i] = bounds[best]
        ok[i] = hit[rows, best]
    return table, ok


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

    def downset(self, i: int) -> np.ndarray:
        return self.leq[:, i].copy()

    def upset(self, i: int) -> np.ndarray:
        return self.leq[i, :].copy()

    def is_down_closed(self, member: np.ndarray) -> bool:
        # x in member and y <= x must give y in member
        return not (_bool_matmul(self.leq, member.reshape(-1, 1)).ravel() & ~member).any()

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
    def from_leq_pairs(cls, elements, leq_pairs) -> "Lattice":
        """Build a lattice from arbitrary order pairs; closure is taken anyway."""
        return cls.from_covers(elements, leq_pairs)

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
        meet, join = self.meet, self.join
        for a in range(self.n):
            lhs = meet[a, join]
            rhs = join[np.ix_(meet[a, :], meet[a, :])]
            bad = lhs != rhs
            if bad.any():
                b, c = next(zip(*np.where(bad)))
                return (a, int(b), int(c))
        return None

    @cached_property
    def is_distributive(self) -> bool:
        return self.distributivity_witness is None

    # -- Heyting structure (valid on distributive carriers) ----------------

    @cached_property
    def implication(self) -> np.ndarray:
        """Table of relative pseudocomplements a -> b = max{c | a∧c <= b}.

        Only meaningful on distributive lattices, where the join below
        itself satisfies a∧(a->b) <= b.
        """
        n = self.n
        table = np.zeros((n, n), dtype=np.int64)
        for a in range(n):
            for b in range(n):
                cand = np.where(self.leq[self.meet[a, :], b])[0]
                table[a, b] = self.join_all(cand)
        return _frozen(table)

    def implies(self, a: int, b: int) -> int:
        return int(self.implication[a, b])

    def pseudocomplement(self, a: int) -> int:
        return int(self.implication[a, self.bottom])

    def meet_all(self, idxs) -> int:
        return int(reduce(lambda x, y: self.meet[x, y], idxs, self.top))

    def join_all(self, idxs) -> int:
        return int(reduce(lambda x, y: self.join[x, y], idxs, self.bottom))

    def names(self, idxs) -> tuple:
        return tuple(self.elements[i] for i in idxs)


# -- sets of pairs over a product of two lattices ---------------------------
#
# A subset of A x B is a boolean matrix with shape (A.n, B.n); the product
# order is componentwise.


def down_closure_pairs(a: Lattice, b: Lattice, pairs: np.ndarray) -> np.ndarray:
    """Smallest lower set of the product containing the given pairs."""
    return _bool_matmul(_bool_matmul(a.leq, pairs), b.leq.T)


def up_closure_pairs(a: Lattice, b: Lattice, pairs: np.ndarray) -> np.ndarray:
    """Smallest upper set of the product containing the given pairs."""
    return _bool_matmul(_bool_matmul(a.leq.T, pairs), b.leq)


def is_down_closed_pairs(a: Lattice, b: Lattice, pairs: np.ndarray) -> bool:
    return bool((down_closure_pairs(a, b, pairs) == pairs).all())


def directed_joins_bruteforce(a: Lattice, b: Lattice, pairs: np.ndarray) -> np.ndarray:
    """Definitional D operator: enumerate every nonempty directed subset.

    Over a finite product order every directed subset contains an upper
    bound of itself (chase internal upper bounds pairwise), hence contains
    its own join, so D adds nothing and relations are never Scott-closed
    explicitly.  Exponential in the number of pairs; the tests use it as the
    oracle for that fact on small inputs.
    """
    members = list(zip(*np.where(pairs)))
    if len(members) > 16:
        raise ValueError("brute-force directed-join oracle is exponential; keep inputs small")
    out = pairs.copy()
    for size in range(1, len(members) + 1):
        for subset in combinations(members, size):
            if _is_directed(a, b, subset):
                ja = a.join_all([p[0] for p in subset])
                jb = b.join_all([p[1] for p in subset])
                out[ja, jb] = True
    return out


def _is_directed(a: Lattice, b: Lattice, subset) -> bool:
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


def are_order_isomorphic(a: Poset, b: Poset) -> bool:
    return next(order_isomorphisms(a, b), None) is not None
