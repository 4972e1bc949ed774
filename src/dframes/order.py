"""Finite posets and bounded lattices with explicit order and operation tables.

Elements are opaque string ids mapped to dense integer indices; every
operation below works on indices against numpy tables, so meets and joins
are O(1) lookups.  The tables are built by whole-table kernels that take rows
in blocks of at most SLAB_CELLS cells, with no per-element loop, and a
lattice's distributivity is decided by Birkhoff's representation.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import CyclicOrder, NotALattice, UnknownElement

SLAB_CELLS = 1 << 20  # the most cells a table kernel's block holds at once


def _bool_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The boolean product: out[i, j] iff a[i, k] and b[k, j] for some k.

    Multiplied in float32, which has a BLAS path (int64 has none).  Every
    term is 0 or 1 and adding a nonnegative float never lowers a sum, so a
    sum is positive exactly when one of its terms is: `> 0` is exact at any
    size.
    """
    return np.matmul(a, b, dtype=np.float32) > 0


def _row_blocks(n: int, row_cells: int):
    """Slices of range(n) holding at most SLAB_CELLS cells (or one row) each."""
    step = max(1, SLAB_CELLS // max(1, row_cells))
    return (slice(start, start + step) for start in range(0, n, step))


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def cover_relation(leq: np.ndarray) -> np.ndarray:
    """covers[i, j] iff j covers i (strictly above, nothing in between)."""
    lt = leq & ~np.eye(len(leq), dtype=bool)
    return _frozen(lt & ~_bool_matmul(lt, lt))


def _upward(leq: np.ndarray) -> np.ndarray:
    """The indices by |up(x)| descending, a linear extension of leq: x < y
    makes up(y) a proper subset of up(x).  The upper bounds U of a set form
    an up-set, so its join, when it exists, is the first member of U in this
    order, and a member u of U is the join iff |up(u)| = |U|."""
    return np.argsort(-leq.sum(axis=1), kind="stable")


def bound_table(leq: np.ndarray, lower: bool) -> tuple[np.ndarray, np.ndarray]:
    """(table, ok): the glb (lower) or lub table of a finite order.

    table[i, j] is the first common bound of i and j in the upward order;
    ok[i, j] is False where that is not their least one (or there are none),
    and table[i, j] is then meaningless.  Blocks of k rows hold k x n x n
    booleans, at most SLAB_CELLS, so memory stays bounded at any n.
    """
    rel = np.asarray(leq, dtype=bool)
    rel = rel.T if lower else rel  # x bounds k iff rel[k, x]
    n, order = len(rel), _upward(rel)
    bounds, weights = np.ascontiguousarray(rel[:, order]), rel.astype(np.float32)  # argmax wants C rows
    table = np.empty((n, n), dtype=np.int64)
    for rows in _row_blocks(n, n * n):
        table[rows] = order[(bounds[rows, None] & bounds).argmax(axis=2)]
    return table, rel.sum(axis=1)[table] == weights @ weights.T  # |up(u)| = |U|, the common bounds


def _joins(rows: np.ndarray, leq: np.ndarray) -> np.ndarray:
    """The join under leq of each row's set, where rows[r, x] puts x in set r
    (the bottom for an empty row); leq.T gives the meets.  Each join is the
    set's first upper bound in the upward order."""
    order = _upward(leq)
    return order[(~_bool_matmul(rows, ~leq[:, order])).argmax(axis=1)]


def _distributivity_witness(meet: np.ndarray, join: np.ndarray):
    """The first index triple (a, b, c) in row-major order violating
    a∧(b∨c) = (a∧b)∨(a∧c) in the given tables, or None."""
    for a in range(len(meet)):
        bad = meet[a, join] != join[meet[a][:, None], meet[a]]
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

    @cached_property
    def orders(self) -> np.ndarray:
        """[leq, leq.T]: the order and its reverse."""
        return _frozen(np.array([self.leq, self.leq.T]))

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
        mids = ["c"] if n == 3 else [chr(ord("a") + k) for k in range(n - 2)]
        elements = ["0"] + mids + ["1"]
        covers = [(elements[i], elements[i + 1]) for i in range(n - 1)]
        return cls.from_covers(elements, covers)

    @classmethod
    def boolean(cls, atoms: int) -> "Lattice":
        """The Boolean lattice on the given atoms (2**atoms elements)."""
        if atoms < 0:
            raise NotALattice("negative atom count")
        letters, n = [chr(ord("a") + k) for k in range(atoms)], 2**atoms
        names = ["0" if mask == 0 else "1" if mask == n - 1 else
                 "".join(letters[k] for k in range(atoms) if mask >> k & 1) for mask in range(n)]
        masks = np.arange(n)
        return cls(names, (masks[:, None] & masks) == masks[:, None])

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
    def join_irreducibles(self) -> tuple:
        """The join-irreducible elements: those with one lower cover."""
        return tuple(np.flatnonzero(self.covers.sum(axis=0) == 1).tolist())

    @cached_property
    def is_distributive(self) -> bool:
        """Whether a ↦ {j ∈ J : j <= a} preserves binary joins: the map is
        injective and preserves meets, so this holds iff the lattice embeds
        in the powerset of its join-irreducibles J (Birkhoff's representation)."""
        rep = self.leq[list(self.join_irreducibles)]
        return all((rep[js, self.join] == (rep[js, :, None] | rep[js, None, :])).all()
                   for js in _row_blocks(len(rep), self.n * self.n))

    # -- Heyting structure (valid on distributive carriers) ----------------

    @cached_property
    def implication(self) -> np.ndarray:
        """Table of relative pseudocomplements a -> b = max{c | a∧c <= b}.

        Only meaningful on distributive lattices, where the join below
        itself satisfies a∧(a->b) <= b; elsewhere each cell is still the
        join of its candidates.  cand[a, b, c] holds iff a∧c <= b, and
        _joins finds each candidate set's join, a block of rows a at a time.
        """
        table = np.empty((self.n, self.n), dtype=np.int64)
        for rows in _row_blocks(self.n, self.n * self.n):
            cand = self.leq[self.meet[rows]].transpose(0, 2, 1)
            table[rows] = _joins(cand.reshape(-1, self.n), self.leq).reshape(-1, self.n)
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

