"""Finite frames, frame homomorphisms, sublocales and nuclei.

A finite frame is exactly a finite distributive lattice, so Frame is a
Lattice that has passed the distributivity check.  Sublocales are stored
as member index sets with prime masks, which meet and join by AND and OR;
the associated quotient map and nucleus are derived views.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import or_

import numpy as np

from .errors import CarrierMismatch, DomainMismatch, NotAFrame, SizeGuardExceeded
from .order import Lattice, _bool_matmul, _frozen, _joins


class Frame(Lattice):
    """A finite frame: a Lattice that has passed the distributivity check.

    It is made from a built Lattice and adopts that lattice's frozen tables
    and cached views as they are, so nothing is rebuilt.  The Lattice
    constructors reached through Frame return checked frames, and restrict
    derives a sublocale's or a sub-frame's frame from its parent's tables.
    """

    def __init__(self, lattice: Lattice, name: str | None = None):
        if not lattice.is_distributive:
            witness = lattice.names(lattice.distributivity_witness)
            raise NotAFrame(f"not distributive; witness triple {witness}")
        vars(self).update(vars(lattice))
        self.name = name if name is not None else f"F{lattice.n}"
        self._sublocales: dict = {}
        self._all_sublocales: tuple | None = None

    def restrict(self, members, closure: np.ndarray, name: str) -> "Frame":
        """The frame on members, sorted and closed under meets, where closure[x]
        is the least member above x: leq and meets are the parent's, joins the
        closure of the parent's.  A sublocale (closure its quotient) or a
        sub-frame (closure the identity) of a frame is a frame, so nothing is
        checked or rebuilt; the tests compare the result with the rebuild."""
        sub = np.asarray(members)
        block = sub[:, None], sub
        leq = _frozen(self.leq[block])
        lattice = Lattice.__new__(Lattice)
        vars(lattice).update(
            elements=self.names(sub), leq=leq, n=len(sub), is_distributive=True,
            meet=_frozen(np.searchsorted(sub, self.meet[block])),
            join=_frozen(np.searchsorted(sub, closure[self.join[block]])),
            bottom=int(leq.all(axis=1).argmax()), top=int(leq.all(axis=0).argmax()))
        return Frame(lattice, name)

    @property
    def is_trivial(self):
        return self.n == 1

    @cached_property
    def primes(self) -> tuple:
        """The meet-irreducible (prime) elements: those with one upper cover."""
        return tuple(np.flatnonzero(self.covers.sum(axis=1) == 1).tolist())

    @cached_property
    def minimal_primes(self) -> np.ndarray:
        """[x, k]: primes[k] is a minimal prime above x, an implication into x."""
        above = self.leq[:, list(self.primes)]
        strictly_below = above[list(self.primes)] & ~np.eye(len(self.primes), dtype=bool)
        return _frozen(above & ~_bool_matmul(above, strictly_below))

    @cached_property
    def prime_support(self) -> tuple:
        """Per element, its row of minimal_primes as a Python int (bit k: primes[k])."""
        rows = np.packbits(self.minimal_primes, axis=1, bitorder="little")
        return tuple(int.from_bytes(row.tobytes(), "little") for row in rows)

    @classmethod
    def from_covers(cls, elements, cover_pairs) -> "Frame":
        return cls(Lattice.from_covers(elements, cover_pairs))

    @classmethod
    def chain(cls, n: int) -> "Frame":
        return cls(Lattice.chain(n), name=str(n))

    @classmethod
    def boolean(cls, atoms: int) -> "Frame":
        return cls(Lattice.boolean(atoms), name=f"B{2 ** atoms}")

    def __repr__(self):
        return f"Frame({self.name}, {list(self.elements)})"


@dataclass(frozen=True)
class LawViolation:
    law: str
    witness: tuple

    def __str__(self):
        return f"{self.law} fails at {self.witness}"


class FrameHom:
    """A candidate map between frames, stored as an index array.

    The mapping is an integer array, a list of codomain indices, or a list
    of codomain element names.
    """

    def __init__(self, dom: Frame, cod: Frame, mapping):
        if not isinstance(mapping, np.ndarray) and any(isinstance(m, str) for m in mapping):
            mapping = [cod.idx(m) for m in mapping]
        arr = np.array(mapping, dtype=np.int64)  # a copy: never the caller's array
        if arr.shape != (dom.n,):
            raise DomainMismatch(f"map must be total on {dom.n} elements, got shape {arr.shape}")
        if arr.min(initial=0) < 0 or arr.max(initial=0) >= cod.n:
            raise DomainMismatch("map hits indices outside the codomain")
        self.dom = dom
        self.cod = cod
        self.mapping = arr
        self.mapping.flags.writeable = False

    def __call__(self, i: int) -> int:
        return int(self.mapping[i])

    @classmethod
    def identity(cls, frame: Frame) -> "FrameHom":
        return cls(frame, frame, np.arange(frame.n))

    def compose(self, inner: "FrameHom") -> "FrameHom":
        """self after inner."""
        if not _same_frame(inner.cod, self.dom):
            raise CarrierMismatch("composition carriers do not line up")
        return FrameHom(inner.dom, self.cod, self.mapping[inner.mapping])

    def violations(self) -> list[LawViolation]:
        """First violation of each frame-hom law (bottom, top, meet, join)."""
        f, dom, cod = self.mapping, self.dom, self.cod
        out = []
        if f[dom.bottom] != cod.bottom:
            out.append(LawViolation("bottom", (dom.elements[dom.bottom],)))
        if f[dom.top] != cod.top:
            out.append(LawViolation("top", (dom.elements[dom.top],)))
        for law, table_d, table_c in (("meet", dom.meet, cod.meet), ("join", dom.join, cod.join)):
            bad = f[table_d] != table_c[f[:, None], f]
            if bad.any():
                i, j = next(zip(*np.where(bad)))
                out.append(LawViolation(law, (dom.elements[i], dom.elements[j])))
        return out

    @cached_property
    def is_hom(self) -> bool:
        """Preserving 0, 1 and binary meets/joins suffices at finite size."""
        return not self.violations()

    @cached_property
    def is_dense(self) -> bool:
        """Reflects bottom: only the bottom maps to the bottom."""
        return bool(((self.mapping == self.cod.bottom) == (np.arange(self.dom.n) == self.dom.bottom)).all())

    @cached_property
    def is_injective(self) -> bool:
        return len(set(self.mapping.tolist())) == self.dom.n

    @cached_property
    def is_surjective(self) -> bool:
        return len(set(self.mapping.tolist())) == self.cod.n

    def image_indices(self) -> tuple:
        return tuple(sorted(set(self.mapping.tolist())))

    def __eq__(self, other):
        return (isinstance(other, FrameHom) and _same_frame(self.dom, other.dom)
                and _same_frame(self.cod, other.cod) and (self.mapping == other.mapping).all())

    def __hash__(self):
        return hash((self.dom.elements, self.cod.elements, self.mapping.tobytes()))

    def __repr__(self):
        pairs = ", ".join(
            f"{d}->{self.cod.elements[self.mapping[i]]}" for i, d in enumerate(self.dom.elements)
        )
        return f"FrameHom({self.dom.name}->{self.cod.name}: {pairs})"


def _same_frame(a: Frame, b: Frame) -> bool:
    """a is b, or both have the same elements in the same order."""
    return a is b or (a.elements == b.elements and np.array_equal(a.leq, b.leq))


def check_frame_hom(hom: FrameHom) -> tuple[bool, list[LawViolation]]:
    """Verdict plus the list of first per-law violations."""
    bad = hom.violations()
    return (not bad, bad)


class Sublocale:
    """A sublocale stored as its member set; its primes make its mask.

    Membership must contain the top, be closed under binary meets, and be
    closed under implication from arbitrary elements.
    """

    def __new__(cls, frame: Frame, members):
        """The one sublocale of `frame` with these members.

        Sublocales are interned per frame, keyed by the sorted member tuple,
        so each distinct member set is built once and its cached views
        (as_frame, quotient, label, validity) are computed once.  The cache
        is an idempotent memo: equality and hashing still go by carrier and
        members, never by identity.
        """
        key = tuple(sorted({frame.idx(m) if isinstance(m, str) else int(m) for m in members}))
        cached = frame._sublocales.get(key)
        if cached is not None:
            return cached
        self = super().__new__(cls)
        self.frame = frame
        self.members = key
        return frame._sublocales.setdefault(key, self)

    @cached_property
    def mask(self) -> int:
        """Bit k for frame.primes[k] in the sublocale the members generate."""
        return reduce(or_, (self.frame.prime_support[x] for x in self.members), 0)

    @cached_property
    def member_vector(self) -> np.ndarray:
        vec = np.zeros(self.frame.n, dtype=bool)
        vec[list(self.members)] = True
        return _frozen(vec)

    @cached_property
    def is_valid(self) -> bool:
        return self.violation() is None

    def violation(self):
        """None, or a tuple describing the first failed closure property."""
        F, mem = self.frame, self.member_vector
        if not mem[F.top]:
            return ("top", ())
        sub = np.asarray(self.members)
        meets = F.meet[sub[:, None], sub]
        if not mem[meets].all():
            i, j = next(zip(*np.where(~mem[meets])))
            return ("meet", (F.elements[sub[i]], F.elements[sub[j]]))
        imps = F.implication[:, sub]
        if not mem[imps].all():
            a, s = next(zip(*np.where(~mem[imps])))
            return ("implication", (F.elements[a], F.elements[sub[s]]))
        return None

    @cached_property
    def quotient(self) -> np.ndarray:
        """q[a] = least member above a: the meet of the members above a."""
        return _frozen(_joins(self.frame.leq & self.member_vector, self.frame.leq.T))

    def nucleus(self) -> "Nucleus":
        return Nucleus(self.frame, self.quotient)

    @cached_property
    def as_frame(self) -> Frame:
        """The members as a frame: meets inherited, joins via the quotient."""
        if self.is_whole:
            return self.frame
        return self.frame.restrict(self.members, self.quotient, self.label)

    @cached_property
    def label(self) -> str:
        return sublocale_label(self)

    def quotient_hom(self) -> FrameHom:
        """The quotient map onto the member frame."""
        target = self.as_frame
        return FrameHom(self.frame, target, np.searchsorted(self.members, self.quotient))

    # -- lattice of sublocales ---------------------------------------------

    def meet_with(self, other: "Sublocale") -> "Sublocale":
        """The sublocale meet, the intersection: the common primes."""
        self._same_carrier(other)
        return sublocale_of_mask(self.frame, self.mask & other.mask)

    def join_with(self, other: "Sublocale") -> "Sublocale":
        """The sublocale join, generated by both member sets: either's primes."""
        self._same_carrier(other)
        return sublocale_of_mask(self.frame, self.mask | other.mask)

    def _same_carrier(self, other):
        if not _same_frame(self.frame, other.frame):
            raise CarrierMismatch("sublocales live over different frames")

    def contains(self, other: "Sublocale") -> bool:
        """Whether other's members lie inside; other need not be a sublocale."""
        return other.mask | self.mask == self.mask

    @property
    def is_whole(self) -> bool:
        return len(self.members) == self.frame.n

    @property
    def is_one(self) -> bool:
        return self.members == (self.frame.top,)

    def __eq__(self, other):
        return (isinstance(other, Sublocale) and _same_frame(self.frame, other.frame)
                and self.members == other.members)

    def __hash__(self):
        return hash((self.frame.elements, self.members))

    def __repr__(self):
        return f"Sublocale({self.frame.name}: {{{', '.join(self.frame.names(self.members))}}})"


class Nucleus:
    """A candidate nucleus: a self-map checked for the four nucleus laws."""

    def __init__(self, frame: Frame, mapping):
        self.frame = frame
        self.mapping = np.array(mapping, dtype=np.int64)  # a copy: never the caller's array
        if self.mapping.shape != (frame.n,):
            raise DomainMismatch("nucleus map must be total")
        self.mapping.flags.writeable = False

    def __call__(self, i: int) -> int:
        return int(self.mapping[i])

    def violation(self):
        F, j = self.frame, self.mapping
        mono = F.leq & ~F.leq[j[:, None], j]
        if mono.any():
            a, b = next(zip(*np.where(mono)))
            return ("monotone", (F.elements[a], F.elements[b]))
        if not F.leq[np.arange(F.n), j].all():
            a = int(np.where(~F.leq[np.arange(F.n), j])[0][0])
            return ("inflationary", (F.elements[a],))
        if not (j[j] == j).all():
            a = int(np.where(j[j] != j)[0][0])
            return ("idempotent", (F.elements[a],))
        bad = j[F.meet] != F.meet[j[:, None], j]
        if bad.any():
            a, b = next(zip(*np.where(bad)))
            return ("meet-preserving", (F.elements[a], F.elements[b]))
        return None

    @cached_property
    def is_valid(self) -> bool:
        return self.violation() is None

    def fixpoints(self) -> Sublocale:
        return Sublocale(self.frame, [i for i in range(self.frame.n) if self.mapping[i] == i])


# -- constructions -----------------------------------------------------------


def whole_sublocale(frame: Frame) -> Sublocale:
    return Sublocale(frame, range(frame.n))


def one_sublocale(frame: Frame) -> Sublocale:
    return Sublocale(frame, [frame.top])


def closed_sublocale(frame: Frame, a) -> Sublocale:
    """The up-set of a."""
    a = frame.idx(a) if isinstance(a, str) else int(a)
    return Sublocale(frame, np.where(frame.leq[a, :])[0])


def open_sublocale(frame: Frame, a) -> Sublocale:
    """{a -> b | b in the frame}."""
    a = frame.idx(a) if isinstance(a, str) else int(a)
    return Sublocale(frame, set(frame.implication[a, :].tolist()))


def sublocale_generated_by(frame: Frame, seed) -> Sublocale:
    """The least sublocale holding the seed: the one of the seed's primes."""
    return sublocale_of_mask(frame, reduce(or_, (frame.prime_support[int(s)] for s in seed), 0))


def sublocale_of_mask(frame: Frame, primes: int) -> Sublocale:
    """The sublocale of the primes in the mask.  An element is the meet of
    the minimal primes above it and a sublocale holds it exactly when it
    holds them, so the members are those whose prime support lies inside."""
    return Sublocale(frame, [x for x, mask in enumerate(frame.prime_support) if mask | primes == primes])


def booleanization(frame: Frame) -> tuple[Sublocale, FrameHom]:
    """The least dense sublocale, generated by the bottom, with the map onto
    it: the double pseudocomplement."""
    sub = sublocale_generated_by(frame, [frame.bottom])
    return sub, sub.quotient_hom()


def enumerate_sublocales(frame: Frame, max_sublocales: int = 400) -> list[Sublocale]:
    """All sublocales, ordered by (size, members) so outputs are reproducible.

    A finite frame is spatial and T_D, so its sublocales are exactly those
    generated by the sets of its primes, 2^|primes| of them; more than
    max_sublocales raises SizeGuardExceeded before any is built.  They are
    built once per frame; the guard is checked on every call.
    """
    count = 2 ** len(frame.primes)
    if count > max_sublocales:
        raise SizeGuardExceeded(f"{count} sublocales exceed the guard of {max_sublocales}")
    if frame._all_sublocales is None:
        subs = (sublocale_of_mask(frame, primes) for primes in range(count))
        frame._all_sublocales = tuple(sorted(subs, key=lambda s: (len(s.members), s.members)))
    return list(frame._all_sublocales)


def sublocale_label(s: Sublocale) -> str:
    """Label a sublocale the way order diagrams name them.

    Whole frame and one-point sublocales get the frame name and "1"; up-sets
    are closed sublocales c(a); implication images are open sublocales o(a);
    anything else lists its members.
    """
    F, mem = s.frame, s.member_vector
    if s.is_whole:
        return F.name
    if s.is_one:
        return "1"
    closed = (F.leq == mem).all(axis=1)  # row a of leq is the up-set of a
    if closed.any():
        return f"c({F.elements[closed.argmax()]})"
    images = np.zeros((F.n, F.n), dtype=bool)  # row a: the image of a -> (-)
    images[np.arange(F.n)[:, None], F.implication] = True
    opened = (images == mem).all(axis=1)
    if opened.any():
        return f"o({F.elements[opened.argmax()]})"
    return "{" + ",".join(F.names(s.members)) + "}"
