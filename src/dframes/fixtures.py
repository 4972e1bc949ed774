"""Hand-built d-frames and morphisms used as fixtures across the suite."""

from __future__ import annotations

import numpy as np

from .dframe import DFrame, DFrameHom, minimal_dframe
from .frames import Frame, FrameHom
from .order import Lattice


def three_three() -> DFrame:
    """The minimal d-frame on two 3-chains, the running Hasse-diagram example."""
    c3 = Frame.chain(3)
    return minimal_dframe(c3, c3, name="3.3")


def two_two() -> DFrame:
    c2 = Frame.chain(2)
    return minimal_dframe(c2, c2, name="2.2")


def invalid_all_pairs() -> DFrame:
    """2.2 with every pair related: fails con-tot, useful for checker tests."""
    c2 = Frame.chain(2)
    return DFrame(c2, c2, np.ones((2, 2), bool), np.ones((2, 2), bool), name="bad-contot")


def _set_topology_dframe(minus: Frame, plus: Frame, opens_minus, opens_plus,
                         universe, name) -> DFrame:
    con = np.zeros((plus.n, minus.n), dtype=bool)
    tot = np.zeros((minus.n, plus.n), dtype=bool)
    for p, up in enumerate(opens_plus):
        for m, um in enumerate(opens_minus):
            con[p, m] = not (up & um)
            tot[m, p] = (up | um) == universe
    return DFrame(minus, plus, con, tot, name=name).assert_valid()


def componentwise_dense_counterexample() -> tuple[DFrame, DFrame, DFrameHom]:
    """A morphism whose components are dense while the pair is not.

    Both d-frames come from topologies on the three-point set {a, b, c}:
    the minus side has opens {a} and {a, b}, the plus side has {b, c}, and
    the codomain collapses {a, b} down to {a}.  Collapsing makes the image
    pair ({b, c}, {a}) disjoint even though ({b, c}, {a, b}) is not, so the
    pair map fails to reflect consistency at exactly that pair.
    """
    universe = frozenset("abc")
    opens_L_minus = [frozenset(), frozenset("a"), frozenset("ab"), universe]
    opens_plus = [frozenset(), frozenset("bc"), universe]
    opens_M_minus = [frozenset(), frozenset("a"), universe]

    L_minus = Frame(Lattice.from_covers(
        ["0", "a", "ab", "1"], [("0", "a"), ("a", "ab"), ("ab", "1")]), name="L-")
    plus = Frame(Lattice.from_covers(["0", "bc", "1"], [("0", "bc"), ("bc", "1")]), name="L+")
    M_minus = Frame(Lattice.from_covers(["0", "a", "1"], [("0", "a"), ("a", "1")]), name="M-")

    dom = _set_topology_dframe(L_minus, plus, opens_L_minus, opens_plus, universe, "L")
    cod = _set_topology_dframe(M_minus, plus, opens_M_minus, opens_plus, universe, "M")

    f_minus = FrameHom(L_minus, M_minus, ["0", "a", "a", "1"])
    f_plus = FrameHom.identity(plus)
    hom = DFrameHom(dom, cod, f_minus, f_plus, name="collapse")
    return dom, cod, hom


def double_negation_without_excluded_middle() -> DFrame:
    """Disjointness as con over the 4-element Boolean frame, but with the
    minimal tot: double pseudocomplements are complements (so double
    negation holds) while no atom is total with its complement."""
    b4 = Frame.boolean(2)
    con = b4.meet.T == b4.bottom
    tot = np.zeros((b4.n, b4.n), dtype=bool)
    tot[b4.top, :] = True
    tot[:, b4.top] = True
    return DFrame(b4, b4, con, tot, name="dn-no-em").assert_valid()


def incorrigible_minimal() -> DFrame:
    """Minimal relations over (Boolean 4, 2-chain): the double map on the
    Boolean side sends both atoms to the top, so it cannot preserve their
    meet and the double image is not a sublocale."""
    return minimal_dframe(Frame.boolean(2), Frame.chain(2), name="incorrigible")
