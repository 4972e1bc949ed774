"""The order-mask scan: every bounded lattice up to isomorphism, by brute force.

It is the oracle for search.frame_pool, which builds the distributive ones
from posets, and the tests' source of lattices that are not distributive.
"""

import numpy as np

from dframes.errors import NotALattice
from dframes.order import Lattice, are_order_isomorphic


def all_lattices(max_size: int) -> list[Lattice]:
    """All bounded lattices with at most max_size elements, up to isomorphism.

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
