"""Small-model enumeration: lattice pools, the standard d-frame corpus,
seeded random d-frames, and the counterexample miner.

Everything here is bounded-exhaustive and deterministic so corpus sweeps
and miner reports replay byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .dframe import (
    DFrame,
    check_dframe,
    close_con_generators,
    close_tot_generators,
    con_closure_step,
    minimal_dframe,
    symmetric_dframe,
    tot_closure_step,
)
from .errors import NotALattice, SizeGuardExceeded, TrivialMismatch
from .frames import Frame, enumerate_sublocales
from .order import Lattice, are_order_isomorphic
# Nothing calls build_sub_d_locale through this binding; it stays because
# benchmarks/test_benchmark.py checks that the tracer wraps it in this
# module.
from .subdlocale import admission_matrix, build_sub_d_locale  # noqa: F401


def all_lattices(max_size: int) -> list[Lattice]:
    """All bounded lattices with at most max_size elements, up to isomorphism.

    Posets are enumerated as transitive upper-triangular relations (every
    finite poset admits a topological labelling), filtered to lattices and
    deduplicated by isomorphism search.
    """
    found: list[Lattice] = []
    for n in range(1, max_size + 1):
        slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for mask in range(2 ** len(slots)):
            leq = np.eye(n, dtype=bool)
            for bit, (i, j) in enumerate(slots):
                if mask >> bit & 1:
                    leq[i, j] = True
            closed = leq
            while True:
                step = closed | ((closed.astype(np.int64) @ closed.astype(np.int64)) > 0)
                if (step == closed).all():
                    break
                closed = step
            if (closed != leq).any():
                continue  # not transitive as written; the closure shows up later
            try:
                lat = Lattice([f"x{k}" for k in range(n)], leq)
            except NotALattice:
                continue
            if not any(lat.n == other.n and are_order_isomorphic(lat, other) for other in found):
                found.append(lat)
    found.sort(key=lambda lat: (lat.n, lat.leq.sum(), lat.leq.tobytes()))
    return found


def all_distributive_lattices(max_size: int) -> list[Lattice]:
    return [lat for lat in all_lattices(max_size) if lat.is_distributive]


def frame_pool(max_size: int) -> list[Frame]:
    """All finite frames up to max_size elements, up to isomorphism."""
    return [Frame(lat, name=f"D{k}") for k, lat in enumerate(all_distributive_lattices(max_size))]


def standard_corpus(max_size: int = 5) -> list[DFrame]:
    """The generated corpus: every minimal and symmetric d-frame over the
    distributive lattices with at most max_size elements."""
    pool = frame_pool(max_size)
    out = []
    for frame in pool:
        out.append(symmetric_dframe(frame, name=f"Sym({frame.name})"))
    for a, b in product(pool, pool):
        try:
            out.append(minimal_dframe(a, b, name=f"{a.name}.{b.name}"))
        except TrivialMismatch:
            continue
    return out


def random_dframe(rng, pool: list[Frame] | None = None, max_size: int = 4) -> DFrame:
    """A seeded random d-frame: random frame pair plus random generator
    pairs closed into valid relations.

    The closure handles every axiom except con-tot; candidates violating it
    are rejected and retried, so the draw always terminates (the minimal
    relations are always valid).
    """
    pool = pool or frame_pool(max_size)
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


def forced_con(minus: Frame, plus: Frame, cap: int = 1 << 18) -> np.ndarray:
    """The cells every consistency relation between two frames holds: the
    closed empty generator set.

    Raises SizeGuardExceeded when it leaves so many cells free that
    enumerating their subsets would pass the cap.
    """
    empty = np.zeros((plus.n, minus.n), dtype=bool)
    return _check_cap(close_con_generators(minus, plus, empty), cap)


def forced_tot(minus: Frame, plus: Frame, cap: int = 1 << 18) -> np.ndarray:
    """The cells every totality relation between two frames holds."""
    empty = np.zeros((minus.n, plus.n), dtype=bool)
    return _check_cap(close_tot_generators(minus, plus, empty), cap)


def _check_cap(forced: np.ndarray, cap: int) -> np.ndarray:
    free = int((~forced).sum())
    if 2 ** free > cap:
        raise SizeGuardExceeded(f"2^{free} candidate relations exceed the cap of {cap}")
    return forced


def _enumerate_relations(minus: Frame, plus: Frame, forced: np.ndarray, step) -> list[np.ndarray]:
    """The forced cells plus each subset of the free ones (bit k of the mask
    sets the k-th free cell in row-major order) that the step leaves fixed."""
    rows, cols = np.where(~forced)
    shifts = np.arange(len(rows))
    out = []
    for mask in range(2 ** len(rows)):
        rel = forced.copy()
        rel[rows, cols] = (mask >> shifts) & 1
        if (step(minus, plus, rel) == rel).all():
            out.append(rel)
    return out


def enumerate_con_relations(minus: Frame, plus: Frame, cap: int = 1 << 18) -> list[np.ndarray]:
    """Every valid consistency relation between two frames, in bitmask order
    over the cells the nullary pairs leave free."""
    return _enumerate_relations(minus, plus, forced_con(minus, plus, cap), con_closure_step)


def enumerate_tot_relations(minus: Frame, plus: Frame, cap: int = 1 << 18) -> list[np.ndarray]:
    return _enumerate_relations(minus, plus, forced_tot(minus, plus, cap), tot_closure_step)


def enumerate_dframes(minus: Frame, plus: Frame, cap: int = 1 << 18):
    """All valid d-frames on a fixed frame pair, con-major."""
    cons = enumerate_con_relations(minus, plus, cap)
    tots = enumerate_tot_relations(minus, plus, cap)
    for con in cons:
        for tot in tots:
            candidate = DFrame(minus, plus, con, tot)
            if check_dframe(candidate).ok:
                yield candidate


# -- the miner -------------------------------------------------------------------


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
        lines.append(f"incorrigible: {len(self.incorrigible)} found")
        for name in self.incorrigible[:5]:
            lines.append(f"  {name}")
        lines.append(
            "double negation without excluded middle: "
            f"{len(self.double_negation_without_excluded_middle)} found"
        )
        for name in self.double_negation_without_excluded_middle[:5]:
            lines.append(f"  {name}")
        lines.append(f"one-sided sublocales with no partner: {len(self.partnerless)} found")
        for name in self.partnerless[:5]:
            lines.append(f"  {name}")
        return lines


def _describe(df: DFrame) -> str:
    con = ",".join(f"({p},{m})" for p, m in df.con_pairs())
    tot = ",".join(f"({m},{p})" for m, p in df.tot_pairs())
    return f"{df.minus.name}x{df.plus.name} con=[{con}] tot=[{tot}]"


def partnerless_sublocales(df: DFrame, max_frame: int = 12) -> list:
    """Component sublocales admitting no partner on the other side: the
    rows and columns of the admission matrix with no admitted pair."""
    subs_minus = enumerate_sublocales(df.minus, max_frame=max_frame)
    subs_plus = enumerate_sublocales(df.plus, max_frame=max_frame)
    admitted = admission_matrix(df, subs_minus, subs_plus)
    return ([("minus", sm) for sm, ok in zip(subs_minus, admitted.any(axis=1)) if not ok]
            + [("plus", sp) for sp, ok in zip(subs_plus, admitted.any(axis=0)) if not ok])


def mine(max_frame: int = 3, max_candidates: int = 20000) -> MinerReport:
    """Sweep all valid d-frames over small frame pairs for the phenomena the
    infinite examples exhibit; record findings, never assert absences."""
    from .density import is_corrigible, is_double_negation, is_excluded_middle

    report = MinerReport()
    pool = frame_pool(max_frame)
    pairs = [(minus, plus) for minus, plus in product(pool, pool)
             if minus.is_trivial == plus.is_trivial]
    # the whole window passes the relation cap before any d-frame is
    # searched, so max_candidates cannot hide an oversized pair
    for minus, plus in pairs:
        forced_con(minus, plus)
        forced_tot(minus, plus)
    for minus, plus in pairs:
        for df in enumerate_dframes(minus, plus):
            report.searched += 1
            if report.searched > max_candidates:
                return report
            if not is_corrigible(df):
                report.incorrigible.append(_describe(df))
            if is_double_negation(df) and not is_excluded_middle(df):
                report.double_negation_without_excluded_middle.append(_describe(df))
            for side, sub in partnerless_sublocales(df):
                members = ",".join(sub.frame.names(sub.members))
                report.partnerless.append(f"{_describe(df)} {side} {{{members}}}")
    return report
