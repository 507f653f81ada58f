"""Chord-diagram view of degree-two tours and interlacement feasibility.

A tour of a 2-in/2-out graph places its M arc occurrences on a circle; the
two positions whose arc head is v form the chord of v.  Flipping a vertex
subset S turns the tour into 1 + nullity_F2(I[S,S]) circuits (Cohn-Lempel),
and Bouchet's unimodular signing gives an integer skew-symmetric matrix A
with det(A[S,S]) in {0,1} equal to the indicator that the flip stays a tour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .multigraph import DirectedMultigraph, Tour
from .oracle import det_bareiss


@dataclass(frozen=True)
class ChordDiagram:
    """Two circle positions per vertex; positions partition 0..M-1."""

    size: int
    positions: tuple[tuple[int, int, int], ...]  # (vertex, first, second), first < second

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(v for v, _, _ in self.positions)

    def position_pairs(self) -> dict[int, tuple[int, int]]:
        return {v: (a, b) for v, a, b in self.positions}

    def __post_init__(self) -> None:
        used = sorted(p for _, a, b in self.positions for p in (a, b))
        if used != list(range(self.size)):
            raise ValueError("chord endpoints must partition the circle positions")

    def __str__(self) -> str:
        return "\n".join(f"{v}: {a} {b}" for v, a, b in self.positions)


def diagram_from_pairs(pairs: Mapping[int, tuple[int, int]]) -> ChordDiagram:
    size = 2 * len(pairs)
    rows = tuple(
        (int(v), min(int(a), int(b)), max(int(a), int(b)))
        for v, (a, b) in sorted(pairs.items())
    )
    return ChordDiagram(size, rows)


def chords_from_tour(g: DirectedMultigraph, tour: Tour) -> ChordDiagram:
    """Chord diagram of a tour: positions where each vertex's in-arcs sit."""
    if not g.is_degree_two():
        raise ValueError("chord diagrams require a 2-in/2-out graph")
    tour.validate_in(g)
    where: dict[int, list[int]] = {}
    for i, e in enumerate(tour.arcs):
        where.setdefault(int(g.heads[e]), []).append(i)
    pairs = {v: (p[0], p[1]) for v, p in where.items()}
    return diagram_from_pairs(pairs)


def graph_from_diagram(cd: ChordDiagram) -> tuple[DirectedMultigraph, Tour]:
    """Degree-two multigraph realizing a chord diagram as its tour.

    Arc at position i runs from the owner of position i-1 to the owner of
    position i, so the cyclic arc sequence (0, 1, ..., M-1) is a tour whose
    diagram is cd.  Useful for turning arbitrary diagrams into test graphs.
    """
    owner = [0] * cd.size
    for v, a, b in cd.positions:
        owner[a] = v
        owner[b] = v
    vmap = {v: i for i, v in enumerate(sorted(set(owner)))}
    arcs = [
        (vmap[owner[i - 1]], vmap[owner[i]]) for i in range(cd.size)
    ]
    g = DirectedMultigraph(len(vmap), arcs)
    return g, Tour.canonical(range(cd.size))


def _crosses(pa: tuple[int, int], pb: tuple[int, int]) -> bool:
    # The four positions alternate around the circle exactly when one
    # endpoint of b lies in the open interval (a0, a1) and the other outside.
    a0, a1 = pa
    inside = sum(1 for p in pb if a0 < p < a1)
    return inside == 1


@dataclass(frozen=True)
class InterlacementMatrixF2:
    """Symmetric 0/1 crossing matrix over F2, zero diagonal."""

    vertices: tuple[int, ...]
    rows: tuple[int, ...]  # row bitsets, bit j = crossing with vertices[j]

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def to_array(self) -> np.ndarray:
        k = len(self.vertices)
        out = np.zeros((k, k), dtype=np.int64)
        for i in range(k):
            for j in range(k):
                out[i, j] = self.entry(i, j)
        return out


def interlacement_f2(cd: ChordDiagram) -> InterlacementMatrixF2:
    pp = [(a, b) for _, a, b in cd.positions]
    k = len(pp)
    rows = [0] * k
    for i in range(k):
        for j in range(i + 1, k):
            if _crosses(pp[i], pp[j]):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return InterlacementMatrixF2(cd.vertices, tuple(rows))


def signed_interlacement(
    cd: ChordDiagram, tails: Sequence[int] | None = None
) -> np.ndarray:
    """Bouchet signing of the crossing matrix.

    ``tails[i]`` picks which of chord i's two positions is its tail; the
    default takes the smaller position.  All principal determinants are
    independent of this choice, and each lies in {0, 1}.
    """
    pp = [(a, b) for _, a, b in cd.positions]
    k = len(pp)
    if tails is None:
        tails = [0] * k
    if len(tails) != k:
        raise ValueError("one tail choice per chord required")
    a_mat = np.zeros((k, k), dtype=np.int64)
    for i in range(k):
        ti = pp[i][tails[i] & 1]
        hi = pp[i][1 - (tails[i] & 1)]
        for j in range(k):
            if j == i or not _crosses(pp[i], pp[j]):
                continue
            tj = pp[j][tails[j] & 1]
            # Exactly one endpoint of chord j lies on the open arc from the
            # tail of chord i to its head, clockwise.
            a_mat[i, j] = 1 if _on_open_arc(tj, ti, hi) else -1
    return a_mat


def _on_open_arc(p: int, s: int, t: int) -> bool:
    """True when p lies on the open clockwise arc from s to t."""
    if s < t:
        return s < p < t
    return p > s or p < t


def f2_nullity(rows: Sequence[int], k: int) -> int:
    """Nullity of a k x k matrix over F2 given as row bitsets."""
    basis: list[int] = []
    rank = 0
    work = list(rows)
    for col in range(k):
        pivot = None
        for idx in range(rank, len(work)):
            if (work[idx] >> col) & 1:
                pivot = idx
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for idx in range(len(work)):
            if idx != rank and (work[idx] >> col) & 1:
                work[idx] ^= work[rank]
        rank += 1
    return k - rank


def _principal_f2(mat: InterlacementMatrixF2, subset: Sequence[int]) -> list[int]:
    subset = list(subset)
    pos = {s: i for i, s in enumerate(subset)}
    rows = []
    for s in subset:
        r = 0
        for t in subset:
            if mat.entry(s, t):
                r |= 1 << pos[t]
        rows.append(r)
    return rows


def circuit_count_from_flip(cd: ChordDiagram, subset: Sequence[int]) -> int:
    """Circuits after flipping the subset: 1 + F2-nullity of I[S,S].

    ``subset`` indexes chords by their position in ``cd.vertices``.
    """
    mat = interlacement_f2(cd)
    rows = _principal_f2(mat, subset)
    return 1 + f2_nullity(rows, len(rows))


def principal_det_int(a_mat: np.ndarray, subset: Sequence[int]) -> int:
    """Exact integer determinant of A[S,S] by fraction-free elimination."""
    subset = list(subset)
    sub = [[int(a_mat[i, j]) for j in subset] for i in subset]
    return det_bareiss(sub)


def feasible(cd: ChordDiagram, a_mat: np.ndarray, subset: Sequence[int]) -> bool:
    """True when flipping the subset keeps one tour: det(A[S,S]) = 1."""
    return principal_det_int(a_mat, subset) == 1
