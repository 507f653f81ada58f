"""Ground-truth oracles: exhaustive tour census, BEST counting, empirical TV.

These are the independent checks the samplers are validated against, so they
deliberately share no machinery with the fast paths: enumeration iterates raw
transition systems, and the arborescence determinant runs in exact integer
arithmetic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .multigraph import (
    DirectedMultigraph,
    Tour,
    TransitionSystem,
    cycle_count,
)

ENUMERATION_BUDGET = 10_000_000


@dataclass(frozen=True)
class TourCensus:
    """All tours of a graph, as canonical rotations."""

    tours: tuple[Tour, ...]

    @property
    def count(self) -> int:
        return len(self.tours)

    def index(self) -> dict[Tour, int]:
        return {t: i for i, t in enumerate(self.tours)}


def transition_systems(g: DirectedMultigraph):
    """Iterate every transition system as a product of local bijections."""
    active = g.active_vertices()
    budget = 1
    for v in active:
        budget *= math.factorial(len(g.in_arcs[v]))
        if budget > ENUMERATION_BUDGET:
            raise ValueError(
                f"enumeration budget exceeded: product of degree factorials > {ENUMERATION_BUDGET}"
            )
    choices = [
        list(itertools.permutations(g.out_arcs[v])) for v in active
    ]
    for combo in itertools.product(*choices):
        succ = [0] * g.m
        for v, outs in zip(active, combo):
            for e, f in zip(g.in_arcs[v], outs):
                succ[e] = f
        yield TransitionSystem(tuple(succ))


def enumerate_tours(g: DirectedMultigraph) -> TourCensus:
    """Every one-cycle transition system, deduplicated by canonical rotation."""
    tours = []
    seen = set()
    for ts in transition_systems(g):
        k, cycles = cycle_count(g, ts)
        if k == 1:
            t = Tour.canonical(cycles[0])
            if t not in seen:
                seen.add(t)
                tours.append(t)
    tours.sort(key=lambda t: t.arcs)
    return TourCensus(tuple(tours))


def det_bareiss(mat: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free Bareiss elimination."""
    a = [row[:] for row in mat]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def arborescence_count(g: DirectedMultigraph, root: int) -> int:
    """Spanning arborescences oriented toward ``root``, via matrix-tree.

    Uses the out-degree Laplacian of the multigraph (multiplicities count),
    restricted to the active vertices, with the root row and column deleted.
    """
    active = g.active_vertices()
    idx = {v: i for i, v in enumerate(active)}
    k = len(active)
    lap = [[0] * k for _ in range(k)]
    for e in range(g.m):
        t, h = int(g.tails[e]), int(g.heads[e])
        if t == h:
            continue  # loops never occur in arborescences
        lap[idx[t]][idx[t]] += 1
        lap[idx[t]][idx[h]] -= 1
    r = idx[root]
    minor = [
        [lap[i][j] for j in range(k) if j != r] for i in range(k) if i != r
    ]
    return det_bareiss(minor)


def best_count(g: DirectedMultigraph) -> int:
    """Number of Eulerian tours by the BEST theorem.

    arborescences toward a root, times the product of (deg(v) - 1)! over
    vertices.  Root independence is asserted by computing two roots.
    """
    active = g.active_vertices()
    if not active:
        return 0
    roots = active[:2]
    counts = [arborescence_count(g, r) for r in roots]
    if len(counts) == 2 and counts[0] != counts[1]:
        raise AssertionError(
            f"arborescence count is root-dependent: {counts[0]} vs {counts[1]}"
        )
    total = counts[0]
    for v in active:
        # a sink (out-degree zero) leaves no arborescence, so total is 0
        total *= math.factorial(max(len(g.out_arcs[v]) - 1, 0))
    return total


def empirical_tv(samples: list[Tour], census: TourCensus) -> float:
    """Total variation distance of the sample frequencies from uniform.

    Raises if any sample is outside the census, which signals a correctness
    bug in the sampler rather than statistical noise.
    """
    if census.count == 0:
        raise ValueError("empty census")
    pos = census.index()
    freq = [0] * census.count
    for t in samples:
        if t not in pos:
            raise ValueError(f"sample outside census: {t.arcs}")
        freq[pos[t]] += 1
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    unif = Fraction(1, census.count)
    tv = sum(abs(Fraction(f, n) - unif) for f in freq) / 2
    return float(tv)
