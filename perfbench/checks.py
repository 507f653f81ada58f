"""Correctness checks on the sampler's outputs.

The tour and uniformity checks work on plain arc lists and tuples and share
no code with the program.  The census check compares two totals that the
program's oracle reaches by independent paths (enumeration and the BEST
theorem).  The flip check replays the walk's accepted four-cuts as vertex
flips of the start tour's transition system.

Each check returns None when it passes and a one-line defect otherwise.
"""

from __future__ import annotations

import math
from collections import Counter

# Chance that the uniformity check rejects a sampler that meets its eps
# contract: the bound below holds with probability at least 1 - DELTA.
DELTA = 1e-5


def tour_defect(arcs: list[tuple[int, int]], tour: list[int]) -> str | None:
    """Each arc once, each arc's head the next arc's tail, and closed."""
    m = len(arcs)
    if len(tour) != m:
        return f"tour has {len(tour)} arcs, the graph has {m}"
    seen = bytearray(m)
    for e in tour:
        if not 0 <= e < m:
            return f"arc {e} is not an arc of the graph"
        if seen[e]:
            return f"arc {e} appears twice"
        seen[e] = 1
    for i in range(m - 1):
        e, f = tour[i], tour[i + 1]
        if arcs[e][1] != arcs[f][0]:
            return f"arc {f} does not leave the head of arc {e}"
    if arcs[tour[-1]][1] != arcs[tour[0]][0]:
        return "the tour does not close"
    return None


def canonical(tour) -> tuple[int, ...]:
    """Rotation that starts at the smallest arc id."""
    k = tour.index(min(tour))
    return tuple(tour[k:]) + tuple(tour[:k])


def census_size_defect(census_count: int, best: int) -> str | None:
    if census_count != best:
        return f"census has {census_count} tours, BEST counts {best}"
    return None


def tv_bound(n_samples: int, n_tours: int, eps: float, delta: float = DELTA) -> float:
    """Empirical TV from uniform that a sampler within eps of uniform
    exceeds with probability below delta.

    Weissman et al. (2003): P(||p_hat - p||_1 >= t) <= (2^k - 2) exp(-n t^2 / 2),
    so TV(p_hat, p) < sqrt(ln((2^k - 2) / delta) / (2 n)) with probability
    1 - delta, and TV(p, uniform) <= eps by the sampler's guarantee.
    """
    if n_tours < 2 or n_samples < 1:
        raise ValueError("need two tours and one sample")
    return eps + math.sqrt(math.log((2**n_tours - 2) / delta) / (2 * n_samples))


def uniformity_defect(
    samples: list[tuple[int, ...]], census: list[tuple[int, ...]], eps: float
) -> str | None:
    """Empirical TV from the uniform law on the census, against tv_bound.

    A sampler that never returns one of k tours has empirical TV of at least
    1/k, so once tv_bound < 1/k it cannot pass.
    """
    freq = Counter(samples)
    outside = set(freq) - set(census)
    if outside:
        return f"{sum(freq[t] for t in outside)} samples lie outside the census"
    n, k = len(samples), len(census)
    tv = sum(abs(freq[t] / n - 1 / k) for t in census) / 2
    bound = tv_bound(n, k, eps)
    if tv > bound:
        return f"empirical TV {tv:.4f} exceeds {bound:.4f} at {n} samples"
    return None


def flip_defect(mg, star, start, pairs, final, queries: int, steps: int) -> str | None:
    """Flipping every vertex that the accepted pairs name an odd number of
    times turns the start tour's transition system into the final one.

    ``mg`` is the tourwalk.multigraph module; ``start`` and ``final`` are
    tours of the expanded graph ``star``; ``pairs`` are the (x, y) arguments
    of every accepted four-cut.
    """
    if queries != steps:
        return f"{queries} crossing queries for {steps} walk steps"
    parity = Counter(v for pair in pairs for v in pair)
    odd = sorted(v for v, c in parity.items() if c % 2)
    ts = mg.TransitionSystem.from_tour(start)
    if mg.flip_vertices(star, ts, odd) != mg.TransitionSystem.from_tour(final):
        return f"{len(pairs)} accepted four-cuts do not turn the start tour into the final one"
    return None
