"""The flip-repair walk on degree-two tours.

One step flips the local pairing at a uniformly random vertex x, which splits
the tour into two circuits, then flips a repair vertex chosen uniformly from
x itself (undoing the split) and the vertices whose chords cross x.  The odd
intermediate two-circuit state is never materialized.

Two implementations share one selection protocol: a step consumes exactly one
vertex draw and one uniform real.  ``step_naive`` scans the whole tour;
``step_fast`` answers the same crossing query through a ChordStore.  In
mirrored mode the fast step resolves the uniform real against the same
vertex-id-sorted candidate list as the naive step, which makes paired
trajectories identical; in its default mode it uses the store's two-stage
class draw, which has the same distribution at sublinear cost.  On a
one-chunk store every crossing is explicit and sorted by vertex id, so the
two modes, and the naive step, pick the same vertex.  The naive
step keeps its tour in a WalkState; the fast step keeps it in the ChordStore
alone.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .chordstore import ChordStore
from .multigraph import DirectedMultigraph, Tour
from .rng import SplitMix64


@dataclass(frozen=True)
class StepOutcome:
    """One flip-repair step: first flip x, repair y, crossing count."""

    x: int
    y: int
    crossings: int

    @property
    def self_loop(self) -> bool:
        return self.y == self.x


class WalkState:
    """Positional view of the current tour of a 2-in/2-out graph.

    Keeps the cyclic arc sequence, the owner (arc head) of every position,
    and the two positions owned by each vertex, for ``step_naive``.
    """

    def __init__(self, graph: DirectedMultigraph, tour: Tour) -> None:
        if not graph.is_degree_two():
            raise ValueError("flip-repair walk needs a 2-in/2-out graph")
        tour.validate_in(graph)
        self.graph = graph
        self.arcs = [int(e) for e in tour.arcs]
        self.owner = [int(graph.heads[e]) for e in self.arcs]
        self.vertices = sorted(set(self.owner))
        self.pos: dict[int, list[int]] = {v: [] for v in self.vertices}
        for p, v in enumerate(self.owner):
            self.pos[v].append(p)

    def tour(self) -> Tour:
        return Tour.canonical(self.arcs)

    def crossing_vertices(self, x: int) -> list[int]:
        """Chords crossing x in the current tour, ascending by vertex id."""
        pa, pb = sorted(self.pos[x])
        seen: dict[int, int] = {}
        owner = self.owner
        for p in range(pa + 1, pb):
            v = owner[p]
            seen[v] = seen.get(v, 0) + 1
        return sorted(v for v, c in seen.items() if c == 1)

    def apply_four_cut(self, x: int, y: int) -> None:
        pts = sorted(self.pos[x] + self.pos[y])
        o = self.owner
        if o[pts[0]] != o[pts[2]] or o[pts[1]] != o[pts[3]] or o[pts[0]] == o[pts[1]]:
            raise ValueError(f"chords {x} and {y} do not cross")
        p1, p2, p3, p4 = pts
        arcs = self.arcs
        self.arcs = (
            arcs[: p1 + 1]
            + arcs[p3 + 1 : p4 + 1]
            + arcs[p2 + 1 : p3 + 1]
            + arcs[p1 + 1 : p2 + 1]
            + arcs[p4 + 1 :]
        )
        heads = self.graph.heads
        self.owner = [int(heads[e]) for e in self.arcs]
        pos = self.pos
        for v in pos:
            pos[v].clear()
        for p, v in enumerate(self.owner):
            pos[v].append(p)


def _select(w: int, u: float) -> int:
    """Map one uniform real to a candidate index in 0..w (0 = self-loop)."""
    return min(int(u * (w + 1)), w)


def step_naive(state: WalkState, rng: SplitMix64) -> StepOutcome:
    """Reference step: O(M) scan, rebuilds the positional arrays on accept."""
    x = state.vertices[rng.randrange(len(state.vertices))]
    crossings = state.crossing_vertices(x)
    w = len(crossings)
    k = _select(w, rng.random())
    y = x if k == 0 else crossings[k - 1]
    if y != x:
        state.apply_four_cut(x, y)
    return StepOutcome(x=x, y=y, crossings=w)


def step_fast(store: ChordStore, rng: SplitMix64, mirror: bool = False) -> StepOutcome:
    """Store-backed step with the same outcome distribution as step_naive.

    With ``mirror=True`` the repair choice resolves the uniform real against
    the explicit vertex-id-sorted candidate list, so a paired naive walk on
    the same randomness follows an identical trajectory (used by equivalence
    tests; costs the size of the crossing set).  The default two-stage draw
    stays within the sublinear budget.
    """
    x = store.vertices[rng.randrange(len(store.vertices))]
    res = store.crossing_query(x)
    w = res.w_total
    if mirror:
        k = _select(w, rng.random())
        y = x if k == 0 else store.crossing_vertices(res)[k - 1]
    else:
        y = store.sample_repair(x, res, rng)
    if y != x:
        store.apply_four_cut(x, y)
    return StepOutcome(x=x, y=y, crossings=w)


def mixing_steps(n_vertices: int, eps: float, c_mix: float = 4.0) -> int:
    """Step budget for total-variation error eps on n flip coordinates.

    ceil(c_mix * n * (ln n + 2) * (2 + 2 ln n + ln(1/eps))); zero when a
    single state makes walking pointless.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if n_vertices <= 1:
        return 0
    ln = math.log(n_vertices)
    return math.ceil(c_mix * n_vertices * (ln + 2.0) * (2.0 + 2.0 * ln + math.log(1.0 / eps)))


@dataclass
class WalkStats:
    steps: int = 0
    self_loops: int = 0
    crossing_sum: int = 0
    seconds: float = 0.0
    validations: int = 0
    store: str | None = None  # "flat" (one chunk) or "chunks"; None if no walk ran

    @property
    def self_loop_fraction(self) -> float:
        return self.self_loops / self.steps if self.steps else 0.0

    @property
    def mean_crossings(self) -> float:
        return self.crossing_sum / self.steps if self.steps else 0.0


def run_walk(
    store: ChordStore,
    steps: int,
    rng: SplitMix64,
    debug_graph: DirectedMultigraph | None = None,
) -> tuple[Tour, WalkStats]:
    """Apply ``steps`` fast steps and return the final tour with its stats.

    The store is validated from scratch at steps 1, 2, 4, ...  Given
    ``debug_graph`` it is validated after every step, and its tour is checked
    against that graph before the first step and after every step.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    debug = debug_graph is not None
    if debug:
        store.tour().validate_in(debug_graph)
    stats = WalkStats(store="flat" if store.flat else "chunks")
    t0 = time.perf_counter()
    next_check = 1
    for i in range(1, steps + 1):
        out = step_fast(store, rng)
        stats.steps += 1
        stats.crossing_sum += out.crossings
        if out.self_loop:
            stats.self_loops += 1
        if debug or i == next_check:
            ok, msg = store.validate()
            if not ok:
                raise AssertionError(f"store invalid after step {i}: {msg}")
            if debug:
                store.tour().validate_in(debug_graph)
            stats.validations += 1
            if i == next_check:
                next_check *= 2
    stats.seconds = time.perf_counter() - t0
    return store.tour(), stats
