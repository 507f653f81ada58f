"""End-to-end pipeline: suppress, expand, walk, project.

The target accuracy eps splits three ways: eps/2 for the degree-two chain,
eps/4 of headroom for projection bias, and eps/16 for the chance that some
random gadget misses its pointwise guarantee.  Per-gadget error and failure
parameters are eps/(16 m) each, so their sums stay inside the budget for any
Eulerian input with m arcs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .chordstore import ChordStore, ChunkedStore
from .multigraph import (
    DirectedMultigraph,
    Tour,
    eulerian_violation,
    hierholzer_tour,
    suppress_degree_one,
    validate_eulerian,
)
from .rng import SplitMix64
from .switchnet import expand_graph, project_tour
from .walk import WalkStats, mixing_steps, run_walk

# Up to this many arcs the walk keeps the tour in a ChordStore, scanned whole
# each step: O(M) numpy work and O(1) Python work, against O(sqrt(M)) Python
# work per step in a ChunkedStore.  This is the measured crossover: with
# ``tourwalk bench --impl flat,fast --steps 100`` on 2 vCPU (ms per step,
# flat/chunked) the flat step led at M = 360 (0.015/0.127), 640k
# (2.6/6.7) and 2^21 (12.8/16.8), was level to ahead at 2,621,440
# (15.6/20.0, 17.1/17.1) and behind from 3,145,728 (20.7/19.2, 23.8/21.5)
# and 2^22 (30.7/25.7) on.
FLAT_MAX_M = 2_621_440


@dataclass(frozen=True)
class SampleConfig:
    eps: float
    seed: int
    c_mix: float = 4.0
    network_c: float = 2.0
    gadget_min_degree: int = 3
    step_override: int | None = None
    debug: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.eps < 1.0:
            raise ValueError("eps must lie in (0, 1)")


@dataclass
class SampleReport:
    tour: Tour
    expanded_arcs: int
    steps: int
    timings: dict[str, float] = field(default_factory=dict)
    eta_total: float = 0.0
    seed: int = 0
    walk: WalkStats = field(default_factory=WalkStats)

    def to_json_dict(self) -> dict:
        return {
            "tour": list(self.tour.arcs),
            "expanded_arcs": self.expanded_arcs,
            "steps": self.steps,
            "timings": self.timings,
            "eta_total": self.eta_total,
            "seed": self.seed,
            "walk": {
                "steps": self.walk.steps,
                "self_loop_fraction": self.walk.self_loop_fraction,
                "mean_crossings": self.walk.mean_crossings,
                "validations": self.walk.validations,
                "store": self.walk.store,
            },
        }


def sample_tour(g: DirectedMultigraph, cfg: SampleConfig) -> SampleReport:
    """Sample a tour within cfg.eps total variation of uniform on ET(g).

    Deterministic given (graph, config, seed).  The output is always a valid
    tour of g; an expansion that is not 2-in/2-out and Eulerian is an
    internal fault and raises AssertionError.
    """
    viol = eulerian_violation(g)
    if viol is not None:
        raise ValueError(f"not Eulerian: {viol}")
    if g.m < 1:
        raise ValueError("graph has no arcs")
    rng = SplitMix64(cfg.seed)
    timings: dict[str, float] = {}
    t0 = time.perf_counter()

    active = g.active_vertices()
    degrees = [len(g.out_arcs[v]) for v in active]
    if all(d == 1 for d in degrees) or (len(active) == 1 and degrees[0] == 2):
        # a directed cycle (strongly connected, all degrees one) or one
        # vertex with two loops: the tour is unique
        tour = hierholzer_tour(g)
        timings["total"] = time.perf_counter() - t0
        return SampleReport(
            tour=tour, expanded_arcs=g.m, steps=0, timings=timings, seed=cfg.seed
        )

    t = time.perf_counter()
    base, trace = suppress_degree_one(g)
    timings["suppress"] = time.perf_counter() - t

    eta = cfg.eps / (16.0 * g.m)
    t = time.perf_counter()
    emap = expand_graph(
        base,
        eta=eta,
        delta=eta,
        rng=rng.spawn(1),
        c=cfg.network_c,
        gadget_min_degree=cfg.gadget_min_degree,
        original=g,
        trace=trace,
    )
    timings["expand"] = time.perf_counter() - t
    if emap.eta_total > cfg.eps / 16.0 + 1e-12:
        raise AssertionError("gadget error budget exceeded")

    star = emap.star
    if not (star.is_degree_two() and validate_eulerian(star) and star.m >= 1):
        raise AssertionError("expanded graph is not 2-in/2-out and Eulerian")

    t = time.perf_counter()
    start = hierholzer_tour(star)
    store = (ChordStore if star.m <= FLAT_MAX_M else ChunkedStore)(start.arcs, star.heads)
    rng.spawn(2)  # once the store's seed; skipping the draw would change every tour
    timings["build"] = time.perf_counter() - t

    steps = (
        cfg.step_override
        if cfg.step_override is not None
        else mixing_steps(star.n, cfg.eps / 2.0, cfg.c_mix)
    )
    t = time.perf_counter()
    tour_star, walk_stats = run_walk(
        store, steps, rng.spawn(3), debug_graph=star if cfg.debug else None
    )
    timings["walk"] = time.perf_counter() - t

    t = time.perf_counter()
    tour = project_tour(emap, tour_star)
    tour.validate_in(g)
    timings["project"] = time.perf_counter() - t
    timings["total"] = time.perf_counter() - t0
    return SampleReport(
        tour=tour,
        expanded_arcs=star.m,
        steps=steps,
        timings=timings,
        eta_total=emap.eta_total,
        seed=cfg.seed,
        walk=walk_stats,
    )


def sample_degree_two(
    h: DirectedMultigraph, eps: float, cfg: SampleConfig | None = None
) -> Tour:
    """Walk-based sampler for a graph that is already 2-in/2-out."""
    if cfg is None:
        cfg = SampleConfig(eps=eps, seed=0)
    viol = eulerian_violation(h)
    if viol is not None:
        raise ValueError(f"not Eulerian: {viol}")
    if not h.is_degree_two():
        raise ValueError("graph is not 2-in/2-out")
    start = hierholzer_tour(h)
    n = len(h.active_vertices())
    if n <= 1:
        return start
    rng = SplitMix64(cfg.seed)
    store = (ChordStore if h.m <= FLAT_MAX_M else ChunkedStore)(start.arcs, h.heads)
    rng.spawn(1)  # once the store's seed; skipping the draw would change every tour
    steps = (
        cfg.step_override
        if cfg.step_override is not None
        else mixing_steps(n, eps, cfg.c_mix)
    )
    tour, _ = run_walk(store, steps, rng.spawn(2))
    tour.validate_in(h)
    return tour
