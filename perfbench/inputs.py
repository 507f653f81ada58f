"""Seeded workload inputs, built without the program's own generators.

Every input is an Eulerian multigraph given as ``(n, arcs)``.  The same
workload name and seed always give the same graph, and the vertex and arc
labels of every graph are shuffled by the seed, so the program sees a new
labelling on each seed while the shape (and so the work) stays the same.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

# The acceptance suite's 6c graph: degrees (3, 1, 1, 1), 6 arcs, 2 tours.
GADGET6C_ARCS = ((0, 2), (0, 1), (0, 0), (1, 3), (2, 0), (3, 0))
BIDIRECTED_TRIANGLE = ((0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2))
EPS = 0.1  # SampleConfig.eps on every workload
REGULAR2_VERTICES = 5_000
UNITIG_PATH_ARCS = 5_000


@dataclass(frozen=True)
class Workload:
    build: Callable[[random.Random], "Instance"]
    step_override: int | None  # None: the sampler's own mixing schedule
    min_rounds: int  # rounds run even when they overrun --seconds
    census_core: tuple[tuple[int, int], ...] | None  # graph whose BEST count is the census size
    uniformity_tv: float | None = None  # TV from uniform the sampler may have; None: no check
    c_mix: float | None = None  # SampleConfig.c_mix; None: the sampler's default


@dataclass(frozen=True)
class Instance:
    n: int
    arcs: list[tuple[int, int]]

    def to_text(self) -> str:
        return f"{self.n} {len(self.arcs)}\n" + "".join(f"{t} {h}\n" for t, h in self.arcs)


def _relabel(n: int, arcs: list[tuple[int, int]], rnd: random.Random) -> Instance:
    perm = list(range(n))
    rnd.shuffle(perm)
    out = [(perm[t], perm[h]) for t, h in arcs]
    rnd.shuffle(out)
    return Instance(n, out)


def gadget6c(rnd: random.Random) -> Instance:
    return _relabel(4, list(GADGET6C_ARCS), rnd)


def regular2(rnd: random.Random, n: int = REGULAR2_VERTICES) -> Instance:
    """A random Hamiltonian cycle plus a uniform random permutation.

    The cycle makes the graph strongly connected on every draw, so no retry
    loop is needed and every seed gives the same m = 2n.
    """
    order = list(range(n))
    rnd.shuffle(order)
    arcs = [(order[i], order[(i + 1) % n]) for i in range(n)]
    perm = list(range(n))
    rnd.shuffle(perm)
    arcs += [(v, perm[v]) for v in range(n)]
    return _relabel(n, arcs, rnd)


def unitig_triangle(rnd: random.Random, path_arcs: int = UNITIG_PATH_ARCS) -> Instance:
    """The bidirected triangle with every arc stretched into a path.

    Each of the 6 arcs becomes ``path_arcs`` arcs through fresh vertices of
    in- and out-degree one, as unitigs look in a de Bruijn graph; the tours
    stay in bijection with the triangle's 3 tours.
    """
    arcs = []
    n = 3
    for t, h in BIDIRECTED_TRIANGLE:
        prev = t
        for _ in range(path_arcs - 1):
            arcs.append((prev, n))
            prev = n
            n += 1
        arcs.append((prev, h))
    return _relabel(n, arcs, rnd)


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "gadget6c": Workload(
        build=gadget6c,
        step_override=None,
        min_rounds=4,
        census_core=GADGET6C_ARCS,
        # A twentieth of the default schedule (4.0): about 4,000 of 79,661
        # steps, so that a run holds many calls; the schedule still scales
        # with M, so a smaller network still shows in the step count.
        c_mix=0.2,
    ),
    "regular2-10k": Workload(
        build=regular2,
        step_override=200,  # the default schedule cannot run
        min_rounds=4,
        census_core=None,
    ),
    "unitig-triangle": Workload(
        build=unitig_triangle,
        step_override=None,
        min_rounds=96,  # enough samples for the uniformity check to bite
        census_core=BIDIRECTED_TRIANGLE,
        # No vertex needs a gadget, so of the eps budget only the walk's
        # eps/2 applies.
        uniformity_tv=EPS / 2,
    ),
}


def make_instance(workload: str, seed: int) -> Instance:
    return WORKLOADS[workload].build(random.Random(f"{workload}/graph/{seed}"))


def sample_seeds(workload: str, seed: int):
    """Endless stream of SampleConfig seeds for one run."""
    rnd = random.Random(f"{workload}/sampler/{seed}")
    while True:
        yield rnd.getrandbits(63)
