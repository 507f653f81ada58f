import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tourwalk import sampler
from tourwalk.multigraph import DirectedMultigraph


def three_cycle() -> DirectedMultigraph:
    return DirectedMultigraph(3, [(0, 1), (1, 2), (2, 0)])


def two_loops() -> DirectedMultigraph:
    return DirectedMultigraph(1, [(0, 0), (0, 0)])


def double_pair() -> DirectedMultigraph:
    """u <-> v with doubled arcs: e0:u->v, e1:v->u, e2:u->v, e3:v->u."""
    return DirectedMultigraph(2, [(0, 1), (1, 0), (0, 1), (1, 0)])


def bidirected_triangle() -> DirectedMultigraph:
    return DirectedMultigraph(3, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2)])


def loop_star(k: int = 3) -> DirectedMultigraph:
    """k spokes 0 <-> i; suppression leaves k loops at the hub."""
    arcs = []
    for i in range(1, k + 1):
        arcs.append((0, i))
        arcs.append((i, 0))
    return DirectedMultigraph(k + 1, arcs)


def subdivide(g: DirectedMultigraph, arc: int, times: int = 1) -> DirectedMultigraph:
    """Replace one arc by a path through fresh degree-one vertices."""
    arcs = [(int(g.tails[e]), int(g.heads[e])) for e in range(g.m)]
    t, h = arcs[arc]
    cur = t
    chain = []
    for k in range(times):
        chain.append((cur, g.n + k))
        cur = g.n + k
    chain.append((cur, h))
    arcs = arcs[:arc] + arcs[arc + 1 :] + chain
    return DirectedMultigraph(g.n + times, arcs)


@pytest.fixture()
def malformed_expansion(monkeypatch):
    """Make the sampler's expansion drop one arc, so it is no longer Eulerian."""
    real = sampler.expand_graph

    def broken(base, **kwargs):
        emap = real(base, **kwargs)
        star = emap.star
        crippled = DirectedMultigraph(star.n, [star.arc(e) for e in range(star.m - 1)])
        return dataclasses.replace(emap, star=crippled)

    monkeypatch.setattr(sampler, "expand_graph", broken)
