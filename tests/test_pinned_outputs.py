"""Seeded outputs pinned to literal values.

Every expected figure below was produced by the store built on a randomized
sequence tree, before its replacement by a flat chunk order.  Chunk
identifier allocation, pair-list order and the class-A draw decide which tour
a seed gives, so a change to any of them shows up here first.
"""

import hashlib
import json

import pytest

from tourwalk import sampler as sampler_mod
from tourwalk.chordstore import ChordStore
from tourwalk.generators import gen_regular2
from tourwalk.multigraph import DirectedMultigraph, hierholzer_tour
from tourwalk.rng import SplitMix64
from tourwalk.sampler import SampleConfig, sample_tour
from tourwalk.walk import run_walk

# the acceptance suite's 6c graph: degrees (3, 1, 1, 1), 2 tours, M = 360
GADGET_6C = DirectedMultigraph(4, [(0, 2), (0, 1), (0, 0), (1, 3), (2, 0), (3, 0)])


def digest(arcs) -> str:
    return hashlib.sha256(json.dumps([int(a) for a in arcs]).encode()).hexdigest()


@pytest.fixture()
def walk_outputs(monkeypatch):
    """Record what every run_walk call inside the sampler returns."""
    caught = []
    real = sampler_mod.run_walk

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        caught.append(out)
        return out

    monkeypatch.setattr(sampler_mod, "run_walk", spy)
    return caught


@pytest.mark.parametrize(
    "seed, tour, walk_digest, self_loops, crossing_sum",
    [
        (1, [0, 4, 1, 3, 5, 2],
         "7573cbc2ad9f531da9360f78809ebb23cb3b878ea8c6a3cbf574fd0e5d2ca560", 30, 475894),
        (2, [0, 4, 2, 1, 3, 5],
         "6ff6e3d5a639283ef9c9c7fa573436e90bb316db23ef81db86960df09f0488a7", 17, 474813),
        (3, [0, 4, 2, 1, 3, 5],
         "f2b48995564ddaca3a9f27eb185b03683f55363eaa5d1185c135ec52ff54d1a4", 32, 475077),
    ],
)
def test_pinned_gadget_6c(walk_outputs, seed, tour, walk_digest, self_loops, crossing_sum):
    rep = sample_tour(GADGET_6C, SampleConfig(eps=0.1, seed=seed, c_mix=0.2))
    assert (rep.steps, rep.expanded_arcs) == (3984, 360)
    assert list(rep.tour.arcs) == tour
    (star_tour, stats), = walk_outputs
    assert digest(star_tour.arcs) == walk_digest
    assert (stats.self_loops, stats.crossing_sum) == (self_loops, crossing_sum)


def test_pinned_regular2_10k(walk_outputs):
    g = gen_regular2(5000, seed=4)
    rep = sample_tour(g, SampleConfig(eps=0.1, seed=9, step_override=200))
    expect = "cfca9137b70ca2ca0b2745a712ba36007e6a177b6ce90efcbf6021822be6e842"
    assert digest(rep.tour.arcs) == expect
    (star_tour, stats), = walk_outputs
    assert digest(star_tour.arcs) == expect
    assert (stats.self_loops, stats.crossing_sum) == (0, 345509)


@pytest.mark.parametrize(
    "n, chunk_size, self_loops, crossing_sum, walk_digest",
    [
        (180, None, 38, 57497,
         "f94bb63fbc6b9546ae01d76e5518eeb512acc14ff1a5279aed681bad555962cb"),
        (256, 7, 42, 83835,
         "c2d55e8b8d23f1c2b7fac0c2f6c362bf3b4ceb89a864524baeca51f32e710119"),
    ],
)
def test_pinned_debug_walk(n, chunk_size, self_loops, crossing_sum, walk_digest):
    """1,000 validated steps at M = 360 (default B) and M = 512 with B = 7."""
    g = gen_regular2(n, seed=6)
    tour = hierholzer_tour(g)
    store = ChordStore(tour.arcs, g.heads, chunk_size=chunk_size)
    out, stats = run_walk(store, 1000, SplitMix64(8), debug_graph=g)
    assert stats.validations == 1000
    assert (stats.self_loops, stats.crossing_sum) == (self_loops, crossing_sum)
    assert digest(out.arcs) == walk_digest
