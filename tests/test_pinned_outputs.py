"""Seeded outputs pinned to literal values.

The sampler walks both pinned graphs on a one-chunk store, which draws
exactly as ``step_naive`` does; ``test_pinned_walks_replay_step_naive``
derives the same figures from a ``WalkState`` walk on the sampler's random
stream and start tour.  The debug-walk figures, and the gadget figures of a
sampler held to the chunked store (as for tours above ``FLAT_MAX_M``), come
from the chunked store, as first produced on a randomized sequence tree
before its replacement by a flat chunk order: chunk identifier allocation,
pair-list order and the class-A draw decide which tour a seed gives there,
so a change to any of them shows up here first.
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
from tourwalk.walk import WalkState, run_walk, step_naive

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


@pytest.fixture()
def start_tours(monkeypatch):
    """Record the (graph, tour) of every Hierholzer call inside the sampler."""
    caught = []
    real = sampler_mod.hierholzer_tour

    def spy(g):
        out = real(g)
        caught.append((g, out))
        return out

    monkeypatch.setattr(sampler_mod, "hierholzer_tour", spy)
    return caught


GADGET_PINS = [
    (1, [0, 4, 1, 3, 5, 2],
     "aa6b7e967653c4cbafdc4c17c7689dadea64b7dca7a98576b88e5fe37f7e10e8", 30, 476082),
    (2, [0, 4, 2, 1, 3, 5],
     "2124ba4aeab0e6b35920e67bae48c1370c89db2ac265cdff48dd725dba0bddc9", 17, 475616),
    (3, [0, 4, 1, 3, 5, 2],
     "c2b85e652e1ed0a7ba7a6ea4fb18784dfa4bab2650fd9c4fdf840f4c3642447f", 33, 475877),
]
REGULAR2_DIGEST = "42d1d72e4bf1ed761ead76a0c33f85018f66fccb7450b41b0aff54156fa61a14"
REGULAR2_STATS = (0, 337065)


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
def test_pinned_gadget_6c(walk_outputs, monkeypatch, seed, tour, walk_digest, self_loops,
                          crossing_sum):
    """The sampler on the chunked store (default sqrt(M) chunks)."""
    monkeypatch.setattr(sampler_mod, "FLAT_MAX_M", 0)
    rep = sample_tour(GADGET_6C, SampleConfig(eps=0.1, seed=seed, c_mix=0.2))
    assert (rep.steps, rep.expanded_arcs) == (3984, 360)
    assert list(rep.tour.arcs) == tour
    (star_tour, stats), = walk_outputs
    assert digest(star_tour.arcs) == walk_digest
    assert (stats.self_loops, stats.crossing_sum) == (self_loops, crossing_sum)
    assert stats.store == "chunks"


@pytest.mark.parametrize("seed, tour, walk_digest, self_loops, crossing_sum", GADGET_PINS)
def test_pinned_gadget_6c_flat(walk_outputs, seed, tour, walk_digest, self_loops, crossing_sum):
    rep = sample_tour(GADGET_6C, SampleConfig(eps=0.1, seed=seed, c_mix=0.2))
    assert (rep.steps, rep.expanded_arcs) == (3984, 360)
    assert list(rep.tour.arcs) == tour
    (star_tour, stats), = walk_outputs
    assert digest(star_tour.arcs) == walk_digest
    assert (stats.self_loops, stats.crossing_sum) == (self_loops, crossing_sum)
    assert stats.store == "flat"


def test_pinned_regular2_10k(walk_outputs):
    g = gen_regular2(5000, seed=4)
    rep = sample_tour(g, SampleConfig(eps=0.1, seed=9, step_override=200))
    assert digest(rep.tour.arcs) == REGULAR2_DIGEST
    (star_tour, stats), = walk_outputs
    assert digest(star_tour.arcs) == REGULAR2_DIGEST
    assert (stats.self_loops, stats.crossing_sum) == REGULAR2_STATS
    assert stats.store == "flat"


def naive_replay(seed: int, star, start, steps: int):
    """The sampler's walk redone by step_naive: its start tour, and the
    stream it draws as rng.spawn(3) after the expansion's and the store's."""
    rng = SplitMix64(seed)
    rng.spawn(1)
    rng.spawn(2)
    walk_rng = rng.spawn(3)
    state = WalkState(star, start)
    self_loops = crossing_sum = 0
    for _ in range(steps):
        out = step_naive(state, walk_rng)
        self_loops += out.self_loop
        crossing_sum += out.crossings
    return digest(state.tour().arcs), self_loops, crossing_sum


@pytest.mark.parametrize(
    "seed, graph, cfg, expect",
    [(seed, "gadget", {"c_mix": 0.2}, pin) for seed, _, *pin in GADGET_PINS]
    + [(9, "regular2", {"step_override": 200}, [REGULAR2_DIGEST, *REGULAR2_STATS])],
)
def test_pinned_walks_replay_step_naive(start_tours, seed, graph, cfg, expect):
    g = GADGET_6C if graph == "gadget" else gen_regular2(5000, seed=4)
    rep = sample_tour(g, SampleConfig(eps=0.1, seed=seed, **cfg))
    (star, start), = start_tours
    assert list(naive_replay(seed, star, start, rep.steps)) == expect


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
