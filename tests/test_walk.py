import math

import numpy as np
import pytest

from conftest import bidirected_triangle, double_pair
from tourwalk import skewlab as lab
from tourwalk.chords import (
    chords_from_tour,
    diagram_from_pairs,
    graph_from_diagram,
    signed_interlacement,
)
from tourwalk.chordstore import ChordStore
from tourwalk.generators import gen_regular2
from tourwalk.multigraph import (
    Tour,
    TransitionSystem,
    cycle_count,
    flip_vertices,
    hierholzer_tour,
)
from tourwalk.oracle import enumerate_tours
from tourwalk.rng import SplitMix64
from tourwalk.verify import degree_two_zoo, exact_walk_kernel
from tourwalk.walk import (
    WalkState,
    mixing_steps,
    run_walk,
    step_fast,
    step_naive,
)


def make_store(g, tour):
    return ChordStore(tour.arcs, g.heads)


def test_crossing_set_double_pair():
    g = double_pair()
    state = WalkState(g, hierholzer_tour(g))
    assert state.crossing_vertices(0) == [1]
    assert state.crossing_vertices(1) == [0]


def test_repair_choice_is_half_half_on_double_pair():
    g = double_pair()
    state = WalkState(g, hierholzer_tour(g))
    rng = SplitMix64(5)
    loops = 0
    n = 20000
    for _ in range(n):
        out = step_naive(state, rng)
        assert out.crossings == 1
        loops += out.self_loop
    assert abs(loops / n - 0.5) < 0.015


def test_self_loop_leaves_tour_unchanged():
    g = double_pair()
    state = WalkState(g, hierholzer_tour(g))
    before = state.tour()
    rng = SplitMix64(0)
    while True:
        out = step_naive(state, rng)
        if out.self_loop:
            break
        before = state.tour()
    assert state.tour() == before


def test_nested_chords_do_not_count_as_crossings():
    cd = diagram_from_pairs({0: (0, 7), 1: (1, 6), 2: (2, 3), 3: (4, 5)})
    g, tour = graph_from_diagram(cd)
    state = WalkState(g, tour)
    assert state.crossing_vertices(0) == []
    # flipping a nested non-crossing pair splits into three circuits
    ref = TransitionSystem.from_tour(tour)
    k, _ = cycle_count(g, flip_vertices(g, ref, [0, 1]))
    assert k == 3


def test_fast_self_loop_leaves_store_untouched():
    g = double_pair()
    tour = hierholzer_tour(g)
    store = make_store(g, tour)
    rng = SplitMix64(1)
    gen = store.generation
    while True:
        out = step_fast(store, rng)
        if out.self_loop:
            break
        gen = store.generation
    assert store.generation == gen


def test_paired_trajectories_identical():
    g = gen_regular2(48, seed=6)
    tour = hierholzer_tour(g)
    state = WalkState(g, tour)
    store = make_store(g, tour)
    r1, r2 = SplitMix64(33), SplitMix64(33)
    for i in range(1500):
        o1 = step_naive(state, r1)
        o2 = step_fast(store, r2, mirror=True)
        assert (o1.x, o1.y, o1.crossings) == (o2.x, o2.y, o2.crossings)
    assert state.tour() == store.tour()
    assert store.validate() == (True, "")


@pytest.mark.parametrize(
    "graph, steps",
    [(double_pair, 2000), (bidirected_triangle, 2000),
     (lambda: gen_regular2(180, seed=6), 2000), (lambda: gen_regular2(512, seed=11), 1000)],
    ids=["M4", "M6", "M360", "M1024"],
)
def test_flat_store_default_draw_matches_step_naive(graph, steps):
    """A one-chunk store lists every crossing in vertex-id order, so even the
    default (not mirrored) repair draw follows step_naive step for step."""
    g = graph()
    tour = hierholzer_tour(g)
    state = WalkState(g, tour)
    store = ChordStore(tour.arcs, g.heads, chunk_size=g.m)
    assert store.flat
    r1, r2 = SplitMix64(91), SplitMix64(91)
    accepted = 0
    for i in range(steps):
        o1 = step_naive(state, r1)
        o2 = step_fast(store, r2)
        assert (o1.x, o1.y, o1.crossings) == (o2.x, o2.y, o2.crossings), i
        accepted += not o1.self_loop
    assert accepted > steps // 4
    assert state.tour() == store.tour()
    assert store.validate() == (True, "")


def test_flat_store_debug_walk_validates_every_step():
    g = gen_regular2(180, seed=4)
    store = ChordStore(hierholzer_tour(g).arcs, g.heads, chunk_size=g.m)
    out, stats = run_walk(store, 300, SplitMix64(3), debug_graph=g)
    assert stats.store == "flat"
    assert stats.validations == 300
    assert stats.self_loops < 300
    out.validate_in(g)


def test_one_step_distribution_equality_exhaustive():
    """Candidate sets and their uniform law agree between implementations on
    every tour of every small graph."""
    for g in degree_two_zoo(max_arcs=10, count=12, seed=5):
        census = enumerate_tours(g)
        for tour in census.tours:
            state = WalkState(g, tour)
            store = make_store(g, tour)
            for x in state.vertices:
                naive = state.crossing_vertices(x)
                res = store.crossing_query(x)
                assert res.w_total == len(naive)
                assert store.crossing_vertices(res) == naive


def test_walk_kernel_matches_skew_determinantal_kernel():
    for g in degree_two_zoo(max_arcs=12, count=10, seed=3):
        census, p_walk = exact_walk_kernel(g)
        ref = hierholzer_tour(g)
        cd = chords_from_tour(g, ref)
        a = signed_interlacement(cd).astype(float)
        kernel = lab.exact_kernel(lab.weight_table(a))
        assert kernel.size == census.count
        # spectra agree even without aligning state order
        ev_walk = np.sort(np.linalg.eigvals(p_walk).real)
        ev_kernel = np.sort(np.linalg.eigvals(kernel.p).real)
        assert np.abs(ev_walk - ev_kernel).max() <= 1e-9


def test_trajectory_reversibility():
    """Flipping x then y from T has the same probability as y then x from
    the resulting tour: both repair sets share the odd intermediate state."""
    for g in degree_two_zoo(max_arcs=10, count=8, seed=9):
        census = enumerate_tours(g)
        for tour in census.tours:
            state = WalkState(g, tour)
            for x in state.vertices:
                for y in state.crossing_vertices(x):
                    flipped = flip_vertices(
                        g, TransitionSystem.from_tour(tour), [x, y]
                    )
                    k, cycles = cycle_count(g, flipped)
                    assert k == 1
                    other = WalkState(g, Tour.canonical(cycles[0]))
                    assert len(other.crossing_vertices(y)) == len(
                        state.crossing_vertices(x)
                    )


def test_mixing_steps_examples():
    assert mixing_steps(1, 0.5) == 0
    assert mixing_steps(2, 0.5, c_mix=4.0) == 88
    ln2 = math.log(2.0)
    by_hand = math.ceil(4.0 * 2 * (ln2 + 2.0) * (2.0 + 2.0 * ln2 + ln2))
    assert mixing_steps(2, 0.5) == by_hand
    for n in (2, 4, 8, 16):
        assert mixing_steps(2 * n, 0.25) > 2 * mixing_steps(n, 0.25)
    with pytest.raises(ValueError):
        mixing_steps(4, 1.5)


def test_run_walk_zero_steps_returns_initial():
    g = double_pair()
    tour = hierholzer_tour(g)
    store = make_store(g, tour)
    out, stats = run_walk(store, 0, SplitMix64(0))
    assert out == tour and stats.steps == 0


def test_run_walk_occupation_double_pair():
    g = double_pair()
    tour = hierholzer_tour(g)
    store = make_store(g, tour)
    census = enumerate_tours(g)
    pos = census.index()
    rng = SplitMix64(77)
    visits = [0, 0]
    steps = 100_000
    for _ in range(steps):
        step_fast(store, rng)
        visits[pos[store.tour()]] += 1
    tv = sum(abs(v / steps - 0.5) for v in visits) / 2
    assert tv <= 0.02


def test_run_walk_occupation_triangle():
    g = bidirected_triangle()
    tour = hierholzer_tour(g)
    store = make_store(g, tour)
    census = enumerate_tours(g)
    assert census.count == 3
    pos = census.index()
    rng = SplitMix64(13)
    visits = [0] * 3
    steps = 60_000
    for _ in range(steps):
        step_fast(store, rng)
        visits[pos[store.tour()]] += 1
    tv = sum(abs(v / steps - 1 / 3) for v in visits) / 2
    assert tv <= 0.02


def test_run_walk_stats_and_debug_validation():
    g = gen_regular2(16, seed=4)
    tour = hierholzer_tour(g)
    store = make_store(g, tour)
    out, stats = run_walk(store, 500, SplitMix64(3), debug_graph=g)
    assert stats.steps == 500
    assert stats.validations == 500
    assert 0.0 < stats.self_loop_fraction < 1.0
    assert stats.mean_crossings > 0.0
    out.validate_in(g)


def test_run_walk_debug_graph_catches_a_broken_tour():
    g = gen_regular2(16, seed=4)
    store = make_store(g, hierholzer_tour(g))
    # the validator never reads the arc of a position, so it misses this
    store.occ_arc[0], store.occ_arc[1] = store.occ_arc[1], store.occ_arc[0]
    assert store.validate() == (True, "")
    with pytest.raises(ValueError):
        run_walk(store, 10, SplitMix64(3), debug_graph=g)
