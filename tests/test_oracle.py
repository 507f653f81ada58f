import pytest

from conftest import bidirected_triangle, three_cycle, two_loops
from tourwalk.generators import gen_random_eulerian
from tourwalk.multigraph import DirectedMultigraph, Tour
from tourwalk.oracle import (
    TourCensus,
    best_count,
    empirical_tv,
    enumerate_tours,
    transition_systems,
)


def test_enumerate_three_cycle():
    assert enumerate_tours(three_cycle()).count == 1


def test_enumerate_two_loops_one_of_two_systems():
    g = two_loops()
    assert len(list(transition_systems(g))) == 2
    assert enumerate_tours(g).count == 1


def test_enumerate_bidirected_triangle():
    g = bidirected_triangle()
    assert len(list(transition_systems(g))) == 8
    assert enumerate_tours(g).count == 3


def test_enumeration_budget_guard():
    g = gen_random_eulerian(6, 4, seed=1)  # product of 4!^6 local orders
    with pytest.raises(ValueError, match="budget"):
        enumerate_tours(g)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_best_count_directed_cycle_is_one(n):
    g = DirectedMultigraph(n, [(i, (i + 1) % n) for i in range(n)])
    assert best_count(g) == 1


def test_best_count_triangle():
    assert best_count(bidirected_triangle()) == 3


def test_best_count_zero_with_a_sink():
    g = DirectedMultigraph(3, [(0, 1), (1, 0), (0, 2)])  # vertex 2 has no out-arc
    assert best_count(g) == 0


def test_best_count_matches_enumeration_on_random_graphs():
    made = 0
    seed = 100
    while made < 30:
        seed += 1
        n = 2 + seed % 4
        r = 1 + seed % 2
        try:
            g = gen_random_eulerian(n, r, seed)
        except RuntimeError:
            continue
        if g.m > 10:
            continue
        made += 1
        assert enumerate_tours(g).count == best_count(g)


def test_empirical_tv_all_identical_over_census_of_two():
    g = bidirected_triangle()
    census = TourCensus(enumerate_tours(g).tours[:2])
    samples = [census.tours[0]] * 50
    assert empirical_tv(samples, census) == pytest.approx(0.5)


def test_empirical_tv_balanced_is_zero():
    census = enumerate_tours(bidirected_triangle())
    samples = list(census.tours) * 4
    assert empirical_tv(samples, census) == 0.0


def test_empirical_tv_rejects_out_of_census_sample():
    census = enumerate_tours(three_cycle())
    with pytest.raises(ValueError, match="outside census"):
        empirical_tv([Tour.canonical([0, 2, 1])], census)
