import pytest

from conftest import bidirected_triangle, double_pair, loop_star, two_loops
from tourwalk.multigraph import DirectedMultigraph, hierholzer_tour
from tourwalk.oracle import empirical_tv, enumerate_tours
from tourwalk.rng import derived_seed
from tourwalk.sampler import SampleConfig, sample_tour


def test_config_rejects_bad_eps():
    with pytest.raises(ValueError):
        SampleConfig(eps=0.0, seed=1)
    with pytest.raises(ValueError):
        SampleConfig(eps=1.0, seed=1)


def test_directed_cycle_special_case():
    g = DirectedMultigraph(5, [(i, (i + 1) % 5) for i in range(5)])
    report = sample_tour(g, SampleConfig(eps=0.1, seed=3))
    assert report.steps == 0
    assert report.tour == hierholzer_tour(g)


def test_two_loop_special_case():
    report = sample_tour(two_loops(), SampleConfig(eps=0.1, seed=3))
    assert report.steps == 0
    assert report.tour.arcs == (0, 1)


def test_rejects_non_eulerian():
    with pytest.raises(ValueError, match="not Eulerian"):
        sample_tour(DirectedMultigraph(2, [(0, 1)]), SampleConfig(eps=0.1, seed=0))


def test_determinism():
    g = bidirected_triangle()
    cfg = SampleConfig(eps=0.2, seed=42)
    r1 = sample_tour(g, cfg)
    r2 = sample_tour(g, cfg)
    assert r1.tour == r2.tour
    assert r1.steps == r2.steps
    assert r1.expanded_arcs == r2.expanded_arcs


def test_output_always_in_census_small():
    g = bidirected_triangle()
    census = enumerate_tours(g).index()
    for i in range(20):
        rep = sample_tour(g, SampleConfig(eps=0.3, seed=derived_seed(9, i)))
        assert rep.tour in census


def test_double_pair_distribution_quick():
    g = double_pair()
    census = enumerate_tours(g)
    samples = [
        sample_tour(g, SampleConfig(eps=0.1, seed=derived_seed(5, i))).tour
        for i in range(3000)
    ]
    assert empirical_tv(samples, census) <= 0.05 + 3 * (2 / 3000) ** 0.5


def test_gadget_path_samples_in_census():
    g = loop_star(3)
    census = enumerate_tours(g).index()
    rep = sample_tour(
        g, SampleConfig(eps=0.2, seed=11, step_override=500)
    )
    assert rep.tour in census
    assert rep.expanded_arcs > g.m
    assert rep.eta_total <= 0.2 / 16 + 1e-12
    assert rep.steps == 500


def test_eta_budget_recorded():
    g = loop_star(4)
    rep = sample_tour(g, SampleConfig(eps=0.4, seed=2, step_override=50))
    assert rep.eta_total == pytest.approx(0.4 / (16 * g.m))


def test_malformed_expansion_is_internal_fault(malformed_expansion):
    with pytest.raises(AssertionError, match="not 2-in/2-out and Eulerian"):
        sample_tour(bidirected_triangle(), SampleConfig(eps=0.1, seed=5))


def test_report_json_roundtrip():
    import json

    rep = sample_tour(bidirected_triangle(), SampleConfig(eps=0.2, seed=0))
    payload = json.loads(json.dumps(rep.to_json_dict()))
    assert payload["steps"] == rep.steps
    assert payload["tour"] == list(rep.tour.arcs)
    walk = payload["walk"]
    assert walk["steps"] == rep.steps > 0
    assert 0.0 <= walk["self_loop_fraction"] <= 1.0
    assert walk["mean_crossings"] >= 0.0
    assert walk["validations"] >= 1
    assert walk["store"] == "flat"
    assert walk == {
        "steps": rep.walk.steps,
        "self_loop_fraction": rep.walk.self_loop_fraction,
        "mean_crossings": rep.walk.mean_crossings,
        "validations": rep.walk.validations,
        "store": rep.walk.store,
    }


def test_store_kind_follows_flat_max_m(monkeypatch):
    from tourwalk import sampler

    g = bidirected_triangle()
    cfg = SampleConfig(eps=0.2, seed=0)
    assert sample_tour(g, cfg).walk.store == "flat"
    monkeypatch.setattr(sampler, "FLAT_MAX_M", g.m - 1)
    rep = sample_tour(g, cfg)
    assert rep.walk.store == "chunks"
    assert rep.tour in enumerate_tours(g).index()
    assert sample_tour(two_loops(), cfg).walk.store is None
