"""Tests of the benchmark's own code: every check must fail on bad output.

    python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from spans import Recording, layer_metrics  # noqa: E402

from tourwalk import (  # noqa: E402
    DirectedMultigraph,
    SampleConfig,
    chordstore,
    enumerate_tours,
    multigraph,
    sampler,
    switchnet,
    walk,
)

TW = SimpleNamespace(
    sampler=sampler, multigraph=multigraph, switchnet=switchnet, walk=walk, chordstore=chordstore
)
ARCS = list(inputs.GADGET6C_ARCS)
GOOD = [0, 4, 1, 3, 5, 2]  # a tour of the 6c graph


# -- tour validator -------------------------------------------------------------------


def test_tour_validator_accepts_a_tour():
    assert checks.tour_defect(ARCS, GOOD) is None
    assert checks.tour_defect(ARCS, GOOD[2:] + GOOD[:2]) is None


@pytest.mark.parametrize(
    "tour, words",
    [
        ([0, 4, 1, 3, 5], "has 5 arcs"),
        ([0, 4, 1, 3, 5, 5], "appears twice"),
        ([0, 4, 1, 3, 5, 6], "not an arc"),
        ([0, 1, 4, 3, 5, 2], "does not leave"),
    ],
)
def test_tour_validator_rejects_corrupted_tours(tour, words):
    assert words in checks.tour_defect(ARCS, tour)


def test_tour_validator_rejects_an_open_trail():
    assert checks.tour_defect([(0, 1), (1, 2)], [0, 1]) == "the tour does not close"


# -- census and uniformity ------------------------------------------------------------


def test_census_size_must_match_best():
    assert checks.census_size_defect(2, 2) is None
    assert "BEST counts 3" in checks.census_size_defect(2, 3)


CENSUS = [(0, 1, 2), (0, 2, 1), (0, 1, 3)]  # stand-ins for three tours


def test_uniformity_passes_balanced_samples():
    samples = CENSUS * 32
    assert checks.uniformity_defect(samples, CENSUS, 0.05) is None


def test_uniformity_rejects_a_sampler_that_misses_a_tour():
    n = inputs.WORKLOADS["unitig-triangle"].min_rounds
    assert checks.tv_bound(n, 3, 0.05) < 1 / 3
    samples = [CENSUS[i % 2] for i in range(n)]  # never the third tour
    assert "exceeds" in checks.uniformity_defect(samples, CENSUS, 0.05)


def test_uniformity_rejects_samples_outside_the_census():
    samples = CENSUS * 32 + [(9, 9, 9)]
    assert "outside the census" in checks.uniformity_defect(samples, CENSUS, 0.05)


# -- flip replay, on a real traced call -------------------------------------------------


@pytest.fixture(scope="module")
def traced_triangle():
    g = DirectedMultigraph(3, inputs.BIDIRECTED_TRIANGLE)
    rec = Recording(TW)
    with rec:
        report = sampler.sample_tour(g, SampleConfig(eps=0.1, seed=5))
    return rec, report


def _flip(rec, pairs, queries=None, steps=None):
    star, start = rec.captured["start"]
    calls = rec.by_name()["chordstore.ChordStore.crossing_query"]["calls"]
    return checks.flip_defect(
        multigraph,
        star,
        start,
        pairs,
        rec.captured["final"],
        queries=calls if queries is None else queries,
        steps=calls if steps is None else steps,
    )


def test_flip_replay_matches_the_walk(traced_triangle):
    rec, report = traced_triangle
    assert rec.captured["pairs"]
    assert _flip(rec, rec.captured["pairs"], steps=report.steps) is None


def test_flip_replay_rejects_a_wrong_flip_list(traced_triangle):
    rec, _ = traced_triangle
    pairs = rec.captured["pairs"]
    assert "do not turn" in _flip(rec, pairs[:-1])
    assert "do not turn" in _flip(rec, pairs + [(0, 1)])


def test_flip_replay_rejects_a_query_count_mismatch(traced_triangle):
    rec, report = traced_triangle
    assert "crossing queries" in _flip(rec, rec.captured["pairs"], steps=report.steps + 1)


def test_recording_restores_the_program_and_reports_layers(traced_triangle):
    rec, report = traced_triangle
    for fn in (
        sampler.run_walk,
        sampler.ChordStore,
        walk.step_fast,
        multigraph.Tour.validate_in,
        chordstore.ChordStore.crossing_query,
    ):
        assert not hasattr(fn, "__wrapped__")
    metrics = layer_metrics(rec, report.steps)
    assert set(metrics) | {"multigraph.parse_s", "trace.overhead_s", "trace.overhead_share"} == set(
        run.LAYER_UNITS
    )
    assert metrics["walk.steps"] == report.steps
    assert metrics["switchnet.expanded_arcs"] == 6
    assert metrics["chordstore.four_cuts"] == len(rec.captured["pairs"])


# -- inputs and the whole evaluation ----------------------------------------------------


def test_inputs_follow_the_seed():
    a = inputs.make_instance("gadget6c", 3)
    assert a == inputs.make_instance("gadget6c", 3)
    assert any(inputs.make_instance("gadget6c", s) != a for s in range(4, 8))
    small = inputs.regular2(inputs.random.Random(1), n=50)
    g = DirectedMultigraph(small.n, small.arcs)
    assert g.is_degree_two() and multigraph.validate_eulerian(g)


def test_unitig_instance_keeps_three_tours():
    inst = inputs.unitig_triangle(inputs.random.Random(2), path_arcs=4)
    assert len(inst.arcs) == 24
    assert enumerate_tours(DirectedMultigraph(inst.n, inst.arcs)).count == 3


def _fake_result(inst, tours, calls):
    return {"instance": inst, "tours": tours, "calls": calls, "setup_s": 0.1, "peak_rss_mb": 1.0}


def _call(tour, seed=0):
    return {"seed": seed, "traced": False, "error": None, "seconds": 1.0, "tour": tour}


def test_evaluate_counts_a_corrupted_tour_as_failed():
    inst = inputs.Instance(4, ARCS)
    result = _fake_result(inst, [GOOD, [0, 1, 4, 3, 5, 2]], [_call(0), _call(1)])
    correct, attempted, failed, metrics, notes = run.evaluate("gadget6c", result, traced=False)
    assert (correct, attempted, failed) == (True, 2, 1)
    assert set(metrics) == set(run.END_TO_END_UNITS)


def test_evaluate_rejects_a_biased_unitig_sampler():
    inst = inputs.unitig_triangle(inputs.random.Random(2), path_arcs=4)
    census = [list(t.arcs) for t in enumerate_tours(DirectedMultigraph(inst.n, inst.arcs)).tours]
    fair = [_call(i % 3, i) for i in range(96)]
    assert run.evaluate("unitig-triangle", _fake_result(inst, census, fair), False)[0]
    biased = [_call(i % 2, i) for i in range(96)]
    correct, _, failed, _, notes = run.evaluate(
        "unitig-triangle", _fake_result(inst, census, biased), False
    )
    assert not correct and failed == 0
    assert any("exceeds" in n for n in notes)


def test_evaluate_rejects_a_traced_call_that_changes_the_tour():
    inst = inputs.Instance(4, ARCS)
    other = [0, 4, 2, 1, 3, 5]  # the 6c graph's second tour
    untraced, traced = _call(0), dict(_call(1), traced=True)
    result = _fake_result(inst, [GOOD, other], [untraced, traced])
    result.update(parse_s=0.1, layers={k: 1.0 for k in run.LAYER_UNITS})
    correct, attempted, failed, metrics, notes = run.evaluate("gadget6c", result, traced=True)
    assert (correct, attempted, failed) == (False, 2, 0)
    assert set(metrics) == set(run.LAYER_UNITS)
    traced["tour"] = 0
    assert run.evaluate("gadget6c", result, traced=True)[0]
