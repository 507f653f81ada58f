"""Named verification suites behind the `verify` command and acceptance tests.

Each suite returns a list of JSON-ready records {check, n, seed, value, pass}
plus an overall flag.  The checks pair fast-path computations with their
independent oracles: exhaustive enumeration, naive scans, eigensolvers, and
Monte-Carlo frequencies.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy import stats

from . import skewlab as lab
from .chords import (
    chords_from_tour,
    circuit_count_from_flip,
    diagram_from_pairs,
    feasible,
    graph_from_diagram,
    principal_det_int,
    signed_interlacement,
)
from .chordstore import ChordStore
from .generators import gen_regular2
from .multigraph import (
    DirectedMultigraph,
    TransitionSystem,
    Tour,
    cycle_count,
    flip_vertices,
    flipped_set,
    hierholzer_tour,
)
from .oracle import best_count, enumerate_tours
from .rng import SplitMix64
from .switchnet import (
    audit_pointwise,
    build_network,
    exact_distribution,
    expand_graph,
    project_transition,
    random_star_transition,
)
from .walk import WalkState, step_fast, step_naive


def _rec(check: str, value, ok: bool, n: int | None = None, seed: int | None = None):
    return {
        "check": check,
        "n": n,
        "seed": seed,
        "value": float(value) if isinstance(value, (int, float, np.floating)) else value,
        "pass": bool(ok),
    }


# -- small degree-two graph zoo ---------------------------------------------------


def degree_two_zoo(max_arcs: int = 12, count: int = 50, seed: int = 0):
    """Assorted strongly connected 2-in/2-out graphs with at most max_arcs arcs."""
    graphs = [
        DirectedMultigraph(1, [(0, 0), (0, 0)]),
        DirectedMultigraph(2, [(0, 1), (1, 0), (0, 1), (1, 0)]),
        graph_from_diagram(diagram_from_pairs({0: (0, 3), 1: (1, 2)}))[0],
        graph_from_diagram(
            diagram_from_pairs({0: (0, 5), 1: (1, 4), 2: (2, 3)})
        )[0],
        graph_from_diagram(
            diagram_from_pairs({0: (0, 2), 1: (1, 3), 2: (4, 6), 3: (5, 7)})
        )[0],
    ]
    rng = SplitMix64(seed)
    attempt = 0
    while len(graphs) < count:
        attempt += 1
        n = 2 + rng.randrange(max_arcs // 2 - 1)
        try:
            g = gen_regular2(n, rng.next_u64())
        except RuntimeError:
            continue
        if g.m <= max_arcs:
            graphs.append(g)
        if attempt > 40 * count:
            break
    return graphs


def exact_walk_kernel(g: DirectedMultigraph):
    """Transition kernel of the naive walk over the tour census, by direct
    enumeration of every (first flip, repair) branch."""
    census = enumerate_tours(g)
    pos = census.index()
    n_states = census.count
    p = np.zeros((n_states, n_states))
    nv = len(g.active_vertices())
    for i, tour in enumerate(census.tours):
        state = WalkState(g, tour)
        for x in state.vertices:
            crossings = state.crossing_vertices(x)
            w = len(crossings)
            p[i, i] += 1.0 / (nv * (w + 1))
            for y in crossings:
                flipped = flip_vertices(
                    g, TransitionSystem.from_tour(tour), [x, y]
                )
                k, cycles = cycle_count(g, flipped)
                if k != 1:
                    raise AssertionError("crossing repair did not give a tour")
                j = pos[Tour.canonical(cycles[0])]
                p[i, j] += 1.0 / (nv * (w + 1))
    return census, p


def suite_chain(max_arcs: int = 12, graphs: int = 50, seed: int = 0):
    """Walk kernel versus the skew-determinantal kernel, plus step equality."""
    records = []
    zoo = [g for g in degree_two_zoo(max_arcs, graphs, seed) if g.m <= max_arcs]
    for gi, g in enumerate(zoo):
        nv = len(g.active_vertices())
        census, p_walk = exact_walk_kernel(g)
        ref = hierholzer_tour(g)
        if nv >= 1:
            cd = chords_from_tour(g, ref)
            a_mat = signed_interlacement(cd).astype(float)
            table = lab.weight_table(a_mat)
            kernel = lab.exact_kernel(table)
            # align census tours with subset masks relative to the reference
            ref_ts = TransitionSystem.from_tour(ref)
            vorder = {v: k for k, v in enumerate(cd.vertices)}
            mask_of = {}
            for i, tour in enumerate(census.tours):
                s = flipped_set(g, ref_ts, TransitionSystem.from_tour(tour))
                mask_of[i] = sum(1 << vorder[v] for v in s)
            state_of_mask = {kernel.states[k]: k for k in range(kernel.size)}
            if set(mask_of.values()) != set(kernel.states):
                records.append(_rec("kernel_state_spaces", 0.0, False, nv, gi))
                continue
            worst = 0.0
            for i in range(census.count):
                for j in range(census.count):
                    ki = state_of_mask[mask_of[i]]
                    kj = state_of_mask[mask_of[j]]
                    worst = max(worst, abs(p_walk[i, j] - kernel.p[ki, kj]))
            records.append(_rec("kernel_agreement", worst, worst <= 1e-12, nv, gi))
            unif = np.full(census.count, 1.0 / census.count)
            stat = float(np.abs(unif @ p_walk - unif).max())
            records.append(_rec("kernel_stationarity", stat, stat <= 1e-9, nv, gi))
        # one-step exact-distribution equality: candidate sets must agree
        tour = census.tours[0]
        state = WalkState(g, tour)
        store = ChordStore(tour.arcs, g.heads)
        agree = True
        for x in state.vertices:
            naive = state.crossing_vertices(x)
            res = store.crossing_query(x)
            if store.crossing_vertices(res) != naive or res.w_total != len(naive):
                agree = False
        records.append(_rec("step_candidate_sets", 1.0 if agree else 0.0, agree, nv, gi))
    return records


def suite_chords(max_arcs: int = 12, graphs: int = 50, diagrams: int = 100, seed: int = 0):
    """Triple agreement of feasibility tests and unimodularity of signings."""
    records = []
    rng = SplitMix64(seed)
    for gi, g in enumerate(degree_two_zoo(max_arcs, graphs, seed)):
        tour = hierholzer_tour(g)
        cd = chords_from_tour(g, tour)
        a_mat = signed_interlacement(cd)
        ref_ts = TransitionSystem.from_tour(tour)
        k = len(cd.vertices)
        ok = True
        for bits in range(1 << k):
            subset = [i for i in range(k) if (bits >> i) & 1]
            det_feasible = feasible(cd, a_mat, subset)
            circuits = circuit_count_from_flip(cd, subset)
            ts = flip_vertices(g, ref_ts, [cd.vertices[i] for i in subset])
            direct, _ = cycle_count(g, ts)
            if direct != circuits or det_feasible != (direct == 1):
                ok = False
                break
        records.append(_rec("feasibility_triple_agreement", float(ok), ok, k, gi))
    # unimodularity over random diagrams, exhaustive subsets
    for di in range(diagrams):
        k = 2 + rng.randrange(9)  # up to 10 chords
        slots = list(range(2 * k))
        rng.shuffle(slots)
        pairs = {v: (slots[2 * v], slots[2 * v + 1]) for v in range(k)}
        cd = diagram_from_pairs(pairs)
        a_mat = signed_interlacement(cd)
        ok = True
        for bits in range(1 << k):
            subset = [i for i in range(k) if (bits >> i) & 1]
            det = principal_det_int(a_mat, subset)
            if det not in (0, 1):
                ok = False
                break
        records.append(_rec("principal_unimodularity", float(ok), ok, k, di))
        # tails invariance of every principal determinant
        base = [principal_det_int(a_mat, s) for s in _all_subsets(k)]
        inv_ok = True
        for _ in range(3):
            tails = [rng.randrange(2) for _ in range(k)]
            alt = signed_interlacement(cd, tails)
            if [principal_det_int(alt, s) for s in _all_subsets(k)] != base:
                inv_ok = False
        records.append(_rec("tails_invariance", float(inv_ok), inv_ok, k, di))
    return records


def _all_subsets(k: int):
    return [[i for i in range(k) if (bits >> i) & 1] for bits in range(1 << k)]


def suite_skewdet(n_max: int = 8, seeds: int = 20, seed0: int = 0, lsi_trials: int = 1000):
    """Spectral, excitation-basis, covering, and flat-LSI checks."""
    records = []
    for s in range(seeds):
        rng = SplitMix64(seed0 + 7919 * s)
        n = 2 + (s % (n_max - 1))
        a = lab.random_skew(n, rng)
        table = lab.weight_table(a)
        kernel = lab.exact_kernel(table)
        gap = lab.spectral_gap(kernel)
        records.append(_rec("spectral_gap_bound", gap - 2.0 / n, gap >= 2.0 / n - 1e-9, n, s))
        stat = float(np.abs(kernel.mu @ kernel.p - kernel.mu).max())
        records.append(_rec("stationarity", stat, stat <= 1e-9, n, s))
        floor = lab.kernel_psd_floor(kernel)
        records.append(_rec("kernel_psd", floor, floor >= -1e-9, n, s))
        basis = lab.excitation_basis(a)
        gram = float(np.abs(basis.xi @ basis.xi.T - np.eye(1 << n)).max())
        records.append(_rec("excitation_orthonormality", gram, gram <= 1e-9, n, s))
        dom = lab.check_number_domination(a)
        records.append(_rec("number_domination", dom, dom >= -1e-9, n, s))
        iso = lab.check_row_isotropy(a)
        records.append(_rec("row_isotropy", iso["row_isotropy"], iso["row_isotropy"] <= 1e-8, n, s))
        records.append(
            _rec(
                "repair_weight_identity",
                iso["repair_weight_identity"],
                iso["repair_weight_identity"] <= 1e-8,
                n,
                s,
            )
        )
        records.append(
            _rec(
                "overlapping_pfaffian",
                iso["overlapping_pfaffian"],
                iso["overlapping_pfaffian"] <= 1e-8,
                n,
                s,
            )
        )
        sq = lab.square_root_representation_defect(a, 100, rng.spawn(1))
        records.append(_rec("square_root_representation", sq, sq <= 1e-8, n, s))
        cond_i = s % n
        try:
            lab.conditional_split(table, cond_i)
            cond = lab.check_conditioned_vector_identities(a, cond_i, rng.spawn(2))
            records.append(
                _rec("deletion_identity", cond["deletion_identity"], cond["deletion_identity"] <= 1e-8, n, s)
            )
            records.append(
                _rec("one_flip_residual", cond["one_flip_residual"], cond["one_flip_residual"] <= 1e-8, n, s)
            )
            coupling = lab.covering_coupling(a, cond_i)
            defect = lab.coupling_marginal_defect(coupling, a, cond_i)
            dist_ok = all(
                bin(s0 ^ s1).count("1") == 2 and not (s0 >> cond_i) & 1 and (s1 >> cond_i) & 1
                for s0, s1, _ in coupling
            )
            records.append(_rec("covering_marginals", defect, defect <= 1e-9 and dist_ok, n, s))
        except ValueError:
            pass
        z = np.array([complex(0.2 + rng.random(), rng.gauss()) for _ in range(n)])
        hv = lab.check_hurwitz_point(a, z)
        records.append(_rec("hurwitz_nonvanishing", hv, hv > 0.0, n, s))
        # block-diagonal sharpness
        blocks = np.zeros((n, n))
        for i in range(0, n - 1, 2):
            val = 0.5 + rng.random()
            blocks[i, i + 1] = val
            blocks[i + 1, i] = -val
        bk = lab.exact_kernel(lab.weight_table(blocks))
        bgap = lab.spectral_gap(bk)
        records.append(
            _rec("block_gap_sharpness", abs(bgap - 2.0 / n), abs(bgap - 2.0 / n) <= 1e-9, n, s)
        )
        # flat LSI on a random chord-diagram matrix
        k = max(2, n // 2 + 1)
        slots = list(range(2 * k))
        rng.shuffle(slots)
        cd = diagram_from_pairs({v: (slots[2 * v], slots[2 * v + 1]) for v in range(k)})
        a_flat = signed_interlacement(cd).astype(float)
        ok_lsi = lab.check_flat_lsi(a_flat, lsi_trials, rng.spawn(3))
        records.append(_rec("flat_lsi", float(ok_lsi), ok_lsi, k, s))
    return records


def suite_covering(matrices: int = 50, n_max: int = 8, seed0: int = 0):
    records = []
    for s in range(matrices):
        rng = SplitMix64(seed0 + 31 * s)
        n = 2 + (s % (n_max - 1))
        a = lab.random_skew(n, rng)
        table = lab.weight_table(a)
        for i in range(n):
            try:
                lab.conditional_split(table, i)
            except ValueError:
                continue
            coupling = lab.covering_coupling(a, i)
            defect = lab.coupling_marginal_defect(coupling, a, i)
            total = sum(m for _, _, m in coupling)
            dist_ok = all(bin(s0 ^ s1).count("1") == 2 for s0, s1, _ in coupling)
            ok = defect <= 1e-9 and abs(total - 1.0) <= 1e-9 and dist_ok
            records.append(_rec("covering_coupling", defect, ok, n, s))
    return records


def suite_oracle(graphs: int = 30, max_arcs: int = 10, seed0: int = 0):
    records = []
    tri = DirectedMultigraph(3, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2)])
    census = enumerate_tours(tri)
    records.append(
        _rec("bidirected_triangle_count", census.count, census.count == 3 == best_count(tri), 3, None)
    )
    rng = SplitMix64(seed0)
    made = 0
    attempt = 0
    while made < graphs and attempt < 50 * graphs:
        attempt += 1
        n = 2 + rng.randrange(4)
        r = 1 + rng.randrange(2)
        try:
            g = gen_random_eulerian_capped(n, r, rng.next_u64(), max_arcs)
        except (RuntimeError, ValueError):
            continue
        if g is None:
            continue
        made += 1
        ce = enumerate_tours(g).count
        cb = best_count(g)
        records.append(_rec("enumerate_equals_best", ce - cb, ce == cb, g.m, made))
    return records


def gen_random_eulerian_capped(n, r, seed, max_arcs):
    from .generators import gen_random_eulerian

    if n * r > max_arcs:
        return None
    return gen_random_eulerian(n, r, seed)


def suite_switchnet(
    constructions: int = 200,
    d: int = 3,
    eta: float = 0.25,
    delta: float = 0.25,
    c: float = 2.0,
    cycle_trials: int = 1000,
    seed0: int = 0,
):
    records = []
    passes = 0
    rng = SplitMix64(seed0)
    for s in range(constructions):
        net = build_network(d, eta, delta, c, rng.spawn(s))
        dist = exact_distribution(net)
        if sum(dist.counts) != 2**net.r:
            records.append(_rec("lift_count_total", 0.0, False, d, s))
        if audit_pointwise(dist, eta):
            passes += 1
    frac = passes / constructions
    records.append(_rec("audit_pass_fraction", frac, frac >= 1.0 - delta - 0.08, d, None))
    # Monte-Carlo cross-check of one exact distribution
    net = build_network(d, eta, delta, c, SplitMix64(seed0 + 1))
    dist = exact_distribution(net)
    mc = _mc_distribution(net, 200_000, SplitMix64(seed0 + 2))
    probs = np.array(dist.counts, dtype=float) / 2.0**net.r
    sigma = np.sqrt(probs * (1 - probs) / 200_000 + 1e-12)
    worst = float(np.abs(mc - probs).max())
    ok = bool(np.all(np.abs(mc - probs) <= 4 * sigma + 1e-9))
    records.append(_rec("exact_vs_monte_carlo", worst, ok, d, None))
    # cycle preservation through a gadget expansion
    g = DirectedMultigraph(4, [(0, 1), (1, 0), (0, 2), (2, 0), (0, 3), (3, 0)])
    from .multigraph import suppress_degree_one

    base, trace = suppress_degree_one(g)
    emap = expand_graph(base, 0.1, 0.1, SplitMix64(seed0 + 3), c=c, original=g, trace=trace)
    ok = True
    for t in range(cycle_trials):
        ts = random_star_transition(emap, SplitMix64(seed0 + 10_000 + t))
        k_star, _ = cycle_count(emap.star, ts)
        k_base, _ = cycle_count(base, project_transition(emap, ts))
        if k_star != k_base:
            ok = False
            break
    records.append(_rec("cycle_preservation", float(ok), ok, d, None))
    return records


def _mc_distribution(net, trials: int, rng: SplitMix64) -> np.ndarray:
    perms = list(itertools.permutations(range(net.wires)))
    index = {p: k for k, p in enumerate(perms)}
    counts = np.zeros(len(perms))
    ident = tuple(range(net.wires))
    for _ in range(trials):
        cur = list(ident)
        for a, b in net.switches:
            if rng.next_u64() & 1:
                cur[a], cur[b] = cur[b], cur[a]
        counts[index[tuple(cur)]] += 1
    return counts / trials


def repair_uniformity_chi2(
    m: int = 256, draws: int = 100_000, seed: int = 0
) -> tuple[float, int]:
    """Chi-square p-value for sample_repair's law on a fixed state."""
    g = gen_regular2(m // 2, seed)
    tour = hierholzer_tour(g)
    store = ChordStore(tour.arcs, g.heads)
    rng = SplitMix64(seed + 1)
    # pick the vertex with the largest crossing set for a meaningful test
    best_x, best_w = 0, -1
    for x in store.vertices:
        w = store.crossing_query(x).w_total
        if w > best_w:
            best_x, best_w = x, w
    res = store.crossing_query(best_x)
    counts: dict[int, int] = {}
    for _ in range(draws):
        y = store.sample_repair(best_x, res, rng)
        counts[y] = counts.get(y, 0) + 1
    support = store.crossing_vertices(res) + [best_x]
    observed = [counts.get(v, 0) for v in support]
    _, pval = stats.chisquare(observed)
    return float(pval), best_w


def equivalence_run(m: int, steps: int, seed: int = 0) -> dict:
    """Shared-randomness naive/fast trajectory equality at a given size."""
    g = gen_regular2(m // 2, seed)
    tour = hierholzer_tour(g)
    state = WalkState(g, tour)
    store = ChordStore(tour.arcs, g.heads)
    r1, r2 = SplitMix64(seed + 1), SplitMix64(seed + 1)
    ok = True
    for i in range(1, steps + 1):
        o1 = step_naive(state, r1)
        o2 = step_fast(store, r2, mirror=True)
        if (o1.x, o1.y, o1.crossings) != (o2.x, o2.y, o2.crossings):
            ok = False
            break
        if i % 1024 == 0:
            valid, _ = store.validate()
            ok = ok and valid and state.tour() == store.tour()
            if not ok:
                break
    ok = ok and state.tour() == store.tour() and store.validate()[0]
    return _rec("trajectory_equivalence", float(ok), ok, m, seed)


SUITES = {
    "skewdet": suite_skewdet,
    "chords": suite_chords,
    "chain": suite_chain,
    "switchnet": suite_switchnet,
    "covering": suite_covering,
    "oracle": suite_oracle,
}


def run_suite(name: str, **kwargs):
    if name == "all":
        records = []
        for fn in SUITES.values():
            records.extend(fn())
        return records
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name](**kwargs)
