import pytest
from scipy import stats

from conftest import double_pair, two_loops
from tourwalk.chords import diagram_from_pairs, graph_from_diagram
from tourwalk.chordstore import ChordStore, ChunkedStore
from tourwalk.generators import gen_regular2
from tourwalk.multigraph import Tour, hierholzer_tour
from tourwalk.rng import SplitMix64
from tourwalk.walk import WalkState, run_walk, step_fast


STORES = (ChordStore, ChunkedStore)


def store_for(g, tour=None, cls=ChunkedStore, **kw):
    tour = tour or hierholzer_tour(g)
    return cls(tour.arcs, g.heads, **kw)


def test_build_m4_b2_two_chunks():
    g = double_pair()
    store = store_for(g, chunk_size=2)
    assert len(store.order) == 2
    assert sum(len(lst) for lst in store.pairs.values()) == 2
    assert store.validate() == (True, "")


def test_build_degenerate_single_chunk():
    g = double_pair()
    for b in (3, 16):  # M=4: the remainder merges back, or B >= M
        store = store_for(g, chunk_size=b)
        assert len(store.order) == 1
        res = store.crossing_query(0)
        assert res.w_total == 1 and store.crossing_vertices(res) == [1]
        store.apply_four_cut(0, 1)
        assert store.validate() == (True, "")


def test_build_rejects_bad_ownership():
    for cls in STORES:
        with pytest.raises(ValueError, match="owns"):
            cls([0, 1, 2, 3], [0, 0, 0, 1])


def test_build_random_validates():
    g = gen_regular2(512, seed=7)
    store = store_for(g, chunk_size=32)
    assert store.validate() == (True, "")


def test_crossing_query_examples():
    g = double_pair()
    nested_g, nested_tour = graph_from_diagram(
        diagram_from_pairs({0: (0, 3), 1: (1, 2)})
    )
    for cls in STORES:
        store = store_for(g, cls=cls)
        res = store.crossing_query(0)
        assert res.w_total == 1
        assert store.crossing_vertices(res) == [1]
        # nested chords never cross
        nstore = store_for(nested_g, nested_tour, cls=cls)
        assert nstore.crossing_query(0).w_total == 0
        assert nstore.crossing_query(1).w_total == 0


def test_crossing_query_matches_naive_scan():
    g = gen_regular2(512, seed=3)
    tour = hierholzer_tour(g)
    for cls in STORES:
        store = store_for(g, tour, cls=cls)
        state = WalkState(g, tour)
        rng = SplitMix64(17)
        for trial in range(1500):
            x = state.vertices[rng.randrange(len(state.vertices))]
            res = store.crossing_query(x)
            naive = state.crossing_vertices(x)
            assert res.w_total == len(naive)
            assert store.crossing_vertices(res) == naive
            if trial % 100 == 0:
                y = store.sample_repair(x, res, rng)
                if y != x:
                    store.apply_four_cut(x, y)
                    state.apply_four_cut(x, y)


def test_sample_repair_forced_when_no_crossings():
    g, tour = graph_from_diagram(diagram_from_pairs({0: (0, 3), 1: (1, 2)}))
    for cls in STORES:
        store = store_for(g, tour, cls=cls)
        res = store.crossing_query(0)
        rng = SplitMix64(3)
        assert all(store.sample_repair(0, res, rng) == 0 for _ in range(64))


def test_sample_repair_one_crossing_is_half_half():
    g = double_pair()
    for cls in STORES:
        store = store_for(g, cls=cls)
        res = store.crossing_query(0)
        rng = SplitMix64(11)
        hits = sum(store.sample_repair(0, res, rng) == 0 for _ in range(40000))
        assert abs(hits / 40000 - 0.5) < 0.01


def test_sample_repair_chi_square_uniformity():
    g = gen_regular2(128, seed=0)
    tour = hierholzer_tour(g)
    store = store_for(g, tour)
    best_x = max(store.vertices, key=lambda x: store.crossing_query(x).w_total)
    res = store.crossing_query(best_x)
    assert res.w_total >= 5
    rng = SplitMix64(1)
    counts: dict[int, int] = {}
    draws = 1_000_000
    for _ in range(draws):
        y = store.sample_repair(best_x, res, rng)
        counts[y] = counts.get(y, 0) + 1
    support = store.crossing_vertices(res) + [best_x]
    assert set(counts) == set(support)
    _, pval = stats.chisquare([counts[v] for v in support])
    assert pval > 0.001


def test_sample_repair_rejects_stale_result():
    g = double_pair()
    for cls in STORES:
        store = store_for(g, cls=cls)
        res = store.crossing_query(0)
        store.apply_four_cut(0, 1)
        with pytest.raises(ValueError, match="stale"):
            store.sample_repair(0, res, SplitMix64(0))
        with pytest.raises(ValueError, match="stale"):
            store.crossing_vertices(res)


def test_four_cut_double_pair_and_involution():
    g = double_pair()
    for cls in STORES:
        store = store_for(g, cls=cls)
        assert store.tour() == Tour.canonical([0, 1, 2, 3])
        store.apply_four_cut(0, 1)
        assert store.tour() == Tour.canonical([0, 3, 2, 1])
        assert store.validate() == (True, "")
        store.apply_four_cut(0, 1)
        assert store.tour() == Tour.canonical([0, 1, 2, 3])
        assert store.validate() == (True, "")


def test_four_cut_rejects_non_crossing():
    g, tour = graph_from_diagram(diagram_from_pairs({0: (0, 3), 1: (1, 2)}))
    for cls in STORES:
        store = store_for(g, tour, cls=cls)
        with pytest.raises(ValueError, match="do not cross"):
            store.apply_four_cut(0, 1)
        with pytest.raises(ValueError):
            store.apply_four_cut(0, 0)
        assert store.validate() == (True, "") and store.tour() == tour


def test_four_cut_long_random_run_validates():
    g = gen_regular2(256, seed=9)
    tour = hierholzer_tour(g)
    store = store_for(g, tour)
    state = WalkState(g, tour)
    rng = SplitMix64(21)
    updates = 0
    step = 0
    while updates < 3000:
        step += 1
        out = step_fast(store, rng)
        if not out.self_loop:
            updates += 1
        if step % 256 == 0:
            assert store.validate() == (True, "")
    assert store.validate() == (True, "")
    # size discipline: every chunk within [B/2, 2B]
    sizes = [len(store.chunk_tokens[c]) for c in store.order]
    assert all(store.b <= 2 * s <= 4 * store.b for s in sizes)
    # identifier safety: retired coordinates carry no weight
    free = set(store.free_ids)
    assert all(store.coord_total[c] == 0 for c in free)


def test_validator_fault_injection():
    g = gen_regular2(64, seed=2)
    store = store_for(g)
    assert store.validate() == (True, "")
    c1, c2 = store.order[0], store.order[1]
    last = store.order[-1]

    def bump_contrib(d):
        store.contrib[c1, c2] += d
        store.contrib[c2, c1] += d

    def bump_total(d):
        store.coord_total[c1] += d

    def bump_rank(d):
        store.rank_of[last] += d

    def bump_base(d):
        store.pos_base[last] += d

    def drop_limit(d):
        store.id_limit -= d

    def leave_touched(d):
        if d > 0:
            key = next(iter(store.pairs))
            store._touched[key] = store.pairs[key]
        else:
            store._touched.clear()

    def bump_ends(d):
        store.ends[c1] += d

    def duplicate_pair_entry(d):
        lst = next(iter(store.pairs.values()))
        if d > 0:
            lst.append(lst[0])
        else:
            lst.pop()

    for fault, words in (
        (bump_contrib, "contribution mismatch"),
        (bump_total, "coordinate totals mismatch"),
        (bump_rank, "order cache stale"),
        (bump_base, "order cache stale"),
        (drop_limit, "identifier limit"),
        (leave_touched, "touched keys not flushed"),
        (bump_ends, "endpoint counts mismatch"),
        (duplicate_pair_entry, "pair lists hold"),
    ):
        fault(1)
        ok, msg = store.validate()
        fault(-1)
        assert not ok and words in msg, msg
        assert store.validate() == (True, "")


def test_flat_validator_fault_injection():
    g = gen_regular2(64, seed=2)
    store = store_for(g, cls=ChordStore)
    run_walk(store, 50, SplitMix64(4))
    assert store.validate() == (True, "")
    tok, pos = store.tok, store.pos
    u, v = store.vertices[:2]
    pair_u, pair_v = store.vert_tok[u], store.vert_tok[v]
    first = int(tok[0])

    def duplicate_token(on):
        tok[0] = tok[1] if on else first

    def stale_position(on):
        pos[first] += 1 if on else -1

    def wrong_partner(on):
        store.vert_tok[u] = (pair_u[0], pair_v[1]) if on else pair_u
        store.vert_tok[v] = (pair_v[0], pair_u[1]) if on else pair_v

    for fault, words in (
        (duplicate_token, "not a permutation"),
        (stale_position, "stale token position"),
        (wrong_partner, "owner table disagrees"),
    ):
        fault(True)
        ok, msg = store.validate()
        fault(False)
        assert not ok and words in msg, msg
        assert store.validate() == (True, "")


def test_retire_rejects_identifier_with_endpoints():
    g = gen_regular2(64, seed=2)
    store = store_for(g)
    cid = store.order[0]
    assert store.ends[cid] == len(store.chunk_tokens[cid]) > 0
    with pytest.raises(AssertionError, match="live endpoint"):
        store._retire(cid)


def test_debug_walk_flushes_many_touched_keys(monkeypatch):
    g = gen_regular2(2048, seed=4)
    store = store_for(g)
    assert store.m == 4096
    sizes = []
    real = ChunkedStore._flush

    def spy(self):
        sizes.append(len(self._touched))
        real(self)

    monkeypatch.setattr(ChunkedStore, "_flush", spy)
    _, stats = run_walk(store, 200, SplitMix64(6), debug_graph=g)
    assert stats.validations == 200
    assert stats.self_loops < 200
    assert max(sizes) >= 100


def test_two_loop_store():
    g = two_loops()
    for cls in STORES:
        store = store_for(g, cls=cls)
        res = store.crossing_query(0)
        assert res.w_total == 0
        assert store.tour() == Tour.canonical([0, 1])
        assert store.validate() == (True, "")
