"""``ChunkedStore``, the sqrt-decomposition store, answers crossing queries
without scanning.

A flip-repair step needs the set of chords crossing a queried chord.  The
store keeps the tour in chunks of about sqrt(M) positions, listed in tour
order, with pair lists for chunk pairs and a matrix of chord counts per
chunk pair, so the crossing count splits into an aggregate class (one
vectorized sum of count-matrix rows) and a boundary class (a short explicit
scan).  Updates splice three segments of the chunk list and rebuild O(1)
chunks.  Every answer here is exact; the naive scan confirms it.  The
sampler itself walks tours up to ``FLAT_MAX_M`` arcs on a ``ChordStore`` of
flat arrays, whose vectorized scan is faster still at these sizes.
"""

from tourwalk.bench import bench_rung
from tourwalk.chordstore import ChunkedStore
from tourwalk.generators import gen_regular2
from tourwalk.multigraph import hierholzer_tour
from tourwalk.rng import SplitMix64
from tourwalk.walk import WalkState, step_fast, step_naive

print("== build and query ==")
g = gen_regular2(256, seed=1)  # M = 512
tour = hierholzer_tour(g)
store = ChunkedStore(tour.arcs, g.heads)
state = WalkState(g, tour)
print(f"M = {store.m}, chunk size B = {store.b}, chunks = {len(store.order)}")

x = store.vertices[17]
res = store.crossing_query(x)
print(f"query chord {x}: {res.w_a} aggregate + {len(res.class_b)} boundary crossings")
print("naive scan agrees:", state.crossing_vertices(x) == store.crossing_vertices(res))

print("\n== paired walks stay identical on shared randomness ==")
r1, r2 = SplitMix64(7), SplitMix64(7)
for i in range(2000):
    o1 = step_naive(state, r1)
    o2 = step_fast(store, r2, mirror=True)
    assert (o1.x, o1.y, o1.crossings) == (o2.x, o2.y, o2.crossings)
print("2000 steps, trajectories identical, tours equal:", state.tour() == store.tour())
ok, msg = store.validate()
print("from-scratch validator:", ok)

print("\n== per-step cost taste (fast vs flat vs naive) ==")
for m in (2048, 8192, 32768):
    fast = bench_rung(m, steps=200, seed=3, impl="fast")
    flat = bench_rung(m, steps=200, seed=3, impl="flat")
    naive = bench_rung(m, steps=50, seed=3, impl="naive")
    print(
        f"M={m:6d}: fast {fast['ns_per_step'] / 1e3:8.0f} us/step   "
        f"flat {flat['ns_per_step'] / 1e3:8.0f} us/step   "
        f"naive {naive['ns_per_step'] / 1e3:8.0f} us/step"
    )
print("fast grows like sqrt(M); flat and the naive scan grow linearly,")
print("flat with a constant small enough to lead far past these sizes")
