"""Per-step cost measurements for the walk implementations."""

from __future__ import annotations

import time

from .chordstore import ChordStore
from .generators import gen_regular2
from .multigraph import hierholzer_tour
from .rng import SplitMix64
from .walk import WalkState, step_fast, step_naive


def bench_fast(
    m: int,
    steps: int,
    seed: int,
    b_override: int | None = None,
    warmup: int | None = None,
    validate: bool = False,
) -> dict:
    """Timed fast steps on a random 2-in/2-out graph with m arcs.

    Query time covers the crossing query and repair draw; update time covers
    the four-cut.  Warmup steps mix the chunk sizes to steady state first.
    With ``validate`` the debug validator recomputes the store from scratch
    after the run and the result lands in the row.
    """
    if m % 2:
        raise ValueError("m must be even (two arcs per vertex)")
    g = gen_regular2(m // 2, seed)
    tour = hierholzer_tour(g)
    t0 = time.perf_counter()
    store = ChordStore(
        [int(e) for e in tour.arcs],
        [int(g.heads[e]) for e in tour.arcs],
        chunk_size=b_override,
    )
    build_s = time.perf_counter() - t0
    rng = SplitMix64(seed + 1)
    for _ in range(min(steps, warmup if warmup is not None else max(30, m // 200))):
        step_fast(None, store, rng)
    query_ns = 0
    update_ns = 0
    t_all = time.perf_counter_ns()
    for _ in range(steps):
        x = store.vertices[rng.randrange(len(store.vertices))]
        t0 = time.perf_counter_ns()
        res = store.crossing_query(x)
        y = store.sample_repair(x, res, rng)
        t1 = time.perf_counter_ns()
        if y != x:
            store.apply_four_cut(x, y)
        t2 = time.perf_counter_ns()
        query_ns += t1 - t0
        update_ns += t2 - t1
    total_ns = time.perf_counter_ns() - t_all
    row = {
        "impl": "fast",
        "M": m,
        "B": store.b,
        "steps": steps,
        "ns_per_step": total_ns / max(steps, 1),
        "query_ns": query_ns / max(steps, 1),
        "update_ns": update_ns / max(steps, 1),
        "build_s": build_s,
    }
    if validate:
        ok, msg = store.validate()
        if not ok:
            raise AssertionError(f"store validator failed after bench: {msg}")
        row["validated"] = True
    return row


def bench_naive(m: int, steps: int, seed: int) -> dict:
    if m % 2:
        raise ValueError("m must be even (two arcs per vertex)")
    g = gen_regular2(m // 2, seed)
    tour = hierholzer_tour(g)
    t0 = time.perf_counter()
    state = WalkState(g, tour)
    build_s = time.perf_counter() - t0
    rng = SplitMix64(seed + 1)
    for _ in range(min(steps, 10)):
        step_naive(state, rng)
    query_ns = 0
    update_ns = 0
    t_all = time.perf_counter_ns()
    for _ in range(steps):
        x = state.vertices[rng.randrange(len(state.vertices))]
        t0 = time.perf_counter_ns()
        crossings = state.crossing_vertices(x)
        w = len(crossings)
        u = rng.random()
        k = min(int(u * (w + 1)), w)
        y = x if k == 0 else crossings[k - 1]
        t1 = time.perf_counter_ns()
        if y != x:
            state.apply_four_cut(x, y)
        t2 = time.perf_counter_ns()
        query_ns += t1 - t0
        update_ns += t2 - t1
    total_ns = time.perf_counter_ns() - t_all
    return {
        "impl": "naive",
        "M": m,
        "B": 0,
        "steps": steps,
        "ns_per_step": total_ns / max(steps, 1),
        "query_ns": query_ns / max(steps, 1),
        "update_ns": update_ns / max(steps, 1),
        "build_s": build_s,
    }


def bench_ladder(
    ms: list[int],
    steps: int,
    seed: int,
    impl: str = "fast",
    b_override: int | None = None,
    validate: bool = False,
) -> list[dict]:
    rows = []
    for m in ms:
        if impl == "fast":
            rows.append(bench_fast(m, steps, seed, b_override=b_override, validate=validate))
        elif impl == "naive":
            rows.append(bench_naive(m, steps, seed))
        else:
            raise ValueError("impl must be 'fast' or 'naive'")
    return rows


def csv_rows(rows: list[dict]) -> str:
    header = "impl,M,B,steps,ns_per_step,query_ns,update_ns,build_s"
    lines = [header]
    for r in rows:
        lines.append(
            f"{r['impl']},{r['M']},{r['B']},{r['steps']},"
            f"{r['ns_per_step']:.0f},{r['query_ns']:.0f},{r['update_ns']:.0f},{r['build_s']:.3f}"
        )
    return "\n".join(lines) + "\n"
