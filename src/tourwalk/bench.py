"""Per-step cost measurements for the walk implementations."""

from __future__ import annotations

import time

from .chordstore import ChordStore
from .generators import gen_regular2
from .multigraph import hierholzer_tour
from .rng import SplitMix64
from .walk import WalkState, step_fast, step_naive


def bench_rung(
    m: int,
    steps: int,
    seed: int,
    impl: str = "fast",
    b_override: int | None = None,
    warmup: int | None = None,
    validate: bool = False,
) -> dict:
    """Time ``steps`` calls of the real step function on a random 2-in/2-out
    graph with m arcs.

    ``impl`` picks ``step_fast`` on a ChordStore (chunk size ``b_override``),
    ``step_fast`` on a one-chunk ChordStore (``"flat"``) or ``step_naive`` on a
    WalkState.  Warmup steps, by default max(30, m/200) for a store and 10
    for the scan, mix the state to steady state first.  With ``validate`` the
    store is recomputed from scratch after the run.
    """
    if m % 2:
        raise ValueError("m must be even (two arcs per vertex)")
    if impl not in ("fast", "flat", "naive"):
        raise ValueError("impl must be 'fast', 'flat' or 'naive'")
    g = gen_regular2(m // 2, seed)
    tour = hierholzer_tour(g)
    t0 = time.perf_counter()
    if impl == "naive":
        walker = WalkState(g, tour)
        step, b = step_naive, 0
    else:
        walker = ChordStore(tour.arcs, g.heads, chunk_size=m if impl == "flat" else b_override)
        step, b = step_fast, walker.b
    build_s = time.perf_counter() - t0
    if warmup is None:
        warmup = 10 if impl == "naive" else max(30, m // 200)
    rng = SplitMix64(seed + 1)
    for _ in range(min(steps, warmup)):
        step(walker, rng)
    t_all = time.perf_counter_ns()
    for _ in range(steps):
        step(walker, rng)
    total_ns = time.perf_counter_ns() - t_all
    if validate and impl != "naive":
        ok, msg = walker.validate()
        if not ok:
            raise AssertionError(f"store validator failed after bench: {msg}")
    return {
        "impl": impl,
        "M": m,
        "B": b,
        "steps": steps,
        "ns_per_step": total_ns / max(steps, 1),
        "build_s": build_s,
    }


def csv_rows(rows: list[dict]) -> str:
    lines = ["impl,M,B,steps,ns_per_step,build_s"]
    for r in rows:
        lines.append(
            f"{r['impl']},{r['M']},{r['B']},{r['steps']},"
            f"{r['ns_per_step']:.0f},{r['build_s']:.3f}"
        )
    return "\n".join(lines) + "\n"
