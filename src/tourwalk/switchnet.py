"""Switching-network degree reduction for Eulerian multigraphs.

A vertex of degree D is replaced by a D-wire network of 2-in/2-out lazy
transposition switches: a deterministic guard layer (0,1), (1,2), ...,
(D-2, D-1) that touches every wire, followed by uniformly random wire pairs.
Uniform independent switch settings induce a distribution on S_D that is
pointwise within e^{+-eta} of uniform with probability at least 1 - delta
over the construction, for a large enough constant in the suffix length.

The expansion splices the original arcs onto the first and last switch of
each wire, so every original arc survives with its id and every vertex of
the expanded graph is a switch of in/out degree two.  Projection back is a
pointer walk that contracts the internal arcs, which preserves cycle counts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .multigraph import (
    DirectedMultigraph,
    SuppressionTrace,
    Tour,
    TransitionSystem,
    lift_suppressed,
    project_to_reduced,
    tour_from_transition_system,
)
from .rng import SplitMix64

EXACT_WIDTH_CAP = 6


@dataclass(frozen=True)
class SwitchingNetwork:
    """Ordered lazy-transposition switches on D wires (guard then suffix)."""

    wires: int
    switches: tuple[tuple[int, int], ...]
    guard_len: int
    eta: float
    delta: float
    c: float

    @property
    def r(self) -> int:
        return len(self.switches)


def suffix_length(d: int, eta: float, delta: float, c: float) -> int:
    """R = 2 ceil(c * d * (ln d + ln(1/(eta delta))))."""
    return 2 * math.ceil(c * d * (math.log(d) + math.log(1.0 / (eta * delta))))


def build_network(
    d: int, eta: float, delta: float, c: float, rng: SplitMix64
) -> SwitchingNetwork:
    if d < 2:
        raise ValueError("a switching network needs at least two wires")
    if not (0.0 < eta < 1.0 and 0.0 < delta < 1.0):
        raise ValueError("eta and delta must lie in (0, 1)")
    if c <= 0.0:
        raise ValueError("suffix constant must be positive")
    guard = [(i, i + 1) for i in range(d - 1)]
    npairs = d * (d - 1) // 2
    suffix = []
    for _ in range(suffix_length(d, eta, delta, c)):
        k = rng.randrange(npairs)
        # decode the k-th unordered pair in lexicographic order
        i = 0
        row = d - 1
        while k >= row:
            k -= row
            i += 1
            row -= 1
        suffix.append((i, i + 1 + k))
    return SwitchingNetwork(
        wires=d,
        switches=tuple(guard + suffix),
        guard_len=d - 1,
        eta=eta,
        delta=delta,
        c=c,
    )


@dataclass(frozen=True)
class PermDistribution:
    """Exact law of the induced permutation under uniform switch settings.

    ``counts[k]`` is the number of settings inducing ``perms[k]``; dividing
    by 2^r gives the probability exactly, with no float drift in the counts.
    """

    wires: int
    perms: tuple[tuple[int, ...], ...]
    counts: tuple[int, ...]
    r: int

    def probability(self, perm: tuple[int, ...]) -> float:
        k = self.perms.index(perm)
        return self.counts[k] / float(2**self.r) if self.r < 1000 else math.exp(
            math.log(self.counts[k]) - self.r * math.log(2.0)
        )

    def lift_count(self, perm: tuple[int, ...]) -> int:
        return self.counts[self.perms.index(perm)]


def exact_distribution(net: SwitchingNetwork) -> PermDistribution:
    """Sequential convolution of lazy transpositions, in exact integers."""
    d = net.wires
    if d > EXACT_WIDTH_CAP:
        raise ValueError(f"exact distribution capped at width {EXACT_WIDTH_CAP}")
    perms = tuple(itertools.permutations(range(d)))
    index = {p: k for k, p in enumerate(perms)}
    counts = [0] * len(perms)
    counts[index[tuple(range(d))]] = 1
    for a, b in net.switches:
        # applying the switch maps sigma to tau o sigma; off leaves sigma
        table = [0] * len(perms)
        for k, p in enumerate(perms):
            q = tuple(b if v == a else a if v == b else v for v in p)
            table[k] = index[q]
        counts = [counts[k] + counts[table[k]] for k in range(len(perms))]
    return PermDistribution(wires=d, perms=perms, counts=tuple(counts), r=net.r)


def audit_pointwise(dist: PermDistribution, eta: float, slack: float = 1e-12) -> bool:
    """e^{-eta}/D! <= p(sigma) <= e^{eta}/D! for every permutation."""
    log_fact = math.lgamma(dist.wires + 1)
    lo = -eta - log_fact - slack
    hi = eta - log_fact + slack
    log2 = math.log(2.0)
    for cnt in dist.counts:
        if cnt == 0:
            return False
        logp = math.log(cnt) - dist.r * log2
        if not (lo <= logp <= hi):
            return False
    return True


@dataclass(frozen=True)
class Gadget:
    """One vertex's network wiring inside the expanded graph."""

    vertex: int
    net: SwitchingNetwork
    switch_ids: tuple[int, ...]  # expanded-graph vertex per switch
    in_splice: tuple[int, ...]  # per in-wire: the switch its arc enters
    out_splice: tuple[int, ...]  # per out-wire: the switch its arc leaves


@dataclass(frozen=True)
class ExpansionMap:
    """Degree-two expansion of a suppressed graph plus projection data.

    Original arcs keep their ids 0..m-1 inside the expanded graph; internal
    wire segments get ids m and above.  ``trace`` carries the degree-one
    suppressions so projection can return tours of the original input graph.
    """

    original: DirectedMultigraph
    base: DirectedMultigraph  # suppressed graph that was expanded
    trace: SuppressionTrace | None
    star: DirectedMultigraph
    gadgets: tuple[Gadget, ...]
    kept: dict[int, int]  # verbatim base vertex -> expanded vertex
    eta_total: float

    @property
    def expanded_arcs(self) -> int:
        return self.star.m

    def to_json_dict(self) -> dict:
        return {
            "base_arcs": self.base.m,
            "expanded_arcs": self.star.m,
            "expanded_vertices": self.star.n,
            "eta_total": self.eta_total,
            "kept": {str(k): v for k, v in self.kept.items()},
            "gadgets": [
                {
                    "vertex": g.vertex,
                    "wires": g.net.wires,
                    "switches": [list(s) for s in g.net.switches],
                    "switch_ids": list(g.switch_ids),
                    "in_splice": list(g.in_splice),
                    "out_splice": list(g.out_splice),
                }
                for g in self.gadgets
            ],
            "suppressions": (
                [list(r) for r in self.trace.records] if self.trace else []
            ),
        }


def expand_graph(
    base: DirectedMultigraph,
    eta: float,
    delta: float,
    rng: SplitMix64,
    c: float = 2.0,
    original: DirectedMultigraph | None = None,
    trace: SuppressionTrace | None = None,
) -> ExpansionMap:
    """Replace every vertex of degree >= 3 by a network.

    Vertices of degree two are kept verbatim; they already meet the degree
    target, and retaining them is an exact gadget (both local pairings
    realized by exactly one setting each).  The input must have minimum
    degree two on its non-isolated vertices.
    """
    active = base.active_vertices()
    for v in active:
        if len(base.in_arcs[v]) != len(base.out_arcs[v]):
            raise ValueError(f"vertex {v} is not balanced")
        if len(base.in_arcs[v]) < 2:
            raise ValueError(f"vertex {v} has degree one; suppress it first")
    kept: dict[int, int] = {}
    gadget_specs: list[int] = []
    for v in active:
        if len(base.in_arcs[v]) >= 3:
            gadget_specs.append(v)
        else:
            kept[v] = -1  # id assigned below

    n_star = 0
    for v in kept:
        kept[v] = n_star
        n_star += 1
    gadgets: list[Gadget] = []
    arc_tail: list[int] = [-1] * base.m
    arc_head: list[int] = [-1] * base.m
    internal: list[tuple[int, int]] = []  # appended after the original arcs

    for v in gadget_specs:
        d = len(base.in_arcs[v])
        net = build_network(d, eta, delta, c, rng)
        switch_ids = tuple(range(n_star, n_star + net.r))
        n_star += net.r
        first = [-1] * d
        last = [-1] * d
        for t, (a, b) in enumerate(net.switches):
            for wire in (a, b):
                if last[wire] == -1:
                    first[wire] = t
                else:
                    internal.append((switch_ids[last[wire]], switch_ids[t]))
                last[wire] = t
        if -1 in first:
            raise AssertionError("guard layer left a wire untouched")
        for j, e in enumerate(base.in_arcs[v]):
            arc_head[e] = switch_ids[first[j]]
        for j, e in enumerate(base.out_arcs[v]):
            arc_tail[e] = switch_ids[last[j]]
        gadgets.append(
            Gadget(
                vertex=v,
                net=net,
                switch_ids=switch_ids,
                in_splice=tuple(first[j] for j in range(d)),
                out_splice=tuple(last[j] for j in range(d)),
            )
        )
    for v, vid in kept.items():
        for e in base.in_arcs[v]:
            arc_head[e] = vid
        for e in base.out_arcs[v]:
            arc_tail[e] = vid
    arcs = list(zip(arc_tail, arc_head)) + internal
    star = DirectedMultigraph(n_star, arcs)
    return ExpansionMap(
        original=original if original is not None else base,
        base=base,
        trace=trace,
        star=star,
        gadgets=tuple(gadgets),
        kept=kept,
        eta_total=eta * len(gadgets),
    )


def project_transition(
    emap: ExpansionMap, ts_star: TransitionSystem
) -> TransitionSystem:
    """Contract internal arcs: follow successors until an original arc.

    Cycle counts are preserved exactly because internal arcs only subdivide
    cycles (every cycle of the expanded system contains an original arc).
    """
    m = emap.base.m
    succ = []
    for e in range(m):
        nxt = ts_star.succ[e]
        while nxt >= m:
            nxt = ts_star.succ[nxt]
        succ.append(nxt)
    ts = TransitionSystem(tuple(succ))
    ts.validate_in(emap.base)
    return ts


def project_tour(emap: ExpansionMap, t_star: Tour) -> Tour:
    """Expanded tour -> tour of the original graph (undoing suppressions)."""
    t_star.validate_in(emap.star)
    ts_base = project_transition(emap, TransitionSystem.from_tour(t_star))
    if emap.trace is not None:
        ts_orig = lift_suppressed(emap.original, emap.trace, ts_base)
    else:
        ts_orig = ts_base
    return tour_from_transition_system(emap.original, ts_orig)


def local_permutation(
    emap: ExpansionMap, gadget: Gadget, ts_star: TransitionSystem
) -> tuple[int, ...]:
    """The in-wire to out-wire permutation a transition system realizes."""
    v = gadget.vertex
    m = emap.base.m
    out_index = {e: j for j, e in enumerate(emap.base.out_arcs[v])}
    perm = []
    for e in emap.base.in_arcs[v]:
        nxt = ts_star.succ[e]
        while nxt >= m:
            nxt = ts_star.succ[nxt]
        perm.append(out_index[nxt])
    return tuple(perm)


def lift_count_ratio(emap: ExpansionMap, ts_orig: TransitionSystem) -> float:
    """L(T) / prod_v 2^{r_v}/d_v! for an original transition system.

    L(T) multiplies, over gadgets, the number of switch settings realizing
    T's local permutation; audited gadgets pin the ratio to e^{+-eta_total}.
    """
    ts_base = (
        project_to_reduced(emap.trace, ts_orig) if emap.trace is not None else ts_orig
    )
    ratio = Fraction(1)
    for gadget in emap.gadgets:
        if gadget.net.wires > EXACT_WIDTH_CAP:
            raise ValueError("lift counts need exact distributions (width <= 6)")
        dist = exact_distribution(gadget.net)
        perm = _base_local_permutation(emap.base, gadget.vertex, ts_base)
        d_fact = math.factorial(gadget.net.wires)
        ratio *= Fraction(dist.lift_count(perm) * d_fact, 2**gadget.net.r)
    return float(ratio)


def _base_local_permutation(
    base: DirectedMultigraph, v: int, ts: TransitionSystem
) -> tuple[int, ...]:
    out_index = {e: j for j, e in enumerate(base.out_arcs[v])}
    return tuple(out_index[ts.succ[e]] for e in base.in_arcs[v])


def random_star_transition(
    emap: ExpansionMap, rng: SplitMix64
) -> TransitionSystem:
    """Uniform random transition system of the expanded graph."""
    star = emap.star
    succ = [0] * star.m
    for v in range(star.n):
        outs = list(star.out_arcs[v])
        rng.shuffle(outs)
        for e, f in zip(star.in_arcs[v], outs):
            succ[e] = f
    return TransitionSystem(tuple(succ))
