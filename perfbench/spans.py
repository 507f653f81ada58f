"""Spans around the calls the sampling pipeline makes into each layer.

A ``Recording`` patches, for as long as it is active:

- every function that ``tourwalk.sampler`` imports from another tourwalk
  module, and its ``ChordStore`` constructor, as seen from the sampler;
- ``tourwalk.sampler.sample_tour`` itself, the root span;
- ``tourwalk.switchnet.lift_suppressed`` and ``tourwalk.walk.step_fast``;
- ``Tour.validate_in`` and the ChordStore methods ``crossing_query``,
  ``sample_repair``, ``apply_four_cut`` and ``validate``.

Each wrapper appends one span ``(name, start, end, parent)`` to a list kept
in memory; the parent is the index of the enclosing span, or -1.  Hooks keep
what the checks and counters need: the expanded graph and the walk's start
and final tours, the accepted four-cut pairs, and the store instance.
Leaving the ``with`` block restores every patched attribute.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

import numpy as np

STORE_METHODS = ("crossing_query", "sample_repair", "apply_four_cut", "validate")


class Recording:
    def __init__(self, tw) -> None:
        self.tw = tw  # namespace holding the tourwalk modules
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.captured: dict = {"pairs": []}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, on_return=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if on_return is not None:
                on_return(args, out)
            return out

        return traced

    def _patch(self, owner, attr: str, name: str, on_return=None) -> None:
        fn = getattr(owner, attr)
        self._undo.append((owner, attr, fn))
        setattr(owner, attr, self._wrap(fn, name, on_return))

    def __enter__(self) -> "Recording":
        tw, cap = self.tw, self.captured

        def keep(key, pick):
            return lambda args, out: cap.__setitem__(key, pick(args, out))

        hooks = {
            "suppress_degree_one": keep("suppressed", lambda a, out: len(out[1].records)),
            "expand_graph": keep("emap", lambda a, out: out),
            "hierholzer_tour": keep("start", lambda a, out: (a[0], out)),
            "run_walk": keep("final", lambda a, out: out[0]),
            "ChordStore": keep("store", lambda a, out: out),
        }
        sampler = tw.sampler
        for attr, obj in list(vars(sampler).items()):
            module = getattr(obj, "__module__", "") or ""
            if not module.startswith("tourwalk.") or module == sampler.__name__:
                continue
            if inspect.isfunction(obj) or obj is tw.chordstore.ChordStore:
                name = f"{module.split('.')[-1]}.{attr}"
                self._patch(sampler, attr, name, hooks.get(attr))
        self._patch(sampler, "sample_tour", "sampler.sample_tour")
        self._patch(tw.switchnet, "lift_suppressed", "multigraph.lift_suppressed")
        self._patch(tw.walk, "step_fast", "walk.step_fast")
        self._patch(tw.multigraph.Tour, "validate_in", "multigraph.Tour.validate_in")
        store_cls = tw.chordstore.ChordStore
        for meth in STORE_METHODS:
            hook = None
            if meth == "apply_four_cut":
                hook = lambda a, out: cap["pairs"].append((a[1], a[2]))  # noqa: E731
            self._patch(store_cls, meth, f"chordstore.ChordStore.{meth}", hook)
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def by_name(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total duration and total self time."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total": 0.0, "self": 0.0}
        )
        for (name, start, end, _), inner in zip(spans, child):
            row = out[name]
            row["calls"] += 1
            row["total"] += end - start
            row["self"] += end - start - inner
        return out


def array_bytes(obj) -> int:
    """Bytes of the numpy arrays an object holds as attributes."""
    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))


def layer_metrics(rec: Recording, steps: int) -> dict[str, float]:
    """Per-layer figures of one traced sample_tour call."""
    rows = rec.by_name()
    cap = rec.captured

    def self_s(*names):
        return sum(rows[n]["self"] for n in names if n in rows)

    def mean_us(name):
        row = rows.get(name)
        return 1e6 * row["total"] / row["calls"] if row else 0.0

    def calls(name):
        return rows[name]["calls"] if name in rows else 0

    emap = cap["emap"]
    four_cuts = calls("chordstore.ChordStore.apply_four_cut")
    return {
        "sampler.self_s": self_s("sampler.sample_tour"),
        "multigraph.eulerian_s": self_s(
            "multigraph.eulerian_violation", "multigraph.validate_eulerian"
        ),
        "multigraph.suppress_s": self_s("multigraph.suppress_degree_one"),
        "multigraph.suppressed_arcs": cap["suppressed"],
        "multigraph.lift_s": self_s("multigraph.lift_suppressed"),
        "multigraph.tour_validate_s": self_s("multigraph.Tour.validate_in"),
        "multigraph.hierholzer_s": self_s("multigraph.hierholzer_tour"),
        "switchnet.expand_s": self_s("switchnet.expand_graph"),
        "switchnet.project_s": self_s("switchnet.project_tour"),
        "switchnet.gadgets": len(emap.gadgets),
        "switchnet.switches": sum(g.net.r for g in emap.gadgets),
        "switchnet.expanded_arcs": emap.star.m,
        "chordstore.build_s": self_s("chordstore.ChordStore"),
        "chordstore.query_us": mean_us("chordstore.ChordStore.crossing_query"),
        "chordstore.repair_us": mean_us("chordstore.ChordStore.sample_repair"),
        "chordstore.four_cut_us": mean_us("chordstore.ChordStore.apply_four_cut"),
        "chordstore.four_cuts": four_cuts,
        "chordstore.validate_s": self_s("chordstore.ChordStore.validate"),
        "chordstore.validations": calls("chordstore.ChordStore.validate"),
        "chordstore.array_mb": array_bytes(cap["store"]) / 2**20,
        "walk.steps": steps,
        "walk.step_us": mean_us("walk.step_fast"),
        "walk.self_s": self_s("walk.run_walk", "walk.step_fast", "walk.mixing_steps"),
        "walk.accept_ratio": four_cuts / steps if steps else 0.0,
    }
