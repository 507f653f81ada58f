"""Seconds per sampled tour, with set-up time and peak memory.

    python3 perfbench/run.py --workload gadget6c --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

For each workload this script builds the input graph from the seed, writes
it under perfbench/out/graphs/, and starts worker.py in a fresh single-
threaded process that imports tourwalk from src/, parses the graph with
graph_from_text and runs sample_tour until the run time is spent.  It then
checks every sampled tour and prints the metrics by name, with units; the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are setup_s,
tour_s and peak_rss_mb; tour_s is the run's fastest call, since the work of
a call does not change from call to call and a shared machine can only slow
a call down.  With --trace 1 they are the per-layer figures of the
traced calls plus the tracing overhead, and the spans are written under
perfbench/out/traces/.  With --workload all the JSON object sums the counts
and names each metric <workload>.<metric>.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKER_TIMEOUT_S = 170

END_TO_END_UNITS = {"setup_s": "s", "tour_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "sampler.self_s": "s",
    "multigraph.parse_s": "s",
    "multigraph.eulerian_s": "s",
    "multigraph.suppress_s": "s",
    "multigraph.suppressed_arcs": "count",
    "multigraph.lift_s": "s",
    "multigraph.tour_validate_s": "s",
    "multigraph.hierholzer_s": "s",
    "switchnet.expand_s": "s",
    "switchnet.project_s": "s",
    "switchnet.gadgets": "count",
    "switchnet.switches": "count",
    "switchnet.expanded_arcs": "count",
    "chordstore.build_s": "s",
    "chordstore.query_us": "us",
    "chordstore.repair_us": "us",
    "chordstore.four_cut_us": "us",
    "chordstore.four_cuts": "count",
    "chordstore.validate_s": "s",
    "chordstore.validations": "count",
    "chordstore.array_mb": "MB",
    "walk.steps": "count",
    "walk.step_us": "us",
    "walk.self_s": "s",
    "walk.accept_ratio": "ratio",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}


def run_worker(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    inst = inputs.make_instance(workload, seed)
    stem = f"{workload}-seed{seed}"
    for sub in ("graphs", "results", "traces"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)
    graph_path = OUT / "graphs" / f"{stem}.txt"
    graph_path.write_text(inst.to_text())
    result_path = OUT / "results" / f"{stem}-trace{int(traced)}.json"
    spans_path = OUT / "traces" / f"{stem}.jsonl" if traced else "-"
    env = dict(os.environ, PYTHONHASHSEED="0")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    argv = [sys.executable, str(WORKER), str(SRC), str(graph_path), str(result_path)]
    argv += [str(spans_path), workload, str(seed), str(seconds), repr(time.monotonic())]
    proc = subprocess.run(argv, env=env, stdout=sys.stderr, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited with code {proc.returncode}")
    result = json.loads(result_path.read_text())
    result["instance"] = inst
    return result


def evaluate(workload: str, result: dict, traced: bool) -> tuple[bool, int, int, dict, list[str]]:
    """Check the worker's outputs; return (correct, attempted, failed, metrics, notes)."""
    spec = inputs.WORKLOADS[workload]
    arcs = result["instance"].arcs
    notes: list[str] = []
    tour_defects = [checks.tour_defect(arcs, t) for t in result["tours"]]
    canon = [checks.canonical(t) for t in result["tours"]]
    census = None
    if spec.census_core is not None:
        from tourwalk import DirectedMultigraph, best_count, enumerate_tours

        graph = DirectedMultigraph(result["instance"].n, arcs)
        census = [checks.canonical(list(t.arcs)) for t in enumerate_tours(graph).tours]
        core = DirectedMultigraph(1 + max(max(a) for a in spec.census_core), spec.census_core)
        defect = checks.census_size_defect(len(census), best_count(core))
        if defect:
            notes.append(defect)
    correct = not notes
    failed = 0
    untraced = []  # canonical tours of the untraced calls that passed
    for call in result["calls"]:
        defect = call["error"] or tour_defects[call["tour"]] or call.get("flip_defect")
        if defect is None and census is not None and canon[call["tour"]] not in census:
            defect = "tour outside the census"
        if defect:
            failed += 1
            notes.append(f"seed {call['seed']}: {defect}")
        elif not call["traced"]:
            untraced.append(canon[call["tour"]])
    if spec.uniformity_tv is not None:
        defect = checks.uniformity_defect(untraced, census, spec.uniformity_tv)
        if defect:
            correct = False
            notes.append(defect)
    if traced:
        pairs = [
            sorted(pair, key=lambda c: c["traced"])
            for pair in zip(result["calls"][::2], result["calls"][1::2])
        ]
        if any(a.get("tour") != b.get("tour") for a, b in pairs):
            correct = False
            notes.append("a traced call returned another tour than the untraced one")
        over = [b["seconds"] - a["seconds"] for a, b in pairs]
        metrics = dict(result["layers"])
        metrics["multigraph.parse_s"] = result["parse_s"]
        metrics["trace.overhead_s"] = statistics.median(over)
        metrics["trace.overhead_share"] = statistics.median(
            (b["seconds"] - a["seconds"]) / a["seconds"] for a, b in pairs
        )
        units = LAYER_UNITS
    else:
        metrics = {
            "setup_s": result["setup_s"],
            "tour_s": min(c["seconds"] for c in result["calls"]),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
    named = {k: {"value": metrics[k], "unit": u} for k, u in units.items()}
    return correct, len(result["calls"]), failed, named, notes


def run_one(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    result = run_worker(workload, seed, seconds, traced)
    correct, attempted, failed, metrics, notes = evaluate(workload, result, traced)
    print(f"{workload} seed {seed}: {attempted} sample_tour calls attempted, {failed} failed, "
          f"{'correct' if correct else 'NOT CORRECT'}")
    for note in notes:
        print(f"  check: {note}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=[*inputs.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "tourwalk" / "__init__.py").is_file():
        print(f"error: no tourwalk sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(inputs.WORKLOADS) if args.workload == "all" else [args.workload]
    out = {}
    try:
        for name in names:
            out[name] = run_one(name, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        summary = {
            "correct": all(r["correct"] for r in out.values()),
            "attempted": sum(r["attempted"] for r in out.values()),
            "failed": sum(r["failed"] for r in out.values()),
            "metrics": {f"{w}.{k}": m for w, r in out.items() for k, m in r["metrics"].items()},
        }
    else:
        summary = out[args.workload]
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
