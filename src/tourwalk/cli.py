"""Command-line entry point: sample, verify, gen, count, bench.

Every run emits a manifest (JSON) echoing the command, configuration, seed,
library versions, timings, and result paths, so outputs can be reproduced
bit-exactly from the manifest alone.  All randomness flows from --seed;
batch runs derive per-run seeds as seed XOR run-index.

Exit codes: 0 success, 1 assertion or theorem violation, 2 usage or input.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .bench import bench_rung, csv_rows
from .generators import gen_bidirected, gen_random_eulerian, gen_regular2
from .multigraph import (
    graph_from_text,
    graph_to_text,
    tour_to_text,
)
from .oracle import best_count, empirical_tv, enumerate_tours
from .rng import derived_seed
from .sampler import SampleConfig, sample_tour
from .verify import run_suite


def _manifest(command: str, config: dict, seed, timings: dict, results: dict) -> dict:
    return {
        "command": command,
        "config": config,
        "seed": seed,
        "versions": {
            "tourwalk": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "timings": timings,
        "results": results,
    }


def _emit_manifest(manifest: dict, path: str | None) -> None:
    text = json.dumps(manifest, sort_keys=True)
    if path:
        Path(path).write_text(text + "\n")
    else:
        print(text)


def cmd_sample(args) -> int:
    if args.runs < 1:
        print("error: --runs must be at least 1", file=sys.stderr)
        return 2
    try:
        text = Path(args.graph).read_text()
    except OSError as exc:
        print(f"error: cannot read graph file: {exc}", file=sys.stderr)
        return 2
    try:
        g = graph_from_text(text)
    except ValueError as exc:
        print(f"error: bad graph file: {exc}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    results: dict = {}
    try:
        reports = []
        for i in range(args.runs):
            cfg = SampleConfig(
                eps=args.eps,
                seed=derived_seed(args.seed, i),
                c_mix=args.c_mix,
                step_override=args.steps,
            )
            reports.append(sample_tour(g, cfg))
        if args.runs == 1:
            report = reports[0]
            if args.out:
                Path(args.out).write_text(tour_to_text(report.tour))
                results["tour_path"] = args.out
            if args.report:
                Path(args.report).write_text(json.dumps(report.to_json_dict()) + "\n")
                results["report_path"] = args.report
            results["tour"] = list(report.tour.arcs)
            results["steps"] = report.steps
            results["walk"] = report.to_json_dict()["walk"]
        else:
            results["runs"] = args.runs
            if args.tv_against_census:
                census = enumerate_tours(g)
                tv = empirical_tv([r.tour for r in reports], census)
                results["census"] = census.count
                results["empirical_tv"] = tv
                print(f"empirical TV over {census.count} tours: {tv:.4f}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal assertion: {exc}", file=sys.stderr)
        return 1
    timings = {"total": time.perf_counter() - t0}
    _emit_manifest(
        _manifest("sample", _echo(args), args.seed, timings, results), args.manifest
    )
    return 0


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    kwargs = {}
    if args.suite == "skewdet":
        kwargs = {"n_max": args.n_max, "seeds": args.seeds}
    elif args.suite in ("chords", "chain"):
        kwargs = {"max_arcs": args.max_arcs, "graphs": args.graphs}
    elif args.suite == "switchnet":
        kwargs = {"constructions": args.constructions}
    try:
        records = run_suite(args.suite, **kwargs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failed = 0
    for rec in records:
        print(json.dumps(rec))
        if not rec["pass"]:
            failed += 1
    ok = failed == 0
    timings = {"total": time.perf_counter() - t0}
    _emit_manifest(
        _manifest(
            "verify",
            _echo(args),
            None,
            timings,
            {"checks": len(records), "failed": failed},
        ),
        args.manifest,
    )
    print(f"verify {args.suite}: {len(records) - failed}/{len(records)} checks passed")
    return 0 if ok else 1


def cmd_gen(args) -> int:
    t0 = time.perf_counter()
    try:
        if args.model == "regular2":
            g = gen_regular2(args.n, args.seed)
        elif args.model == "random-eulerian":
            g = gen_random_eulerian(args.n, args.r, args.seed)
        elif args.model == "bidirected":
            g = gen_bidirected(args.n, args.extra, args.seed)
        else:
            print(f"error: unknown model {args.model}", file=sys.stderr)
            return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = graph_to_text(g)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    _emit_manifest(
        _manifest(
            "gen",
            _echo(args),
            args.seed,
            {"total": time.perf_counter() - t0},
            {"n": g.n, "m": g.m, "out": args.out},
        ),
        args.manifest,
    )
    return 0


def cmd_count(args) -> int:
    try:
        g = graph_from_text(Path(args.graph).read_text())
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    try:
        if args.method == "enumerate":
            count = enumerate_tours(g).count
        else:
            count = best_count(g)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    seconds = time.perf_counter() - t0
    out = {"count": count, "method": args.method, "seconds": seconds}
    print(json.dumps(out))
    _emit_manifest(
        _manifest("count", _echo(args), None, {"total": seconds}, out), args.manifest
    )
    return 0


def cmd_bench(args) -> int:
    t0 = time.perf_counter()
    rows = []
    try:
        ms = [int(x) for x in args.m_ladder.split(",") if x]
        if args.steps > 0:
            rows = [
                bench_rung(
                    m, args.steps, args.seed, impl, args.b_override, validate=args.validate_store
                )
                for impl in args.impl.split(",")
                for m in ms
            ]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = csv_rows(rows)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    _emit_manifest(
        _manifest(
            "bench",
            _echo(args),
            args.seed,
            {"total": time.perf_counter() - t0},
            {"rows": len(rows), "out": args.out},
        ),
        args.manifest,
    )
    return 0


def _echo(args) -> dict:
    return {k: v for k, v in vars(args).items() if k != "func"}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="tourwalk", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    ps = sub.add_parser("sample", help="sample a near-uniform Eulerian tour")
    ps.add_argument("--graph", required=True)
    ps.add_argument("--eps", type=float, default=0.1)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--runs", type=int, default=1)
    ps.add_argument("--tv-against-census", action="store_true")
    ps.add_argument("--c-mix", type=float, default=4.0)
    ps.add_argument("--steps", type=int, default=None, help="override the step schedule")
    ps.add_argument("--out", help="tour output path")
    ps.add_argument("--report", help="sample report JSON path")
    ps.add_argument("--manifest", help="manifest path (default: stdout)")
    ps.set_defaults(func=cmd_sample)

    pv = sub.add_parser("verify", help="run a named verification suite")
    pv.add_argument(
        "--suite",
        required=True,
        choices=["skewdet", "chords", "chain", "switchnet", "covering", "oracle", "all"],
    )
    pv.add_argument("--n-max", type=int, default=8)
    pv.add_argument("--seeds", type=int, default=20)
    pv.add_argument("--max-arcs", type=int, default=12)
    pv.add_argument("--graphs", type=int, default=50)
    pv.add_argument("--constructions", type=int, default=200)
    pv.add_argument("--manifest")
    pv.set_defaults(func=cmd_verify)

    pg = sub.add_parser("gen", help="generate an Eulerian test graph")
    pg.add_argument("--model", required=True, choices=["regular2", "random-eulerian", "bidirected"])
    pg.add_argument("--n", type=int, required=True)
    pg.add_argument("--r", type=int, default=2, help="permutations for random-eulerian")
    pg.add_argument("--extra", type=int, default=1, help="extra edges for bidirected")
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--out")
    pg.add_argument("--manifest")
    pg.set_defaults(func=cmd_gen)

    pc = sub.add_parser("count", help="count Eulerian tours exactly")
    pc.add_argument("--graph", required=True)
    pc.add_argument("--method", choices=["enumerate", "best"], default="best")
    pc.add_argument("--manifest")
    pc.set_defaults(func=cmd_count)

    pb = sub.add_parser("bench", help="per-step cost ladder")
    pb.add_argument("--m-ladder", default="360,10000,40000,160000")
    pb.add_argument("--steps", type=int, default=300)
    pb.add_argument("--seed", type=int, default=0)
    pb.add_argument("--impl", default="fast", help="comma list of fast,flat,naive")
    pb.add_argument("--b-override", type=int, default=None)
    pb.add_argument(
        "--validate-store",
        action="store_true",
        help="run the debug validator after each store rung",
    )
    pb.add_argument("--out")
    pb.add_argument("--manifest")
    pb.set_defaults(func=cmd_bench)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except AssertionError as exc:
        print(f"internal assertion: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
