"""One workload's measuring process, started by run.py.

Usage: worker.py SRC GRAPH RESULT SPANS WORKLOAD SEED SECONDS SPAWNED

Set-up is timed from SPAWNED, the parent's time.monotonic() just before it
started this process, to the end of parsing GRAPH, so it covers interpreter
start, importing tourwalk from SRC and reading the graph file; nothing else
is imported before that.  The process then runs rounds of sample_tour until
the next round would end past SECONDS (but at least the workload's minimum)
and writes what it saw to RESULT as JSON; run.py checks it.  Unless SPANS is
"-", a round is an untraced and a traced call on the same seed, each first
in turn, and the traced calls' spans go to SPANS as JSON lines
[call, index, name, start, end, parent]; call 0 is the parse.
"""

import sys
import time


def main(argv: list[str]) -> int:
    src, graph_path, result_path, spans_path, workload, seed, seconds, spawned = argv
    sys.path.insert(0, src)
    import tourwalk
    from tourwalk import multigraph

    with open(graph_path) as fh:
        text = fh.read()
    t_parse = time.perf_counter()
    graph = multigraph.graph_from_text(text)
    parse_s = time.perf_counter() - t_parse
    setup_s = time.monotonic() - float(spawned)

    import dataclasses
    import gc
    import json
    import resource
    import statistics
    from pathlib import Path
    from types import SimpleNamespace

    import checks
    import inputs
    from spans import Recording, layer_metrics
    from tourwalk import chordstore, sampler, switchnet, walk

    if not Path(tourwalk.__file__).resolve().is_relative_to(Path(src).resolve()):
        print(f"tourwalk was imported from {tourwalk.__file__}, not from {src}", file=sys.stderr)
        return 1
    tw = SimpleNamespace(
        sampler=sampler, multigraph=multigraph, switchnet=switchnet, walk=walk, chordstore=chordstore
    )
    spec = inputs.WORKLOADS[workload]
    traced_mode = spans_path != "-"
    tours: dict[tuple[int, ...], int] = {}
    calls: list[dict] = []
    layers: list[dict] = []
    recordings: list[Recording] = []

    def one_call(sample_seed: int, rec: Recording | None) -> dict:
        cfg = sampler.SampleConfig(eps=inputs.EPS, seed=sample_seed, step_override=spec.step_override)
        if spec.c_mix is not None:
            cfg = dataclasses.replace(cfg, c_mix=spec.c_mix)
        row = {"seed": sample_seed, "traced": rec is not None, "error": None}
        gc.collect()  # no call pays for, or peaks on top of, the garbage of the one before
        t0 = time.perf_counter()
        try:
            if rec is None:
                report = sampler.sample_tour(graph, cfg)
            else:
                with rec:
                    report = sampler.sample_tour(graph, cfg)
        except Exception as exc:  # a failed call is counted, not fatal
            row["seconds"] = time.perf_counter() - t0
            row["error"] = f"{type(exc).__name__}: {exc}"
            return row
        row["seconds"] = time.perf_counter() - t0
        row["tour"] = tours.setdefault(report.tour.arcs, len(tours))
        row["timings"] = report.timings
        if rec is not None:
            star, start = rec.captured["start"]
            row["flip_defect"] = checks.flip_defect(
                multigraph,
                star,
                start,
                rec.captured["pairs"],
                rec.captured["final"],
                queries=rec.by_name()["chordstore.ChordStore.crossing_query"]["calls"],
                steps=report.steps,
            )
            layers.append(layer_metrics(rec, report.steps))
            recordings.append(rec)
        return row

    seeds = inputs.sample_seeds(workload, int(seed))
    t_run = time.perf_counter()
    rounds = 0
    while True:
        s = next(seeds)
        if not traced_mode:
            calls.append(one_call(s, None))
        elif rounds % 2 == 0:  # alternate the order, so neither side always runs warm
            calls += [one_call(s, None), one_call(s, Recording(tw))]
        else:
            calls += [one_call(s, Recording(tw)), one_call(s, None)]
        if rounds == 0:  # what a process that parses the graph and samples one tour holds
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        rounds += 1
        elapsed = time.perf_counter() - t_run
        if rounds >= spec.min_rounds and elapsed * (rounds + 1) / rounds > float(seconds):
            break

    result = {
        "setup_s": setup_s,
        "parse_s": parse_s,
        "peak_rss_mb": peak_rss_mb,
        "calls": calls,
        "tours": [list(t) for t in tours],
    }
    if traced_mode:
        result["layers"] = {k: statistics.fmean(row[k] for row in layers) for k in layers[0]}
        with open(spans_path, "w") as fh:
            fh.write(json.dumps([0, 0, "multigraph.graph_from_text", t_parse, t_parse + parse_s, -1]))
            fh.write("\n")
            for call, rec in enumerate(recordings, 1):
                for idx, (name, start, end, parent) in enumerate(rec.spans):
                    fh.write(json.dumps([call, idx, name, start, end, parent]) + "\n")
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
