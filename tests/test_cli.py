import json
from pathlib import Path

import pytest

from tourwalk.cli import main
from tourwalk.multigraph import graph_from_text, validate_eulerian


@pytest.fixture()
def cycle5(tmp_path):
    path = tmp_path / "cycle5.g"
    path.write_text("5 5\n0 1\n1 2\n2 3\n3 4\n4 0\n")
    return path


@pytest.fixture()
def triangle(tmp_path):
    path = tmp_path / "tri.g"
    path.write_text("3 6\n0 1\n1 0\n1 2\n2 1\n2 0\n0 2\n")
    return path


def test_sample_directed_cycle(cycle5, tmp_path, capsys):
    out = tmp_path / "tour.txt"
    rc = main(
        [
            "sample",
            "--graph",
            str(cycle5),
            "--eps",
            "0.1",
            "--seed",
            "7",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    assert out.read_text().strip() == "0 1 2 3 4"
    manifest = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert manifest["command"] == "sample"
    assert manifest["results"]["steps"] == 0


def test_sample_manifest_carries_walk_block(triangle, tmp_path):
    manifest = tmp_path / "m.json"
    rc = main(
        ["sample", "--graph", str(triangle), "--eps", "0.2", "--seed", "3",
         "--manifest", str(manifest)]
    )
    assert rc == 0
    results = json.loads(manifest.read_text())["results"]
    walk = results["walk"]
    assert walk["steps"] == results["steps"] > 0
    assert 0.0 <= walk["self_loop_fraction"] <= 1.0
    assert walk["mean_crossings"] >= 0.0
    assert walk["validations"] >= 1
    assert walk["store"] == "flat"
    assert "fallback" not in results


def test_sample_malformed_expansion_exits_one(triangle, malformed_expansion, capsys):
    assert main(["sample", "--graph", str(triangle), "--eps", "0.1", "--seed", "5"]) == 1
    assert "internal assertion:" in capsys.readouterr().err


def test_sample_missing_file_exits_two(tmp_path):
    assert main(["sample", "--graph", str(tmp_path / "nope.g")]) == 2


def test_sample_bad_graph_exits_two(tmp_path):
    bad = tmp_path / "bad.g"
    bad.write_text("2 1\n0 1\n")
    assert main(["sample", "--graph", str(bad)]) == 2


@pytest.mark.parametrize("runs", ["0", "-1"])
@pytest.mark.parametrize("tv", [[], ["--tv-against-census"]], ids=["plain", "tv"])
def test_sample_rejects_runs_below_one(triangle, tmp_path, capsys, runs, tv):
    manifest = tmp_path / "manifest.json"
    argv = ["sample", "--graph", str(triangle), "--runs", runs, "--manifest", str(manifest)]
    assert main(argv + tv) == 2
    assert capsys.readouterr().err == "error: --runs must be at least 1\n"
    assert not manifest.exists()


def test_sample_runs_with_tv(triangle, capsys):
    rc = main(
        [
            "sample",
            "--graph",
            str(triangle),
            "--eps",
            "0.2",
            "--seed",
            "3",
            "--runs",
            "400",
            "--tv-against-census",
        ]
    )
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    manifest = json.loads(lines[-1])
    assert manifest["results"]["census"] == 3
    assert manifest["results"]["empirical_tv"] <= 0.2 / 2 + 3 * (3 / 400) ** 0.5


def test_manifest_reproducibility(cycle5, tmp_path):
    out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (out1, out2):
        rc = main(
            [
                "sample",
                "--graph",
                str(cycle5),
                "--eps",
                "0.1",
                "--seed",
                "99",
                "--out",
                str(out),
                "--manifest",
                str(out) + ".json",
            ]
        )
        assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()
    m1 = json.loads(Path(str(out1) + ".json").read_text())
    m2 = json.loads(Path(str(out2) + ".json").read_text())
    assert m1["results"]["tour"] == m2["results"]["tour"]
    assert m1["seed"] == m2["seed"] == 99


def test_gen_regular2_validates(tmp_path, capsys):
    out = tmp_path / "g.txt"
    rc = main(["gen", "--model", "regular2", "--n", "4", "--seed", "1", "--out", str(out)])
    assert rc == 0
    g = graph_from_text(out.read_text())
    assert g.m == 8
    assert g.is_degree_two()
    assert validate_eulerian(g)


def test_gen_regular2_single_vertex_two_loops(tmp_path):
    out = tmp_path / "loops.txt"
    assert main(["gen", "--model", "regular2", "--n", "1", "--seed", "0", "--out", str(out)]) == 0
    g = graph_from_text(out.read_text())
    assert g.m == 2 and g.arc(0) == (0, 0) and g.arc(1) == (0, 0)


def test_gen_bidirected_triangle(tmp_path):
    out = tmp_path / "tri.txt"
    assert main(
        ["gen", "--model", "bidirected", "--n", "3", "--extra", "1", "--seed", "5", "--out", str(out)]
    ) == 0
    g = graph_from_text(out.read_text())
    assert g.m == 6
    assert sorted({g.arc(e) for e in range(6)}) == [
        (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1),
    ]


def test_count_both_methods(triangle, capsys):
    assert main(["count", "--graph", str(triangle), "--method", "enumerate"]) == 0
    first = json.loads(capsys.readouterr().out.splitlines()[0])
    assert first["count"] == 3
    assert main(["count", "--graph", str(triangle), "--method", "best"]) == 0
    second = json.loads(capsys.readouterr().out.splitlines()[0])
    assert second["count"] == 3


def test_verify_quick_suite(capsys):
    rc = main(["verify", "--suite", "oracle"])
    assert rc == 0
    out = capsys.readouterr().out
    records = [json.loads(x) for x in out.strip().splitlines() if x.startswith("{\"check\"")]
    assert records and all(r["pass"] for r in records)


def test_verify_unknown_suite_exits_two():
    assert main(["verify", "--suite", "bogus"]) == 2


def test_bench_header_only_when_zero_steps(tmp_path):
    out = tmp_path / "bench.csv"
    rc = main(
        ["bench", "--m-ladder", "64,128", "--steps", "0", "--seed", "1", "--out", str(out)]
    )
    assert rc == 0
    assert out.read_text().strip() == "impl,M,B,steps,ns_per_step,build_s"


@pytest.mark.parametrize(
    "argv, words",
    [
        (["--m-ladder", "7", "--steps", "5"], "m must be even"),
        (["--m-ladder", "64", "--steps", "5", "--impl", "foo"], "impl must be"),
    ],
)
def test_bench_usage_error_exits_two(argv, words, capsys):
    assert main(["bench", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and words in err


def test_bench_small_ladder(tmp_path):
    out = tmp_path / "bench.csv"
    rc = main(
        [
            "bench",
            "--m-ladder",
            "64,128",
            "--steps",
            "40",
            "--seed",
            "1",
            "--impl",
            "fast,flat,naive",
            "--validate-store",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 7  # header + 3 impls x 2 sizes
    assert lines[1].startswith("fast,64,")
    assert lines[3].startswith("flat,64,64,")  # one chunk: B = M
    assert lines[5].startswith("naive,64,0,")


def test_b_override_sweep_runs(tmp_path):
    for b in (4, 8, 16):
        rc = main(
            [
                "bench",
                "--m-ladder",
                "256",
                "--steps",
                "30",
                "--seed",
                "2",
                "--b-override",
                str(b),
                "--out",
                str(tmp_path / f"b{b}.csv"),
            ]
        )
        assert rc == 0
