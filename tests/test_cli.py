"""End-to-end CLI behavior: output contracts, manifests and byte-identical
replay, exit-code policy, and flag hygiene."""

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import count_priced_pairs, emd_full_lp, flow_pairs, normalized
from mmlab import __version__
from mmlab.cli import main
from mmlab.concentration import SearchConfig, alpha_lower_bound
from mmlab.generators import FAMILIES, build_space, hamming_cube
from mmlab.spaces import (ConcentrationCurve, FiniteMMSpace, alpha_exact, load_space,
                          point_space, save_space, space_to_json)
from mmlab.transport import MeasurePair, emd


def run_cli(*argv, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "mmlab.cli", *map(str, argv)],
                          capture_output=True, text=True, env=env)


@pytest.fixture(scope="module")
def cube3(tmp_path_factory):
    path = tmp_path_factory.mktemp("spaces") / "cube3.json"
    r = run_cli("generate", "--family", "hamming_cube", "--n", 3, "--out", path)
    assert r.returncode == 0, r.stderr
    return path


def test_generate_stdout_and_manifest(tmp_path):
    r = run_cli("generate", "--family", "hamming_cube", "--n", 2)
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert len(doc["weights"]) == 4

    out = tmp_path / "cube2.json"
    r = run_cli("generate", "--family", "hamming_cube", "--n", 2, "--out", out)
    assert r.returncode == 0 and out.is_file()
    man = json.loads((tmp_path / "cube2.json.manifest.json").read_text())
    assert set(man) == {"command", "argv", "inputs", "seed", "parameters",
                        "tool_version"}
    assert man["command"] == "generate"
    assert man["parameters"]["family"] == "hamming_cube"
    assert man["inputs"] == []


def test_importing_the_cli_leaves_scipy_unloaded(tmp_path):
    code = "import sys, mmlab.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"
    # nor does emd on the 4-cube, or the replay of its manifest
    p, q = np.array([0.1, 0.3, 0.6, 0.8]), np.array([0.7, 0.2, 0.5, 0.4])
    cube = hamming_cube(4)
    bits = cube.points.astype(bool)
    for name, probs in (("p.json", p), ("q.json", q)):
        mu = np.where(bits, probs, 1.0 - probs).prod(axis=1)
        (tmp_path / name).write_text(json.dumps(mu.tolist()))
    save_space(cube, tmp_path / "cube4.json")
    emd_argv = ["emd", "--space", str(tmp_path / "cube4.json"), "--mu1", str(tmp_path / "p.json"),
                "--mu2", str(tmp_path / "q.json"), "--out", str(tmp_path / "emd.json")]
    replay_argv = ["replay", "--manifest", str(tmp_path / "emd.json.manifest.json")]
    code = ("import sys\n"
            "from mmlab.cli import main\n"
            f"assert main({emd_argv!r}) == 0\n"
            f"assert main({replay_argv!r}) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip().splitlines()[-1] == "[]"
    assert json.loads((tmp_path / "emd.json").read_text())["distance"] == pytest.approx(
        float(np.abs(p - q).mean()), abs=1e-12)


def test_each_command_imports_only_its_own_modules(tmp_path):
    cube, mu = str(tmp_path / "cube.json"), str(tmp_path / "mu.json")
    save_space(hamming_cube(3), cube)
    Path(mu).write_text(json.dumps([1 / 8] * 8))
    added = {  # argv -> the mmlab modules the command adds to those of the parser
        ("validate", "--space", cube): [],
        ("emd", "--space", cube, "--mu1", mu, "--mu2", mu): ["mmlab.transport"],
        ("ramsey", "--k", "2", "--l", "3", "--r", "2", "--n", "5"): ["mmlab.dynamics"],
        ("obsdist", "--x", cube, "--y", cube, "--budget", "1"):
            ["mmlab.concentration", "mmlab.observable"],
    }
    for argv, modules in added.items():
        code = ("import json, sys\n"
                "def loaded():\n"
                "    return sorted(m for m in sys.modules if m.split('.')[0] == 'mmlab')\n"
                "import mmlab.cli\n"
                "before = loaded()\n"
                f"assert mmlab.cli.main({list(argv)!r}) == 0\n"
                "print(json.dumps([before, sorted(set(loaded()) - set(before))]))\n")
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        before, new = json.loads(r.stdout.splitlines()[-1])
        assert before == ["mmlab", "mmlab.cli", "mmlab.generators", "mmlab.spaces"]
        assert new == modules, argv


# one generate command per FAMILIES row, the _sampled rows included
GENERATE_ROWS = {
    "hamming_cube": ("--family", "hamming_cube", "--n", 3),
    "hamming_cube_sampled": ("--family", "hamming_cube", "--n", 5, "--samples", 40,
                             "--seed", 3),
    "symmetric_group": ("--family", "symmetric_group", "--n", 4),
    "symmetric_group_sampled": ("--family", "symmetric_group", "--n", 9, "--samples", 20,
                                "--seed", 1),
    "sphere": ("--family", "sphere", "--dim", 3, "--samples", 30, "--seed", 2,
               "--metric", "geodesic"),
    "so_n": ("--family", "so_n", "--n", 3, "--samples", 10, "--seed", 4),
    "sl2": ("--family", "sl2", "--p", 3),
    "product": ("--family", "product", "--base", "0.3,0.7", "--n", 4),
}


def test_every_generate_manifest_rebuilds_its_payload(tmp_path):
    assert set(GENERATE_ROWS) == set(FAMILIES)
    for family, flags in GENERATE_ROWS.items():
        out = tmp_path / f"{family}.json"
        r = run_cli("generate", *flags, "--out", out)
        assert r.returncode == 0, r.stderr
        desc = json.loads((tmp_path / f"{family}.json.manifest.json").read_text())["parameters"]
        assert desc["family"] == family
        rebuilt = json.dumps(space_to_json(build_space(desc)), sort_keys=True) + "\n"
        assert rebuilt == out.read_text(encoding="utf-8"), family


def test_point_backed_generate_files_keep_their_points(tmp_path):
    # every row but sl2, whose word metric is a matrix, writes its points,
    # and the file reads back through the same kernel, distances bit for bit
    rows = dict(GENERATE_ROWS, cube9=("--family", "hamming_cube", "--n", 9))
    for name, flags in rows.items():
        out = tmp_path / f"{name}.json"
        assert main(["generate", *map(str, flags), "--out", str(out)]) == 0
        space = build_space(json.loads(Path(f"{out}.manifest.json").read_text())["parameters"])
        metric = json.loads(out.read_text())["metric"]
        back = load_space(out)
        if name == "sl2":
            assert set(metric) == {"type", "data"} and back.metric == "matrix"
            continue
        assert set(metric) == {"type", "points"}, name
        assert back.metric == space.metric, name
        assert type(back._kernel) is type(space._kernel), name
        assert back._kernel.score_slack == space._kernel.score_slack, name
        idx = np.arange(space.n)
        assert np.array_equal(back.pairwise(idx, idx), space.pairwise(idx, idx)), name


def test_older_space_files_load(tmp_path, capsys):
    cube = hamming_cube(3)
    rot = build_space({"family": "so_n", "n": 3, "samples": 6, "seed": 1})
    dense = FiniteMMSpace(cube.labels, cube.weight, dist=cube.dist)
    path = tmp_path / "space.json"

    def write(space, **metric):
        doc = space_to_json(space)
        doc["metric"].update(metric)
        path.write_text(json.dumps(doc))

    # a matrix file, a hamming file with its "n" (ignored, even when wrong)
    # and an operator_norm file with its "side"
    for space, extra in ((dense, {}), (cube, {"n": 3}), (cube, {"n": 7}), (rot, {"side": 3})):
        write(space, **extra)
        back = load_space(path)
        assert back.metric == space.metric
        assert np.array_equal(back.dist, space.dist)
        assert main(["validate", "--space", str(path)]) == 0
    capsys.readouterr()
    # a side that disagrees with the points, points that are not square
    # matrices, with or without a side, and a metric type no kind has
    for points, extra in ((rot.points, {"side": 2}), (rot.points[:, :5], {"side": 2}),
                          (rot.points[:, :5], {}), (rot.points, {"type": "taxicab"})):
        write(rot, points=points.tolist(), **extra)
        assert main(["validate", "--space", str(path)]) == 2
        assert capsys.readouterr().err
    with pytest.raises(ValueError, match="width 5 are not square"):
        FiniteMMSpace(rot.labels, rot.weight, points=rot.points[:, :5], metric="operator_norm")


def test_negative_seed_is_refused_up_front(tmp_path, capsys):
    cube = tmp_path / "cube.json"
    save_space(hamming_cube(3), cube)
    for argv in (["leader", "--eps", "0.1", "--samples", "10"],
                 ["generate", "--family", "sphere", "--dim", "2", "--samples", "10"],
                 ["alpha", "--space", str(cube), "--eps", "0.4", "--mode", "lower"],
                 ["obsdist", "--x", str(cube), "--y", str(cube)]):
        assert main(argv + ["--seed", "-1"]) == 2, argv
        out = capsys.readouterr()
        assert out.out == "" and json.loads(out.err) == {"error": "--seed must be at least 0, got -1"}
        assert main(argv + ["--seed", "0"]) == 0, argv
        capsys.readouterr()


def test_internal_fault_exits_1(monkeypatch, capsys):
    def broken(*args):
        raise RuntimeError("broken invariant")

    monkeypatch.setattr("mmlab.dynamics.ramsey_verify", broken)
    assert main(["ramsey", "--k", "2", "--l", "3", "--r", "2", "--n", "5"]) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err.startswith("internal error:") and "broken invariant" in err


@pytest.mark.parametrize("argv, message", [
    (["alpha", "--space", "{broken}", "--eps", "0.3"], "invalid JSON in {broken}: "),
    (["median", "--space", "{cube}", "--values", "{object}"],
     "{object} must hold a JSON array of numbers"),
    (["levy", "--curves", "{missing}"], "no such file: {missing}"),
    (["essential", "--space", "{cube}", "--action", "{action}", "--set", "0,x", "--eps", "0.5",
      "--family", "0"], "expected comma-separated integers, got '0,x'"),
    (["alpha", "--space", "{cube}", "--grid", "0.1:1.0"], "--grid must be start:stop:count"),
    (["alpha", "--space", "{cube}", "--grid", "0.1:x:3"],
     "--grid must be start:stop:count with numeric fields"),
    (["essential", "--space", "{cube}", "--action", "{object}", "--set", "0", "--eps", "0.5",
      "--family", "0"], '{object} must hold {{"permutations": [...]}}'),
    (["essential", "--space", "{cube}", "--action", "{action}", "--set", "0", "--eps", "0.5",
      "--family", "0,1"], "family index 1 out of range"),
    # a nan where a positive or non-negative number is required
    (["alpha", "--space", "{cube}", "--eps", "nan"], "eps must be positive"),
    (["alpha", "--space", "{cube}", "--eps", "nan", "--mode", "lower"], "eps must be positive"),
    (["alpha", "--space", "{cube}", "--grid", "nan:0.5:2"],
     "--grid needs 0 < start <= stop and count >= 1"),
    (["tail", "--space", "{cube}", "--values", "{flat}", "--eps", "nan"], "eps must be positive"),
    (["tail", "--space", "{cube}", "--values", "{steep}", "--eps", "0.3", "--constant", "nan"],
     "Lipschitz constant must be nonnegative"),
    (["leader", "--eps", "nan", "--samples", "10"], "eps must be positive"),
    (["essential", "--space", "{cube}", "--action", "{action}", "--set", "0", "--eps", "nan",
      "--family", "0"], "eps must be nonnegative"),
    (["levy", "--curves", "{nan_curve}"], "eps grid must be strictly positive"),
    (["emd", "--space", "{cube}", "--mu1", "{nan_mu}", "--mu2", "{mu}"],
     "mu1 sums to nan, expected 1"),
    (["levy", "--curves", "{curve}", "--threshold", "nan"],
     "threshold must be a finite number, got nan"),
    (["levy", "--curves", "{curve}", "--slack", "nan"], "slack must be a finite number, got nan"),
    # an infinite stop, which numpy would spread into nan and inf
    (["alpha", "--space", "{cube}", "--grid", "0.1:inf:3"], "--grid needs a finite stop, got 'inf'"),
    # negative search budgets and thread counts
    (["obsdist", "--x", "{cube}", "--y", "{cube}", "--budget", "-1"],
     "restarts must be at least 0, got -1"),
    (["validate", "--space", "{cube}", "--threads", "0"], "--threads must be at least 1, got 0"),
    # ranges too short for their count, once computed in full and then
    # refused as a curve
    (["alpha", "--space", "{cube}", "--grid", "0.1:0.1:3"],
     "--grid must give ascending eps values, got '0.1:0.1:3'"),
    (["alpha", "--space", "{cube}", "--grid", "0.1:0.10000000000000002:3"],
     "--grid must give ascending eps values, got '0.1:0.10000000000000002:3'"),
    # a nan value, which once hid every Lipschitz violation
    (["tail", "--space", "{cube}", "--values", "{nan_mu}", "--eps", "0.3"],
     "Lipschitz values must be finite: value 0 is nan"),
    # a count whose grid alone once ran out of memory
    (["alpha", "--space", "{cube}", "--grid", "0.1:0.2:1000000000000"],
     "--grid count 1000000000000 is over the cap 10000"),
    (["generate", "--family", "sphere", "--dim", "2", "--samples", "1000000000000"],
     "sample_count 1000000000000 needs 72000000000000 bytes of samples, weights and labels "
     "(72 a point), over the budget"),
    # an infinite constant, whose product with a zero distance is nan
    (["median", "--space", "{cube}", "--values", "{flat}", "--constant", "inf"],
     "Lipschitz constant must be finite, got inf"),
])
def test_malformed_inputs_are_refused_with_their_message(tmp_path, capsys, argv, message):
    paths = {name: str(tmp_path / name) for name in ("cube", "broken", "object", "action",
                                                     "missing", "flat", "steep", "nan_curve",
                                                     "curve", "mu", "nan_mu")}
    save_space(hamming_cube(3), paths["cube"])
    Path(paths["broken"]).write_text("{not json")
    Path(paths["object"]).write_text(json.dumps({"values": [0.0] * 8}))
    Path(paths["action"]).write_text(json.dumps({"permutations": [list(range(8))]}))
    hops = np.bitwise_count(np.arange(8)) / 3.0  # 1-Lipschitz on the normalized cube
    Path(paths["flat"]).write_text(json.dumps(hops.tolist()))
    Path(paths["steep"]).write_text(json.dumps((3.0 * hops).tolist()))
    Path(paths["nan_curve"]).write_text("eps,alpha,kind\nnan,0.25,exact\n")
    Path(paths["curve"]).write_text("eps,alpha,kind\n0.3,0.25,exact\n")
    Path(paths["mu"]).write_text(json.dumps([1 / 8] * 8))
    Path(paths["nan_mu"]).write_text(json.dumps([float("nan")] + [1 / 8] * 7))
    assert main([arg.format(**paths) for arg in argv]) == 2
    out = capsys.readouterr()
    error = json.loads(out.err)["error"]
    assert out.out == "" and error.startswith(message.format(**paths)), error


def test_an_infinite_grid_stop_writes_only_its_message(cube3):
    # a process of its own, where a numpy RuntimeWarning would reach stderr
    r = run_cli("alpha", "--space", cube3, "--grid", "0.1:inf:3")
    assert r.returncode == 2 and r.stdout == ""
    lines = r.stderr.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "--grid needs a finite stop, got 'inf'"}


def test_a_one_point_grid_may_start_at_its_stop(cube3, capsys):
    assert main(["alpha", "--space", str(cube3), "--grid", "0.1:0.1:1"]) == 0
    assert capsys.readouterr().out.splitlines() == ["eps,alpha,kind", "0.1,0.5,exact"]


def test_tail_refuses_a_non_finite_distance(tmp_path, capsys):
    # once the nan stopped the Lipschitz check's argmax, and (0,2)'s
    # violation went unreported
    space = FiniteMMSpace([0, 1, 2], [1 / 3] * 3, dist=[[0.0, float("nan"), 0.1],
                                                        [float("nan"), 0.0, 1.0],
                                                        [0.1, 1.0, 0.0]])
    save_space(space, tmp_path / "space.json")
    (tmp_path / "values.json").write_text(json.dumps([0.0, 0.0, 1.0]))
    assert main(["tail", "--space", str(tmp_path / "space.json"),
                 "--values", str(tmp_path / "values.json"), "--eps", "0.5"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert json.loads(out.err) == {"error": "not a metric: non-finite distance at (0,1)"}


def test_generate_requires_family_parameters():
    cases = [
        (("hamming_cube",), "hamming_cube needs --n"),
        (("hamming_cube", "--samples", 5), "hamming_cube needs --n"),
        (("symmetric_group", "--samples", 5), "symmetric_group needs --n"),
        (("sphere", "--dim", 2), "sphere needs --dim and --samples"),
        (("sphere", "--samples", 3), "sphere needs --dim and --samples"),
        (("sphere", "--dim", 2, "--samples", 0), "sphere needs --dim and --samples"),
        (("so_n", "--n", 3), "so_n needs --n and --samples"),
        (("sl2",), "sl2 needs --p"),
        (("product", "--n", 4), "product needs --base and --n"),
        (("product", "--base", "0.2,0.3,0.5"), "product needs --base and --n"),
        # a zero is given, not missing: the builder refuses it
        (("hamming_cube", "--n", 0),
         "cube dimension 0 outside [1, 20]; use hamming_cube_sampled for larger dimensions"),
        (("product", "--base", "0.3,x", "--n", 4),
         "--base must be comma-separated numbers, got '0.3,x'"),
    ]
    for flags, message in cases:
        r = run_cli("generate", "--family", *flags)
        assert r.returncode == 2, flags
        assert json.loads(r.stderr) == {"error": message}
    # a flag the family does not take is never read
    assert run_cli("generate", "--family", "hamming_cube", "--n", 2, "--base", "x").returncode == 0


def test_validate_clean_and_violations(cube3, tmp_path):
    r = run_cli("validate", "--space", cube3)
    assert r.returncode == 0
    assert json.loads(r.stdout) == {"violations": []}

    doc = json.loads(cube3.read_text())
    dist = load_space(cube3).dist.tolist()
    dist[0][1] = 9.0
    doc["metric"] = {"type": "matrix", "data": dist}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    r = run_cli("validate", "--space", bad)
    assert r.returncode == 2
    err = json.loads(r.stderr)
    assert err["violations"]


def test_validate_reports_negative_weights_and_samples_past_its_cap(tmp_path, monkeypatch,
                                                                    capsys):
    path = str(tmp_path / "space.json")
    d = 1.0 - np.eye(3)
    save_space(FiniteMMSpace([0, 1, 2], [-0.1, 0.6, 0.5], dist=d), path)
    assert main(["validate", "--space", path]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": "space validation failed",
                                                   "violations": ["negative weight at 0"]}
    # past the cap only a seeded sample of points is checked: a self-distance
    # of 0.1 on all five points is reported on three of them
    save_space(FiniteMMSpace(range(5), np.full(5, 0.2), dist=1.0 - 0.9 * np.eye(5)), path)
    monkeypatch.setattr("mmlab.spaces._TRIANGLE_SAMPLE_CAP", 3)
    assert main(["validate", "--space", path]) == 2
    violations = json.loads(capsys.readouterr().err)["violations"]
    assert len(violations) == 3 and all("nonzero self-distance" in v for v in violations)


def test_permutation_words_past_255_symbols_validate(tmp_path):
    out = tmp_path / "s300.json"
    r = run_cli("generate", "--family", "symmetric_group", "--n", 300,
                "--samples", 513, "--out", out)
    assert r.returncode == 0, r.stderr
    points = json.loads(out.read_text())["metric"]["points"]
    assert [sorted(row) for row in points] == [list(range(300))] * 513
    r = run_cli("validate", "--space", out)
    assert r.returncode == 0, r.stderr


def test_hamming_points_must_be_non_negative_integers(tmp_path):
    base = {"labels": [0, 1], "weights": [0.5, 0.5],
            "metric": {"type": "hamming_normalized", "n": 2}}
    path = tmp_path / "space.json"
    for bad in (0.5, -1):
        base["metric"]["points"] = [[0, bad], [1, 1]]
        path.write_text(json.dumps(base))
        r = run_cli("validate", "--space", path)
        assert r.returncode == 2, bad
        assert json.loads(r.stderr)["violations"] == [
            "hamming points must be non-negative integers"]
    # points are no longer recovered from label digits
    del base["metric"]["points"]
    path.write_text(json.dumps(base))
    r = run_cli("validate", "--space", path)
    assert r.returncode == 2
    assert json.loads(r.stderr)["error"].startswith(f"malformed space file {path}")


def test_non_finite_weights_and_distances_are_refused(tmp_path):
    nan_weight = tmp_path / "nan_weight.json"
    nan_weight.write_text(json.dumps({
        "labels": [0, 1], "weights": [float("nan"), 1.0],
        "metric": {"type": "matrix", "data": [[0.0, 1.0], [1.0, 0.0]]}}))
    for cmd in (("validate",), ("alpha", "--eps", 0.5)):
        r = run_cli(*cmd, "--space", nan_weight)
        assert r.returncode == 2, cmd
        assert "weights sum to nan" in r.stderr

    for bad in (float("nan"), float("inf")):
        path = tmp_path / "bad_dist.json"
        path.write_text(json.dumps({
            "labels": [0, 1, 2], "weights": [0.25, 0.25, 0.5],
            "metric": {"type": "matrix",
                       "data": [[0.0, 1.0, 1.0], [1.0, 0.0, bad], [1.0, bad, 0.0]]}}))
        r = run_cli("validate", "--space", path)
        assert r.returncode == 2, bad
        violations = json.loads(r.stderr)["violations"]
        assert "non-finite distance at (1,2)" in violations
        assert "non-finite distance at (2,1)" in violations


def test_alpha_eps_and_grid(cube3, tmp_path):
    r = run_cli("alpha", "--space", cube3, "--eps", 0.34)
    assert r.returncode == 0
    assert json.loads(r.stdout) == {"alpha": 0.125}

    out = tmp_path / "curve.csv"
    r = run_cli("alpha", "--space", cube3, "--grid", "0.1:1.0:10", "--out", out)
    assert r.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "eps,alpha,kind"
    assert len(lines) == 11

    r = run_cli("alpha", "--space", cube3, "--eps", 0.3, "--mode", "lower")
    assert r.returncode == 0
    assert 0.0 <= json.loads(r.stdout)["alpha"] <= 0.5

    r = run_cli("alpha", "--space", cube3)
    assert r.returncode == 2
    r = run_cli("alpha", "--space", cube3, "--eps", 0.3, "--grid", "0.1:1:5")
    assert r.returncode == 2
    r = run_cli("alpha", "--space", cube3, "--grid", "0.5:0.1:5")
    assert r.returncode == 2


def test_alpha_eps_is_a_one_point_curve(cube3, tmp_path):
    # a single --eps runs the same mode dispatch as --grid, and prints the
    # library's value in either mode
    space = load_space(cube3)
    want = {"exact": alpha_exact(space, 0.3),
            "lower": alpha_lower_bound(space, 0.3, SearchConfig(seed=4))}
    for mode, value in want.items():
        out = tmp_path / f"{mode}.json"
        r = run_cli("alpha", "--space", cube3, "--eps", 0.3, "--mode", mode,
                    "--seed", 4, "--out", out)
        assert r.returncode == 0, r.stderr
        assert out.read_text() == json.dumps({"alpha": value}) + "\n"
        man = json.loads(Path(str(out) + ".manifest.json").read_text())
        assert man["parameters"] == {"mode": mode, "cap": 20, "eps": 0.3}
        r = run_cli("alpha", "--space", cube3, "--eps", 0, "--mode", mode)
        assert r.returncode == 2
        assert json.loads(r.stderr) == {"error": "eps must be positive"}


def test_fit_and_levy_pipeline(tmp_path):
    # exact mode stays under the enumeration cap; big-cube curves come from
    # the dedicated fast path exercised in the library tests and scripts
    curves = []
    for n in (2, 3, 4):
        space = tmp_path / f"cube{n}.json"
        run_cli("generate", "--family", "hamming_cube", "--n", n, "--out", space)
        curve = tmp_path / f"c{n}.csv"
        r = run_cli("alpha", "--space", space, "--grid", "0.1:0.5:5",
                    "--out", curve)
        assert r.returncode == 0
        curves.append(curve)

    r = run_cli("fit", "--curves", *curves, "--indices", 2, 3, 4)
    assert r.returncode == 0
    fit = json.loads(r.stdout)
    assert set(fit) == {"c1", "c2", "residual"}
    assert np.isfinite([fit["c1"], fit["c2"], fit["residual"]]).all()

    r = run_cli("levy", "--curves", *curves)
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert set(out) == {"is_levy_trend", "eps", "table", "threshold", "slack"}
    assert len(out["table"]) == 3 and len(out["table"][0]) == 5

    r = run_cli("fit", "--curves", *curves, "--indices", 2, 3)
    assert r.returncode == 2


def test_emd_roundtrip(cube3, tmp_path):
    mu1 = tmp_path / "mu1.json"
    mu2 = tmp_path / "mu2.json"
    mu1.write_text(json.dumps([1, 0, 0, 0, 0, 0, 0, 0]))
    mu2.write_text(json.dumps([0, 0, 0, 0, 0, 0, 0, 1]))
    r = run_cli("emd", "--space", cube3, "--mu1", mu1, "--mu2", mu2)
    assert r.returncode == 0
    assert json.loads(r.stdout)["distance"] == pytest.approx(1.0, abs=1e-9)

    r = run_cli("emd", "--space", cube3, "--mu1", mu1, "--mu2", mu2, "--coupling")
    joint = np.asarray(json.loads(r.stdout)["coupling"])
    assert joint.shape == (8, 8)
    assert joint.sum() == pytest.approx(1.0, abs=1e-9)

    mu_bad = tmp_path / "short.json"
    mu_bad.write_text(json.dumps([0.5, 0.5]))
    r = run_cli("emd", "--space", cube3, "--mu1", mu_bad, "--mu2", mu2)
    assert r.returncode == 2


def test_emd_coupling_payload_is_an_optimal_coupling(cube3, tmp_path):
    # the payload is one optimal coupling among many: pin its marginals and
    # cost, not its entries
    mu1 = np.array([4, 1, 1, 0, 2, 0, 0, 0]) / 8.0
    mu2 = np.array([0, 1, 0, 2, 0, 1, 1, 3]) / 8.0
    files = []
    for name, mu in (("mu1.json", mu1), ("mu2.json", mu2)):
        files.append(tmp_path / name)
        files[-1].write_text(json.dumps(mu.tolist()))
    r = run_cli("emd", "--space", cube3, "--mu1", files[0], "--mu2", files[1], "--coupling")
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    joint = np.asarray(out["coupling"])
    assert np.allclose(joint.sum(axis=1), mu1, atol=1e-12)
    assert np.allclose(joint.sum(axis=0), mu2, atol=1e-12)
    assert (joint >= 0).all()
    cube = hamming_cube(3)
    assert float((joint * cube.dist).sum()) == pytest.approx(out["distance"], abs=1e-12)
    assert out["distance"] == pytest.approx(
        emd_full_lp(cube, MeasurePair(mu1, mu2)), abs=1e-12)


def test_emd_over_pricing_rounds_replays_byte_for_byte(tmp_path, monkeypatch):
    # a 40-point cloud whose simplex prices its pos x neg pairs over and
    # over, before the certificate prices all 1,600 pairs once
    rng = np.random.default_rng(7)
    cloud = FiniteMMSpace(list(range(40)), normalized(rng.integers(1, 10, 40)),
                          points=rng.normal(size=(40, 3)), metric="euclidean")
    pair = MeasurePair(normalized(rng.integers(1, 10, 40)), normalized(rng.integers(1, 10, 40)))
    priced = count_priced_pairs(monkeypatch)
    emd(cloud, pair)
    assert priced[0] > 2 * flow_pairs(pair) + 40 * 40

    space = tmp_path / "cloud.json"
    save_space(cloud, space)
    argv = ["emd", "--space", space, "--coupling", "--out", tmp_path / "emd.json"]
    for name, mu in (("mu1", pair.mu1), ("mu2", pair.mu2)):
        (tmp_path / f"{name}.json").write_text(json.dumps(mu.tolist()))
        argv += [f"--{name}", tmp_path / f"{name}.json"]
    assert run_cli(*argv).returncode == 0
    original = (tmp_path / "emd.json").read_bytes()
    (tmp_path / "emd.json").unlink()
    r = run_cli("replay", "--manifest", tmp_path / "emd.json.manifest.json")
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "emd.json").read_bytes() == original
    out = json.loads(original)
    assert abs(out["distance"] - emd_full_lp(cloud, pair)) <= 1e-12 * float(cloud.dist.max())
    assert np.allclose(np.asarray(out["coupling"]).sum(axis=0), pair.mu2, rtol=0, atol=1e-12)


def test_obsdist_output(cube3, tmp_path):
    other = tmp_path / "cube2.json"
    run_cli("generate", "--family", "hamming_cube", "--n", 2, "--out", other)
    r = run_cli("obsdist", "--x", cube3, "--y", other, "--budget", 3)
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert set(out) == {"upper", "anchors", "coupling"}
    assert 0.0 <= out["upper"] <= 1.0


def test_obsdist_refuses_an_oversized_pair(tmp_path):
    # two 10-cubes: 2,048 members on the product coupling's 1,048,576 cells
    cube = tmp_path / "cube10.json"
    r = run_cli("generate", "--family", "hamming_cube", "--n", 10, "--out", cube)
    assert r.returncode == 0, r.stderr
    r = run_cli("obsdist", "--x", cube, "--y", cube, "--budget", 1)
    assert r.returncode == 2 and r.stdout == ""
    assert "1024 x 1024 cells take 2147483648 entries" in r.stderr


def test_median_and_tail(cube3, tmp_path):
    vals = tmp_path / "vals.json"
    vals.write_text(json.dumps(
        (np.bitwise_count(np.arange(8)) / 3.0).tolist()))
    r = run_cli("median", "--space", cube3, "--values", vals)
    assert r.returncode == 0
    assert json.loads(r.stdout)["median"] == pytest.approx(1 / 3, abs=1e-12)

    r = run_cli("tail", "--space", cube3, "--values", vals, "--eps", 0.34)
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["holds"] and out["bound_kind"] == "exact"

    steep = tmp_path / "steep.json"
    steep.write_text(json.dumps([0, 9, 9, 18, 9, 18, 18, 27]))
    r = run_cli("tail", "--space", cube3, "--values", steep, "--eps", 0.34)
    assert r.returncode == 2  # not 1-Lipschitz


def test_essential_command(cube3, tmp_path):
    rot = ((np.arange(8) << 1) | (np.arange(8) >> 2)) & 7
    action = tmp_path / "action.json"
    action.write_text(json.dumps({"permutations": [rot.tolist()]}))
    r = run_cli("essential", "--space", cube3, "--action", action,
                "--set", "0,1", "--eps", 0.34, "--family", "0")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert set(out) == {"essential", "witness"}
    assert out["essential"] is True and out["witness"] == 0

    r = run_cli("essential", "--space", cube3, "--action", action,
                "--set", "0,99", "--eps", 0.34, "--family", "0")
    assert r.returncode == 2


def test_leader_command():
    r = run_cli("leader", "--eps", 0.1)
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["inessential_certified"] is True
    assert "violations" not in out

    r = run_cli("leader", "--eps", 0.12, "--dim-half", 30, "--samples", 1000)
    out = json.loads(r.stdout)
    assert out["violations"] == 0 and out["sample_count"] == 1000

    r = run_cli("leader", "--eps", 0.5, "--dim-half", 30, "--samples", 10)
    assert r.returncode == 2


def test_leader_refuses_zero_dimension():
    # with no coordinates every norm is zero, so sampling would never end
    r = subprocess.run([sys.executable, "-m", "mmlab.cli", "leader", "--eps", "0.1",
                        "--dim-half", "0", "--samples", "10"],
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 2
    assert json.loads(r.stderr) == {"error": "dim_half must be at least 1"}


def test_leader_refuses_a_negative_sample_count():
    r = run_cli("leader", "--eps", 0.1, "--samples", -5)
    assert r.returncode == 2 and r.stdout == ""
    assert json.loads(r.stderr) == {
        "error": "--samples must be at least 0 (0 means certificate only), got -5"}
    r = run_cli("leader", "--eps", 0.1, "--samples", 0)
    assert r.returncode == 0 and "violations" not in json.loads(r.stdout)


def test_leader_output_and_replay_are_pinned_bytes(tmp_path, monkeypatch, capsys):
    argv = ["leader", "--eps", "0.1", "--dim-half", "150", "--samples", "20000",
            "--seed", "1"]
    payload = ('{"inessential_certified": true, "sample_count": 20000, '
               '"threshold": 0.12975651199692184, "violations": 0}\n')
    assert main(argv) == 0
    assert capsys.readouterr().out == payload

    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--out", "leader.json"]) == 0
    manifest = ('{"argv": ["leader", "--eps", "0.1", "--dim-half", "150", "--samples", '
                '"20000", "--seed", "1", "--out", "leader.json"], "command": "leader", '
                '"inputs": [], "parameters": {"dim_half": 150, "eps": 0.1, '
                f'"samples": 20000}}, "seed": 1, "tool_version": "{__version__}"}}\n')
    assert (tmp_path / "leader.json").read_text(encoding="utf-8") == payload
    assert (tmp_path / "leader.json.manifest.json").read_text(encoding="utf-8") == manifest
    (tmp_path / "leader.json").unlink()
    assert main(["replay", "--manifest", "leader.json.manifest.json"]) == 0
    assert (tmp_path / "leader.json").read_text(encoding="utf-8") == payload


def test_every_emitting_command_pins_its_manifest(tmp_path, monkeypatch, capsys):
    # inputs are the file flags in table order; parameters are the other flags
    # that hold a value, defaults included, or generate's family descriptor
    monkeypatch.chdir(tmp_path)
    save_space(hamming_cube(3), "cube.json")
    save_space(point_space(), "point.json")
    Path("curve.csv").write_text(
        ConcentrationCurve([0.2, 0.4], [0.25, 0.125], kind="exact").to_csv_text())
    Path("mu1.json").write_text(json.dumps([1, 0, 0, 0, 0, 0, 0, 0]))
    Path("mu2.json").write_text(json.dumps([0, 0, 0, 0, 0, 0, 0, 1]))
    Path("f.json").write_text(json.dumps((np.bitwise_count(np.arange(8)) / 3.0).tolist()))
    Path("act.json").write_text(json.dumps({"permutations": [list(range(8))]}))
    runs = [
        (["generate", "--family", "hamming_cube", "--n", "3"], [],
         {"family": "hamming_cube", "n": 3}),
        (["generate", "--family", "sphere", "--dim", "2", "--samples", "6", "--seed", "3",
          "--threads", "4"], [],
         {"family": "sphere", "dim": 2, "samples": 6, "seed": 3, "metric": "euclidean"}),
        (["validate", "--space", "cube.json"], ["cube.json"], {}),
        (["alpha", "--space", "cube.json", "--eps", "0.3"], ["cube.json"],
         {"eps": 0.3, "mode": "exact", "cap": 20}),
        (["alpha", "--space", "cube.json", "--grid", "0.2:0.6:3", "--cap", "8"],
         ["cube.json"], {"grid": "0.2:0.6:3", "mode": "exact", "cap": 8}),
        (["fit", "--curves", "curve.csv", "curve.csv", "--indices", "3", "4"],
         ["curve.csv", "curve.csv"], {"indices": [3, 4]}),
        (["levy", "--curves", "curve.csv", "--slack", "0.1"], ["curve.csv"],
         {"threshold": 0.05, "slack": 0.1}),
        (["emd", "--space", "cube.json", "--mu1", "mu1.json", "--mu2", "mu2.json"],
         ["cube.json", "mu1.json", "mu2.json"], {"coupling": False}),
        (["emd", "--coupling", "--mu2", "mu2.json", "--space", "cube.json", "--mu1",
          "mu1.json"], ["cube.json", "mu1.json", "mu2.json"], {"coupling": True}),
        (["obsdist", "--x", "cube.json", "--y", "point.json", "--budget", "2"],
         ["cube.json", "point.json"], {"budget": 2}),
        (["median", "--space", "cube.json", "--values", "f.json"],
         ["cube.json", "f.json"], {"constant": 1.0}),
        (["tail", "--space", "cube.json", "--values", "f.json", "--eps", "0.34"],
         ["cube.json", "f.json"], {"eps": 0.34, "constant": 1.0}),
        (["essential", "--space", "cube.json", "--action", "act.json", "--set", "0,1",
          "--eps", "0.34", "--family", "0"], ["cube.json", "act.json"],
         {"set": "0,1", "eps": 0.34, "family": "0"}),
        (["leader", "--eps", "0.1"], [], {"dim_half": 150, "samples": 0, "eps": 0.1}),
        (["ramsey", "--k", "2", "--l", "3", "--r", "2", "--n", "5"], [],
         {"k": 2, "l": 3, "r": 2, "n": 5}),
    ]
    for i, (argv, inputs, parameters) in enumerate(runs):
        argv = argv + ["--out", f"run{i}.out"]
        assert main(argv) == 0, (argv, capsys.readouterr().err)
        seed = 3 if "--seed" in argv else 0
        assert json.loads(Path(f"run{i}.out.manifest.json").read_text()) == {
            "command": argv[0], "argv": argv, "inputs": inputs, "seed": seed,
            "parameters": parameters, "tool_version": __version__}, argv
    assert {argv[0] for argv, _, _ in runs} == {
        "generate", "validate", "alpha", "fit", "levy", "emd", "obsdist", "median", "tail",
        "essential", "leader", "ramsey"}


def test_ramsey_command():
    r = run_cli("ramsey", "--k", 2, "--l", 3, "--r", 2, "--n", 5)
    out = json.loads(r.stdout)
    assert out["all_colorings_contain"] is False
    assert len(out["counterexample"]["colors"]) == 10

    r = run_cli("ramsey", "--k", 2, "--l", 3, "--r", 2, "--n", 6)
    out = json.loads(r.stdout)
    assert out["all_colorings_contain"] is True
    assert out["counterexample"] is None

    # the pigeonhole principle answers past the sweep's cap of 2^22 colorings
    r = run_cli("ramsey", "--k", 1, "--l", 6, "--r", 3, "--n", 16)
    assert r.returncode == 0
    assert json.loads(r.stdout) == {"all_colorings_contain": True, "counterexample": None}

    # l > n: a counterexample over all C(30, 15) subsets is refused at once; the
    # address-space limit fails the run, not the machine, if it tries anyway
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    t0 = time.perf_counter()
    r = subprocess.run([sys.executable, "-m", "mmlab.cli", "ramsey", "--k", "15", "--l", "31",
                        "--r", "2", "--n", "30"], capture_output=True, text=True,
                       preexec_fn=limit, timeout=60)
    assert r.returncode == 2, r.stderr
    assert "over the cap" in json.loads(r.stderr)["error"]
    assert time.perf_counter() - t0 < 1.0


def test_replay_is_byte_identical(tmp_path):
    out = tmp_path / "sphere.json"
    r = run_cli("generate", "--family", "sphere", "--dim", 2, "--samples", 40,
                "--seed", 7, "--out", out)
    assert r.returncode == 0
    original = out.read_bytes()
    out.unlink()
    r = run_cli("replay", "--manifest", str(out) + ".manifest.json")
    assert r.returncode == 0
    assert out.read_bytes() == original

    curve = tmp_path / "curve.csv"
    run_cli("alpha", "--space", out, "--grid", "0.2:1.0:5", "--mode", "lower",
            "--out", curve)
    original = curve.read_bytes()
    curve.unlink()
    r = run_cli("replay", "--manifest", str(curve) + ".manifest.json")
    assert r.returncode == 0
    assert curve.read_bytes() == original


def test_replay_rejects_manifest_without_argv(tmp_path):
    bad = tmp_path / "man.json"
    bad.write_text(json.dumps({"command": "alpha"}))
    r = run_cli("replay", "--manifest", bad)
    assert r.returncode == 2


def test_replay_refuses_a_manifest_that_replays(tmp_path):
    man = tmp_path / "m.json"
    man.write_text(json.dumps({"command": "replay",
                               "argv": ["replay", "--manifest", str(man)]}))
    r = run_cli("replay", "--manifest", man)
    assert r.returncode == 2
    assert "replay" in json.loads(r.stderr)["error"]


def test_replay_refuses_a_manifest_that_is_not_an_object(tmp_path):
    man = tmp_path / "m.json"
    man.write_text(json.dumps(["alpha", "--eps", "0.5"]))
    r = run_cli("replay", "--manifest", man)
    assert r.returncode == 2
    assert "no usable argv" in json.loads(r.stderr)["error"]


def test_fit_refuses_an_empty_curve_file(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    r = run_cli("fit", "--curves", empty, "--indices", 1)
    assert r.returncode == 2
    assert "bad curve header" in json.loads(r.stderr)["error"]


def test_levy_refuses_a_curve_row_with_too_few_fields(tmp_path):
    curve = tmp_path / "short.csv"
    curve.write_text("eps,alpha,kind\n0.1,0.25,exact\n0.2,0.1\n")
    r = run_cli("levy", "--curves", curve)
    assert r.returncode == 2
    assert "does not have 3 fields" in json.loads(r.stderr)["error"]


def test_alpha_cap_beyond_memory_budget_is_an_input_error(tmp_path):
    from mmlab.spaces import FiniteMMSpace, space_to_json
    pos = np.arange(27, dtype=float)
    space = FiniteMMSpace(list(range(27)), np.full(27, 1 / 27),
                          dist=np.abs(pos[:, None] - pos[None, :]) / 27)
    path = tmp_path / "line27.json"
    path.write_text(json.dumps(space_to_json(space)))
    r = run_cli("alpha", "--space", path, "--eps", 0.5, "--cap", 27)
    assert r.returncode == 2
    assert "budget" in json.loads(r.stderr)["error"]


def test_identical_invocations_are_byte_identical(cube3):
    a = run_cli("alpha", "--space", cube3, "--grid", "0.1:1.0:7")
    b = run_cli("alpha", "--space", cube3, "--grid", "0.1:1.0:7")
    assert a.stdout == b.stdout


def test_threads_flag_never_changes_results(cube3):
    a = run_cli("alpha", "--space", cube3, "--eps", 0.34, "--threads", 1)
    b = run_cli("alpha", "--space", cube3, "--eps", 0.34, "--threads", 8)
    assert a.stdout == b.stdout


def test_unknown_flag_exits_with_usage():
    r = run_cli("alpha", "--frobnicate", 1)
    assert r.returncode == 2
    assert "usage" in r.stderr.lower()


def test_missing_file_is_an_input_error():
    r = run_cli("alpha", "--space", "/no/such/file.json", "--eps", 0.3)
    assert r.returncode == 2
    assert "no such file" in json.loads(r.stderr)["error"]


def test_outputs_end_with_newline_and_sorted_keys(cube3):
    r = run_cli("alpha", "--space", cube3, "--eps", 0.34)
    assert r.stdout.endswith("\n")
    doc = json.loads(r.stdout)
    assert json.dumps(doc, sort_keys=True) + "\n" == r.stdout


def test_a_non_finite_distance_is_an_input_error(tmp_path):
    # obsdist once printed "upper": NaN, which is not JSON, and alpha 0.0
    d = np.ones((3, 3)) - np.eye(3)
    d[1, 2] = d[2, 1] = np.nan
    broken, point = tmp_path / "broken.json", tmp_path / "point.json"
    save_space(FiniteMMSpace([0, 1, 2], [1 / 3] * 3, dist=d), broken)
    save_space(point_space(), point)
    for argv in (["obsdist", "--x", broken, "--y", point],
                 ["alpha", "--space", broken, "--eps", 1.0]):
        r = run_cli(*argv)
        assert r.returncode == 2 and r.stdout == "", argv
        assert json.loads(r.stderr)["error"] == "not a metric: non-finite distance at (1,2)"
