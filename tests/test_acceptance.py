"""Acceptance gate: ten end-to-end criteria, one printed pass/fail line each.

Every criterion recomputes what it needs from scratch and carries its own
tolerance and runtime budget, so this file alone certifies the build."""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import emd_oracle, random_lipschitz, random_measure, random_space
from mmlab.concentration import (LipschitzFunction, SearchConfig,
                                 alpha_lower_bound, gaussian_fit,
                                 hamming_cube_curve, sphere_cap_alpha,
                                 tail_check)
from mmlab.dynamics import (LEADER_THRESHOLD, Cover, IsometricAction,
                            concentration_property_check, is_essential,
                            leader_empirical, ramsey_verify)
from mmlab.generators import SamplerConfig, hamming_cube, sphere_sampled, symmetric_group
from mmlab.observable import levy_convergence_test
from mmlab.spaces import alpha_exact
from mmlab.transport import MeasurePair, emd

from conftest import normalized


def report(capsys, num, desc, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {desc}"
    with capsys.disabled():
        print(line)
    assert ok, line + (f" [{detail}]" if detail else "")


def test_criterion_01_exact_cube_concentration(capsys):
    t0 = time.monotonic()
    problems = []
    cube2 = hamming_cube(2)
    if abs(alpha_exact(cube2, 0.4) - 0.5) > 1e-12:
        problems.append("alpha(0.4) != 0.5")
    if abs(alpha_exact(cube2, 0.5) - 0.0) > 1e-12:
        problems.append("alpha(0.5) != 0")

    grid = np.arange(0.05, 1.0001, 0.05)
    curves = {n: hamming_cube_curve(n, grid) for n in range(2, 13)}
    for eps, got in zip(grid, curves[4].alpha):
        want = alpha_exact(hamming_cube(4), eps)
        if abs(got - want) > 1e-12:
            problems.append(f"fast path off at n=4 eps={eps}")
    elapsed = time.monotonic() - t0
    if elapsed >= 60.0:
        problems.append(f"took {elapsed:.1f}s")
    report(capsys, 1,
           "exact cube concentration values and full curves for n <= 12 "
           f"in {elapsed:.1f}s (< 60s)",
           not problems, "; ".join(problems))


def test_criterion_02_gaussian_decay_fit(capsys):
    grid = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
    fit = gaussian_fit([(n, hamming_cube_curve(n, grid))
                        for n in range(4, 13)])
    ok = fit.c2 > 0 and fit.residual < 0.5
    report(capsys, 2,
           f"gaussian fit over cube curves has c2={fit.c2:.3f} > 0 and log-domain "
           f"residual {fit.residual:.3f} < 0.5",
           ok, repr(fit))


def test_criterion_03_sphere_caps_and_monte_carlo(capsys):
    t0 = time.monotonic()
    problems = []
    cap01 = sphere_cap_alpha(2, 0.1)
    if abs(cap01 - (1 - math.sin(0.1)) / 2) > 1e-9:
        problems.append(f"cap value {cap01!r}")

    space = sphere_sampled(2, SamplerConfig(seed=0, sample_count=100000),
                           metric="geodesic")
    lb = alpha_lower_bound(space, 0.3,
                           SearchConfig(seed=0, restarts=2, ball_anchors=2))
    cap03 = sphere_cap_alpha(2, 0.3)
    gap = abs(lb - cap03)
    if gap > 0.02:
        problems.append(f"monte carlo bound off by {gap:.4f}")
    elapsed = time.monotonic() - t0
    if elapsed >= 120.0:
        problems.append(f"took {elapsed:.1f}s")
    report(capsys, 3,
           f"analytic sphere cap exact to 1e-9; 1e5-sample search bound within "
           f"{gap:.4f} (< 0.02) of the cap in {elapsed:.1f}s (< 2min)",
           not problems, "; ".join(problems))


def test_criterion_04_transport_against_oracle(capsys):
    rng = np.random.default_rng(4)
    problems = []
    grid = 64
    for trial in range(50):
        space = random_space(rng, 4)
        pair = MeasurePair(random_measure(rng, 4), random_measure(rng, 4))
        base = emd(space, pair).distance
        ref = emd_oracle(space, pair, grid)
        budget = 3.0 * float(space.dist.max()) / grid
        if abs(base - ref) > budget:
            problems.append(f"trial {trial}: |{base:.6f}-{ref:.6f}| > {budget:.6f}")

    for trial in range(200):
        space = random_space(rng, int(rng.integers(3, 7)))
        a, b, c = (random_measure(rng, space.n) for _ in range(3))
        dab = emd(space, MeasurePair(a, b)).distance
        dba = emd(space, MeasurePair(b, a)).distance
        dac = emd(space, MeasurePair(a, c)).distance
        dcb = emd(space, MeasurePair(c, b)).distance
        daa = emd(space, MeasurePair(a, a)).distance
        if abs(dab - dba) > 1e-9 or dab > dac + dcb + 1e-9 or daa > 1e-9:
            problems.append(f"axiom broke on triple {trial}")
    report(capsys, 4,
           "transport matches the grid-assignment oracle on 50 instances and "
           "satisfies metric axioms on 200 triples",
           not problems, "; ".join(problems[:3]))


def test_criterion_05_median_tail_inequality(capsys):
    rng = np.random.default_rng(5)
    violations = 0
    for _ in range(1000):
        space = random_space(rng, int(rng.integers(2, 13)))
        f = LipschitzFunction(random_lipschitz(rng, space))
        eps = float(rng.uniform(0.05, 1.1 * space.dist.max()))
        if not tail_check(space, f, eps).holds:
            violations += 1
    report(capsys, 5,
           "median tail bound mu{|f-M|>eps} <= 2*alpha(eps) held on 1000 "
           "randomized Lipschitz triples with zero violations",
           violations == 0, f"{violations} violations")


def test_criterion_06_block_sphere_demonstration(capsys):
    t0 = time.monotonic()
    problems = []
    want = math.sqrt(2.0) / 2.0 - math.sqrt(3.0) / 3.0
    if abs(LEADER_THRESHOLD - want) > 1e-12:
        problems.append("threshold drifted")
    res = leader_empirical(150, 100000, 0.12, seed=0)
    if res.violations != 0:
        problems.append(f"{res.violations} violations")
    elapsed = time.monotonic() - t0
    if elapsed >= 60.0:
        problems.append(f"took {elapsed:.1f}s")
    report(capsys, 6,
           "block-sphere threshold exact; 1e5-sample demonstration at eps=0.12 "
           f"reports 0 violations in {elapsed:.1f}s (< 1min)",
           not problems, "; ".join(problems))


def test_criterion_07_ramsey_transition(capsys):
    t0 = time.monotonic()
    below = ramsey_verify(2, 3, 2, 5)
    above = ramsey_verify(2, 3, 2, 6)
    elapsed = time.monotonic() - t0
    ok = (not below.all_colorings_contain and below.counterexample is not None
          and above.all_colorings_contain and elapsed < 10.0)
    report(capsys, 7,
           "two-coloring of pairs: counterexample exists on 5 points, "
           f"exhaustive certificate on 6 points, in {elapsed:.2f}s (< 10s)",
           ok)


def test_criterion_08_cube_sequence_convergence(capsys):
    t0 = time.monotonic()
    res = levy_convergence_test([hamming_cube(n) for n in (2, 4, 6, 8, 10)])
    elapsed = time.monotonic() - t0
    dists = np.asarray(res.dists, dtype=float)
    ok = (bool((dists > 0).all())
          and bool((np.diff(dists) <= res.slack + 1e-12).all())
          and dists[-1] < dists[0]
          and res.decreasing_trend
          and elapsed < 300.0)
    report(capsys, 8,
           "observable distance to the point space decays along growing cubes "
           f"({np.round(dists, 5).tolist()}) in {elapsed:.1f}s (< 5min)",
           ok, repr(res))


def _random_fixed_point_action(rng, n):
    gens = [np.concatenate(([0], 1 + rng.permutation(n - 1)))
            for _ in range(int(rng.integers(1, 4)))]
    orbit = -np.ones((n, n), dtype=int)
    next_id = 0
    for i in range(n):
        for j in range(i + 1, n):
            if orbit[i, j] >= 0:
                continue
            stack = [(i, j)]
            orbit[i, j] = orbit[j, i] = next_id
            while stack:
                a, b = stack.pop()
                for g in gens:
                    x, y = int(g[a]), int(g[b])
                    if orbit[x, y] < 0:
                        orbit[x, y] = orbit[y, x] = next_id
                        stack.append((x, y))
            next_id += 1
    d = 1.0 + rng.integers(0, 10, size=next_id)[orbit] / 10.0
    np.fill_diagonal(d, 0.0)
    from mmlab.spaces import FiniteMMSpace
    space = FiniteMMSpace(list(range(n)), normalized(rng.integers(1, 10, size=n)),
                          dist=d)
    return IsometricAction(space, gens)


def test_criterion_09_fixed_points_versus_free_translates(capsys):
    rng = np.random.default_rng(9)
    problems = []
    for trial in range(100):
        n = int(rng.integers(4, 9))
        action = _random_fixed_point_action(rng, n)
        parts = int(rng.integers(2, 4))
        assign = rng.integers(0, parts, size=n)
        assign[:parts] = np.arange(parts)
        cover = Cover([assign == p for p in range(parts)])
        eps = float(rng.uniform(0.0, 0.5))
        family = list(range(len(action.elements)))
        if not concentration_property_check(action, cover, eps, family).holds:
            problems.append(f"fixed-point action {trial} failed")

    group = symmetric_group(4)
    words = group.points.astype(int)
    index = {tuple(w): i for i, w in enumerate(words)}
    perms = [np.array([index[tuple(g[w])] for w in words]) for g in words]
    action = IsometricAction(group, perms)
    cover = Cover([words[:, 0] == v for v in range(4)])
    res = concentration_property_check(action, cover, 0.2,
                                       list(range(len(perms))))
    if res.holds:
        problems.append("free-translate reconstruction unexpectedly held")
    report(capsys, 9,
           "covers meet every translate under 100 fixed-point actions, and the "
           "free-translate reconstruction on 24 permutations fails at eps=0.2",
           not problems, "; ".join(problems[:3]))


def _run_cli(*argv, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "mmlab.cli", *map(str, argv)],
                          capture_output=True, text=True, env=env)


def test_criterion_10_manifest_replay_determinism(capsys, tmp_path):
    problems = []
    sphere = tmp_path / "sphere.json"
    r = _run_cli("generate", "--family", "sphere", "--dim", 2, "--samples", 500,
                 "--seed", 11, "--out", sphere)
    if r.returncode != 0:
        problems.append("generate failed")
    cube = tmp_path / "cube.json"
    _run_cli("generate", "--family", "hamming_cube", "--n", 4, "--out", cube)
    curve = tmp_path / "curve.csv"
    _run_cli("alpha", "--space", cube, "--grid", "0.1:1.0:10", "--out", curve)
    mu1 = tmp_path / "mu1.json"
    mu2 = tmp_path / "mu2.json"
    mu1.write_text(json.dumps([1.0] + [0.0] * 15))
    mu2.write_text(json.dumps([0.0] * 15 + [1.0]))
    dist = tmp_path / "dist.json"
    _run_cli("emd", "--space", cube, "--mu1", mu1, "--mu2", mu2, "--out", dist)

    for out in (sphere, cube, curve, dist):
        original = out.read_bytes()
        out.unlink()
        rr = _run_cli("replay", "--manifest", str(out) + ".manifest.json")
        if rr.returncode != 0:
            problems.append(f"replay of {out.name} exited {rr.returncode}")
        elif out.read_bytes() != original:
            problems.append(f"replay of {out.name} not byte-identical")
    report(capsys, 10,
           "every CLI invocation replayed from its manifest reproduced its "
           "output files byte for byte",
           not problems, "; ".join(problems))
