"""Observable-distance machinery: the me1 metric on step functions against a
dense-scan oracle, extreme 1-Lipschitz families, Hausdorff distances, and the
coupling-search estimator with its convergence regression pins."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (LipschitzSet, count_me1_rows, full_scan_family_hausdorff,
                      hausdorff_me1, random_space, spaces, step_constant,
                      step_from_cells)
from mmlab import observable
from mmlab import spaces as spaces_module
from mmlab.concentration import SearchConfig
from mmlab.generators import (SamplerConfig, hamming_cube, product_space,
                              sphere_sampled, symmetric_group)
from mmlab.observable import (StepFunction, _best_const_rows,
                              _candidate_couplings, _family_hausdorff,
                              best_constant_me1, levy_convergence_test,
                              lipschitz_extremes, me1, obs_distance)
from mmlab.spaces import FiniteMMSpace, point_space


@st.composite
def step_functions(draw, max_cells=5):
    k = draw(st.integers(1, max_cells))
    raw = draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
    vals = draw(st.lists(st.integers(-12, 12).map(lambda v: v / 4.0),
                         min_size=k, max_size=k))
    return step_from_cells(np.asarray(raw, float) / sum(raw), vals)


def me1_oracle(h1, h2, steps=20001):
    """Dense scan over lambda: smallest grid value with m{|h1-h2| > l} <= l."""
    breaks = np.union1d(h1.breakpoints, h2.breakpoints)
    mass = np.diff(breaks)
    mids = (breaks[:-1] + breaks[1:]) / 2
    v1 = h1.values[np.searchsorted(h1.breakpoints, mids, side="right") - 1]
    v2 = h2.values[np.searchsorted(h2.breakpoints, mids, side="right") - 1]
    gap = np.abs(v1 - v2)
    for lam in np.linspace(0.0, 1.0, steps):
        if mass[gap > lam].sum() <= lam:
            return float(lam)
    return 1.0


# -- me1 ------------------------------------------------------------------------

def test_me1_constants():
    assert me1(step_constant(0.2), step_constant(0.5)) == pytest.approx(0.3,
                                                                        abs=1e-12)
    assert me1(step_constant(0.0), step_constant(2.5)) == 1.0
    assert me1(step_constant(0.7), step_constant(0.7)) == 0.0


def test_me1_half_jump():
    h = StepFunction([0.0, 0.5, 1.0], [0.0, 1.0])
    assert me1(h, step_constant(0.0)) == pytest.approx(0.5, abs=1e-12)


def test_me1_crossover_inside_a_plateau():
    # gaps {0.7 on mass 0.4, 0.2 on mass 0.6}: the optimum is the tail mass
    # 0.4 sitting strictly inside the feasibility window (0.2, 0.7)
    f = step_from_cells([0.4, 0.6], [0.7, 0.2])
    assert me1(f, step_constant(0.0)) == pytest.approx(0.4, abs=1e-12)


def test_me1_matches_the_known_identity_for_single_gap():
    # one gap g on mass m: me1 = min(g, m) (g if the tail vanishes first)
    for g, m in [(0.3, 0.8), (0.9, 0.2), (0.5, 0.5)]:
        f = step_from_cells([m, 1 - m], [g, 0.0])
        assert me1(f, step_constant(0.0)) == pytest.approx(min(g, m), abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(step_functions(), step_functions())
def test_me1_against_dense_scan(h1, h2):
    got = me1(h1, h2)
    want = me1_oracle(h1, h2)
    assert got == pytest.approx(want, abs=1e-4)
    # exact feasibility at the reported value, infeasibility just below
    breaks = np.union1d(h1.breakpoints, h2.breakpoints)
    mass = np.diff(breaks)
    mids = (breaks[:-1] + breaks[1:]) / 2
    v1 = h1.values[np.searchsorted(h1.breakpoints, mids, side="right") - 1]
    v2 = h2.values[np.searchsorted(h2.breakpoints, mids, side="right") - 1]
    gap = np.abs(v1 - v2)
    assert mass[gap > got].sum() <= got + 1e-12
    if got > 1e-9:
        lam = got - 1e-9
        assert mass[gap > lam].sum() > lam


@settings(max_examples=60, deadline=None)
@given(step_functions(), step_functions(), step_functions())
def test_me1_metric_axioms(a, b, c):
    assert me1(a, a) == 0.0
    assert me1(a, b) == pytest.approx(me1(b, a), abs=1e-9)
    assert me1(a, b) <= me1(a, c) + me1(c, b) + 1e-9
    assert 0.0 <= me1(a, b) <= 1.0


def test_me1_stays_at_most_one_when_cell_masses_round_up():
    # the common refinement's cell masses sum to 1 + 2**-52 here, and every
    # gap exceeds 1, so the whole-measure tail must not leak past 1
    a = StepFunction([0.0, 0.5, 1.0], [1.5, 1.25])
    b = StepFunction([0.0, 1 / 9, 2 / 9, 13 / 27, 2 / 3, 1.0], [0.0] * 5)
    assert me1(a, b) == 1.0

def test_step_function_validation():
    with pytest.raises(ValueError):
        StepFunction([0.0, 0.4], [1.0])           # must end at 1
    with pytest.raises(ValueError):
        StepFunction([0.0, 0.6, 0.4, 1.0], [1, 2, 3])
    with pytest.raises(ValueError):
        step_from_cells([0.4, 0.4], [0.0, 1.0])   # short mass
    f = step_from_cells([0.4, 0.0, 0.6], [1.0, 9.0, 2.0])
    assert f.values.tolist() == [1.0, 2.0]        # zero cell dropped


# -- best constant approximation ------------------------------------------------

def test_best_constant_on_symmetric_jump():
    h = StepFunction([0.0, 0.5, 1.0], [0.0, 1.0])
    assert best_constant_me1(h) == pytest.approx(0.5, abs=1e-9)


def test_best_constant_concentrated_cell():
    h = step_from_cells([0.15, 0.7, 0.15], [0.0, 5.0, 10.0])
    assert best_constant_me1(h) == pytest.approx(0.3, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(step_functions())
def test_best_constant_never_beats_a_direct_constant(h):
    best = best_constant_me1(h)
    for c in np.linspace(h.values.min(), h.values.max(), 21):
        assert best <= me1(h, step_constant(c)) + 1e-9


@settings(max_examples=80, deadline=None)
@given(step_functions(max_cells=7))
def test_best_constant_equals_the_best_midpoint_constant(h):
    # an optimal window [a, b] between two values is centred at (a + b) / 2,
    # and me1 to that constant runs through the separate _me1_rows kernel
    direct = min(me1(h, step_constant((a + b) / 2))
                 for a in h.values for b in h.values)
    assert best_constant_me1(h) == pytest.approx(direct, abs=1e-12)


# -- extreme families -------------------------------------------------------------

def test_extremes_on_two_points():
    from mmlab.spaces import FiniteMMSpace
    x = FiniteMMSpace([0, 1], [0.5, 0.5], dist=[[0.0, 1.0], [1.0, 0.0]])
    fam = {tuple(v) for v in lipschitz_extremes(x, anchor=0)}
    assert fam == {(0.0, 1.0), (0.0, -1.0), (0.0, 0.0)}


def test_extremes_are_lipschitz_and_anchored():
    rng = np.random.default_rng(1)
    for n in (3, 5, 8):
        space = random_space(rng, n)
        d = space.dist
        for anchor in (0, n - 1):
            fam = lipschitz_extremes(space, anchor)
            assert len(fam) >= 2
            for v in fam:
                assert v[anchor] == 0.0
                gaps = np.abs(v[:, None] - v[None, :])
                assert (gaps <= d + 1e-12).all()
            # distance to the anchor itself is one of the members
            target = d[:, anchor]
            assert any(np.allclose(v, target, atol=1e-12) for v in fam)


def test_extremes_reject_bad_anchor():
    cube = hamming_cube(2)
    with pytest.raises(ValueError):
        lipschitz_extremes(cube, anchor=99)


def _same_sets(P, Q, tol):
    """Every row of P is within tol of a row of Q, and vice versa."""
    gap = np.abs(P[:, None, :] - Q[None, :, :]).max(axis=2)
    return bool((gap.min(axis=1) <= tol).all() and (gap.min(axis=0) <= tol).all())


@settings(max_examples=40, deadline=None)
@given(spaces(max_n=9), st.data())
def test_extremes_at_another_anchor_are_shifts(space, data):
    a = data.draw(st.integers(0, space.n - 1))
    b = data.draw(st.integers(0, space.n - 1))
    fa = lipschitz_extremes(space, a)
    fb = lipschitz_extremes(space, b)
    assert fa.flags["C_CONTIGUOUS"] and fa.shape[1] == space.n
    assert _same_sets(fa, fb - fb[:, a, None], 1e-12)


@pytest.mark.parametrize("space, rows", [
    (random_space(np.random.default_rng(2), 5), 5 + 10), (hamming_cube(8), 256),
    (hamming_cube(10), 1024), (symmetric_group(4), 24), (symmetric_group(5), 120)],
    ids=["pairs5", "cube8", "cube10", "S4", "S5"])
def test_extremes_have_one_member_per_pool_set(space, rows):
    # singletons, plus pairs up to _PAIR_POOL_LIMIT points; no negated rows,
    # no zero row, and rounding copies such as d(., y') - d(a, y') and
    # -(d(., y) - d(a, y)) for antipodes y, y' of a cube are both kept
    fam = lipschitz_extremes(space, 0)
    assert fam.shape == (rows, space.n) and fam.flags["C_CONTIGUOUS"]
    assert np.array_equal(fam[:space.n], space.dist.T - space.dist[0][:, None])


def test_obs_distance_to_point_memory_is_two_families():
    # the 11-cube's family is 2048 x 2048 floats (32 MiB); the search holds
    # it, its lifted copy and the fit's row blocks (32 MiB of scratch)
    import tracemalloc
    cube = hamming_cube(11)
    cube.dist
    tracemalloc.start()
    try:
        res = obs_distance(cube, point_space())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.upper > 0.0
    assert peak < 120e6


def test_obs_distance_past_the_dense_cap_is_refused_before_allocating():
    # space.dist alone refuses a dense matrix past _MATERIALIZE_CAP points
    import tracemalloc
    big = sphere_sampled(2, SamplerConfig(seed=0, sample_count=spaces_module._MATERIALIZE_CAP + 1))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="too many for a dense matrix"):
            obs_distance(big, point_space())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_obs_distance_of_a_matrix_space_past_the_dense_cap_is_refused(monkeypatch):
    # a stored matrix is refused past the cap too, before the extreme
    # families build more arrays of its size; its space file is still written
    d = 1.0 - np.eye(5)
    space = FiniteMMSpace(range(5), np.full(5, 0.2), dist=d)
    assert math.isfinite(obs_distance(space, point_space()).upper)  # under the real cap
    monkeypatch.setattr(spaces_module, "_MATERIALIZE_CAP", 4)
    with pytest.raises(ValueError, match="too many for a dense matrix"):
        obs_distance(space, point_space())
    with pytest.raises(ValueError, match="too many for a dense matrix"):
        lipschitz_extremes(space, 0)
    assert spaces_module.space_to_json(space)["metric"] == {"type": "matrix", "data": d.tolist()}


# -- Hausdorff me1 ----------------------------------------------------------------

def test_hausdorff_me1_examples():
    z = step_constant(0.0)
    h = StepFunction([0.0, 0.5, 1.0], [0.0, 1.0])
    assert hausdorff_me1([z], [z]) == 0.0
    assert hausdorff_me1([z], [h]) == pytest.approx(0.5, abs=1e-12)
    assert hausdorff_me1(LipschitzSet([z, h]), LipschitzSet([z])) == pytest.approx(
        0.5, abs=1e-12)
    with pytest.raises(ValueError):
        LipschitzSet([])


@st.composite
def lifted_families(draw, max_cells=5, max_members=4):
    k = draw(st.integers(1, max_cells))
    raw = draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
    masses = np.asarray(raw, float) / sum(raw)

    def family():
        m = draw(st.integers(1, max_members))
        vals = draw(st.lists(st.integers(-8, 8), min_size=m * k, max_size=m * k))
        return np.asarray(vals, float).reshape(m, k) / 4.0

    return masses, family(), family()


@settings(max_examples=60, deadline=None)
@given(lifted_families(), st.one_of(st.just(math.inf), st.integers(0, 16).map(lambda v: v / 16)))
def test_family_hausdorff_against_the_pairwise_oracle(case, best):
    masses, A, B = case
    # the kernel reads each family as closed under negation
    steps_a = [step_from_cells(masses, row) for row in np.concatenate([A, -A])]
    steps_b = [step_from_cells(masses, row) for row in np.concatenate([B, -B])]
    # the constants that matter: one optimal constant per member, which sits
    # at the midpoint of two of its values
    consts = []
    for h in steps_a + steps_b:
        fit = best_constant_me1(h)
        c = min(((x + y) / 2 for x in h.values for y in h.values),
                key=lambda c: me1(h, step_constant(c)))
        assert me1(h, step_constant(c)) == pytest.approx(fit, abs=1e-12)
        consts.append(step_constant(c))
    want = hausdorff_me1(steps_a + consts, steps_b + consts)
    fit_a = np.array([best_constant_me1(h) for h in steps_a[:len(A)]])
    fit_b = np.array([best_constant_me1(h) for h in steps_b[:len(B)]])
    exact = _family_hausdorff(masses, A, B, fit_a, fit_b)
    assert exact == pytest.approx(want, abs=1e-12)
    # below best the exact value comes back, and "cannot win" (inf) at or
    # above it
    got = _family_hausdorff(masses, A, B, fit_a, fit_b, best)
    assert got == (exact if exact < best else math.inf)
    assert want >= best - 1e-12 if got == math.inf else want < best + 1e-12


def test_family_hausdorff_scratch_stays_within_the_tile_budget(monkeypatch):
    # the product coupling of the 6-cube and S_4 has 1,536 cells, so one
    # (member, member) pair of me1 rows takes about 110 KiB of scratch
    import tracemalloc
    X, Y = hamming_cube(6), symmetric_group(4)
    ci, cj = np.nonzero(np.outer(X.weight, Y.weight))
    masses = X.weight[ci] * Y.weight[cj]
    A = np.take(lipschitz_extremes(X, 0), ci, axis=1)
    B = np.take(lipschitz_extremes(Y, 0), cj, axis=1)
    fit_a, fit_b = _best_const_rows(masses, A), _best_const_rows(masses, B)
    want = _family_hausdorff(masses, A, B, fit_a, fit_b)
    monkeypatch.setattr(spaces_module, "_TILE_BYTES", 1 << 20)
    tracemalloc.start()
    try:
        got = _family_hausdorff(masses, A, B, fit_a, fit_b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    # plus numpy's iterator buffers, about 70 KB a call whatever the tile
    assert peak <= (1 << 20) + (1 << 17)


def test_hausdorff_me1_subset_direction():
    z = step_constant(0.0)
    h = StepFunction([0.0, 0.5, 1.0], [0.0, 1.0])
    g = step_constant(0.25)
    # A inside B: only the unmatched member of B can contribute
    assert hausdorff_me1([z], [z, g]) == pytest.approx(me1(z, g), abs=1e-12)
    assert hausdorff_me1([z, h, g], [z, h, g]) == 0.0


# -- coupling-search estimator ------------------------------------------------------

def test_obs_distance_self_is_zero():
    rng = np.random.default_rng(5)
    for space in [hamming_cube(3), symmetric_group(3), random_space(rng, 6)]:
        res = obs_distance(space, space)
        assert res.upper == 0.0


def test_obs_distance_result_geometry():
    x = hamming_cube(3)
    y = hamming_cube(2)
    res = obs_distance(x, y)
    assert 0.0 <= res.upper <= 1.0
    assert res.coupling.shape == (x.n, y.n)
    assert np.allclose(res.coupling.sum(axis=1), x.weight, atol=1e-9)
    assert np.allclose(res.coupling.sum(axis=0), y.weight, atol=1e-9)
    # the coupling's cells partition [0, 1], and the anchor is one of them
    assert (res.coupling >= 0).all() and res.coupling.sum() == pytest.approx(1.0, abs=1e-12)
    assert res.coupling[res.anchor] > 0


def test_obs_distance_budget_is_antimonotone():
    x = hamming_cube(3)
    y = symmetric_group(3)
    lean = obs_distance(x, y, SearchConfig(seed=0, restarts=1, anchor_budget=1))
    rich = obs_distance(x, y, SearchConfig(seed=0, restarts=6, anchor_budget=6))
    assert rich.upper <= lean.upper + 1e-12


def test_obs_distance_symmetry_within_tolerance():
    x = hamming_cube(3)
    y = hamming_cube(2)
    a = obs_distance(x, y).upper
    b = obs_distance(y, x).upper
    assert a == pytest.approx(b, abs=1e-9)


def test_near_identical_couplings_are_one_candidate():
    # north-west-corner couplings onto one point differ only by rounding
    x = product_space((0.35, 0.65), 6)
    for seed in range(6):
        cands = _candidate_couplings(x, point_space(), SearchConfig(seed=seed))
        assert len(cands) == 1


def test_candidate_couplings_have_the_weights_as_marginals():
    # weights 2e-6 apart are not the same: the diagonal of X's weights would
    # miss Y's by a margin numpy's default rtol of 1e-5 lets through, and
    # the search would report 0.0 on a plan that is not a coupling of X and Y
    x = FiniteMMSpace([0, 1], [0.5, 0.5], dist=[[0.0, 1.0], [1.0, 0.0]])
    y = FiniteMMSpace([0, 1], [0.5 + 2e-6, 0.5 - 2e-6], dist=[[0.0, 1.0], [1.0, 0.0]])
    for pi in _candidate_couplings(x, y, SearchConfig()):
        assert np.allclose(pi.sum(axis=1), x.weight, rtol=0, atol=1e-12)
        assert np.allclose(pi.sum(axis=0), y.weight, rtol=0, atol=1e-12)
    res = obs_distance(x, y)
    assert np.allclose(res.coupling.sum(axis=0), y.weight, rtol=0, atol=1e-12)
    assert res.upper > 0.0


def _candidates_one_at_a_time(X, Y):
    """Oracle of the exhaustive candidate list: every plan in the order the
    search pushes it, kept when its entrywise gap to each kept plan, taken
    one plan at a time, exceeds the tolerance."""
    def corner(ox, oy):
        pi = np.zeros((X.n, Y.n))
        rows, cols, mass = observable._nw_corner(X.weight, Y.weight, ox, oy)
        pi[rows, cols] = mass
        return pi / pi.sum()

    plans = []
    if X.n == Y.n and np.allclose(X.weight, Y.weight, rtol=0, atol=1e-12):
        plans.append(np.diag(X.weight.astype(float)))
    plans += [np.outer(X.weight, Y.weight),
              corner(np.arange(X.n), np.arange(Y.n)),
              corner(np.argsort(-X.weight, kind="stable"), np.argsort(-Y.weight, kind="stable"))]
    plans += [corner(np.array(px), np.array(py))
              for px in itertools.permutations(range(X.n))
              for py in itertools.permutations(range(Y.n))]
    kept = []
    for pi in plans:
        if all(np.abs(q - pi).max() > observable._COUPLING_TOL for q in kept):
            kept.append(pi)
    return kept


@pytest.mark.parametrize("nx,ny", [(1, 6), (2, 2), (2, 5), (3, 3), (3, 5), (4, 4)])
def test_stacked_dedup_keeps_the_candidates_of_the_one_at_a_time_rule(nx, ny):
    for seed in range(4):
        rng = np.random.default_rng([seed, nx, ny])
        X, Y = random_space(rng, nx), random_space(rng, ny)
        if seed == 0 and nx == ny:
            Y = FiniteMMSpace(Y.labels, X.weight, dist=Y.dist)  # the diagonal plan too
        assert math.factorial(nx) * math.factorial(ny) <= observable._EXHAUSTIVE_COUPLINGS
        got = _candidate_couplings(X, Y, SearchConfig(seed=seed))
        want = _candidates_one_at_a_time(X, Y)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def _search_with_a_family_per_anchor(X, Y, cfg):
    """The estimator's search, with the extreme families rebuilt and the
    constants fitted at every anchor pair."""
    best = np.inf
    for pi in _candidate_couplings(X, Y, cfg):
        ci, cj = np.nonzero(pi > 1e-15)
        masses = pi[ci, cj]
        for cell in np.lexsort((cj, ci, -masses))[:max(1, cfg.anchor_budget)]:
            A = lipschitz_extremes(X, ci[cell])[:, ci]
            B = lipschitz_extremes(Y, cj[cell])[:, cj]
            best = min(best, _family_hausdorff(masses, A, B, _best_const_rows(masses, A),
                                               _best_const_rows(masses, B)))
    return best


def test_anchors_as_shifts_match_a_family_per_anchor(monkeypatch):
    monkeypatch.setattr(observable, "_EXHAUSTIVE_COUPLINGS", 0)  # seeded restarts only
    rng = np.random.default_rng(11)
    for k in range(12):
        X = random_space(rng, int(rng.integers(2, 9)))
        Y = random_space(rng, int(rng.integers(2, 9)))
        cfg = SearchConfig(seed=k, restarts=2, anchor_budget=int(rng.integers(1, 4)))
        want = _search_with_a_family_per_anchor(X, Y, cfg)
        assert obs_distance(X, Y, cfg).upper == pytest.approx(want, abs=1e-12)


def _matches_the_full_scan(monkeypatch, X, Y, cfg):
    """obs_distance gives the value, coupling and anchor of the same search
    on the full-scan kernel, bit for bit."""
    got = obs_distance(X, Y, cfg)
    with monkeypatch.context() as m:
        m.setattr(observable, "_family_hausdorff", full_scan_family_hausdorff)
        want = obs_distance(X, Y, cfg)
    assert got.upper == want.upper
    assert np.array_equal(got.coupling, want.coupling)
    assert got.anchor == want.anchor


def test_pruned_search_matches_the_full_scan_on_groups_and_cubes(monkeypatch):
    # mmlab obsdist's S_4 against the 4-cube at both budgets (--budget sets
    # restarts and anchors), the 6-cube against S_4, and the 3-cube against S_3
    s4, q4 = symmetric_group(4), hamming_cube(4)
    for seed in range(1, 11):
        for budget in (2, 8):
            _matches_the_full_scan(monkeypatch, s4, q4, SearchConfig(
                seed=seed, restarts=budget, anchor_budget=budget))
    _matches_the_full_scan(monkeypatch, hamming_cube(6), s4,
                           SearchConfig(seed=1, restarts=2, anchor_budget=2))
    _matches_the_full_scan(monkeypatch, hamming_cube(3), symmetric_group(3), SearchConfig())


def test_pruned_search_matches_the_full_scan_on_random_pairs(monkeypatch):
    rng = np.random.default_rng(29)
    exhaustive = 0
    for k in range(130):
        X = random_space(rng, int(rng.integers(2, 10)))
        Y = random_space(rng, int(rng.integers(2, 10)))
        if k % 10 == 0:  # a massless point owns no cell of any coupling
            w = X.weight.copy()
            w[0] = 0.0
            X = FiniteMMSpace(X.labels, w / w.sum(), dist=X.dist)
        exhaustive += math.factorial(X.n) * math.factorial(Y.n) <= 720
        cfg = SearchConfig(seed=k, restarts=int(rng.integers(1, 5)),
                           anchor_budget=int(rng.integers(1, 9)))
        _matches_the_full_scan(monkeypatch, X, Y, cfg)
    assert exhaustive >= 5  # some pairs search every order pair's corner


@pytest.mark.parametrize("X, Y, cfg, want", [
    # S_4 against the 4-cube at seed 1 and budget 8, as mmlab obsdist runs
    # it: 80 anchors, each a full scan of 2 x 24 x 16 rows; pruned, each
    # visits one member of S_4 against the cube's 16
    (symmetric_group(4), hamming_cube(4), SearchConfig(seed=1, restarts=8, anchor_budget=8),
     (2560, 61440)),
    # here anchors that cannot win are abandoned: 7,704 rows without that
    (hamming_cube(3), symmetric_group(3), SearchConfig(), (5832, 120960)),
])
def test_pruning_skips_most_me1_rows(monkeypatch, X, Y, cfg, want):
    rows = count_me1_rows(monkeypatch)
    obs_distance(X, Y, cfg)
    pruned = rows[0]
    monkeypatch.setattr(observable, "_family_hausdorff", full_scan_family_hausdorff)
    rows[0] = 0
    obs_distance(X, Y, cfg)
    assert (pruned, rows[0]) == want
    assert pruned * 10 <= rows[0]


def test_oversized_general_pairs_are_refused_before_allocating(monkeypatch):
    # two 1,000-point spaces: 2,000 members on 1,000,000 product cells
    big = FiniteMMSpace(list(range(1000)), np.full(1000, 1e-3),
                        points=np.arange(1000.0)[:, None], metric="euclidean")

    def no_families(*args):
        raise AssertionError("families were built")

    monkeypatch.setattr(observable, "lipschitz_extremes", no_families)
    monkeypatch.setattr(observable, "_candidate_couplings", no_families)
    with pytest.raises(ValueError, match="1000 x 1000 cells take 2000000000 entries"):
        obs_distance(big, big)
    # a massless point owns no cell, so the cells counted are 4 x 4, not
    # 1,000 x 1,000, and the same pair with 4 points of mass each passes
    w = np.zeros(1000)
    w[:4] = 0.25
    monkeypatch.undo()
    light = FiniteMMSpace(list(range(1000)), w, points=np.arange(1000.0)[:, None],
                          metric="euclidean")
    assert obs_distance(light, light, SearchConfig(restarts=1)).upper >= 0.0


def _spaces_with_a_massless_point(rng):
    """Random dense spaces; the last one gives its first point weight 0."""
    out = [random_space(rng, int(rng.integers(2, 10))) for _ in range(15)]
    w = out[-1].weight.copy()
    w[0] = 0.0
    out.append(FiniteMMSpace(out[-1].labels, w / w.sum(), dist=out[-1].dist))
    return out


def test_distance_to_point_is_the_closed_form(monkeypatch):
    pt = point_space()
    cases = _spaces_with_a_massless_point(np.random.default_rng(17))
    want = [_search_with_a_family_per_anchor(X, pt, SearchConfig(seed=k))
            for k, X in enumerate(cases)]

    def no_search(*args):
        raise AssertionError("the point case ran the search")

    monkeypatch.setattr(observable, "_candidate_couplings", no_search)
    monkeypatch.setattr(observable, "_family_hausdorff", no_search)
    for X, searched in zip(cases, want):
        res = obs_distance(X, pt)
        assert abs(res.upper - searched) <= 2.3e-16
        assert type(res.upper) is float
        assert np.array_equal(res.coupling, np.outer(X.weight, [1.0]))
        # the first anchor cell by mass: the heaviest point, lowest index first
        assert res.anchor == (int(np.argmax(X.weight)), 0)
        back = obs_distance(pt, X)
        assert back.upper == res.upper and back.anchor == (0, res.anchor[0])
        # the coupling's marginals are the weights, and a massless point owns
        # no cell: its row is zero
        assert np.allclose(res.coupling.sum(axis=1), X.weight, rtol=0, atol=1e-15)
        assert np.array_equal(res.coupling[:, 0] > 0, X.weight > 0)
    assert obs_distance(pt, pt).upper == 0.0


def test_cube5_distance_to_point_is_exact():
    assert obs_distance(hamming_cube(5), point_space()).upper == pytest.approx(
        7 / 32, abs=1e-15)


@pytest.mark.parametrize("space, want", [
    (hamming_cube(4), 1 / 4), (hamming_cube(6), 7 / 32),
    (hamming_cube(7), 3 / 14), (hamming_cube(8), 3 / 16),
    (symmetric_group(4), 1 / 4), (symmetric_group(5), 1 / 5)],
    ids=["cube4", "cube6", "cube7", "cube8", "S4", "S5"])
def test_distance_to_point_is_pinned(space, want):
    # the 5-cube is pinned to 1e-15 above
    assert obs_distance(space, point_space()).upper == pytest.approx(want, abs=1e-12)


# -- convergence to the point space -------------------------------------------------

def test_cube_sequence_contracts_toward_the_point():
    spaces = [hamming_cube(n) for n in (2, 4, 6, 8, 10)]
    res = levy_convergence_test(spaces)
    want = [0.25, 0.25, 0.21875, 0.1875, 0.2]
    assert np.allclose(res.dists, want, atol=1e-12)
    assert res.decreasing_trend
    assert (res.dists > 0).all()
    assert res.dists[-1] < res.dists[0]


def test_point_list_is_flat_zero():
    res = levy_convergence_test([point_space(), point_space(), point_space()])
    assert np.allclose(res.dists, 0.0, atol=1e-12)


def test_identical_nontrivial_spaces_show_no_trend():
    res = levy_convergence_test([hamming_cube(2)] * 4)
    assert not res.decreasing_trend
    assert np.allclose(res.dists, res.dists[0], atol=1e-12)


def test_sampled_spheres_are_a_levy_family():
    # the paper's model Levy family: 250 geodesic samples of S^2, S^8, S^32
    spaces = [sphere_sampled(d, SamplerConfig(seed=0, sample_count=250), "geodesic")
              for d in (2, 8, 32)]
    res = levy_convergence_test(spaces)
    want = [0.5228064956955301, 0.36123838736869585, 0.2400000000000001]
    assert np.allclose(res.dists, want, rtol=0, atol=1e-12)
    assert res.decreasing_trend
