"""Concentration function machinery: the cube fast path against the exhaustive
enumerator, search lower bounds, analytic sphere caps, decay fits, and the
median tail inequality."""

import inspect
import json
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betainc, betaincc

from conftest import (count_pairs, full_order_prefix_mask, full_scan_alpha_lower_bound, spaces,
                      spaces_with_lipschitz)
from mmlab import concentration, spaces as spaces_module
from mmlab.cli import main
from mmlab.concentration import (GaussianFit, LipschitzFunction, SearchConfig,
                                 alpha_lower_bound, concentration_curve,
                                 gaussian_fit, hamming_cube_alpha,
                                 hamming_cube_curve, levy_check,
                                 majority_ball_upper, median, sphere_cap_alpha,
                                 sphere_cap_curve, tail_check)
from mmlab.generators import (SamplerConfig, hamming_cube, hamming_cube_sampled, sphere_sampled,
                              symmetric_group)
from mmlab.spaces import (ConcentrationCurve, FiniteMMSpace, alpha_exact,
                          diameter, space_to_json)

GRID = np.arange(0.1, 1.01, 0.1)


# -- cube fast path vs exhaustive enumeration (two independent routes) --------

@pytest.mark.parametrize("n", [2, 3, 4])
def test_cube_alpha_fast_path_matches_enumeration(n):
    cube = hamming_cube(n)
    for eps in GRID:
        assert hamming_cube_alpha(n, eps) == pytest.approx(
            alpha_exact(cube, eps), abs=1e-12), (n, eps)


def test_cube_alpha_named_values():
    assert hamming_cube_alpha(2, 0.4) == 0.5
    assert hamming_cube_alpha(2, 0.5) == 0.0
    # one bit flip around the extremal half leaves the two far corners out
    assert hamming_cube_alpha(4, 0.25) == pytest.approx(2 / 16, abs=1e-12)


def test_cube_curve_shape_and_tail():
    c = hamming_cube_curve(12, GRID)
    assert c.kind == "exact"
    assert (np.diff(c.alpha) <= 1e-12).all()
    assert c.alpha[-1] == 0.0
    assert c.alpha[0] <= 0.5
    with pytest.raises(ValueError):
        hamming_cube_alpha(30, 0.3)


# -- search lower bound --------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4])
def test_lower_bound_is_tight_on_small_cubes(n):
    cube = hamming_cube(n)
    for eps in GRID:
        lb = alpha_lower_bound(cube, eps)
        assert lb == pytest.approx(alpha_exact(cube, eps), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(spaces(max_n=8), st.sampled_from([0.2, 0.6, 1.1, 1.7]))
def test_lower_bound_never_exceeds_exact(space, eps):
    lb = alpha_lower_bound(space, eps, SearchConfig(seed=1, restarts=4))
    assert lb <= alpha_exact(space, eps) + 1e-12
    assert 0.0 <= lb <= 0.5


@settings(max_examples=40, deadline=None)
@given(spaces(max_n=8), st.sampled_from([0.2, 0.6, 1.1, 1.7]))
def test_majority_ball_never_undercuts_exact(space, eps):
    assert majority_ball_upper(space, eps) >= alpha_exact(space, eps) - 1e-12


def majority_ball_unblocked(space, eps):
    """majority_ball_upper as one dense pass over all rows at once."""
    d = space.dist
    order = np.argsort(d, axis=1, kind="stable")
    cum = np.cumsum(np.take_along_axis(
        np.broadcast_to(space.weight, d.shape), order, axis=1), axis=1)
    first = np.argmax(cum > 0.5 + 1e-9, axis=1)
    radii = np.take_along_axis(d, np.take_along_axis(
        order, first[:, None], axis=1), axis=1)[:, 0]
    return float(min(max(1.0 - space.weight[radii <= eps].sum(), 0.0), 0.5))


@pytest.mark.parametrize("rows", [1, 3, 7])
def test_majority_ball_blocks_do_not_change_the_value(monkeypatch, rows):
    rng = np.random.default_rng(rows)
    for n in range(16, 22):
        pts = rng.integers(-4, 5, size=(n, 2))  # lattice ties at every radius
        space = FiniteMMSpace(list(range(n)), rng.dirichlet(np.ones(n)),
                              points=pts, metric="euclidean")
        want = {eps: majority_ball_unblocked(space, eps) for eps in (1.0, 2.0, 2.5, 4.0)}
        monkeypatch.setattr(spaces_module, "_TILE_BYTES",
                            rows * n * concentration._BALL_PAIR_BYTES)
        for eps, value in want.items():
            assert majority_ball_upper(space, eps) == value
        monkeypatch.undo()


def test_tail_check_memory_is_the_distance_matrix():
    # tail_check caches the 3000 x 3000 distance matrix (about 69 MiB) for the
    # Lipschitz check; the check and majority_ball_upper then work in row
    # blocks.  One dense pass of either held about four such arrays.
    rng = np.random.default_rng(0)
    n = 3000
    space = FiniteMMSpace(list(range(n)), np.full(n, 1.0 / n),
                          points=rng.normal(size=(n, 3)), metric="euclidean")
    f = LipschitzFunction(space.points[:, 0])
    tracemalloc.start()
    try:
        res = tail_check(space, f, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.bound_kind == "majority_ball"
    assert peak < 8 * n * n + 64 * 2 ** 20
    # called on its own, majority_ball_upper never builds the dense matrix
    space = FiniteMMSpace(list(range(n)), np.full(n, 1.0 / n),
                          points=space.points, metric="euclidean")
    tracemalloc.start()
    try:
        majority_ball_upper(space, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


def test_lower_bound_deterministic():
    space = hamming_cube(6)
    cfg = SearchConfig(seed=9)
    assert alpha_lower_bound(space, 0.3, cfg) == alpha_lower_bound(space, 0.3, cfg)


def test_search_thickenings_scan_a_fraction_of_the_pairs(monkeypatch):
    # every candidate of the search is pruned by its own score: on a geodesic
    # sample the scans read under a fifth of the pairs that the same search
    # reads with pruning off (0.052 on this sample), for the same value
    pairs = count_pairs(monkeypatch)
    pruned, full = (sphere_sampled(2, SamplerConfig(seed=1, sample_count=2000), "geodesic")
                    for _ in range(2))
    full._kernel.score_slack = None
    cfg = SearchConfig(seed=0)
    got = alpha_lower_bound(pruned, 0.3, cfg)
    scanned, pairs[0] = pairs[0], 0
    assert got == alpha_lower_bound(full, 0.3, cfg)
    # 4 balls and 8 restarts, each 1,000 rows against 1,000 members
    assert pairs[0] == 12 * 1000 * 1000
    assert scanned < 0.2 * pairs[0]


def test_search_thickenings_meet_the_members_nearest_the_boundary_first(monkeypatch):
    # the scans take rows in ascending and members in descending score, in
    # column tiles that grow from 128: an annulus row is mostly settled by the
    # first members it meets, so the search above reads under 0.08 of the
    # full scan's 12,000,000 pairs (0.052 on this sample; 0.12 in index order)
    pairs = count_pairs(monkeypatch)
    space = sphere_sampled(2, SamplerConfig(seed=1, sample_count=2000), "geodesic")
    alpha_lower_bound(space, 0.3, SearchConfig(seed=0))
    assert pairs[0] < 0.08 * 12 * 1000 * 1000


@settings(max_examples=60, deadline=None)
@given(spaces(max_n=8), st.sampled_from([0.2, 0.6, 1.1, 1.7]), st.integers(0, 3))
def test_dropping_losing_candidates_keeps_the_value(space, eps, seed):
    cfg = SearchConfig(seed=seed, restarts=4)
    assert (alpha_lower_bound(space, eps, cfg).hex()
            == full_scan_alpha_lower_bound(space, eps, cfg).hex())


def weighted_clouds():
    """Point clouds under weights with zeros, with a negative entry, and all
    equal."""
    rng = np.random.default_rng(5)
    n = 1100
    pts = rng.normal(size=(n, 2))
    zeros = rng.integers(0, 4, size=n).astype(float)
    zeros[0] += 1.0
    negative = rng.integers(1, 5, size=n).astype(float)
    negative[7] = -0.5
    for raw in (zeros, negative, np.ones(n)):
        yield FiniteMMSpace(list(range(n)), raw / raw.sum(), points=pts, metric="euclidean")


@pytest.mark.parametrize("eps", [0.05, 0.3, 0.8])
def test_dropping_keeps_the_value_under_zero_negative_and_equal_weights(eps):
    for space in weighted_clouds():
        for seed in range(3):
            cfg = SearchConfig(seed=seed)
            assert (alpha_lower_bound(space, eps, cfg).hex()
                    == full_scan_alpha_lower_bound(space, eps, cfg).hex())


def test_the_first_candidate_is_never_measured_against_the_starting_one():
    # every candidate's thickening is all of S_5, whose 120 weights sum to
    # 1 - 2^-53; a stop at the starting 1.0 would drop each scan whose
    # running mass rounds up to 1.0, and leave no candidate at all
    s5 = symmetric_group(5)
    assert alpha_lower_bound(s5, 0.6) == 1.1102230246251565e-16
    assert alpha_lower_bound(s5, 0.6) == full_scan_alpha_lower_bound(s5, 0.6)


def test_below_the_smallest_distance_later_candidates_stop_at_their_own_mass(monkeypatch):
    # below every pair's distance a thickening is its set, so all candidates
    # tie with the first; on equal weights each later one is dropped before
    # its scan starts, and the search reads only the first candidate's pairs
    space = hamming_cube_sampled(64, SamplerConfig(seed=3, sample_count=300))
    eps = 0.2  # the sample's smallest distance is 0.234375
    cfg = SearchConfig(seed=3)
    pairs = count_pairs(monkeypatch)
    got = alpha_lower_bound(space, eps, cfg)
    dropped, pairs[0] = pairs[0], 0
    assert got.hex() == full_scan_alpha_lower_bound(space, eps, cfg).hex()
    # 4 balls and 8 restarts, each scanning its 150 rows against the members
    # of its annulus (266,702 pairs in all against 22,350)
    assert pairs[0] > 11 * dropped


def test_dropping_losing_candidates_scans_fewer_pairs_for_the_same_value(monkeypatch):
    pairs = count_pairs(monkeypatch)
    space = sphere_sampled(2, SamplerConfig(seed=1, sample_count=2000), "geodesic")
    cfg = SearchConfig(seed=0)
    got = alpha_lower_bound(space, 0.3, cfg)
    dropped, pairs[0] = pairs[0], 0
    assert got == full_scan_alpha_lower_bound(space, 0.3, cfg)
    assert dropped < pairs[0]


def test_both_prefix_paths_give_the_full_stable_orders_prefix():
    # distance rows take 12 values on the 11-cube, so ties straddle every
    # threshold; equal weights may take the selection path, and every
    # weighting, zero and negative weights too, takes the full sort
    cube = hamming_cube(11)
    n = cube.n
    rng = np.random.default_rng(0)
    cases = []
    for anchor in range(0, n, 173):
        score = cube.pairwise([anchor], np.arange(n))[0]
        zeros = rng.integers(0, 5, size=n) + 0.0
        signed = rng.integers(1, 5, size=n) + 0.0
        signed[anchor] = -1.0
        cases += [(raw / raw.sum(), score) for raw in (np.ones(n), zeros, signed)]
    # equal weights where 1/n is mostly inexact: ties, signed zeros, no ties
    for n in (1, 2, 3, 7, 2200, 12000):
        w = np.full(n, 1.0 / n)
        signed_zeros = np.where(rng.random(n) < 0.5, -0.0, 0.0)
        cases += [(w, score) for score in (rng.integers(0, 4, size=n) + 0.0, signed_zeros,
                                           rng.normal(size=n))]
    selected = 0
    for w, score in cases:
        want = full_order_prefix_mask(w, score)
        np.testing.assert_array_equal(concentration._prefix_mask(w, score), want)
        size = concentration._equal_prefix_size(w)
        assert (size is None) == (w.min() != w.max())
        if size is not None:
            selected += 1
            np.testing.assert_array_equal(concentration._prefix_mask(w, score, size), want)
    assert selected == 12 + 18


def test_lower_bound_swap_refinement_keeps_half_mass():
    # regression: a swap chain on this triple used to re-add a point that was
    # already inside the set, leaving a sub-half candidate whose value then
    # clamped to exactly 0.5 and overshot the true alpha of 4/9
    dist = np.array([[0.0, 2.0, 3.0], [2.0, 0.0, 1.0], [3.0, 1.0, 0.0]])
    weight = np.array([3.0, 4.0, 2.0]) / 9.0
    space = FiniteMMSpace([str(i) for i in range(3)], weight, dist=dist)
    exact = alpha_exact(space, 0.2)
    assert exact == pytest.approx(4.0 / 9.0, abs=1e-12)
    lb = alpha_lower_bound(space, 0.2, SearchConfig(seed=1, restarts=4))
    assert lb <= exact + 1e-12
    assert lb == pytest.approx(exact, abs=1e-12)


def test_greedy_refine_turns_down_a_removal_that_raises_the_mass():
    # on non-negative weights a removal shrinks the thickening, so its mass
    # never rises; here b is within eps of a, and c, of negative weight, is
    # reached through b alone, so dropping b raises the mass from 0.8 to 1.0
    dist = np.array([[0.0, 0.1, 1.0, 5.0], [0.1, 0.0, 0.1, 5.0],
                     [1.0, 0.1, 0.0, 5.0], [5.0, 5.0, 5.0, 0.0]])
    space = FiniteMMSpace(list("abce"), [0.7, 0.3, -0.2, 0.2], dist=dist)
    source, first = inspect.getsourcelines(concentration._greedy_refine)
    # the first "mask[i] = True" puts back a removed member
    undo = first + next(k for k, line in enumerate(source) if line.strip() == "mask[i] = True")
    ran = set()

    def trace(frame, event, arg):
        if frame.f_code is concentration._greedy_refine.__code__:
            ran.add(frame.f_lineno)
            return trace

    outer = sys.gettrace()  # a coverage tracer, say, comes back afterwards
    sys.settrace(trace)
    try:
        mass = concentration._greedy_refine(space, np.array([True, True, False, False]), 0.5)
    finally:
        sys.settrace(outer)
    assert undo in ran
    exact = alpha_exact(space, 0.5)
    assert mass == pytest.approx(0.8, abs=1e-12)
    assert min(max(1.0 - mass, 0.0), 0.5) <= exact + 1e-12
    assert alpha_lower_bound(space, 0.5) <= exact + 1e-12


def test_greedy_refine_drops_a_member_the_half_mass_can_spare():
    # three of the 2-cube's four points hold 3/4: dropping the first keeps
    # half the mass, and at eps 0.25 the thickening is the set itself
    mass = concentration._greedy_refine(hamming_cube(2), np.array([True, True, True, False]),
                                        0.25)
    assert mass == 0.5


def test_greedy_refine_on_one_point_has_nothing_to_swap_in():
    # the swap pass finds no point outside the set and stops
    point = FiniteMMSpace([0], [1.0], dist=[[0.0]])
    assert concentration._greedy_refine(point, np.array([True]), 0.5) == 1.0
    assert alpha_lower_bound(point, 0.5) == 0.0


def test_lower_bound_search_refuses_a_non_finite_distance(tmp_path, capsys):
    # a nan distance once reached rng.uniform(0, nan) (exit 1), and
    # _greedy_refine's row minimum dropped a row that another member
    # reaches, for a bound of 0.5 above alpha_exact's 0.3; such a space is
    # refused when it is built, before any search reads it
    nan = [[0.0, 1.0, 0.1], [1.0, 0.0, np.nan], [0.1, np.nan, 0.0]]
    message = "not a metric: non-finite distance at (1,2)"
    with pytest.raises(ValueError) as refused:
        FiniteMMSpace([0, 1, 2], [0.3, 0.3, 0.4], dist=nan)
    assert str(refused.value) == message
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({"labels": [0, 1, 2], "weights": [0.3, 0.3, 0.4],
                                "metric": {"type": "matrix", "data": nan}}))
    assert main(["alpha", "--space", str(path), "--eps", "0.5", "--mode", "lower"]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": message}
    # an infinite column, which a search past 64 points once met in a restart's rows
    line = np.abs(np.subtract.outer(np.arange(70.0), np.arange(70.0)))
    line[:, 5] = line[5, :] = np.inf
    line[5, 5] = 0.0
    with pytest.raises(ValueError, match=r"^not a metric: non-finite distance at \(0,5\)$"):
        FiniteMMSpace(list(range(70)), np.full(70, 1 / 70), dist=line)


# -- analytic sphere caps --------------------------------------------------------

def test_sphere_cap_frozen_values():
    # S^1: cap complement is arc-length fraction (pi/2 - eps)/pi
    assert sphere_cap_alpha(1, 0.5) == pytest.approx(0.3408450569081047, abs=1e-12)
    assert sphere_cap_alpha(1, 0.5) == pytest.approx((np.pi / 2 - 0.5) / np.pi,
                                                     abs=1e-12)
    # S^2: closed form (1 - sin eps)/2
    assert sphere_cap_alpha(2, 0.1) == pytest.approx(0.450083291676586, abs=1e-12)
    for eps in (0.05, 0.3, 0.7, 1.2):
        assert sphere_cap_alpha(2, eps) == pytest.approx((1 - np.sin(eps)) / 2,
                                                         abs=1e-9)


def test_sphere_cap_matches_the_incomplete_beta_function():
    # alpha = I_{cos^2 eps}(dim/2, 1/2) / 2 = (1 - I_{sin^2 eps}(1/2, dim/2)) / 2,
    # each form read where its argument stays away from 1
    eps = np.linspace(0.0, np.pi / 2, 402)[1:-1]
    low = eps < np.pi / 4
    for dim in [*range(1, 60), 100, 200, 500, 1000, 5000]:
        want = 0.5 * np.where(low, betaincc(0.5, dim / 2, np.sin(eps) ** 2),
                              betainc(dim / 2, 0.5, np.cos(eps) ** 2))
        got = np.array([sphere_cap_alpha(dim, float(e)) for e in eps])
        assert np.abs(got - want).max() <= 1e-12, dim


def test_sphere_cap_limits_and_monotonicity():
    assert sphere_cap_alpha(2, np.pi / 2) == 0.0
    assert sphere_cap_alpha(2, 2.0) == 0.0
    grid = np.linspace(0.05, 1.5, 12)
    for dim in (1, 2, 3, 7):
        vals = [sphere_cap_alpha(dim, e) for e in grid]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    # higher dimension concentrates harder at fixed eps
    at_03 = [sphere_cap_alpha(d, 0.3) for d in (2, 3, 4, 6, 9)]
    assert all(a > b for a, b in zip(at_03, at_03[1:]))
    with pytest.raises(ValueError):
        sphere_cap_alpha(0, 0.3)
    with pytest.raises(ValueError):
        sphere_cap_alpha(2, 0.0)


def test_sphere_cap_curve_kind():
    c = sphere_cap_curve(3, np.linspace(0.1, 1.0, 5))
    assert c.kind == "analytic_cap"
    assert (np.diff(c.alpha) <= 1e-12).all()


# -- gaussian decay fit ----------------------------------------------------------

def planted_curves(c1, c2, dims, grid):
    out = []
    for n in dims:
        alpha = np.minimum(c1 * np.exp(-c2 * n * grid ** 2), 0.5)
        out.append((n, ConcentrationCurve(grid, alpha, kind="exact")))
    return out


def test_gaussian_fit_recovers_planted_model():
    grid = np.linspace(0.1, 0.5, 5)
    fit = gaussian_fit(planted_curves(0.4, 3.0, [4, 6, 8, 10], grid))
    assert fit.c1 == pytest.approx(0.4, abs=1e-9)
    assert fit.c2 == pytest.approx(3.0, abs=1e-9)
    assert fit.residual < 1e-9


def test_gaussian_fit_ignores_exact_zeros():
    grid = np.linspace(0.1, 0.5, 5)
    curves = planted_curves(0.4, 3.0, [4, 6], grid)
    dead = ConcentrationCurve(grid, np.zeros(5), kind="exact")
    fit = gaussian_fit(curves + [(40, dead)])
    assert fit.c2 == pytest.approx(3.0, abs=1e-9)


def test_gaussian_fit_underdetermined():
    grid = np.array([0.2])
    with pytest.raises(ValueError, match="underdetermined"):
        gaussian_fit(planted_curves(0.4, 3.0, [4], grid))


# -- vanishing-trend check ------------------------------------------------------

def test_levy_check_on_cube_family():
    # t = floor(n/4) is flat between multiples of 4, so alpha at a fixed eps
    # oscillates upward in between; the strict default slack rejects that,
    # a slack above the largest rise accepts the overall decay
    grid = np.array([0.25])
    curves = [hamming_cube_curve(n, grid) for n in range(2, 13)]
    want = [0.5, 0.5, 0.125, 0.1875, 0.1875, 0.2265625, 0.0625,
            0.08984375, 0.08984375, 0.11328125, 0.03271484375]
    assert np.allclose([c.alpha[0] for c in curves], want, atol=1e-12)
    res = levy_check(curves)
    assert res.table.shape == (11, 1)
    assert not res.is_levy_trend
    assert levy_check(curves, slack=0.07).is_levy_trend


def test_levy_check_on_analytic_decay():
    grid = np.array([1.0])
    curves = [ConcentrationCurve(grid, [min(np.exp(-n), 0.5)], kind="exact")
              for n in range(1, 11)]
    assert levy_check(curves).is_levy_trend


def test_levy_check_rejects_flat_family():
    grid = np.array([0.25, 0.5])
    flat = [ConcentrationCurve(grid, [0.5, 0.5], kind="exact") for _ in range(5)]
    assert not levy_check(flat).is_levy_trend


def test_levy_check_needs_shared_grid():
    a = hamming_cube_curve(3, np.array([0.25]))
    b = hamming_cube_curve(4, np.array([0.3]))
    with pytest.raises(ValueError):
        levy_check([a, b])


# -- medians and tail bounds ------------------------------------------------------

def test_median_mean_coordinate_on_cube():
    cube = hamming_cube(4)
    f = LipschitzFunction(np.bitwise_count(np.arange(16)) / 4.0)
    assert median(cube, f) == 0.5


def test_median_respects_weights():
    from mmlab.spaces import FiniteMMSpace
    x = FiniteMMSpace([0, 1, 2], [0.2, 0.25, 0.55],
                      dist=1.0 - np.eye(3))
    f = LipschitzFunction([0.0, 0.5, 1.0])
    assert median(x, f) == 1.0  # only the top value holds half the mass both ways


@settings(max_examples=60, deadline=None)
@given(spaces_with_lipschitz())
def test_median_is_a_two_sided_half_point(pair):
    space, values = pair
    m = median(space, LipschitzFunction(values))
    w = space.weight
    assert w[values <= m + 1e-12].sum() >= 0.5 - 1e-9
    assert w[values >= m - 1e-12].sum() >= 0.5 - 1e-9


@settings(max_examples=60, deadline=None)
@given(spaces_with_lipschitz(), st.sampled_from([0.1, 0.4, 0.9, 1.6]))
def test_tail_bound_holds(pair, eps):
    space, values = pair
    res = tail_check(space, LipschitzFunction(values), eps)
    assert res.holds
    assert res.bound_kind == "exact"
    assert res.tail_mass <= res.bound + 1e-12


def test_tail_at_a_distance_tie_is_not_counted():
    # f = d(., 000) takes the values k/3 and its median is 1/3; |1 - 1/3|
    # rounds to 0.6666666666666667, one step above eps, but no deviation
    # exceeds eps, so the tail is empty and meets the exact bound 0
    cube = hamming_cube(3)
    res = tail_check(cube, LipschitzFunction(cube.dist[0]), 0.6666666666666666)
    assert (res.tail_mass, res.bound, res.holds) == (0.0, 0.0, True)


@st.composite
def distance_functions(draw):
    """A space in the exhaustive range, f = d(., a) + c, and an eps that is
    one of the space's distances, so deviations can tie with it."""
    space = draw(st.one_of(spaces(), st.sampled_from([hamming_cube(n) for n in (2, 3, 4)])))
    a = draw(st.integers(0, space.n - 1))
    c = draw(st.sampled_from(np.arange(20) / 20))
    eps = draw(st.sampled_from(np.unique(space.dist[space.dist > 0]).tolist()))
    return space, space.dist[a] + c, eps


@settings(max_examples=200, deadline=None)
@given(distance_functions())
def test_tail_check_finds_no_violation_for_distance_functions(case):
    # Levy's median inequality holds for every 1-Lipschitz f
    space, values, eps = case
    assert tail_check(space, LipschitzFunction(values), eps).holds


def test_tail_check_beyond_diameter_is_empty():
    cube = hamming_cube(3)
    f = LipschitzFunction(np.bitwise_count(np.arange(8)) / 3.0)
    res = tail_check(cube, f, diameter(cube) + 0.1)
    assert res.tail_mass == 0.0 and res.holds


@pytest.mark.parametrize("n, kind, alpha", [(20, "exact", alpha_exact),
                                            (21, "majority_ball", majority_ball_upper)])
def test_tail_check_bound_past_the_exhaustive_cap(n, kind, alpha):
    pos = np.arange(n) / n
    line = FiniteMMSpace(list(range(n)), np.full(n, 1 / n),
                         dist=np.abs(pos[:, None] - pos[None, :]))
    res = tail_check(line, LipschitzFunction(pos), 0.3)
    assert res.bound_kind == kind
    assert res.bound == 2 * alpha(line, 0.3)
    assert res.holds


def test_tail_check_requires_unit_constant():
    cube = hamming_cube(2)
    f = LipschitzFunction([0.0, 2.0, 2.0, 4.0], constant=4.0)
    with pytest.raises(ValueError, match="rescale"):
        tail_check(cube, f, 0.3)


def test_tail_check_past_the_dense_cap_is_refused(tmp_path, monkeypatch, capsys):
    # the Lipschitz check reads space.dist, which refuses past the cap: so
    # does tail_check and `mmlab tail`, with exit 2 and the cap's message
    pos = np.arange(5) / 5
    line = FiniteMMSpace(list(range(5)), np.full(5, 0.2),
                         dist=np.abs(pos[:, None] - pos[None, :]))
    (tmp_path / "line.json").write_text(json.dumps(space_to_json(line)))
    (tmp_path / "f.json").write_text(json.dumps(pos.tolist()))
    monkeypatch.setattr(spaces_module, "_MATERIALIZE_CAP", 4)
    with pytest.raises(ValueError, match="space has 5 points, too many for a dense matrix"):
        tail_check(line, LipschitzFunction(pos), 0.3)
    assert main(["tail", "--space", str(tmp_path / "line.json"),
                 "--values", str(tmp_path / "f.json"), "--eps", "0.3"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and json.loads(out.err)["error"].startswith("space has 5 points")


def test_lipschitz_check_catches_violations():
    cube = hamming_cube(2)
    bad = LipschitzFunction([0.0, 5.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="violated"):
        bad.check(cube)
    # plain floats, not numpy scalar reprs
    with pytest.raises(ValueError, match=re.escape("|f(0)-f(1)|=5.0 > c*d=0.5")):
        bad.check(cube)
    good = LipschitzFunction(np.bitwise_count(np.arange(4)) / 2.0)
    good.check(cube)


@pytest.mark.parametrize("rows", [1, 2, 5])
def test_lipschitz_check_blocks_name_the_same_pair(monkeypatch, rows):
    # row 0 has a smaller violation at (0,3); the largest excess, 4 across
    # one bit, sits at (2,3), (2,6), (3,2), ... and the first one is named
    cube = hamming_cube(3)
    bad = LipschitzFunction([0.0, 1.0, 0.0, 4.0, 0.0, 0.0, 4.0, 3.0])
    with pytest.raises(ValueError) as dense:
        bad.check(cube)
    assert "violated at (2,3)" in str(dense.value)
    monkeypatch.setattr(spaces_module, "_TILE_BYTES",
                        rows * 8 * concentration._CHECK_PAIR_BYTES)
    with pytest.raises(ValueError) as blocked:
        bad.check(cube)
    assert str(blocked.value) == str(dense.value)


# -- generic curve driver ---------------------------------------------------------

def test_concentration_curve_exact_mode_matches_pointwise():
    cube = hamming_cube(4)
    c = concentration_curve(cube, GRID, mode="exact")
    want = [alpha_exact(cube, e) for e in GRID]
    assert np.allclose(c.alpha, want, atol=1e-12)
    assert c.kind == "exact"


def test_concentration_curve_lower_mode_monotone():
    cube = hamming_cube(6)
    c = concentration_curve(cube, GRID, mode="lower", cfg=SearchConfig(seed=3))
    assert c.kind == "lower_bound_search"
    assert (np.diff(c.alpha) <= 1e-12).all()
    exact = [hamming_cube_alpha(6, e) for e in GRID]
    assert (c.alpha <= np.asarray(exact) + 1e-12).all()
