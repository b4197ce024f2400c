"""Core space container, thickening, validation, exact concentration values,
and serialization round trips."""

import functools
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (count_pairs, dense_dist_to_set, dense_thickening, full_table_alpha_exact,
                      normalized, pairwise_dist_to_set, spaces)
from mmlab import spaces as spaces_module
from mmlab.concentration import SearchConfig, alpha_lower_bound, majority_ball_upper
from mmlab.dynamics import IsometricAction
from mmlab.generators import (hamming_cube, hamming_cube_sampled, so_n_sampled,
                              sphere_sampled, SamplerConfig)
from mmlab.observable import _best_const_rows, _family_hausdorff, lipschitz_extremes
from mmlab.spaces import (ConcentrationCurve, FiniteMMSpace, alpha_exact,
                          diameter, load_space, measure, neighborhood,
                          point_space, save_space, space_from_json,
                          space_to_json, validate_space)


def two_point(d=1.0, w=(0.5, 0.5)):
    return FiniteMMSpace(["a", "b"], list(w), dist=[[0.0, d], [d, 0.0]])


def test_point_space_basics():
    x = point_space()
    assert x.n == 1
    assert diameter(x) == 0.0
    assert measure(x, [True]) == 1.0
    assert validate_space(x) == []


def test_weight_normalization_and_rejection():
    with pytest.raises(ValueError):
        two_point(w=(0.5, 0.6))
    with pytest.warns(UserWarning):
        x = two_point(w=(0.5, 0.5 + 1e-10))
    assert abs(x.weight.sum() - 1.0) < 1e-15


def test_neighborhood_closed_threshold():
    x = two_point(d=1.0)
    a = np.array([True, False])
    assert neighborhood(x, a, 0.999).tolist() == [True, False]
    assert neighborhood(x, a, 1.0).tolist() == [True, True]  # closed thickening
    with pytest.raises(ValueError):
        neighborhood(x, a, -0.1)
    with pytest.raises(ValueError):
        neighborhood(x, np.zeros(2, dtype=bool), 0.5)


@settings(max_examples=60, deadline=None)
@given(spaces(), st.floats(0.0, 2.0))
def test_neighborhood_matches_distance_oracle(space, eps):
    mask = np.zeros(space.n, dtype=bool)
    mask[0] = True
    got = neighborhood(space, mask, eps)
    want = pairwise_dist_to_set(space, mask) <= eps
    assert (got == want).all()


def lattice_points():
    """Point sets for every lazy metric kind whose distances repeat exactly,
    so thickening radii can sit on ties (d == eps)."""
    dirs = np.array([v for v in itertools.product((-1, 0, 1), repeat=3) if any(v)],
                    dtype=float)
    # two signed unit entries in 8 coordinates: dot products 0, +-1/2, +-1
    pairs8 = np.zeros((112, 8))
    for k, ((i, j), si, sj) in enumerate(itertools.product(
            itertools.combinations(range(8), 2), (-1, 1), (-1, 1))):
        pairs8[k, [i, j]] = si, sj
    return {
        "hamming 0/1": (np.array(list(itertools.product((0, 1), repeat=5)), dtype=np.uint8),
                        "hamming"),
        # 70 coordinates pack into two words
        "hamming 0/1, two words": (np.random.default_rng(7).integers(
            0, 2, size=(40, 70), dtype=np.uint8), "hamming"),
        "hamming permutations": (np.array(list(itertools.permutations(range(4))),
                                          dtype=np.uint8), "hamming"),
        "euclidean": (np.array(list(itertools.product(range(4), range(4), range(3))),
                               dtype=float), "euclidean"),
        "euclidean, 8 coordinates": (np.random.default_rng(8).integers(
            0, 3, size=(60, 8)).astype(float), "euclidean"),
        "geodesic, unit points": (dirs / np.linalg.norm(dirs, axis=1)[:, None],
                                  "sphere_geodesic"),
        "geodesic, unit points, 8 coordinates": (pairs8 / np.sqrt(2.0),
                                                 "sphere_geodesic"),
        "geodesic, other points": (np.array(list(itertools.product((-1, 0, 2), repeat=3)),
                                            dtype=float), "sphere_geodesic"),
        "operator_norm": (np.array(list(itertools.product((-1, 0, 1), repeat=4)), dtype=float),
                          "operator_norm"),
    }


def tie_radii(dist):
    """Every distance, one float step either side, and radii no distance
    meets (negative, nan) or every distance meets (1e200, inf)."""
    radii = [-0.5, np.nan, 1e200, np.inf]
    for d in np.unique(dist):
        radii += [d, np.nextafter(d, 0.0), np.nextafter(d, np.inf)]
    return radii


def lazy_space(points, metric):
    n = points.shape[0]
    return FiniteMMSpace(list(range(n)), np.full(n, 1.0 / n), points=points, metric=metric)


def test_lazy_thickening_agrees_with_materialized():
    # every metric kind on lattice data, at every distance that occurs (ties),
    # one float step either side, radii no distance meets (negative, nan),
    # and radii every distance meets (1e200, whose square overflows, and inf):
    # the lazy kernels, screens included, the explicit matrix's kernel and a
    # materialized cloud, which keeps its own kernel, all give the dense rule
    # min over members <= eps
    rng = np.random.default_rng(1)
    for name, (pts, metric) in lattice_points().items():
        lazy = lazy_space(pts, metric)
        materialized = lazy_space(pts, metric)
        dist = materialized.dist
        explicit = FiniteMMSpace(lazy.labels, lazy.weight, dist=dist)
        radii = tie_radii(dist)
        for share in (0.05, 0.3, 0.5, 0.9):
            mask = rng.random(lazy.n) < share
            mask[rng.integers(lazy.n)] = True
            for space in (lazy, explicit, materialized):
                assert np.array_equal(pairwise_dist_to_set(space, mask),
                                      dense_dist_to_set(dist, mask)), name
                for eps in radii:
                    assert np.array_equal(space.thickened(mask, eps),
                                          dense_thickening(dist, mask, eps)), (name, eps)
        assert lazy._dist is None, name

    # sampled spheres, built unmaterialized
    for metric in ("euclidean", "sphere_geodesic"):
        pts = sphere_sampled(2, SamplerConfig(seed=3, sample_count=300)).points
        lazy = lazy_space(pts, metric)
        dist = lazy_space(pts, metric).dist
        mask = np.zeros(lazy.n, dtype=bool)
        mask[[0, 17, 101]] = True
        for eps in (0.05, 0.3, 1.0, 3.5):
            assert np.array_equal(lazy.thickened(mask, eps), dense_thickening(dist, mask, eps))
        assert lazy._dist is None


def search_scores(space, rng, anchors=3):
    """Scores as alpha_lower_bound draws them: anchor distance rows, and the
    min of those rows shifted by offsets in [0, their largest entry)."""
    idx = np.arange(space.n)
    picks = rng.choice(space.n, size=anchors, replace=False)
    rows = space.pairwise(picks, idx)
    offsets = rng.uniform(0.0, float(rows.max()) or 1.0, size=anchors)
    return [*rows, (rows + offsets[:, None]).min(axis=0)]


def prefix_masks(score, sizes):
    """The sets of the first k points in the score's stable order."""
    order = np.argsort(score, kind="stable")
    masks = []
    for k in sizes:
        mask = np.zeros(score.shape[0], dtype=bool)
        mask[order[:k]] = True
        masks.append(mask)
    return masks


def test_score_pruned_thickening_matches_the_full_scan_at_every_tie(monkeypatch):
    # on every kernel that prunes, the candidates of the lower-bound search
    # (prefix sets of distance rows and of mins of shifted rows) thicken to
    # the same mask with and without their score, ties included, while the
    # pruned scans read fewer pairs
    pairs = count_pairs(monkeypatch)
    rng = np.random.default_rng(4)
    prunable = set()
    for name, (pts, metric) in lattice_points().items():
        space = lazy_space(pts, metric)
        if space._kernel.score_slack is None:
            continue
        prunable.add(name)
        radii = tie_radii(space.dist)
        n = space.n
        scanned = {True: 0, False: 0}
        for score in search_scores(space, rng):
            for mask in prefix_masks(score, (1, 2, n // 4, n // 2, n - 1, n)):
                for eps in radii:
                    pairs[0] = 0
                    want = space.thickened(mask, eps)
                    scanned[False] += pairs[0]
                    pairs[0] = 0
                    got = space.thickened(mask, eps, score)
                    scanned[True] += pairs[0]
                    assert np.array_equal(got, want), (name, eps, int(mask.sum()))
        assert scanned[True] < scanned[False], name
    assert prunable == set(lattice_points()) - {"geodesic, other points", "operator_norm"}


def test_kernels_without_a_triangle_bound_scan_in_full(monkeypatch):
    # an explicit matrix that breaks the triangle inequality and geodesic
    # points 1e-9 off the unit sphere: each breaks d(x, y) >= score[x] -
    # score[y] by more than a pruning slack could cover, so each scans every
    # pair with a score too
    pairs = count_pairs(monkeypatch)
    broken = FiniteMMSpace([0, 1, 2], [0.4, 0.2, 0.4],
                           dist=[[0.0, 1.0, 3.0], [1.0, 0.0, 0.5], [3.0, 0.5, 0.0]])
    assert any("triangle" in msg for msg in validate_space(broken))
    # x and y sit 3e-5 apart in angle, but their dot product rounds past 1,
    # so their computed distance is 0 while the anchor's rows differ by 3e-5
    t, gap = 1.0, 3e-5
    arcs = np.array([0.0, t, t + gap, 2.0, 2.5])
    norms = np.array([1.0, 1.0 + 1e-9, 1.0 + 1e-9, 1.0 - 1e-9, 1.0 + 1e-9])
    off_unit = lazy_space(norms[:, None] * np.stack(
        [np.cos(arcs), np.sin(arcs), np.zeros(5)], axis=1), "sphere_geodesic")
    assert off_unit.pairwise(np.array([1]), np.array([2]))[0, 0] == 0.0
    cases = [(broken, [True, True, False], [0.5, 1.0]),
             (off_unit, [True, True, False, False, False], [0.0, 1e-5])]
    for space, mask, radii in cases:
        assert space._kernel.score_slack is None
        score = space.pairwise(np.array([0]), np.arange(space.n))[0]
        for eps in radii:
            pairs[0] = 0
            want = space.thickened(mask, eps)
            full = pairs[0]
            pairs[0] = 0
            assert np.array_equal(space.thickened(mask, eps, score), want), (space, eps)
            assert pairs[0] == full
    # the points the anchor's score would have pruned are in
    assert broken.thickened([True, True, False], 0.5, [0.0, 1.0, 3.0]).all()
    assert off_unit.thickened([True, True, False, False, False], 1e-5, off_unit.pairwise(
        np.array([0]), np.arange(5))[0]).tolist() == [True, True, True, False, False]


def test_geodesic_pruning_holds_near_the_anchors_antipodes_and_coincidences():
    # points unit within _UNIT_TOL at and near the anchors and their
    # antipodes, where arccos turns a dot product's error delta into
    # sqrt(2 delta): up to 1.4e-6 rad a distance, so the computed distances
    # break the triangle inequality by more than 1e-6
    rng = np.random.default_rng(6)
    base = rng.standard_normal((3, 3))
    base /= np.linalg.norm(base, axis=1)[:, None]
    pts = []
    for u in base:
        w = np.cross(u, rng.standard_normal(3))
        w /= np.linalg.norm(w)
        for sign, angle, scale in itertools.product(
                (1.0, -1.0), (0.0, 1e-7, 1e-6, 3e-6), (1.0 - 4.9e-13, 1.0, 1.0 + 4.9e-13)):
            pts.append(sign * scale * (np.cos(angle) * u + np.sin(angle) * w))
    pts = np.vstack([pts, sphere_sampled(2, SamplerConfig(seed=6, sample_count=20)).points])
    space, flat = lazy_space(pts, "sphere_geodesic"), lazy_space(pts, "sphere_geodesic")
    assert space._kernel.score_slack is not None
    flat._kernel.score_slack = 1e-6
    dist = space.dist
    # anchors: each base point at norm 1 - 4.9e-13, and its antipode
    anchors = np.arange(0, 72, 12)
    rows = space.pairwise(anchors, np.arange(space.n))
    scores = [*rows, (rows + rng.uniform(0.0, 1e-5, size=anchors.shape[0])[:, None]).min(axis=0)]
    radii = [0.0, 1e-7, 5e-7, 1e-6, 1.5e-6, 2e-6, 5e-6, 1e-5]
    flat_differs = False
    for score in scores:
        for mask in prefix_masks(score, range(1, space.n)):
            for eps in radii:
                want = dense_thickening(dist, mask, eps)
                assert np.array_equal(space.thickened(mask, eps, score), want), eps
                flat_differs |= not np.array_equal(flat.thickened(mask, eps, score), want)
    assert flat_differs  # a flat 1e-6 slack would lose points here


@functools.cache
def prunable_lattices():
    """The lattice spaces of the kernels that prune by a score, by name."""
    out = {}
    for name, (pts, metric) in lattice_points().items():
        space = lazy_space(pts, metric)
        if space._kernel.score_slack is not None:
            out[name] = space
    return out


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_score_ordered_thickening_does_not_need_a_sublevel_mask(data):
    # the score-ordered scan may assume only that the score is 1-Lipschitz:
    # masks that are no sublevel set of it thicken to the same mask with and
    # without it, at every distance and one float step either side, in row
    # blocks and growing column tiles small enough to split these lattices
    name = data.draw(st.sampled_from(sorted(prunable_lattices())), label="kernel")
    space = prunable_lattices()[name]
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=space.n, max_size=space.n)))
    mask[data.draw(st.integers(0, space.n - 1))] = True
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    score = search_scores(space, rng)[data.draw(st.integers(0, 3), label="score")]
    dist = np.unique(space.dist)
    d = dist[data.draw(st.integers(0, dist.shape[0] - 1))]
    eps = data.draw(st.sampled_from([np.nextafter(d, -np.inf), d, np.nextafter(d, np.inf)]))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(spaces_module, "_TILE_BYTES", data.draw(st.sampled_from([256, 4096, 1 << 25])))
        m.setattr(spaces_module, "_FIRST_TILE_COLS", data.draw(st.sampled_from([1, 3, 128])))
        got = space.thickened(mask, eps, score)
    assert np.array_equal(got, space.thickened(mask, eps))
    assert np.array_equal(got, dense_thickening(space.dist, mask, eps))


@pytest.mark.parametrize("dim", [64, 65, 300])
def test_hamming_popcounts_match_a_coordinate_count(dim):
    # one packed word (64 coordinates) counts in uint8, more words in a wider
    # sum: at every count 0..dim, past 255 included, block is the count of
    # differing coordinates over dim, and within agrees with block <= eps at
    # each count's distance and one float step either side
    rng = np.random.default_rng(dim)
    base = rng.integers(0, 2, size=dim, dtype=np.uint8)
    ladder = np.array([np.concatenate([1 - base[:k], base[k:]]) for k in range(dim + 1)])
    pts = np.vstack([ladder, rng.integers(0, 2, size=(30, dim), dtype=np.uint8)])
    kernel = lazy_space(pts, "hamming")._kernel
    assert kernel.words.shape[1] == -(-dim // 64)
    idx = np.arange(pts.shape[0])
    block = kernel.block(idx, idx)
    counts = np.array([(pts != p).sum(axis=1) for p in pts])
    assert np.array_equal(block, counts / dim)
    assert np.array_equal(block[0, :dim + 1], np.arange(dim + 1) / dim)
    cols = np.array([0, dim + 1, dim + 2])
    for c in range(dim + 1):
        for eps in (np.nextafter(c / dim, -1.0), c / dim, np.nextafter(c / dim, 2.0)):
            assert np.array_equal(kernel.within(idx, cols, eps),
                                  (block[:, cols] <= eps).any(axis=1)), (c, eps)


def test_matrix_thickening_scratch_stays_within_the_tile_budget(monkeypatch):
    import tracemalloc
    cloud = sphere_sampled(2, SamplerConfig(seed=0, sample_count=2000))
    explicit = FiniteMMSpace(cloud.labels, cloud.weight, dist=cloud.dist)
    mask = np.zeros(explicit.n, dtype=bool)
    mask[::2] = True
    monkeypatch.setattr(spaces_module, "_TILE_BYTES", 1 << 20)
    tracemalloc.start()
    try:
        explicit.thickened(mask, 0.3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one tile plus a few vectors of one entry per point; the dense rule
    # reads 2000 x 1000 floats (16 MB) at once
    assert peak < (1 << 20) + 64 * explicit.n


def test_dist_to_set_picks_the_exact_nearest_among_near_ties():
    # every row has two members at mirror-image offsets, equally far up to
    # rounding: the lazy kernel's tiles must give the same smaller exact
    # distance as the dense matrix
    rng = np.random.default_rng(3)
    x = rng.standard_normal((300, 3))
    x /= np.linalg.norm(x, axis=1)[:, None]
    v = 0.05 * rng.standard_normal((300, 3))
    m1 = x + v
    m1 /= np.linalg.norm(m1, axis=1)[:, None]
    mirrored = {"euclidean": (x + v, x - v),
                # m1 reflected through the axis of x, on the sphere again
                "sphere_geodesic": (m1, 2.0 * (m1 * x).sum(axis=1)[:, None] * x - m1)}
    mask = np.arange(900) >= 300
    for metric, (a, b) in mirrored.items():
        pts = np.vstack([x, a, b])
        lazy = lazy_space(pts, metric)
        dense = FiniteMMSpace(lazy.labels, lazy.weight, dist=lazy_space(pts, metric).dist)
        assert np.array_equal(pairwise_dist_to_set(lazy, mask),
                              pairwise_dist_to_set(dense, mask)), metric
        assert lazy._dist is None


def test_euclidean_points_too_large_to_screen_are_refused():
    # the screen's sums reach 8 |x|^2, so a cloud is built only while that is
    # finite: at 1e154 a coordinate it overflows; at 1e153 the cloud is
    # screened, prunes by a score, and gives the dense matrix's masks
    pts = np.array(list(itertools.product(range(3), repeat=2)), dtype=float)
    with pytest.raises(ValueError, match=r"^point 1 has squared norm 1e\+308, but 8 \|x\|\^2 "):
        lazy_space(pts * 1e154, "euclidean")
    big = pts * 1e153
    lazy = lazy_space(big, "euclidean")
    assert lazy._kernel.score_slack > 0.0
    dense = FiniteMMSpace(lazy.labels, lazy.weight, dist=lazy_space(big, "euclidean").dist)
    mask = np.zeros(pts.shape[0], dtype=bool)
    mask[[0, 4]] = True
    score = lazy.pairwise(np.array([0]), np.arange(lazy.n))[0]
    for eps in (5e152, 1e153, 1.5e153, 1e300, np.inf):
        want = dense.thickened(mask, eps)
        assert np.array_equal(lazy.thickened(mask, eps), want), eps
        assert np.array_equal(lazy.thickened(mask, eps, score), want), eps


def test_tile_budget_and_point_order_do_not_change_results(monkeypatch):
    cfg = SearchConfig(seed=2, restarts=3)
    rng = np.random.default_rng(5)

    def accepted(space, perm):
        try:
            IsometricAction(space, [perm])
        except ValueError:
            return False
        return True

    def run(pts, metric, masks):
        space = lazy_space(pts, metric)
        thick = [space.thickened(m, eps) for m in masks for eps in (0.3, 0.5, 1.0)]
        return thick, pairwise_dist_to_set(space, masks[0]), diameter(space), [
            alpha_lower_bound(lazy_space(pts, metric), eps, cfg) for eps in (0.3, 1.0)], [
            majority_ball_upper(space, eps) for eps in (0.3, 1.0)], [
            accepted(space, perm) for perm in (np.arange(space.n), np.roll(np.arange(space.n), 1))]

    def fits(pts, metric):
        # the constant fit and the Hausdorff me1 of the observable search
        space = lazy_space(pts, metric)
        fam = lipschitz_extremes(space, 0)
        fit = _best_const_rows(space.weight, fam)
        return fit, _family_hausdorff(space.weight, fam, -fam[::3], fit, fit[::3])

    for name, (pts, metric) in lattice_points().items():
        masks = [rng.random(pts.shape[0]) < 0.5 for _ in range(3)]
        want = run(pts, metric, masks)
        want_fit, want_hausdorff = fits(pts, metric)
        with monkeypatch.context() as m:
            m.setattr(spaces_module, "_TILE_BYTES", 256)  # a few pairs per tile
            got = run(pts, metric, masks)
            got_fit, got_hausdorff = fits(pts, metric)
        for a, b in zip(want[0], got[0]):
            assert np.array_equal(a, b), name
        assert np.array_equal(want[1], got[1]) and want[2:] == got[2:], name
        assert np.array_equal(want_fit, got_fit) and want_hausdorff == got_hausdorff, name

        # reversed point order: the same masks, reversed
        rev = run(pts[::-1], metric, [m[::-1] for m in masks])
        for a, b in zip(want[0], rev[0]):
            assert np.array_equal(a, b[::-1]), name
        assert np.array_equal(want[1], rev[1][::-1]) and want[2] == rev[2], name
        assert want[4] == rev[4] and want[5][0] and rev[5][0], name


def test_hamming_thickening_tile_memory_is_bounded():
    import tracemalloc
    cube = hamming_cube_sampled(100, SamplerConfig(seed=0, sample_count=3000))
    mask = np.zeros(cube.n, dtype=bool)
    mask[::2] = True
    tracemalloc.start()
    try:
        cube.thickened(mask, 0.3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cube._dist is None
    assert peak < 64 << 20


def test_sphere_geodesic_self_distance_is_exactly_zero():
    x = sphere_sampled(3, SamplerConfig(seed=0, sample_count=64), metric="geodesic")
    assert (np.diag(x.dist) == 0.0).all()


def brute_alpha(space, eps):
    """Independent oracle: direct subset scan with matrix thickenings."""
    d = space.dist
    w = space.weight
    best = None
    for r in range(1, space.n + 1):
        for comb in itertools.combinations(range(space.n), r):
            mask = np.zeros(space.n, dtype=bool)
            mask[list(comb)] = True
            if w[mask].sum() < 0.5 - 1e-12:
                continue
            grown = (d[:, mask] <= eps).any(axis=1)
            mu = w[grown].sum()
            best = mu if best is None else min(best, mu)
    return float(min(max(1.0 - best, 0.0), 0.5))


@settings(max_examples=40, deadline=None)
@given(spaces(max_n=5), st.sampled_from([0.1, 0.5, 0.9, 1.3, 1.8]))
def test_alpha_exact_against_brute_subset_scan(space, eps):
    assert alpha_exact(space, eps) == pytest.approx(brute_alpha(space, eps), abs=1e-12)


def test_alpha_exact_two_point_values():
    x = two_point(d=1.0)
    assert alpha_exact(x, 0.5) == 0.5   # half mass stays put below the gap
    assert alpha_exact(x, 1.0) == 0.0   # closed thickening reaches everything
    x = two_point(d=1.0, w=(0.4, 0.6))
    assert alpha_exact(x, 0.5) == pytest.approx(0.4, abs=1e-12)


def test_alpha_qualification_boundary():
    # 0.5 - 1e-13 sits inside the qualification tolerance, 0.5 - 1e-9 outside
    x = two_point(d=1.0, w=(0.5 - 1e-13, 0.5 + 1e-13))
    assert alpha_exact(x, 0.5) == 0.5
    y = two_point(d=1.0, w=(0.5 - 1e-9, 0.5 + 1e-9))
    assert alpha_exact(y, 0.5) == pytest.approx(0.5 - 1e-9, abs=1e-12)


def test_alpha_exact_rejects_bad_inputs():
    x = two_point()
    with pytest.raises(ValueError):
        alpha_exact(x, 0.0)
    big = hamming_cube(6)
    with pytest.raises(ValueError, match="alpha_lower_bound"):
        alpha_exact(big, 0.3, exhaustive_cap=20)


def dense_line(n):
    pos = np.arange(n, dtype=float)
    return FiniteMMSpace(list(range(n)), np.full(n, 1.0 / n),
                         dist=np.abs(pos[:, None] - pos[None, :]) / n)


def test_alpha_exact_refuses_tables_over_budget_before_allocating():
    import tracemalloc
    space = dense_line(27)
    space.dist  # noqa: B018  (build the matrix outside the traced window)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="budget"):
            alpha_exact(space, 0.5, exhaustive_cap=27)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@st.composite
def signed_spaces(draw):
    """A space of spaces() whose weights may be zero or negative."""
    space = draw(spaces(max_n=10))
    raw = draw(st.lists(st.integers(-3, 9), min_size=space.n, max_size=space.n)
               .filter(lambda v: sum(v) > 0))
    return FiniteMMSpace(space.labels, normalized(raw), dist=space.dist)


@settings(max_examples=150, deadline=None)
@given(signed_spaces(), st.integers(0, 4), st.data())
def test_alpha_exact_blocks_give_the_full_tables_value(space, block_bits, data):
    # eps half the time on one of the space's own distances, an exact tie
    # of the closed balls; blocks of 1 to 16 subsets split even small spaces
    ties = sorted(set(space.dist[space.dist > 0].tolist()))
    eps = data.draw(st.one_of(st.sampled_from(ties), st.floats(0.05, 2.5)))
    want = full_table_alpha_exact(space, eps)
    assert alpha_exact(space, eps) == want
    with mock.patch.object(spaces_module, "_SUBSET_BLOCK_BITS", block_bits):
        assert alpha_exact(space, eps) == want


def test_alpha_exact_blocks_around_the_block_size():
    # 13 and 14 points fill one block, 15 two, 17 eight
    rng = np.random.default_rng(30)
    for n in (13, 14, 15, 17):
        pts = rng.integers(0, 6, size=(n, 2)).astype(float)
        dist = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=2)) / 6.0
        for w in (np.full(n, 1.0 / n), normalized(rng.integers(0, 9, n) + 0.5),
                  normalized(np.r_[-0.5, rng.uniform(0.5, 1.5, n - 1)])):
            space = FiniteMMSpace(list(range(n)), w, dist=dist)
            for eps in (1.0 / 6.0, 0.2, np.sqrt(2.0) / 6.0, 0.5):
                assert alpha_exact(space, eps) == full_table_alpha_exact(space, eps), (n, eps)
    # the qualification boundary, with each subset a block of its own
    for w in ((0.5 - 1e-13, 0.5 + 1e-13), (0.5 - 1e-9, 0.5 + 1e-9)):
        x = two_point(d=1.0, w=w)
        for bits in (0, 1, 14):
            with mock.patch.object(spaces_module, "_SUBSET_BLOCK_BITS", bits):
                assert alpha_exact(x, 0.5) == full_table_alpha_exact(x, 0.5), (w, bits)


def test_a_thickening_stops_before_its_last_tile_only(monkeypatch):
    cube = hamming_cube(4)
    first = np.arange(16) == 0
    want = cube.thickened(first, 0.25)
    # the set's own measure reaches the stop before any tile
    assert cube.thickened(first, 0.25, stop=1 / 16) is None
    # one tile, where a stop would save nothing
    assert np.array_equal(cube.thickened(first, 0.25, stop=0.1), want)
    monkeypatch.setattr(spaces_module, "_TILE_BYTES", 1)  # one pair a tile
    assert cube.thickened(first, 0.25, stop=0.1) is None
    # the last point's neighbours are 7, 11, 13 and 14, the scan's last row:
    # 0.2 is reached on 13's tile, 0.3 only on the last
    last = np.arange(16) == 15
    want = cube.thickened(last, 0.25)
    assert want.sum() == 5 and want[14]
    assert cube.thickened(last, 0.25, stop=0.2) is None
    assert np.array_equal(cube.thickened(last, 0.25, stop=0.3), want)


@settings(max_examples=40, deadline=None)
@given(spaces(max_n=6))
def test_alpha_exact_monotone_in_eps(space):
    grid = np.linspace(0.1, 2.0, 8)
    vals = [alpha_exact(space, e) for e in grid]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 0.5 for v in vals)


def test_validate_space_reports_each_axiom():
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    ok = FiniteMMSpace([0, 1], [0.5, 0.5], dist=d)
    assert validate_space(ok) == []

    bad = d.copy(); bad[0, 1] = 2.0
    out = validate_space(FiniteMMSpace([0, 1], [0.5, 0.5], dist=bad))
    assert any("symmetry" in v for v in out)

    bad = d.copy(); bad[0, 0] = 0.1
    out = validate_space(FiniteMMSpace([0, 1], [0.5, 0.5], dist=bad))
    assert any("self-distance" in v for v in out)

    bad = -d
    out = validate_space(FiniteMMSpace([0, 1], [0.5, 0.5], dist=bad))
    assert any("negative distance" in v for v in out)

    tri = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    out = validate_space(FiniteMMSpace([0, 1, 2], [1 / 3] * 3, dist=tri))
    assert any("triangle" in v for v in out)


def test_validate_space_lists_the_first_five_triangles_in_order():
    # legs of 1 to the middle points 0 (from 2, 3) and 1 (from 2, 3, 4), 3
    # elsewhere: 2 violations through 0, 6 through 1, more through 2 and 3
    d = np.full((5, 5), 3.0)
    np.fill_diagonal(d, 0.0)
    for j, ends in ((0, [2, 3]), (1, [2, 3, 4])):
        d[j, ends] = d[ends, j] = 1.0
    out = validate_space(FiniteMMSpace(list(range(5)), [0.2] * 5, dist=d))
    assert out == [f"triangle inequality violated at ({i},{j},{k})"
                   for i, j, k in ((2, 0, 3), (3, 0, 2), (2, 1, 3), (2, 1, 4), (3, 1, 2))]


def test_curve_validation_and_csv_roundtrip():
    c = ConcentrationCurve([0.1, 0.2, 0.3], [0.5, 0.25, 0.0], kind="exact")
    back = ConcentrationCurve.from_csv_text(c.to_csv_text())
    assert (back.eps == c.eps).all() and (back.alpha == c.alpha).all()
    assert back.kind == "exact"

    with pytest.raises(ValueError):
        ConcentrationCurve([0.2, 0.1], [0.3, 0.3], kind="exact")
    with pytest.raises(ValueError):
        ConcentrationCurve([0.1, 0.2], [0.2, 0.3], kind="exact")  # increasing
    with pytest.raises(ValueError):
        ConcentrationCurve([0.1], [0.7], kind="exact")
    with pytest.raises(ValueError):
        ConcentrationCurve([0.1], [0.3], kind="whatever")


def test_curve_csv_floats_roundtrip_exactly():
    eps = np.array([0.1, 1 / 3, 0.7000000000000001])
    alpha = np.array([1 / 3, 0.2500000000000001, 1e-17])
    c = ConcentrationCurve(eps, alpha, kind="lower_bound_search")
    back = ConcentrationCurve.from_csv_text(c.to_csv_text())
    assert (back.eps == eps).all()
    assert (back.alpha == np.clip(alpha, 0, 0.5)).all()


@settings(max_examples=25, deadline=None)
@given(spaces())
def test_space_json_roundtrip_matrix(space):
    back = space_from_json(space_to_json(space))
    assert back.labels == space.labels
    assert np.array_equal(back.weight, space.weight)
    assert np.array_equal(back.dist, space.dist)


def test_space_json_roundtrip_lazy_kinds(tmp_path):
    for metric in ("euclidean", "geodesic"):
        x = sphere_sampled(2, SamplerConfig(seed=1, sample_count=40), metric=metric)
        p = tmp_path / f"{metric}.json"
        save_space(x, p)
        back = load_space(p)
        assert back.n == x.n
        idx = np.arange(x.n)
        assert np.allclose(back.pairwise(idx, idx), x.pairwise(idx, idx), atol=1e-12)

    cube = hamming_cube(3)
    back = space_from_json(space_to_json(cube))
    assert np.array_equal(back.dist, cube.dist)
    assert back.labels == cube.labels


@pytest.mark.parametrize("space, kind", [
    (hamming_cube(10), "hamming_normalized"),
    (so_n_sampled(3, SamplerConfig(seed=2, sample_count=30)), "operator_norm")],
    ids=["hamming", "operator_norm"])
def test_space_json_roundtrip_point_kinds(space, kind, tmp_path):
    path = tmp_path / "space.json"
    save_space(space, path)
    back = load_space(path)
    assert space_to_json(space)["metric"]["type"] == kind
    assert back.metric == space.metric and type(back._kernel) is type(space._kernel)
    assert back.labels == space.labels
    assert np.array_equal(back.weight, space.weight)
    idx = np.arange(space.n)
    assert np.array_equal(back.pairwise(idx, idx), space.pairwise(idx, idx))


def test_hamming_points_read_as_narrow_unsigned_integers():
    def doc(points):
        n = len(points)
        return {"labels": list(range(n)), "weights": [1.0 / n] * n,
                "metric": {"type": "hamming_normalized", "n": len(points[0]),
                           "points": points}}

    words = [list(range(300)), list(range(299, -1, -1))]
    back = space_from_json(doc(words))
    assert back.points.dtype == np.uint16 and back.points.tolist() == words
    assert back.dist[0, 1] == 1.0  # 300 is even: no symbol stays put
    assert space_from_json(doc([[0, 1], [1, 1]])).points.dtype == np.uint8
    for bad in ([[0, 0.5], [1, 1]], [[0, -1], [1, 1]], [[0, float("nan")], [1, 1]],
                [[0, float("inf")], [1, 1]]):
        with pytest.raises(ValueError, match="non-negative integers"):
            space_from_json(doc(bad))


def test_measure_and_diameter():
    x = hamming_cube(3)
    mask = np.zeros(8, dtype=bool)
    mask[[0, 7]] = True
    assert measure(x, mask) == pytest.approx(0.25, abs=1e-15)
    assert diameter(x) == 1.0
