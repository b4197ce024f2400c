"""Generator correctness: axiom cleanliness, invariances, distributional
checks on the samplers, bit-identical determinism, and the samplers' memory
budget."""

import tracemalloc

import numpy as np
import pytest
from scipy import stats

from mmlab import generators
from mmlab.generators import (SamplerConfig, build_space, hamming_cube,
                              hamming_cube_sampled, product_space,
                              sl2_word_metric, so_n_sampled, sphere_sampled,
                              symmetric_group, symmetric_group_sampled)
from mmlab.spaces import validate_space


def cfg(seed=0, n=200):
    return SamplerConfig(seed=seed, sample_count=n)


def test_all_generators_pass_validation():
    instances = [
        hamming_cube(4),
        hamming_cube_sampled(10, cfg()),
        symmetric_group(4),
        symmetric_group_sampled(6, cfg()),
        sphere_sampled(2, cfg(), metric="euclidean"),
        sphere_sampled(2, cfg(), metric="geodesic"),
        so_n_sampled(3, cfg(n=60)),
        sl2_word_metric(3),
        product_space([0.3, 0.7], 3),
    ]
    for x in instances:
        assert validate_space(x) == [], x


def test_hamming_cube_structure():
    x = hamming_cube(3)
    assert x.n == 8
    assert np.allclose(x.weight, 1 / 8)
    idx = np.arange(8)
    want = np.bitwise_count(idx[:, None] ^ idx[None, :]) / 3.0
    assert np.allclose(x.dist, want, atol=0)
    with pytest.raises(ValueError):
        hamming_cube(21)


def test_symmetric_group_is_biinvariant():
    x = symmetric_group(4)
    assert x.n == 24
    words = x.points.astype(int)
    index = {tuple(wd): i for i, wd in enumerate(words)}
    d = x.dist
    for g in words:
        left = np.array([index[tuple(g[wd])] for wd in words])
        right = np.array([index[tuple(wd[g])] for wd in words])
        assert np.array_equal(d[np.ix_(left, left)], d)
        assert np.array_equal(d[np.ix_(right, right)], d)
    with pytest.raises(ValueError):
        symmetric_group(8)


def sl2_elements(x):
    """The 2x2 matrices an sl2 space's "a,b,c,d" labels name."""
    return np.array([[int(v) for v in lab.split(",")] for lab in x.labels]).reshape(x.n, 2, 2)


def test_sl2_order_and_right_invariance():
    x = sl2_word_metric(3)
    assert x.n == 3 ** 3 - 3
    els = sl2_elements(x)
    assert ((els[:, 0, 0] * els[:, 1, 1] - els[:, 0, 1] * els[:, 1, 0]) % 3 == 1).all()
    index = {tuple(e.reshape(4)): i for i, e in enumerate(els)}
    assert len(index) == x.n
    d = x.dist
    # word length of x * h^{-1}-style metrics must survive right translation
    for h in els:
        prod = (els @ h) % 3
        perm = np.array([index[tuple(m.reshape(4))] for m in prod])
        assert np.array_equal(d[np.ix_(perm, perm)], d)
    with pytest.raises(ValueError):
        sl2_word_metric(4)
    with pytest.raises(ValueError):
        sl2_word_metric(17)


def test_sl2_metric_is_graph_distance():
    x = sl2_word_metric(3)
    d = x.dist
    assert d[0, 0] == 0.0
    # the four generators, two elementary matrices and their inverses, sit at
    # distance 1 from the identity
    i0 = x.labels.index("1,0,0,1")
    assert np.isclose(d[i0], 1.0).sum() == 4
    # triangle inequality plus integrality makes it a path metric
    assert np.allclose(d, np.round(d))


def test_sphere_points_are_unit_and_metrics_consistent():
    x_e = sphere_sampled(3, cfg(seed=2, n=150), metric="euclidean")
    x_g = sphere_sampled(3, cfg(seed=2, n=150), metric="geodesic")
    assert np.allclose(np.linalg.norm(x_e.points, axis=1), 1.0, atol=1e-12)
    idx = np.arange(x_e.n)
    chord = x_e.pairwise(idx, idx)
    arc = x_g.pairwise(idx, idx)
    assert np.allclose(chord, 2.0 * np.sin(arc / 2.0), atol=1e-9)
    assert arc.max() <= np.pi + 1e-12


def test_sphere_first_coordinate_distribution():
    # coordinates of a uniform point on S^2 are uniform on [-1, 1]
    x = sphere_sampled(2, cfg(seed=11, n=4000))
    ks = stats.kstest(x.points[:, 0], stats.uniform(loc=-1, scale=2).cdf)
    assert ks.pvalue > 0.01


def test_so3_samples_are_rotations():
    x = so_n_sampled(3, cfg(seed=4, n=80))
    mats = x.points.reshape(-1, 3, 3)
    eye = np.eye(3)
    assert np.allclose(mats @ np.transpose(mats, (0, 2, 1)), eye, atol=1e-9)
    assert np.allclose(np.linalg.det(mats), 1.0, atol=1e-9)
    # operator norm backend against direct svd on one pair
    want = np.linalg.svd(mats[3] - mats[7], compute_uv=False)[0]
    got = x.pairwise([3], [7])[0, 0]
    assert got == pytest.approx(want, abs=1e-12)


def test_so3_first_entry_distribution():
    x = so_n_sampled(3, cfg(seed=11, n=2000))
    # first column is uniform on S^2, so its first entry is uniform on [-1, 1]
    ks = stats.kstest(x.points[:, 0], stats.uniform(loc=-1, scale=2).cdf)
    assert ks.pvalue > 0.01


def test_product_space_weights_and_metric():
    x = product_space([0.3, 0.7], 3)
    assert x.n == 8
    w = {lab: wt for lab, wt in zip(x.labels, x.weight)}
    assert w["011"] == pytest.approx(0.3 * 0.7 * 0.7, abs=1e-15)
    assert w["000"] == pytest.approx(0.3 ** 3, abs=1e-15)
    i, j = x.labels.index("000"), x.labels.index("110")
    assert x.dist[i, j] == pytest.approx(2 / 3, abs=1e-15)
    with pytest.raises(ValueError):
        product_space([0.3, 0.6], 2)   # not a probability vector
    with pytest.raises(ValueError):
        product_space([0.5, 0.5], 13)  # blows the point cap


def test_sampling_determinism():
    a = sphere_sampled(2, cfg(seed=5, n=300))
    b = sphere_sampled(2, cfg(seed=5, n=300))
    c = sphere_sampled(2, cfg(seed=6, n=300))
    assert a.points.tobytes() == b.points.tobytes()
    assert a.points.tobytes() != c.points.tobytes()

    a = symmetric_group_sampled(8, cfg(seed=5))
    b = symmetric_group_sampled(8, cfg(seed=5))
    assert a.points.tobytes() == b.points.tobytes()

    a = so_n_sampled(4, cfg(seed=7, n=50))
    b = so_n_sampled(4, cfg(seed=7, n=50))
    assert a.points.tobytes() == b.points.tobytes()


def test_permutation_words_past_255_symbols():
    # symbols are stored in the narrowest unsigned type holding n - 1
    x = symmetric_group_sampled(300, cfg(seed=1, n=2))
    assert x.points.dtype == np.uint16
    assert (np.sort(x.points, axis=1) == np.arange(300)).all()
    # up to 256 symbols the words stay uint8, and so does the random stream
    x = symmetric_group_sampled(256, cfg(seed=1, n=2))
    assert x.points.dtype == np.uint8
    assert (np.sort(x.points, axis=1) == np.arange(256)).all()
    assert symmetric_group_sampled(8, cfg(seed=5)).points[:2].tolist() == [
        [1, 4, 2, 3, 7, 5, 6, 0], [0, 1, 3, 6, 4, 7, 2, 5]]


def test_build_space_dispatch():
    assert build_space({"family": "hamming_cube", "n": 3}).n == 8
    assert build_space({"family": "symmetric_group", "n": 3}).n == 6
    assert build_space({"family": "sl2", "p": 3}).n == 24
    assert build_space({"family": "sphere", "dim": 2, "samples": 10, "seed": 0,
                        "metric": "euclidean"}).n == 10
    assert build_space({"family": "so_n", "n": 3, "samples": 5, "seed": 0}).n == 5
    assert build_space({"family": "product", "base": [0.5, 0.5], "n": 2}).n == 4
    assert build_space({"family": "hamming_cube_sampled", "n": 30, "samples": 12,
                        "seed": 1}).n == 12
    assert build_space({"family": "symmetric_group_sampled", "n": 9, "samples": 7,
                        "seed": 1}).n == 7
    with pytest.raises(ValueError):
        build_space({"family": "klein_bottle"})


SAMPLERS = [(hamming_cube_sampled, 64, 64), (symmetric_group_sampled, 300, 600),
            (sphere_sampled, 2, 24), (so_n_sampled, 3, 72)]
# what one point keeps: its sample row, its weight and its label-list slot
# (8 bytes each), and its label rounded up to 8 bytes: a str of 64 or 790
# characters (113 and 839 bytes), or an int
POINT_BYTES = {hamming_cube_sampled: 64 + 16 + 120, symmetric_group_sampled: 600 + 16 + 840,
               sphere_sampled: 24 + 16 + 32, so_n_sampled: 72 + 16 + 32}


@pytest.mark.parametrize("sampler, size, row_bytes", SAMPLERS)
def test_oversized_sample_counts_are_refused_before_drawing(sampler, size, row_bytes):
    count, point = 10**12, POINT_BYTES[sampler]
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as refused:
            sampler(size, cfg(n=count))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(refused.value) == (f"sample_count {count} needs {count * point} bytes of "
                                  f"samples, weights and labels ({point} a point), "
                                  f"over the budget of {1 << 28}")
    assert peak < 1 << 20


@pytest.mark.parametrize("sampler, size, row_bytes", SAMPLERS)
def test_the_sample_budget_holds_a_count_that_fits_it(monkeypatch, sampler, size, row_bytes):
    point = POINT_BYTES[sampler]
    monkeypatch.setattr(generators, "_SAMPLE_BUDGET", 5 * point)
    assert sampler(size, cfg(n=5)).points.nbytes == 5 * row_bytes
    with pytest.raises(ValueError, match="over the budget"):
        sampler(size, cfg(n=6))
    # an admitted space keeps no more than its budget, but for a few
    # fixed-size objects
    count = 20_000
    monkeypatch.setattr(generators, "_SAMPLE_BUDGET", count * point)
    tracemalloc.start()
    try:
        space = sampler(size, cfg(n=count))
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert space.n == count and kept <= count * point + (64 << 10), kept - count * point


def test_product_letters_past_255():
    # digits are stored in the narrowest unsigned type holding k - 1; a
    # uint8 digit once wrapped, so point 256 was point 0 again
    x = product_space(np.full(300, 1 / 300), 1)
    assert x.points.dtype == np.uint16
    assert x.labels == [str(i) for i in range(300)]
    assert x.pairwise([0], [256])[0, 0] == 1.0
    assert validate_space(x) == []
    base = np.arange(1, 301) / np.arange(1, 301).sum()
    assert np.array_equal(product_space(base, 1).weight, base)
    assert product_space(np.full(256, 1 / 256), 1).points.dtype == np.uint8
