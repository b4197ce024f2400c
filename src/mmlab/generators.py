"""Canonical space generators: hamming cubes, permutation groups, sampled
spheres and rotation groups, word-metric matrix groups, and measure products.

Samplers are deterministic: the RNG stream is derived from (seed, block),
with a fixed block size, so output is bit-identical for a given config no
matter how the work would be partitioned.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .spaces import FiniteMMSpace

_SAMPLE_BLOCK = 8192


@dataclass(frozen=True)
class SamplerConfig:
    seed: int = 0
    sample_count: int = 1024

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError("sample_count must be at least 1")


def _sample_blocks(cfg, draw):
    """Stack draw(rng, take) over fixed-size blocks, block b seeded by
    (cfg.seed, b), so the samples never depend on how work is split."""
    return np.concatenate([
        draw(np.random.default_rng([int(cfg.seed), b0 // _SAMPLE_BLOCK]),
             min(_SAMPLE_BLOCK, cfg.sample_count - b0))
        for b0 in range(0, cfg.sample_count, _SAMPLE_BLOCK)], axis=0)


# -- hamming cubes -----------------------------------------------------------

def hamming_cube(n, max_dim=20):
    """Uniform measure on {0,1}^n with normalized hamming distance."""
    if not 1 <= n <= max_dim:
        raise ValueError(
            f"cube dimension {n} outside [1, {max_dim}]; "
            "use hamming_cube_sampled for larger dimensions")
    count = 1 << n
    idx = np.arange(count, dtype=np.uint32)
    shifts = np.arange(n - 1, -1, -1, dtype=np.uint32)
    pts = ((idx[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
    labels = [format(i, f"0{n}b") for i in range(count)]
    return FiniteMMSpace(labels, np.full(count, 1.0 / count),
                         points=pts, metric="hamming")


def hamming_cube_sampled(n, cfg):
    """Uniformly sampled bit strings from {0,1}^n, empirical measure."""
    if n < 1:
        raise ValueError("cube dimension must be positive")
    pts = _sample_blocks(cfg, lambda rng, take: rng.integers(
        0, 2, size=(take, n), dtype=np.uint8))
    labels = ["".join(map(str, row)) for row in pts]
    w = np.full(cfg.sample_count, 1.0 / cfg.sample_count)
    return FiniteMMSpace(labels, w, points=pts, metric="hamming")


# -- permutation groups ------------------------------------------------------

def symmetric_group(n, max_n=7):
    """All permutations of n symbols, uniform measure, normalized hamming
    distance between permutation words (fraction of displaced symbols)."""
    if not 1 <= n <= max_n:
        raise ValueError(
            f"symmetric group degree {n} outside [1, {max_n}]; "
            "use symmetric_group_sampled for larger degrees")
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.uint8)
    labels = ["".join(map(str, p)) for p in perms]
    w = np.full(len(perms), 1.0 / len(perms))
    return FiniteMMSpace(labels, w, points=perms, metric="hamming")


def symmetric_group_sampled(n, cfg):
    """Uniformly sampled permutations of n symbols, empirical measure."""
    if n < 1:
        raise ValueError("degree must be positive")
    pts = _sample_blocks(cfg, lambda rng, take: rng.permuted(
        np.tile(np.arange(n, dtype=np.uint8), (take, 1)), axis=1))
    labels = ["".join(map(str, row)) for row in pts]
    w = np.full(cfg.sample_count, 1.0 / cfg.sample_count)
    return FiniteMMSpace(labels, w, points=pts, metric="hamming")


# -- spheres and rotations ---------------------------------------------------

def sphere_sampled(dim, cfg, metric="euclidean"):
    """Uniform samples on the unit sphere S^dim in R^(dim+1).

    Points come from normalized gaussians; metric is "euclidean" (chordal)
    or "geodesic" (arc length).
    """
    if dim < 1:
        raise ValueError("sphere dimension must be positive")
    if metric not in ("euclidean", "geodesic"):
        raise ValueError(f"metric must be euclidean or geodesic, got {metric!r}")
    d = dim + 1

    def draw(rng, take):
        g = rng.standard_normal((take, d))
        norms = np.linalg.norm(g, axis=1)
        while (bad := norms < 1e-12).any():
            g[bad] = rng.standard_normal((int(bad.sum()), d))
            norms = np.linalg.norm(g, axis=1)
        return g / norms[:, None]

    pts = _sample_blocks(cfg, draw)
    w = np.full(cfg.sample_count, 1.0 / cfg.sample_count)
    kind = "euclidean" if metric == "euclidean" else "sphere_geodesic"
    return FiniteMMSpace(list(range(cfg.sample_count)), w, points=pts, metric=kind)


def so_n_sampled(n, cfg):
    """Haar-distributed rotation matrices in SO(n), operator norm distance.

    QR of a gaussian matrix with the R-diagonal sign correction gives Haar on
    O(n); samples with determinant -1 are reflected into SO(n) by negating the
    last column, which preserves the distribution.
    """
    if n < 2:
        raise ValueError("rotation group needs n >= 2")

    def draw(rng, take):
        q, r = np.linalg.qr(rng.standard_normal((take, n, n)))
        diag = np.diagonal(r, axis1=1, axis2=2).copy()
        signs = np.where(diag < 0, -1.0, 1.0)
        q = q * signs[:, None, :]
        dets = np.linalg.det(q)
        q[dets < 0, :, -1] *= -1.0
        return q.reshape(take, n * n)

    pts = _sample_blocks(cfg, draw)
    w = np.full(cfg.sample_count, 1.0 / cfg.sample_count)
    return FiniteMMSpace(list(range(cfg.sample_count)), w, points=pts,
                         metric="operator_norm", metric_params={"side": n})


# -- special linear groups over prime fields ---------------------------------

@dataclass
class WordMetricGroup:
    """A finite group with generating set and word-length distance matrix.

    dist[i, j] is the word length of g_i * g_j^{-1}, so the metric is
    right-invariant: dist(g h, f h) = dist(g, f).
    """
    elements: np.ndarray   # (k, 2, 2) integer matrices mod p
    gens: np.ndarray       # (4, 2, 2)
    dist: np.ndarray       # (k, k) float word lengths
    p: int

    @property
    def n(self):
        return self.elements.shape[0]

    def to_space(self):
        labels = ["{},{},{},{}".format(*m.reshape(4)) for m in self.elements]
        w = np.full(self.n, 1.0 / self.n)
        return FiniteMMSpace(labels, w, dist=self.dist.astype(float))


def _is_prime(p):
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def sl2_word_metric(p, max_p=13):
    """SL(2, F_p) with the word metric of the two elementary generators
    and their inverses.  Group order is p^3 - p."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p > max_p:
        raise ValueError(f"p={p} exceeds the cap {max_p} (order grows as p^3)")

    a, b, c, d = np.meshgrid(*([np.arange(p)] * 4), indexing="ij")
    det1 = (a * d - b * c) % p == 1
    elems = np.stack([a[det1], b[det1], c[det1], d[det1]], axis=1)
    elems = elems[np.lexsort((elems[:, 3], elems[:, 2], elems[:, 1], elems[:, 0]))]
    k = elems.shape[0]
    assert k == p**3 - p

    index = {tuple(e): i for i, e in enumerate(elems)}
    gens = np.array([
        [1, 1, 0, 1],
        [1, p - 1, 0, 1],
        [1, 0, 1, 1],
        [1, 0, p - 1, 1],
    ])

    def mul(x, y):
        # (k, 4) times (4,) matrix product mod p
        return np.stack([
            (x[:, 0] * y[0] + x[:, 1] * y[2]) % p,
            (x[:, 0] * y[1] + x[:, 1] * y[3]) % p,
            (x[:, 2] * y[0] + x[:, 3] * y[2]) % p,
            (x[:, 2] * y[1] + x[:, 3] * y[3]) % p,
        ], axis=1)

    # word lengths by breadth-first search from the identity
    lengths = np.full(k, -1, dtype=np.int64)
    ident = index[(1, 0, 0, 1)]
    lengths[ident] = 0
    frontier = [ident]
    level = 0
    while frontier:
        level += 1
        cur = elems[frontier]
        nxt = []
        for g in gens:
            prods = np.stack([
                (g[0] * cur[:, 0] + g[1] * cur[:, 2]) % p,
                (g[0] * cur[:, 1] + g[1] * cur[:, 3]) % p,
                (g[2] * cur[:, 0] + g[3] * cur[:, 2]) % p,
                (g[2] * cur[:, 1] + g[3] * cur[:, 3]) % p,
            ], axis=1)
            for t in prods:
                i = index[tuple(t)]
                if lengths[i] < 0:
                    lengths[i] = level
                    nxt.append(i)
        frontier = nxt
    if (lengths < 0).any():
        raise RuntimeError("generators fail to generate the group")

    # dist(g_i, g_j) = wordlen(g_i * g_j^{-1})
    invs = np.stack([elems[:, 3], (-elems[:, 1]) % p,
                     (-elems[:, 2]) % p, elems[:, 0]], axis=1)
    flat_all = ((elems[:, 0] * p + elems[:, 1]) * p + elems[:, 2]) * p + elems[:, 3]
    lut = np.full(p**4, -1, dtype=np.int64)
    lut[flat_all] = np.arange(k)
    dist = np.empty((k, k), dtype=float)
    for j in range(k):
        prod = mul(elems, invs[j])
        flat = ((prod[:, 0] * p + prod[:, 1]) * p + prod[:, 2]) * p + prod[:, 3]
        dist[:, j] = lengths[lut[flat]]
    return WordMetricGroup(
        elements=elems.reshape(k, 2, 2), gens=gens.reshape(4, 2, 2),
        dist=dist, p=p)


# -- products ----------------------------------------------------------------

def product_space(base_weights, n, max_points=4096):
    """n-fold measure product of a weighted alphabet with normalized
    coordinate-mismatch distance."""
    base = np.asarray(base_weights, dtype=float)
    if base.ndim != 1 or base.size < 1:
        raise ValueError("base_weights must be a nonempty vector")
    if (base < 0).any() or abs(base.sum() - 1.0) > 1e-9:
        raise ValueError("base_weights must be a probability vector")
    if n < 1:
        raise ValueError("n must be positive")
    k = base.size
    count = k**n
    if count > max_points:
        raise ValueError(f"k^n = {count} exceeds cap {max_points}")
    idx = np.arange(count)
    digits = np.empty((count, n), dtype=np.uint8)
    rem = idx.copy()
    for j in range(n - 1, -1, -1):
        digits[:, j] = rem % k
        rem //= k
    labels = ["".join(map(str, row)) for row in digits]
    w = base[digits].prod(axis=1)
    return FiniteMMSpace(labels, w, points=digits, metric="hamming")


# -- descriptor expansion ----------------------------------------------------

def build_space(desc):
    """Expand a family descriptor dict into a space.  Used by the CLI."""
    desc = dict(desc)
    family = desc.pop("family", None)
    if family == "hamming_cube":
        return hamming_cube(int(desc["n"]))
    if family == "hamming_cube_sampled":
        return hamming_cube_sampled(int(desc["n"]), SamplerConfig(
            seed=int(desc.get("seed", 0)), sample_count=int(desc["samples"])))
    if family == "symmetric_group":
        return symmetric_group(int(desc["n"]))
    if family == "symmetric_group_sampled":
        return symmetric_group_sampled(int(desc["n"]), SamplerConfig(
            seed=int(desc.get("seed", 0)), sample_count=int(desc["samples"])))
    if family == "sphere":
        return sphere_sampled(int(desc["dim"]), SamplerConfig(
            seed=int(desc.get("seed", 0)), sample_count=int(desc["samples"])),
            metric=desc.get("metric", "euclidean"))
    if family == "so_n":
        return so_n_sampled(int(desc["n"]), SamplerConfig(
            seed=int(desc.get("seed", 0)), sample_count=int(desc["samples"])))
    if family == "sl2":
        return sl2_word_metric(int(desc["p"])).to_space()
    if family == "product":
        return product_space([float(x) for x in desc["base"]], int(desc["n"]))
    raise ValueError(f"unknown family {family!r}")
