"""Canonical space generators: hamming cubes, permutation groups, sampled
spheres and rotation groups, word-metric matrix groups, and measure products.

Samplers are deterministic: the RNG stream is derived from (seed, block),
with a fixed block size, so output is bit-identical for a given config no
matter how the work would be partitioned.
"""

from __future__ import annotations

import itertools
import sys
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .spaces import FiniteMMSpace

_SAMPLE_BLOCK = 8192
_SAMPLE_BUDGET = 1 << 28    # bytes the points of one sampled space may hold
_CUBE_MAX_DIM = 20          # hamming_cube materializes 2^n points up to this
_SYMMETRIC_MAX_N = 7        # symmetric_group materializes n! points up to this
_SL2_PRIMES = (2, 3, 5, 7, 11, 13)  # sl2_word_metric builds (p^3 - p)^2 distances for these
_PRODUCT_MAX_POINTS = 4096  # product_space materializes k^n points up to this


@dataclass(frozen=True)
class SamplerConfig:
    seed: int = 0
    sample_count: int = 1024

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError("sample_count must be at least 1")


def _blocks(seed, count, draw):
    """Yield draw(rng, take) over fixed-size blocks of count samples, block b
    seeded by (seed, b), so the samples never depend on how work is split."""
    for b0 in range(0, count, _SAMPLE_BLOCK):
        yield draw(np.random.default_rng([int(seed), b0 // _SAMPLE_BLOCK]),
                   min(_SAMPLE_BLOCK, count - b0))


def _sampled_space(cfg, draw, row_bytes, label, metric):
    """The space of all of cfg's blocks of draw, stacked, under metric, with
    the uniform measure.  Hamming points are labelled by their words, the
    others by their index.  Each point keeps its sample of row_bytes, its
    weight (8 bytes), its slot in the label list (8) and its label, counted
    as sys.getsizeof(label) of the widest label rounded up to the 8-byte
    alignment of an allocation (an int of 28 bytes takes 32).  Counts whose
    points would pass _SAMPLE_BUDGET are refused before the first block is
    drawn."""
    count = cfg.sample_count
    point_bytes = row_bytes + 16 + -(-sys.getsizeof(label) // 8) * 8
    need = count * point_bytes
    if need > _SAMPLE_BUDGET:
        raise ValueError(f"sample_count {count} needs {need} bytes of samples, "
                         f"weights and labels ({point_bytes} a point), "
                         f"over the budget of {_SAMPLE_BUDGET}")
    pts = np.concatenate(list(_blocks(cfg.seed, count, draw)), axis=0)
    labels = _word_labels(pts) if metric == "hamming" else list(range(count))
    return FiniteMMSpace(labels, np.full(count, 1.0 / count), points=pts, metric=metric)


def _word_labels(words):
    """One label per row of non-negative integer symbols: their decimal
    digits, joined, read through a table of the symbols' strings."""
    symbols = [str(k) for k in range(int(words.max(initial=0)) + 1)]
    return ["".join([symbols[k] for k in row.tolist()]) for row in words]


def _unit_vectors(rng, take, d):
    """take uniform unit vectors in R^d: gaussians normalized in place (a
    zero draw has probability zero)."""
    g = rng.standard_normal((take, d))
    g /= np.linalg.norm(g, axis=1)[:, None]
    return g


# -- hamming cubes -----------------------------------------------------------

def hamming_cube(n):
    """Uniform measure on {0,1}^n with normalized hamming distance."""
    if not 1 <= n <= _CUBE_MAX_DIM:
        raise ValueError(
            f"cube dimension {n} outside [1, {_CUBE_MAX_DIM}]; "
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
    return _sampled_space(cfg, lambda rng, take: rng.integers(
        0, 2, size=(take, n), dtype=np.uint8), n, "0" * n, "hamming")


# -- permutation groups ------------------------------------------------------

def symmetric_group(n):
    """All permutations of n symbols, uniform measure, normalized hamming
    distance between permutation words (fraction of displaced symbols)."""
    if not 1 <= n <= _SYMMETRIC_MAX_N:
        raise ValueError(
            f"symmetric group degree {n} outside [1, {_SYMMETRIC_MAX_N}]; "
            "use symmetric_group_sampled for larger degrees")
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.uint8)
    labels = _word_labels(perms)
    w = np.full(len(perms), 1.0 / len(perms))
    return FiniteMMSpace(labels, w, points=perms, metric="hamming")


def symmetric_group_sampled(n, cfg):
    """Uniformly sampled permutations of n symbols, empirical measure."""
    if n < 1:
        raise ValueError("degree must be positive")
    dtype = np.min_scalar_type(n - 1)
    return _sampled_space(cfg, lambda rng, take: rng.permuted(
        np.tile(np.arange(n, dtype=dtype), (take, 1)), axis=1), n * dtype.itemsize,
        "".join(map(str, range(n))), "hamming")


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
    return _sampled_space(cfg, lambda rng, take: _unit_vectors(rng, take, dim + 1), 8 * (dim + 1),
                          cfg.sample_count - 1,
                          "euclidean" if metric == "euclidean" else "sphere_geodesic")


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

    return _sampled_space(cfg, draw, 8 * n * n, cfg.sample_count - 1, "operator_norm")


# -- special linear groups over prime fields ---------------------------------

def sl2_word_metric(p):
    """SL(2, F_p) as a space: uniform measure, and the word metric of the two
    elementary generators and their inverses.  Group order is p^3 - p.

    The element [[a, b], [c, d]] is labelled "a,b,c,d", in lexicographic
    order.  dist[i, j] is the word length of g_i * g_j^{-1}, so the metric is
    right-invariant: dist(g h, f h) = dist(g, f)."""
    if p > _SL2_PRIMES[-1]:
        raise ValueError(f"p={p} exceeds the cap {_SL2_PRIMES[-1]} (order grows as p^3)")
    if p not in _SL2_PRIMES:
        raise ValueError(f"{p} is not prime")

    def mul(x, y):
        # products mod p of row-major 2x2 matrices, (..., 4) each, broadcast
        return np.stack([
            (x[..., 0] * y[..., 0] + x[..., 1] * y[..., 2]) % p,
            (x[..., 0] * y[..., 1] + x[..., 1] * y[..., 3]) % p,
            (x[..., 2] * y[..., 0] + x[..., 3] * y[..., 2]) % p,
            (x[..., 2] * y[..., 1] + x[..., 3] * y[..., 3]) % p,
        ], axis=-1)

    # the "ij" grid runs through (a, b, c, d) in lexicographic order
    a, b, c, d = np.meshgrid(*([np.arange(p)] * 4), indexing="ij")
    det1 = (a * d - b * c) % p == 1
    elems = np.stack([a[det1], b[det1], c[det1], d[det1]], axis=1)
    k = elems.shape[0]
    assert k == p**3 - p
    place = p ** np.arange(3, -1, -1)  # m @ place is m's base-p code
    lut = np.full(p**4, -1, dtype=np.int64)  # code -> index in elems
    lut[elems @ place] = np.arange(k)

    gens = np.array([
        [1, 1, 0, 1],
        [1, p - 1, 0, 1],
        [1, 0, 1, 1],
        [1, 0, p - 1, 1],
    ])

    # word lengths by breadth-first search from the identity; the elementary
    # matrices generate SL(2, F_p), so it reaches every element
    lengths = np.full(k, -1, dtype=np.int64)
    frontier = lut[np.array([[1, 0, 0, 1]]) @ place]  # the identity
    lengths[frontier] = 0
    level = 0
    while frontier.size:
        level += 1
        reached = lut[mul(gens[:, None], elems[frontier]) @ place].reshape(-1)
        frontier = np.unique(reached[lengths[reached] < 0])
        lengths[frontier] = level

    # dist(g_i, g_j) = wordlen(g_i * g_j^{-1})
    invs = np.stack([elems[:, 3], (-elems[:, 1]) % p,
                     (-elems[:, 2]) % p, elems[:, 0]], axis=1)
    dist = np.empty((k, k), dtype=float)
    for j in range(k):
        dist[:, j] = lengths[lut[mul(elems, invs[j]) @ place]]
    labels = ["{},{},{},{}".format(*m) for m in elems]
    return FiniteMMSpace(labels, np.full(k, 1.0 / k), dist=dist)


# -- products ----------------------------------------------------------------

def product_space(base_weights, n):
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
    if count > _PRODUCT_MAX_POINTS:
        raise ValueError(f"k^n = {count} exceeds cap {_PRODUCT_MAX_POINTS}")
    # point i is the base-k word of i, most significant digit first
    digits = np.stack(np.unravel_index(np.arange(count), (k,) * n), axis=1).astype(
        np.min_scalar_type(k - 1))
    labels = _word_labels(digits)
    w = base[digits].prod(axis=1)
    return FiniteMMSpace(labels, w, points=digits, metric="hamming")


# -- the family table --------------------------------------------------------

# build is called with the descriptor's keys as keyword arguments: the keys in
# needs, and those in options that the descriptor holds (build defaults the rest)
Family = namedtuple("Family", "build needs options", defaults=((),))


def _sampled(sampler, key, options=()):
    """The row of sampler(key, cfg, *options), whose descriptor's samples and
    seed make the SamplerConfig."""
    return Family(lambda samples, seed=0, **keys: sampler(
        cfg=SamplerConfig(seed=seed, sample_count=samples), **keys),
        (key, "samples"), ("seed", *options))


# Every family a descriptor may name.  Keys are named as `mmlab generate`'s
# flags; "<name>_sampled" is what `generate --family <name> --samples` builds.
FAMILIES = {
    "hamming_cube": Family(hamming_cube, ("n",)),
    "hamming_cube_sampled": _sampled(hamming_cube_sampled, "n"),
    "symmetric_group": Family(symmetric_group, ("n",)),
    "symmetric_group_sampled": _sampled(symmetric_group_sampled, "n"),
    "sphere": _sampled(sphere_sampled, "dim", ("metric",)),
    "so_n": _sampled(so_n_sampled, "n"),
    "sl2": Family(sl2_word_metric, ("p",)),
    "product": Family(lambda base, n: product_space(base, n), ("base", "n")),
}


def build_space(desc):
    """Expand a descriptor dict, {"family": <a FAMILIES row>, **its keys},
    into a space.  Keys the row does not take are ignored."""
    row = FAMILIES.get(desc.get("family"))
    if row is None:
        raise ValueError(f"unknown family {desc.get('family')!r}")
    return row.build(**{k: desc[k] for k in row.needs + row.options if k in desc})
