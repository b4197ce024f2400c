"""Finite group actions on mm-spaces: essential sets, the concentration
property as a certificate check, fixed points, the coordinate-block
reconstruction of inessential sets on high-dimensional spheres, and a
finite Ramsey engine."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .generators import _blocks
from .spaces import neighborhood

_ENUMERATION_CAP = 1 << 22  # most colorings ramsey_verify sweeps, or subsets it colors
_SWEEP_CHUNK = 1 << 16  # colorings one step of ramsey_verify's sweep decides
_ACTION_PAIR_BYTES = 48  # an action's metric test per pair: two distances, allclose's scratch

LEADER_THRESHOLD = math.sqrt(2.0) / 2.0 - math.sqrt(3.0) / 3.0


@dataclass
class IsometricAction:
    """Finite list of point permutations preserving the metric.

    Closure under composition is not required; any finite subset of a group
    is acceptable.  Each permutation must preserve the distance matrix
    exactly (atol 0 by default), which holds for label-structure-derived
    metrics; pass atol for metrics carrying independent float noise.
    """
    space: object
    elements: list
    atol: float = 0.0

    def __post_init__(self):
        n = self.space.n
        self.elements = [np.asarray(p, dtype=np.intp).reshape(-1) for p in self.elements]
        ident = np.arange(n)
        for idx, p in enumerate(self.elements):
            if p.shape != (n,) or not np.array_equal(np.sort(p), ident):
                raise ValueError(f"element {idx} is not a permutation of {n} points")
            # the image is refused like the block, so a nan is refused at any block size
            blocks = zip(self.space.distance_blocks(ident, ident, _ACTION_PAIR_BYTES),
                         self.space.distance_blocks(p, p, _ACTION_PAIR_BYTES))
            for (_, d), (_, image) in blocks:
                if not np.allclose(image, d, rtol=0, atol=self.atol):
                    raise ValueError(f"element {idx} does not preserve the metric")


@dataclass
class Cover:
    """Partition of a space's points into disjoint parts covering everything."""
    parts: list

    def __post_init__(self):
        if not self.parts:
            raise ValueError("cover needs at least one part")
        self.parts = [np.asarray(p, dtype=bool) for p in self.parts]
        counts = np.sum(self.parts, axis=0)
        if (counts != 1).any():
            raise ValueError("cover parts must be disjoint and exhaustive")


@dataclass(frozen=True)
class EssentialResult:
    essential: bool
    witness: object  # point index or None


@dataclass(frozen=True)
class CoverCheckResult:
    holds: bool
    essential_part: object  # part index or None
    eps: float
    family: tuple


def translate_mask(action, mask, g):
    """Image of a point set under element g: point i moves to perm[i]."""
    perm = action.elements[g]
    out = np.zeros_like(np.asarray(mask, dtype=bool))
    out[perm] = np.asarray(mask, dtype=bool)
    return out


def is_essential(action, mask, eps, family):
    """Whether the translates of the eps-thickening under the family share a
    common point; returns one such point when they do."""
    nb = neighborhood(action.space, mask, eps)
    inter = np.ones(action.space.n, dtype=bool)
    for g in family:
        inter &= translate_mask(action, nb, g)
    hit = np.flatnonzero(inter)
    if hit.shape[0]:
        return EssentialResult(essential=True, witness=int(hit[0]))
    return EssentialResult(essential=False, witness=None)


def concentration_property_check(action, cover, eps, family):
    """Certificate check of the concentration property for one cover, one eps,
    one family: does some part have essential translated thickenings?  The
    result names the checked pair; it never claims the full quantifier over
    all eps values and families."""
    family = tuple(int(g) for g in family)
    for idx, part in enumerate(cover.parts):
        if not part.any():
            continue
        if is_essential(action, part, eps, family).essential:
            return CoverCheckResult(holds=True, essential_part=idx,
                                    eps=eps, family=family)
    return CoverCheckResult(holds=False, essential_part=None,
                            eps=eps, family=family)


def fixed_points(action):
    """Points fixed by every element."""
    n = action.space.n
    fixed = np.ones(n, dtype=bool)
    for p in action.elements:
        fixed &= p == np.arange(n)
    return [int(i) for i in np.flatnonzero(fixed)]


# -- block reconstruction of inessential sets on spheres ----------------------

@dataclass(frozen=True)
class LeaderCertificate:
    inessential_certified: bool
    threshold: float


@dataclass(frozen=True)
class LeaderEmpirical:
    violations: int
    sample_count: int
    eps: float


def leader_certificate(eps):
    """Certifies emptiness of the triple-translate intersection for small eps.

    Three disjoint coordinate blocks cannot all carry squared mass at least
    (sqrt(2)/2 - eps)^2 on a unit vector once 3*(sqrt(2)/2 - eps)^2 > 1,
    i.e. once eps < sqrt(2)/2 - sqrt(3)/3.  Above the threshold nothing is
    claimed."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    return LeaderCertificate(inessential_certified=bool(eps < LEADER_THRESHOLD),
                             threshold=LEADER_THRESHOLD)


def _block_masses(rng, take, d):
    """take draws of the squared norms of a uniform unit vector's three
    equal coordinate blocks in R^d, one row each, summing to 1.

    A block of d/3 standard gaussians has squared norm chi^2(d/3) =
    2 Gamma(d/6), the three blocks are independent, and a uniform unit vector
    is a gaussian vector over its norm.  So the row (G_1, G_2, G_3) / sum of
    independent Gamma(d/6) draws has the Dirichlet(d/6, d/6, d/6) law of the
    block masses, at a cost that does not depend on d."""
    g = rng.standard_gamma(d / 6, (take, 3))
    g /= g.sum(axis=1, keepdims=True)
    return g


def leader_empirical(dim_half, sample_count, eps, seed=0):
    """Samples unit vectors in dimension d = 2*dim_half and counts those whose
    projections onto all three equal coordinate blocks have norm at least
    sqrt(2)/2 - eps.  Only the three squared block masses of a sample are
    read, so each is drawn from their Dirichlet(d/6, d/6, d/6) law
    (_block_masses) in place of the d coordinates: work and memory per
    sample do not depend on d.  The Pythagorean argument makes the count
    exactly zero whenever eps is below the certificate threshold."""
    if dim_half < 1:
        raise ValueError("dim_half must be at least 1")
    d = 2 * dim_half
    if d % 6 != 0:
        raise ValueError("2*dim_half must be divisible by 6 for three equal blocks")
    if not eps < LEADER_THRESHOLD:
        raise ValueError("eps must be below the certificate threshold")
    if sample_count < 1:
        raise ValueError("sample_count must be positive")
    level_sq = (math.sqrt(2.0) / 2.0 - eps) ** 2
    violations = 0
    for masses in _blocks(seed, sample_count, lambda rng, take: _block_masses(rng, take, d)):
        violations += int((masses >= level_sq).all(axis=1).sum())
    return LeaderEmpirical(violations=violations, sample_count=sample_count, eps=eps)


# -- finite Ramsey engine ------------------------------------------------------

@dataclass
class ColoredHypergraph:
    """Coloring of all k-subsets of range(n) with colors 0..r-1, stored over
    the lexicographic subset order."""
    n: int
    k: int
    r: int
    colors: np.ndarray

    def __post_init__(self):
        self.colors = np.asarray(self.colors, dtype=np.int64).reshape(-1)
        expect = math.comb(self.n, self.k)
        if self.colors.shape[0] != expect:
            raise ValueError(f"{self.colors.shape[0]} colors for {expect} subsets")
        if self.colors.size and ((self.colors < 0) | (self.colors >= self.r)).any():
            raise ValueError("colors out of range")


@dataclass(frozen=True)
class RamseyResult:
    all_colorings_contain: bool
    counterexample: object  # ColoredHypergraph or None


def ramsey_verify(k, l, r, n):
    """Whether every r-coloring of the k-subsets of range(n) contains a
    monochromatic l-subset; reports the lexicographically smallest
    counterexample coloring otherwise.

    Closed forms: if l > n, the all-zero coloring is a counterexample; if
    r = 1 or l = k, every coloring contains one; if k = 1 (pigeonhole),
    every coloring contains one iff n > r(l - 1), and otherwise the
    smallest counterexample gives point i the color i // (l - 1).

    Every other instance is swept in ascending order of the colorings' codes:
    the colors of the subsets, in lexicographic order, as base-r digits, with
    the first subset's color pinned to 0 (relabeling colors by first
    occurrence maps any counterexample to one of that form without changing
    monochromatic sets).  Each chunk of _SWEEP_CHUNK codes colors every
    subset once, marks the codes that some l-subset leaves monochromatic,
    and stops at the first unmarked one.  More than _ENUMERATION_CAP pinned
    colorings to sweep, r^(C(n, k) - 1), or a counterexample over more than
    _ENUMERATION_CAP subsets raise ValueError."""
    if k < 1 or l < k or r < 1 or n < 1:
        raise ValueError("need k >= 1, l >= k, r >= 1, n >= 1")
    c = math.comb(n, k)
    if l <= n and (r == 1 or l == k or (k == 1 and n > r * (l - 1))):
        return RamseyResult(True, None)
    if c > _ENUMERATION_CAP:
        raise ValueError(f"a counterexample would color C({n}, {k}) = {c} subsets, "
                         f"over the cap {_ENUMERATION_CAP}")
    if l > n:
        return RamseyResult(False, ColoredHypergraph(n, k, r, np.zeros(c, dtype=np.int64)))
    if k == 1:
        return RamseyResult(False, ColoredHypergraph(n, k, r, np.arange(n) // (l - 1)))
    total = r ** (c - 1)
    if total > _ENUMERATION_CAP:
        raise ValueError(
            f"{r}^{c - 1} pruned colorings exceed the enumeration cap {_ENUMERATION_CAP}")
    index = {s: i for i, s in enumerate(itertools.combinations(range(n), k))}
    groups = [[index[s] for s in itertools.combinations(g, k)]
              for g in itertools.combinations(range(n), l)]
    for start in range(0, total, _SWEEP_CHUNK):
        code = np.arange(start, min(start + _SWEEP_CHUNK, total))
        color = np.zeros((c, code.shape[0]), dtype=np.min_scalar_type(r - 1))
        for i in range(c - 1, 0, -1):  # the last subset is the lowest digit
            code, color[i] = np.divmod(code, r)
        mono = np.zeros(color.shape[1], dtype=bool)
        for g in groups:
            mono |= (color[g] == color[g[0]]).all(axis=0)
        free = np.flatnonzero(~mono)
        if free.size:
            return RamseyResult(False, ColoredHypergraph(n, k, r, color[:, free[0]]))
    return RamseyResult(True, None)
