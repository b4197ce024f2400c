"""Finite metric-measure spaces: the base type, validation, neighborhoods,
and the exhaustive concentration oracle.

A space is a finite set of labeled points, a metric, and a probability
weight vector.  The metric, an explicit dense matrix or a point
representation (bit vectors, coordinates on a sphere, flattened rotation
matrices), is read through one kernel per metric kind.  The lazy form is what
makes 1e5-sample spaces usable: the full matrix would not fit in memory, but
thickenings and min-distance-to-set scans stream over tiles of bounded size,
and point clouds screen those tiles with one BLAS product each.
"""

from __future__ import annotations

import collections
import csv
import functools
import io
import itertools
import json
import math
import warnings

import numpy as np

# weight sums farther than this from 1 are rejected outright
WEIGHT_REJECT_TOL = 1e-9
# sums closer than this are accepted silently, in between we renormalize with a warning
WEIGHT_CLEAN_TOL = 1e-12
# qualification threshold for "at least half" subsets
HALF_TOL = 1e-12

_MATERIALIZE_CAP = 8192  # space.dist refuses more points, a stored matrix too
_EXHAUSTIVE_CAP = 20  # default largest space alpha_exact enumerates
_SUBSET_TABLE_BUDGET = 1 << 30  # bytes for alpha_exact's mass table and blocks
_SUBSET_BLOCK_BITS = 14  # alpha_exact walks the subsets in blocks of 2^14
_TILE_BYTES = 1 << 25  # scratch bytes one distance tile may hold
# columns of the first tile of a score-ordered thickening scan; each next
# tile doubles, up to the _TILE_BYTES width
_FIRST_TILE_COLS = 128
_TRIANGLE_SAMPLE_CAP = 1024  # validate_space samples this many points beyond it
_VALIDATE_ATOL = 1e-9  # metric and weight slack validate_space tolerates
# relative width of the band of squared distances that screens leave to the
# exact formula; every float error it covers is below 1e-12
_INDEX_MARGIN = 1e-9
_UNIT_TOL = 1e-12  # squared norms this close to 1 let geodesic points be screened


class FiniteMMSpace:
    """Finite metric-measure space.

    Parameters
    ----------
    labels : sequence of point identifiers (opaque, JSON-serializable)
    weight : probability vector, one entry per point
    dist : dense (n, n) distance matrix, for metric "matrix"
    points : (n, d) point array, for the other metric kinds
    metric : a key of METRIC_KINDS; an "operator_norm" point is a flattened
        square matrix, so d must be a square

    Distances are read through the metric kind's kernel.  Space files keep a
    point-backed space's points, so a loaded space has the same kernel.
    Weight vectors within 1e-9 of summing to one are renormalized with a
    warning; anything farther off is rejected.  Metric axioms are *not*
    enforced here; validate_space reports violations as diagnostics.
    """

    def __init__(self, labels, weight, dist=None, points=None, metric="matrix"):
        self.labels = list(labels)
        n = len(self.labels)
        if n < 1:
            raise ValueError("a space needs at least one point")

        w = np.asarray(weight, dtype=float).reshape(-1)
        if w.shape[0] != n:
            raise ValueError(f"{w.shape[0]} weights for {n} labels")
        s = float(w.sum())
        if not abs(s - 1.0) <= WEIGHT_REJECT_TOL:  # a nan sum is rejected too
            raise ValueError(f"weights sum to {s!r}, expected 1 within {WEIGHT_REJECT_TOL}")
        if abs(s - 1.0) > WEIGHT_CLEAN_TOL:
            warnings.warn(f"renormalizing weights (sum was {s!r})", stacklevel=2)
            w = w / s
        self.weight = w

        if metric not in METRIC_KINDS:
            raise ValueError(f"unknown metric kind {metric!r}")
        self.metric = metric
        self._dist = self.points = None

        if metric == "matrix":
            if dist is None:
                raise ValueError("matrix metric needs a dist matrix")
            d = np.asarray(dist, dtype=float)
            if d.shape != (n, n):
                raise ValueError(f"dist shape {d.shape}, expected {(n, n)}")
            self._dist = d
        else:
            if points is None:
                raise ValueError(f"{metric} metric needs a points array")
            p = np.asarray(points)
            if p.ndim != 2 or p.shape[0] != n:
                raise ValueError(f"points shape {p.shape}, expected ({n}, d)")
            self.points = p
            if metric == "operator_norm" and math.isqrt(p.shape[1]) ** 2 != p.shape[1]:
                raise ValueError(f"operator_norm points of width {p.shape[1]} are not square")

    @property
    def n(self):
        return len(self.labels)

    def __repr__(self):
        return f"FiniteMMSpace(n={self.n}, metric={self.metric!r})"

    @functools.cached_property
    def _kernel(self):
        return METRIC_KINDS[self.metric].kernel(self._dist if self.points is None else self.points)

    # -- distance access -------------------------------------------------

    def pairwise(self, rows, cols):
        """Dense block of distances between the given row and column indices."""
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        if self._dist is not None:
            return self._dist[np.ix_(rows, cols)]
        out = np.empty((rows.shape[0], cols.shape[0]))
        for r, c in _tiles(rows.shape[0], cols.shape[0], self._kernel.pair_bytes):
            out[r, c] = self._kernel.block(rows[r], cols[c])
        return out

    def distance_blocks(self, rows, cols, pair_bytes):
        """Yield (r, pairwise(rows[r], cols)) for row slices r in order, as
        _row_blocks cuts them at pair_bytes a pair.  The reader for results
        that need a metric: a non-finite distance raises ValueError."""
        for r in _row_blocks(len(rows), len(cols), pair_bytes):
            d = self.pairwise(rows[r], cols)
            _refuse_non_finite(d, rows[r], cols)
            yield r, d

    @property
    def dist(self):
        """Dense distance matrix, materialized (and cached) on demand."""
        if self.n > _MATERIALIZE_CAP:
            raise ValueError(
                f"space has {self.n} points, too many for a dense matrix; "
                "use pairwise/dist_to_set block operations")
        if self._dist is None:
            idx = np.arange(self.n)
            self._dist = self.pairwise(idx, idx)
        return self._dist

    def dist_to_set(self, mask):
        """For every point, min distance to the masked set, scanned in kernel tiles."""
        members = _as_mask(self, mask).nonzero()[0]
        if members.shape[0] == 0:
            raise ValueError("empty set has no neighborhood")
        rows = np.arange(self.n)
        out = np.full(self.n, np.inf)
        for r, c in _tiles(self.n, members.shape[0], self._kernel.pair_bytes):
            out[r] = np.minimum(out[r], self._kernel.block(rows[r], members[c]).min(axis=1))
        return out

    def thickened(self, mask, eps, score=None, *, stop=None):
        """Boolean mask of the closed eps-thickening of the masked set.

        Same points as dist_to_set(mask) <= eps, with members in at any
        eps >= 0, but cheaper: each tile asks the kernel only whether a row
        has a member within eps, which point clouds screen with one BLAS
        product, and a row stops being scanned once it is marked.

        score, if given, holds one value per point of a 1-Lipschitz function
        built from this space's distances, such as a distance row or a min
        of shifted rows.  Then d(x, y) >= score[x] - score[y], so a pair
        whose scores differ by more than eps is not within eps: the scan
        skips the rows scored above max(score on the set) + eps and the
        members scored below min(score on the rows left) - eps, both bounds
        widened by the kernel's score_slack.  It then takes the rows in
        ascending score and the members in descending score, so the members
        nearest the set's boundary, which settle most rows, come first.  A
        block of rows scans only the members scored at least min(score on
        the block) - eps, widened alike, in column tiles that grow from
        _FIRST_TILE_COLS.  The pairs left are decided as without a score,
        one by one, so the mask is the same whatever their order.  Kernels
        whose distances may break the triangle inequality by an unknown
        amount have no score_slack and scan in full.

        stop, if given, is a mass the caller no longer needs to reach: the
        scan keeps the running mass of the marked points, the set's own
        measure plus the weights of the rows each tile marks, and returns
        None as soon as that mass reaches stop, but for the scan's last
        tile, where stopping saves nothing: that tile returns the mask.
        """
        mask = _as_mask(self, mask)
        members = mask.nonzero()[0]
        if members.shape[0] == 0:
            raise ValueError("empty set has no neighborhood")
        out = mask & (0.0 <= eps)  # a member is at distance 0 from the set
        if stop is not None:
            mass = float(self.weight[out].sum())
            if mass >= stop:
                return None
        todo = (~mask).nonzero()[0]
        slack = self._kernel.score_slack
        floors = None  # negated member scores, ascending, on the ordered scan
        if score is not None and slack is not None:
            score = np.asarray(score, dtype=float)
            if score.shape != (self.n,):
                raise ValueError(f"score shape {score.shape}, expected ({self.n},)")
            # the score's own sums (offsets, the min of rows) and these bounds
            # round by a few ulps of the largest score and eps, far below
            # 1e-12 of them; a nan or infinite score or eps keeps every pair
            reach = eps + slack + 1e-12 * (float(np.abs(score).max()) + abs(eps))
            todo = todo[~(score[todo] > score[members].max() + reach)]
            if todo.shape[0]:
                members = members[~(score[members] < score[todo].min() - reach)]
            if math.isfinite(reach):  # then every score is finite too
                todo = todo[np.argsort(score[todo])]
                members = members[np.argsort(-score[members])]
                floors = -score[members]
        rows, cols = _tile_shape(todo.shape[0], members.shape[0], self._kernel.pair_bytes)
        for r0 in range(0, todo.shape[0], rows):
            left = todo[r0:r0 + rows]
            end, width = members.shape[0], cols
            if floors is not None:
                # the members scored at least score[left[0]] - reach, the
                # block's lowest score
                end = int(np.searchsorted(floors, reach - score[left[0]], side="right"))
                width = min(_FIRST_TILE_COLS, cols)
            last = r0 + rows >= todo.shape[0]  # the scan's last row block
            c0 = 0
            while c0 < end and left.shape[0]:
                hit = self._within_block(left, members[c0:min(c0 + width, end)], eps)
                out[left] = hit  # the rows left are unmarked
                # a stop on the scan's last tile would save no work
                if stop is not None and not (last and c0 + width >= end):
                    mass += float(self.weight[left[hit]].sum())
                    if mass >= stop:
                        return None
                left = left[~hit]
                c0 += width
                width = min(2 * width, cols)
        return out

    def _within_block(self, rows, cols, eps):
        """One tile of the thickening scan: whether each row has a column
        within eps."""
        return self._kernel.within(rows, cols, eps)


# -- metric kernels ----------------------------------------------------------

def _refuse_non_finite(d, rows, cols):
    """Raise ValueError naming the first non-finite entry of d, the
    distances between the points rows and cols, in row-major order."""
    if not np.isfinite(d).all():
        i, j = np.argwhere(~np.isfinite(d))[0]
        raise ValueError(f"not a metric: non-finite distance at ({rows[i]},{cols[j]})")


def _tile_shape(n_rows, n_cols, pair_bytes):
    """Row and column counts of a tile whose scratch fits in _TILE_BYTES."""
    # "x or 1" is max(x, 1) on counts, and cheaper: every thickening calls this
    pairs = _TILE_BYTES // pair_bytes or 1
    rows = min(n_rows, max(math.isqrt(pairs), pairs // (n_cols or 1))) or 1
    return rows, pairs // rows or 1


def _row_blocks(rows, cols, pair_bytes):
    """Slices of at least one row covering range(rows), each holding at most
    _TILE_BYTES of scratch at pair_bytes a (row, column) pair."""
    step = max(1, _TILE_BYTES // (pair_bytes * max(cols, 1)))
    return [slice(r0, r0 + step) for r0 in range(0, rows, step)]


def _tiles(n_rows, n_cols, pair_bytes):
    """Yield (row slice, column slice) pairs of tiles covering n_rows x n_cols."""
    step_r, step_c = _tile_shape(n_rows, n_cols, pair_bytes)
    for r0 in range(0, n_rows, step_r):
        for c0 in range(0, n_cols, step_c):
            yield slice(r0, r0 + step_r), slice(c0, c0 + step_c)


class _Kernel:
    """Distances of one metric kind, read from a matrix or computed from points.

    block(rows, cols) is the exact distance formula, applied to each pair on
    its own, so an entry never depends on the tile it is computed in; dense
    matrices, diameter and dist_to_set use it.  within may use faster
    arithmetic, but leaves every pair its rounding could misjudge to the
    exact formula, so all paths agree with the dense matrix, ties included.
    pair_bytes is the scratch one pair of block or within takes.
    score_slack bounds how far block's rounding can break the triangle
    inequality, d(a, x) <= d(a, y) + d(y, x) + score_slack for all points,
    which thickenings need to prune by a score; None turns pruning off.
    """

    def within(self, rows, cols, eps):
        """Whether each row has a column within eps."""
        return (self.block(rows, cols) <= eps).any(axis=1)


class _Matrix(_Kernel):
    """Entries of an explicit distance matrix."""
    pair_bytes = 9  # the entry read and its within flag
    score_slack = None  # validate_space reports triangle violations; nothing enforces them

    def __init__(self, dist):
        self.dist = dist

    def block(self, rows, cols):
        return self.dist[rows[:, None], cols]


class _Hamming(_Kernel):
    """Fraction of differing coordinates, count / d.  0/1 points are packed
    into uint64 words once and counted with popcounts; other words
    (permutations) are compared coordinate by coordinate."""

    # counts obey the triangle inequality exactly, and each of the three
    # divisions count / d rounds by at most 2^-53 of a value <= 1
    score_slack = 1e-15

    def __init__(self, points):
        self.points = points
        self.dim = points.shape[1]
        self.words = None
        if np.isin(points, (0, 1)).all():
            packed = np.packbits(points.astype(bool), axis=1)
            packed = np.pad(packed, ((0, 0), (0, -packed.shape[1] % 8)))
            self.words = packed.view(np.uint64)
            self.pair_bytes = 24
        else:
            self.pair_bytes = self.dim + 24

    def counts(self, rows, cols):
        if self.words is None:
            return (self.points[rows][:, None, :] != self.points[cols][None, :, :]).sum(axis=2)
        a, b = self.words[rows], self.words[cols]
        # one word counts at most 64 bits, which bitwise_count's uint8 holds;
        # more words add up in int32, since a uint8 sum would wrap past 255
        count = np.bitwise_count(a[:, None, 0] ^ b[None, :, 0])
        if self.words.shape[1] > 1:
            count = count.astype(np.int32)
            for k in range(1, self.words.shape[1]):
                count += np.bitwise_count(a[:, None, k] ^ b[None, :, k])
        return count

    def block(self, rows, cols):
        return self.counts(rows, cols) / self.dim

    def within(self, rows, cols, eps):
        # the largest count c with c / d <= eps, by the same division as block
        reach = np.count_nonzero(np.arange(self.dim + 1) / self.dim <= eps) - 1
        return (self.counts(rows, cols) <= reach).any(axis=1)


class _Coordinates(_Kernel):
    """Points in R^d: the base of the euclidean and geodesic kernels.

    dist(i, j) is the exact formula on broadcast index arrays.  It sums over
    coordinates one at a time, in the same order for every pair, so a pair's
    distance is the same in a tile and alone (a BLAS product rounds by tile
    shape), and it holds two floats a pair rather than a (rows, cols, d)
    broadcast.  When indexed, within screens a tile by squared euclidean
    distance through one BLAS product.  That does not round like dist does,
    so within settles only pairs whose squared distance lies outside the
    band [lo, hi] of band(eps); dist decides the rest.
    """

    def __init__(self, points):
        self.points = np.asarray(points, dtype=float)
        self.sq = (self.points * self.points).sum(axis=1)
        ones = np.ones((self.sq.shape[0], 1))
        # lifted[i] . dropped[j] = |x_i|^2 + |x_j|^2 - 2 x_i . x_j
        self.lifted = np.hstack([self.points, self.sq[:, None], ones])
        self.dropped = np.hstack([-2.0 * self.points, ones, self.sq[:, None]])
        self.sq_max = float(self.sq.max())
        self.pair_bytes = 17  # dist's sum, term and self-pair flag; scans need less

    def block(self, rows, cols):
        return self.dist(rows[:, None], cols[None, :])

    def coordinate_sum(self, i, j, term):
        """Sum over coordinates k of term(x_i[k], x_j[k], out), k = 0, 1, ..."""
        a, b = self.points[i], self.points[j]
        shape = np.broadcast_shapes(a.shape, b.shape)[:-1]
        total, scratch = np.zeros(shape), np.empty(shape)
        for k in range(a.shape[-1]):
            total += term(a[..., k], b[..., k], scratch)
        return total

    def band(self, eps):
        r2 = self.radius_sq(eps)
        if not math.isfinite(r2):
            # an infinite radius reaches every point, a nan one none
            return r2, r2
        # wider than the float error of any squared distance here, exact or
        # BLAS, and of the conversion behind radius_sq
        slack = _INDEX_MARGIN * (r2 + 4.0 * self.sq_max)
        return r2 - slack, r2 + slack

    def within(self, rows, cols, eps):
        if not self.indexed:
            return super().within(rows, cols, eps)
        lo, hi = self.band(eps)
        near = self.lifted[rows] @ self.dropped[cols].T
        least = near.min(axis=1)
        hit = least < lo
        unsure = np.flatnonzero((least >= lo) & (least <= hi))
        r, c = np.nonzero(near[unsure] <= hi)
        r = unsure[r]
        # unsure pairs are pairs of the tile, so dist's scratch fits its budget
        hit[r[self.dist(rows[r], cols[c]) <= eps]] = True
        return hit


class _Euclidean(_Coordinates):
    def __init__(self, points):
        super().__init__(points)
        # bounded squared norms keep the screen's sums finite and every
        # distance well below sqrt(float max), so an eps whose square
        # overflows reaches every point
        self.indexed = bool(np.isfinite(8.0 * self.sq_max))
        # dist's difference, square, d-term sum and sqrt err by at most
        # (d/2 + 2) 2^-53 of a distance <= 2 sqrt(sq_max), so three distances
        # by (3d + 12) 2^-53 sqrt(sq_max), below _INDEX_MARGIN d sqrt(sq_max).
        # Squares that underflow add at most sqrt(d 2^-1075) < 1e-150 a
        # distance.
        self.score_slack = (_INDEX_MARGIN * self.points.shape[1] * math.sqrt(self.sq_max)
                            + 1e-150 if self.indexed else None)

    def radius_sq(self, eps):
        e = float(max(eps, 0.0))
        return e * e

    def dist(self, i, j):
        def term(x, y, out):
            return np.square(np.subtract(x, y, out=out), out=out)

        sq = self.coordinate_sum(i, j, term)
        return np.sqrt(sq, out=sq)


class _SphereGeodesic(_Coordinates):
    """Arc length arccos(x . y).  Between unit points the squared chord is
    2 - 2 x . y, and arc eps is chord 2 sin(eps / 2)."""

    def __init__(self, points):
        super().__init__(points)
        self.indexed = bool(np.abs(self.sq - 1.0).max() <= _UNIT_TOL)
        # Against the arc between the normalized points, a dot product of
        # points unit within _UNIT_TOL errs by at most delta = _UNIT_TOL +
        # d 2^-52 (norms, then the d-term sum), and the clip only moves it
        # closer.  arccos moves by at most arccos(1 - delta) ~ sqrt(2 delta)
        # over that, near 0 and pi: 1.4e-6 rad at d = 3, so a flat 1e-6 is
        # not enough.  Three distances err by 3 sqrt(2 delta) plus a few
        # ulps of pi; 4 sqrt(2 delta) covers them.  Other points: no bound.
        delta = _UNIT_TOL + self.points.shape[1] * 2.0**-52
        self.score_slack = 4.0 * math.sqrt(2.0 * delta) if self.indexed else None

    def radius_sq(self, eps):
        return (2.0 * math.sin(min(max(eps, 0.0), math.pi) / 2.0)) ** 2

    def dist(self, i, j):
        dots = self.coordinate_sum(i, j, np.multiply)
        out = np.arccos(np.clip(dots, -1.0, 1.0, out=dots), out=dots)
        # unit-dot rounding would leave ~1e-8 self-distances
        out[np.broadcast_to(i == j, out.shape)] = 0.0
        return out


class _OperatorNorm(_Kernel):
    """Largest singular value of the difference of two side x side matrices."""
    # LAPACK bounds the SVD's error only by an unstated polynomial in side
    # times 2^-53 times the norm
    score_slack = None

    def __init__(self, points):
        self.points = np.asarray(points, dtype=float)
        self.side = math.isqrt(self.points.shape[1])
        self.pair_bytes = 32 * self.points.shape[1] + 64

    def block(self, rows, cols):
        diff = self.points[rows][:, None, :] - self.points[cols][None, :, :]
        sv = np.linalg.svd(diff.reshape(-1, self.side, self.side), compute_uv=False)
        return sv[:, 0].reshape(rows.shape[0], cols.shape[0])


# each metric kind's kernel class and its type name in space files
MetricKind = collections.namedtuple("MetricKind", "kernel json_type")
METRIC_KINDS = {
    "matrix": MetricKind(_Matrix, "matrix"),
    "hamming": MetricKind(_Hamming, "hamming_normalized"),
    "euclidean": MetricKind(_Euclidean, "euclidean"),
    "sphere_geodesic": MetricKind(_SphereGeodesic, "sphere_geodesic"),
    "operator_norm": MetricKind(_OperatorNorm, "operator_norm"),
}


def point_space(label="*"):
    """The one-point probability space."""
    return FiniteMMSpace([label], [1.0], dist=[[0.0]])


def _as_mask(space, mask):
    m = np.asarray(mask, dtype=bool)
    if m.shape != (space.n,):
        raise ValueError(f"mask shape {m.shape}, expected ({space.n},)")
    return m


def measure(space, mask):
    """Total weight of the masked subset."""
    return float(space.weight[_as_mask(space, mask)].sum())


def neighborhood(space, mask, eps):
    """Closed eps-thickening: points at distance <= eps from the set.

    The closed form keeps finite computations stable at exact distance ties.
    """
    if not eps >= 0:
        raise ValueError("eps must be nonnegative")
    return space.thickened(mask, eps)


@np.errstate(invalid="ignore")  # inf - inf in the later checks; reported as non-finite
def validate_space(space):
    """Diagnostic list of metric/measure axiom violations ("" empty means valid).

    The triangle inequality is checked exhaustively up to _TRIANGLE_SAMPLE_CAP
    points and on a point sample of fixed seed beyond that.
    """
    out = []
    n = space.n
    # all metric checks run on a submatrix: the whole space up to
    # _TRIANGLE_SAMPLE_CAP points, a seeded point sample beyond
    idx = np.arange(n) if n <= _TRIANGLE_SAMPLE_CAP else np.sort(
        np.random.default_rng(0).choice(n, _TRIANGLE_SAMPLE_CAP, replace=False))
    sub = space.pairwise(idx, idx)

    for i, j in np.argwhere(~np.isfinite(sub))[:5]:
        out.append(f"non-finite distance at ({idx[i]},{idx[j]})")
    for i in np.flatnonzero(np.diag(sub) != 0)[:5]:
        out.append(f"nonzero self-distance at ({idx[i]},{idx[i]})")
    asym = [(i, j) for i, j in np.argwhere(np.abs(sub - sub.T) > _VALIDATE_ATOL) if i < j]
    for i, j in asym[:5]:
        out.append(f"symmetry violated at ({idx[i]},{idx[j]})")
    for i, j in np.argwhere(sub < -_VALIDATE_ATOL)[:5]:
        out.append(f"negative distance at ({idx[i]},{idx[j]})")

    # d(i,k) > d(i,j) + d(j,k), middle point by middle point, read lazily up to five
    triangles = (f"triangle inequality violated at ({idx[i]},{idx[j]},{idx[k]})"
                 for j in range(idx.shape[0])
                 for i, k in np.argwhere(sub > sub[:, j:j + 1] + sub[j:j + 1, :] + _VALIDATE_ATOL))
    out += itertools.islice(triangles, 5)

    # the constructor already holds the weight sum to 1
    for i in np.flatnonzero(space.weight < -_VALIDATE_ATOL)[:5]:
        out.append(f"negative weight at {i}")
    return out


def diameter(space):
    """Largest pairwise distance, read in row blocks of 9 bytes a pair (the
    distance and its finite flag); a non-finite one is refused."""
    idx = np.arange(space.n)
    return float(max(d.max() for _, d in space.distance_blocks(idx, idx, 9)))


def _subset_table(values, op):
    """table[s], for every bitmask s < 2^len(values): values[b] over the bits
    b set in s, folded from 0 by the ufunc op in ascending b."""
    table = np.empty(1 << values.shape[0], dtype=values.dtype)
    table[0] = 0
    for b in range(values.shape[0]):
        lo = 1 << b
        op(table[:lo], values[b], out=table[lo:2 * lo])
    return table


def alpha_exact(space, eps, exhaustive_cap=_EXHAUSTIVE_CAP):
    """Exact concentration function value by subset enumeration.

    alpha(eps) = 1 - min{ mu(A_eps) : mu(A) >= 1/2 }, closed thickening.
    Enumerates all 2^n subsets with a bitmask dynamic program, so the space
    must have at most exhaustive_cap points (default 20).  It keeps one
    mass per subset (8 bytes each) and walks the subsets in blocks of
    2^_SUBSET_BLOCK_BITS, whose thickenings join the reach of the block's
    low points with that of its high ones in one reused buffer; whatever
    the cap, the masses and the blocks must fit in 1 GiB, so n <= 26.  A
    non-finite distance raises ValueError.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    n = space.n
    if n > exhaustive_cap:
        raise ValueError(
            f"space has {n} points, exhaustive enumeration is capped at "
            f"{exhaustive_cap}; use alpha_lower_bound for larger instances")
    low = min(n, _SUBSET_BLOCK_BITS)
    # the float64 masses; for each subset of a block, the uint64 reach of
    # its low points and of all, the flag and the two gathers; the uint64
    # reach of the high points
    need = (8 << n) + (33 << low) + (8 << (n - low))
    if need > _SUBSET_TABLE_BUDGET:
        raise ValueError(
            f"space has {n} points; exhaustive enumeration needs {need} bytes, "
            f"over the {_SUBSET_TABLE_BUDGET}-byte budget")
    d = space.dist
    _refuse_non_finite(d, np.arange(n), np.arange(n))

    # nb[i] = bitmask of points within eps of point i (closed ball)
    within = d <= eps
    bits = (np.uint64(1) << np.arange(n, dtype=np.uint64))
    nb = (within * bits[None, :]).sum(axis=1, dtype=np.uint64)

    wsum = _subset_table(space.weight, np.add)  # mu(A) for each bitmask A

    # the subsets (h << low) | l, for l < 2^low, have thickening
    # reach_lo[l] | reach_hi[h]
    reach_lo, reach_hi = (_subset_table(part, np.bitwise_or) for part in (nb[:low], nb[low:]))
    size = reach_lo.shape[0]
    reach = np.empty(size, dtype=np.uint64)
    feasible = np.empty(size, dtype=bool)
    best = np.inf
    for h, high in enumerate(reach_hi):
        np.greater_equal(wsum[h * size:(h + 1) * size], 0.5 - HALF_TOL, out=feasible)
        if h == 0:
            feasible[0] = False  # the empty set
        np.bitwise_or(reach_lo, high, out=reach)
        masses = wsum[reach[feasible]]
        if masses.size:
            best = min(best, masses.min())
    return float(min(max(1.0 - best, 0.0), 0.5))


# -- concentration curves ---------------------------------------------------

CURVE_KINDS = ("exact", "lower_bound_search", "analytic_cap")


class ConcentrationCurve:
    """Sampled concentration function: ascending positive eps grid, alpha values,
    and the kind of computation that produced them.

    alpha(0) = 1/2 by convention; the grid stores only positive eps.  Values
    must sit in [0, 1/2] and be non-increasing (within float noise).
    """

    def __init__(self, eps, alpha, kind):
        eps = np.asarray(eps, dtype=float)
        alpha = np.asarray(alpha, dtype=float)
        if eps.ndim != 1 or eps.shape != alpha.shape:
            raise ValueError("eps and alpha must be 1-d arrays of equal length")
        if eps.size == 0:
            raise ValueError("empty curve")
        if not (eps > 0).all():
            raise ValueError("eps grid must be strictly positive")
        if not (np.diff(eps) > 0).all():
            raise ValueError("eps grid must be strictly ascending")
        if not ((alpha >= -1e-12) & (alpha <= 0.5 + 1e-12)).all():
            raise ValueError("alpha values must lie in [0, 1/2]")
        if not (np.diff(alpha) <= 1e-9).all():
            raise ValueError("alpha values must be non-increasing in eps")
        if kind not in CURVE_KINDS:
            raise ValueError(f"kind must be one of {CURVE_KINDS}")
        self.eps = eps
        self.alpha = np.clip(alpha, 0.0, 0.5)
        self.kind = kind

    def __len__(self):
        return self.eps.size

    def to_csv_text(self):
        buf = io.StringIO()
        wr = csv.writer(buf, lineterminator="\n")
        wr.writerow(["eps", "alpha", "kind"])
        for e, a in zip(self.eps, self.alpha):
            wr.writerow([repr(float(e)), repr(float(a)), self.kind])
        return buf.getvalue()

    @classmethod
    def from_csv_text(cls, text):
        rd = csv.reader(io.StringIO(text))
        header = next(rd, [])  # an empty file has no header row
        if header != ["eps", "alpha", "kind"]:
            raise ValueError(f"bad curve header {header!r}")
        eps, alpha, kinds = [], [], set()
        for row in rd:
            if not row:
                continue
            if len(row) != 3:
                raise ValueError(f"curve row {row!r} does not have 3 fields")
            eps.append(float(row[0]))
            alpha.append(float(row[1]))
            kinds.add(row[2])
        if len(kinds) != 1:
            raise ValueError("curve rows disagree on kind")
        return cls(eps, alpha, kinds.pop())


# -- JSON round trip ---------------------------------------------------------

def space_to_json(space):
    """JSON-compatible dict for a space: a matrix space's distances, or the
    points of any other, under its metric kind's type name."""
    obj = {"labels": list(space.labels), "weights": [float(x) for x in space.weight]}
    if space.points is None:
        obj["metric"] = {"type": "matrix", "data": space._dist.tolist()}
    else:
        obj["metric"] = {"type": METRIC_KINDS[space.metric].json_type,
                         "points": space.points.tolist()}
    return obj


def space_from_json(obj):
    """The space of a space_to_json dict.  Of the keys older files carry, a
    hamming "n" is ignored, and an operator_norm "side" must be the square
    root of the point width."""
    labels, weights, m = obj["labels"], obj["weights"], obj["metric"]
    if m["type"] == "matrix":
        return FiniteMMSpace(labels, weights, dist=m["data"])
    kind = next((k for k, row in METRIC_KINDS.items() if row.json_type == m["type"]), None)
    if kind is None:
        raise ValueError(f"unknown metric type {m['type']!r}")
    pts = np.asarray(m["points"], dtype=float)
    if kind == "hamming":
        # symbols are non-negative integers, kept in the narrowest type that
        # holds them (permutation words may pass 255)
        if not (np.isfinite(pts) & (pts >= 0) & (pts == np.floor(pts))).all():
            raise ValueError("hamming points must be non-negative integers")
        pts = pts.astype(np.min_scalar_type(int(pts.max(initial=0))))
    space = FiniteMMSpace(labels, weights, points=pts, metric=kind)
    if "side" in m and int(m["side"]) ** 2 != pts.shape[1]:
        raise ValueError(f"side {m['side']!r} does not match points of width {pts.shape[1]}")
    return space


def save_space(space, path):
    with open(path, "w") as fh:
        json.dump(space_to_json(space), fh, sort_keys=True)
        fh.write("\n")


def load_space(path):
    with open(path) as fh:
        return space_from_json(json.load(fh))
