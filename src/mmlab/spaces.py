"""Finite metric-measure spaces: the base type, validation, neighborhoods,
and the exhaustive concentration oracle.

A space is a finite set of labeled points, a metric, and a probability
weight vector.  The metric is either an explicit dense matrix or a point
representation (bit vectors, coordinates on a sphere, flattened rotation
matrices) from which distances are computed in blocks.  The lazy form is
what makes 1e5-sample spaces usable: the full matrix would not fit in
memory, but min-distance-to-set scans stream over column blocks.
"""

from __future__ import annotations

import csv
import io
import json
import warnings

import numpy as np

# weight sums farther than this from 1 are rejected outright
WEIGHT_REJECT_TOL = 1e-9
# sums closer than this are accepted silently, in between we renormalize with a warning
WEIGHT_CLEAN_TOL = 1e-12
# qualification threshold for "at least half" subsets
HALF_TOL = 1e-12

METRIC_KINDS = ("matrix", "hamming", "euclidean", "sphere_geodesic", "operator_norm")

_MATERIALIZE_CAP = 8192  # refuse to build dense matrices beyond this many points
_SUBSET_TABLE_BUDGET = 1 << 30  # bytes for alpha_exact's per-subset tables
_BLOCK_ROWS = 4096
_BLOCK_COLS = 2048


class FiniteMMSpace:
    """Finite metric-measure space.

    Parameters
    ----------
    labels : sequence of point identifiers (opaque, JSON-serializable)
    weight : probability vector, one entry per point
    dist : optional dense (n, n) distance matrix
    points : optional (n, d) point array used with a named metric kind
    metric : one of METRIC_KINDS; "matrix" requires dist, the rest require points
    metric_params : extra metric data (e.g. matrix side length for operator_norm)

    Weight vectors within 1e-9 of summing to one are renormalized with a
    warning; anything farther off is rejected.  Metric axioms are *not*
    enforced here; validate_space reports violations as diagnostics.
    """

    def __init__(self, labels, weight, dist=None, points=None, metric="matrix",
                 metric_params=None):
        self.labels = list(labels)
        n = len(self.labels)
        if n < 1:
            raise ValueError("a space needs at least one point")

        w = np.asarray(weight, dtype=float).reshape(-1)
        if w.shape[0] != n:
            raise ValueError(f"{w.shape[0]} weights for {n} labels")
        s = float(w.sum())
        if abs(s - 1.0) > WEIGHT_REJECT_TOL:
            raise ValueError(f"weights sum to {s!r}, expected 1 within {WEIGHT_REJECT_TOL}")
        if abs(s - 1.0) > WEIGHT_CLEAN_TOL:
            warnings.warn(f"renormalizing weights (sum was {s!r})", stacklevel=2)
            w = w / s
        self.weight = w

        if metric not in METRIC_KINDS:
            raise ValueError(f"unknown metric kind {metric!r}")
        self.metric = metric
        self.metric_params = dict(metric_params or {})
        self._dist = None
        self.points = None

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
            if metric == "operator_norm":
                side = self.metric_params.get("side")
                if side is None or side * side != p.shape[1]:
                    raise ValueError("operator_norm needs metric_params['side'] with side^2 == point dim")

    @property
    def n(self):
        return len(self.labels)

    def __repr__(self):
        return f"FiniteMMSpace(n={self.n}, metric={self.metric!r})"

    # -- distance access -------------------------------------------------

    def pairwise(self, rows, cols):
        """Dense block of distances between the given row and column indices."""
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        if self.metric == "matrix":
            return self._dist[np.ix_(rows, cols)]
        a = self.points[rows]
        b = self.points[cols]
        if self.metric == "hamming":
            return (a[:, None, :] != b[None, :, :]).mean(axis=2)
        if self.metric == "euclidean":
            diff = a[:, None, :].astype(float) - b[None, :, :].astype(float)
            return np.sqrt((diff * diff).sum(axis=2))
        if self.metric == "sphere_geodesic":
            dots = np.clip(a.astype(float) @ b.astype(float).T, -1.0, 1.0)
            d = np.arccos(dots)
            # unit-dot rounding would leave ~1e-8 self-distances
            d[rows[:, None] == cols[None, :]] = 0.0
            return d
        if self.metric == "operator_norm":
            side = self.metric_params["side"]
            diff = (a[:, None, :].astype(float) - b[None, :, :].astype(float))
            diff = diff.reshape(len(rows) * len(cols), side, side)
            sv = np.linalg.svd(diff, compute_uv=False)
            return sv[:, 0].reshape(len(rows), len(cols))
        raise AssertionError(self.metric)

    @property
    def dist(self):
        """Dense distance matrix, materialized (and cached) on demand."""
        if self._dist is None:
            if self.n > _MATERIALIZE_CAP:
                raise ValueError(
                    f"space has {self.n} points, too many for a dense matrix; "
                    "use pairwise/dist_to_set block operations")
            idx = np.arange(self.n)
            if self.metric == "operator_norm":
                # chunk so the svd batch stays small
                out = np.empty((self.n, self.n))
                for r0 in range(0, self.n, 256):
                    r = idx[r0:r0 + 256]
                    out[r0:r0 + 256] = self.pairwise(r, idx)
                self._dist = out
            else:
                self._dist = self.pairwise(idx, idx)
        return self._dist

    def dist_to_set(self, mask):
        """For every point, min distance to the masked set, streamed in blocks."""
        mask = _as_mask(self, mask)
        if not mask.any():
            raise ValueError("empty set has no neighborhood")
        members = np.flatnonzero(mask)
        if self._dist is not None:
            return self._dist[:, members].min(axis=1)
        n = self.n
        out = np.full(n, np.inf)
        rows = np.arange(n)
        for r0 in range(0, n, _BLOCK_ROWS):
            r = rows[r0:r0 + _BLOCK_ROWS]
            acc = np.full(r.shape[0], np.inf)
            for c0 in range(0, members.shape[0], _BLOCK_COLS):
                c = members[c0:c0 + _BLOCK_COLS]
                acc = np.minimum(acc, self.pairwise(r, c).min(axis=1))
            out[r0:r0 + _BLOCK_ROWS] = acc
        return out

    def thickened(self, mask, eps):
        """Boolean mask of the closed eps-thickening of the masked set.

        Same points as dist_to_set(mask) <= eps but cheaper on lazy spaces:
        the sphere kernel compares inner products against cos(eps) instead of
        taking an arccos per pair, and row blocks stop scanning column blocks
        once every row is marked.
        """
        mask = _as_mask(self, mask)
        if not mask.any():
            raise ValueError("empty set has no neighborhood")
        members = np.flatnonzero(mask)
        if self._dist is not None:
            return self._dist[:, members].min(axis=1) <= eps
        out = np.zeros(self.n, dtype=bool)
        out[members] = True
        for r0 in range(0, self.n, _BLOCK_ROWS):
            r = np.arange(r0, min(r0 + _BLOCK_ROWS, self.n))
            todo = r[~out[r]]
            for c0 in range(0, members.shape[0], _BLOCK_COLS):
                if todo.shape[0] == 0:
                    break
                c = members[c0:c0 + _BLOCK_COLS]
                hit = self._within_block(todo, c, eps)
                out[todo[hit]] = True
                todo = todo[~hit]
        return out

    def _within_block(self, rows, cols, eps):
        if self.metric == "sphere_geodesic":
            if eps >= np.pi:
                return np.ones(rows.shape[0], dtype=bool)
            dots = self.points[rows].astype(float) @ self.points[cols].astype(float).T
            return (dots >= np.cos(eps)).any(axis=1)
        return (self.pairwise(rows, cols) <= eps).any(axis=1)


def point_space(label="*"):
    """The one-point probability space."""
    return FiniteMMSpace([label], [1.0], dist=[[0.0]])


def _as_mask(space, mask):
    m = np.asarray(mask)
    if m.dtype != bool:
        m = m.astype(bool)
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
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    return space.thickened(mask, eps)


def validate_space(space, atol=1e-9, triangle_sample_cap=1024, seed=0):
    """Diagnostic list of metric/measure axiom violations ("" empty means valid).

    The triangle inequality is checked exhaustively up to triangle_sample_cap
    points and on a seeded point sample beyond that.
    """
    out = []
    n = space.n
    # all metric checks run on a submatrix: the whole space when it is small
    # enough to materialize, a seeded point sample otherwise
    if n <= triangle_sample_cap and (space._dist is not None or n <= _MATERIALIZE_CAP):
        idx = np.arange(n)
        sub = space.dist
    else:
        take = min(n, triangle_sample_cap)
        idx = np.sort(np.random.default_rng(seed).choice(n, take, replace=False))
        sub = space.pairwise(idx, idx)

    for i in np.flatnonzero(np.diag(sub) != 0)[:5]:
        out.append(f"nonzero self-distance at ({idx[i]},{idx[i]})")
    asym = [(i, j) for i, j in np.argwhere(np.abs(sub - sub.T) > atol) if i < j]
    for i, j in asym[:5]:
        out.append(f"symmetry violated at ({idx[i]},{idx[j]})")
    for i, j in np.argwhere(sub < -atol)[:5]:
        out.append(f"negative distance at ({idx[i]},{idx[j]})")

    reported = 0
    for jj in range(idx.shape[0]):
        if reported >= 5:
            break
        rhs = sub[:, jj:jj + 1] + sub[jj:jj + 1, :]  # d(i,j) + d(j,k)
        for i, k in np.argwhere(sub > rhs + atol):
            out.append(
                f"triangle inequality violated at ({idx[i]},{idx[jj]},{idx[k]})")
            reported += 1
            if reported >= 5:
                break

    wneg = np.flatnonzero(space.weight < -atol)
    for i in wneg[:5]:
        out.append(f"negative weight at {i}")
    s = float(space.weight.sum())
    if abs(s - 1.0) > WEIGHT_REJECT_TOL:
        out.append(f"weights sum to {s!r}, expected 1")
    return out


def diameter(space):
    """Largest pairwise distance."""
    if space._dist is not None or space.n <= _MATERIALIZE_CAP:
        return float(space.dist.max())
    best = 0.0
    rows = np.arange(space.n)
    for r0 in range(0, space.n, _BLOCK_ROWS):
        r = rows[r0:r0 + _BLOCK_ROWS]
        for c0 in range(0, space.n, _BLOCK_COLS):
            c = rows[c0:c0 + _BLOCK_COLS]
            best = max(best, float(space.pairwise(r, c).max()))
    return best


def alpha_exact(space, eps, exhaustive_cap=20):
    """Exact concentration function value by subset enumeration.

    alpha(eps) = 1 - min{ mu(A_eps) : mu(A) >= 1/2 }, closed thickening.
    Enumerates all 2^n subsets with a bitmask dynamic program, so the space
    must have at most exhaustive_cap points (default 20); whatever the cap,
    the tables (17 bytes per subset) must fit in 1 GiB, so n <= 25.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    n = space.n
    if n > exhaustive_cap:
        raise ValueError(
            f"space has {n} points, exhaustive enumeration is capped at "
            f"{exhaustive_cap}; use alpha_lower_bound for larger instances")
    if 17 << n > _SUBSET_TABLE_BUDGET:  # uint64 reach, float64 mass, bool flag
        raise ValueError(
            f"space has {n} points; exhaustive enumeration needs {17 << n} bytes, "
            f"over the {_SUBSET_TABLE_BUDGET}-byte budget")
    d = space.dist
    w = space.weight

    # nb[i] = bitmask of points within eps of point i (closed ball)
    within = d <= eps
    bits = (np.uint64(1) << np.arange(n, dtype=np.uint64))
    nb = (within * bits[None, :]).sum(axis=1, dtype=np.uint64)

    size = 1 << n
    reach = np.zeros(size, dtype=np.uint64)   # bitmask of A_eps for each subset A
    wsum = np.zeros(size, dtype=float)        # mu(A) for each bitmask A
    for b in range(n):
        lo = 1 << b
        reach[lo:2 * lo] = reach[:lo] | nb[b]
        wsum[lo:2 * lo] = wsum[:lo] + w[b]

    feasible = wsum >= 0.5 - HALF_TOL
    feasible[0] = False
    best = wsum[reach[feasible]].min()
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
        if (eps <= 0).any():
            raise ValueError("eps grid must be strictly positive")
        if (np.diff(eps) <= 0).any():
            raise ValueError("eps grid must be strictly ascending")
        if (alpha < -1e-12).any() or (alpha > 0.5 + 1e-12).any():
            raise ValueError("alpha values must lie in [0, 1/2]")
        if (np.diff(alpha) > 1e-9).any():
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
        header = next(rd)
        if header != ["eps", "alpha", "kind"]:
            raise ValueError(f"bad curve header {header!r}")
        eps, alpha, kinds = [], [], set()
        for row in rd:
            if not row:
                continue
            eps.append(float(row[0]))
            alpha.append(float(row[1]))
            kinds.add(row[2])
        if len(kinds) != 1:
            raise ValueError("curve rows disagree on kind")
        return cls(eps, alpha, kinds.pop())


# -- JSON round trip ---------------------------------------------------------

def space_to_json(space, explicit_matrix_max=512):
    """JSON-compatible dict for a space.

    Small spaces serialize the dense matrix; point-backed spaces keep their
    implicit metric descriptor so huge instances stay huge-free on disk.
    """
    obj = {"labels": list(space.labels), "weights": [float(x) for x in space.weight]}
    if space.metric == "matrix" or (space.points is None):
        obj["metric"] = {"type": "matrix",
                         "data": [[float(x) for x in row] for row in space.dist]}
    elif space.n <= explicit_matrix_max and space.metric == "hamming":
        # tiny digit-backed spaces round-trip as matrices for readability
        obj["metric"] = {"type": "matrix",
                         "data": [[float(x) for x in row] for row in space.dist]}
    else:
        m = {"type": {"hamming": "hamming_normalized",
                      "euclidean": "euclidean",
                      "sphere_geodesic": "sphere_geodesic",
                      "operator_norm": "operator_norm"}[space.metric],
             "points": space.points.tolist()}
        if space.metric == "hamming":
            m["n"] = int(space.points.shape[1])
        if space.metric == "operator_norm":
            m["side"] = int(space.metric_params["side"])
        obj["metric"] = m
    return obj


def space_from_json(obj):
    labels = obj["labels"]
    weights = obj["weights"]
    m = obj["metric"]
    kind = m["type"]
    if kind == "matrix":
        return FiniteMMSpace(labels, weights, dist=m["data"])
    if kind == "hamming_normalized":
        if "points" in m:
            pts = np.asarray(m["points"], dtype=np.uint8)
        else:
            # digits recovered from the labels themselves
            width = int(m["n"])
            pts = np.array([[int(ch) for ch in str(lab).zfill(width)] for lab in labels],
                           dtype=np.uint8)
        return FiniteMMSpace(labels, weights, points=pts, metric="hamming")
    if kind in ("euclidean", "sphere_geodesic"):
        pts = np.asarray(m["points"], dtype=float)
        return FiniteMMSpace(labels, weights, points=pts,
                             metric=kind)
    if kind == "operator_norm":
        pts = np.asarray(m["points"], dtype=float)
        return FiniteMMSpace(labels, weights, points=pts, metric="operator_norm",
                             metric_params={"side": int(m["side"])})
    raise ValueError(f"unknown metric type {kind!r}")


def save_space(space, path, **kw):
    with open(path, "w") as fh:
        json.dump(space_to_json(space, **kw), fh, sort_keys=True)
        fh.write("\n")


def load_space(path):
    with open(path) as fh:
        return space_from_json(json.load(fh))
