"""Convergence-in-measure metric on step functions, anchored 1-Lipschitz
function families, Hausdorff distance between families, and an estimator
of the observable distance between finite mm-spaces.

The estimator compares finite families: anchored extreme functions of each
space (distance functions to small point sets, shifted to vanish at the
anchor) together with all constant functions.  A family stands for its
negatives too, which the me1 comparisons read from the same rows.
Constants are shared by both sides, so they never contribute to the
Hausdorff value themselves; they let a concentrated distance function sit
close to its typical value, so that a Levy sequence's distance to the
one-point space decays.  Against that space, whose family is {0}, the
estimator is a closed form: the largest me1 distance from a member of the
other family to its nearest constant.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .concentration import SearchConfig
from .spaces import _row_blocks, point_space

_COUPLING_TOL = 1e-12  # couplings this close entrywise are one candidate
_PAIR_POOL_LIMIT = 12  # extreme families add distances to point pairs up to this size
_EXHAUSTIVE_COUPLINGS = 720  # order pairs searched exhaustively up to this many
_FIT_CELL_BYTES = 106  # tracemalloc peak of one (row, cell) of _best_const_rows
_HAUSDORFF_CELL_BYTES = 75  # and of one (member, member, cell) of _family_hausdorff
_LIFTED_CAP = 1 << 24  # family entries a general pair may lift onto the product coupling
_SUPPORT_TOL = 1e-15  # mass a north-west corner leaves at or below this is spent


# -- step functions and the me1 metric ---------------------------------------

@dataclass
class StepFunction:
    """Piecewise-constant function on [0,1]: values[i] on
    [breakpoints[i], breakpoints[i+1])."""
    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.breakpoints = np.asarray(self.breakpoints, dtype=float).reshape(-1)
        self.values = np.asarray(self.values, dtype=float).reshape(-1)
        b = self.breakpoints
        if b.shape[0] < 2 or b[0] != 0.0 or b[-1] != 1.0:
            raise ValueError("breakpoints must run from 0 to 1")
        if not (np.diff(b) > 0).all():
            raise ValueError("breakpoints must be strictly ascending")
        if self.values.shape[0] != b.shape[0] - 1:
            raise ValueError("need one value per interval")

    def masses(self):
        return np.diff(self.breakpoints)


def _me1_rows(masses, gaps):
    """me1-to-zero of |gap| rows sharing one cell-mass vector.

    For each row: inf{lam > 0 : mass{gaps > lam} < lam}.  The tail-mass
    function is constant between distinct gap values, so the infimum is
    attained as max(window start, window tail) over the finitely many
    windows, evaluated here for all rows at once.  Cell masses form a
    probability measure, so the value is capped at 1: a tail summed from
    rounded cell masses can land a few ulps above it.
    """
    gaps = np.abs(np.asarray(gaps, dtype=float))
    order = np.argsort(gaps, axis=1, kind="stable")
    g = np.take_along_axis(gaps, order, axis=1)
    m = np.asarray(masses, dtype=float)[order]
    total = m.sum(axis=1, keepdims=True)
    cum = np.cumsum(m, axis=1)

    k, c = g.shape
    nxt = np.concatenate([g[:, 1:], np.full((k, 1), np.inf)], axis=1)
    is_end = nxt > g  # last position of each run of equal gap values
    tail = total - cum  # mass strictly above g[:, j] at run ends
    cand = np.where(is_end & (tail < nxt), np.maximum(g, tail), np.inf)

    # window [0, smallest positive gap): tail is the whole positive-gap mass
    tail0 = (m * (g > 0)).sum(axis=1)
    next0 = np.where(g > 0, g, np.inf).min(axis=1)
    cand0 = np.where(tail0 < next0, tail0, np.inf)

    return np.minimum(np.minimum(cand.min(axis=1), cand0), 1.0)


def _refine_pair(h1, h2):
    """Common-partition cell masses and value rows for two step functions."""
    edges = np.union1d(h1.breakpoints, h2.breakpoints)
    masses = np.diff(edges)
    left = edges[:-1]
    v1 = h1.values[np.searchsorted(h1.breakpoints, left, side="right") - 1]
    v2 = h2.values[np.searchsorted(h2.breakpoints, left, side="right") - 1]
    return masses, v1, v2


def me1(h1, h2):
    """Ky-Fan style metric of convergence in measure:
    inf{lam > 0 : Leb{|h1 - h2| > lam} < lam}, computed exactly."""
    masses, v1, v2 = _refine_pair(h1, h2)
    return float(_me1_rows(masses, (v1 - v2)[None, :])[0])


def _best_const_rows(masses, vals):
    """min over constants c of me1(row - c), one value per row, exactly.

    me1(row - c) <= lam iff the closed window [c - lam, c + lam] holds value
    mass at least total - lam, so the minimum is attained on a window spanned
    by two sorted values: min over i <= j of
    max((v_j - v_i) / 2, total - mass[v_i .. v_j]).  For fixed i the first
    term grows with j and the second shrinks; they cross at the first j with
    v_j/2 + cum[j+1] >= v_i/2 + cum[i] + total, where both sides are
    nondecreasing, so one searchsorted per row and the costs at j and j - 1
    give the exact value.  Rows are independent, so they are fitted in
    blocks of bounded scratch.
    """
    vals = np.asarray(vals, dtype=float)
    c = vals.shape[1]
    i = np.arange(c)
    out = np.empty(vals.shape[0])
    for r in _row_blocks(vals.shape[0], c, _FIT_CELL_BYTES):
        order = np.argsort(vals[r], axis=1, kind="stable")
        v = np.take_along_axis(vals[r], order, axis=1)
        m = np.asarray(masses, dtype=float)[order]
        cum = np.concatenate([np.zeros((v.shape[0], 1)), np.cumsum(m, axis=1)], axis=1)
        total = cum[:, -1:]

        key = 0.5 * v + cum[:, 1:]
        target = 0.5 * v + cum[:, :-1] + total
        cross = np.empty(v.shape, dtype=np.intp)
        for k in range(v.shape[0]):
            cross[k] = np.searchsorted(key[k], target[k])
        j = np.clip(cross, i, c - 1)

        def cost(end):
            width = 0.5 * (np.take_along_axis(v, end, axis=1) - v)
            outside = total - (np.take_along_axis(cum, end + 1, axis=1) - cum[:, :-1])
            return np.maximum(width, outside)

        out[r] = np.minimum(cost(j), cost(np.maximum(j - 1, i))).min(axis=1)
    return out


def best_constant_me1(h):
    """Distance from a step function to the nearest constant function."""
    return float(_best_const_rows(h.masses(), h.values[None, :])[0])


# -- anchored Lipschitz families ----------------------------------------------

def lipschitz_extremes(space, anchor):
    """Anchored distance functions x -> d(x, S) - d(anchor, S), one member
    per row of a C-contiguous (members, points) matrix, for S in a subset
    pool: all singletons, and all pairs when the space has at most
    _PAIR_POOL_LIMIT points.  Distance functions to sets are exactly
    1-Lipschitz.  The family stands for itself and its negatives, which
    _family_hausdorff reads from the same rows.

    Adding a constant changes neither membership nor any me1 fit, so the
    family at another anchor b is this matrix minus its column b.
    """
    n = space.n
    if not 0 <= anchor < n:
        raise ValueError(f"anchor {anchor} out of range")
    d = space.dist
    pools = d.T  # row y: distance to {y}
    if n <= _PAIR_POOL_LIMIT:
        y, z = np.triu_indices(n, 1)
        pools = np.concatenate([pools, np.minimum(d[:, y], d[:, z]).T])
    return np.subtract(pools, pools[:, anchor, None], order="C")


# -- observable distance estimator --------------------------------------------

@dataclass(frozen=True)
class ObsDistanceResult:
    upper: float  # certified only as a lower bound, against the one-point space
    coupling: np.ndarray
    anchor: tuple  # the points of the anchor cell, in X and in Y


@dataclass(frozen=True)
class LevyConvergenceResult:
    dists: np.ndarray
    decreasing_trend: bool
    slack: float


def _nw_corner(wx, wy, order_x, order_y):
    """North-west-corner plan of the weights wx against wy, filled along the
    point orders order_x and order_y: the cells (rows, cols) it fills, in
    filling order, and their masses.  Mass left at or below _SUPPORT_TOL
    counts as spent, so each step moves on to the next point of one order
    or of both, and the filled cells form a staircase."""
    rx, ry = wx[order_x].tolist(), wy[order_y].tolist()
    rows, cols, mass = [], [], []
    i = j = 0
    while i < len(rx) and j < len(ry):
        step = min(rx[i], ry[j])
        if step > 0:
            rows.append(order_x[i])
            cols.append(order_y[j])
            mass.append(step)
        rx[i] -= step
        ry[j] -= step
        if rx[i] <= _SUPPORT_TOL:
            i += 1
        if ry[j] <= _SUPPORT_TOL:
            j += 1
    return np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp), np.array(mass)


def _candidate_couplings(X, Y, cfg):
    nx, ny = X.n, Y.n
    plans = [np.outer(X.weight, Y.weight)]
    if nx == ny and np.allclose(X.weight, Y.weight, rtol=0, atol=1e-12):
        plans.insert(0, np.diag(X.weight.astype(float)))
    orders = [(np.arange(nx), np.arange(ny)),
              (np.argsort(-X.weight, kind="stable"), np.argsort(-Y.weight, kind="stable"))]
    if math.factorial(nx) * math.factorial(ny) <= _EXHAUSTIVE_COUPLINGS:
        orders += [(np.array(px), np.array(py)) for px in itertools.permutations(range(nx))
                   for py in itertools.permutations(range(ny))]
    else:
        for r in range(cfg.restarts):
            rng = np.random.default_rng([cfg.seed, 100 + r])
            orders.append((rng.permutation(nx), rng.permutation(ny)))
    stack = np.zeros((len(plans) + len(orders), nx, ny))
    stack[:len(plans)] = plans
    for pi, (order_x, order_y) in zip(stack[len(plans):], orders):
        # the north-west-corner plan along the two orders, rescaled to mass 1
        rows, cols, mass = _nw_corner(X.weight, Y.weight, order_x, order_y)
        pi[rows, cols] = mass
        pi /= pi.sum()
    # first seen wins, so a larger budget only appends candidates; the kept
    # plans are moved to the front of the stack as they are found
    kept = 0
    for pi in stack:
        if not kept or np.abs(stack[:kept] - pi).max(axis=(1, 2)).min() > _COUPLING_TOL:
            stack[kept] = pi
            kept += 1
    return list(stack[:kept])


def _family_hausdorff(masses, A, B, fit_a, fit_b, best=math.inf):
    """Hausdorff me1 between two lifted families, A and its negatives against
    B and its negatives, each augmented with all constant functions; or inf
    when that value is at least best.

    Constants are shared, so the value is the max over the members m of both
    families of near(m) = min(fit(m), best cross-family match of m), with the
    best constant fits given as fit_a and fit_b.  The negatives are read from
    the rows themselves:
    - min over b' in +-B of me1(a - b') is min over b of
      min(me1|a - b|, me1|a + b|), and the same for -a, with the same value;
    - fit(-a) = fit(a), so -a is as near as a, and the max runs over A alone;
    - a zero member would set no value: its fit is 0, and me1|a| >= fit(a).
    Since near(m) <= fit(m), a branch and bound on the fits is exact:
    - members of both families are visited in descending fit, keeping lb,
      the largest near seen so far;
    - a visited member scans the other family in row blocks;
    - once the next member's fit is <= lb, every member left has
      near <= fit <= lb, so the value is lb;
    - once lb >= best the search stops and returns inf: obs_distance keeps a
      candidate only when its value is strictly smaller than best, so this
      anchor cannot win.
    Every me1 value read comes from the same gap row as in a scan of all
    member pairs, so the value is bit-identical to that scan's."""
    fits = np.concatenate([fit_a, fit_b])
    lb = 0.0
    for m in np.argsort(-fits, kind="stable"):
        if fits[m] <= lb or lb >= best:
            break
        row, other = (A[m], B) if m < A.shape[0] else (B[m - A.shape[0]], A)
        near = fits[m]
        for r in _row_blocks(*other.shape, _HAUSDORFF_CELL_BYTES):
            near = min(near, _me1_rows(masses, row - other[r]).min(),
                       _me1_rows(masses, row + other[r]).min())
        lb = max(lb, near)
    return float(lb) if lb < best else math.inf


def _check_lifted_size(X, Y):
    """Refuse a general pair whose families, lifted onto the product
    coupling (the candidate with the most cells), would pass _LIFTED_CAP."""
    def rows(n):  # members of lipschitz_extremes on n points
        return n + n * (n - 1) // 2 if n <= _PAIR_POOL_LIMIT else n

    px, py = int((X.weight > 0).sum()), int((Y.weight > 0).sum())
    entries = (rows(X.n) + rows(Y.n)) * px * py
    if entries > _LIFTED_CAP:
        raise ValueError(
            f"families of {rows(X.n)} and {rows(Y.n)} members on the product "
            f"coupling's {px} x {py} cells take {entries} entries, more than "
            f"{_LIFTED_CAP}")


def obs_distance(X, Y, cfg=None):
    """Estimate of the observable distance between two finite spaces.

    Searches couplings of the weight vectors (several deterministic
    constructions, north-west corners along every order pair on tiny
    instances, seeded restarts otherwise) and, in each, anchor cells up to
    the budget.  A coupling's cells partition [0, 1] by their masses, and the
    Hausdorff me1 distance between the constant-augmented extreme families
    is evaluated on that partition.  Enlarging the budget only adds
    candidates, so the reported value never increases with budget.

    Each space's extreme family is built once, one row per pool set; its
    negatives are read from the same rows (lipschitz_extremes).  An anchor
    only shifts every member by its value there.  The constant fit is
    shift- and sign-invariant, so it runs once per coupling, on the lifted
    rows.  Against the one-point space it is the whole answer (module
    docstring): no search runs.

    Each anchor's Hausdorff value is an exact branch and bound
    (_family_hausdorff): members are visited in descending fit, the search
    stops once no member left can raise the value, and an anchor is given up
    once its value reaches the best one so far, which it could then never
    replace.  The reported value, coupling and anchor are those of a scan of
    every member pair.  A general pair whose families, lifted onto the
    product coupling's cells, would take more than _LIFTED_CAP entries is
    refused with ValueError before anything is allocated.

    The value is reported as `upper` but certifies no upper bound.  Against
    the one-point space it is a max of inf_c me1(f, c) over a finite family
    of 1-Lipschitz f, whereas the observable distance takes the sup over all
    of them, so it is a lower bound.  For general pairs the Hausdorff value
    between finite families certifies no bound either way.
    """
    cfg = cfg or SearchConfig()
    to_point = X.n == 1 or Y.n == 1
    if not to_point:
        _check_lifted_size(X, Y)
    best = None
    fx = lipschitz_extremes(X, 0)
    fy = lipschitz_extremes(Y, 0)

    couplings = [np.outer(X.weight, Y.weight)] if to_point else _candidate_couplings(X, Y, cfg)
    for pi in couplings:
        ci, cj = np.nonzero(pi > _SUPPORT_TOL)
        masses = pi[ci, cj]
        # take keeps the lifted rows C-contiguous, which the row sorts need
        lx, ly = np.take(fx, ci, axis=1), np.take(fy, cj, axis=1)
        fit_x, fit_y = _best_const_rows(masses, lx), _best_const_rows(masses, ly)
        by_mass = np.lexsort((cj, ci, -masses))
        if to_point:
            best = (float(max(fit_x.max(), fit_y.max())), pi, ci, cj, by_mass[0])
            break
        for cell in by_mass[:max(1, cfg.anchor_budget)]:
            h = _family_hausdorff(masses, lx - lx[:, cell, None], ly - ly[:, cell, None],
                                  fit_x, fit_y, math.inf if best is None else best[0])
            if best is None or h < best[0]:
                best = (h, pi, ci, cj, cell)
                if h <= 0.0:
                    break
        if best is not None and best[0] <= 0.0:
            break

    h, pi, ci, cj, cell = best
    return ObsDistanceResult(upper=h, coupling=pi, anchor=(int(ci[cell]), int(cj[cell])))


def levy_convergence_test(spaces, *, slack=0.02):
    """Distances of an ordered space family to the one-point space.

    decreasing_trend applies the same slack rule as the concentration-curve
    trend check: consecutive increases stay within slack and the final value
    is strictly below the first.
    """
    pt = point_space()
    dists = np.array([obs_distance(s, pt).upper for s in spaces])
    trend = bool((np.diff(dists) <= slack).all() and dists[-1] < dists[0]) \
        if dists.shape[0] > 1 else False
    return LevyConvergenceResult(dists=dists, decreasing_trend=trend, slack=slack)
