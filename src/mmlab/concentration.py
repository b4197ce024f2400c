"""Concentration estimators: search lower bounds, exact cube curves, medians
and tail checks, gaussian decay fits, and the closed-form sphere cap value."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spaces import _EXHAUSTIVE_CAP, HALF_TOL, ConcentrationCurve, alpha_exact, measure

_EXHAUSTIVE_BALL_LIMIT = 64  # spaces this small try a ball around every point
_LIPSCHITZ_ANCHORS = 3       # points under each random 1-Lipschitz restart score
_SWAP_PASSES = 2             # greedy removal-and-swap passes
_SWAP_CAP = 256              # largest space the greedy swaps run on
_LIPSCHITZ_REL_TOL = 1e-9    # relative slack LipschitzFunction.check allows
_CUBE_ALPHA_MAX_DIM = 24     # largest cube hamming_cube_alpha evaluates
_BALL_PAIR_BYTES = 33        # majority_ball_upper's scratch per pair: distance,
                             # order, weight, running mass and threshold flag
_CHECK_PAIR_BYTES = 41       # LipschitzFunction.check's scratch per pair: distance,
                             # gap, scaled distance, excess and its sign


@dataclass(frozen=True)
class SearchConfig:
    """Budgets for the randomized searches.

    seed drives every random choice; restarts counts random restarts
    (sublevel seeds for the concentration search, coupling orderings for the
    observable-distance search); anchor_budget caps how many alignment
    anchors the observable search tries per coupling.
    """
    seed: int = 0
    restarts: int = 8
    ball_anchors: int = 4
    anchor_budget: int = 8

    def __post_init__(self):
        for name in ("restarts", "ball_anchors", "anchor_budget"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be at least 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class GaussianFit:
    """Least-squares fit of alpha ~ c1 * exp(-c2 * n * eps^2), log domain."""
    c1: float
    c2: float
    residual: float


@dataclass
class LipschitzFunction:
    """Real function on the points of a space with a claimed Lipschitz constant."""
    values: np.ndarray
    constant: float = 1.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).reshape(-1)
        if not self.constant >= 0:
            raise ValueError("Lipschitz constant must be nonnegative")
        # an infinite constant times a zero distance is nan, where check's
        # argmax stops
        if not math.isfinite(self.constant):
            raise ValueError(f"Lipschitz constant must be finite, got {self.constant!r}")
        # a nan or inf value (inf - inf is nan) gives a nan excess, where
        # check's argmax stops, hiding every violation
        bad = np.flatnonzero(~np.isfinite(self.values))
        if bad.size:
            raise ValueError(f"Lipschitz values must be finite: value {bad[0]} "
                             f"is {float(self.values[bad[0]])!r}")

    def check(self, space):
        """Raise if the claimed constant fails on some pair."""
        if self.values.shape[0] != space.n:
            raise ValueError("value vector length does not match the space")
        d = space.dist  # refused past its cap; majority_ball_upper reads the cache
        v = self.values
        n = space.n
        worst, at = 0.0, None  # the first largest excess, in row blocks
        idx = np.arange(n)
        for r, block in space.distance_blocks(idx, idx, _CHECK_PAIR_BYTES):
            gaps = np.abs(v[r, None] - v[None, :])
            scaled = self.constant * block * (1.0 + _LIPSCHITZ_REL_TOL)
            excess = gaps - scaled - 1e-12
            k = int(np.argmax(excess))
            if excess.flat[k] > worst:
                worst, at = excess.flat[k], (r.start + k // n, k % n)
        if at is not None:
            i, j = at
            raise ValueError(
                f"Lipschitz constant {self.constant} violated at ({i},{j}): "
                f"|f({i})-f({j})|={float(abs(v[i] - v[j]))!r} > "
                f"c*d={float(self.constant * d[i, j])!r}")


@dataclass(frozen=True)
class TailCheckResult:
    tail_mass: float
    bound: float
    holds: bool
    bound_kind: str  # "exact" or "majority_ball"


@dataclass(frozen=True)
class LevyCheckResult:
    eps_grid: np.ndarray
    table: np.ndarray          # rows follow the input curve order
    is_levy_trend: bool
    threshold: float
    slack: float


# -- lower bound search ------------------------------------------------------

def _equal_prefix_size(weight):
    """Size of every half-mass prefix when all weights are equal, else None.
    Equal weights give the same running masses in any order."""
    if weight.min() != weight.max():
        return None
    return int(np.searchsorted(np.cumsum(weight), 0.5 - HALF_TOL)) + 1


def _prefix_mask(weight, scores, size=None):
    """Smallest prefix of the stable score ordering, ties in index order,
    whose mass reaches one half.  Given its size (_equal_prefix_size), the
    prefix is found without a sort: the points scored below the size-th
    smallest score, found by np.partition, then the first tied ones."""
    if size is None:
        order = np.argsort(scores, kind="stable")
        size = int(np.searchsorted(np.cumsum(weight[order]), 0.5 - HALF_TOL)) + 1
        mask = np.zeros(weight.shape[0], dtype=bool)
        mask[order[:size]] = True
        return mask
    kth = np.partition(scores, size - 1)[size - 1]
    mask = scores < kth
    mask[np.flatnonzero(scores == kth)[:size - np.count_nonzero(mask)]] = True
    return mask


def _greedy_refine(space, mask, eps):
    """Local removals and swaps on a dense-matrix space.  Accepts strict
    lexicographic improvements in (thickened mass, set size), so it stops."""
    w = space.weight
    n = space.n
    idx = np.arange(n)
    d = np.vstack([block for _, block in space.distance_blocks(idx, idx, 8)])
    need = 0.5 - HALF_TOL
    mask = mask.copy()

    def mu_eps(m):
        return float(w[(d[:, m].min(axis=1) <= eps)].sum())

    cur = mu_eps(mask)
    for _ in range(_SWAP_PASSES):
        changed = False
        # removals first: shrinking the set never hurts the objective
        for i in np.flatnonzero(mask):
            if float(w[mask].sum()) - w[i] >= need:
                mask[i] = False
                trial = mu_eps(mask)
                if trial <= cur:
                    cur = trial
                    changed = True
                else:
                    mask[i] = True
        members = np.flatnonzero(mask)
        for i in members:
            # recompute after every accepted swap: a stale outside list can
            # offer a point already back in the set, and "adding" it would
            # silently drop the mass below one half
            outside = np.flatnonzero(~mask)
            if not outside.size:
                break
            mass_wo = float(w[mask].sum()) - w[i]
            feas = mass_wo + w[outside] >= need
            if not feas.any():
                continue
            mask[i] = False
            base = d[:, mask].min(axis=1) if mask.any() else np.full(n, np.inf)
            cand = outside[feas]
            reach = np.minimum(base[:, None], d[:, cand]) <= eps
            mus = w @ reach
            j = int(np.argmin(mus))
            if mus[j] < cur:
                mask[cand[j]] = True
                cur = float(mus[j])
                changed = True
            else:
                mask[i] = True
        if not changed:
            break
    return cur


def alpha_lower_bound(space, eps, cfg=None):
    """Search lower bound for the concentration function.

    Tries metric-ball seeds around anchor points and sublevel sets of randomly
    generated 1-Lipschitz functions, then greedy local swaps on small
    instances.  Every candidate set has mass at least one half, so one minus
    the best thickened mass can never exceed the exact value.  Each
    candidate is a sublevel set of its score (a distance row, or a min of
    shifted rows), which its thickening scan prunes by.  A scan stops once its
    mass reaches the best so far, as that candidate can no longer win; the
    value is the same.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    cfg = cfg or SearchConfig()
    n = space.n
    w = space.weight
    all_idx = np.arange(n)

    if n <= _EXHAUSTIVE_BALL_LIMIT:
        anchors = list(range(n))
    else:
        rng = np.random.default_rng([cfg.seed, 0])
        anchors = sorted(rng.choice(n, size=min(cfg.ball_anchors, n), replace=False))

    def scores():
        for _, rows in space.distance_blocks(anchors, all_idx, 8):
            yield from rows
        scale = None
        for r in range(cfg.restarts):
            rng = np.random.default_rng([cfg.seed, 1 + r])
            picks = rng.choice(n, size=min(_LIPSCHITZ_ANCHORS, n), replace=False)
            rows = np.vstack([d for _, d in space.distance_blocks(picks, all_idx, 8)])
            if scale is None:
                scale = float(rows.max()) or 1.0
            offsets = rng.uniform(0.0, scale, size=rows.shape[0])
            yield (rows + offsets[:, None]).min(axis=0)

    # A scan stops once its running mass reaches best + slack, when its
    # measure, the same weights summed in another order, cannot fall below
    # best; one that would stop on its last tile comes back whole and loses
    # on that measure.  Each sum makes at most n roundings of 2^-53 on
    # nonnegative weights, so slack n 2^-52 (or HALF_TOL) covers both.
    # Equal weights w need none: below 2^26 points a float sum of k copies
    # of w is nearer k w than any other multiple, and numpy sums k equal
    # floats alike each time, so the candidate has at least best's count of
    # points and a measure of best or more.  That drops exact ties, as at an
    # eps below every distance.  A negative weight can lower a running mass:
    # no stop.  The starting 1.0 is no candidate's mass, and the whole space
    # may measure 1 - 2^-53, so it is never a stop.
    size = _equal_prefix_size(w)
    if w.min() < 0:
        slack = None
    elif size is not None:
        slack = 0.0
    else:
        slack = max(HALF_TOL, n * 2.0**-52)
    best, best_mask = 1.0, None
    for score in scores():
        mask = _prefix_mask(w, score, size)
        stop = None if slack is None or best_mask is None else best + slack
        marked = space.thickened(mask, eps, score, stop=stop)
        if marked is not None and (mu := measure(space, marked)) < best:
            best, best_mask = mu, mask

    if best_mask is not None and n <= _SWAP_CAP:
        best = min(best, _greedy_refine(space, best_mask, eps))

    return float(min(max(1.0 - best, 0.0), 0.5))


def majority_ball_upper(space, eps):
    """Cheap upper bound for the concentration function.

    If the ball around x of radius r has mass strictly above one half, every
    half-mass set meets it, so x lies in the eps-thickening whenever r <= eps.
    One minus the mass of such x bounds alpha from above.  Each point's
    smallest majority radius depends on its own row alone, so rows are
    processed in blocks of bounded scratch.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    all_idx = np.arange(space.n)
    radii = np.empty(space.n)
    for r, d in space.distance_blocks(all_idx, all_idx, _BALL_PAIR_BYTES):
        order = np.argsort(d, axis=1, kind="stable")
        cum = np.cumsum(space.weight[order], axis=1)
        first = np.argmax(cum > 0.5 + 1e-9, axis=1)
        radii[r] = np.take_along_axis(d, np.take_along_axis(
            order, first[:, None], axis=1), axis=1)[:, 0]
    return float(min(max(1.0 - space.weight[radii <= eps].sum(), 0.0), 0.5))


# -- medians and tails -------------------------------------------------------

def median(space, f):
    """Smallest attained value with both sub- and super-level mass >= 1/2."""
    vals = np.asarray(f.values, dtype=float)
    if vals.shape[0] != space.n:
        raise ValueError("value vector length does not match the space")
    order = np.argsort(vals, kind="stable")
    v = vals[order]
    cw = np.cumsum(space.weight[order])
    uniq, first = np.unique(v, return_index=True)
    last = np.searchsorted(v, uniq, side="right") - 1
    le = cw[last]
    ge = 1.0 - np.where(first > 0, cw[first - 1], 0.0)
    ok = (le >= 0.5 - HALF_TOL) & (ge >= 0.5 - HALF_TOL)
    return float(uniq[int(np.argmax(ok))])


def tail_check(space, f, eps):
    """Check the deviation-from-median tail against twice the concentration
    function.  Uses the exact alpha within the exhaustive range and the
    majority-ball upper bound beyond it (flagged in bound_kind).  The tail
    counts |f - m| > eps with the relative 1e-9 band of the Lipschitz check,
    so a deviation of exactly eps is not counted whatever its rounding.
    That check reads space.dist, so past its 8,192-point cap the space is
    refused with a ValueError."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    if f.constant > 1.0 + 1e-9:
        raise ValueError(
            f"tail bound needs a 1-Lipschitz function; constant is {f.constant}, "
            "rescale the values first")
    f.check(space)
    m = median(space, f)
    tail = float(space.weight[np.abs(f.values - m) > eps * (1.0 + _LIPSCHITZ_REL_TOL)].sum())
    if space.n <= _EXHAUSTIVE_CAP:
        bound = 2.0 * alpha_exact(space, eps)
        kind = "exact"
    else:
        bound = 2.0 * majority_ball_upper(space, eps)
        kind = "majority_ball"
    return TailCheckResult(tail_mass=tail, bound=bound,
                           holds=bool(tail <= bound + 1e-12), bound_kind=kind)


# -- decay fits --------------------------------------------------------------

def gaussian_fit(indexed_curves):
    """Fit log(alpha) = log(c1) - c2 * n * eps^2 over all positive curve values.

    indexed_curves is a list of (n, curve) pairs where n is the family index
    of each curve.  Zero alpha values are excluded.  Raises on fewer than two
    usable points or a degenerate design.
    """
    xs, ys = [], []
    for idx, curve in indexed_curves:
        keep = curve.alpha > 0
        xs.extend(float(idx) * curve.eps[keep] ** 2)
        ys.extend(np.log(curve.alpha[keep]))
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    if xs.size < 2 or np.ptp(xs) < 1e-15:
        raise ValueError("underdetermined fit: need two or more distinct design points")
    design = np.stack([np.ones_like(xs), -xs], axis=1)
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    resid = float(np.sqrt(np.mean((design @ coef - ys) ** 2)))
    return GaussianFit(c1=float(np.exp(coef[0])), c2=float(coef[1]), residual=resid)


def levy_check(curves, threshold=0.05, slack=0.02):
    """Trend check across an ordered family of curves on a shared eps grid:
    at every eps the sequence must be non-increasing up to the slack and end
    below the threshold.  Both must be finite numbers."""
    for name, value in (("threshold", threshold), ("slack", slack)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be a finite number, got {value!r}")
    if not curves:
        raise ValueError("no curves")
    grid = curves[0].eps
    for c in curves[1:]:
        if c.eps.shape != grid.shape or not np.allclose(c.eps, grid, atol=1e-12):
            raise ValueError("curves do not share an eps grid")
    table = np.stack([c.alpha for c in curves])
    below = table[-1] < threshold
    mono = (np.diff(table, axis=0) <= slack).all(axis=0)
    return LevyCheckResult(eps_grid=grid.copy(), table=table,
                           is_levy_trend=bool((below & mono).all()),
                           threshold=threshold, slack=slack)


# -- analytic sphere cap -----------------------------------------------------

def sphere_cap_alpha(dim, eps):
    """Concentration function of the round sphere S^dim with geodesic metric
    and rotation-invariant probability: the normalized mass of the polar cap
    beyond geodesic distance eps from a hemisphere.

    The mass is G_{dim-1} / 2, where G_n = int_eps^{pi/2} cos^n over
    W_n = int_0^{pi/2} cos^n.  Integrating by parts gives the Wallis
    reduction G_n = G_{n-2} - cos^{n-1}(eps) sin(eps) / (n W_n) with
    W_n = (n - 1) / n W_{n-2}, from G_0 = 1 - 2 eps / pi (W_0 = pi / 2) or
    G_1 = 1 - sin(eps) (W_1 = 1): dim / 2 steps, exact to rounding in
    absolute terms.
    """
    if dim < 1:
        raise ValueError("dim must be at least 1")
    if not eps > 0:
        raise ValueError("eps must be positive")
    if eps >= math.pi / 2:
        return 0.0
    sin, cos = math.sin(eps), math.cos(eps)
    odd = (dim - 1) % 2
    g, w = (1.0 - sin, 1.0) if odd else (1.0 - 2.0 * eps / math.pi, math.pi / 2)
    power = cos ** (odd + 1)  # cos^{n-1} at the first step n = odd + 2
    for n in range(odd + 2, dim, 2):
        w *= (n - 1) / n
        g -= power * sin / (n * w)
        power *= cos * cos
    return 0.5 * max(g, 0.0)


def sphere_cap_curve(dim, eps_grid):
    return ConcentrationCurve(eps_grid, [sphere_cap_alpha(dim, e) for e in eps_grid],
                              kind="analytic_cap")


# -- exact hamming cube curves -----------------------------------------------

def hamming_cube_alpha(n, eps):
    """Exact concentration function of the normalized hamming cube.

    By Harper's vertex-isoperimetric theorem a half-mass set with the
    smallest eps-thickening is the hamming ball of radius (n-1)//2, plus for
    even n the half of the middle layer with the first coordinate set.  Its
    thickening is the same shape grown by floor(n*eps) hops, so the value is
    a binomial sum in exact integers.
    """
    if not 1 <= n <= _CUBE_ALPHA_MAX_DIM:
        raise ValueError(f"cube dimension {n} outside [1, {_CUBE_ALPHA_MAX_DIM}]")
    if not eps > 0:
        raise ValueError("eps must be positive")
    r = min((n - 1) // 2 + math.floor(n * eps + 1e-9), n)
    size = sum(math.comb(n, k) for k in range(r + 1))
    if n % 2 == 0:
        size += math.comb(n - 1, r)
    return float(1.0 - size / (1 << n))


def hamming_cube_curve(n, eps_grid):
    return ConcentrationCurve(eps_grid, [hamming_cube_alpha(n, e) for e in eps_grid],
                              kind="exact")


# -- curve assembly ----------------------------------------------------------

def concentration_curve(space, eps_grid, mode="exact", cfg=None,
                        exhaustive_cap=_EXHAUSTIVE_CAP):
    """Sample the concentration function over a grid.

    mode "exact" enumerates subsets; mode "lower" runs the search bound and
    repairs monotonicity with a right-to-left running max, which keeps every
    value a valid lower bound.
    """
    eps_grid = np.asarray(eps_grid, dtype=float)
    if mode == "exact":
        vals = [alpha_exact(space, e, exhaustive_cap=exhaustive_cap) for e in eps_grid]
        return ConcentrationCurve(eps_grid, vals, kind="exact")
    if mode == "lower":
        vals = np.array([alpha_lower_bound(space, e, cfg=cfg) for e in eps_grid])
        vals = np.maximum.accumulate(vals[::-1])[::-1]
        return ConcentrationCurve(eps_grid, vals, kind="lower_bound_search")
    raise ValueError(f"unknown mode {mode!r}")
