"""Shared test instances and oracles: random finite metric-measure spaces,
1-Lipschitz data, and random measures, both as hypothesis strategies and as
plain seeded constructors for the bulk randomized sweeps; thickenings and
distances to sets by dense matrix reads; step functions from cell masses and
constants; the Hausdorff me1 distance between finite families, pair by
pair, and between lifted families by a scan of every member pair; the
concentration lower-bound search with every candidate scanned in full; the
exact concentration value from full per-subset reach and mass tables; two
transport oracles independent of the flow solver: the full
transportation LP and a grid-quantized assignment; and counters of the
pairs the flow's simplex prices, of the pairs thickenings scan and of the
me1 rows the observable search evaluates."""

import math
from dataclasses import dataclass

import numpy as np
from hypothesis import strategies as st

from mmlab import concentration, observable, transport
from mmlab.observable import StepFunction, me1
from mmlab.spaces import HALF_TOL, FiniteMMSpace, _tiles, measure


def normalized(raw):
    w = np.asarray(raw, dtype=float)
    return w / w.sum()


def cloud_metric(points):
    p = np.asarray(points, dtype=float)
    return np.linalg.norm(p[:, None] - p[None], axis=-1)


def perturbed_metric(offdiag, n):
    """d = 1 + r with r in [0, 0.9]: triangle inequality holds for free
    because every two-leg path is at least 2 > max distance 1.9."""
    d = np.zeros((n, n))
    iu = np.triu_indices(n, 1)
    d[iu] = 1.0 + np.asarray(offdiag, dtype=float)
    return d + d.T


def mcshane_envelope(raw, d):
    """Largest 1-Lipschitz function below the raw values: exactly 1-Lipschitz."""
    v = np.asarray(raw, dtype=float)
    return (v[None, :] + d).min(axis=1)


@st.composite
def spaces(draw, min_n=2, max_n=8):
    n = draw(st.integers(min_n, max_n))
    if draw(st.booleans()):
        pts = draw(st.sets(st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
                           min_size=n, max_size=n))
        d = cloud_metric(sorted(pts))
    else:
        k = n * (n - 1) // 2
        vals = draw(st.lists(st.integers(0, 9), min_size=k, max_size=k))
        d = perturbed_metric(np.asarray(vals, dtype=float) / 10.0, n)
    raw = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    return FiniteMMSpace(list(range(n)), normalized(raw), dist=d)


@st.composite
def spaces_with_lipschitz(draw, min_n=2, max_n=8):
    space = draw(spaces(min_n=min_n, max_n=max_n))
    raw = draw(st.lists(st.integers(-20, 20), min_size=space.n, max_size=space.n))
    f = mcshane_envelope(np.asarray(raw, dtype=float) / 7.0, space.dist)
    return space, f


@st.composite
def measures_on(draw, n):
    raw = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n)
               .filter(lambda v: sum(v) > 0))
    return normalized(raw)


def random_space(rng, n):
    """Seeded random space mirroring the strategy mix above."""
    if rng.integers(2):
        pts = rng.integers(-50, 51, size=(n, 2))
        pts += np.arange(n)[:, None] * 200  # force distinct points
        d = cloud_metric(pts)
    else:
        d = perturbed_metric(rng.integers(0, 10, size=n * (n - 1) // 2) / 10.0, n)
    w = normalized(rng.integers(1, 10, size=n))
    return FiniteMMSpace(list(range(n)), w, dist=d)


def random_lipschitz(rng, space):
    raw = rng.uniform(-3.0, 3.0, size=space.n)
    return mcshane_envelope(raw, space.dist)


def random_measure(rng, n):
    return normalized(rng.integers(1, 10, size=n))


# -- oracles -------------------------------------------------------------------

def dense_dist_to_set(dist, mask):
    """Min distance from every point to the masked set, by one dense read of
    the matrix's member columns."""
    return dist[:, np.flatnonzero(mask)].min(axis=1)


def dense_thickening(dist, mask, eps):
    """Closed eps-thickening of the masked set by the dense rule
    min over members of d(x, y) <= eps."""
    return dense_dist_to_set(dist, mask) <= eps


def step_from_cells(masses, values):
    """Step function from cell masses (zero-mass cells dropped)."""
    masses = np.asarray(masses, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = masses > 1e-15
    masses, values = masses[keep], values[keep]
    total = masses.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"cell masses sum to {total!r}, expected 1")
    breaks = np.concatenate([[0.0], np.cumsum(masses)])
    breaks[-1] = 1.0
    return StepFunction(breaks, values)


def step_constant(c):
    """The constant function c as a one-cell step function."""
    return StepFunction([0.0, 1.0], [float(c)])


@dataclass
class LipschitzSet:
    """Finite family of step functions standing in for an L_f set."""
    members: list

    def __post_init__(self):
        if not self.members:
            raise ValueError("empty set has no Hausdorff distance")


def hausdorff_me1(A, B):
    """max of the two sup-min me1 deviations between finite families."""
    a_members = A.members if isinstance(A, LipschitzSet) else list(A)
    b_members = B.members if isinstance(B, LipschitzSet) else list(B)
    if not a_members or not b_members:
        raise ValueError("empty set has no Hausdorff distance")
    d = np.array([[me1(a, b) for b in b_members] for a in a_members])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def full_scan_family_hausdorff(masses, A, B, fit_a, fit_b, best=math.inf):
    """observable._family_hausdorff without its pruning: every (a, b) pair's
    two me1 values, evaluated once in tiles of member pairs and read by both
    sides, row minima for A and column minima for B.  best is ignored, so no
    anchor is abandoned.  me1 rows go through observable._me1_rows, so
    count_me1_rows counts them too."""
    near_a = fit_a.copy()
    near_b = fit_b.copy()
    k = masses.shape[0]
    for r, c in _tiles(A.shape[0], B.shape[0], observable._HAUSDORFF_CELL_BYTES * k):
        a, b = A[r, None, :], B[None, c, :]
        vals = np.minimum(observable._me1_rows(masses, (a - b).reshape(-1, k)),
                          observable._me1_rows(masses, (a + b).reshape(-1, k)))
        vals = vals.reshape(a.shape[0], b.shape[1])
        np.minimum(near_a[r], vals.min(axis=1), out=near_a[r])
        np.minimum(near_b[c], vals.min(axis=0), out=near_b[c])
    return float(max(near_a.max(), near_b.max()))


def full_order_prefix_mask(weight, scores):
    """concentration._prefix_mask by one stable sort of every score."""
    order = np.argsort(scores, kind="stable")
    cum = np.cumsum(weight[order])
    k = int(np.searchsorted(cum, 0.5 - HALF_TOL)) + 1
    mask = np.zeros(weight.shape[0], dtype=bool)
    mask[order[:k]] = True
    return mask


def full_scan_alpha_lower_bound(space, eps, cfg=None):
    """concentration.alpha_lower_bound with every candidate's thickening
    scanned to the end and its prefix found by full_order_prefix_mask: the
    same candidates, from the same random draws, and the same greedy swaps.
    It assumes finite distances."""
    cfg = cfg or concentration.SearchConfig()
    n = space.n
    w = space.weight
    all_idx = np.arange(n)
    if n <= concentration._EXHAUSTIVE_BALL_LIMIT:
        anchors = list(range(n))
    else:
        rng = np.random.default_rng([cfg.seed, 0])
        anchors = sorted(rng.choice(n, size=min(cfg.ball_anchors, n), replace=False))
    candidates = [space.pairwise(np.array([a]), all_idx)[0] for a in anchors]
    scale = None
    for r in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, 1 + r])
        picks = rng.choice(n, size=min(concentration._LIPSCHITZ_ANCHORS, n), replace=False)
        rows = space.pairwise(np.asarray(picks), all_idx)
        if scale is None:
            scale = float(rows.max()) or 1.0
        offsets = rng.uniform(0.0, scale, size=picks.shape[0])
        candidates.append((rows + offsets[:, None]).min(axis=0))
    best, best_mask = 1.0, None
    for score in candidates:
        mask = full_order_prefix_mask(w, score)
        mu = measure(space, space.thickened(mask, eps, score))
        if mu < best:
            best, best_mask = mu, mask
    if best_mask is not None and n <= concentration._SWAP_CAP:
        best = min(best, concentration._greedy_refine(space, best_mask, eps))
    return float(min(max(1.0 - best, 0.0), 0.5))


def full_table_alpha_exact(space, eps):
    """spaces.alpha_exact from a 2^n reach table and a 2^n mass table, each
    built by one doubling loop over all n points."""
    n = space.n
    w = space.weight
    bits = np.uint64(1) << np.arange(n, dtype=np.uint64)
    nb = ((space.dist <= eps) * bits[None, :]).sum(axis=1, dtype=np.uint64)
    reach = np.empty(1 << n, dtype=np.uint64)
    wsum = np.empty(1 << n, dtype=float)
    reach[0] = wsum[0] = 0
    for b in range(n):
        lo = 1 << b
        np.bitwise_or(reach[:lo], nb[b], out=reach[lo:2 * lo])
        np.add(wsum[:lo], w[b], out=wsum[lo:2 * lo])
    feasible = wsum >= 0.5 - HALF_TOL
    feasible[0] = False
    best = wsum[reach[feasible]].min()
    return float(min(max(1.0 - best, 0.0), 0.5))


def _apportion(mu, grid):
    """Largest-remainder rounding of a probability vector to grid units."""
    target = mu * grid
    base = np.floor(target).astype(int)
    short = grid - int(base.sum())
    if short > 0:
        rem = target - base
        base[np.argsort(-rem, kind="stable")[:short]] += 1
    return base


def count_priced_pairs(monkeypatch):
    """A one-entry list counting the pairs that emd's simplex and its
    certificate price."""
    pairs, stretch = [0], transport._stretch

    def counted(d, rows, cols, potential):
        pairs[0] += rows.shape[0] * cols.shape[0]
        return stretch(d, rows, cols, potential)

    monkeypatch.setattr(transport, "_stretch", counted)
    return pairs


def flow_pairs(pair):
    """|pos| * |neg|: the pairs from the points where mu1 exceeds mu2 to
    those where it falls short, which emd's simplex prices."""
    return int((pair.mu1 > pair.mu2).sum()) * int((pair.mu1 < pair.mu2).sum())


def count_pairs(monkeypatch):
    """A one-entry list counting the (row, member) pairs thickenings scan."""
    pairs, within_block = [0], FiniteMMSpace._within_block

    def counted(self, rows, cols, eps):
        pairs[0] += rows.shape[0] * cols.shape[0]
        return within_block(self, rows, cols, eps)

    monkeypatch.setattr(FiniteMMSpace, "_within_block", counted)
    return pairs


def count_me1_rows(monkeypatch):
    """A one-entry list counting the me1 rows the observable search evaluates."""
    rows, me1_rows = [0], observable._me1_rows

    def counted(masses, gaps):
        rows[0] += gaps.shape[0]
        return me1_rows(masses, gaps)

    monkeypatch.setattr(observable, "_me1_rows", counted)
    return rows


def emd_full_lp(space, pair):
    """Transportation distance as the full transportation LP: one variable
    per (source, target) pair of positive mass, one row per marginal."""
    import scipy.sparse as sp
    from scipy.optimize import linprog

    rows = np.flatnonzero(pair.mu1 > 0)
    cols = np.flatnonzero(pair.mu2 > 0)
    m, k = rows.shape[0], cols.shape[0]
    cost = space.dist[np.ix_(rows, cols)]
    a_rows = sp.kron(sp.eye(m), np.ones((1, k)), format="csr")
    a_cols = sp.kron(np.ones((1, m)), sp.eye(k), format="csr")
    a_eq = sp.vstack([a_rows, a_cols], format="csr")
    b_eq = np.concatenate([pair.mu1[rows], pair.mu2[cols]])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                  method="highs-ds")
    if not res.success:
        raise RuntimeError(f"transportation solve failed: {res.message}")
    return float(res.fun)


def emd_oracle(space, pair, grid):
    """Transportation distance over couplings quantized to resolution 1/grid.

    Both marginals are apportioned to grid unit masses; any grid coupling of
    the rounded marginals splits into unit assignments, so the minimum over
    the whole quantized polytope equals a minimum-cost assignment on the
    expanded units.  Converges to emd as grid grows.
    """
    from scipy.optimize import linear_sum_assignment

    if space.n > 6:
        raise ValueError("oracle limited to spaces with at most 6 points")
    if grid < 1:
        raise ValueError("grid must be positive")
    units1 = _apportion(pair.mu1, grid)
    units2 = _apportion(pair.mu2, grid)
    rows = np.repeat(np.arange(space.n), units1)
    cols = np.repeat(np.arange(space.n), units2)
    cost = space.dist[np.ix_(rows, cols)]
    r, c = linear_sum_assignment(cost)
    return float(cost[r, c].sum() / grid)
