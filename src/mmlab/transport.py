"""Transportation (earth mover's) distance between probability measures on a
shared finite metric space: an exact min-cost flow on the measures' supports,
grown arc by arc until its dual certificate holds on every pair, with a
witness coupling, and the translate distance of a measure under a point
permutation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spaces import _row_blocks

_MARGINAL_TOL = 1e-9
_REL_TOL = 1e-9         # slack, relative to d_max, of the metric, pricing and certificate checks
# HiGHS' primal and dual feasibility, absolute on masses and on costs scaled
# to d_max = 1.  At its default 1e-7 the duals can break the certificate's
# 1e-9 on valid inputs, and the flow can overdraw a point by 2e-8 and come
# out 2e-9 cheaper than the transport cost
_FEAS_TOL = 1e-10
_PAIR_BYTES = 16        # scratch one pair of a row-block pass takes
_SEED_NEAREST = 9       # nearest targets of each source, itself included, in the first arcs
_SUPPORT_TOL = 1e-15    # mass the north-west corner leaves at or below this is spent


@dataclass
class MeasurePair:
    """Two probability vectors over the same space's points."""
    mu1: np.ndarray
    mu2: np.ndarray

    def __post_init__(self):
        self.mu1 = np.asarray(self.mu1, dtype=float).reshape(-1)
        self.mu2 = np.asarray(self.mu2, dtype=float).reshape(-1)
        if self.mu1.shape != self.mu2.shape:
            raise ValueError("measures have different lengths")
        for name, mu in (("mu1", self.mu1), ("mu2", self.mu2)):
            if (mu < -_MARGINAL_TOL).any():
                raise ValueError(f"{name} has negative mass")
            if abs(mu.sum() - 1.0) > _MARGINAL_TOL:
                raise ValueError(f"{name} sums to {mu.sum()!r}, expected 1")


@dataclass
class Coupling:
    """Joint probability matrix whose marginals are the transported measures."""
    joint: np.ndarray

    def __post_init__(self):
        self.joint = np.asarray(self.joint, dtype=float)
        if self.joint.ndim != 2:
            raise ValueError("coupling must be a matrix")
        if (self.joint < -_MARGINAL_TOL).any():
            raise ValueError("coupling has negative entries")

    @property
    def row_marginal(self):
        return self.joint.sum(axis=1)

    @property
    def col_marginal(self):
        return self.joint.sum(axis=0)

    def check(self, pair, atol=_MARGINAL_TOL):
        """Raise unless the marginals match the pair within atol."""
        if not np.allclose(self.row_marginal, pair.mu1, rtol=0, atol=atol):
            raise ValueError("row marginal does not match mu1")
        if not np.allclose(self.col_marginal, pair.mu2, rtol=0, atol=atol):
            raise ValueError("column marginal does not match mu2")


@dataclass(frozen=True)
class EmdResult:
    distance: float
    witness: Coupling
    potential: np.ndarray  # the dual certificate: 1-Lipschitz, pairs to distance


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


def _seed(d, src, dst, mu1, mu2, names):
    """The flow's first arcs, as sorted keys tail * m + head over the m points
    of d, and d_max over the pairs from the sources src to the targets dst.
    The arcs are the cells of the north-west-corner plan of mu1 against mu2,
    which carry a feasible flow, and the pairs from each source to its
    _SEED_NEAREST nearest targets (all of them when there are no more), less
    the pairs of a point with itself.  The scan raises ValueError unless the
    distances from src to dst are finite and zero where a point meets
    itself, within _REL_TOL * d_max, naming the entry by names, the points'
    indices in the space."""
    m = d.shape[0]
    tail, head, _ = _nw_corner(mu1, mu2, src, dst)
    keys, d_max = [tail * m + head], 0.0
    near = min(_SEED_NEAREST, dst.shape[0])
    for r in _row_blocks(src.shape[0], dst.shape[0], _PAIR_BYTES):
        block = d[np.ix_(src[r], dst)]
        if not np.isfinite(block).all():
            i, j = np.argwhere(~np.isfinite(block))[0]
            raise ValueError(
                f"not a metric: non-finite distance at ({names[src[r][i]]},{names[dst[j]]})")
        d_max = max(d_max, float(block.max()))
        nearest = np.argpartition(block, near - 1, axis=1)[:, :near]
        keys.append((src[r, None] * m + dst[nearest]).ravel())
    both = np.intersect1d(src, dst, assume_unique=True)
    diag = np.abs(d[both, both])
    if diag.size and diag.max() > _REL_TOL * d_max:
        k = both[int(np.argmax(diag))]
        raise ValueError(f"not a metric: d[{names[k]},{names[k]}]={float(d[k, k])!r} is not zero")
    keys = np.unique(np.concatenate(keys))
    return keys[keys // m != keys % m], d_max


def _solve(d, tail, head, excess, scale):
    """Min-cost flow of the balance excess along the arcs tail -> head at
    costs d[tail, head]: the amount on each arc, the flow's value and the
    row duals.  The LP runs on costs divided by scale (d_max), with HiGHS'
    feasibility tolerances at _FEAS_TOL, and its value and duals are scaled
    back."""
    import scipy.sparse as sp
    from scipy.optimize import linprog

    arcs = tail.shape[0]
    # column a leaves tail[a] (+1) and enters head[a] (-1)
    balance = sp.csc_array((np.tile([1.0, -1.0], arcs),
                            np.stack([tail, head], axis=1).ravel(),
                            np.arange(0, 2 * arcs + 1, 2)),
                           shape=(excess.shape[0], arcs))
    res = linprog(d[tail, head] / scale, A_eq=balance, b_eq=excess, bounds=(0, None),
                  method="highs-ds",
                  options={"dual_feasibility_tolerance": _FEAS_TOL,
                           "primal_feasibility_tolerance": _FEAS_TOL})
    if not res.success:
        raise RuntimeError(f"transportation solve failed: {res.message}")
    return (np.clip(res.x, 0.0, None), float(res.fun) * scale,
            np.asarray(res.eqlin.marginals, dtype=float) * scale)


def _price(d, rows, cols, potential):
    """Pricing scan of the potential u over rows x cols (positions in d):
    for each i in rows, the position in cols of the j with the largest
    stretch u_i - u_j - d_ij and that stretch.  Rows are scanned in blocks
    of bounded scratch (spaces._row_blocks)."""
    worst = np.empty(rows.shape[0], dtype=np.intp)
    stretch = np.empty(rows.shape[0])
    for r in _row_blocks(rows.shape[0], cols.shape[0], _PAIR_BYTES):
        over = potential[rows[r], None] - potential[None, cols]
        over -= d[np.ix_(rows[r], cols)]
        worst[r] = over.argmax(axis=1)
        stretch[r] = np.take_along_axis(over, worst[r, None], axis=1)[:, 0]
    return worst, stretch


def _refuse_broken_relays(d, rows, mids, cols, names, tol):
    """Raise ValueError naming the first pair (i, j) of rows x cols, in
    row-major order, with d_ij > d_ik + d_kj + tol for a k in mids, and the
    k with the shortest legs, if there is such a triple."""
    for r in _row_blocks(rows.shape[0], cols.shape[0], 2 * _PAIR_BYTES):
        shortest = np.full((rows[r].shape[0], cols.shape[0]), np.inf)
        for k in mids:
            np.minimum(shortest, d[rows[r], k][:, None] + d[k, cols], out=shortest)
        bad = np.flatnonzero(d[np.ix_(rows[r], cols)] - shortest > tol)
        if bad.size:
            i, j = divmod(int(bad[0]), cols.shape[0])
            i, j = rows[r][i], cols[j]
            legs = d[i, mids] + d[mids, j]
            k = mids[int(np.argmin(legs))]
            raise ValueError(
                f"not a metric: d[{names[i]},{names[j]}]={float(d[i, j])!r} exceeds "
                f"d[{names[i]},{names[k]}] + d[{names[k]},{names[j]}]={float(legs.min())!r}")


def _decompose(tail, head, amount, mu1, mu2):
    """Coupling carried by an acyclic flow of amount[a] along each arc
    tail[a] -> head[a]: the mass through a point splits among its out-arcs
    and its own demand in proportion to their amounts.  Returns the rows of
    the coupling that belong to the sources, the points with mu1 > 0.

    carried[j, s], the mass from source s through point j, solves
    (I - P^T) carried = diag(mu1) with P[i, j] = flow(i, j) / through[i].
    The system is triangular in a topological order of the flow, so it is
    solved by substitution along the arcs, with no dense factorization.
    """
    n = mu1.shape[0]
    sources = np.flatnonzero(mu1 > 0)
    used = amount > 0
    tail, head, amount = tail[used], head[used], amount[used]
    through = mu2 + np.bincount(tail, weights=amount, minlength=n)
    share = (amount / through[tail]).tolist()
    out = [[] for _ in range(n)]
    for a, i in enumerate(tail.tolist()):
        out[i].append(a)
    head = head.tolist()
    pending = np.bincount(head, minlength=n).tolist()
    ready = [j for j in range(n) if not pending[j]]
    carried = np.zeros((n, sources.shape[0]))
    carried[sources, np.arange(sources.shape[0])] = mu1[sources]
    settled = 0
    while ready:
        i = ready.pop()
        settled += 1
        for a in out[i]:
            j = head[a]
            carried[j] += carried[i] * share[a]
            pending[j] -= 1
            if not pending[j]:
                ready.append(j)
    if settled < n:
        raise RuntimeError("transport flow has a cycle; it is not a basic solution")
    absorbed = np.divide(mu2, through, out=np.zeros(n), where=through > 0)
    joint = carried.T * absorbed[None, :]
    return np.clip(joint, 0.0, None, out=joint)


def emd(space, pair):
    """Exact transportation distance min over couplings of sum nu * d.

    Solved on the points with mass in either measure, as a min-cost flow
    with one balance row mu1 - mu2 per point and one arc per pair of an arc
    set grown by delayed column generation.  The set starts from _seed;
    each round solves the flow on it, prices every pair from the first
    support to the second against the flow's row duals u (see _price), and
    adds each source's most stretched pair, one with u_i - u_j > d_ij +
    _REL_TOL * d_max, until no pair is stretched.  The last round's scan is
    the certificate: the last duals must be 1-Lipschitz on every pair a
    coupling can charge and pair with mu1 - mu2 to the flow's value, both
    within _REL_TOL * d_max, or emd raises RuntimeError.  By Kantorovich
    duality they then prove that no coupling costs less.  They are extended to the zero-mass points by the McShane formula
    min_y u_y + d(x, y).

    The witness coupling is the proportional decomposition of the basic
    (forest) flow.  By weak duality its cost is at least the transport cost,
    which is at least the dual value, the flow's value; a witness within
    _REL_TOL * d_max of that value proves it on any cost matrix.  A larger
    gap means the flow relayed mass through a point of both supports along
    a broken triangle, and the space is refused with ValueError naming one.
    Only the distances from the first support to the second are read, and
    they must be finite and zero where a point meets itself.
    """
    n = space.n
    if pair.mu1.shape[0] != n:
        raise ValueError("measure length does not match the space")
    support = np.flatnonzero((pair.mu1 > 0) | (pair.mu2 > 0))
    dist = space.dist
    d = dist if support.shape[0] == n else dist[np.ix_(support, support)]
    # each measure is rescaled to mass 1, so that the balance rows agree to
    # rounding: they must hold to _FEAS_TOL, and the measures' sums to 1e-9
    mu1, mu2 = (mu[support] / mu[support].sum() for mu in (pair.mu1, pair.mu2))
    src, dst = np.flatnonzero(mu1 > 0), np.flatnonzero(mu2 > 0)
    keys, d_max = _seed(d, src, dst, mu1, mu2, support)
    tol, m = _REL_TOL * d_max, support.shape[0]
    potential = np.zeros(n)
    joint = np.zeros((n, n))
    if keys.size:
        excess = mu1 - mu2
        while True:
            tail, head = np.divmod(keys, m)
            amount, distance, u = _solve(d, tail, head, excess, d_max or 1.0)
            worst, stretch = _price(d, src, dst, u)
            grow = stretch > tol
            new = src[grow] * m + dst[worst[grow]]
            # a stretched pair the flow already has fails the certificate below
            if not new.size or np.isin(new, keys).any():
                break
            keys = np.union1d(keys, new)
        stretch, gap = float(stretch.max()), abs(float(u @ excess) - distance)
        if stretch > tol or gap > tol:
            raise RuntimeError(
                f"transport certificate failed: potential exceeds the metric by "
                f"{stretch!r} and misses the cost by {gap!r} (tolerance {tol!r})")
        block = _decompose(tail, head, amount, mu1, mu2)
        spent = sum(float(np.vdot(block[r], d[src[r]]))
                    for r in _row_blocks(src.shape[0], m, _PAIR_BYTES))
        if spent - distance > tol:
            used = amount > 0
            _refuse_broken_relays(d, src, np.intersect1d(tail[used], head[used]), dst,
                                  support, tol)
            raise RuntimeError(
                f"transport certificate failed: the witness costs {spent - distance!r} "
                f"more than the flow (tolerance {tol!r})")
        joint[np.ix_(support[src], support)] = block
    else:  # both measures are the same point mass: nothing moves
        distance, u = 0.0, np.zeros(1)
        joint[support, support] = 1.0
    outside = np.flatnonzero((pair.mu1 <= 0) & (pair.mu2 <= 0))
    for r in _row_blocks(outside.shape[0], support.shape[0], _PAIR_BYTES):
        potential[outside[r]] = (u[None, :] + dist[np.ix_(outside[r], support)]).min(axis=1)
    potential[support] = u
    witness = Coupling(joint)
    witness.check(pair)
    return EmdResult(distance=distance, witness=witness, potential=potential)


def translate_distance(space, mu, perm):
    """Transportation distance between a measure and its pushforward under a
    point permutation (point i moves to perm[i])."""
    perm = np.asarray(perm, dtype=np.intp)
    if perm.shape != (space.n,) or not np.array_equal(np.sort(perm), np.arange(space.n)):
        raise ValueError("action must be a bijection on points")
    mu = np.asarray(mu, dtype=float)
    push = np.zeros_like(mu)
    push[perm] = mu
    return emd(space, MeasurePair(mu, push)).distance
