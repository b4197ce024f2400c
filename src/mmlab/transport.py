"""Transportation (earth mover's) distance between probability measures on a
shared finite metric space: an exact min-cost flow on the measures' supports,
with a dual certificate and a witness coupling, and the translate distance
of a measure under a point permutation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spaces import _TILE_BYTES

_MARGINAL_TOL = 1e-9
_REL_TOL = 1e-9         # slack, relative to d_max, of the metric and certificate checks
_SPLIT_REL_TOL = 1e-12  # two legs this close to d_ij split the pair
# HiGHS' dual feasibility, absolute on costs scaled to d_max = 1; its default
# 1e-7 lets the duals break the certificate's 1e-9 on valid inputs
_DUAL_FEAS_TOL = 1e-10
_TRIPLE_BYTES = 20      # scratch one (i, k, j) triple of the pair scan takes
_PAIR_BYTES = 16        # scratch one pair of the certificate and McShane passes takes


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
        if not np.allclose(self.row_marginal, pair.mu1, atol=atol):
            raise ValueError("row marginal does not match mu1")
        if not np.allclose(self.col_marginal, pair.mu2, atol=atol):
            raise ValueError("column marginal does not match mu2")


@dataclass(frozen=True)
class EmdResult:
    distance: float
    witness: Coupling
    potential: np.ndarray  # the dual certificate: 1-Lipschitz, pairs to distance


def _check_distances(d, rows, cols):
    """Raise ValueError unless the distances d from the points rows to the
    points cols (indices in the space, sorted) are finite and zero where a
    point meets itself, within _REL_TOL * d_max; return that tolerance."""
    if not np.isfinite(d).all():
        i, j = np.argwhere(~np.isfinite(d))[0]
        raise ValueError(f"not a metric: non-finite distance at ({rows[i]},{cols[j]})")
    tol = _REL_TOL * float(d.max())
    _, i, j = np.intersect1d(rows, cols, assume_unique=True, return_indices=True)
    diag = np.abs(d[i, j])
    if diag.size and diag.max() > tol:
        k = int(np.argmax(diag))
        raise ValueError(
            f"not a metric: d[{rows[i[k]]},{rows[i[k]]}]={float(d[i[k], j[k]])!r} is not zero")
    return tol


def _scan_triples(via, onward, direct, names, tol):
    """Check d_ij <= d_ik + d_kj within tol over the triples (i, k, j) of
    rows x mids x cols, where via = d[rows, mids],
    onward = d[mids, cols] and direct = d[rows, cols], and return the mask
    of the (i, j) that no k splits into two strictly shorter legs with
    d_ik + d_kj <= d_ij (1 + _SPLIT_REL_TOL).

    names = (rows, mids, cols) are the points' indices in the space, used
    to name a failing triple in the ValueError.  Rows and mids are scanned
    in blocks of at most _TILE_BYTES of scratch.
    """
    r, m, c = via.shape[0], via.shape[1], direct.shape[1]
    triples = max(c, _TILE_BYTES // _TRIPLE_BYTES)
    step_r = max(1, min(r, triples // max(m * c, 1)))
    step_m = max(1, min(m, triples // max(step_r * c, 1)))
    keep = np.ones((r, c), dtype=bool)
    for r0 in range(0, r, step_r):
        target = direct[r0:r0 + step_r]
        shortest = np.full(target.shape, np.inf)
        for m0 in range(0, m, step_m):
            first = via[r0:r0 + step_r, m0:m0 + step_m, None]   # d_ik, [i, k, j]
            second = onward[None, m0:m0 + step_m, :]           # d_kj
            legs = first + second
            np.minimum(shortest, legs.min(axis=1), out=shortest)
            split = (first < target[:, None]) & (second < target[:, None])
            split &= legs <= target[:, None] * (1.0 + _SPLIT_REL_TOL)
            keep[r0:r0 + step_r] &= ~split.any(axis=1)
        bad = np.flatnonzero(target - shortest > tol)
        if bad.size:
            i, j = divmod(int(bad[0]), c)
            i += r0
            k = int(np.argmin(via[i] + onward[:, j]))
            rows, mids, cols = names
            raise ValueError(
                f"not a metric: d[{rows[i]},{cols[j]}]={float(direct[i, j])!r} "
                f"exceeds d[{rows[i]},{mids[k]}] + d[{mids[k]},{cols[j]}]="
                f"{float(via[i, k] + onward[k, j])!r}")
    return keep


def _arcs(d, s, t, names):
    """Arcs (tail, head) of a min-cost flow whose value, on a metric, is the
    transport cost between measures supported on the points s and t, sorted
    positions among the points of d, which they cover together.

    The arcs are the pairs (i, j) of s x t, i != j, that no point k of both
    supports splits into two strictly shorter legs with
    d_ik + d_kj <= d_ij (1 + _SPLIT_REL_TOL).  Only such a k can relay mass
    (it needs an arc in, head in t, and one out, tail in s), and both legs
    of a split pair lie in s x t again.  Only the distances s x t are read;
    this raises ValueError, naming the entry or the triple (by names, the
    points' indices in the space), unless they are finite, zero where a
    point meets itself, and meet the triangle inequality on the triples
    s x (s & t) x t, each within _REL_TOL * d_max.
    """
    _, bs, bt = np.intersect1d(s, t, assume_unique=True, return_indices=True)
    block = d[np.ix_(s, t)]
    tol = _check_distances(block, names[s], names[t])
    keep = _scan_triples(block[:, bt], block[bs], block,
                         (names[s], names[s[bs]], names[t]), tol)
    keep &= s[:, None] != t[None, :]
    i, j = np.nonzero(keep)
    return s[i], t[j]


def _row_blocks(rows, cols, pair_bytes):
    """Slices of at least one row covering range(rows), each holding at most
    _TILE_BYTES of scratch at pair_bytes a (row, column) pair."""
    step = max(1, _TILE_BYTES // (pair_bytes * max(cols, 1)))
    return [slice(r0, r0 + step) for r0 in range(0, rows, step)]


def _certify(d, rows, cols, potential, excess, cost):
    """Raise RuntimeError unless the potential u has u_i - u_j <= d_ij for
    every i in rows and j in cols, the supports of mu1 and mu2 and so the
    only pairs a coupling can charge, and pairs with mu1 - mu2 to the cost,
    both within _REL_TOL * d_max over those pairs.  By Kantorovich duality
    such a potential proves that no coupling costs less than cost."""
    stretch = d_max = -np.inf
    for r in _row_blocks(rows.shape[0], cols.shape[0], _PAIR_BYTES):
        block = d[np.ix_(rows[r], cols)]
        d_max = max(d_max, float(block.max()))
        stretch = max(stretch, float(
            (potential[rows[r], None] - potential[None, cols] - block).max()))
    tol = _REL_TOL * d_max
    gap = abs(float(potential @ excess) - cost)
    if stretch > tol or gap > tol:
        raise RuntimeError(
            f"transport certificate failed: potential exceeds the metric by "
            f"{stretch!r} and misses the cost by {gap!r} (tolerance {tol!r})")


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
    with one balance row mu1 - mu2 per point and one arc per pair from
    _arcs: the pairs from the first support to the second that no point of
    both splits into two strictly shorter legs.  On a metric the flow's
    value is the transport cost; a space that is not a metric where the
    flow could use it is refused with ValueError.  The LP is solved on arc
    costs divided by their largest, with HiGHS' dual feasibility at
    _DUAL_FEAS_TOL, and its value and duals are scaled back.  The row duals
    are a potential that must be 1-Lipschitz from the first support to the
    second and pair to the cost (see _certify), or emd raises RuntimeError;
    it is extended to the zero-mass points by the McShane formula
    min_y u_y + d(x, y).  The witness coupling is the proportional
    decomposition of the basic (forest) flow.
    """
    import scipy.sparse as sp
    from scipy.optimize import linprog

    n = space.n
    if pair.mu1.shape[0] != n:
        raise ValueError("measure length does not match the space")
    support = np.flatnonzero((pair.mu1 > 0) | (pair.mu2 > 0))
    dist = space.dist
    d = dist if support.shape[0] == n else dist[np.ix_(support, support)]
    mu1, mu2 = pair.mu1[support], pair.mu2[support]
    src, dst = np.flatnonzero(mu1 > 0), np.flatnonzero(mu2 > 0)
    tail, head = _arcs(d, src, dst, support)
    arcs = tail.shape[0]
    potential = np.zeros(n)
    joint = np.zeros((n, n))
    if arcs:
        # column a leaves tail[a] (+1) and enters head[a] (-1)
        balance = sp.csc_array((np.tile([1.0, -1.0], arcs),
                                np.stack([tail, head], axis=1).ravel(),
                                np.arange(0, 2 * arcs + 1, 2)),
                               shape=(support.shape[0], arcs))
        excess = mu1 - mu2
        cost = d[tail, head]
        scale = float(cost.max()) or 1.0
        res = linprog(cost / scale, A_eq=balance, b_eq=excess, bounds=(0, None),
                      method="highs-ds",
                      options={"dual_feasibility_tolerance": _DUAL_FEAS_TOL})
        if not res.success:
            raise RuntimeError(f"transportation solve failed: {res.message}")
        distance = float(res.fun) * scale
        u = np.asarray(res.eqlin.marginals, dtype=float) * scale
        _certify(d, src, dst, u, excess, distance)
        joint[np.ix_(support[src], support)] = _decompose(
            tail, head, np.clip(res.x, 0.0, None), mu1, mu2)
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
