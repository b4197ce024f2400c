"""Transportation (earth mover's) distance between probability measures on a
shared finite metric space: an exact min-cost flow on the measures' supports
by one network simplex, whose dual certificate is checked on every pair,
with a witness coupling, and the translate distance of a measure under a
point permutation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spaces import _row_blocks

_MARGINAL_TOL = 1e-9
_REL_TOL = 1e-9         # slack, relative to d_max, of the metric and certificate checks
_PAIR_BYTES = 16        # scratch one pair of a row-block pass takes
_BIG_M = 2.0            # cost of an arc from the simplex's artificial root, over d_max
_PRICE_PAIRS = 4096     # pairs the simplex prices at a time, in whole rows
_ENTER_TOL = 1e-14      # stretch, over the artificial cost, a pair needs to enter the tree


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


def _scan_metric(d, src, dst, names):
    """d_max over the pairs from the sources src to the targets dst (positions
    in d).  The scan raises ValueError unless those distances are finite and
    zero where a point meets itself, within _REL_TOL * d_max, naming the
    entry by names, the points' indices in the space."""
    d_max = 0.0
    for r in _row_blocks(src.shape[0], dst.shape[0], _PAIR_BYTES):
        block = d[np.ix_(src[r], dst)]
        if not np.isfinite(block).all():
            i, j = np.argwhere(~np.isfinite(block))[0]
            raise ValueError(
                f"not a metric: non-finite distance at ({names[src[r][i]]},{names[dst[j]]})")
        d_max = max(d_max, float(block.max()))
    both = np.intersect1d(src, dst, assume_unique=True)
    diag = np.abs(d[both, both])
    if diag.size and diag.max() > _REL_TOL * d_max:
        k = both[int(np.argmax(diag))]
        raise ValueError(f"not a metric: d[{names[k]},{names[k]}]={float(d[k, k])!r} is not zero")
    return d_max


def _stretch(d, rows, cols, potential):
    """u_i - u_j - d_ij of the potential u over rows x cols (positions in d)."""
    if cols.shape[0] == d.shape[1]:  # every column: whole rows of d
        over = potential[rows, None] - potential[None, :cols.shape[0]]
        over -= d[rows]
    else:
        over = potential[rows, None] - potential[None, cols]
        over -= d[rows[:, None], cols]
    return over


def _simplex(d, src, dst, excess, d_max):
    """Uncapacitated min-cost flow of the balance excess along the arcs
    src x dst at costs d[i, j], by one primal network simplex.  Returns the
    spanning tree's arcs tail -> head (positions in d) with their amounts,
    and the potential u, which has u_i - u_j = d_ij on those arcs and
    minimum 0.

    The first tree is a star on an artificial root: a point with excess >= 0
    ships it by an arc to the root at cost 0, any other point receives its
    deficit by an arc from the root at cost _BIG_M * d_max (1 when d_max is
    0).  Mass through the root goes cheaper straight from a source to a
    target, so an optimal flow leaves those arcs empty, but for the rounding
    of sum(excess).

    Pricing walks src in cyclic blocks of whole rows, about _PRICE_PAIRS
    pairs each, straight from d; the block's most stretched pair enters when
    u_i - u_j - d_ij exceeds _ENTER_TOL times the artificial cost.  A full
    cycle of blocks with no such pair ends the solve.  Every empty tree arc
    points to the root (the tree is strongly feasible), and the leaving arc
    is the last blocking arc met walking the cycle from its apex along the
    entering arc (Cunningham 1976), so degenerate pivots cannot cycle.  The
    tree is kept as parent arcs, subtree sizes and a preorder, so that a
    pivot walks the cycle in Python and moves the cut subtree, re-rooted at
    the entering arc, as slices of the preorder.
    """
    m, cols = excess.shape[0], dst.shape[0]
    root = m
    big = _BIG_M * d_max or 1.0
    enter = _ENTER_TOL * big
    # the arc from each point to its parent: up when it points to the parent
    parent = [root] * m
    up = (excess >= 0).tolist()
    flow = np.abs(excess).tolist()
    size = [1] * m + [m + 1]
    order = np.concatenate(([root], np.arange(m)))
    pos = np.argsort(order)
    potential = np.append(np.where(excess >= 0, 0.0, -big), 0.0)

    step = max(1, _PRICE_PAIRS // cols)
    blocks = [slice(r0, r0 + step) for r0 in range(0, src.shape[0], step)]
    # each block's pairs of a point with itself, never priced: a diagonal
    # entry the metric scan let through below 0 would price as a loop
    selfs = [np.nonzero(src[r, None] == dst) for r in blocks]
    b = idle = 0
    while idle < len(blocks):
        rows = src[blocks[b]]
        over = _stretch(d, rows, dst, potential)
        over[selfs[b]] = -np.inf
        b = (b + 1) % len(blocks)
        i, j = divmod(int(over.argmax()), cols)
        gain = float(over[i, j])
        if not gain > enter:
            idle += 1
            continue
        idle = 0
        tail, head = int(rows[i]), int(dst[j])
        # the cycle: the tree paths from tail and from head up to their apex
        path_t, path_h = [], []
        x, y = tail, head
        while x != y:
            if size[x] < size[y]:
                path_t.append(x)
                x = parent[x]
            else:
                path_h.append(y)
                y = parent[y]
        # walked from the apex, the cycle runs down to tail, along the
        # entering arc and up from head: arcs it walks backwards can block
        delta, out, cut = np.inf, -1, None
        for k, x in enumerate(path_t):
            if up[x] and flow[x] < delta:
                delta, out, cut = flow[x], k, path_t
        for k, y in enumerate(path_h):
            if not up[y] and flow[y] <= delta:
                delta, out, cut = flow[y], k, path_h
        if cut is None:
            raise RuntimeError("transportation solve failed: a cycle of negative cost")
        if delta > 0:
            for x in path_t:
                flow[x] += -delta if up[x] else delta
            for y in path_h:
                flow[y] += delta if up[y] else -delta
        # the subtree cut off by the leaving arc hangs, re-rooted at the
        # entering arc's end on the cut side, from its other end
        if cut is path_t:
            hang, onto, grow, sigma = tail, head, path_h, -gain
        else:
            hang, onto, grow, sigma = head, tail, path_t, gain
        stem = cut[:out + 1]
        moved = size[stem[-1]]
        for x in cut[out + 1:]:
            size[x] -= moved
        for x in grow:
            size[x] += moved
        at = [int(pos[x]) for x in stem]
        sizes = [size[x] for x in stem]
        pieces = [order[at[0]:at[0] + sizes[0]]]
        for k in range(1, len(stem)):
            pieces += [order[at[k]:at[k - 1]], order[at[k - 1] + sizes[k - 1]:at[k] + sizes[k]]]
            size[stem[k]] = moved - sizes[k - 1]
        size[hang] = moved
        for k in range(len(stem) - 1, 0, -1):
            parent[stem[k]] = stem[k - 1]
            up[stem[k]] = not up[stem[k - 1]]
            flow[stem[k]] = flow[stem[k - 1]]
        parent[hang], up[hang], flow[hang] = onto, hang == tail, delta
        subtree = np.concatenate(pieces)
        start, after = at[-1], int(pos[onto]) + 1
        if after <= start:
            lo, hi = after, start + moved
            order[lo:hi] = np.concatenate((subtree, order[after:start]))
        else:
            lo, hi = start, after
            order[lo:hi] = np.concatenate((order[start + moved:after], subtree))
        pos[order[lo:hi]] = np.arange(lo, hi)
        potential[subtree] += sigma
    real = [x for x in range(m) if parent[x] != root]
    tails = np.array([x if up[x] else parent[x] for x in real], dtype=np.intp)
    heads = np.array([parent[x] if up[x] else x for x in real], dtype=np.intp)
    u = potential[:m]
    return tails, heads, np.array([flow[x] for x in real]), u - u.min()


def _price(d, rows, cols, potential):
    """Largest stretch u_i - u_j - d_ij of the potential u over rows x cols
    (positions in d), scanned in row blocks of bounded scratch
    (spaces._row_blocks)."""
    return max(float(_stretch(d, rows[r], cols, potential).max())
               for r in _row_blocks(rows.shape[0], cols.shape[0], _PAIR_BYTES))


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

    Solved on the points with mass in either measure, as an uncapacitated
    min-cost flow of the balance mu1 - mu2 along every pair from the first
    support to the second, by one network simplex (see _simplex).  Its
    potential u is the certificate: one scan of those pairs (see _price)
    must find u 1-Lipschitz on every pair a coupling can charge, and u must
    pair with mu1 - mu2 to the flow's value, both within _REL_TOL * d_max,
    or emd raises RuntimeError.  By Kantorovich duality u then proves that
    no coupling costs less.  It is extended to the zero-mass points by the
    McShane formula min_y u_y + d(x, y).

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
    # each measure is rescaled to mass 1 on the support, so that the
    # balances agree to rounding: the measures' sums need only hold to 1e-9
    mu1, mu2 = (mu[support] / mu[support].sum() for mu in (pair.mu1, pair.mu2))
    src, dst = np.flatnonzero(mu1 > 0), np.flatnonzero(mu2 > 0)
    d_max = _scan_metric(d, src, dst, support)
    tol = _REL_TOL * d_max
    excess = mu1 - mu2
    tail, head, amount, u = _simplex(d, src, dst, excess, d_max)
    distance = float(amount @ d[tail, head])
    stretch, gap = _price(d, src, dst, u), abs(float(u @ excess) - distance)
    if stretch > tol or gap > tol:
        raise RuntimeError(
            f"transport certificate failed: potential exceeds the metric by "
            f"{stretch!r} and misses the cost by {gap!r} (tolerance {tol!r})")
    block = _decompose(tail, head, amount, mu1, mu2)
    spent = sum(float(np.vdot(block[r], d[src[r]]))
                for r in _row_blocks(src.shape[0], support.shape[0], _PAIR_BYTES))
    if spent - distance > tol:
        used = amount > 0
        _refuse_broken_relays(d, src, np.intersect1d(tail[used], head[used]), dst,
                              support, tol)
        raise RuntimeError(
            f"transport certificate failed: the witness costs {spent - distance!r} "
            f"more than the flow (tolerance {tol!r})")
    joint = np.zeros((n, n))
    joint[np.ix_(support[src], support)] = block
    potential = np.zeros(n)
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
