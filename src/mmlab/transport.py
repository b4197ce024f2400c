"""Transportation (earth mover's) distance between probability measures on a
shared finite metric space: an exact min-cost flow of mu1 - mu2 by one
network simplex, whose dual certificate is checked on every pair the
measures' supports span, with a witness coupling, and the translate distance
of a measure under a point permutation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spaces import _TILE_BYTES, _row_blocks

_MARGINAL_TOL = 1e-9
_REL_TOL = 1e-9         # slack, relative to d_max, of the metric and certificate checks
_PAIR_BYTES = 16        # scratch one pair of a row-block pass takes
_BIG_M = 2.0            # cost of an arc from the simplex's artificial root, over d_max
_PRICE_PAIRS = 64       # pairs the simplex prices at a time, in whole rows
_ENTER_TOL = 1e-14      # stretch, over the artificial cost, a pair needs to enter the tree
_SHORTLIST = 8          # nearest targets of each source the first tree's greedy reads


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
            if not abs(mu.sum() - 1.0) <= _MARGINAL_TOL:
                raise ValueError(f"{name} sums to {float(mu.sum())!r}, expected 1")


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


def _scan_metric(space, d, src, dst):
    """d_max over src x dst, read through space.distance_blocks.  ValueError
    names a self-distance in d, its matrix, not zero within _REL_TOL * d_max."""
    d_max = 0.0
    for _, block in space.distance_blocks(src, dst, _PAIR_BYTES):
        d_max = max(d_max, float(block.max()))
    both = np.intersect1d(src, dst, assume_unique=True)
    diag = np.abs(d[both, both])
    if diag.size and diag.max() > _REL_TOL * d_max:
        k = both[int(np.argmax(diag))]
        raise ValueError(f"not a metric: d[{k},{k}]={float(d[k, k])!r} is not zero")
    return d_max


def _stretch(d, rows, cols, potential):
    """u_i - u_j - d_ij of the potential u over rows x cols (positions in d)."""
    over = potential[rows, None] - potential[None, cols]
    over -= d[rows[:, None], cols]
    return over


def _greedy_arcs(d, src, dst, excess):
    """The cells (i, j) of src x dst (positions in d) that the cheapest-cell
    rule ships along: cells in ascending cost, ties by (row, column), each
    shipping min(remaining supply, remaining deficit).  min returns one of
    its operands, so every cell empties its row or its column for good, and
    the cells form a forest.

    The cells are each source's _SHORTLIST nearest targets (Gottschlich and
    Schuhmacher, "The shortlist method for fast computation of the Earth
    Mover's Distance", PLoS ONE, 2014), gathered in row blocks of bounded
    scratch (spaces._row_blocks).  Sources whose shortlists run out before
    their supply does go round again, on their nearest targets that still
    have a deficit; a source that stays has emptied every target on its
    shortlist, so each round ends some."""
    supply, deficit = excess[src].tolist(), (-excess[dst]).tolist()
    tails, heads, arcs = src.tolist(), dst.tolist(), []
    live, open_ = np.arange(src.shape[0]), np.arange(dst.shape[0])
    while live.size and open_.size:
        k = min(_SHORTLIST, open_.shape[0])
        rows, cols, costs = [], [], []
        for r in _row_blocks(live.shape[0], open_.shape[0], _PAIR_BYTES):
            block = d[np.ix_(src[live[r]], dst[open_])]
            near = np.argpartition(block, k - 1, axis=1)[:, :k]
            rows.append(np.repeat(live[r], k))
            cols.append(open_[near].ravel())
            costs.append(np.take_along_axis(block, near, axis=1).ravel())
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        cells = np.lexsort((cols, rows, np.concatenate(costs)))
        for i, j in zip(rows[cells].tolist(), cols[cells].tolist()):
            ship = min(supply[i], deficit[j])
            if ship > 0:
                supply[i] -= ship
                deficit[j] -= ship
                arcs.append((tails[i], heads[j]))
        live = live[np.array(supply)[live] > 0]
        open_ = open_[np.array(deficit)[open_] > 0]
    return arcs


def _first_tree(d, src, dst, excess, big):
    """The simplex's first spanning tree on the points (positions in d) and
    an artificial root, m = len(excess): the cheapest-cell forest (see
    _greedy_arcs), each component hung from the root by one arc that carries
    the component's net excess, which is only rounding.  That arc points up
    to the root at cost 0 when the net is >= 0, and down from it at cost big
    otherwise.  Every arc's flow is its subtree's excess sum, so each
    point's balance holds.  A forest arc whose sum is rounding against its
    direction, or zero on an arc down from the root's side, is cut, and its
    subtree hangs from the root alone: every empty arc points to the root.
    A point of zero excess keeps an empty arc up to the root.

    Returns parent, up (the arc from x to parent[x] points to the parent),
    flow and size per point (size has the root's m + 1 last), the preorder
    with the root first and each point's position in it, and the potential
    (root last, at 0) with u_i - u_j equal to the cost on every tree arc."""
    m = excess.shape[0]
    root = m
    # one DFS from each component's first point gives the parent arcs and a
    # preorder; then flows and sizes from the subtree sums, leaves first
    near = [[] for _ in range(m)]
    for x, y in _greedy_arcs(d, src, dst, excess):
        near[x].append(y)
        near[y].append(x)
    parent, seen, pre = [root] * m, [False] * m, []
    for h in range(m):
        if seen[h]:
            continue
        seen[h], stack = True, [h]
        while stack:
            x = stack.pop()
            pre.append(x)
            for y in near[x]:
                if not seen[y]:
                    seen[y], parent[y] = True, x
                    stack.append(y)
    net, source = excess.tolist(), (excess > 0).tolist()
    up, flow, size = [True] * m, [0.0] * m, [1] * m + [m + 1]
    for x in reversed(pre):
        p = parent[x]
        if p != root and source[x] != (net[x] >= 0):
            parent[x] = p = root
        up[x], flow[x] = net[x] >= 0, abs(net[x])
        if p != root:
            net[p] += net[x]
            size[p] += size[x]
    # the potentials down the tree, and the preorder with each cut subtree
    # moved after the rest of its component
    top, u = [0] * m, [0.0] * (m + 1)
    for x in pre:
        p = parent[x]
        if p == root:
            top[x], u[x] = x, 0.0 if up[x] else -big
        else:
            top[x] = top[p]
            u[x] = u[p] + float(d[x, p]) if up[x] else u[p] - float(d[p, x])
    pre = np.array(pre, dtype=np.intp)
    rank = np.empty(m, dtype=np.intp)
    rank[pre] = np.arange(m)
    order = np.append(root, pre[np.argsort(rank[np.array(top, dtype=np.intp)[pre]], kind="stable")])
    return parent, up, flow, size, order, np.argsort(order), np.array(u)


def _simplex(d, src, dst, excess, d_max):
    """Uncapacitated min-cost flow of the balance excess along the arcs
    src x dst at costs d[i, j], by one primal network simplex.  src holds
    points of positive excess and dst of negative, so no arc leaves dst and
    every cycle a pivot walks has an arc that blocks.  Returns the spanning
    tree's arcs tail -> head (positions in d) with their amounts, and the
    potential u, which has u_i - u_j = d_ij on those arcs.

    The first tree is the cheapest-cell forest on an artificial root (see
    _first_tree), whose arcs from the root cost big = _BIG_M * d_max (1 when
    d_max is 0).  Mass through the root goes cheaper straight from a source
    to a target, so an optimal flow leaves the root's arcs empty, but for
    the rounding of sum(excess).  On product measures over a cube that tree
    is often optimal already, and the solve ends after one idle cycle.

    Pricing walks src in cyclic blocks of whole rows, about _PRICE_PAIRS
    pairs each, straight from d; the block's most stretched pair enters when
    u_i - u_j - d_ij exceeds _ENTER_TOL times the artificial cost.  After a
    block with no such pair, one scan takes the next 2, 4, 8, ... blocks, up
    to those the cycle has left, the last block of src and _TILE_BYTES of
    scratch, and the first of them with such a pair gives its own; the
    pivots are those of one block at a time.  A full cycle of blocks with no
    such pair ends the solve.  Every empty tree arc points to the root (the
    tree is strongly feasible), and the leaving arc is the last blocking arc
    met walking the cycle from its apex along the entering arc (Cunningham
    1976), so degenerate pivots cannot cycle.  The tree is kept as parent
    arcs, subtree sizes and a preorder, so that a pivot walks the cycle in
    Python and moves the cut subtree, re-rooted at the entering arc, as
    slices of the preorder.
    """
    m, cols = excess.shape[0], dst.shape[0]
    root = m
    big = _BIG_M * d_max or 1.0
    enter = _ENTER_TOL * big
    parent, up, flow, size, order, pos, potential = _first_tree(d, src, dst, excess, big)

    step = max(1, _PRICE_PAIRS // max(cols, 1))
    blocks = -(-src.shape[0] // step) if cols else 0  # block g is src[g * step:(g + 1) * step]
    widest = max(1, _TILE_BYTES // (_PAIR_BYTES * step * max(cols, 1)))  # blocks a scan may take
    b, idle, run = 0, 0, 1
    while idle < blocks:
        run = min(run, blocks - idle, blocks - b, widest)
        rows = src[b * step:(b + run) * step]
        over = _stretch(d, rows, dst, potential)
        hit = int(over.argmax())
        if not over.flat[hit] > enter:
            b, idle, run = (b + run) % blocks, idle + run, 2 * run
            continue
        g = b
        if run > 1:
            # the first block with a stretched pair gives its own most
            # stretched pair, as when each block is scanned alone
            first = int(np.argmax(over.max(axis=1) > enter))
            g, lo = b + first // step, first // step * step
            hit = lo * cols + int(over[lo:lo + step].argmax())
        i, j = divmod(hit, cols)
        gain = float(over[i, j])
        b, idle, run = (g + 1) % blocks, 0, 1
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
    return tails, heads, np.array([flow[x] for x in real]), potential[:m]


def _price(d, rows, cols, potential):
    """Largest stretch u_i - u_j - d_ij of the potential u over rows x cols
    (positions in d), with its first pair (i, j) in row-major order, scanned
    in row blocks of bounded scratch (spaces._row_blocks)."""
    most = (-np.inf, -1, -1)
    for r in _row_blocks(rows.shape[0], cols.shape[0], _PAIR_BYTES):
        over = _stretch(d, rows[r], cols, potential)
        i, j = divmod(int(over.argmax()), cols.shape[0])
        if over[i, j] > most[0]:
            most = (float(over[i, j]), int(rows[r][i]), int(cols[j]))
    return most


def _refuse_broken_triangles(d, rows, mids, cols, tol):
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
                f"not a metric: d[{i},{j}]={float(d[i, j])!r} exceeds "
                f"d[{i},{k}] + d[{k},{j}]={float(legs.min())!r}")


def emd(space, pair):
    """Exact transportation distance min over couplings of sum nu * d.

    On a metric it depends only on mu1 - mu2 (Kantorovich-Rubinstein;
    Villani, Optimal Transport: Old and New, Thm 5.10): it is the cheapest
    flow from pos = {mu1 > mu2} to neg = {mu1 < mu2} (each measure rescaled
    to mass 1 on the support, 0 off it) along pos x neg at costs d_ij, by one
    network simplex on the space's points and matrix (see _simplex), whose
    root holds every other point alone.  The witness, diag(min(mu1, mu2))
    plus the flow's cells, costs the flow's value, as the scan of the
    supports' pairs s x t holds d_ii at 0.

    The certificate is the simplex's potential u, extended (McShane) to the
    points z on no flow arc by min over the flow's targets k of u_k + d_zk,
    or set to 0 when nothing flows, and shifted to minimum 0.  One scan of
    s x t, the pairs a coupling can charge (see _price), must find u
    1-Lipschitz there and pairing with mu1 - mu2 to the flow's value, both
    within _REL_TOL * d_max; by duality no coupling then costs less.

    A stretched pair (i, j) shows a broken triangle.  In the optimal tree a
    j in pos on a flow arc has one to some k in neg (u_j = u_k + d_jk) and
    an i in neg one from some p in pos (u_i = u_p - d_pi).  Pricing gives
    u_p <= u_k + d_pk, and a point z on no flow arc has u_z <= u_k + d_zk,
    with equality at its own k.  So
    for j in neg, u_i - u_j <= d_ij unless i is in neg too, where it is at
    most d_pj - d_pi; for other j, with j's k, it is at most d_ik - d_jk,
    or d_pk - d_pi - d_jk for i in neg.  A stretch then makes i or j the
    middle point of a broken triangle on (p, j), (i, k) or (p, k), a pair
    of s x t, which ValueError names (see _refuse_broken_triangles); a
    failure that names none raises RuntimeError.
    """
    n = space.n
    if pair.mu1.shape[0] != n:
        raise ValueError("measure length does not match the space")
    d, support = space.dist, np.flatnonzero((pair.mu1 > 0) | (pair.mu2 > 0))
    # each measure is rescaled to mass 1 on the support, so that the
    # balances agree to rounding: the measures' sums need only hold to 1e-9,
    # and a point of equal masses ships its share of their drift
    mu1, mu2 = np.zeros((2, n))
    mu1[support], mu2[support] = (mu[support] / mu[support].sum() for mu in (pair.mu1, pair.mu2))
    src, dst = np.flatnonzero(mu1 > 0), np.flatnonzero(mu2 > 0)
    d_max = _scan_metric(space, d, src, dst)
    tol = _REL_TOL * d_max
    excess = mu1 - mu2
    tail, head, amount, u = _simplex(d, np.flatnonzero(excess > 0), np.flatnonzero(excess < 0),
                                     excess, d_max)
    distance = float(amount @ d[tail, head])
    on_arc = np.bincount(np.concatenate((tail, head)), minlength=n) > 0
    ends, lone = np.flatnonzero(on_arc & (excess < 0)), np.flatnonzero(~on_arc)
    if ends.size:
        for r, block in space.distance_blocks(lone, ends, _PAIR_BYTES):
            u[lone[r]] = (u[ends] + block).min(axis=1)
    else:
        u[:] = 0.0
    u -= u.min()
    (stretch, i, j), gap = _price(d, src, dst, u), abs(float(u @ excess) - distance)
    if stretch > tol:
        _refuse_broken_triangles(d, src, np.array([i, j]), dst, tol)
    if stretch > tol or gap > tol:
        raise RuntimeError(
            f"transport certificate failed: potential exceeds the metric by "
            f"{stretch!r} and misses the cost by {gap!r} (tolerance {tol!r})")
    joint = np.zeros((n, n))
    joint[support, support] = np.minimum(mu1, mu2)[support]  # np.diag would touch n pages
    joint[tail, head] = amount
    witness = Coupling(joint)
    witness.check(pair)
    return EmdResult(distance=distance, witness=witness, potential=u)


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
