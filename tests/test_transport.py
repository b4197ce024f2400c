"""Transportation distance: the flow of mu1 - mu2 against the full
transportation LP and the quantized assignment oracle, metric axioms, the
network simplex's block pricing, the dual certificate, the refusal of a
space whose broken triangle stretches the certificate, witness feasibility,
and the dual pairing with 1-Lipschitz observables."""

import json
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (cloud_metric, count_priced_pairs, emd_full_lp, emd_oracle,
                      flow_pairs, mcshane_envelope, measures_on, normalized,
                      random_measure, random_space, spaces)
from mmlab import spaces as spaces_module
from mmlab import transport
from mmlab.cli import main
from mmlab.generators import hamming_cube
from mmlab.spaces import FiniteMMSpace, space_to_json
from mmlab.transport import Coupling, MeasurePair, emd, translate_distance


def delta(n, i):
    v = np.zeros(n)
    v[i] = 1.0
    return v


@st.composite
def lattice_spaces(draw, distinct=True):
    """Clouds on a 4 x 4 integer grid, rich in collinear triples whose legs
    sum to the long side exactly or to its last bit.  With distinct=False
    points may repeat, so some off-diagonal distances are zero."""
    n = draw(st.integers(2, 8))
    pts = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                        min_size=n, max_size=n, unique=distinct))
    raw = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    return FiniteMMSpace(list(range(n)), normalized(raw), dist=cloud_metric(pts))


@st.composite
def sparse_measures_on(draw, n):
    """Measures on at most half of the n points, so that the flow often
    ships straight from one support to the other."""
    where = draw(st.lists(st.integers(0, n - 1), min_size=1,
                          max_size=max(1, n // 2), unique=True))
    raw = np.zeros(n)
    raw[where] = draw(st.lists(st.integers(1, 9), min_size=len(where),
                               max_size=len(where)))
    return normalized(raw)


def gaussian_cloud(seed, n, dim=3):
    """n gaussian points in R^dim with integer weights 1-9, and two more such
    measures of full support."""
    rng = np.random.default_rng(seed)
    cloud = FiniteMMSpace(list(range(n)), normalized(rng.integers(1, 10, n)),
                          points=rng.normal(size=(n, dim)), metric="euclidean")
    return cloud, MeasurePair(normalized(rng.integers(1, 10, n)),
                              normalized(rng.integers(1, 10, n)))


def product_pair(cube, p, q):
    bits = cube.points.astype(bool)
    return MeasurePair(*(np.where(bits, r, 1.0 - r).prod(axis=1) for r in (p, q)))


@settings(max_examples=150, deadline=None)
@given(st.one_of(spaces(), lattice_spaces(), lattice_spaces(distinct=False)), st.data())
def test_flow_matches_the_full_lp(space, data):
    # lattice clouds tie exactly on collinear triples; a pair at distance zero
    # is never split, so duplicated points stay connected
    measures = st.one_of(measures_on(space.n), sparse_measures_on(space.n))
    pair = MeasurePair(data.draw(measures), data.draw(measures))
    got = emd(space, pair).distance
    assert abs(got - emd_full_lp(space, pair)) <= 1e-12 * float(space.dist.max())


def test_cube_flow_runs_over_its_edges():
    cube = hamming_cube(7)
    rng = np.random.default_rng(9)
    p, q = rng.uniform(0.05, 0.95, 7), rng.uniform(0.05, 0.95, 7)
    pair = product_pair(cube, p, q)
    res = emd(cube, pair)
    # product measures: mass moves coordinate by coordinate, so a flow along
    # the cube's edges is optimal, and the simplex's flow costs the same
    assert res.distance == pytest.approx(float(np.abs(p - q).mean()), abs=1e-12)
    res.witness.check(pair, atol=1e-12)
    cost = float((res.witness.joint * cube.dist).sum())
    assert cost == pytest.approx(res.distance, abs=1e-12)
    # the potential comes back shifted so that its minimum is 0
    assert res.potential.min() == 0.0


def test_ten_cube_needs_pricing_rounds(monkeypatch):
    # the simplex prices blocks of the pos x neg pairs until one full cycle
    # of them finds no stretched pair, and the certificate prices all of
    # s x t (1,048,576 pairs) once more; on these product measures the
    # cheapest-cell tree is already optimal, so that one cycle is all
    cube = hamming_cube(10)
    rng = np.random.default_rng(10)
    p, q = rng.uniform(0.05, 0.95, 10), rng.uniform(0.05, 0.95, 10)
    pair = product_pair(cube, p, q)
    priced = count_priced_pairs(monkeypatch)
    res = emd(cube, pair)
    assert priced[0] == flow_pairs(pair) + 1024 * 1024
    assert abs(res.distance - float(np.abs(p - q).mean())) <= 1e-12


def test_an_idle_cycle_is_priced_in_doubling_runs(monkeypatch):
    # the ten-cube's cheapest-cell tree is optimal, so the simplex scans one
    # idle cycle, one row a block: runs of 1, 2, 4, ... blocks, the last cut
    # to the blocks left; then the certificate scans s x t in one block
    cube = hamming_cube(10)
    rng = np.random.default_rng(10)
    pair = product_pair(cube, rng.uniform(0.05, 0.95, 10), rng.uniform(0.05, 0.95, 10))
    assert int((pair.mu1 < pair.mu2).sum()) > transport._PRICE_PAIRS
    scans, stretch = [], transport._stretch

    def counted(d, rows, cols, potential):
        scans.append(rows.shape[0])
        return stretch(d, rows, cols, potential)

    monkeypatch.setattr(transport, "_stretch", counted)
    emd(cube, pair)
    left, runs = int((pair.mu1 > pair.mu2).sum()), []
    while left:
        runs.append(min(2 ** len(runs), left))
        left -= runs[-1]
    assert scans == runs + [1024]


def test_a_pricing_run_holds_to_the_tile_budget(monkeypatch):
    # with room for three one-row blocks a scan, the runs go 1, 2, 3, 3, ...
    # and the solve is the same to the bit
    cube = hamming_cube(10)
    rng = np.random.default_rng(10)
    pair = product_pair(cube, rng.uniform(0.05, 0.95, 10), rng.uniform(0.05, 0.95, 10))
    want = emd(cube, pair)
    neg = int((pair.mu1 < pair.mu2).sum())
    monkeypatch.setattr(transport, "_TILE_BYTES", 3 * transport._PAIR_BYTES * neg)
    scans, stretch = [], transport._stretch

    def counted(d, rows, cols, potential):
        scans.append(rows.shape[0])
        return stretch(d, rows, cols, potential)

    monkeypatch.setattr(transport, "_stretch", counted)
    got = emd(cube, pair)
    left, runs = int((pair.mu1 > pair.mu2).sum()), []
    while left:
        runs.append(min(2 ** len(runs), 3, left))
        left -= runs[-1]
    assert scans == runs + [1024]
    assert got.distance == want.distance
    assert np.array_equal(got.potential, want.potential)
    assert np.array_equal(got.witness.joint, want.witness.joint)


def first_tree(monkeypatch, space, pair):
    """The inputs of the simplex emd(space, pair) runs, with big, its
    artificial cost, and the tree it starts from."""
    seen, simplex = [], transport._simplex

    def recorded(d, src, dst, excess, d_max):
        big = transport._BIG_M * d_max or 1.0
        seen.append((d, src, dst, excess, big, transport._first_tree(d, src, dst, excess, big)))
        return simplex(d, src, dst, excess, d_max)

    monkeypatch.setattr(transport, "_simplex", recorded)
    emd(space, pair)
    monkeypatch.undo()
    return seen[0]


def check_first_tree(d, src, dst, excess, big, tree):
    parent, up, flow, size, order, pos, u = tree
    m = excess.shape[0]
    root = m
    # a spanning tree on the points and the root, whose preorder holds each
    # subtree as the slice its size gives
    below = [{x} for x in range(m)] + [set(range(m + 1))]
    for y in range(m):
        x, steps = parent[y], 0
        while x != root:
            below[x].add(y)
            x, steps = parent[x], steps + 1
            assert steps <= m
    assert order[0] == root and size[root] == m + 1
    for x in range(m + 1):
        assert pos[x] == order.tolist().index(x)
        assert set(order[pos[x]:pos[x] + size[x]].tolist()) == below[x]
    # each point's excess is conserved, every arc off the root runs from
    # src to dst, and every empty arc points to the root
    sign = [1.0 if up[x] else -1.0 for x in range(m)]
    balance = [sign[x] * flow[x] for x in range(m)]
    for x in range(m):
        assert flow[x] >= 0.0 and (flow[x] > 0.0 or up[x])
        if parent[x] != root:
            balance[parent[x]] -= sign[x] * flow[x]
            tail, head = (x, parent[x]) if up[x] else (parent[x], x)
            assert tail in src and head in dst
            assert u[tail] - u[head] == pytest.approx(d[tail, head], abs=1e-12 * big)
        else:
            assert u[x] == (0.0 if up[x] else -big)
    assert np.allclose(balance, excess, rtol=0, atol=1e-15)
    assert u[root] == 0.0


@settings(max_examples=100, deadline=None)
@given(st.one_of(spaces(), lattice_spaces(), lattice_spaces(distinct=False)), st.data())
def test_first_tree_is_a_strongly_feasible_spanning_tree(space, data):
    measures = st.one_of(measures_on(space.n), sparse_measures_on(space.n))
    pair = MeasurePair(data.draw(measures), data.draw(measures))
    with pytest.MonkeyPatch.context() as monkeypatch:
        check_first_tree(*first_tree(monkeypatch, space, pair))


def test_first_tree_cuts_an_arc_whose_flow_is_rounding(monkeypatch):
    # sums that drift by their tolerance (as in
    # test_sums_off_by_their_tolerance_keep_the_flow_balanced) cut nothing;
    # in the two spaces after it tenths whose sums round leave a greedy cell
    # whose subtree's excess sums to rounding against it, so that arc is cut
    # and its subtree hung from the root.  In the last the cut subtree comes
    # before the rest of its component in the DFS order, and must move after.
    line = [np.abs(np.subtract.outer(np.arange(k), np.arange(k))) for k in (3.0, 6.0)]
    perturbed = [[0.0, 1.2, 1.8, 1.3, 1.7, 1.9, 1.0], [1.2, 0.0, 1.8, 1.9, 1.1, 1.1, 1.4],
                 [1.8, 1.8, 0.0, 1.1, 1.0, 1.8, 1.8], [1.3, 1.9, 1.1, 0.0, 1.3, 1.8, 1.3],
                 [1.7, 1.1, 1.0, 1.3, 0.0, 1.9, 1.3], [1.9, 1.1, 1.8, 1.8, 1.9, 0.0, 1.8],
                 [1.0, 1.4, 1.8, 1.3, 1.3, 1.8, 0.0]]
    cases = [(FiniteMMSpace([0, 1, 2], np.full(3, 1 / 3), dist=line[0]),
              MeasurePair([0.1 + 0.99e-9, 0.9, 0.0], [0.0, 0.9, 0.1 - 0.99e-9]), 0),
             (FiniteMMSpace(list(range(6)), np.full(6, 1 / 6), dist=line[1]),
              MeasurePair([0.19999999999999998, 0.2, 0.0, 0.3, 0.2, 0.1],
                          [0.2, 0.1, 0.3, 0.1, 0.3, 0.0]), 1),
             (FiniteMMSpace(list(range(7)), np.full(7, 1 / 7), dist=perturbed),
              MeasurePair([0.19999999999999998, 0.1, 0.1, 0.5, 0.0, 0.1, 0.0],
                          [0.1, 0.0, 0.2, 0.3, 0.3, 0.0, 0.09999999999999987]), 1)]
    for space, pair, cuts in cases:
        d, src, dst, excess, big, tree = first_tree(monkeypatch, space, pair)
        check_first_tree(d, src, dst, excess, big, tree)
        kept = sum(p != excess.shape[0] for p in tree[0])
        assert kept == len(transport._greedy_arcs(d, src, dst, excess)) - cuts
        # within the drift of the sums
        assert abs(emd(space, pair).distance - emd_full_lp(space, pair)) <= 1e-8


def test_the_shortlist_scratch_follows_the_row_blocks(monkeypatch):
    # 537 sources against 663 targets: one float block of all of them takes
    # 2.8 MB; in 64 kB row blocks the greedy holds far less, and ships along
    # the same cells
    cloud, pair = gaussian_cloud(1200, 1200)
    d = cloud.dist
    excess = pair.mu1 - pair.mu2
    src, dst = np.flatnonzero(excess > 0), np.flatnonzero(excess < 0)
    whole = transport._greedy_arcs(d, src, dst, excess)
    monkeypatch.setattr(spaces_module, "_TILE_BYTES", 1 << 16)
    tracemalloc.start()
    try:
        blocked = transport._greedy_arcs(d, src, dst, excess)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert blocked == whole
    assert peak < 2 ** 20 < 8 * src.shape[0] * dst.shape[0]


def test_pricing_rounds_reach_the_full_lp(monkeypatch):
    cloud, pair = gaussian_cloud(200, 200)
    priced = count_priced_pairs(monkeypatch)
    got = emd(cloud, pair).distance
    assert priced[0] > 2 * flow_pairs(pair) + 200 * 200
    assert abs(got - emd_full_lp(cloud, pair)) <= 1e-12 * float(cloud.dist.max())


def test_the_last_pricing_scan_is_the_certificate(monkeypatch):
    # one certificate scan of all of s x t per call, after the simplex
    scans, price = [], transport._price

    def counted(*args):
        scans.append((args[1].shape[0], args[2].shape[0]))
        return price(*args)

    monkeypatch.setattr(transport, "_price", counted)
    cube = hamming_cube(7)
    rng = np.random.default_rng(9)
    emd(cube, product_pair(cube, rng.uniform(0.05, 0.95, 7), rng.uniform(0.05, 0.95, 7)))
    assert scans == [(128, 128)]
    emd(*gaussian_cloud(200, 200))
    assert scans == [(128, 128), (200, 200)]


def test_a_large_full_support_cloud_is_fast():
    # 1,440,000 pairs, about a quarter of which (pos x neg) the simplex
    # prices in blocks
    cloud, pair = gaussian_cloud(1200, 1200)
    cloud.dist  # the dense matrix the space caches
    start = time.perf_counter()
    res = emd(cloud, pair)
    assert time.perf_counter() - start < 10.0
    res.witness.check(pair, atol=1e-12)
    assert float(np.vdot(res.witness.joint, cloud.dist)) == pytest.approx(
        res.distance, abs=1e-9 * float(cloud.dist.max()))


def broken_cloud(cloud, pair):
    """The cloud with its two most distant points pulled three diameters
    apart, and a pair of measures that ships between them."""
    d = cloud.dist.copy()
    i, j = np.unravel_index(np.argmax(d), d.shape)
    d[i, j] = d[j, i] = 3.0 * float(d.max())
    mu1, mu2 = pair.mu1.copy(), pair.mu2.copy()
    mu1[i] += 1.0
    mu2[j] += 1.0
    return (FiniteMMSpace(cloud.labels, cloud.weight, dist=d),
            MeasurePair(mu1 / 2.0, mu2 / 2.0))


@pytest.mark.parametrize("tile", [1, 48, 4096])
def test_pricing_blocks_change_nothing(monkeypatch, tile):
    # at 16 bytes a pair: one row a block at 1 and 48 bytes; at 4096 the
    # whole cube and 6 of the cloud's 40 rows
    cases = [(hamming_cube(4), product_pair(hamming_cube(4), np.array([0.1, 0.3, 0.6, 0.8]),
                                            np.array([0.7, 0.2, 0.5, 0.4]))),
             gaussian_cloud(3, 40, dim=2)]
    want = [emd(space, pair) for space, pair in cases]
    with pytest.raises(ValueError) as unblocked:
        emd(*broken_cloud(*cases[1]))
    monkeypatch.setattr(spaces_module, "_TILE_BYTES", tile)
    for (space, pair), res in zip(cases, want):
        got = emd(space, pair)
        assert got.distance == res.distance
        assert np.array_equal(got.witness.joint, res.witness.joint)
        assert np.array_equal(got.potential, res.potential)
    with pytest.raises(ValueError) as blocked:
        emd(*broken_cloud(*cases[1]))
    assert str(blocked.value) == str(unblocked.value)


def test_zero_mass_points_stay_out_of_the_flow():
    # on the path 0 - 1 - 2 the pair (0, 2) splits at 1, which has no mass:
    # the flow runs on {0, 2} alone and the potential reaches 1 by McShane
    d = np.abs(np.subtract.outer(np.arange(3.0), np.arange(3.0)))
    path = FiniteMMSpace([0, 1, 2], [0.5, 0.0, 0.5], dist=d)
    res = emd(path, MeasurePair([1.0, 0.0, 0.0], [0.0, 0.0, 1.0]))
    assert res.distance == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(res.witness.joint, [[0, 0, 1], [0, 0, 0], [0, 0, 0]], atol=1e-12)
    u = res.potential
    assert u[0] - u[2] == pytest.approx(2.0, abs=1e-12)
    assert u[1] == pytest.approx(min(u[0] + 1.0, u[2] + 1.0), abs=1e-12)


def test_a_common_point_splits_pairs_between_partial_supports():
    # on the path 0 - 1 - 2 - 3 with mu1 on {0, 1} and mu2 on {1, 3}, point 1
    # is in both supports: it keeps 0.5 in place and ships its excess 0.25
    # to 3, beside the 0.25 that 0 ships there
    d = np.abs(np.subtract.outer(np.arange(4.0), np.arange(4.0)))
    path = FiniteMMSpace([0, 1, 2, 3], np.full(4, 0.25), dist=d)
    pair = MeasurePair([0.25, 0.75, 0.0, 0.0], [0.0, 0.5, 0.0, 0.5])
    res = emd(path, pair)
    assert abs(res.distance - emd_full_lp(path, pair)) <= 1e-12 * 3.0
    assert res.distance == pytest.approx(1.25, abs=1e-12)
    res.witness.check(pair, atol=1e-12)
    assert float((res.witness.joint * d).sum()) == pytest.approx(1.25, abs=1e-12)
    assert res.witness.joint[1, 1] == 0.5
    # with mu1 = mu2 at point 1 it leaves the flow: it keeps its mass in
    # place and takes the potential min over the deficit points k of
    # u_k + d[1, k]; point 2, of no mass, takes min_y u_y + d[2, y]
    balanced = MeasurePair([0.5, 0.5, 0.0, 0.0], [0.0, 0.5, 0.0, 0.5])
    res = emd(path, balanced)
    assert res.distance == 1.5
    assert res.witness.joint.tolist() == [[0.0, 0.0, 0.0, 0.5], [0.0, 0.5, 0.0, 0.0],
                                          [0.0] * 4, [0.0] * 4]
    assert res.potential.tolist() == [3.0, 2.0, 1.0, 0.0]


def test_small_supports_on_a_large_cloud_stay_cheap():
    # the flow and its checks see the supports, not the 3000 points; a point
    # mass against the uniform measure ships along 2999 direct pairs
    rng = np.random.default_rng(4)
    n = 3000
    cloud = FiniteMMSpace(list(range(n)), np.full(n, 1.0 / n),
                          points=rng.normal(size=(n, 3)), metric="euclidean")
    cloud.dist  # the dense matrix the space caches
    tracemalloc.start()
    try:
        start = time.perf_counter()
        far = emd(cloud, MeasurePair(delta(n, 0), delta(n, n - 1))).distance
        fan = emd(cloud, MeasurePair(delta(n, 0), np.full(n, 1.0 / n))).distance
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert far == cloud.dist[0, n - 1]
    assert fan == pytest.approx(float(cloud.dist[0].mean()), abs=1e-12)
    # each call builds one 3000 x 3000 witness (72 MB) and holds nothing else
    # of that size; a scan over all triples of the supports would take
    # minutes and gigabytes for the second call
    assert peak < 100 * 2 ** 20
    assert elapsed < 10.0


def test_one_point_space():
    res = emd(FiniteMMSpace([0], [1.0], dist=[[0.0]]), MeasurePair([1.0], [1.0]))
    assert res.distance == 0.0
    assert res.witness.joint.tolist() == [[1.0]]


def test_duplicated_points_cost_nothing():
    # the one arc costs 0, so d_max = 0 cannot scale the artificial cost
    twins = FiniteMMSpace([0, 1], [0.5, 0.5], dist=[[0.0, 0.0], [0.0, 0.0]])
    res = emd(twins, MeasurePair([1.0, 0.0], [0.0, 1.0]))
    assert res.distance == 0.0
    assert res.witness.joint.tolist() == [[0.0, 1.0], [0.0, 0.0]]


def test_duplicated_points_leave_the_certificate_no_slack():
    # at d_max = 0 the certificate's tolerance is 0: a potential that kept
    # an offset of the artificial cost would miss the gap by that offset
    # times the rounding of sum(mu1 - mu2), so it comes back shifted to 0
    twins = FiniteMMSpace([0, 1], [0.5, 0.5], dist=[[0.0, 0.0], [0.0, 0.0]])
    pair = MeasurePair([0.0, 1.0], [1 / 3, 2 / 3])
    res = emd(twins, pair)
    assert res.distance == 0.0
    assert res.potential.tolist() == [0.0, 0.0]
    res.witness.check(pair, atol=1e-15)


def test_certificate_rejects_a_perturbed_potential(monkeypatch):
    cube = hamming_cube(3)
    pair = product_pair(cube, np.array([0.2, 0.5, 0.9]), np.array([0.7, 0.4, 0.1]))
    res = emd(cube, pair)
    simplex = transport._simplex

    def certify(potential):
        """emd's own flows, with potential in place of the simplex's"""
        def patched(*args):
            tail, head, amount, _ = simplex(*args)
            return tail, head, amount, np.array(potential, dtype=float)
        monkeypatch.setattr(transport, "_simplex", patched)

    certify(res.potential)
    assert emd(cube, pair).distance == res.distance
    bumped = res.potential.copy()
    bumped[int(np.argmax(np.abs(pair.mu1 - pair.mu2)))] += 1e-6
    certify(bumped)
    with pytest.raises(RuntimeError, match="transport certificate failed"):
        emd(cube, pair)
    # a potential that is not 1-Lipschitz from 1 to 0, on a metric: no
    # broken triangle to name, so the failure is the solver's
    two = FiniteMMSpace([0, 1], [0.5, 0.5], dist=[[0.0, 1.0], [1.0, 0.0]])
    certify([0.0, 2.0])
    with pytest.raises(RuntimeError, match="transport certificate failed"):
        emd(two, MeasurePair([0.75, 0.25], [0.25, 0.75]))
    # on the line 0 - 1 - 2 - 3, a potential that pairs with mu1 - mu2 to the
    # flow's value exactly but stretches (0, 1), two sources of no flow arc:
    # only the stretch fails, on a metric, so no triangle is named
    d = np.abs(np.subtract.outer(np.arange(4.0), np.arange(4.0)))
    line = FiniteMMSpace([0, 1, 2, 3], np.full(4, 0.25), dist=d)
    spread = MeasurePair([0.5, 0.5, 0.0, 0.0], np.full(4, 0.25))
    certify([4.0, 1.0, 1.0, 0.0])
    with pytest.raises(RuntimeError, match="exceeds the metric by 2.0 and misses the cost by 0.0"):
        emd(line, spread)
    # only pairs from the first support to the second are ever charged: from
    # point 0 to points 1 and 2 this potential proves the cost, though it
    # stretches (1, 2), a pair emd never reads
    broken = FiniteMMSpace([0, 1, 2], np.full(3, 1 / 3),
                           dist=[[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]])
    certify([3.0, 2.0, 0.0])
    res = emd(broken, MeasurePair([1.0, 0.0, 0.0], [0.0, 0.5, 0.5]))
    assert res.distance == 2.0 and res.potential.tolist() == [3.0, 2.0, 0.0]

    # emd itself checks the potential the simplex returns
    def simplex_with_bumped_potential(d, src, dst, excess, d_max):
        tail, head, amount, u = simplex(d, src, dst, excess, d_max)
        u[int(np.argmax(np.abs(excess)))] += 1e-6
        return tail, head, amount, u

    monkeypatch.setattr(transport, "_simplex", simplex_with_bumped_potential)
    with pytest.raises(RuntimeError, match="certificate"):
        emd(cube, pair)


def test_solver_duals_pass_the_certificate(tmp_path, capsys):
    # an LP solver at HiGHS' default dual feasibility (1e-7, absolute) once
    # left a dual that stretched this cloud's metric by 8.6e-8, past the
    # certificate's 1e-9 d_max, so a valid input raised RuntimeError and the
    # CLI exited 1
    rng = np.random.default_rng(2397)
    n = int(rng.integers(4, 16))
    cloud = FiniteMMSpace(list(range(n)), np.full(n, 1.0 / n),
                          points=rng.normal(size=(n, 2)), metric="euclidean")
    pair = MeasurePair(normalized(rng.integers(1, 10, n)), normalized(rng.integers(1, 10, n)))
    got = emd(cloud, pair).distance
    assert abs(got - emd_full_lp(cloud, pair)) <= 1e-12 * float(cloud.dist.max())

    files = {"space.json": space_to_json(cloud), "mu1.json": pair.mu1.tolist(),
             "mu2.json": pair.mu2.tolist()}
    for name, doc in files.items():
        (tmp_path / name).write_text(json.dumps(doc))
    argv = ["emd", "--space", tmp_path / "space.json", "--mu1", tmp_path / "mu1.json",
            "--mu2", tmp_path / "mu2.json"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["distance"] == got


def test_a_space_that_is_not_a_metric_is_refused(tmp_path, capsys):
    d = [[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]]
    space = FiniteMMSpace([0, 1, 2], [0.25, 0.5, 0.25], dist=d)
    pair = MeasurePair([0.5, 0.25, 0.25], [0.25, 0.25, 0.5])
    with pytest.raises(ValueError, match=r"d\[0,2\]=3\.0 exceeds d\[0,1\] \+ d\[1,2\]=2\.0"):
        emd(space, pair)
    # off the supports the broken triangle is never used: point masses on
    # 0 and 2 cost d[0, 2], the transport cost on the sub-space {0, 2}
    masses = MeasurePair([1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    assert emd(space, masses).distance == 3.0
    # a point in both supports, 2, is the middle point of the triangle that
    # a coupling could use: (1, 2) is stretched and names it.  Point 0 has no
    # mass, so the supports are points 1-4 of the space.
    broken = np.ones((5, 5)) - np.eye(5)
    broken[1, 3] = broken[3, 1] = 3.0
    five = FiniteMMSpace(list(range(5)), np.full(5, 0.2), dist=broken)
    with pytest.raises(ValueError, match=r"d\[1,3\]=3\.0 exceeds d\[1,2\] \+ d\[2,3\]=2\.0"):
        emd(five, MeasurePair([0.0, 0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.25, 0.5, 0.25]))
    # entries are named by their points in the space, not in the supports
    loop = FiniteMMSpace([0, 1, 2], np.full(3, 1 / 3),
                         dist=[[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.5]])
    with pytest.raises(ValueError, match=r"d\[2,2\]=0\.5 is not zero"):
        emd(loop, MeasurePair([0.0, 0.5, 0.5], [0.0, 0.5, 0.5]))
    gap = FiniteMMSpace([0, 1, 2], np.full(3, 1 / 3),
                        dist=[[0.0, 1.0, 1.0], [1.0, 0.0, np.inf], [1.0, np.inf, 0.0]])
    with pytest.raises(ValueError, match=r"not a metric: non-finite distance at \(1,2\)"):
        emd(gap, MeasurePair([0.0, 1.0, 0.0], [0.0, 0.0, 1.0]))
    # a failure within 1e-9 * d_max is float noise, not a broken metric, and
    # a diagonal entry that far below zero is no loop of negative cost
    d[0][2] = d[2][0] = 2.0 + 1e-12
    emd(FiniteMMSpace([0, 1, 2], [0.25, 0.5, 0.25], dist=d), pair)
    near = FiniteMMSpace([0, 1], [0.5, 0.5], dist=[[-1e-12, 1.0], [1.0, 0.0]])
    assert emd(near, MeasurePair([0.5, 0.5], [0.25, 0.75])).distance == pytest.approx(
        0.25, abs=1e-12)

    d[0][2] = d[2][0] = 3.0
    files = {"space.json": {"labels": [0, 1, 2], "weights": [0.25, 0.5, 0.25],
                            "metric": {"type": "matrix", "data": d}},
             "mu1.json": pair.mu1.tolist(), "mu2.json": pair.mu2.tolist()}
    for name, doc in files.items():
        (tmp_path / name).write_text(json.dumps(doc))
    argv = ["emd", "--space", tmp_path / "space.json", "--mu1", tmp_path / "mu1.json",
            "--mu2", tmp_path / "mu2.json"]
    assert main(argv) == 2
    assert "not a metric: d[0,2]=3.0" in json.loads(capsys.readouterr().err)["error"]


def test_a_negative_distance_is_refused(tmp_path, capsys):
    # points 0 and 1 are in both supports and d[0, 1] = -1: balanced point 0
    # gets a potential that d[0, 1] cannot hold, and the stretched pair names
    # the triangle 0 -> 1 -> 0, an input error
    d = [[0.0, -1.0, 1.0], [-1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
    space = FiniteMMSpace([0, 1, 2], np.full(3, 1 / 3), dist=d)
    message = "not a metric: d[0,0]=0.0 exceeds d[0,1] + d[1,0]=-2.0"
    pair = MeasurePair([0.5, 0.5, 0.0], [0.5, 0.25, 0.25])
    with pytest.raises(ValueError) as refused:
        emd(space, pair)
    assert str(refused.value) == message
    files = {"space.json": space_to_json(space), "mu1.json": pair.mu1.tolist(),
             "mu2.json": pair.mu2.tolist()}
    for name, doc in files.items():
        (tmp_path / name).write_text(json.dumps(doc))
    argv = ["emd", "--space", tmp_path / "space.json", "--mu1", tmp_path / "mu1.json",
            "--mu2", tmp_path / "mu2.json"]
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().err)["error"] == message


def test_measure_pair_validation():
    with pytest.raises(ValueError):
        MeasurePair([0.5, 0.5], [1.0])
    with pytest.raises(ValueError):
        MeasurePair([-0.1, 1.1], [0.5, 0.5])
    with pytest.raises(ValueError):
        MeasurePair([0.4, 0.4], [0.5, 0.5])
    with pytest.raises(ValueError, match="measure length does not match the space"):
        emd(hamming_cube(2), MeasurePair([0.5, 0.5], [0.25, 0.75]))


def test_point_masses_recover_the_metric():
    cube = hamming_cube(3)
    for i, j in [(0, 7), (0, 1), (3, 5)]:
        pair = MeasurePair(delta(8, i), delta(8, j))
        assert emd(cube, pair).distance == pytest.approx(cube.dist[i, j], abs=1e-12)


def test_face_to_face_transport():
    # shifting the uniform bottom face to the top face costs one bit flip each
    cube = hamming_cube(3)
    bottom = np.array([1, 1, 1, 1, 0, 0, 0, 0]) / 4.0
    top = np.array([0, 0, 0, 0, 1, 1, 1, 1]) / 4.0
    assert emd(cube, MeasurePair(bottom, top)).distance == pytest.approx(
        1 / 3, abs=1e-12)


def test_identical_measures_cost_nothing():
    cube = hamming_cube(3)
    mu = random_measure(np.random.default_rng(0), 8)
    assert emd(cube, MeasurePair(mu, mu)).distance <= 1e-12
    # equal but at one point, by less than the sums' tolerance: after the
    # rescaling every point ships or takes its share of the drift
    nu = mu.copy()
    nu[3] += 1e-10
    for pair in (MeasurePair(nu, mu), MeasurePair(mu, nu)):
        res = emd(cube, pair)
        assert 0.0 < res.distance <= 3e-10
        res.witness.check(pair, atol=1e-9)


def test_points_on_no_flow_arc_take_the_balanced_potential():
    # on the line 0 - ... - 5 point 5 has mass 0.2 in both measures, up to
    # one ulp: its excess, 1.1e-16, is left over once the targets are full,
    # so it stays on the root with no flow arc, and its potential must come
    # from the flow's targets, as a balanced point's does, or (3, 5) stretches
    d = np.abs(np.subtract.outer(np.arange(6.0), np.arange(6.0)))
    line = FiniteMMSpace(list(range(6)), np.full(6, 1 / 6), dist=d)
    pair = MeasurePair([0.2000000000000001, 0.0, 0.0, 0.5, 0.1, 0.2],
                       [0.5, 0.0, 0.0, 0.1, 0.2, 0.19999999999999998])
    res = emd(line, pair)
    assert abs(res.distance - emd_full_lp(line, pair)) <= 1e-12 * 5
    assert res.distance == pytest.approx(1.0, abs=1e-12)
    # mu1 is mu2 shrunk by 1e-11, within the sums' tolerance: rescaled, the
    # excess is -2.8e-17 at points 0 and 1 and 0 at point 2, with no point to
    # ship from, so nothing flows and the potential is flat
    res = emd(FiniteMMSpace([0, 1, 2], np.full(3, 1 / 3), dist=d[:3, :3]),
              MeasurePair([0.1428571428557143, 0.21428571428357143, 0.6428571428507144],
                          [0.14285714285714288, 0.2142857142857143, 0.6428571428571429]))
    assert res.distance == 0.0
    assert res.potential.tolist() == [0.0, 0.0, 0.0]


def test_sums_off_by_their_tolerance_keep_the_flow_balanced():
    # on the line 0 - 1 - 2 point 1 has mass 0.9 in both measures, whose sums
    # are 1e-9 apart: rescaled, its two masses differ by about 1.8e-9, and
    # unless that difference joins the flow the excess misses zero by it,
    # the pairing gap reaches about 2 * 1.8e-9 and row 0 of the witness is
    # short by as much
    d = np.abs(np.subtract.outer(np.arange(3.0), np.arange(3.0)))
    line = FiniteMMSpace([0, 1, 2], np.full(3, 1 / 3), dist=d)
    pair = MeasurePair([0.1 + 0.99e-9, 0.9, 0.0], [0.0, 0.9, 0.1 - 0.99e-9])
    res = emd(line, pair)
    assert res.distance == pytest.approx(0.2, abs=1e-8)
    assert abs(res.distance - emd_full_lp(line, pair)) <= 1e-8
    res.witness.check(pair)


@settings(max_examples=40, deadline=None)
@given(spaces(max_n=6), st.data())
def test_witness_is_a_feasible_optimal_coupling(space, data):
    mu1 = data.draw(measures_on(space.n))
    mu2 = data.draw(measures_on(space.n))
    pair = MeasurePair(mu1, mu2)
    res = emd(space, pair)
    res.witness.check(pair, atol=1e-9)
    cost = float((res.witness.joint * space.dist).sum())
    assert cost == pytest.approx(res.distance, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(spaces(max_n=6), st.data())
def test_metric_axioms(space, data):
    a = data.draw(measures_on(space.n))
    b = data.draw(measures_on(space.n))
    c = data.draw(measures_on(space.n))
    dab = emd(space, MeasurePair(a, b)).distance
    dba = emd(space, MeasurePair(b, a)).distance
    dac = emd(space, MeasurePair(a, c)).distance
    dcb = emd(space, MeasurePair(c, b)).distance
    assert dab == pytest.approx(dba, abs=1e-9)
    assert dab <= dac + dcb + 1e-9
    assert emd(space, MeasurePair(a, a)).distance <= 1e-9


@settings(max_examples=30, deadline=None)
@given(spaces(max_n=6), st.data())
def test_lipschitz_pairing_never_exceeds_distance(space, data):
    # |∫f dμ1 − ∫f dμ2| ≤ emd for 1-Lipschitz f: the dual direction
    mu1 = data.draw(measures_on(space.n))
    mu2 = data.draw(measures_on(space.n))
    raw = data.draw(st.lists(st.integers(-9, 9), min_size=space.n,
                             max_size=space.n))
    f = mcshane_envelope(np.asarray(raw, dtype=float), space.dist)
    gap = abs(float(f @ mu1) - float(f @ mu2))
    assert gap <= emd(space, MeasurePair(mu1, mu2)).distance + 1e-9


def test_oracle_agrees_when_masses_sit_on_the_grid():
    # quarters with grid=4 quantize exactly, so both routes must coincide
    cube = hamming_cube(2)
    pair = MeasurePair([0.25, 0.25, 0.25, 0.25], [0.5, 0.0, 0.0, 0.5])
    assert emd_oracle(cube, pair, grid=4) == pytest.approx(
        emd(cube, pair).distance, abs=1e-9)


def test_oracle_error_stays_within_quantization_budget():
    rng = np.random.default_rng(7)
    for _ in range(10):
        space = random_space(rng, 4)
        pair = MeasurePair(random_measure(rng, 4), random_measure(rng, 4))
        base = emd(space, pair).distance
        dmax = float(space.dist.max())
        for grid in (8, 64):
            assert abs(emd_oracle(space, pair, grid) - base) <= 3.0 * dmax / grid


def test_oracle_size_cap():
    cube = hamming_cube(3)
    mu = np.full(8, 1 / 8)
    with pytest.raises(ValueError):
        emd_oracle(cube, MeasurePair(mu, mu), grid=16)


def test_coupling_marginals():
    joint = np.array([[0.25, 0.25], [0.0, 0.5]])
    c = Coupling(joint)
    assert np.allclose(c.row_marginal, [0.5, 0.5])
    assert np.allclose(c.col_marginal, [0.25, 0.75])
    c.check(MeasurePair([0.5, 0.5], [0.25, 0.75]), atol=1e-12)
    with pytest.raises(ValueError, match="row marginal"):
        c.check(MeasurePair([0.9, 0.1], [0.25, 0.75]), atol=1e-9)
    with pytest.raises(ValueError, match="column marginal does not match mu2"):
        c.check(MeasurePair([0.5, 0.5], [0.5, 0.5]), atol=1e-9)
    with pytest.raises(ValueError, match="coupling must be a matrix"):
        Coupling(np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="coupling has negative entries"):
        Coupling(np.array([[0.6, -0.1], [0.0, 0.5]]))


def test_coupling_check_has_no_relative_slack():
    # numpy's allclose adds rtol * |mu| to atol by default: 1e-5 * 0.5 would
    # let marginals off by 4e-6 through a check at atol 1e-9
    c = Coupling(np.array([[0.5 + 4e-6, 0.0], [0.0, 0.5 - 4e-6]]))
    with pytest.raises(ValueError, match="row marginal"):
        c.check(MeasurePair([0.5, 0.5], [0.5 + 4e-6, 0.5 - 4e-6]), atol=1e-9)


def test_translate_distance():
    cube = hamming_cube(2)
    mu = np.array([0.7, 0.3, 0.0, 0.0])
    ident = np.arange(4)
    assert translate_distance(cube, mu, ident) <= 1e-12
    # swapping the two coordinates fixes 00 and 11, exchanges 01 and 10
    swap = np.array([0, 2, 1, 3])
    got = translate_distance(cube, mu, swap)
    assert got == pytest.approx(0.3 * 1.0, abs=1e-9)  # 01 -> 10 flips both bits
    with pytest.raises(ValueError, match="bijection"):
        translate_distance(cube, mu, np.array([0, 0, 1, 3]))


def test_a_pricing_run_stops_at_the_last_block(monkeypatch):
    # the solve pivots mid-cycle, so some doubling runs reach src's last
    # row; each run is one slice of src, and the solve is that of one-block
    # runs to the bit
    cloud, pair = gaussian_cloud(7, 300)
    mu1, mu2 = pair.mu1 / pair.mu1.sum(), pair.mu2 / pair.mu2.sum()
    src, neg = np.flatnonzero(mu1 > mu2), int((mu1 < mu2).sum())
    runs, stretch = [], transport._stretch

    def watched(d, rows, cols, potential):
        if cols.shape[0] == neg:  # a pricing scan, not the certificate's
            runs.append(rows.copy())
        return stretch(d, rows, cols, potential)

    monkeypatch.setattr(transport, "_stretch", watched)
    want = emd(cloud, pair)
    starts = [int(np.searchsorted(src, rows[0])) for rows in runs]
    assert all(np.array_equal(rows, src[k:k + rows.shape[0]]) for k, rows in zip(starts, runs))
    assert any(rows.shape[0] > 1 and rows[-1] == src[-1] for rows in runs)
    monkeypatch.setattr(transport, "_TILE_BYTES", 1)  # one block a scan
    runs.clear()
    got = emd(cloud, pair)
    assert {rows.shape[0] for rows in runs} == {1}
    assert got.distance == want.distance
    assert np.array_equal(got.witness.joint, want.witness.joint)
    assert np.array_equal(got.potential, want.potential)
