"""Isometric actions, essential sets under translated thickenings, the
block-sphere demonstration, and exhaustive monochromatic-subset verification."""

import functools
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import normalized
from mmlab import spaces as spaces_module
from mmlab.cli import main
from mmlab.dynamics import (LEADER_THRESHOLD, ColoredHypergraph, Cover,
                            IsometricAction, concentration_property_check,
                            fixed_points, is_essential, leader_certificate,
                            _block_masses, leader_empirical, ramsey_verify,
                            translate_mask)
from mmlab.generators import hamming_cube, symmetric_group
from mmlab.spaces import FiniteMMSpace, neighborhood, save_space


# -- construction helpers ------------------------------------------------------

def cube_bit_rotation(n):
    """Point permutation of the n-cube induced by rotating coordinates."""
    idx = np.arange(1 << n)
    rot = ((idx << 1) | (idx >> (n - 1))) & ((1 << n) - 1)
    return rot


def left_translations(group_space):
    """Point permutations of a permutation-group space under left composition."""
    words = group_space.points.astype(int)
    index = {tuple(w): i for i, w in enumerate(words)}
    perms = []
    for g in words:
        perms.append(np.array([index[tuple(g[w])] for w in words]))
    return perms


def random_fixed_point_action(rng, n, n_gens=2):
    """Action fixing point 0 with a metric built constant on pair orbits, so
    invariance is exact in floats."""
    gens = [np.concatenate(([0], 1 + rng.permutation(n - 1)))
            for _ in range(n_gens)]
    orbit = -np.ones((n, n), dtype=int)
    next_id = 0
    for i in range(n):
        for j in range(i + 1, n):
            if orbit[i, j] >= 0:
                continue
            stack = [(i, j)]
            orbit[i, j] = orbit[j, i] = next_id
            while stack:
                a, b = stack.pop()
                for g in gens:
                    x, y = int(g[a]), int(g[b])
                    if orbit[x, y] < 0:
                        orbit[x, y] = orbit[y, x] = next_id
                        stack.append((x, y))
            next_id += 1
    vals = rng.integers(0, 10, size=next_id) / 10.0
    d = 1.0 + vals[orbit]
    np.fill_diagonal(d, 0.0)
    w = normalized(rng.integers(1, 10, size=n))
    space = FiniteMMSpace(list(range(n)), w, dist=d)
    return IsometricAction(space, gens)


def translate_commutation_check(action, mask, eps, g):
    """True iff translating commutes with thickening for this element; holds
    for every isometry, so a False return flags a corrupted action."""
    lhs = translate_mask(action, neighborhood(action.space, mask, eps), g)
    rhs = neighborhood(action.space, translate_mask(action, mask, g), eps)
    return bool(np.array_equal(lhs, rhs))


def random_cover(rng, n, parts):
    assign = rng.integers(0, parts, size=n)
    assign[:parts] = np.arange(parts)  # no empty parts
    return Cover([assign == p for p in range(parts)])


# -- action and cover validation -------------------------------------------------

def test_isometric_action_accepts_cube_rotation():
    cube = hamming_cube(3)
    action = IsometricAction(cube, [cube_bit_rotation(3)])
    assert len(action.elements) == 1


def test_isometric_action_rejects_non_isometry():
    d = np.array([[0.0, 1.0, 2.2], [1.0, 0.0, 1.2], [2.2, 1.2, 0.0]])
    x = FiniteMMSpace([0, 1, 2], [1 / 3] * 3, dist=d)
    with pytest.raises(ValueError, match="does not preserve the metric"):
        IsometricAction(x, [np.array([2, 1, 0])])
    # a loose tolerance lets the corrupted element through
    action = IsometricAction(x, [np.array([2, 1, 0])], atol=1.0)
    assert len(action.elements) == 1


def test_an_action_needs_no_dense_matrix(monkeypatch, tmp_path, capsys):
    cube = hamming_cube(4)
    flip = np.arange(16) ^ 1  # flipping the last bit is an isometry
    IsometricAction(cube, [cube_bit_rotation(4), flip])
    assert cube._dist is None
    # below the 4-cube's 16 points, the dense matrix is refused: the action
    # and the essential command still run
    monkeypatch.setattr(spaces_module, "_MATERIALIZE_CAP", 8)
    with pytest.raises(ValueError, match="too many for a dense matrix"):
        hamming_cube(4).dist
    assert len(IsometricAction(hamming_cube(4), [flip]).elements) == 1
    save_space(cube, tmp_path / "cube.json")
    (tmp_path / "action.json").write_text(json.dumps({"permutations": [flip.tolist()]}))
    assert main(["essential", "--space", str(tmp_path / "cube.json"), "--action",
                 str(tmp_path / "action.json"), "--set", "0,1", "--eps", "0.25",
                 "--family", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["essential"] is True


def test_an_action_refuses_a_nan_distance_at_any_block_size(monkeypatch):
    nan = float("nan")
    x = FiniteMMSpace([0, 1, 2], [1 / 3] * 3, dist=[[0, 1, 1], [1, 0, nan], [1, nan, 0]])
    for tile in (1 << 25, 64):  # one block, and one row a block
        monkeypatch.setattr(spaces_module, "_TILE_BYTES", tile)
        with pytest.raises(ValueError, match=r"^not a metric: non-finite distance at \(1,2\)$"):
            IsometricAction(x, [[1, 0, 2]])


def test_isometric_action_rejects_non_permutation():
    cube = hamming_cube(2)
    with pytest.raises(ValueError):
        IsometricAction(cube, [np.array([0, 0, 1, 2])])


def test_cover_must_partition():
    with pytest.raises(ValueError):
        Cover([[True, False], [False, False]])
    with pytest.raises(ValueError):
        Cover([[True, True], [False, True]])
    c = Cover([[True, False], [False, True]])
    assert len(c.parts) == 2


def test_translate_mask_is_the_image():
    cube = hamming_cube(3)
    rot = cube_bit_rotation(3)
    action = IsometricAction(cube, [rot])
    mask = np.zeros(8, dtype=bool)
    mask[[1, 3]] = True
    out = translate_mask(action, mask, 0)
    assert sorted(np.flatnonzero(out)) == sorted(rot[[1, 3]])


def test_fixed_points_of_bit_rotation():
    cube = hamming_cube(3)
    action = IsometricAction(cube, [cube_bit_rotation(3)])
    assert list(fixed_points(action)) == [0, 7]  # all-zeros and all-ones


# -- essential sets ----------------------------------------------------------------

def test_part_containing_a_fixed_point_is_essential():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(4, 9))
        action = random_fixed_point_action(rng, n)
        eps = float(rng.uniform(0.0, 0.5))
        family = list(range(len(action.elements)))
        cover = random_cover(rng, n, int(rng.integers(2, 4)))
        part_with_fp = next(p for p in cover.parts if p[0])
        res = is_essential(action, part_with_fp, eps, family)
        assert res.essential
        assert res.witness == 0  # the fixed point itself sits in every translate
        check = concentration_property_check(action, cover, eps, family)
        assert check.holds


def test_full_translate_family_on_small_group_reconstruction():
    # permutations of 4 symbols with displaced-fraction distance; the cover by
    # first-symbol value has measure-1/4 parts whose 0.2-thickening is itself,
    # and translating any part around kills the common intersection
    space = symmetric_group(4)
    perms = left_translations(space)
    action = IsometricAction(space, perms)
    words = space.points.astype(int)
    cover = Cover([words[:, 0] == v for v in range(4)])
    family = list(range(len(perms)))

    res = concentration_property_check(action, cover, 0.2, family)
    assert not res.holds
    assert res.essential_part is None
    for part in cover.parts:
        assert not is_essential(action, part, 0.2, family).essential

    # past the smallest positive distance the thickening floods the space
    res = concentration_property_check(action, cover, 0.6, family)
    assert res.holds
    assert res.essential_part == 0


def test_high_mass_thickening_meets_all_translates():
    # with uniform weights each translate keeps the same mass, so mass above
    # 1 - 1/m forces a common point across any m translates
    cube = hamming_cube(3)
    rot = cube_bit_rotation(3)
    action = IsometricAction(cube, [rot, rot[rot], np.arange(8)])
    ball = np.bitwise_count(np.arange(8)) <= 1
    family = [0, 1, 2]
    from mmlab.spaces import measure, neighborhood
    grown = neighborhood(cube, ball, 0.34)
    assert measure(cube, grown) > 1 - 1 / len(family)
    assert is_essential(action, ball, 0.34, family).essential


def test_translate_commutation():
    cube = hamming_cube(3)
    action = IsometricAction(cube, [cube_bit_rotation(3)])
    rng = np.random.default_rng(2)
    for _ in range(20):
        mask = rng.integers(0, 2, size=8).astype(bool)
        if not mask.any():
            mask[0] = True
        eps = float(rng.uniform(0, 1))
        assert translate_commutation_check(action, mask, eps, 0)

    # the deliberately corrupted element from above fails to commute
    d = np.array([[0.0, 1.0, 2.2], [1.0, 0.0, 1.2], [2.2, 1.2, 0.0]])
    x = FiniteMMSpace([0, 1, 2], [1 / 3] * 3, dist=d)
    bad = IsometricAction(x, [np.array([2, 1, 0])], atol=1.0)
    mask = np.array([True, False, False])
    assert not translate_commutation_check(bad, mask, 1.0, 0)


def test_essential_is_monotone_in_eps():
    rng = np.random.default_rng(3)
    action = random_fixed_point_action(rng, 7)
    family = list(range(len(action.elements)))
    mask = np.zeros(7, dtype=bool)
    mask[[2, 4]] = True  # avoids the fixed point on purpose
    flags = [is_essential(action, mask, eps, family).essential
             for eps in (0.0, 0.4, 0.95, 1.5, 2.0)]
    assert flags == sorted(flags)  # False can only turn True as eps grows
    assert flags[-1]  # beyond the diameter everything is essential


# -- block-sphere demonstration -----------------------------------------------------

def test_leader_threshold_value():
    want = math.sqrt(2.0) / 2.0 - math.sqrt(3.0) / 3.0
    assert LEADER_THRESHOLD == want
    assert abs(LEADER_THRESHOLD - 0.1297565119969216) < 1e-15


def test_leader_certificate_boundary():
    assert leader_certificate(0.1).inessential_certified
    assert leader_certificate(LEADER_THRESHOLD - 1e-9).inessential_certified
    assert not leader_certificate(LEADER_THRESHOLD).inessential_certified
    assert not leader_certificate(0.2).inessential_certified
    assert leader_certificate(0.1).threshold == LEADER_THRESHOLD
    with pytest.raises(ValueError):
        leader_certificate(0.0)


def test_leader_empirical_small_run():
    res = leader_empirical(30, 2000, 0.12, seed=1)
    assert res.violations == 0
    assert res.sample_count == 2000
    again = leader_empirical(30, 2000, 0.12, seed=1)
    assert again.violations == res.violations


def test_leader_empirical_memory_is_bounded():
    # a sample is three block masses, and each block of them is freed
    # before the next is drawn
    tracemalloc.start()
    try:
        res = leader_empirical(150, 20000, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.sample_count == 20000
    assert peak < 4 * 2 ** 20


def test_leader_empirical_cost_does_not_grow_with_the_dimension():
    # the d coordinates of a sample are never drawn: d = 6e8 here
    tracemalloc.start()
    try:
        res = leader_empirical(3 * 10**8, 20000, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.violations == 0 and res.sample_count == 20000
    assert peak < 4 * 2 ** 20


def gaussian_block_masses(rng, take, d, chunk=2000):
    """Oracle of the block-mass law: the squared norms of the three equal
    coordinate blocks of take normalized gaussian vectors in R^d."""
    out = []
    for t0 in range(0, take, chunk):
        g = rng.standard_normal((min(chunk, take - t0), 3, d // 3))
        sq = np.square(g).sum(axis=2)
        out.append(sq / sq.sum(axis=1, keepdims=True))
    return np.concatenate(out)


# a level L per dimension at which all three masses are >= L 1-50 % of the time
@pytest.mark.parametrize("d,level", [(6, 0.2), (30, 0.28), (300, 0.31)])
def test_block_masses_follow_the_gaussian_block_law(d, level):
    # Dirichlet(a, a, a), a = d/6: each mass has mean 1/3 and variance
    # 2 / (9 (3a + 1)); every statistic agrees within 5 sampling sigmas
    # with the exact value and with gaussian block sums
    k = 5.0
    var = 2.0 / (9.0 * (3.0 * d / 6.0 + 1.0))
    new = _block_masses(np.random.default_rng([11, d]), 40000, d)
    old = gaussian_block_masses(np.random.default_rng([12, d]), 10000, d)
    assert new.shape == (40000, 3)
    assert np.allclose(new.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def stats(m):
        first = m[:, 0]
        dev = np.square(first - first.mean())
        p = (m >= level).all(axis=1).mean()
        n = m.shape[0]
        return ((first.mean(), math.sqrt(first.var() / n)),
                (dev.mean(), dev.std() / math.sqrt(n)),
                (p, math.sqrt(p * (1 - p) / n)))

    got, want = stats(new), stats(old)
    assert 0.01 <= got[2][0] <= 0.5
    for (a, sa), (b, sb) in zip(got, want):
        assert abs(a - b) <= k * math.hypot(sa, sb)
    assert abs(got[0][0] - 1 / 3) <= k * got[0][1]
    assert abs(got[1][0] - var) <= k * got[1][1]
    if d == 6:  # Dirichlet(1, 1, 1) is uniform on the simplex
        assert abs(got[2][0] - (1 - 3 * level) ** 2) <= k * got[2][1]


def test_leader_empirical_input_validation():
    with pytest.raises(ValueError, match="divisible"):
        leader_empirical(10, 100, 0.12)
    with pytest.raises(ValueError):
        leader_empirical(30, 100, LEADER_THRESHOLD + 0.01)


# -- monochromatic subsets -------------------------------------------------------------

@functools.cache
def subset_groups(n, k, l):
    """Each l-subset of range(n) as the bitmask of the lexicographic indices
    of its k-subsets."""
    index = {s: i for i, s in enumerate(itertools.combinations(range(n), k))}
    return [sum(1 << index[s] for s in itertools.combinations(big, k))
            for big in itertools.combinations(range(n), l)]


def color_of(h, subset):
    """Color of one k-subset of a colored hypergraph."""
    index = list(itertools.combinations(range(h.n), h.k)).index(tuple(sorted(subset)))
    return int(h.colors[index])


def find_monochromatic(h, l):
    """Lexicographically smallest l-subset whose k-subsets all share one
    color, or None.  Depth-first search pruning any partial set as soon as a
    completed k-subset breaks the established color."""
    if l < h.k:
        mask = np.zeros(h.n, dtype=bool)
        mask[:l] = True  # no k-subsets to constrain
        return mask

    def extend(chosen, color, start):
        if len(chosen) == l:
            return chosen
        for v in range(start, h.n - (l - len(chosen)) + 1):
            col = color
            ok = True
            if len(chosen) >= h.k - 1:
                for rest in itertools.combinations(chosen, h.k - 1):
                    c = color_of(h, rest + (v,))
                    if col is None:
                        col = c
                    elif c != col:
                        ok = False
                        break
            if ok:
                got = extend(chosen + (v,), col, v + 1)
                if got is not None:
                    return got
        return None

    got = extend(tuple(), None, 0)
    if got is None:
        return None
    mask = np.zeros(h.n, dtype=bool)
    mask[list(got)] = True
    return mask


def brute_monochromatic_exists(n, k, colors, l):
    """Whether some l-subset has all its k-subsets in one color class."""
    classes = [0] * (max(colors) + 1)
    for i, c in enumerate(colors):
        classes[c] |= 1 << i
    return any(g & m == g for m in classes for g in subset_groups(n, k, l))


def brute_ramsey(k, l, r, n):
    """ramsey_verify's answer by trying the colorings in lexicographic order.
    Only those with the first subset's color 0 are tried: relabeling colors
    by first occurrence maps every coloring to one of them, and the smallest
    counterexample is one of them."""
    for tail in itertools.product(range(r), repeat=math.comb(n, k) - 1):
        if not brute_monochromatic_exists(n, k, (0,) + tail, l):
            return False, [0, *tail]
    return True, None


def test_colored_hypergraph_basics():
    h = ColoredHypergraph(4, 2, 2, [0, 1, 0, 1, 0, 1])
    assert color_of(h, (0, 1)) == 0
    assert color_of(h, (2, 3)) == 1
    with pytest.raises(ValueError):
        ColoredHypergraph(4, 2, 2, [0, 1])          # wrong length
    with pytest.raises(ValueError):
        ColoredHypergraph(4, 2, 2, [0, 2] * 3)      # color out of range


def test_find_monochromatic_vacuous_below_k():
    h = ColoredHypergraph(4, 2, 2, [0, 1, 0, 1, 0, 1])
    mask = find_monochromatic(h, 1)
    assert mask is not None and mask.sum() == 1


def test_find_monochromatic_on_pentagon_coloring():
    # 5-cycle edges one color, diagonals the other: no single-colored triangle
    edges = list(itertools.combinations(range(5), 2))
    cycle = {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}
    colors = [0 if e in cycle else 1 for e in edges]
    h = ColoredHypergraph(5, 2, 2, colors)
    assert find_monochromatic(h, 3) is None
    assert brute_monochromatic_exists(5, 2, colors, 3) is False


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=15, max_size=15))
def test_find_monochromatic_agrees_with_brute_force(colors):
    h = ColoredHypergraph(6, 2, 2, colors)
    mask = find_monochromatic(h, 3)
    exists = brute_monochromatic_exists(6, 2, colors, 3)
    assert (mask is not None) == exists
    if mask is not None:
        members = np.flatnonzero(mask)
        assert members.shape[0] == 3
        seen = {color_of(h, s) for s in itertools.combinations(members.tolist(), 2)}
        assert len(seen) == 1


def test_ramsey_transition_for_triangles():
    below = ramsey_verify(2, 3, 2, 5)
    assert not below.all_colorings_contain
    cx = below.counterexample
    assert cx is not None and len(cx.colors) == 10
    assert find_monochromatic(cx, 3) is None
    assert cx.colors[0] == 0  # canonical first symbol

    above = ramsey_verify(2, 3, 2, 6)
    assert above.all_colorings_contain
    assert above.counterexample is None


def test_ramsey_counterexample_is_deterministic():
    a = ramsey_verify(2, 3, 2, 5)
    b = ramsey_verify(2, 3, 2, 5)
    assert np.array_equal(a.counterexample.colors, b.counterexample.colors)


def test_ramsey_pigeonhole_case():
    # k=1 is the pigeonhole principle: r(l-1)+1 points force l alike
    assert ramsey_verify(1, 3, 2, 5).all_colorings_contain
    assert not ramsey_verify(1, 3, 2, 4).all_colorings_contain


def test_ramsey_agrees_with_brute_force():
    # every instance with r <= 64 and at most 4096 colorings to try, so
    # n <= 13; this reaches k >= 3, r = 3 and beyond, and l = n + 1
    for n in range(1, 14):
        for k in range(1, n + 1):
            c = math.comb(n, k)
            for r in (r for r in range(2, 65) if r ** (c - 1) <= 4096):
                for l in range(k, n + 2):
                    res = ramsey_verify(k, l, r, n)
                    cx = res.counterexample
                    got = (res.all_colorings_contain,
                           None if cx is None else cx.colors.tolist())
                    assert got == brute_ramsey(k, l, r, n), (k, l, r, n)
                    assert cx is None or (cx.n, cx.k, cx.r) == (n, k, r)


def test_ramsey_closed_forms_need_no_enumeration():
    # each of these has more than 2^22 colorings to sweep
    assert ramsey_verify(1, 6, 3, 16).all_colorings_contain  # 16 > 3 * 5
    cx = ramsey_verify(1, 6, 3, 15).counterexample
    assert cx.colors.tolist() == [0] * 5 + [1] * 5 + [2] * 5
    assert ramsey_verify(3, 3, 2, 7).all_colorings_contain   # l = k


def test_ramsey_sweep_memory_is_bounded():
    # 2^20 colorings of the 21 edges of K_7, decided 2^16 at a time
    tracemalloc.start()
    try:
        assert ramsey_verify(2, 3, 2, 7).all_colorings_contain
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_ramsey_closed_form_counterexample_memory_is_bounded():
    # l > n: the all-zero coloring of C(22, 9) = 497,420 subsets, whose
    # subset index is built only if a search reads it
    tracemalloc.start()
    try:
        res = ramsey_verify(9, 23, 2, 22)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not res.all_colorings_contain
    colors = res.counterexample.colors
    assert colors.shape == (math.comb(22, 9),) and not colors.any()
    assert peak < 8 << 20


def test_ramsey_refuses_a_counterexample_past_the_cap():
    with pytest.raises(ValueError, match=r"C\(30, 15\) = 155117520 subsets, over the cap 4194304"):
        ramsey_verify(15, 31, 2, 30)
    with pytest.raises(ValueError, match="over the cap"):
        ramsey_verify(1, 2, 1 << 23, 1 << 23)  # pigeonhole: one color a point
    # theorems that answer "contains" need no counterexample, so no cap
    assert ramsey_verify(1, 2, 1, 1 << 23).all_colorings_contain


def test_ramsey_degenerate_cases():
    assert ramsey_verify(2, 3, 1, 3).all_colorings_contain   # one color only
    assert not ramsey_verify(2, 3, 2, 2).all_colorings_contain  # l > n
    with pytest.raises(ValueError):
        ramsey_verify(2, 3, 2, 30)  # enumeration blow-up rejected
    with pytest.raises(ValueError):
        ramsey_verify(0, 3, 2, 5)
