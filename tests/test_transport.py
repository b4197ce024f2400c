"""Transportation distance: solver against the quantized assignment oracle,
metric axioms, witness feasibility, and the dual pairing with 1-Lipschitz
observables."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (emd_oracle, mcshane_envelope, measures_on,
                      random_measure, random_space, spaces)
from mmlab.generators import hamming_cube
from mmlab.spaces import FiniteMMSpace
from mmlab.transport import Coupling, MeasurePair, emd, translate_distance


def delta(n, i):
    v = np.zeros(n)
    v[i] = 1.0
    return v


def test_measure_pair_validation():
    with pytest.raises(ValueError):
        MeasurePair([0.5, 0.5], [1.0])
    with pytest.raises(ValueError):
        MeasurePair([-0.1, 1.1], [0.5, 0.5])
    with pytest.raises(ValueError):
        MeasurePair([0.4, 0.4], [0.5, 0.5])


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
    with pytest.raises(ValueError):
        c.check(MeasurePair([0.9, 0.1], [0.25, 0.75]), atol=1e-9)


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
