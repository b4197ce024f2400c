"""Argument and constructor refusals of the library, and its rarely taken
branches: one case each, with the exact message or value it gives."""

import math

import pytest

from mmlab.concentration import (LipschitzFunction, SearchConfig, alpha_lower_bound,
                                 concentration_curve, hamming_cube_alpha, levy_check,
                                 majority_ball_upper, median, sphere_cap_alpha, tail_check)
from mmlab.dynamics import (Cover, IsometricAction, concentration_property_check,
                            is_essential, leader_certificate, leader_empirical)
from mmlab.generators import (SamplerConfig, hamming_cube, hamming_cube_sampled, product_space,
                              sl2_word_metric, so_n_sampled, sphere_sampled,
                              symmetric_group_sampled)
from mmlab.observable import StepFunction, obs_distance
from mmlab.spaces import (ConcentrationCurve, FiniteMMSpace, alpha_exact, diameter, measure,
                          neighborhood, point_space)
from mmlab.transport import MeasurePair, emd

CURVE = ConcentrationCurve([0.1, 0.2], [0.25, 0.0], kind="exact")
CSV = "eps,alpha,kind\n"
NAN = float("nan")
INF = float("inf")


def broken(i, j):
    """Three points at distance 1 but for d(i, j) = nan."""
    d = [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
    d[i][j] = d[j][i] = NAN
    return FiniteMMSpace([0, 1, 2], [1 / 3] * 3, dist=d)


def outcome(call):
    """What a call gives: its value, or the message of the ValueError it raises."""
    try:
        return call()
    except ValueError as e:
        return str(e)


CASES = {
    # concentration
    "lipschitz-negative-constant": (lambda: LipschitzFunction([0.0], constant=-1.0),
                                    "Lipschitz constant must be nonnegative"),
    "lipschitz-nan-constant": (lambda: LipschitzFunction([0.0], constant=NAN),
                               "Lipschitz constant must be nonnegative"),
    "lipschitz-nan-value": (lambda: LipschitzFunction([0.0, NAN, 1.0]),
                            "Lipschitz values must be finite: value 1 is nan"),
    "lipschitz-inf-value": (lambda: LipschitzFunction([float("-inf"), 0.0]),
                            "Lipschitz values must be finite: value 0 is -inf"),
    "lipschitz-check-length": (lambda: LipschitzFunction([0.0]).check(hamming_cube(1)),
                               "value vector length does not match the space"),
    # a nan distance once stopped the check's argmax before (0,2)'s violation
    "lipschitz-check-nan-distance": (lambda: LipschitzFunction([0.0, 0.0, 1.0]).check(
        FiniteMMSpace([0, 1, 2], [1 / 3] * 3, dist=[[0.0, NAN, 0.1], [NAN, 0.0, 1.0],
                                                     [0.1, 1.0, 0.0]])),
                                     "not a metric: non-finite distance at (0,1)"),
    "majority-ball-eps": (lambda: majority_ball_upper(point_space(), 0.0),
                          "eps must be positive"),
    "majority-ball-nan-eps": (lambda: majority_ball_upper(point_space(), NAN),
                              "eps must be positive"),
    "lower-bound-nan-eps": (lambda: alpha_lower_bound(point_space(), NAN),
                            "eps must be positive"),
    "median-length": (lambda: median(hamming_cube(1), LipschitzFunction([0.0])),
                      "value vector length does not match the space"),
    "tail-eps": (lambda: tail_check(point_space(), LipschitzFunction([0.0]), 0.0),
                 "eps must be positive"),
    "tail-nan-eps": (lambda: tail_check(point_space(), LipschitzFunction([0.0]), NAN),
                     "eps must be positive"),
    "levy-no-curves": (lambda: levy_check([]), "no curves"),
    "levy-one-curve": (lambda: levy_check([CURVE], threshold=0.3).is_levy_trend, True),
    "levy-nan-threshold": (lambda: levy_check([CURVE], threshold=NAN),
                           "threshold must be a finite number, got nan"),
    "levy-nan-slack": (lambda: levy_check([CURVE], slack=NAN),
                       "slack must be a finite number, got nan"),
    "cube-alpha-eps": (lambda: hamming_cube_alpha(3, 0.0), "eps must be positive"),
    "cube-alpha-nan-eps": (lambda: hamming_cube_alpha(3, NAN), "eps must be positive"),
    "sphere-cap-nan-eps": (lambda: sphere_cap_alpha(2, NAN), "eps must be positive"),
    "curve-mode": (lambda: concentration_curve(point_space(), [0.1], mode="upper"),
                   "unknown mode 'upper'"),
    "search-restarts": (lambda: SearchConfig(restarts=-1), "restarts must be at least 0, got -1"),
    "search-ball-anchors": (lambda: SearchConfig(ball_anchors=-1),
                            "ball_anchors must be at least 0, got -1"),
    "search-anchor-budget": (lambda: SearchConfig(anchor_budget=-1),
                             "anchor_budget must be at least 0, got -1"),
    # dynamics
    "cover-no-parts": (lambda: Cover([]), "cover needs at least one part"),
    "cover-empty-part": (lambda: concentration_property_check(
        IsometricAction(point_space(), [[0]]), Cover([[False], [True]]), 0.1,
        [0]).essential_part, 1),
    "essential-empty-set": (lambda: is_essential(IsometricAction(point_space(), [[0]]),
                                                 [False], 0.1, [0]),
                            "empty set has no neighborhood"),
    "leader-certificate-nan-eps": (lambda: leader_certificate(NAN), "eps must be positive"),
    "leader-nan-eps": (lambda: leader_empirical(3, 10, NAN),
                       "eps must be below the certificate threshold"),
    "leader-sample-count": (lambda: leader_empirical(3, 0, 0.1),
                            "sample_count must be positive"),
    # generators
    "sampler-count": (lambda: SamplerConfig(sample_count=0), "sample_count must be at least 1"),
    "cube-sampled-dim": (lambda: hamming_cube_sampled(0, SamplerConfig()),
                         "cube dimension must be positive"),
    "symmetric-sampled-degree": (lambda: symmetric_group_sampled(0, SamplerConfig()),
                                 "degree must be positive"),
    "sphere-dim": (lambda: sphere_sampled(0, SamplerConfig()),
                   "sphere dimension must be positive"),
    "sphere-metric": (lambda: sphere_sampled(2, SamplerConfig(), metric="taxicab"),
                      "metric must be euclidean or geodesic, got 'taxicab'"),
    "so-n-degree": (lambda: so_n_sampled(1, SamplerConfig()), "rotation group needs n >= 2"),
    "sl2-one": (lambda: sl2_word_metric(1), "1 is not prime"),
    "sl2-odd-composite": (lambda: sl2_word_metric(9), "9 is not prime"),
    "sl2-composite-above-cap": (lambda: sl2_word_metric(15),
                                "p=15 exceeds the cap 13 (order grows as p^3)"),
    "product-empty-base": (lambda: product_space([], 2),
                           "base_weights must be a nonempty vector"),
    "product-n": (lambda: product_space([1.0], 0), "n must be positive"),
    # observable
    "step-values": (lambda: StepFunction([0.0, 1.0], [0.0, 1.0]),
                    "need one value per interval"),
    # spaces
    "space-no-points": (lambda: FiniteMMSpace([], []), "a space needs at least one point"),
    "space-weight-count": (lambda: FiniteMMSpace([0, 1], [1.0]), "1 weights for 2 labels"),
    "space-metric-kind": (lambda: FiniteMMSpace([0], [1.0], dist=[[0.0]], metric="taxicab"),
                          "unknown metric kind 'taxicab'"),
    "space-no-dist": (lambda: FiniteMMSpace([0], [1.0]), "matrix metric needs a dist matrix"),
    "space-dist-shape": (lambda: FiniteMMSpace([0], [1.0], dist=[[0.0, 1.0]]),
                         "dist shape (1, 2), expected (1, 1)"),
    "space-no-points-array": (lambda: FiniteMMSpace([0], [1.0], metric="euclidean"),
                              "euclidean metric needs a points array"),
    "space-points-shape": (lambda: FiniteMMSpace([0], [1.0], points=[1.0], metric="euclidean"),
                           "points shape (1,), expected (1, d)"),
    "space-repr": (lambda: repr(hamming_cube(2)), "FiniteMMSpace(n=4, metric='hamming')"),
    # distances are finite by construction
    "space-nan-distance": (lambda: FiniteMMSpace([0, 1], [0.5, 0.5], dist=[[0.0, NAN],
                                                                           [1.0, 0.0]]),
                           "not a metric: non-finite distance at (0,1)"),
    "space-inf-distance": (lambda: FiniteMMSpace([0, 1], [0.5, 0.5], dist=[[0.0, 1.0],
                                                                           [INF, 0.0]]),
                           "not a metric: non-finite distance at (1,0)"),
    "space-nan-coordinate": (lambda: FiniteMMSpace([0, 1], [0.5, 0.5], points=[[0.0, 1.0],
                                                                               [NAN, 0.0]],
                                                   metric="euclidean"),
                             "point 1 has squared norm nan, but 8 |x|^2 must be finite for "
                             "finite distances"),
    # 8 |x|^2 overflows past |x| of about 4.7e153
    "space-huge-euclidean": (lambda: FiniteMMSpace([0], [1.0], points=[[5e153]],
                                                   metric="euclidean"),
                             "point 0 has squared norm 2.5e+307, but 8 |x|^2 must be finite "
                             "for finite distances"),
    "space-large-euclidean": (lambda: math.isfinite(FiniteMMSpace(
        [0], [1.0], points=[[4e153]], metric="euclidean")._kernel.score_slack), True),
    "space-inf-operator-norm": (lambda: FiniteMMSpace([0], [1.0], points=[[1.0, 0.0, 0.0, INF]],
                                                      metric="operator_norm"),
                                "point 0 has squared norm inf, but 8 |x|^2 must be finite "
                                "for finite distances"),
    "space-nan-geodesic": (lambda: FiniteMMSpace([0], [1.0], points=[[0.0, NAN, 1.0]],
                                                 metric="sphere_geodesic"),
                           "point 0 has squared norm nan, but 8 |x|^2 must be finite "
                           "for finite distances"),
    "neighborhood-nan-eps": (lambda: neighborhood(point_space(), [True], NAN),
                             "eps must be nonnegative"),
    "alpha-exact-nan-eps": (lambda: alpha_exact(point_space(), NAN), "eps must be positive"),
    "thickened-score-shape": (lambda: hamming_cube(2).thickened(
        [True, False, False, False], 0.5, score=[0.0]), "score shape (1,), expected (4,)"),
    "mask-shape": (lambda: measure(point_space(), [True, False]),
                   "mask shape (2,), expected (1,)"),
    "curve-not-1d": (lambda: ConcentrationCurve([[0.1]], [[0.1]], kind="exact"),
                     "eps and alpha must be 1-d arrays of equal length"),
    "curve-empty": (lambda: ConcentrationCurve([], [], kind="exact"), "empty curve"),
    "curve-eps-zero": (lambda: ConcentrationCurve([0.0], [0.1], kind="exact"),
                       "eps grid must be strictly positive"),
    "curve-eps-nan": (lambda: ConcentrationCurve([0.1, NAN], [0.1, 0.1], kind="exact"),
                      "eps grid must be strictly positive"),
    "curve-alpha-nan": (lambda: ConcentrationCurve([0.1], [NAN], kind="exact"),
                        "alpha values must lie in [0, 1/2]"),
    "curve-len": (lambda: len(CURVE), 2),
    "csv-blank-row": (lambda: ConcentrationCurve.from_csv_text(
        CSV + "\n0.1,0.25,exact\n").alpha.tolist(), [0.25]),
    "csv-kinds": (lambda: ConcentrationCurve.from_csv_text(
        CSV + "0.1,0.25,exact\n0.2,0.0,analytic_cap\n"), "curve rows disagree on kind"),
    # transport
    "measure-nan-mass": (lambda: MeasurePair([NAN, 0.5], [0.5, 0.5]),
                         "mu1 sums to nan, expected 1"),
    "measure-sum": (lambda: MeasurePair([0.5, 0.5], [4.0, 4.0]), "mu2 sums to 8.0, expected 1"),
    # readers that once built answers on a nan distance: the space is refused
    "majority-ball-nan-distance": (lambda: majority_ball_upper(broken(1, 2), 0.5),
                                   "not a metric: non-finite distance at (1,2)"),
    "diameter-nan-distance": (lambda: diameter(broken(1, 2)),
                              "not a metric: non-finite distance at (1,2)"),
    "action-nan-distance": (lambda: IsometricAction(broken(1, 2), [[0, 1, 2]]),
                            "not a metric: non-finite distance at (1,2)"),
    # d(0,2) lies outside the measures' supports, where the potential extends
    "emd-nan-distance-outside": (lambda: emd(broken(0, 2), MeasurePair(
        [0.5, 0.5, 0.0], [0.25, 0.75, 0.0])), "not a metric: non-finite distance at (0,2)"),
    # inf * 0 is nan, where the check's argmax once stopped
    "lipschitz-inf-constant": (lambda: LipschitzFunction([0.0, 1.0], constant=float("inf")),
                               "Lipschitz constant must be finite, got inf"),
    "alpha-exact-nan-distance": (lambda: alpha_exact(broken(1, 2), 1.0),
                                 "not a metric: non-finite distance at (1,2)"),
    "obsdist-nan-distance": (lambda: obs_distance(broken(1, 2), point_space()),
                             "not a metric: non-finite distance at (1,2)"),
    "obsdist-nan-distance-in-y": (lambda: obs_distance(point_space(), broken(0, 2)),
                                  "not a metric: non-finite distance at (0,2)"),
    # neighborhood refuses the mask, after the eps
    "essential-mask-shape": (lambda: is_essential(IsometricAction(point_space(), [[0]]),
                                                  [True, False], 0.1, [0]),
                             "mask shape (2,), expected (1,)"),
    "essential-mask-shape-nan-eps": (lambda: is_essential(IsometricAction(point_space(), [[0]]),
                                                          [True, False], NAN, [0]),
                                     "eps must be nonnegative"),
}


@pytest.mark.parametrize("call, expected", CASES.values(), ids=CASES.keys())
def test_edge_gives_its_message_or_value(call, expected):
    got = outcome(call)
    assert got == expected and type(got) is type(expected)
