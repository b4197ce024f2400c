"""Reference values for the benchmark's output checks, computed apart from
mmlab.

Nothing here imports mmlab.  Values come from closed forms, evaluated in
exact rational arithmetic where the form allows it, so a fault in the
program cannot hide in its own check.  `self_check()` pins every oracle to
known values before any output is judged by it.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

# |lower bound - cap| on a sampled sphere of n points stays within
# SAMPLING_WIDTH / sqrt(n): the band between a half-mass ball and its
# eps-thickening has empirical mass within about 0.5 / sqrt(n) of its law.
SAMPLING_WIDTH = 3.0

LEADER_THRESHOLD = math.sqrt(2.0) / 2.0 - math.sqrt(3.0) / 3.0


# -- observable distance to the one-point space ----------------------------

def cube_distance_law(n):
    """Law of d(., y) on the uniform n-cube: Binomial(n, 1/2) / n."""
    return [(Fraction(k, n), Fraction(math.comb(n, k), 2 ** n)) for k in range(n + 1)]


def _derangements(m):
    d = [1, 0]
    for i in range(2, m + 1):
        d.append((i - 1) * (d[-1] + d[-2]))
    return d[m]


def symmetric_group_distance_law(n):
    """Law of the fraction of displaced symbols on the uniform S_n:
    (n - fixed points) / n, weighted by the rencontres numbers."""
    total = math.factorial(n)
    law = [(Fraction(n - k, n), Fraction(math.comb(n, k) * _derangements(n - k), total))
           for k in range(n + 1)]
    return [(a, m) for a, m in law if m]


def product_distance_laws(base, n):
    """Laws of d(., y) on the n-fold product of the alphabet weights `base`
    (Fractions) under the normalized mismatch metric, one law per letter
    multiset of y: coordinate j mismatches with probability 1 - base[y_j]."""
    laws = []
    for letters in itertools.combinations_with_replacement(range(len(base)), n):
        counts = [Fraction(1)]  # counts[k] = P(k mismatches so far)
        for letter in letters:
            q = 1 - base[letter]
            nxt = [Fraction(0)] * (len(counts) + 1)
            for k, pk in enumerate(counts):
                nxt[k] += pk * (1 - q)
                nxt[k + 1] += pk * q
            counts = nxt
        laws.append([(Fraction(k, n), pk) for k, pk in enumerate(counts) if pk])
    return laws


def best_constant_fit(law):
    """Distance in me1 from a function with the given value law to the
    nearest constant: min over atom windows [a_i, a_j] of
    max((a_j - a_i) / 2, mass outside the window)."""
    law = sorted(law)
    best = Fraction(1)
    for i in range(len(law)):
        inside = Fraction(0)
        for j in range(i, len(law)):
            inside += law[j][1]
            best = min(best, max((law[j][0] - law[i][0]) / 2, 1 - inside))
    return best


def obs_distance_to_point(laws):
    """Observable distance of a space with more than 12 points to the
    one-point space, as the extreme family of 1-Lipschitz distance
    functions sees it: the largest best-constant fit over the laws of
    d(., y)."""
    return max(best_constant_fit(law) for law in laws)


# -- concentration functions -------------------------------------------------

def harper_cube_alpha(n, eps):
    """Concentration function of the uniform n-cube with normalized hamming
    metric, from Harper's vertex-isoperimetric theorem.  The extremal
    half-mass set is a Hamming ball (n odd) or a ball plus the star of the
    next layer around one coordinate (n even); its t-thickening, with
    t = floor(n * eps), is the same shape grown by t."""
    t = math.floor(Fraction(eps) * n)
    r = (n - 1) // 2 + t if n % 2 else n // 2 - 1 + t
    count = sum(math.comb(n, k) for k in range(min(r, n) + 1))
    if n % 2 == 0:
        count += math.comb(n - 1, r)
    return max(Fraction(0), 1 - Fraction(count, 2 ** n))


def sphere_cap_alpha(dim, eps):
    """Concentration function of the round sphere S^dim with geodesic
    metric: the cap beyond distance eps from a hemisphere,
    1/2 * I_{cos^2 eps}(dim / 2, 1/2)."""
    if eps >= math.pi / 2:
        return 0.0
    from scipy.special import betainc
    return 0.5 * float(betainc(dim / 2.0, 0.5, math.cos(eps) ** 2))


def chord_to_arc(eps):
    """Geodesic distance on the unit sphere for a chord of length eps."""
    return 2.0 * math.asin(min(eps, 2.0) / 2.0)


def sampling_tolerance(n):
    return SAMPLING_WIDTH / math.sqrt(n)


# -- transport -----------------------------------------------------------------

def product_measure_emd(p, q):
    """Transportation distance between product measures on the n-cube with
    normalized hamming metric: mean_i |p_i - q_i|.  Coordinatewise optimal
    couplings attain it, and f(x) = mean_i sign(p_i - q_i) x_i, which is
    1-Lipschitz, certifies it from below."""
    return sum(abs(a - b) for a, b in zip(p, q)) / len(p)


def product_measure(bits, p):
    """Mass of one vertex (a 0/1 tuple) under the product of Bernoulli(p_i)."""
    return math.prod(pi if b else 1 - pi for b, pi in zip(bits, p))


# -- group actions and Ramsey ---------------------------------------------------

def has_monochromatic_triangle(n, colors):
    """colors follows the lexicographic order of the 2-subsets of range(n)."""
    index = {e: i for i, e in enumerate(itertools.combinations(range(n), 2))}
    for a, b, c in itertools.combinations(range(n), 3):
        if colors[index[(a, b)]] == colors[index[(a, c)]] == colors[index[(b, c)]]:
            return True
    return False


# -- medians and tails -------------------------------------------------------------

def median_and_tail(values, weights, eps):
    """Smallest value with mass at least 1/2 on both sides, and the mass
    farther than eps from it.  Exact when the weights are Fractions."""
    pairs = sorted(zip(values, weights))
    total = sum(w for _, w in pairs)
    below = 0
    i = 0
    while i < len(pairs):
        v = pairs[i][0]
        above = total - below
        while i < len(pairs) and pairs[i][0] == v:
            below += pairs[i][1]
            i += 1
        if 2 * below >= total and 2 * above >= total:
            return v, sum(w for x, w in pairs if abs(x - v) > eps)
    raise ValueError("no median")


# -- self-check -------------------------------------------------------------------

def _brute_cube_alpha(n, eps):
    """Exhaustive concentration function of a small cube, exact.  Only
    half-size sets are tried: a superset only grows the thickening."""
    pts = range(1 << n)
    t = math.floor(Fraction(eps) * n)
    ball = {x: {y for y in pts if bin(x ^ y).count("1") <= t} for x in pts}
    best = min(len(set().union(*(ball[x] for x in subset)))
               for subset in itertools.combinations(pts, (1 << n) // 2))
    return 1 - Fraction(best, 1 << n)


def self_check():
    """Raise ValueError if an oracle misses a known value."""
    problems = []

    def expect(label, got, want):
        if got != want:
            problems.append(f"{label}: {got} != {want}")

    known = [(cube_distance_law(4), Fraction(1, 4)), (cube_distance_law(5), Fraction(7, 32)),
             (cube_distance_law(6), Fraction(7, 32)), (cube_distance_law(7), Fraction(3, 14)),
             (symmetric_group_distance_law(4), Fraction(1, 4)),
             (symmetric_group_distance_law(5), Fraction(1, 5))]
    for i, (law, want) in enumerate(known):
        expect(f"obs oracle case {i}", obs_distance_to_point([law]), want)
    half = Fraction(1, 2)
    expect("uniform product laws are cube laws",
           product_distance_laws([half, half], 5), [cube_distance_law(5)] * 6)
    expect("rencontres total", sum(m for _, m in symmetric_group_distance_law(6)), 1)

    expect("harper n=4 eps=1/4", harper_cube_alpha(4, 0.25), Fraction(1, 8))
    for n in (2, 3):
        for eps in (0.2, 0.4, 0.7, 1.0):
            expect(f"harper n={n} eps={eps}", harper_cube_alpha(n, eps),
                   _brute_cube_alpha(n, eps))

    for eps in (0.1, 0.5, 1.2):
        if abs(sphere_cap_alpha(2, eps) - (1 - math.sin(eps)) / 2) > 1e-14:
            problems.append(f"cap S^2 at {eps}")
        if abs(sphere_cap_alpha(1, eps) - (0.5 - eps / math.pi)) > 1e-14:
            problems.append(f"cap S^1 at {eps}")
    if abs(chord_to_arc(math.sqrt(2.0)) - math.pi / 2) > 1e-15:
        problems.append("chord of a right angle")

    # emd form: the dual certificate and the product coupling both give it
    p = [Fraction(1, 5), Fraction(2, 3), Fraction(1, 2)]
    q = [Fraction(3, 4), Fraction(1, 3), Fraction(1, 2)]
    cube = list(itertools.product((0, 1), repeat=3))
    sign = [1 if a > b else -1 for a, b in zip(p, q)]
    dual = sum((product_measure(x, p) - product_measure(x, q))
               * Fraction(sum(s * b for s, b in zip(sign, x)), 3) for x in cube)
    expect("emd dual certificate", dual, product_measure_emd(p, q))

    def coord_coupling(a, b):  # optimal 2x2 coupling of Bernoulli(a), Bernoulli(b)
        both = min(a, b)
        none = min(1 - a, 1 - b)
        return {(1, 1): both, (0, 0): none, (1, 0): a - both, (0, 1): b - both}

    cps = [coord_coupling(a, b) for a, b in zip(p, q)]
    primal = sum(math.prod(c[(x[i], y[i])] for i, c in enumerate(cps))
                 * Fraction(sum(u != v for u, v in zip(x, y)), 3)
                 for x in cube for y in cube)
    expect("emd product coupling", primal, product_measure_emd(p, q))

    pentagon = [1 if (b - a) in (1, 4) else 0
                for a, b in itertools.combinations(range(5), 2)]
    expect("pentagon has no triangle", has_monochromatic_triangle(5, pentagon), False)
    expect("one color has a triangle", has_monochromatic_triangle(5, [0] * 10), True)

    m, tail = median_and_tail([Fraction(k) for k in (0, 1, 1, 3)], [Fraction(1, 4)] * 4,
                              Fraction(3, 2))
    expect("median", (m, tail), (Fraction(1), Fraction(1, 4)))
    if problems:
        raise ValueError("oracle self-check failed: " + "; ".join(problems))
