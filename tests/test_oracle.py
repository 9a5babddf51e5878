"""50-digit references for every metric with a closed form, an exact
finite maximum or a root solve.

Each reference evaluates its formula in mpmath at the exact binary value
of the float inputs, so a comparison sees only the package's own
rounding.  The inputs cover the regimes the sampler stresses: ball radii
up to 1 - 1e-6, half-space heights from 1e-6 to 1e6, and clouds of sigma
down to 1e-6 around punctures.  A second test covers the float range:
half-space pairs scaled by 1e-300 to 1e300, complement points 1e-170
and 1e-250 from a puncture, and complement points 1e200 away, where
every value must come out finite.

The accuracy claim stops at the least normal float: a point closer than
that to a puncture has its distance rounded by ``math.dist`` by up to
41%.  One such point is pinned as data, with the package's value and the
50-digit value, and the claim is tested just above the threshold.

The one-sided Apollonian supremum lambda(x, y) = sup_p |p-x| / |p-y|
over the boundary is the ratio at which the Apollonian sphere around y
first touches the boundary.  Then eta = log max(lambda(x, y),
lambda(y, x)) and alpha = log lambda(x, y) + log lambda(y, x).  The
half-space Cassinian metric takes the least product of distances over
the real roots of a cubic, found by ``polyroots``, and the two feet; the
ball Cassinian metric over the arguments of the roots of a quartic in
the complex plane through 0, x and y, and the projections of x and y;
s on the ball likewise, over the roots of the Ptolemy-Alhazen quartic.

Tolerance: 1e-12 relative plus 8 eps absolute, the absolute term
multiplied on the ball by (1 + 1/d(x) + 1/d(y)), since 1 - |x| inherits
the rounding of |x| relatively amplified by 1/d(x).
"""

import math
import sys

import mpmath
import numpy as np
import pytest

from hypmetrics.geometry import FiniteComplement, UnitBall, UpperHalfSpace
from hypmetrics.metrics import alpha_pair_form, evaluate_metric
from hypmetrics.suite import _checked_pair

MP = mpmath.MPContext()
MP.dps = 50
EPS = 2.0**-52
REL = 1e-12


def _mp(v):
    return [MP.mpf(float(c)) for c in v]


def _norm(v):
    return MP.sqrt(MP.fsum(c * c for c in v))


def _dist(a, b):
    return _norm([p - q for p, q in zip(a, b)])


def _boundary_distances(domain, x):
    """Distances from x to the finite boundary points (ball and half-space:
    to the nearest one)."""
    if isinstance(domain, UnitBall):
        return [1 - _norm(x)]
    if isinstance(domain, UpperHalfSpace):
        return [x[-1]]
    return [_dist(x, _mp(p)) for p in domain.removed]


def lam(domain, x, y):
    """sup over the boundary of |p-x| / |p-y|, x and y in mpmath."""
    r = _dist(x, y)
    if isinstance(domain, UnitBall):
        tx, ty = 1 - _norm(x) ** 2, 1 - _norm(y) ** 2
        return (MP.sqrt(r * r + tx * ty) + r) / ty
    if isinstance(domain, UpperHalfSpace):
        return (r + MP.sqrt(r * r + 4 * x[-1] * y[-1])) / (2 * y[-1])
    best = max(a / b for a, b in zip(_boundary_distances(domain, x), _boundary_distances(domain, y)))
    # the point at infinity, a boundary point when flagged, gives ratio 1
    return max(best, MP.one) if domain.includes_infinity_boundary else best


def complement_metric(name, removed, flag, x, y):
    """alpha or delta at 50 digits on the complement of the mpmath points
    ``removed`` and, where ``flag``, of the point at infinity; x and y in
    mpmath, so that a caller may pass points formed at 50 digits."""
    r = _dist(x, y)
    dxs, dys = [_dist(x, p) for p in removed], [_dist(y, p) for p in removed]
    if name == "alpha":
        # the point at infinity, a boundary point when flagged, gives ratio 1
        lam_xy, lam_yx = max(a / b for a, b in zip(dxs, dys)), max(b / a for a, b in zip(dxs, dys))
        if flag:
            lam_xy, lam_yx = max(lam_xy, MP.one), max(lam_yx, MP.one)
        return MP.log(lam_xy) + MP.log(lam_yx)
    # the largest cross-ratio |p,x,q,y| over the finite boundary
    best = max(_dist(p, q) * r / (a * b) for p, a in zip(removed, dxs) for q, b in zip(removed, dys))
    if flag:
        # a pair with one entry at infinity leaves |x-y| over the other's distance
        best = max([best] + [r / a for a in dxs + dys])
    return MP.log(1 + best)


def _least_foot_product(x, y):
    """Least g(tau) = (tau^2 + h_x^2) ((tau-l)^2 + h_y^2) on the boundary
    line through the feet of x and y (at tau = 0 and tau = l): the least
    squared product of the distances to the half-space boundary."""
    # solved in units of s = l + h_x + h_y, so that the coefficients are
    # of order 1 at every scale; g scales as s^4
    s = _dist(x[:-1], y[:-1]) + x[-1] + y[-1]
    ell, hx, hy = _dist(x[:-1], y[:-1]) / s, x[-1] / s, y[-1] / s
    roots = MP.polyroots([2, -3 * ell, ell**2 + hx**2 + hy**2, -ell * hx**2], maxsteps=200, extraprec=200)
    # the real part of any root is a boundary point too, so taking it for
    # the complex roots adds candidates without passing the minimum
    taus = [MP.zero, ell] + [MP.re(t) for t in roots]
    return s**4 * min((t * t + hx * hx) * ((t - ell) ** 2 + hy * hy) for t in taus)


def _plane_pair(x, y):
    """x and y as the complex numbers |x| and |y| e^{i gamma} of the plane
    through 0, x and y, with gamma from |x ^ y|."""
    n = len(x)
    wedge = MP.sqrt(MP.fsum((x[i] * y[j] - x[j] * y[i]) ** 2 for i in range(n) for j in range(i + 1, n)))
    gamma = MP.atan2(wedge, MP.fsum(p * q for p, q in zip(x, y)))
    return MP.mpc(_norm(x)), _norm(y) * MP.expj(gamma), gamma


def _ball_least_product(x, y):
    """Least |p-x|^2 |p-y|^2 over the unit sphere, x and y in mpmath.

    In the plane through 0, x and y take x = |x| and y = |y| e^{i gamma}
    as complex numbers, gamma from |x ^ y|.  For |z| = 1, |z-x|^2 |z-y|^2
    = Q(z) / z^2 with Q(z) = (conj(x) z^2 - (1+|x|^2) z + x) (conj(y) z^2 -
    (1+|y|^2) z + y), so its critical points on the circle are roots of
    z Q'(z) - 2 Q(z).  The arguments of all four roots and the two anchors
    (the projections of x and y) are the candidates.
    """
    a, b, gamma = _plane_pair(x, y)
    q = [MP.mpc(0)] * 5  # coefficients of Q, highest degree first
    for i, c1 in enumerate((MP.conj(a), -(1 + abs(a) ** 2), a)):
        for j, c2 in enumerate((MP.conj(b), -(1 + abs(b) ** 2), b)):
            q[i + j] += c1 * c2
    # z Q' - 2 Q has the coefficients (k - 2) q_k; a zero point drops the degree
    poly = [(2 - i) * c for i, c in enumerate(q)]
    while poly[0] == 0:
        poly.pop(0)
    thetas = [MP.zero, gamma] + [MP.arg(z) for z in MP.polyroots(poly, maxsteps=400, extraprec=300)]
    return min(abs(MP.expj(t) - a) ** 2 * abs(MP.expj(t) - b) ** 2 for t in thetas)


def _ball_least_sum(x, y):
    """Least |p-x| + |p-y| over the unit sphere, x and y in mpmath.

    With x and y complex numbers as in ``_ball_least_product``, the
    points z of the unit circle where the sum is critical reflect the ray
    from x into the ray to y; they are roots of the Ptolemy-Alhazen
    quartic conj(x y) z^4 - conj(x + y) z^3 + (x + y) z - x y.  The
    arguments of all its roots and the two anchors are the candidates.
    """
    a, b, gamma = _plane_pair(x, y)
    # highest degree first; a zero point drops the degree
    poly = [MP.conj(a * b), -MP.conj(a + b), MP.mpc(0), a + b, -a * b]
    while poly[0] == 0:
        poly.pop(0)
    thetas = [MP.zero, gamma] + [MP.arg(z) for z in MP.polyroots(poly, maxsteps=400, extraprec=300)]
    return min(abs(MP.expj(t) - a) + abs(MP.expj(t) - b) for t in thetas)


def reference(domain, name, x, y):
    x, y = _mp(x), _mp(y)
    r = _dist(x, y)
    dxs, dys = _boundary_distances(domain, x), _boundary_distances(domain, y)
    dx, dy = min(dxs), min(dys)
    if name == "u":
        return 2 * MP.log((r + max(dx, dy)) / MP.sqrt(dx * dy))
    if name == "j":
        return MP.log(1 + r / min(dx, dy))
    if name == "j_tilde":
        return (MP.log(1 + r / dx) + MP.log(1 + r / dy)) / 2
    if name in ("alpha", "delta") and isinstance(domain, FiniteComplement):
        removed = [_mp(p) for p in domain.removed]
        return complement_metric(name, removed, domain.includes_infinity_boundary, x, y)
    if name == "rho" or name == "delta":
        if isinstance(domain, UnitBall):
            return 2 * MP.asinh(r / MP.sqrt((1 - _norm(x) ** 2) * (1 - _norm(y) ** 2)))
        return 2 * MP.asinh(r / (2 * MP.sqrt(x[-1] * y[-1])))
    if name == "eta":
        return MP.log(max(lam(domain, x, y), lam(domain, y, x)))
    if name == "alpha":
        return MP.log(lam(domain, x, y)) + MP.log(lam(domain, y, x))
    if name == "cassinian":
        if isinstance(domain, UpperHalfSpace):
            return r / MP.sqrt(_least_foot_product(x, y))
        if isinstance(domain, UnitBall):
            return r / MP.sqrt(_ball_least_product(x, y))
        return max(r / (a * b) for a, b in zip(dxs, dys))
    if name == "triangular":
        if isinstance(domain, UpperHalfSpace):
            return r / _dist(x, y[:-1] + [-y[-1]])
        if isinstance(domain, UnitBall):
            return r / _ball_least_sum(x, y)
        return min(MP.one, max(r / (a + b) for a, b in zip(dxs, dys)))
    raise KeyError(name)


def tolerance(domain, x, y, value) -> float:
    amplification = 1.0
    if isinstance(domain, UnitBall):
        amplification += 1.0 / domain.distance_to_boundary(x) + 1.0 / domain.distance_to_boundary(y)
    return REL * abs(value) + 8.0 * EPS * amplification


def _unit(rng, n):
    g = rng.standard_normal(n)
    return g / np.linalg.norm(g)


def _extreme_pairs(domain, rng):
    """Hand-placed pairs at the edges of the sampler's regimes."""
    n = domain.dim
    if isinstance(domain, UnitBall):
        rim = [(1.0 - 1e-6) * _unit(rng, n) for _ in range(6)]
        pairs = [(a, b) for a in rim for b in rim if a is not b]
        pairs += [(a, s * _unit(rng, n)) for a in rim for s in (0.0, 0.5, 0.9, 1.0 - 1e-3)]
        # close pairs hugging the sphere
        pairs += [(a, a * (1.0 - 1e-7) + 1e-7 * _unit(rng, n)) for a in rim]
        # deep pairs: depths 1e-8 to 1e-1, angles 1e-8 to 1 apart; drawn from
        # a generator of their own, so that the sampler pairs after them stay
        deep = np.random.default_rng(4040 + n)
        for _ in range(40):
            a, v = _unit(deep, n), _unit(deep, n)
            v -= (v @ a) * a
            v /= np.linalg.norm(v)
            dx, dy = 10.0 ** deep.uniform(-8.0, -1.0, 2)
            t = 10.0 ** deep.uniform(-8.0, 0.0)
            pairs.append(((1.0 - dx) * a, (1.0 - dy) * (math.cos(t) * a + math.sin(t) * v)))
        return pairs
    if isinstance(domain, UpperHalfSpace):
        pairs = []
        for hx in (1e-6, 1e-3, 1.0, 1e3, 1e6):
            for hy in (1e-6, 1.0, 1e6):
                for offset in (0.0, 1e-6, 1.0, 1e3):
                    x = np.zeros(n)
                    x[-1] = hx
                    y = np.zeros(n)
                    y[:-1] = offset * _unit(rng, n - 1)
                    y[-1] = hy
                    if not (x == y).all():
                        pairs.append((x, y))
        return pairs
    pairs = []
    for p in domain.removed:
        for sigma in (1e-6, 1e-3):
            x = p + sigma * _unit(rng, n)
            pairs += [(x, p + sigma * _unit(rng, n)), (x, p + 10.0 * _unit(rng, n))]
    return pairs


def _pairs(domain):
    rng = np.random.default_rng(2024 + domain.dim)
    return _extreme_pairs(domain, rng) + [(x.x, y.x) for x, y in (_checked_pair(domain, rng) for _ in range(250))]


E1 = [1.0, 0.0, 0.0]
PUNCT3 = [[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 3.0, 1.0]]
DOMAINS = [
    UnitBall(2),
    UnitBall(3),
    UpperHalfSpace(3),
    UpperHalfSpace(5),
    FiniteComplement(3, [E1]),
    FiniteComplement(3, PUNCT3),
    FiniteComplement(3, PUNCT3, includes_infinity_boundary=False),
]
CLOSED = {
    UnitBall: ("u", "rho", "j", "j_tilde", "eta", "alpha"),
    UpperHalfSpace: ("u", "rho", "j", "j_tilde", "eta", "alpha", "cassinian", "triangular"),
    FiniteComplement: ("u", "j", "j_tilde", "delta", "eta", "alpha", "cassinian", "triangular"),
}
CASES = [(d, name) for d in DOMAINS for name in CLOSED[type(d)]]


def _case_id(case):
    domain, name = case
    tag = f"{type(domain).__name__}{domain.dim}-{name}"
    if isinstance(domain, FiniteComplement):
        tag += f"-m{len(domain.removed)}" + ("" if domain.includes_infinity_boundary else "-noinf")
    return tag


@pytest.mark.parametrize("domain, name", CASES, ids=[_case_id(c) for c in CASES])
def test_metric_meets_its_50_digit_reference(domain, name):
    for x, y in _pairs(domain):
        got = evaluate_metric(domain, name, x, y)
        want = reference(domain, name, x, y)
        assert float(abs(MP.mpf(got) - want)) <= tolerance(domain, x, y, float(want)), (
            name, x.tolist(), y.tolist(), got, float(want)
        )
        assert evaluate_metric(domain, name, y, x) == got, (name, x.tolist(), y.tolist())


def _range_pairs(domain):
    """Pairs over the float range, each a pair of the sampler's kind of
    geometry at an extreme scale.

    On the half-space: heights 1e-2 to 1e2 and offsets 0 to 1e2, the pair
    scaled by 1e-300 to 1e300, so that heights and offsets run from 1e-302
    to 1e302.  On a finite complement: points 1e-170 or 1e-250 from a
    puncture (moved along the puncture's zero coordinates, so that the
    offset survives rounding), paired with a point as near the same or
    another puncture or with one at distance 10, and points about 1e200
    away, paired with each other or with a point at distance 10.  A pair
    mixing the two complement scales is left out: its distance ratios of
    about 1e370 are beyond the float range.
    """
    rng = np.random.default_rng(3030 + domain.dim)
    n = domain.dim
    pairs = []
    if isinstance(domain, UpperHalfSpace):
        for scale in (1e-300, 1e-250, 1e-200, 1e-170, 1e-100, 1e100, 1e170, 1e200, 1e250, 1e300):
            for hx, hy, offset in ((1e-2, 1.0, 0.0), (1.0, 1.0, 1.0), (1e2, 1e-2, 1e-2), (1.0, 1e2, 1e2), (1.0, 1.0, 1e-2)):
                x, y = np.zeros(n), offset * np.append(_unit(rng, n - 1), 0.0)
                x[-1], y[-1] = hx, hy
                pairs.append((scale * x, scale * y))
        return pairs

    def near(p, tiny):
        v = np.where(p == 0.0, rng.standard_normal(n), 0.0)
        return p + tiny * rng.uniform(0.5, 2.0) * v / np.linalg.norm(v)

    removed = list(domain.removed)
    for tiny in (1e-170, 1e-250):
        for p in removed:
            x = near(p, tiny)
            pairs += [(x, near(p, tiny)), (x, p + 10.0 * _unit(rng, n))]
            pairs += [(x, near(q, tiny)) for q in removed if q is not p]
    for _ in range(6):
        x = 1e200 * rng.uniform(0.5, 2.0) * _unit(rng, n)
        pairs += [(x, 1e200 * rng.uniform(0.5, 2.0) * _unit(rng, n)), (x, removed[0] + 10.0 * _unit(rng, n))]
    return pairs


RANGE_DOMAINS = [
    UpperHalfSpace(2),
    UpperHalfSpace(3),
    FiniteComplement(3, [[0.0, 0.0, 0.0]]),
    FiniteComplement(3, PUNCT3),
    FiniteComplement(3, PUNCT3, includes_infinity_boundary=False),
]
RANGE_CASES = [
    (d, name) for d in RANGE_DOMAINS for name in CLOSED[type(d)] + (("delta",) if isinstance(d, UpperHalfSpace) else ())
]


@pytest.mark.parametrize("domain, name", RANGE_CASES, ids=[_case_id(c) for c in RANGE_CASES])
def test_metric_meets_its_reference_over_the_float_range(domain, name):
    # no kernel squares a length or multiplies two where the product
    # could leave the float range, so every value here is finite, within
    # the same tolerance as in the sampler's regimes, and symmetric
    for x, y in _range_pairs(domain):
        got = evaluate_metric(domain, name, x, y)
        want = reference(domain, name, x, y)
        assert math.isfinite(got), (name, x.tolist(), y.tolist(), got)
        assert float(abs(MP.mpf(got) - want)) <= tolerance(domain, x, y, float(want)), (
            name, x.tolist(), y.tolist(), got, float(want)
        )
        assert evaluate_metric(domain, name, y, x) == got, (name, x.tolist(), y.tolist())


@pytest.mark.parametrize("flag", [True, False], ids=["inf", "noinf"])
def test_alpha_with_a_ratio_beyond_the_float_range(flag):
    # 1e-170 from a puncture beside a point 1e200 away, the tiny-huge pair
    # of tests/test_bit_identity.py: the largest ratio |p-y| / |p-x| of
    # about 1e370 overflows, and its log is taken as a difference of logs;
    # so is that of |x-y| / d(x) in j and j_tilde, and eta's
    domain = FiniteComplement(3, PUNCT3, includes_infinity_boundary=flag)
    x, y = np.array([1e-170, 0.0, 0.0]), np.array([1e200, 0.0, 0.0])
    for a, b in ((x, y), (y, x)):
        for name in ("alpha", "j", "j_tilde", "eta"):
            got = evaluate_metric(domain, name, a, b)
            want = reference(domain, name, a, b)
            assert float(abs(MP.mpf(got) - want)) <= tolerance(domain, a, b, float(want)), (name, got, float(want))
            if name == "alpha":
                pair = alpha_pair_form(domain, a, b)
                assert abs(pair - got) <= tolerance(domain, a, b, float(want)), (got, pair)


# Outside the accuracy claim, kept as data as the known counterexample of
# tests/test_acceptance.py is: y is 5e-324 * sqrt(2) from the puncture at
# the origin, a subnormal distance that math.dist rounds to 5e-324, so
# d(y) is low by a factor sqrt 2, and u, which is 2 log of a quotient by
# sqrt(d(x) d(y)), comes out log sqrt 2 above its 50-digit value.
# metric -> (x, y, the package's value, the 50-digit value to 10
# significant digits)
SUBNORMAL_OUTLIERS = {"u": ([0.5, 0.0, 0.0], [0.0, 5e-324, -5e-324], 745.1332191019412, 744.7866455)}


def test_a_subnormal_distance_to_a_puncture_is_outside_the_accuracy_claim():
    domain = FiniteComplement(3, PUNCT3)
    for name, (x, y, pinned, exact) in SUBNORMAL_OUTLIERS.items():
        x, y = np.array(x), np.array(y)
        assert 0.0 < domain.distance_to_boundary(y) < sys.float_info.min
        got = evaluate_metric(domain, name, x, y)
        want = reference(domain, name, x, y)
        assert got == pinned
        assert MP.nstr(want, 10) == str(exact)
        assert float(abs(MP.mpf(got) - want)) > tolerance(domain, x, y, float(want))
        assert math.isclose(got - float(want), 0.5 * math.log(2.0), rel_tol=1e-9)


@pytest.mark.parametrize("flag", [True, False], ids=["inf", "noinf"])
def test_the_accuracy_claim_holds_just_above_the_least_normal_distance(flag):
    # a point 1 to 16 times the least normal float from each puncture of the
    # 3-point catalog complement, moved along the puncture's zero
    # coordinates (the components themselves may be subnormal), against
    # the pinned outlier's x, a point 10 away and a point 1e-300 from
    # another puncture: every metric at the oracle's tolerance
    domain = FiniteComplement(3, PUNCT3, includes_infinity_boundary=flag)
    rng = np.random.default_rng(3131)
    for p in domain.removed:
        others = [q for q in domain.removed if q is not p]
        for factor in (1.0, 1.0000001, 1.5, 2.0, 4.0, 16.0):
            v = np.where(p == 0.0, rng.standard_normal(3), 0.0)
            y = p + factor * sys.float_info.min * (v / np.linalg.norm(v))
            d = domain.distance_to_boundary(y)
            assert sys.float_info.min <= d < 17.0 * sys.float_info.min
            for x in (np.array([0.5, 0.0, 0.0]), p + 10.0 * _unit(rng, 3), others[0] + np.array([0.0, 1e-300, 0.0])):
                for name in CLOSED[FiniteComplement]:
                    got = evaluate_metric(domain, name, y, x)
                    want = reference(domain, name, y, x)
                    assert float(abs(MP.mpf(got) - want)) <= tolerance(domain, y, x, float(want)), (
                        name, y.tolist(), x.tolist(), got, float(want)
                    )


@pytest.mark.parametrize("y", [[0.0, 1e300], [1e300, 1e-300]], ids=["above", "beside"])
def test_distance_ratio_beyond_the_float_range_on_the_half_space(y):
    # |x-y| / x_n is about 1e600 for x at height 1e-300; j and j_tilde
    # take its log as log |x-y| - log x_n
    domain, x, y = UpperHalfSpace(2), np.array([0.0, 1e-300]), np.array(y)
    for name in ("j", "j_tilde"):
        for a, b in ((x, y), (y, x)):
            got = evaluate_metric(domain, name, a, b)
            want = reference(domain, name, a, b)
            assert float(abs(MP.mpf(got) - want)) <= tolerance(domain, a, b, float(want)), (name, got, float(want))


@pytest.mark.parametrize(
    "x, y", [([-8e307, 1e308], [8e307, 1.7e308]), ([0.0, 1e308], [1e308, 1e308])], ids=["higher", "level"]
)
def test_half_space_cassinian_near_the_float_maximum(x, y):
    # ell + h_x + h_y overflows; the value is subnormal, so it is held to
    # the relative tolerance alone
    domain, x, y = UpperHalfSpace(2), np.array(x), np.array(y)
    for a, b in ((x, y), (y, x)):
        got = evaluate_metric(domain, "cassinian", a, b)
        want = reference(domain, "cassinian", a, b)
        assert 0.0 < got < sys.float_info.min
        assert float(abs(MP.mpf(got) - want)) <= REL * float(want), (got, float(want))


@pytest.mark.parametrize("domain", [UnitBall(2), UnitBall(3)], ids=repr)
def test_ball_cassinian_meets_its_50_digit_reference(domain):
    # compared on the log scale, where the tolerance's 1/d amplification
    # applies: the value ~ 1/(d(x) d(y)) carries the relative rounding of
    # 1 - |x| and 1 - |y|
    for x, y in _pairs(domain):
        got = evaluate_metric(domain, "cassinian", x, y)
        want = MP.log(reference(domain, "cassinian", x, y))
        assert abs(float(MP.log(got) - want)) <= tolerance(domain, x, y, float(want)), (
            x.tolist(), y.tolist(), got, float(MP.exp(want))
        )
        assert evaluate_metric(domain, "cassinian", y, x) == got, (x.tolist(), y.tolist())


@pytest.mark.parametrize("domain", [UnitBall(2), UnitBall(3)], ids=repr)
def test_ball_triangular_meets_its_50_digit_reference(domain):
    # on the log scale, like the Cassinian metric: for a pair near the
    # sphere s ~ |x-y| / (d(x) + d(y)) carries the rounding of 1 - |x|
    for x, y in _pairs(domain):
        got = evaluate_metric(domain, "triangular", x, y)
        want = MP.log(reference(domain, "triangular", x, y))
        assert abs(float(MP.log(got) - want)) <= tolerance(domain, x, y, float(want)), (
            x.tolist(), y.tolist(), got, float(MP.exp(want))
        )
        assert evaluate_metric(domain, "triangular", y, x) == got, (x.tolist(), y.tolist())


def test_cassinian_at_a_sharp_ball_minimum():
    # both points 1e-6 from the sphere and 1e-6 apart: the product of
    # distances has a sharp minimum between the two poles, where a plain
    # root solve of the quartic (np.roots plus both anchors) gives 707106.25.
    # The value ~ 1/(d(x) d(y)) carries the relative rounding of 1 - |x|,
    # so it is compared on the log scale, where the tolerance's 1/d
    # amplification applies.
    ball = UnitBall(3)
    x = np.array([0.5999994, 0.7999992, 0.0])
    y = np.array([0.5999986000005, 0.7999997999990001, 0.0])
    want = MP.mpf("799999.36002271656893")
    got = evaluate_metric(ball, "cassinian", x, y)
    assert abs(float(MP.log(got) - MP.log(want))) <= tolerance(ball, x, y, float(MP.log(want))), got


def _textbook_eta(x, y):
    """eta on the ball from lambda(x, y) = (1-|x|^2) / ([x,y] - |x-y|),
    which cancels when x or y hugs the sphere."""
    r = float(np.linalg.norm(x - y))
    tx, ty = 1.0 - float(np.dot(x, x)), 1.0 - float(np.dot(y, y))
    bracket = math.sqrt(r * r + tx * ty)
    return math.log(max(tx / (bracket - r), ty / (bracket - r)))


def test_the_tolerance_rejects_the_cancelling_lambda_form():
    # the textbook form loses about 1.9e-5 relative at 1 - |x| = 1e-6;
    # an oracle that let it pass could not guard the ball's closed form
    ball = UnitBall(3)
    ratios = []
    for x, y in _pairs(ball):
        want = float(reference(ball, "eta", x, y))
        ratios.append(abs(_textbook_eta(x, y) - want) / tolerance(ball, x, y, want))
    assert max(ratios) > 1e3


@pytest.mark.parametrize("domain", [UnitBall(2), UpperHalfSpace(2)], ids=repr)
def test_lambda_is_the_boundary_supremum(domain):
    # a dense scan of the boundary circle or line stays below lambda and
    # comes within the scan's resolution of it
    rng = np.random.default_rng(31)
    th = np.linspace(-math.pi, math.pi, 200_000, endpoint=False)
    if isinstance(domain, UnitBall):
        boundary = np.stack([np.cos(th), np.sin(th)], axis=1)
    else:
        boundary = np.stack([40.0 * np.tan(0.5 * th), np.zeros_like(th)], axis=1)
    for _ in range(20):
        if isinstance(domain, UnitBall):
            x, y = (rng.uniform(0.0, 0.8) * _unit(rng, 2) for _ in range(2))
        else:
            x, y = (np.array([rng.normal(), 10.0 ** rng.uniform(-0.5, 0.5)]) for _ in range(2))
        scan = float(np.max(np.linalg.norm(boundary - x, axis=1) / np.linalg.norm(boundary - y, axis=1)))
        exact = float(lam(domain, _mp(x), _mp(y)))
        assert exact * (1.0 - 1e-6) <= scan <= exact * (1.0 + 1e-12)
