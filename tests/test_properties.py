"""Property tests: the metric axioms, and the Mobius invariance of delta
and alpha, on inputs drawn by hypothesis across the sampler's regimes."""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypmetrics.geometry import FiniteComplement, UnitBall, UpperHalfSpace, is_infinity
from hypmetrics.metrics import (
    alpha_metric,
    cassinian,
    delta_metric,
    eta_metric,
    j_metric,
    j_tilde,
    rho,
    triangular_ratio,
    u_metric,
)
from hypmetrics.mobius import (
    MobiusMap,
    Orthogonal,
    Scaling,
    SphereInversion,
    Translation,
    ball_automorphism,
    map_domain,
)

# derandomized, so a tier-1 run is reproducible and needs no example database
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

EPS = 2.0**-52
BALL = UnitBall(3)
HALF = UpperHalfSpace(3)
PUNCT1 = FiniteComplement(3, [[1.0, 0.0, 0.0]])
PUNCT3 = FiniteComplement(3, [[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 3.0, 1.0]])
PUNCT3_NOINF = FiniteComplement(3, PUNCT3.removed, includes_infinity_boundary=False)

# the metrics whose triangle inequality the catalog asserts; alpha and rho
# are checked for the other axioms (alpha is a pseudo-metric in general)
TRIANGLE = (u_metric, j_tilde, j_metric, delta_metric, eta_metric, cassinian, triangular_ratio)

finite = st.floats(-1.0, 1.0, allow_nan=False)
direction = st.tuples(finite, finite, finite).map(np.array).filter(lambda v: np.dot(v, v) > 1e-4)


@st.composite
def ball_points(draw):
    # uniform-ish radii and radii 1 - 10^-k up to k = 6, as the sampler draws
    v = draw(direction)
    k = draw(st.floats(0.05, 6.0))
    radius = draw(st.one_of(st.floats(0.0, 0.95), st.just(1.0 - 10.0**-k)))
    return radius * v / math.sqrt(np.dot(v, v))


@st.composite
def half_points(draw):
    a, b = draw(finite), draw(finite)
    return np.array([4.0 * a, 4.0 * b, 10.0 ** draw(st.floats(-6.0, 6.0))])


@st.composite
def complement_points(draw, domain):
    # clouds down to sigma 1e-6 around a removed point, or far out
    v = draw(direction)
    if draw(st.booleans()):
        centre = domain.removed[draw(st.integers(0, len(domain.removed) - 1))]
        p = centre + 10.0 ** draw(st.floats(-6.0, 0.5)) * v
    else:
        p = 3.0 * v
    return p


def _points(domain):
    if isinstance(domain, UnitBall):
        return ball_points()
    if isinstance(domain, UpperHalfSpace):
        return half_points()
    return complement_points(domain)


def _admissible(domain, *pts):
    return all(domain.contains(p) for p in pts)


def _triples(domain):
    return st.tuples(_points(domain), _points(domain), _points(domain)).filter(
        lambda t: _admissible(domain, *t)
    )


def _check_axioms(domain, metrics, x, y, z):
    for m in metrics:
        dxy, dyx = m(domain, x, y), m(domain, y, x)
        assert m(domain, x, x) == 0.0
        assert dxy >= 0.0
        assert abs(dxy - dyx) <= 1e-12 * abs(dxy) + 1e-15, m.__name__
        if m in TRIANGLE:
            bound = m(domain, x, z) + m(domain, z, y)
            assert dxy <= bound * (1.0 + 1e-9) + 1e-12, m.__name__


@PROPERTY
@given(_triples(BALL))
def test_axioms_on_the_ball(t):
    _check_axioms(BALL, TRIANGLE + (rho, alpha_metric), *t)


@PROPERTY
@given(_triples(HALF))
def test_axioms_on_the_half_space(t):
    _check_axioms(HALF, TRIANGLE + (rho, alpha_metric), *t)


@PROPERTY
@given(_triples(PUNCT3))
def test_axioms_on_a_three_point_complement(t):
    _check_axioms(PUNCT3, TRIANGLE + (alpha_metric,), *t)


@PROPERTY
@given(_triples(PUNCT1))
def test_axioms_on_a_punctured_space(t):
    _check_axioms(PUNCT1, TRIANGLE + (alpha_metric,), *t)


@st.composite
def mobius_maps(draw):
    """Compositions of one to three generators of the kinds the catalog's
    random maps use."""
    gens = []
    for kind in draw(st.lists(st.integers(0, 3), min_size=1, max_size=3)):
        if kind == 0:
            gens.append(Translation(2.0 * draw(direction)))
        elif kind == 1:
            gens.append(Scaling(10.0 ** draw(st.floats(-1.0, 1.0))))
        elif kind == 2:
            q, _ = np.linalg.qr(np.array([draw(direction) for _ in range(3)]).T)
            gens.append(Orthogonal(q))
        else:
            gens.append(SphereInversion(3.0 * draw(direction), 10.0 ** draw(st.floats(-0.5, 0.5))))
    return MobiusMap(tuple(gens))


def _invariance(domain, f, x, y, metric):
    image = map_domain(f, domain)
    before = metric(domain, x, y)
    after = metric(image, f.apply(x), f.apply(y))
    return abs(before - after) <= 1e-8 * max(1.0, abs(before))


@PROPERTY
@given(
    st.sampled_from([PUNCT1, PUNCT3, PUNCT3_NOINF]).flatmap(
        lambda d: st.tuples(st.just(d), mobius_maps(), _points(d), _points(d))
    )
)
def test_delta_and_alpha_are_mobius_invariant_on_finite_complements(args):
    domain, f, x, y = args
    assume(_admissible(domain, x, y) and not (x == y).all())
    # an image at or next to infinity leaves nothing finite to compare
    images = [f.apply(p) for p in (x, y, *domain.removed)]
    assume(all(not is_infinity(p) and np.dot(p, p) < 1e12 for p in images))
    assert _invariance(domain, f, x, y, alpha_metric)
    if domain.boundary_cardinality() >= 2:
        assert _invariance(domain, f, x, y, delta_metric)


@PROPERTY
@given(ball_points(), ball_points(), ball_points())
def test_alpha_is_invariant_under_ball_automorphisms(a, x, y):
    assume(0.0 < np.dot(a, a) < 1.0 and not (x == y).all())
    f = ball_automorphism(a)
    fx, fy = f.apply(x), f.apply(y)
    before, after = alpha_metric(BALL, x, y), alpha_metric(BALL, fx, fy)
    # rounding of |p| amplified by 1/d(p), at the points and their images
    amplification = sum(1.0 / BALL.distance_to_boundary(p) for p in (x, y, fx, fy))
    assert abs(before - after) <= 1e-12 * before + 8.0 * EPS * amplification
