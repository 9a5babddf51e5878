"""Property tests: the metric axioms, the Mobius invariance of delta and
alpha, and checked points met by other domain objects, on inputs drawn by
hypothesis across the sampler's regimes."""

import math

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hypmetrics.geometry import (
    INFINITY,
    BoundaryCardinalityError,
    DomainMembershipError,
    FiniteComplement,
    ParameterError,
    UnitBall,
    UpperHalfSpace,
    is_infinity,
)
from hypmetrics.metrics import (
    alpha_metric,
    alpha_pair_form,
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
from test_oracle import MP, _mp, _norm, complement_metric, reference

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


def _orthonormal(q):
    """The columns of the float matrix ``q`` made orthonormal at 50 digits
    by Gram-Schmidt: a float Orthogonal matrix is orthogonal only to about
    1e-16, which a Mobius invariant would show."""
    cols = []
    for v in map(_mp, q.T):
        for u in cols:
            dot = MP.fsum(a * b for a, b in zip(u, v))
            v = [a - dot * b for a, b in zip(v, u)]
        norm = _norm(v)
        cols.append([a / norm for a in v])
    return list(zip(*cols))


def _mp_apply(f, p):
    """f(p) at 50 digits: each generator's formula in mpmath on its float
    parameters, an orthogonal matrix made orthonormal, INFINITY kept as
    itself."""
    if not is_infinity(p):
        p = _mp(p)
    for g in f.generators:
        if isinstance(g, SphereInversion):
            c = _mp(g.center)
            if is_infinity(p):
                p = c
                continue
            v = [a - b for a, b in zip(p, c)]
            n2 = MP.fsum(t * t for t in v)
            p = INFINITY if n2 == 0 else [a + MP.mpf(g.radius) ** 2 / n2 * t for a, t in zip(c, v)]
        elif is_infinity(p):
            continue
        elif isinstance(g, Translation):
            p = [a + b for a, b in zip(p, _mp(g.b))]
        elif isinstance(g, Scaling):
            p = [MP.mpf(g.factor) * a for a in p]
        else:
            p = [MP.fsum(q * a for q, a in zip(row, p)) for row in _orthonormal(g.matrix)]
    return p


def _assert_steps_round_well(f, p):
    """Each generator of ``f`` takes its float input to within 8 eps of
    its 50-digit image at that input, relative to the step's scale (the
    input, the image and an inversion center), and the float steps give
    ``f.apply(p)`` to the bit.  Composed, the steps' rounding can grow
    without bound near an inversion center, so the whole map is checked
    step by step rather than against its 50-digit image."""
    q = p
    for g in f.generators:
        image, exact = g.apply(q), _mp_apply(MobiusMap((g,)), q)
        if is_infinity(exact):
            assert is_infinity(image), (g, q)
        else:
            points = [v for v in (q, image) if not is_infinity(v)]
            if isinstance(g, SphereInversion):
                points.append(g.center)
            scale = sum(_norm(_mp(v)) for v in points)
            assert _norm([MP.mpf(a) - b for a, b in zip(image.tolist(), exact)]) <= 8 * 2.0**-52 * scale, (g, q)
        q = image
    final = f.apply(p)
    assert is_infinity(q) == is_infinity(final) and (is_infinity(q) or (q == final).all())


@PROPERTY
@given(
    st.sampled_from([PUNCT1, PUNCT3, PUNCT3_NOINF]).flatmap(
        lambda d: st.tuples(st.just(d), mobius_maps(), _points(d), _points(d))
    )
)
# alpha comes out 12.664218011467252 before the map and 12.664218226406058
# after it, 1.7e-8 apart: each is its 50-digit reference at its own
# points, and the gap is the rounding of the images to floats
@example(
    (
        PUNCT1,
        MobiusMap((SphereInversion([0.0, 0.0, 3.0], 10.0**-0.5), SphereInversion([0.0, 3.0, 3.0], 10.0**-0.5))),
        np.array([0.0, 0.0, 3.0]),
        np.array([1.0, 0.0, 1e-5]),
    )
)
def test_delta_and_alpha_are_mobius_invariant_on_finite_complements(args):
    # the package meets the reference before and after the map, and the
    # reference is invariant on images formed at 50 digits; comparing the
    # package's two values would test the rounding of the images instead
    domain, f, x, y = args
    assume(_admissible(domain, x, y) and not (x == y).all())
    # an image at or next to infinity leaves nothing finite to compare
    images = [f.apply(p) for p in (x, y, *domain.removed)]
    assume(all(not is_infinity(p) and np.dot(p, p) < 1e12 for p in images))
    image, fx, fy = map_domain(f, domain), images[0], images[1]
    boundary = [*domain.removed, *([INFINITY] if domain.includes_infinity_boundary else [])]
    # the package's images: each generator rounds its own step well, and
    # map_domain keeps f's images of the boundary
    for p in (x, y, *boundary):
        _assert_steps_round_well(f, p)
    finite = [q for q in map(f.apply, boundary) if not is_infinity(q)]
    assert len(image.removed) == len(finite) and all((a == b).all() for a, b in zip(image.removed, finite))
    exact = [_mp_apply(f, p) for p in boundary]
    removed = [p for p in exact if not is_infinity(p)]
    flag = len(removed) < len(exact)
    assert image.includes_infinity_boundary == flag
    metrics = (alpha_metric, delta_metric) if domain.boundary_cardinality() >= 2 else (alpha_metric,)
    for metric in metrics:
        name = metric.__name__.removesuffix("_metric")
        before = reference(domain, name, x, y)
        bound = 1e-8 * max(1.0, abs(float(before)))
        assert abs(metric(domain, x, y) - before) <= bound, name
        assert abs(metric(image, fx, fy) - reference(image, name, fx, fy)) <= bound, name
        mapped = complement_metric(name, removed, flag, _mp_apply(f, x), _mp_apply(f, y))
        assert abs(mapped - before) <= 1e-30 * max(1, abs(before)), name


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


# the domain objects a checked point meets besides its own: a ball equal
# to BALL but not it, the half-space and the one-point complement, which
# many of the drawn points lie outside
OTHER_DOMAINS = (UnitBall(3), HALF, PUNCT1)
PUBLIC_METRICS = TRIANGLE + (rho, alpha_metric, alpha_pair_form)


def _outcome(fn):
    """The bits of the float ``fn()`` returns, or the type and message of
    the error it raises."""
    try:
        return fn().hex()
    except (ParameterError, DomainMembershipError, BoundaryCardinalityError) as exc:
        return type(exc), str(exc)


@PROPERTY
@given(
    st.sampled_from([BALL, HALF, PUNCT1, PUNCT3]).flatmap(
        lambda d: st.tuples(st.just(d), _points(d), _points(d))
    )
)
@example((PUNCT3, np.array([3.0, 0.0, 0.0]), np.array([0.5, 0.0, 0.0])))
@example((BALL, np.array([0.5, 0.0, -0.25]), np.array([0.0, 0.5, 0.25])))
def test_a_checked_point_is_taken_as_checked_on_its_own_domain_object_only(args):
    # on the domain object that checked it, a checked point gives what its
    # array gives; on any other, an equal one included, that domain checks
    # it afresh: the same value bits, or the same error type and message,
    # with the other argument raw or checked
    home, x, y = args
    assume(_admissible(home, x, y))
    cx, cy = home._point(x, "x"), home._point(y, "y")
    assert OTHER_DOMAINS[0] == BALL and OTHER_DOMAINS[0] is not BALL
    for domain in (home, *OTHER_DOMAINS):
        for m in PUBLIC_METRICS:
            raw = _outcome(lambda: m(domain, x, y))
            for a, b in ((cx, cy), (cx, y), (x, cy)):
                assert _outcome(lambda: m(domain, a, b)) == raw, (m.__name__, domain)
        for p, q in ((x, cx), (y, cy)):
            d = _outcome(lambda: domain.distance_to_boundary(p))
            assert _outcome(lambda: domain.distance_to_boundary(q)) == d

