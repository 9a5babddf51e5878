"""Tests for points, domains, cross-ratio, and the boundary suprema of the ball."""

import itertools
import math

import mpmath
import numpy as np
import pytest

import hypmetrics.geometry as geo
from hypmetrics.geometry import (
    BoundaryCardinalityError,
    DomainMembershipError,
    FiniteComplement,
    INFINITY,
    ParameterError,
    UnitBall,
    UpperHalfSpace,
    as_point,
    boundary_sup,
    cross_ratio,
    distance_to_boundary,
    is_infinity,
    require_member,
    same_point,
)
from hypmetrics.metrics import alpha_metric, alpha_pair_form, cassinian, eta_metric, triangular_ratio, u_metric
from hypmetrics.suite import sample_pair

E1 = np.array([1.0, 0.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])


class TestPoints:
    def test_as_point_coerces_lists(self):
        p = as_point([1, 2, 3])
        assert p.dtype == float and p.shape == (3,)

    def test_as_point_rejects_infinity(self):
        with pytest.raises(ParameterError):
            as_point(INFINITY)

    def test_as_point_rejects_scalars_and_short_vectors(self):
        with pytest.raises(ParameterError):
            as_point(1.0)
        with pytest.raises(ParameterError):
            as_point([1.0])

    def test_as_point_rejects_nan(self):
        # and either infinity, in any coordinate
        for bad in (math.nan, math.inf, -math.inf):
            for i in range(3):
                p = [0.5, -0.25, 0.125]
                p[i] = bad
                with pytest.raises(ParameterError) as info:
                    as_point(p)
                # plain floats, as in the membership messages
                assert str(info.value) == f"point has non-finite coordinates: {p}"

    def test_as_point_dimension_check(self):
        with pytest.raises(ParameterError):
            as_point([0.0, 1.0], dim=3)

    def test_infinity_is_a_singleton(self):
        assert is_infinity(INFINITY)
        assert type(INFINITY)() is INFINITY
        assert not is_infinity(np.zeros(3))


class TestDomains:
    def test_ball_membership(self):
        b = UnitBall(3)
        assert b.contains([0.5, 0, 0])
        assert not b.contains([1.0, 0, 0])
        assert b.distance_to_boundary([0.5, 0, 0]) == pytest.approx(0.5)
        assert b.contains([0, 0, 0]) and b.distance_to_boundary([0, 0, 0]) == 1.0

    def test_halfspace_membership(self):
        h = UpperHalfSpace(3)
        assert h.contains([4, -2, 0.1])
        assert not h.contains([0, 0, 0])
        assert h.distance_to_boundary([4, -2, 0.1]) == pytest.approx(0.1)

    def test_dimension_floor(self):
        for cls in (UnitBall, UpperHalfSpace):
            with pytest.raises(ParameterError):
                cls(1)
        with pytest.raises(ParameterError):
            FiniteComplement(1, [[0.0]])

    def test_complement_membership_and_distance(self):
        d = FiniteComplement(3, [E1, -E1])
        assert d.contains([0, 0, 0])
        assert not d.contains(E1)
        assert d.distance_to_boundary([0.5, 0, 0]) == pytest.approx(0.5)

    def test_complement_needs_removed_points(self):
        with pytest.raises(BoundaryCardinalityError):
            FiniteComplement(3, [])

    def test_complement_rejects_duplicates(self):
        with pytest.raises(ParameterError):
            FiniteComplement(3, [E1, [1.0, 0.0, 0.0]])

    def test_complement_boundary_cardinality_counts_infinity(self):
        assert FiniteComplement(3, [E1]).boundary_cardinality() == 2
        assert FiniteComplement(3, [E1], includes_infinity_boundary=False).boundary_cardinality() == 1

    def test_complement_repr_prints_plain_floats(self):
        d = FiniteComplement(3, [E1, [0.0, 2.5, 0.0]], includes_infinity_boundary=False)
        assert repr(d) == "FiniteComplement(dim=3, removed=[[1.0, 0.0, 0.0], [0.0, 2.5, 0.0]])"

    def test_removed_points_are_frozen(self):
        d = FiniteComplement(3, [E1])
        with pytest.raises(ValueError):
            d.removed[0][0] = 2.0

    def test_complement_constants_are_cached_and_frozen(self):
        d = FiniteComplement(3, [E1, [0.0, 2.5, 0.0], [0.0, 0.0, -3.0]])
        assert d.centroid is d.centroid and d.removed_distances is d.removed_distances
        assert d.centroid.tolist() == d.removed.mean(axis=0).tolist()
        assert d.removed_distances.tolist() == d.distances(d.removed).tolist()
        for a in (d.centroid, d.removed_distances):
            with pytest.raises(ValueError):
                a[0] = 2.0

    def test_complement_distance_to_boundary_is_the_least_distance(self):
        rng = np.random.default_rng(5)
        d = FiniteComplement(3, [E1, -E1, [0.0, 1e-6, 0.0]])
        for scale in (1e-7, 1e-3, 1.0, 1e6):
            for _ in range(50):
                x = d.removed[int(rng.integers(3))] + scale * rng.standard_normal(3)
                assert d.distance_to_boundary(x) == float(d.distances(x).min())

    def test_require_member(self):
        with pytest.raises(DomainMembershipError):
            require_member(UnitBall(3), [2.0, 0, 0])
        p = require_member(UnitBall(3), [0.25, 0, 0])
        assert p[0] == 0.25

    @pytest.mark.parametrize("domain", [None, "ball", 3], ids=repr)
    def test_a_non_domain_is_a_parameter_error(self, domain):
        # named, not an AttributeError from reading domain.dim
        expected = r"^expected a UnitBall, UpperHalfSpace or FiniteComplement domain, got "
        with pytest.raises(ParameterError, match=expected):
            require_member(domain, [0.1, 0.0, 0.0])
        with pytest.raises(ParameterError, match=expected):
            distance_to_boundary(domain, [0.1, 0.0, 0.0])
        with pytest.raises(ParameterError, match=expected):
            u_metric(domain, [0.1, 0.0, 0.0], [0.2, 0.0, 0.0])

    def test_distance_to_boundary_validates(self):
        with pytest.raises(DomainMembershipError):
            distance_to_boundary(UpperHalfSpace(3), [0, 0, -1.0])


class TestCrossRatio:
    def test_finite_value(self):
        # |p-q| |x-y| / (|p-x| |q-y|) = (2 * 0.5) / (1 * 0.5)
        assert cross_ratio(-E1, np.zeros(3), E1, 0.5 * E1) == pytest.approx(2.0, abs=1e-15)

    def test_one_point_at_infinity(self):
        assert cross_ratio(E1, np.zeros(3), INFINITY, 0.5 * E1) == pytest.approx(0.5, abs=1e-15)
        assert cross_ratio(INFINITY, np.zeros(3), E1, 0.5 * E1) == pytest.approx(1.0, abs=1e-15)

    def test_infinity_position_consistency(self):
        rng = np.random.default_rng(3)
        p, x, q, y = (rng.normal(size=3) for _ in range(4))
        # replacing either outer point by infinity drops its two factors
        assert cross_ratio(INFINITY, x, q, y) == pytest.approx(
            np.linalg.norm(x - y) / np.linalg.norm(q - y), rel=1e-14
        )
        assert cross_ratio(p, x, q, INFINITY) == pytest.approx(
            np.linalg.norm(p - q) / np.linalg.norm(p - x), rel=1e-14
        )

    def test_two_infinities_rejected(self):
        with pytest.raises(ValueError):
            cross_ratio(INFINITY, np.zeros(3), INFINITY, E1)

    def test_coincidence_raises(self):
        with pytest.raises(ZeroDivisionError):
            cross_ratio(np.zeros(3), np.zeros(3), E1, 0.5 * E1)

    def test_symmetry_pairs(self):
        rng = np.random.default_rng(4)
        p, x, q, y = (rng.normal(size=3) for _ in range(4))
        assert cross_ratio(p, x, q, y) == pytest.approx(cross_ratio(q, y, p, x), rel=1e-14)


KINDS = ("product", "sum")


def _distance_form(kind, p, x, y):
    """|p-x| |p-y| (product) or |p-x| + |p-y| (sum), over the leading axes
    of p: the quantity boundary_sup minimizes, in plain numpy."""
    combine = np.multiply if kind == "product" else np.add
    return combine(np.linalg.norm(p - x, axis=-1), np.linalg.norm(p - y, axis=-1))


def _least_scan(x, y, kind, rounds=12):
    """Least |p-x| |p-y| (product) or |p-x| + |p-y| (sum) over the
    unit circle of the plane through 0, x and y: a 2^16-point scan of the
    whole circle, zoomed around its argmin.  Distances are Euclidean,
    independent of the sin^2 form."""
    e1 = x if np.linalg.norm(x) > 0 else y
    e1 = e1 / np.linalg.norm(e1)
    e2 = y - (y @ e1) * e1
    if np.linalg.norm(e2) < 1e-12:
        e2 = np.roll(e1, 1) - (np.roll(e1, 1) @ e1) * e1
    e2 /= np.linalg.norm(e2)

    def values(th):
        return _distance_form(kind, np.cos(th)[:, None] * e1 + np.sin(th)[:, None] * e2, x, y)

    th = np.linspace(-math.pi, math.pi, 2**16, endpoint=False)
    h = th[1] - th[0]
    for _ in range(rounds):
        v = values(th)
        c = th[np.argmin(v)]
        th = np.linspace(c - 2.0 * h, c + 2.0 * h, 201)
        h = th[1] - th[0]
    return float(np.min(values(th)))


_V = np.array([-0.9920662471377072, -0.07024627560503027, 0.10424980601769739])
_V /= np.linalg.norm(_V)
_A = 0.4
# name: (x, y, {kind: least product or sum of distances}); a kind left
# out is compared with the scan
BALL_PAIRS = {
    # with one point at 0 the least sum is 1 + (1 - |p|), p the other point
    "x-at-origin": ([0.0, 0.0, 0.0], (0.6 * _V).tolist(), {"product": 0.4, "sum": 1.4}),
    "y-at-origin": ((0.6 * _V).tolist(), [0.0, 0.0, 0.0], {"product": 0.4, "sum": 1.4}),
    "collinear-same-side": ((0.3 * _V).tolist(), (0.8 * _V).tolist(), {"product": 0.7 * 0.2, "sum": 0.9}),
    # the short arc is a half circle either way; both halves give the same
    # least product and sum, at the projection of the outer point
    "collinear-opposite-sides": (
        (0.3 * _V).tolist(),
        (-0.8 * _V).tolist(),
        {"product": 1.3 * 0.2, "sum": 1.5},
    ),
    "equal-norms": ([0.9 * math.cos(_A), 0.9 * math.sin(_A)], [0.9 * math.cos(_A), -0.9 * math.sin(_A)], {}),
    "equal-norms-near-the-sphere": (
        [(1 - 1e-6) * math.cos(1e-6), (1 - 1e-6) * math.sin(1e-6)],
        [(1 - 1e-6) * math.cos(1e-6), -(1 - 1e-6) * math.sin(1e-6)],
        {},
    ),
    "sharp-minimum": ([0.5999994, 0.7999992, 0.0], [0.5999986000005, 0.7999997999990001, 0.0], {}),
    "dimension-5": ([0.3, -0.5, 0.2, 0.6, -0.1], [-0.4, 0.1, 0.5, -0.2, 0.55], {}),
    # opposite directions: least at the projection of the outer point
    "antipodal-directions": ((0.3 * _V).tolist(), (-0.6 * _V).tolist(), {"product": 1.3 * 0.4, "sum": 1.7}),
    # x = 0: least at the projection of y, 1 - |y| away, |y| = sqrt(0.75)
    "x-at-origin-dimension-5": (
        [0.0] * 5,
        [0.3, -0.5, 0.2, 0.6, -0.1],
        {"product": 1.0 - math.sqrt(0.75), "sum": 2.0 - math.sqrt(0.75)},
    ),
}


class TestBoundarySup:
    def test_finite_complements_are_not_searched(self, monkeypatch):
        # nor the half-space: their suprema are exact maxima or formulas,
        # and the metrics reach the ball root solver on the ball only
        import hypmetrics.metrics as met

        def refuse(*args):
            raise AssertionError("ball root solver reached")

        monkeypatch.setattr(met, "boundary_sup", refuse)
        for d in (FiniteComplement(3, [E1, -E1]), UpperHalfSpace(3)):
            assert cassinian(d, 0.5 * E3, E3) > 0.0
            assert triangular_ratio(d, 0.5 * E3, E3) > 0.0

    def test_finite_complement_exact_max(self):
        d = FiniteComplement(3, [E1, -E1], includes_infinity_boundary=False)
        x, y = np.zeros(3), 0.5 * E1
        ratios = d.distances(x) / d.distances(y)
        # per removed point: 1/0.5 at e1, 1/1.5 at -e1
        assert np.array_equal(d.removed[np.argmax(ratios)], E1)
        assert eta_metric(d, x, y) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_infinity_candidate_wins_when_larger(self):
        x, y = np.zeros(3), 0.5 * E1
        with_inf = FiniteComplement(3, [E1])
        without = FiniteComplement(3, [E1], includes_infinity_boundary=False)
        # sup_p |p-y| / |p-x| is 0.5 at e1 and 1 at infinity
        assert alpha_metric(with_inf, x, y) == pytest.approx(math.log(2.0), abs=1e-15)
        assert alpha_metric(without, x, y) == pytest.approx(0.0, abs=1e-15)
        # the only pair without infinity is (e1, e1), of cross-ratio 1
        assert alpha_pair_form(with_inf, x, y) == pytest.approx(math.log(2.0), abs=1e-15)
        assert alpha_pair_form(without, x, y) == 0.0

    def test_membership_is_enforced(self):
        # by the metrics, before the solver, which takes trusted points
        b = UnitBall(3)
        for metric in (cassinian, triangular_ratio):
            with pytest.raises(DomainMembershipError, match=r"^x \[2\.0, 0\.0, 0\.0\] is not in UnitBall"):
                metric(b, 2.0 * E1, 0.5 * E1)
        d = FiniteComplement(3, [E1, -E1], includes_infinity_boundary=False)
        with pytest.raises(DomainMembershipError):
            triangular_ratio(d, np.zeros(3), -E1)

    def test_ball_sup_against_dense_scan(self):
        # both root solves, product and sum
        rng = np.random.default_rng(9)
        for _ in range(10):
            x = rng.uniform(-0.6, 0.6, 3)
            y = rng.uniform(-0.6, 0.6, 3)
            if np.linalg.norm(x) >= 1 or np.linalg.norm(y) >= 1:
                continue
            scale = float(np.linalg.norm(x - y))
            ph = rng.uniform(0, 2 * math.pi, 4000)
            ct = rng.uniform(-1, 1, 4000)
            st = np.sqrt(1 - ct * ct)
            pts = np.stack([st * np.cos(ph), st * np.sin(ph), ct], axis=1)
            for kind in KINDS:
                # the supremum must dominate a dense independent scan of the sphere
                brute = float(np.max(scale / _distance_form(kind, pts, x, y)))
                assert scale / boundary_sup(x, y, kind) >= brute - 1e-12

    def test_halfspace_sup_against_dense_scan(self):
        # the half-space Cassinian metric is a cubic root solve, not a search
        h = UpperHalfSpace(3)
        rng = np.random.default_rng(10)
        for _ in range(10):
            x = np.array([rng.normal(), rng.normal(), 10 ** rng.uniform(-2, 1)])
            y = np.array([rng.normal(), rng.normal(), 10 ** rng.uniform(-2, 1)])
            v = cassinian(h, x, y)
            g = rng.normal(size=(4000, 2)) * 5.0
            pts = np.concatenate([g, np.zeros((4000, 1))], axis=1)
            brute = float(np.max(float(np.linalg.norm(x - y)) / _distance_form("product", pts, x, y)))
            assert v >= brute - 1e-12

    def test_pairs_collinear_with_the_origin(self):
        # any plane through such a pair will do; a basis built from
        # rounding residue distorted it and missed the peak by 10^5
        v = np.array([-0.9920662471377072, -0.07024627560503027, 0.10424980601769739])
        v /= np.linalg.norm(v)
        for x, y in ((np.zeros(3), (1.0 - 1e-6) * v), (0.3 * v, -0.6 * v), (-0.0 * v, 0.5 * v)):
            # the product of distances is least at the outer point's projection
            p = v if y @ v > 0 else -v
            exact = float(np.linalg.norm(p - x) * np.linalg.norm(p - y))
            for a, c in ((x, y), (y, x)):
                assert boundary_sup(a, c, "product") == pytest.approx(exact, rel=1e-9)

    @pytest.mark.parametrize("pair", sorted(BALL_PAIRS))
    def test_ball_cassinian_on_special_pairs(self, pair):
        # and s: both kinds of ball supremum
        x, y, exact = BALL_PAIRS[pair]
        x, y = np.array(x), np.array(y)
        for kind in KINDS:
            want = exact[kind] if kind in exact else _least_scan(x, y, kind)
            least = boundary_sup(x, y, kind)
            assert least == pytest.approx(want, rel=1e-9), kind
            assert boundary_sup(y, x, kind) == least, kind

    def test_ball_triangular_ratio_is_rotation_invariant(self):
        # a planar pair turned into dimension 5 keeps its value
        rng = np.random.default_rng(16)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        pairs = [
            (E1[:2] * 0.7, np.array([-0.2, 0.65])),
            (np.array([0.5999994, 0.7999992]), np.array([0.5999986000005, 0.7999997999990001])),
            (np.array([0.0, 0.0]), np.array([0.3, -0.5])),
            (np.array([0.9, 0.1]), np.array([-0.85, -0.3])),
        ]
        for x, y in pairs:
            planar = triangular_ratio(UnitBall(2), x, y)
            turned = triangular_ratio(UnitBall(5), q[:, :2] @ x, q[:, :2] @ y)
            assert turned == pytest.approx(planar, rel=1e-9)

    def test_ball_cassinian_is_rotation_invariant(self):
        # a planar pair turned into dimension 5 keeps its value
        rng = np.random.default_rng(15)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        for x, y in ((E1[:2] * 0.7, np.array([-0.2, 0.65])), (np.array([0.5999994, 0.7999992]),
                                                             np.array([0.5999986000005, 0.7999997999990001]))):
            planar = cassinian(UnitBall(2), x, y)
            turned = cassinian(UnitBall(5), q[:, :2] @ x, q[:, :2] @ y)
            assert turned == pytest.approx(planar, rel=1e-9)

    def test_argument_order_is_immaterial(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            x = rng.uniform(-0.9, 0.9, 3)
            y = rng.uniform(-0.9, 0.9, 3)
            if np.linalg.norm(x) >= 1 or np.linalg.norm(y) >= 1:
                continue
            # both orders solve from the canonical pair, so they agree bit
            # for bit
            for kind in KINDS:
                assert boundary_sup(x, y, kind) == boundary_sup(y, x, kind), kind

    def test_newton_starts_next_to_each_minimum(self, monkeypatch):
        """Work count on 2000 sampler pairs, read off the solver's calls
        to ``math``: each located minimum is the one call to atan, and
        the sin^2 form is evaluated there once, by the two calls to sin
        that follow it directly.  No other sin comes before the next atan
        or, after the last one, at all."""
        calls = []

        class Recording:
            def __getattr__(self, name):
                f = getattr(math, name)

                def record(*args):
                    calls.append(name)
                    return f(*args)

                return record if callable(f) else f

        rng = np.random.default_rng(21)
        pairs = [sample_pair(UnitBall(3), rng) for _ in range(2000)]
        monkeypatch.setattr(geo, "math", Recording())
        for kind in KINDS:
            minima = 0
            for x, y in pairs:
                calls.clear()
                boundary_sup(x, y, kind)
                starts = [i for i, name in enumerate(calls) if name == "atan"]
                for i, j in zip(starts, [*starts[1:], len(calls)]):
                    assert calls[i + 1 : i + 3] == ["sin", "sin"], (kind, calls[i:j])
                    assert "sin" not in calls[i + 3 : j], (kind, calls[i:j])
                minima += len(starts)
            assert minima > len(pairs) // 2, kind

    def test_no_ball_supremum_is_searched(self, monkeypatch):
        # both kinds are root solves, through boundary_sup and the metrics
        # alike, and each metric is |x-y| over the solver's least value
        import hypmetrics.geometry as geo

        def refuse(*args):
            raise AssertionError("golden-section search reached")

        monkeypatch.setattr(geo, "_golden_max", refuse)
        b = UnitBall(3)
        x, y = np.array([0.5, 0.0, 0.1]), np.array([0.0, -0.5, 0.3])
        r = math.sqrt(np.dot(x - y, x - y))
        assert cassinian(b, x, y) == r / boundary_sup(x, y, "product")
        assert triangular_ratio(b, x, y) == r / boundary_sup(x, y, "sum")


def _sum_quartic_slope(rx, ry, w):
    """Coefficients, lowest first, of the u-derivative of the sum kind's
    quartic Q + (P-R) u + (P+R) u^3 - Q u^4 (README): a cubic whose
    leading coefficient -4Q vanishes when r_x = r_y."""
    p, q, r = 2.0 * (rx + ry) * math.cos(w), (rx - ry) * math.sin(w), 4.0 * rx * ry
    return (p - r, 0.0, 3.0 * (p + r), -4.0 * q)


MP = mpmath.MPContext()
MP.dps = 50

# name: (c0, c1, c2, c3, the half-width of the window whose roots are
# compared, the root tolerance relative to max(1, |t|))
CUBICS = {
    "three-real-roots": (0.3, -0.5, -1.2, 0.8, math.inf, 1e-12),
    "one-real-root": (1.0, 0.1, 0.2, 0.3, math.inf, 1e-12),
    "roots-outside-the-unit-interval": (*np.polynomial.polynomial.polyfromroots([3.0, -5.0, 0.25]), math.inf, 1e-12),
    "roots-far-outside": (*np.polynomial.polynomial.polyfromroots([40.0, -2.0, 7.0]), math.inf, 1e-12),
    "leading-zero": (0.3, -0.7, 1.1, 0.0, math.inf, 1e-12),
    "leading-1e-300-relative": (0.3, -0.7, -1.1, 1.1e-300, 1.0, 1e-12),
    # rounded coefficients split the triple root 0.1 into a cluster of
    # radius about eps^(1/3)
    "rounded-triple-root": (*np.polynomial.polynomial.polyfromroots([0.1, 0.1, 0.1]), math.inf, 1e-5),
    "sum-kind-equal-radii": (*_sum_quartic_slope(0.9, 0.9, 0.6), 1.0, 1e-12),
    "sum-kind-radii-one-ulp-apart": (*_sum_quartic_slope(0.9, math.nextafter(0.9, 1.0), 0.6), 1.0, 1e-12),
}


def _reference_real_roots(c, tol):
    """Real roots of sum c[k] t^k by mpmath.polyroots at 50 digits, with
    the vanishing leading coefficients dropped."""
    c = list(c)
    while c[-1] == 0.0:
        c.pop()
    # working precision to spare over the coefficients' dynamic range
    spread = math.log2(max(map(abs, c)) / min(abs(v) for v in c if v != 0.0))
    roots = MP.polyroots([MP.mpf(v) for v in reversed(c)], maxsteps=100, extraprec=100 + 2 * int(spread))
    return [float(MP.re(t)) for t in roots if abs(MP.im(t)) <= tol * max(1.0, abs(t))]


def _assert_same_roots(got, want, window, tol):
    def near(t, ts):
        return any(abs(t - v) <= tol * max(1.0, abs(v)) for v in ts)

    assert all(near(t, got) for t in want if abs(t) <= window), (got, want)
    assert all(near(t, want) for t in got if abs(t) <= window), (got, want)


class TestCubicRoots:
    """The closed-form cubic shared by the half-space Cassinian metric and
    the knots of the ball root solve, against mpmath.polyroots."""

    @pytest.mark.parametrize("name", sorted(CUBICS))
    def test_against_polyroots(self, name):
        *c, window, tol = CUBICS[name]
        _assert_same_roots(geo._cubic_roots(*c), _reference_real_roots(c, tol), window, tol)

    def test_random_cubics(self):
        # coefficients spread over eight orders of magnitude, so that
        # roots of very different sizes meet
        rng = np.random.default_rng(31)
        for _ in range(300):
            c = rng.standard_normal(4) * 10.0 ** rng.uniform(-4.0, 4.0, 4)
            got, want = geo._cubic_roots(*c), _reference_real_roots(c, 1e-12)
            assert len(got) == len(want), (c.tolist(), got, want)
            _assert_same_roots(got, want, math.inf, 1e-12)

    def test_multiple_roots(self):
        # polyroots does not converge on a multiple root; these are exact
        assert geo._cubic_roots(-0.125, 0.75, -1.5, 1.0) == [0.5] * 3  # (t - 1/2)^3
        assert geo._cubic_roots(0.0, 0.0, 0.0, 2.0) == [0.0] * 3  # p = q = 0
        assert geo._cubic_roots(0.0, 0.0, 0.0, 0.0) == []
        # the quadratic left when the leading coefficient drops
        assert geo._cubic_roots(0.0, 0.0, 1.0, 0.0) == [0.0] * 2


class TestDirectCallsMatchNumpyWrappers:
    """The per-point path computes norms as math.sqrt(np.dot(v, v)), and
    finiteness, equality and finite-complement membership on Python
    floats; each must decide as the numpy expression it replaces, in the
    regimes the sampler stresses and on IEEE edge coordinates."""

    # signed zeros, infinities, nan, the smallest subnormal, the smallest
    # normal and values near the top of the range
    TINY = 2.2250738585072014e-308
    EDGE = (0.0, -0.0, 1.0, math.inf, -math.inf, math.nan, 5e-324, TINY, 1e308, -1e308)
    EDGE_POINTS = [np.array(c) for c in itertools.product(EDGE, repeat=2)] + [
        np.array([c, -c, 1.0]) for c in EDGE
    ]

    @staticmethod
    def _ball_points(n):
        from hypmetrics.suite import sample_point

        rng = np.random.default_rng(40 + n)
        pts = [sample_point(UnitBall(n), rng) for _ in range(400)]
        for k in range(1, 7):
            g = rng.standard_normal(n)
            pts.append((1.0 - 10.0 ** -k) * g / np.linalg.norm(g))
        pts += [np.eye(n)[0], np.nextafter(1.0, 0.0) * np.eye(n)[-1], np.zeros(n)]
        return pts

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_ball_methods(self, n):
        b = UnitBall(n)
        radii = []
        for x in self._ball_points(n):
            norm = float(np.linalg.norm(x))
            radii.append(norm)
            assert b.contains(x) == (norm < 1.0)
            d = b.distance_to_boundary(x)
            assert d.hex() == (1.0 - norm).hex()
        assert max(r for r in radii if r < 1.0) > 1.0 - 2e-6

    def test_rho_on_the_ball(self):
        from hypmetrics.metrics import rho

        b = UnitBall(3)
        pts = self._ball_points(3)
        for x, y in zip(pts[:-3], pts[1:-3]):
            nx, ny = float(np.linalg.norm(x)), float(np.linalg.norm(y))
            r = float(np.linalg.norm(x - y))
            t = ((1.0 - nx) * (1.0 + nx)) * ((1.0 - ny) * (1.0 + ny))
            expected = 2.0 * math.log((math.sqrt(r * r + t) + r) / math.sqrt(t))
            assert rho(b, x, y).hex() == expected.hex()

    def test_norms_of_sampler_vectors(self):
        # unit directions, ball points, and the horizontal offsets of
        # half-space pairs with heights 1e-6..1e6
        from hypmetrics.suite import _unit, sample_pair

        rng = np.random.default_rng(7)
        vectors = [_unit(rng, n) for n in (2, 3, 5) for _ in range(100)]
        vectors += self._ball_points(3)
        for _ in range(300):
            x, y = sample_pair(UpperHalfSpace(3), rng)
            horiz = y - x
            horiz[-1] = 0.0
            vectors += [x, horiz]
        for v in vectors:
            assert math.sqrt(np.dot(v, v)).hex() == float(np.linalg.norm(v)).hex()

    @pytest.mark.parametrize(
        "x, y",
        [
            ([0.5, -0.25, 1e-6], [0.5, -0.25, 1e-6]),
            ([0.5, -0.25, 1e-6], [0.5, -0.25, np.nextafter(1e-6, 1.0)]),
            ([0.0, 0.0, 1.0], [-0.0, 0.0, 1.0]),
            ([1.0 - 1e-6, 0.0, 0.0], [0.0, 1.0 - 1e-6, 0.0]),
        ],
    )
    def test_equality(self, x, y):
        x, y = np.array(x), np.array(y)
        assert same_point(x, y) == np.array_equal(x, y) == bool((x == y).all())

    def test_finiteness_on_edge_coordinates(self):
        for a in self.EDGE_POINTS:
            try:
                as_point(a)
                accepted = True
            except ParameterError:
                accepted = False
            assert accepted == bool(np.isfinite(a).all()), a

    def test_equality_on_edge_coordinates(self):
        for x, y in itertools.product(self.EDGE_POINTS, repeat=2):
            if x.size == y.size:
                assert same_point(x, y) == np.array_equal(x, y), (x, y)
        # nan is unequal to itself, as in numpy
        nan = np.array([math.nan, 0.0])
        assert not same_point(nan, nan)

    def test_membership_on_edge_coordinates(self):
        removed = [[0.0, -0.0], [5e-324, 1e308], [-1e308, self.TINY], [1.0, -0.0]]
        c = FiniteComplement(2, removed)
        assert c.removed.tolist() == removed
        for x in (p for p in self.EDGE_POINTS if p.size == 2):
            assert c.contains(x) == (not (c.removed == x).all(axis=1).any()), x
        assert not c.contains(np.array([-0.0, 0.0]))
        assert not c.contains([1.0, 0.0])
        # duplicates are found under the same equality
        with pytest.raises(ParameterError, match="pairwise distinct"):
            FiniteComplement(2, [[0.0, 1.0], [-0.0, 1.0]])
