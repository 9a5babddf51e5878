"""Tests for the metric functions: closed forms, suprema, and identities."""

import math

import numpy as np
import pytest

import hypmetrics.metrics as metrics_module
from hypmetrics.geometry import (
    BoundaryCardinalityError,
    FiniteComplement,
    ParameterError,
    UnitBall,
    UpperHalfSpace,
)
from hypmetrics.metrics import (
    MetricId,
    alpha_metric,
    alpha_pair_form,
    cassinian,
    delta_metric,
    eta_metric,
    evaluable_metrics,
    evaluate_metric,
    j_metric,
    j_tilde,
    rho,
    triangular_ratio,
    u_metric,
)
from hypmetrics.suite import _checked_pair


def rho_axial(domain, a, b):
    """Hyperbolic distance between a*e1 and b*e1 in the ball, or between
    a*en and b*en in the half-space: a closed-form reference for rho."""
    lo, hi = min(a, b), max(a, b)
    if isinstance(domain, UnitBall):
        return math.log(((1.0 + hi) / (1.0 - hi)) * ((1.0 - lo) / (1.0 + lo)))
    return math.log(hi / lo)


E1 = np.array([1.0, 0.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])
O = np.zeros(3)
BALL = UnitBall(3)
HALF = UpperHalfSpace(3)
PUNCT = FiniteComplement(3, [E1])

ALL_METRICS = [
    u_metric,
    j_tilde,
    j_metric,
    delta_metric,
    alpha_metric,
    eta_metric,
    cassinian,
    triangular_ratio,
]


@pytest.mark.parametrize("metric", ALL_METRICS + [rho])
def test_zero_on_the_diagonal(metric):
    x = np.array([0.1, -0.2, 0.3])
    assert metric(BALL, x, x) == 0.0


@pytest.mark.parametrize("metric", ALL_METRICS)
def test_membership_is_checked(metric):
    with pytest.raises(Exception):
        metric(BALL, 2.0 * E1, 0.1 * E1)


def _catalog_domains():
    from hypmetrics.suite import catalog

    found = {}
    for case in catalog().cases:
        for d in case.domains:
            if d is not None:
                found.setdefault(repr(d), d)
    return list(found.values())


def _domain_id(domain):
    # a complement's repr lists its removed points; the count is id enough
    if isinstance(domain, FiniteComplement):
        return f"FiniteComplement(m={len(domain.removed)})"
    return repr(domain)


PUBLIC_METRICS = ALL_METRICS + [rho, alpha_pair_form]


@pytest.mark.parametrize("domain", _catalog_domains(), ids=_domain_id)
def test_each_point_is_validated_once(domain, monkeypatch):
    # validation happens at the public entry only, in a direct call as
    # through evaluate_metric: one coercion per point, and no per-point
    # domain check (require_member's runs geometry._require_domain)
    from hypmetrics import geometry

    calls = []
    coerced, require_domain = geometry._coerced, geometry._require_domain

    def counted(p, dim):
        calls.append("coerced")
        return coerced(p, dim)

    def counted_domain(domain):
        calls.append("domain")
        return require_domain(domain)

    monkeypatch.setattr(geometry, "_coerced", counted)
    monkeypatch.setattr(geometry, "_require_domain", counted_domain)
    rng = np.random.default_rng(5)
    for _ in range(3):
        x, y = (p.x for p in _checked_pair(domain, rng))
        for metric in evaluable_metrics(domain):
            calls.clear()
            evaluate_metric(domain, metric, x, y)
            assert calls == ["coerced", "coerced"], metric.value
        for fn in PUBLIC_METRICS:
            if fn is rho and isinstance(domain, FiniteComplement):
                continue
            calls.clear()
            fn(domain, x, y)
            assert calls == ["coerced", "coerced"], fn.__name__


@pytest.mark.parametrize(
    "domain",
    [d for d in _catalog_domains() if isinstance(d, FiniteComplement)],
    ids=_domain_id,
)
def test_one_distance_table_per_complement_call(domain, monkeypatch):
    # the wrapper takes each point's distance row once, which no kernel
    # takes again; distance_to_boundary goes through the same row method,
    # so a second row shows either way
    rows = []
    distance_row = FiniteComplement._distance_row

    def counted_distance_row(self, coords):
        rows.append(list(coords))
        return distance_row(self, coords)

    domain.removed_distance_rows  # cached before counting
    monkeypatch.setattr(FiniteComplement, "_distance_row", counted_distance_row)
    rng = np.random.default_rng(11)
    for _ in range(3):
        x, y = (p.x for p in _checked_pair(domain, rng))
        for fn in PUBLIC_METRICS:
            if fn is rho:
                continue
            rows.clear()
            fn(domain, x, y)
            assert rows == [x.tolist(), y.tolist()], fn.__name__
        # the domain method reads d(x) from the row its membership check
        # takes, and takes no second one
        rows.clear()
        domain.distance_to_boundary(x)
        assert rows == [x.tolist()]


@pytest.mark.parametrize("domain", _catalog_domains(), ids=_domain_id)
def test_one_boundary_distance_everywhere(domain, monkeypatch):
    # the domain method and the d(x) that u reads agree bit for bit, each read through the domain class's _distance
    read = []
    distance = type(domain)._distance

    def recorded(self, gauge):
        read.append(distance(self, gauge))
        return read[-1]

    monkeypatch.setattr(type(domain), "_distance", recorded)
    rng = np.random.default_rng(13)
    for _ in range(20):
        x, y = (p.x for p in _checked_pair(domain, rng))
        read.clear()
        u_metric(domain, x, y)
        assert len(read) == 2
        d = domain.distance_to_boundary(x)
        assert read[0] == d, (x.tolist(), read[0], d)
        assert read[2:] == [d]


class TestU:
    def test_ball_value(self):
        # 2 log((0.5 + 1) / sqrt(0.5)) = log 4.5
        assert u_metric(BALL, O, 0.5 * E1) == pytest.approx(math.log(4.5), abs=1e-15)

    def test_punctured_value(self):
        # d(-e1/2) = 1.5, d(e1/2) = 0.5, |x-y| = 1
        expected = 2.0 * math.log(2.5 / math.sqrt(0.75))
        assert u_metric(PUNCT, -0.5 * E1, 0.5 * E1) == pytest.approx(expected, rel=1e-15)

    def test_symmetric_by_construction(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            x = rng.uniform(-0.5, 0.5, 3)
            y = rng.uniform(-0.5, 0.5, 3)
            assert u_metric(BALL, x, y) == u_metric(BALL, y, x)

    def test_grows_toward_the_boundary(self):
        a = u_metric(BALL, O, 0.9 * E1)
        b = u_metric(BALL, O, 0.999 * E1)
        assert b > a > 0


class TestRho:
    def test_ball_axis_value(self):
        assert rho(BALL, O, 0.5 * E1) == pytest.approx(math.log(3.0), abs=1e-15)

    def test_halfspace_vertical_value(self):
        assert rho(HALF, E3, 2.0 * E3) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_undefined_elsewhere(self):
        with pytest.raises(ParameterError):
            rho(PUNCT, O, 0.5 * E1)

    def test_axial_closed_forms(self):
        assert rho_axial(BALL, -0.5, 0.5) == pytest.approx(math.log(9.0), abs=1e-15)
        assert rho_axial(HALF, 1.0, 2.0) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_axial_matches_general_form(self):
        for a, b in [(-0.3, 0.6), (0.0, 0.9), (-0.85, -0.2)]:
            assert rho(BALL, a * E1, b * E1) == pytest.approx(rho_axial(BALL, a, b), abs=1e-12)
        for a, b in [(0.2, 5.0), (1.0, 1.5)]:
            assert rho(HALF, a * E3, b * E3) == pytest.approx(rho_axial(HALF, a, b), abs=1e-12)

    def test_near_boundary_precision(self):
        # the factored (1-|x|)(1+|x|) form stays accurate at distance 1e-12
        t = 1.0 - 1e-12
        got = rho(BALL, O, t * E1)
        assert got == pytest.approx(rho_axial(BALL, 0.0, t), rel=1e-9)

    def test_ball_value_is_symmetric_to_the_bit(self):
        # multiplying the four factors left to right rounded (x, y) and
        # (y, x) differently on 128 of these pairs
        rng = np.random.default_rng(0)
        pairs = [(x.x, y.x) for x, y in (_checked_pair(BALL, rng) for _ in range(2000))]
        assert [(x, y) for x, y in pairs if rho(BALL, x, y) != rho(BALL, y, x)] == []


class TestDistanceRatio:
    def test_j_tilde_value(self):
        # 0.5 (log 1.5 + log 2) = 0.5 log 3
        assert j_tilde(BALL, O, 0.5 * E1) == pytest.approx(0.5 * math.log(3.0), abs=1e-15)

    def test_j_value(self):
        assert j_metric(BALL, O, 0.5 * E1) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_j_tilde_below_j(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            x = rng.uniform(-0.7, 0.7, 3)
            y = rng.uniform(-0.7, 0.7, 3)
            if np.linalg.norm(x) >= 1 or np.linalg.norm(y) >= 1 or np.array_equal(x, y):
                continue
            assert j_tilde(BALL, x, y) <= j_metric(BALL, x, y) + 1e-15


class TestDelta:
    def test_equals_rho_on_ball_and_halfspace(self):
        assert delta_metric(BALL, O, 0.5 * E1) == rho(BALL, O, 0.5 * E1)
        assert delta_metric(HALF, E3, 2 * E3) == rho(HALF, E3, 2 * E3)

    def test_punctured_with_infinity_equals_j(self):
        x, y = -0.5 * E1, 0.5 * E1
        assert delta_metric(PUNCT, x, y) == j_metric(PUNCT, x, y)

    def test_exact_maximum_on_two_punctures(self):
        d = FiniteComplement(3, [O, 2.0 * E1], includes_infinity_boundary=False)
        x, y = 0.5 * E1, 1.5 * E1
        # best ordered boundary pair is (0, 2e1): |p-q||x-y|/(|p-x||q-y|) = 2/0.25
        assert delta_metric(d, x, y) == pytest.approx(math.log1p(8.0), rel=1e-15)

    def test_single_puncture_without_infinity_rejected(self):
        d = FiniteComplement(3, [E1], includes_infinity_boundary=False)
        for x, y in ((O, 0.5 * E3), (O, O)):
            with pytest.raises(BoundaryCardinalityError):
                delta_metric(d, x, y)

    def test_pair_form_tracks_rho(self):
        # delta_metric returns rho on these domains; the reference takes the
        # supremum over boundary pairs itself
        rng = np.random.default_rng(14)
        pairs = [
            (BALL, rng.uniform(-0.55, 0.55, 3), rng.uniform(-0.55, 0.55, 3)) for _ in range(10)
        ]
        for _ in range(10):
            x = np.array([rng.normal(), rng.normal(), 10 ** rng.uniform(-1, 1)])
            y = np.array([rng.normal(), rng.normal(), 10 ** rng.uniform(-1, 1)])
            pairs.append((HALF, x, y))
        # a vertical pair: its geodesic ends at infinity
        pairs.append((HALF, np.array([0.3, -0.2, 0.5]), np.array([0.3, -0.2, 4.0])))
        for d, x, y in pairs:
            ref = _delta_pair_sup(d, x, y)
            assert delta_metric(d, x, y) == pytest.approx(ref, rel=0, abs=1e-12)


def _delta_pair_sup(domain, x, y, n=201, rounds=10):
    """log(1 + sup |p,x,q,y|) over boundary pairs (p, q) of the ball or the
    half-space: a dense grid over two boundary parameters, zoomed in
    around its argmax round after round.

    On the ball p and q run over the unit circle of the plane through 0,
    x and y (x on its real axis); on the half-space they run over the
    boundary line through the feet of x and y, as tau = scale*tan(t/2),
    and the pairs with one entry at infinity add r/h_x and r/h_y.
    """
    r = float(np.linalg.norm(x - y))
    if isinstance(domain, UnitBall):
        nx = float(np.linalg.norm(x))
        a = float(np.dot(y, x)) / nx
        zx, zy = nx, complex(a, float(np.linalg.norm(y - a * x / nx)))

        def cross(t, s):
            p, q = np.exp(1j * t), np.exp(1j * s)
            return np.abs(p - q) * r / (np.abs(p - zx) * np.abs(q - zy))

        best = 0.0
    else:
        hx, hy = float(x[-1]), float(y[-1])
        ell = float(np.linalg.norm((y - x)[:-1]))
        scale = ell + hx + hy

        def cross(t, s):
            tau, sig = scale * np.tan(0.5 * t), scale * np.tan(0.5 * s)
            return np.abs(tau - sig) * r / (np.hypot(tau, hx) * np.hypot(sig - ell, hy))

        best = max(r / hx, r / hy)
    g = np.linspace(-1.0, 1.0, n)
    t0 = s0 = 0.0
    w = math.pi
    for _ in range(rounds):
        t, s = t0 + w * g, s0 + w * g
        v = cross(t[:, None], s[None, :])
        i, k = np.unravel_index(int(np.argmax(v)), v.shape)
        best = max(best, float(v[i, k]))
        t0, s0 = float(t[i]), float(s[k])
        # the next window spans two cells on each side of the argmax
        w *= 4.0 / (n - 1)
    return math.log1p(best)


@pytest.mark.parametrize("infinity", [True, False])
def test_finite_complement_reductions_match_cross_ratio_loops(infinity):
    # the reductions do the loops' arithmetic on the same math.dist distances,
    # so they agree exactly; the point at infinity gives |p,x,y,q| its limit,
    # ratio 1 in each Apollonian factor and 0 in the eta, Cassinian and s functionals
    from hypmetrics.geometry import INFINITY, cross_ratio

    d = FiniteComplement(3, [O, 2.0 * E1, [0.0, 3.0, 1.0]], includes_infinity_boundary=infinity)
    bnd = list(d.removed) + ([INFINITY] if infinity else [])
    pairs = [(p, q) for p in bnd for q in bnd if not (p is INFINITY and q is INFINITY)]
    rng = np.random.default_rng(8)
    for _ in range(100):
        x, y = (p.x for p in _checked_pair(d, rng))
        r = math.dist(x.tolist(), y.tolist())
        dist = [(math.dist(x.tolist(), p), math.dist(y.tolist(), p)) for p in d.removed.tolist()]
        delta = math.log1p(max(cross_ratio(p, x, q, y) for p, q in pairs))
        alpha = max(math.log(cross_ratio(p, x, y, q)) for p, q in pairs)
        at_infinity = [1.0] if infinity else []
        alpha_sum = math.log(max([b / a for a, b in dist] + at_infinity)) + math.log(
            max([a / b for a, b in dist] + at_infinity)
        )
        eta = math.log(max(max(a / b, b / a) for a, b in dist))
        assert (delta_metric(d, x, y), alpha_pair_form(d, x, y)) == (delta, alpha)
        assert (alpha_metric(d, x, y), eta_metric(d, x, y)) == (alpha_sum, eta)
        assert cassinian(d, x, y) == max(r / (a * b) for a, b in dist)
        assert triangular_ratio(d, x, y) == min(max(r / (a + b) for a, b in dist), 1.0)
        assert d.distance_to_boundary(x) == min(a for a, _ in dist)


class TestAlpha:
    def test_ball_value_is_rho(self):
        assert alpha_metric(BALL, O, 0.5 * E1) == pytest.approx(math.log(3.0), abs=1e-12)

    def test_identity_with_rho_spot_checks(self):
        rng = np.random.default_rng(15)
        for dom, draw in (
            (BALL, lambda: rng.uniform(-0.6, 0.6, 3)),
            (HALF, lambda: np.array([rng.normal(), rng.normal(), 10 ** rng.uniform(-1, 1)])),
        ):
            for _ in range(15):
                x, y = draw(), draw()
                if not (dom.contains(x) and dom.contains(y)):
                    continue
                assert alpha_metric(dom, x, y) == pytest.approx(rho(dom, x, y), abs=1e-12)

    def test_pair_form_matches_metric(self):
        rng = np.random.default_rng(16)
        d = FiniteComplement(3, [O, 2.0 * E1, np.array([0.0, 3.0, 1.0])])
        for _ in range(20):
            x = rng.normal(size=3) * 2
            y = rng.normal(size=3) * 2
            if not (d.contains(x) and d.contains(y)) or np.array_equal(x, y):
                continue
            assert alpha_pair_form(d, x, y) == pytest.approx(alpha_metric(d, x, y), rel=1e-12)
        x, y = 0.2 * E1, -0.3 * E3
        assert alpha_pair_form(BALL, x, y) == pytest.approx(alpha_metric(BALL, x, y), abs=1e-10)
        x, y = E3, np.array([1.0, 0.0, 2.0])
        assert alpha_pair_form(HALF, x, y) == pytest.approx(alpha_metric(HALF, x, y), abs=1e-10)


class TestEta:
    def test_ball_value(self):
        # best boundary point e1: |log(1 / 0.5)|
        assert eta_metric(BALL, O, 0.5 * E1) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_halfspace_value(self):
        assert eta_metric(HALF, E3, 2.0 * E3) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_puncture_exact(self):
        assert eta_metric(PUNCT, O, 0.5 * E1) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_symmetry(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            x = rng.uniform(-0.8, 0.8, 3)
            y = rng.uniform(-0.8, 0.8, 3)
            if np.linalg.norm(x) >= 1 or np.linalg.norm(y) >= 1:
                continue
            assert eta_metric(BALL, x, y) == pytest.approx(eta_metric(BALL, y, x), rel=5e-16)


class TestCassinianAndTriangular:
    def test_cassinian_puncture_value(self):
        assert cassinian(PUNCT, O, 0.5 * E1) == pytest.approx(1.0, abs=1e-15)

    def test_cassinian_ball_value(self):
        # minimum of |p| |p - e1/2| over the sphere sits at p = e1
        assert cassinian(BALL, O, 0.5 * E1) == pytest.approx(1.0, abs=1e-10)

    def test_half_space_cassinian_near_the_float_maximum(self):
        # ell + h_x + h_y overflows, and so does a distance to the
        # boundary; the pair scaled by 1/4 has 4 times the value, which
        # is within a subnormal ulp of 7.8167028258731632e-309 and 8.0e-309
        # at 50 digits (tests/test_oracle.py)
        for x, y, value in [
            ((-8e307, 1e308), (8e307, 1.7e308), 7.816702825873165e-309),
            ((0.0, 1e308), (1e308, 1e308), 8e-309),
        ]:
            assert cassinian(UpperHalfSpace(2), x, y) == value
            assert cassinian(UpperHalfSpace(2), y, x) == value

    @pytest.mark.parametrize("h, value", [(5e-324, math.inf), (1e-323, math.inf), (3e-308, 3.333333333333332e307)])
    def test_half_space_cassinian_near_the_float_maximum_at_a_tiny_height(self, h, value):
        # the pair scaled by 1/4 takes a height of 2^-1073 or less to 0,
        # where the value, about 1 / h, is 1.0e323 and more at 50 digits;
        # at h = 3e-308 the scaled height is subnormal, and the value is
        # within 3e-16 of 3.33333333333333309e307
        x, y = (-1e308, h), (1e308, 1.0)
        assert cassinian(UpperHalfSpace(2), x, y) == value
        assert cassinian(UpperHalfSpace(2), y, x) == value

    def test_triangular_ball_value(self):
        assert triangular_ratio(BALL, O, 0.5 * E1) == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_triangular_saturates_at_one(self):
        d = FiniteComplement(3, [O])
        v = triangular_ratio(d, -0.3 * E1, 0.4 * E1)
        assert v == 1.0

    def test_triangular_range(self):
        rng = np.random.default_rng(18)
        for _ in range(30):
            x = rng.uniform(-0.9, 0.9, 3)
            y = rng.uniform(-0.9, 0.9, 3)
            if np.linalg.norm(x) >= 1 or np.linalg.norm(y) >= 1 or np.array_equal(x, y):
                continue
            assert 0.0 < triangular_ratio(BALL, x, y) <= 1.0


class TestDispatch:
    def test_evaluable_metrics(self):
        assert MetricId.RHO in evaluable_metrics(BALL)
        assert MetricId.RHO not in evaluable_metrics(PUNCT)
        assert set(evaluable_metrics(BALL)) == set(MetricId)
        # in MetricId order, which bench call lists and the bit-identity
        # digest are built in
        for domain in _catalog_domains():
            order = ["u", "rho", "j_tilde", "j", "delta", "alpha", "eta", "cassinian", "triangular"]
            if isinstance(domain, FiniteComplement):
                order.remove("rho")
            assert [m.value for m in evaluable_metrics(domain)] == order, domain

    def test_every_listed_metric_evaluates_on_a_one_point_boundary(self):
        # one removed point and no infinity flag: delta rejects every pair
        d = FiniteComplement(3, [E1], includes_infinity_boundary=False)
        assert MetricId.DELTA in evaluable_metrics(PUNCT)
        assert MetricId.DELTA not in evaluable_metrics(d)
        for metric in evaluable_metrics(d):
            assert math.isfinite(evaluate_metric(d, metric, O, 0.5 * E3)), metric.value

    def test_evaluate_metric_by_name(self):
        v = evaluate_metric(BALL, "u", O, 0.5 * E1)
        assert v == pytest.approx(math.log(4.5), abs=1e-15)
        assert evaluate_metric(BALL, MetricId.RHO, O, 0.5 * E1) == pytest.approx(math.log(3.0))

    @pytest.mark.parametrize("domain", ["ball", None, 3])
    def test_a_non_domain_is_a_parameter_error(self, domain):
        for call in (lambda: evaluable_metrics(domain), lambda: evaluate_metric(domain, "u", O, 0.5 * E1)):
            with pytest.raises(ParameterError, match="UnitBall, UpperHalfSpace or FiniteComplement"):
                call()

    def test_unknown_metric(self):
        with pytest.raises(ParameterError):
            evaluate_metric(BALL, "frobnicate", O, 0.5 * E1)

    def test_a_member_and_its_value_dispatch_to_the_same_function(self, monkeypatch):
        # evaluate_metric looks the name up in _DISPATCH itself
        calls = []
        for mid in MetricId:
            monkeypatch.setitem(metrics_module._DISPATCH, mid, lambda d, x, y, mid=mid: calls.append(mid) or 0.0)
        for mid in MetricId:
            calls.clear()
            evaluate_metric(BALL, mid, O, 0.5 * E1)
            evaluate_metric(BALL, mid.value, O, 0.5 * E1)
            assert calls == [mid, mid]

    @pytest.mark.parametrize("name", ["frobnicate", ["u"], 3], ids=repr)
    def test_an_unknown_name_is_a_parameter_error_naming_the_metrics(self, name):
        names = ", ".join(m.value for m in MetricId)
        with pytest.raises(ParameterError) as exc:
            evaluate_metric(BALL, name, O, 0.5 * E1)
        assert str(exc.value) == f"unknown metric {name!r}; expected one of: {names}"

    def test_undefined_combination(self):
        # one message, directly and by name, and checked before the points:
        # E1 is removed from PUNCT
        expected = f"metric 'rho' is not defined on {PUNCT!r}"
        for y in (0.5 * E3, E1):
            for call in (rho, lambda d, x, y: evaluate_metric(d, "rho", x, y)):
                with pytest.raises(ParameterError) as exc:
                    call(PUNCT, O, y)
                assert str(exc.value) == expected
