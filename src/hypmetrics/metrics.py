"""The hyperbolization metric and the hyperbolic-type metrics it is
compared against.

All metrics share the signature ``metric(domain, x, y) -> float`` with
x, y interior points.  Closed forms, including most suprema, are
evaluated directly; on finite complements suprema are exact maxima.  The
Cassinian metric on the half-space is the largest of its values at the
feet of x and y and at the real roots of one cubic; on the ball, the
root solver :func:`hypmetrics.geometry.boundary_sup` returns the least
product of distances: one Newton run on a quartic locates each minimum
on a great circle, and the product is evaluated there once.  The least
sum for s comes likewise from the Ptolemy-Alhazen quartic of mirror
reflection.  Nothing is searched.  rho exists only on the ball and the
half-space, where delta and alpha coincide with it.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .geometry import (
    BoundaryCardinalityError,
    FiniteComplement,
    ParameterError,
    UnitBall,
    UpperHalfSpace,
    _canonical_pair,
    _depressed_cubic_roots,
    boundary_sup,
    require_member,
    same_point,
)

__all__ = [
    "MetricId",
    "u_metric",
    "rho",
    "j_tilde",
    "j_metric",
    "delta_metric",
    "alpha_metric",
    "alpha_pair_form",
    "eta_metric",
    "cassinian",
    "triangular_ratio",
    "evaluate_metric",
    "evaluable_metrics",
]


class MetricId(str, Enum):
    U = "u"
    RHO = "rho"
    J_TILDE = "j_tilde"
    J = "j"
    DELTA = "delta"
    ALPHA = "alpha"
    ETA = "eta"
    CASSINIAN = "cassinian"
    TRIANGULAR = "triangular"


def _pair(domain, x, y):
    x = require_member(domain, x, "x")
    y = require_member(domain, y, "y")
    return x, y


def _sep(x, y) -> float:
    d = x - y
    return math.sqrt(float(np.dot(d, d)))


def u_metric(domain, x, y) -> float:
    """Gromov hyperbolization metric.

    u(x, y) = 2 log[(|x-y| + max{d(x), d(y)}) / sqrt(d(x) d(y))]
    with d the distance to the boundary.
    """
    x, y = _pair(domain, x, y)
    if same_point(x, y):
        return 0.0
    dx = domain.distance_to_boundary(x)
    dy = domain.distance_to_boundary(y)
    r = _sep(x, y)
    return 2.0 * math.log((r + max(dx, dy)) / math.sqrt(dx * dy))


def rho(domain, x, y) -> float:
    """Hyperbolic metric of the unit ball or the upper half-space."""
    x, y = _pair(domain, x, y)
    if same_point(x, y):
        return 0.0
    r = _sep(x, y)
    if isinstance(domain, UnitBall):
        nx = math.sqrt(np.dot(x, x))
        ny = math.sqrt(np.dot(y, y))
        # (1 - |x|^2) factored to keep precision near the boundary, and
        # grouped per point so that swapping x and y keeps the bits
        t = ((1.0 - nx) * (1.0 + nx)) * ((1.0 - ny) * (1.0 + ny))
        return 2.0 * math.log((math.sqrt(r * r + t) + r) / math.sqrt(t))
    if isinstance(domain, UpperHalfSpace):
        h = 2.0 * float(x[-1]) * float(y[-1])
        r2 = r * r
        return math.log1p((r2 + math.sqrt(r2 * r2 + 2.0 * h * r2)) / h)
    raise ParameterError("rho is defined on the unit ball and the upper half-space only")


def j_tilde(domain, x, y) -> float:
    """Distance-ratio metric, product form:
    0.5 log[(1 + |x-y|/d(x)) (1 + |x-y|/d(y))].
    """
    x, y = _pair(domain, x, y)
    if same_point(x, y):
        return 0.0
    r = _sep(x, y)
    dx = domain.distance_to_boundary(x)
    dy = domain.distance_to_boundary(y)
    return 0.5 * (math.log1p(r / dx) + math.log1p(r / dy))


def j_metric(domain, x, y) -> float:
    """Distance-ratio metric, min form: log(1 + |x-y| / min{d(x), d(y)})."""
    x, y = _pair(domain, x, y)
    if same_point(x, y):
        return 0.0
    r = _sep(x, y)
    return math.log1p(r / min(domain.distance_to_boundary(x), domain.distance_to_boundary(y)))


def delta_metric(domain, x, y) -> float:
    """Boundary-pair (Seittenranta) metric log(1 + sup |p,x,q,y|).

    On the ball and the half-space the supremum reproduces the hyperbolic
    metric exactly (Seittenranta 1999) and rho is returned directly.  On
    a finite complement the boundary is a finite point set (plus infinity
    when flagged) and the supremum is an exact maximum.
    """
    if isinstance(domain, (UnitBall, UpperHalfSpace)):
        return rho(domain, x, y)
    if domain.boundary_cardinality() < 2:
        raise BoundaryCardinalityError(
            "delta requires at least two boundary points (removed set of size >= 2, "
            "or the infinity flag)"
        )
    x, y = _pair(domain, x, y)
    if same_point(x, y):
        return 0.0
    # |p,x,q,y| over removed pairs, p = q giving 0; an entry at infinity
    # leaves |x-y| over the other entry's distance
    r = _sep(x, y)
    dpx = domain.distances(x)
    dqy = domain.distances(y)
    best = float(((domain.removed_distances * r) / (dpx[:, None] * dqy[None, :])).max())
    if domain.includes_infinity_boundary:
        best = max(best, r / float(dqy.min()), r / float(dpx.min()))
    return math.log1p(best)


def alpha_metric(domain, x, y) -> float:
    """Apollonian metric sup_{p,q} log |p,x,y,q|, evaluated as the sum of
    the two single-boundary-point suprema the cross-ratio splits into.

    On the ball and the half-space it equals rho (Beardon 1998), which is
    returned directly.  On a finite complement both suprema are exact
    maxima; the point at infinity, when it belongs to the boundary,
    contributes value 0 to each.
    """
    if isinstance(domain, (UnitBall, UpperHalfSpace)):
        return rho(domain, x, y)
    x, y = _pair(domain, x, y)
    if same_point(x, y):
        return 0.0
    # log is monotone, so each factor takes it once, of its largest ratio
    dpx = domain.distances(x)
    dpy = domain.distances(y)
    a = float((dpy / dpx).max())
    b = float((dpx / dpy).max())
    if domain.includes_infinity_boundary:
        a, b = max(a, 1.0), max(b, 1.0)
    return math.log(a) + math.log(b)


def alpha_pair_form(domain, x, y) -> float:
    """Apollonian metric evaluated as a genuine supremum over boundary
    pairs (p, q) of log |p,x,y,q|.

    On the ball and the half-space it is rho, as :func:`alpha_metric`.
    On a finite complement it is the exact maximum over admissible pairs:
    coincident pairs give 0 and pairs with both entries at infinity are
    not admissible.
    """
    if isinstance(domain, (UnitBall, UpperHalfSpace)):
        return rho(domain, x, y)
    x, y = _pair(domain, x, y)
    if same_point(x, y):
        return 0.0
    # |p,x,y,q| = |p-y| |x-q| / (|p-x| |y-q|), 1 at p = q; log is
    # monotone, so it is taken once, of the largest ratio
    dpx = domain.distances(x)
    dpy = domain.distances(y)
    best = float(((dpy[:, None] * dpx[None, :]) / (dpx[:, None] * dpy[None, :])).max())
    if domain.includes_infinity_boundary:
        best = max(best, float((dpx / dpy).max()), float((dpy / dpx).max()))
    return math.log(best)


def eta_metric(domain, x, y) -> float:
    """Quasihyperbolic-type boundary metric sup_p |log(|x-p| / |y-p|)|,
    the supremum running over the finite boundary.

    On the ball and the half-space it is log max(lambda(x, y),
    lambda(y, x)), with lambda(x, y) = sup_p |p-x| / |p-y| the ratio at
    which the Apollonian sphere around y touches the boundary: ([x,y] +
    |x-y|) / (1 - |y|^2), [x,y]^2 = |x-y|^2 + (1-|x|^2)(1-|y|^2), on the
    ball; (|x-y| + sqrt(|x-y|^2 + 4 x_n y_n)) / (2 y_n) on the half-space.
    """
    x, y = _pair(domain, x, y)
    if same_point(x, y):
        return 0.0
    r = _sep(x, y)
    if isinstance(domain, UnitBall):
        # both lambdas share the numerator; 1 - |v|^2 is factored, and the
        # form (1-|x|^2) / ([x,y] - |x-y|) is avoided: it cancels near the sphere
        nx, ny = math.sqrt(np.dot(x, x)), math.sqrt(np.dot(y, y))
        tx, ty = (1.0 - nx) * (1.0 + nx), (1.0 - ny) * (1.0 + ny)
        return math.log((math.sqrt(r * r + tx * ty) + r) / min(tx, ty))
    if isinstance(domain, UpperHalfSpace):
        hx, hy = float(x[-1]), float(y[-1])
        return math.log((r + math.sqrt(r * r + 4.0 * hx * hy)) / (2.0 * min(hx, hy)))
    dpx = domain.distances(x)
    dpy = domain.distances(y)
    return math.log(max(float((dpx / dpy).max()), float((dpy / dpx).max())))


def cassinian(domain, x, y) -> float:
    """Cassinian metric sup_p |x-y| / (|x-p| |y-p|) over the finite boundary.

    On the half-space the product of distances is least on the boundary
    line through the feet of x and y.  With the feet at tau = 0 and
    tau = l and heights h_x, h_y, its square g(tau) = (tau^2 + h_x^2)
    ((tau-l)^2 + h_y^2) has the critical points 2 tau^3 - 3 l tau^2 +
    (l^2 + h_x^2 + h_y^2) tau - l h_x^2 = 0; the metric is the largest
    value over the real roots and both feet.  On the ball it is |x-y|
    over the least product that :func:`hypmetrics.geometry.boundary_sup`
    solves for.
    """
    x, y = _pair(domain, x, y)
    if same_point(x, y):
        return 0.0
    r = _sep(x, y)
    if isinstance(domain, FiniteComplement):
        return float((r / (domain.distances(x) * domain.distances(y))).max())
    if isinstance(domain, UpperHalfSpace):
        # ordered so that (x, y) and (y, x) give the same bits
        a, b = _canonical_pair(x, y)
        ha, hb = float(a[-1]), float(b[-1])
        horiz = b - a
        horiz[-1] = 0.0
        ell = math.sqrt(np.dot(horiz, horiz))
        # lengths in units of s; tau = s (t + el/2), centred between the
        # feet, turns the cubic into t^3 + p t + q
        s = ell + ha + hb
        el, ea, eb = ell / s, ha / s, hb / s
        p = (2.0 * (ea * ea + eb * eb) - el * el) / 4.0
        q = el * (eb * eb - ea * ea) / 4.0
        taus = [s * (t + 0.5 * el) for t in _depressed_cubic_roots(p, q)]
        return max(r / (math.hypot(t, ha) * math.hypot(t - ell, hb)) for t in (0.0, ell, *taus))
    return r / boundary_sup(x, y, "product")


def triangular_ratio(domain, x, y) -> float:
    """Triangular ratio metric sup_p |x-y| / (|x-p| + |y-p|), a value in
    [0, 1] (1 exactly when the segment xy meets the boundary).

    On the half-space the least sum is |x - mirror(y)|; on finite
    complements it is a minimum over the removed points.  On the ball it
    is |x-y| over the least sum that :func:`hypmetrics.geometry.boundary_sup`
    solves for, at an arc end or at a reflection point, a root of the
    Ptolemy-Alhazen quartic.
    """
    x, y = _pair(domain, x, y)
    if same_point(x, y):
        return 0.0
    r = _sep(x, y)
    if isinstance(domain, UpperHalfSpace):
        # the shortest path from x over the boundary to y is |x - mirror(y)|
        mirror = y.copy()
        mirror[-1] = -mirror[-1]
        return r / _sep(x, mirror)
    if isinstance(domain, FiniteComplement):
        v = float((r / (domain.distances(x) + domain.distances(y))).max())
    else:
        v = r / boundary_sup(x, y, "sum")
    return min(v, 1.0)


_DISPATCH = {
    MetricId.U: u_metric,
    MetricId.RHO: rho,
    MetricId.J_TILDE: j_tilde,
    MetricId.J: j_metric,
    MetricId.DELTA: delta_metric,
    MetricId.ALPHA: alpha_metric,
    MetricId.ETA: eta_metric,
    MetricId.CASSINIAN: cassinian,
    MetricId.TRIANGULAR: triangular_ratio,
}


_ALL_METRICS = tuple(MetricId)
_COMPLEMENT_METRICS = tuple(m for m in MetricId if m is not MetricId.RHO)


def evaluable_metrics(domain) -> tuple[MetricId, ...]:
    """Metrics defined on the given domain."""
    if isinstance(domain, (UnitBall, UpperHalfSpace)):
        return _ALL_METRICS
    if isinstance(domain, FiniteComplement):
        return _COMPLEMENT_METRICS
    raise ParameterError(
        f"expected a UnitBall, UpperHalfSpace or FiniteComplement domain, got {domain!r}"
    )


def evaluate_metric(domain, metric, x, y) -> float:
    try:
        mid = MetricId(metric)
    except ValueError:
        names = ", ".join(m.value for m in MetricId)
        raise ParameterError(f"unknown metric {metric!r}; expected one of: {names}") from None
    if mid not in evaluable_metrics(domain):
        raise ParameterError(f"metric {mid.value!r} is not defined on {domain!r}")
    return _DISPATCH[mid](domain, x, y)
