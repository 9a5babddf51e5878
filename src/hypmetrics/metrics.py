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
reflection.  Nothing is searched.

On a finite complement with m removed points a supremum is a maximum
over m ratios, or m x m for the pair forms of delta and alpha.  Both
points' distance vectors come from one table (:func:`_distance_rows`),
and each ratio and the maximum are taken over Python floats, which do
the IEEE operations numpy would do entry by entry and cost far less on a
handful of numbers.  Where a distance underflows to 0 or overflows to
inf, :func:`_over` divides as numpy does (inf or nan, where Python
raises) and :func:`_largest` returns NaN if any ratio is NaN (where
``max`` keeps the first entry over a later NaN), so such pairs give the
value, inf or NaN numpy gave.

Each public metric wraps a kernel, the function body written here.  The
wrapper checks the domain once against ``_DEFINED_ON`` (and, for delta,
``_two_boundary_points``), then x, then y, each in one pass that keeps
what it measured (:func:`hypmetrics.geometry._checked_point`), and
returns 0 for equal coordinates.  The kernel takes two distinct, checked
points x, y and their gauges gx, gy, and re-derives none of them: |x|
and |y| on the ball, x_n and y_n on the half-space, and on a finite
complement both distance rows, which the wrapper builds once per call
with :func:`_distance_rows`.  rho exists only on the ball and the
half-space, where delta and alpha call its kernel.
"""

from __future__ import annotations

import functools
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
    _checked_point,
    _depressed_cubic_roots,
    _dist,
    _require_domain,
    boundary_sup,
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


# the domain types each metric is defined on, stated here only; delta
# alone also needs two boundary points
_DEFINED_ON = {m: (UnitBall, UpperHalfSpace, FiniteComplement) for m in MetricId}
_DEFINED_ON[MetricId.RHO] = (UnitBall, UpperHalfSpace)


def _two_boundary_points(domain) -> bool:
    # only a finite complement with one removed point and no infinity flag has fewer
    return not isinstance(domain, FiniteComplement) or domain.boundary_cardinality() >= 2


def _distance_rows(domain: FiniteComplement, x, y) -> list[list[float]]:
    """[|p - x| for p], [|p - y| for p] over the removed points, as
    floats, from one vecdot over the table of differences p - x, p - y."""
    return domain.distances(np.array((x, y))).tolist()


def _boundary_distances(domain, gx, gy) -> tuple[float, float]:
    """d(x), d(y) from the gauges: 1 - |v| on the ball, v_n on the
    half-space, the least distance to a removed point on a finite
    complement, as ``distance_to_boundary`` takes it."""
    if isinstance(domain, UnitBall):
        return 1.0 - gx, 1.0 - gy
    if isinstance(domain, UpperHalfSpace):
        return gx, gy
    return min(gx), min(gy)


def _over(n: float, d: float) -> float:
    """n / d for n, d >= 0 or NaN, as numpy divides: n / 0 is inf, and
    NaN when n is 0 or NaN, where float division raises."""
    return n / d if d else (math.inf if n > 0.0 else math.nan)


def _largest(values: list[float]) -> float:
    """The largest of floats >= 0 or NaN, NaN if any is: numpy's .max().
    A NaN entry makes the sum NaN, since no entry is -inf."""
    top = max(values)
    total = sum(values)
    return top if total == total else math.nan


def _largest_ratio(nums: list[float], dens: list[float]) -> float:
    """The largest nums[i] / dens[i]: numpy's (nums / dens).max()."""
    return _largest(list(map(_over, nums, dens)))


def _validated(mid: MetricId):
    """Decorator making a kernel the public metric ``mid``: it checks the
    domain's type and that ``mid`` is defined on it, then the number of
    boundary points if ``mid`` needs two, then x, then y; x == y gives 0.
    Otherwise the kernel runs on the points and their gauges, on a finite
    complement both points' distance rows."""
    kinds = _DEFINED_ON[mid]
    needs_two = mid is MetricId.DELTA

    def wrap(kernel):
        @functools.wraps(kernel)
        def metric(domain, x, y) -> float:
            if not isinstance(domain, kinds):
                _require_domain(domain)
                raise ParameterError(f"metric {mid.value!r} is not defined on {domain!r}")
            if needs_two and not _two_boundary_points(domain):
                raise BoundaryCardinalityError(
                    f"{mid.value} requires at least two boundary points (removed set of size >= 2, "
                    "or the infinity flag)"
                )
            x, xs, gx = _checked_point(domain, x, "x")
            y, ys, gy = _checked_point(domain, y, "y")
            # IEEE == on Python floats, as geometry.same_point compares
            if xs == ys:
                return 0.0
            if gx is None:
                gx, gy = _distance_rows(domain, x, y)
            return kernel(domain, x, y, gx, gy)

        return metric

    return wrap


@_validated(MetricId.U)
def u_metric(domain, x, y, gx, gy) -> float:
    """Gromov hyperbolization metric.

    u(x, y) = 2 log[(|x-y| + max{d(x), d(y)}) / sqrt(d(x) d(y))]
    with d the distance to the boundary.
    """
    dx, dy = _boundary_distances(domain, gx, gy)
    r = _dist(x, y)
    return 2.0 * math.log((r + max(dx, dy)) / math.sqrt(dx * dy))


@_validated(MetricId.RHO)
def rho(domain, x, y, gx, gy) -> float:
    """Hyperbolic metric of the unit ball or the upper half-space."""
    r = _dist(x, y)
    if isinstance(domain, UnitBall):
        # (1 - |x|^2) factored to keep precision near the boundary, and
        # grouped per point so that swapping x and y keeps the bits
        t = ((1.0 - gx) * (1.0 + gx)) * ((1.0 - gy) * (1.0 + gy))
        return 2.0 * math.log((math.sqrt(r * r + t) + r) / math.sqrt(t))
    h = 2.0 * gx * gy
    r2 = r * r
    return math.log1p((r2 + math.sqrt(r2 * r2 + 2.0 * h * r2)) / h)


# rho's kernel, which delta and alpha equal on the ball and the half-space
_rho = rho.__wrapped__


@_validated(MetricId.J_TILDE)
def j_tilde(domain, x, y, gx, gy) -> float:
    """Distance-ratio metric, product form:
    0.5 log[(1 + |x-y|/d(x)) (1 + |x-y|/d(y))].
    """
    r = _dist(x, y)
    dx, dy = _boundary_distances(domain, gx, gy)
    return 0.5 * (math.log1p(r / dx) + math.log1p(r / dy))


@_validated(MetricId.J)
def j_metric(domain, x, y, gx, gy) -> float:
    """Distance-ratio metric, min form: log(1 + |x-y| / min{d(x), d(y)})."""
    r = _dist(x, y)
    return math.log1p(r / min(_boundary_distances(domain, gx, gy)))


@_validated(MetricId.DELTA)
def delta_metric(domain, x, y, gx, gy) -> float:
    """Boundary-pair (Seittenranta) metric log(1 + sup |p,x,q,y|).

    On the ball and the half-space the supremum reproduces the hyperbolic
    metric exactly (Seittenranta 1999) and rho is returned directly.  On
    a finite complement the boundary is a finite point set (plus infinity
    when flagged) and the supremum is an exact maximum; with fewer than
    two boundary points every pair is rejected, x == y included.
    """
    if isinstance(domain, (UnitBall, UpperHalfSpace)):
        return _rho(domain, x, y, gx, gy)
    # |p,x,q,y| over removed pairs, p = q giving 0; an entry at infinity
    # leaves |x-y| over the other entry's distance; gx, gy are the rows
    # |p-x| and |q-y|
    r = _dist(x, y)
    rows = domain.removed_distance_rows
    best = _largest([_over(pq * r, px * qy) for px, row in zip(gx, rows) for pq, qy in zip(row, gy)])
    if domain.includes_infinity_boundary:
        best = max(best, r / min(gy), r / min(gx))
    return math.log1p(best)


@_validated(MetricId.ALPHA)
def alpha_metric(domain, x, y, gx, gy) -> float:
    """Apollonian metric sup_{p,q} log |p,x,y,q|, evaluated as the sum of
    the two single-boundary-point suprema the cross-ratio splits into.

    On the ball and the half-space it equals rho (Beardon 1998), which is
    returned directly.  On a finite complement both suprema are exact
    maxima; the point at infinity, when it belongs to the boundary,
    contributes value 0 to each.
    """
    if isinstance(domain, (UnitBall, UpperHalfSpace)):
        return _rho(domain, x, y, gx, gy)
    # log is monotone, so each factor takes it once, of its largest ratio
    a = _largest_ratio(gy, gx)
    b = _largest_ratio(gx, gy)
    if domain.includes_infinity_boundary:
        a, b = max(a, 1.0), max(b, 1.0)
    return math.log(a) + math.log(b)


@_validated(MetricId.ALPHA)
def alpha_pair_form(domain, x, y, gx, gy) -> float:
    """Apollonian metric evaluated as a genuine supremum over boundary
    pairs (p, q) of log |p,x,y,q|.

    On the ball and the half-space it is rho, as :func:`alpha_metric`.
    On a finite complement it is the exact maximum over admissible pairs:
    coincident pairs give 0 and pairs with both entries at infinity are
    not admissible.
    """
    if isinstance(domain, (UnitBall, UpperHalfSpace)):
        return _rho(domain, x, y, gx, gy)
    # |p,x,y,q| = |p-y| |x-q| / (|p-x| |y-q|), 1 at p = q; log is
    # monotone, so it is taken once, of the largest ratio
    best = _largest([_over(py * qx, px * qy) for px, py in zip(gx, gy) for qx, qy in zip(gx, gy)])
    if domain.includes_infinity_boundary:
        best = max(best, _largest_ratio(gx, gy), _largest_ratio(gy, gx))
    return math.log(best)


@_validated(MetricId.ETA)
def eta_metric(domain, x, y, gx, gy) -> float:
    """Quasihyperbolic-type boundary metric sup_p |log(|x-p| / |y-p|)|,
    the supremum running over the finite boundary.

    On the ball and the half-space it is log max(lambda(x, y),
    lambda(y, x)), with lambda(x, y) = sup_p |p-x| / |p-y| the ratio at
    which the Apollonian sphere around y touches the boundary: ([x,y] +
    |x-y|) / (1 - |y|^2), [x,y]^2 = |x-y|^2 + (1-|x|^2)(1-|y|^2), on the
    ball; (|x-y| + sqrt(|x-y|^2 + 4 x_n y_n)) / (2 y_n) on the half-space.
    """
    if isinstance(domain, UnitBall):
        r = _dist(x, y)
        # both lambdas share the numerator; 1 - |v|^2 is factored, and the
        # form (1-|x|^2) / ([x,y] - |x-y|) is avoided: it cancels near the sphere
        tx, ty = (1.0 - gx) * (1.0 + gx), (1.0 - gy) * (1.0 + gy)
        return math.log((math.sqrt(r * r + tx * ty) + r) / min(tx, ty))
    if isinstance(domain, UpperHalfSpace):
        r = _dist(x, y)
        return math.log((r + math.sqrt(r * r + 4.0 * gx * gy)) / (2.0 * min(gx, gy)))
    return math.log(max(_largest_ratio(gx, gy), _largest_ratio(gy, gx)))


@_validated(MetricId.CASSINIAN)
def cassinian(domain, x, y, gx, gy) -> float:
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
    r = _dist(x, y)
    if isinstance(domain, FiniteComplement):
        return _largest([_over(r, px * py) for px, py in zip(gx, gy)])
    if isinstance(domain, UpperHalfSpace):
        # ordered so that (x, y) and (y, x) give the same bits
        a, b = _canonical_pair(x, y)
        ha, hb = float(a[-1]), float(b[-1])
        horiz = b - a
        horiz[-1] = 0.0
        ell = math.sqrt(horiz.dot(horiz))
        # lengths in units of s; tau = s (t + el/2), centred between the
        # feet, turns the cubic into t^3 + p t + q
        s = ell + ha + hb
        el, ea, eb = ell / s, ha / s, hb / s
        p = (2.0 * (ea * ea + eb * eb) - el * el) / 4.0
        q = el * (eb * eb - ea * ea) / 4.0
        taus = [s * (t + 0.5 * el) for t in _depressed_cubic_roots(p, q)]
        return max(r / (math.hypot(t, ha) * math.hypot(t - ell, hb)) for t in (0.0, ell, *taus))
    return r / boundary_sup(x, y, "product")


@_validated(MetricId.TRIANGULAR)
def triangular_ratio(domain, x, y, gx, gy) -> float:
    """Triangular ratio metric sup_p |x-y| / (|x-p| + |y-p|), a value in
    [0, 1] (1 exactly when the segment xy meets the boundary).

    On the half-space the least sum is |x - mirror(y)|; on finite
    complements it is a minimum over the removed points.  On the ball it
    is |x-y| over the least sum that :func:`hypmetrics.geometry.boundary_sup`
    solves for, at an arc end or at a reflection point, a root of the
    Ptolemy-Alhazen quartic.
    """
    r = _dist(x, y)
    if isinstance(domain, UpperHalfSpace):
        # the shortest path from x over the boundary to y is |x - mirror(y)|
        mirror = y.copy()
        mirror[-1] = -mirror[-1]
        return r / _dist(x, mirror)
    if isinstance(domain, FiniteComplement):
        v = _largest([_over(r, px + py) for px, py in zip(gx, gy)])
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


def evaluable_metrics(domain) -> tuple[MetricId, ...]:
    """Metrics defined on the given domain, in MetricId order; delta only
    where the domain has two boundary points."""
    _require_domain(domain)
    pair = _two_boundary_points(domain)
    return tuple(
        m
        for m in MetricId
        if isinstance(domain, _DEFINED_ON[m]) and (pair or m is not MetricId.DELTA)
    )


def evaluate_metric(domain, metric, x, y) -> float:
    """The metric named ``metric`` (a MetricId or its value) between x and y.

    An unknown name raises ParameterError.  Everything else is checked by
    the public metric function it dispatches to, as in a direct call: the
    domain's type and whether the metric is defined on it, then x, then y.
    """
    try:
        # a MetricId hashes and compares as its value, so the value finds it too
        fn = _DISPATCH[metric]
    except (KeyError, TypeError):
        names = ", ".join(m.value for m in MetricId)
        raise ParameterError(f"unknown metric {metric!r}; expected one of: {names}") from None
    return fn(domain, x, y)
