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
over m ratios, or m x m for the pair forms of delta and alpha, taken
over Python floats.  Every maximum over finite candidates, the
half-space Cassinian metric's included, is :func:`_largest` of their
list, and NaN if any candidate is; a distance overflows to inf only
where coordinates differ by more than the float range.

Every Euclidean distance is ``math.dist`` of two coordinate lists, which
scales internally.  A product that could leave the float range keeps its
plain form where it is a normal float, so those bits are the plain
form's, and is otherwise formed from its factors: sqrt(d(x) d(y)) and
sqrt(x_n y_n) from factors scaled by even powers of 2
(:func:`_root_product`), |x-y| over a product of two distances by the
larger distance first (:func:`_largest_over_product`), and a cross-ratio
as two matched ratios (:func:`hypmetrics.geometry._cross`).  A log whose
argument leaves the float range is taken from the logs of lengths: of
the largest cross-ratio in delta and alpha's pair form, of the largest
ratio of two distances in alpha and eta on a finite complement
(:func:`_log_of_largest_ratio`), of |x-y| / d in j and j_tilde
(:func:`_log1p_ratio`).  The half-space rho is 2 asinh and eta a ratio
form.  On finite complements a value in range therefore comes out finite
for coordinates anywhere in the float range; on the half-space too,
short of a length and a height whose ratio is not: at x = (0, 1e-300)
eta is inf for y = (0, 1e300) and (1e300, 1e-300), and u, rho, delta
and alpha for the second.  On the ball 1 - |x| is from the rounded |x|.

Each public metric wraps a kernel, the function body written here.  The
wrapper checks the domain once against ``_DEFINED_ON`` (and, for delta,
``_two_boundary_points``), then x, then y, each in one pass that keeps
what it measured (the domain class's own checked pass, ``_checked``),
and returns 0 for equal coordinates.  A point that arrives as a checked
point of this very domain object (geometry's ``_CheckedPoint``, which
the suite's sampler builds once per drawn point) hands over that pass
instead; any other checked point is checked afresh from its array.  The
kernel takes two distinct, checked points x, y, their coordinate lists
xs, ys and their gauges gx, gy, and re-derives none of them: |x| and |y|
on the ball, x_n and y_n on the half-space, and on a finite complement
both distance rows (``FiniteComplement._distance_row``), from which the
checked pass read membership.  d(x) is read off a gauge by the domain's ``_distance``
method and the ball's 1 - |x|^2 by geometry's ``_one_minus_square``; no
kernel decodes a gauge.  rho exists only on the ball and the half-space,
where delta and alpha call its kernel.
"""

from __future__ import annotations

import functools
import math
from enum import Enum

from .geometry import (
    BoundaryCardinalityError,
    Domain,
    FiniteComplement,
    ParameterError,
    UnitBall,
    UpperHalfSpace,
    _NORMAL,
    _CheckedPoint,
    _cross,
    _depressed_cubic_roots,
    _in_order,
    _one_minus_square,
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
_DEFINED_ON = {m: Domain for m in MetricId}
_DEFINED_ON[MetricId.RHO] = (UnitBall, UpperHalfSpace)


def _two_boundary_points(domain) -> bool:
    # only a finite complement with one removed point and no infinity flag has fewer
    return not isinstance(domain, FiniteComplement) or domain.boundary_cardinality() >= 2


def _largest(values: list[float]) -> float:
    """The largest of floats >= 0 or NaN, NaN if any is (``max`` keeps
    the first entry over a later NaN).  A NaN entry makes the sum NaN,
    since no entry is -inf."""
    top = max(values)
    total = sum(values)
    return top if total == total else math.nan


def _log_of_largest_ratio(nums: list[float], dens: list[float]) -> float:
    """log of the largest nums[i] / dens[i] for lengths > 0, NaN if any
    is.  Where that ratio leaves the float range (0 or inf), the largest
    log nums[i] - log dens[i]: each log is at most 745 in size, so the
    difference is in range wherever the value is."""
    best = _largest([n / d for n, d in zip(nums, dens)])
    if best == 0.0 or best == math.inf:
        return max(math.log(n) - math.log(d) for n, d in zip(nums, dens))
    return math.log(best)


def _log_of_largest(terms: list[tuple[float, float, float, float]], log) -> float:
    """``log`` (math.log or math.log1p) of the largest cross-ratio a b /
    (c d) over the terms (a, b, c, d), each formed by
    :func:`hypmetrics.geometry._cross`; NaN if any is.  Where the largest
    overflows, the largest log a + log b - log c - log d over the terms
    that do: each log is at most 745 in size and the sum above 709, so it
    keeps 15 digits, and log1p of so large a value rounds as log does."""
    crosses = [_cross(a, b, c, d) for a, b, c, d in terms]
    best = _largest(crosses)
    if best != math.inf:
        return log(best)
    return max(
        math.log(a) + math.log(b) - math.log(c) - math.log(d)
        for (a, b, c, d), v in zip(terms, crosses)
        if v == math.inf
    )


def _root_product(a: float, b: float) -> float:
    """sqrt(a b) for a, b > 0: math.sqrt of the product where that is a
    normal float, and otherwise of the product of a and b scaled by even
    powers of 2 into [1/2, 2), which rounds nothing.  So the bits are the
    plain form's wherever it is in range, and sqrt(a a) is a."""
    p = a * b
    if _NORMAL <= p < math.inf:
        return math.sqrt(p)
    i, j = math.frexp(a)[1] // 2, math.frexp(b)[1] // 2
    return math.ldexp(math.sqrt(math.ldexp(a, -2 * i) * math.ldexp(b, -2 * j)), i + j)


def _log1p_ratio(r: float, d: float) -> float:
    """log(1 + r / d) for lengths r, d > 0; where r / d overflows, log r -
    log d, from which it differs by less than d / r < 1e-308."""
    q = r / d
    return math.log1p(q) if q != math.inf else math.log(r) - math.log(d)


def _largest_over_product(r: float, pairs) -> float:
    """The largest r / (d1 d2) over the pairs (d1, d2) of distances with
    r <= d1 + d2, NaN if any is (:func:`_largest`): the quotient by the
    product where that is a normal float, else by the larger distance, at
    most 2, then by the smaller, so in range wherever the value is and the
    same bits for (d2, d1)."""
    return _largest(
        [
            r / p if _NORMAL <= (p := d1 * d2) < math.inf else (r / d1 / d2 if d1 >= d2 else r / d2 / d1)
            for d1, d2 in pairs
        ]
    )


def _validated(mid: MetricId):
    """Decorator making a kernel the public metric ``mid``: it checks the
    domain's type and that ``mid`` is defined on it, then the number of
    boundary points if ``mid`` needs two, then x, then y; x == y gives 0.
    Otherwise the kernel runs on the points, their coordinate lists and
    their gauges, on a finite complement both points' distance rows, as
    the checked pass returns them.  A point that already holds that pass
    on this domain object (geometry's ``_CheckedPoint``, which the
    suite's sampler builds) hands it over unchecked; a raw point pays one
    type test for it."""
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
            if type(x) is _CheckedPoint and x.domain is domain:
                x, xs, gx = x.x, x.coords, x.gauge
            else:
                x, xs, gx = domain._checked(x, "x")
            if type(y) is _CheckedPoint and y.domain is domain:
                y, ys, gy = y.x, y.coords, y.gauge
            else:
                y, ys, gy = domain._checked(y, "y")
            # IEEE == on Python floats, so -0.0 equals 0.0
            if xs == ys:
                return 0.0
            return kernel(domain, x, y, xs, ys, gx, gy)

        return metric

    return wrap


@_validated(MetricId.U)
def u_metric(domain, x, y, xs, ys, gx, gy) -> float:
    """Gromov hyperbolization metric.

    u(x, y) = 2 log[(|x-y| + max{d(x), d(y)}) / sqrt(d(x) d(y))]
    with d the distance to the boundary.
    """
    dx, dy = domain._distance(gx), domain._distance(gy)
    r = math.dist(xs, ys)
    return 2.0 * math.log((r + max(dx, dy)) / _root_product(dx, dy))


@_validated(MetricId.RHO)
def rho(domain, x, y, xs, ys, gx, gy) -> float:
    """Hyperbolic metric of the unit ball or the upper half-space."""
    r = math.dist(xs, ys)
    if isinstance(domain, UnitBall):
        # grouped per point so that swapping x and y keeps the bits
        t = _one_minus_square(gx) * _one_minus_square(gy)
        return 2.0 * math.log((math.sqrt(r * r + t) + r) / math.sqrt(t))
    # sinh(rho / 2) = |x-y| / (2 sqrt(x_n y_n))
    return 2.0 * math.asinh(0.5 * (r / _root_product(gx, gy)))


# rho's kernel, which delta and alpha equal on the ball and the half-space
_rho = rho.__wrapped__


@_validated(MetricId.J_TILDE)
def j_tilde(domain, x, y, xs, ys, gx, gy) -> float:
    """Distance-ratio metric, product form:
    0.5 log[(1 + |x-y|/d(x)) (1 + |x-y|/d(y))].
    """
    r = math.dist(xs, ys)
    dx, dy = domain._distance(gx), domain._distance(gy)
    return 0.5 * (_log1p_ratio(r, dx) + _log1p_ratio(r, dy))


@_validated(MetricId.J)
def j_metric(domain, x, y, xs, ys, gx, gy) -> float:
    """Distance-ratio metric, min form: log(1 + |x-y| / min{d(x), d(y)})."""
    r = math.dist(xs, ys)
    return _log1p_ratio(r, min(domain._distance(gx), domain._distance(gy)))


@_validated(MetricId.DELTA)
def delta_metric(domain, x, y, xs, ys, gx, gy) -> float:
    """Boundary-pair (Seittenranta) metric log(1 + sup |p,x,q,y|).

    On the ball and the half-space the supremum reproduces the hyperbolic
    metric exactly (Seittenranta 1999) and rho is returned directly.  On
    a finite complement the boundary is a finite point set (plus infinity
    when flagged) and the supremum is an exact maximum; with fewer than
    two boundary points every pair is rejected, x == y included.
    """
    if isinstance(domain, (UnitBall, UpperHalfSpace)):
        return _rho(domain, x, y, xs, ys, gx, gy)
    # |p,x,q,y| = |p-q| |x-y| / (|p-x| |q-y|) over removed pairs, 0 at
    # p = q; an entry at infinity leaves |x-y| over the other entry's
    # distance; gx, gy are the rows |p-x| and |q-y|
    r = math.dist(xs, ys)
    rows = domain.removed_distance_rows
    terms = [(pq, r, px, qy) for px, row in zip(gx, rows) for pq, qy in zip(row, gy)]
    if domain.includes_infinity_boundary:
        terms += [(r, 1.0, min(gy), 1.0), (r, 1.0, min(gx), 1.0)]
    return _log_of_largest(terms, math.log1p)


@_validated(MetricId.ALPHA)
def alpha_metric(domain, x, y, xs, ys, gx, gy) -> float:
    """Apollonian metric sup_{p,q} log |p,x,y,q|, evaluated as the sum of
    the two single-boundary-point suprema the cross-ratio splits into.

    On the ball and the half-space it equals rho (Beardon 1998), which is
    returned directly.  On a finite complement both suprema are exact
    maxima; the point at infinity, when it belongs to the boundary,
    contributes value 0 to each.
    """
    if isinstance(domain, (UnitBall, UpperHalfSpace)):
        return _rho(domain, x, y, xs, ys, gx, gy)
    # log is monotone, so each factor takes it once, of its largest ratio;
    # the point at infinity's ratio 1 puts a floor of 0 under each log
    a = _log_of_largest_ratio(gy, gx)
    b = _log_of_largest_ratio(gx, gy)
    if domain.includes_infinity_boundary:
        a, b = max(a, 0.0), max(b, 0.0)
    return a + b


@_validated(MetricId.ALPHA)
def alpha_pair_form(domain, x, y, xs, ys, gx, gy) -> float:
    """Apollonian metric evaluated as a genuine supremum over boundary
    pairs (p, q) of log |p,x,y,q|.

    On the ball and the half-space it is rho, as :func:`alpha_metric`.
    On a finite complement it is the exact maximum over admissible pairs:
    coincident pairs give 0 and pairs with both entries at infinity are
    not admissible.
    """
    if isinstance(domain, (UnitBall, UpperHalfSpace)):
        return _rho(domain, x, y, xs, ys, gx, gy)
    # |p,x,y,q| = |p-y| |x-q| / (|p-x| |y-q|); an entry at infinity
    # leaves the ratio of the other entry's distances
    terms = [(py, qx, px, qy) for px, py in zip(gx, gy) for qx, qy in zip(gx, gy)]
    if domain.includes_infinity_boundary:
        terms += [(a, 1.0, b, 1.0) for a, b in zip(gx, gy)] + [(b, 1.0, a, 1.0) for a, b in zip(gx, gy)]
    return _log_of_largest(terms, math.log)


@_validated(MetricId.ETA)
def eta_metric(domain, x, y, xs, ys, gx, gy) -> float:
    """Quasihyperbolic-type boundary metric sup_p |log(|x-p| / |y-p|)|,
    the supremum running over the finite boundary.

    On the ball and the half-space it is log max(lambda(x, y),
    lambda(y, x)), with lambda(x, y) = sup_p |p-x| / |p-y| the ratio at
    which the Apollonian sphere around y touches the boundary: ([x,y] +
    |x-y|) / (1 - |y|^2), [x,y]^2 = |x-y|^2 + (1-|x|^2)(1-|y|^2), on the
    ball; (|x-y| + sqrt(|x-y|^2 + 4 x_n y_n)) / (2 y_n) on the half-space.
    """
    if isinstance(domain, UnitBall):
        r = math.dist(xs, ys)
        # both lambdas share the numerator; the form (1-|x|^2) / ([x,y] -
        # |x-y|) is avoided: it cancels near the sphere
        tx, ty = _one_minus_square(gx), _one_minus_square(gy)
        return math.log((math.sqrt(r * r + tx * ty) + r) / min(tx, ty))
    if isinstance(domain, UpperHalfSpace):
        # over n = min(x_n, y_n), with m = max(x_n, y_n) and h = |x-y| / 2n:
        # h + sqrt(h^2 + m/n), which is at least 1, as lambda is
        m, n = (gx, gy) if gx >= gy else (gy, gx)
        h = 0.5 * (math.dist(xs, ys) / n)
        return math.log(h + math.hypot(h, math.sqrt(m / n)))
    return max(_log_of_largest_ratio(gx, gy), _log_of_largest_ratio(gy, gx))


@_validated(MetricId.CASSINIAN)
def cassinian(domain, x, y, xs, ys, gx, gy) -> float:
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
    r = math.dist(xs, ys)
    if isinstance(domain, FiniteComplement):
        return _largest_over_product(r, zip(gx, gy))
    if isinstance(domain, UpperHalfSpace):
        # ordered so that (x, y) and (y, x) give the same bits
        return _half_space_cassinian(r, *((xs, ys) if _in_order(x, y) else (ys, xs)))
    return r / boundary_sup(x, y, xs, ys, gx, gy, "product")


def _half_space_cassinian(r: float, a: list[float], b: list[float]) -> float:
    """The half-space Cassinian metric of the ordered coordinate lists a,
    b at distance r: the largest r / (|a-p| |b-p|) over both feet and the
    real roots of the cubic.

    Near the float maximum the normaliser s = ell + h_a + h_b overflows,
    and so may the distances to the boundary; there the value is that of
    the pair scaled by 1/4 (exact for each coordinate 0 or at least
    2^-1020 in magnitude), over 4, as the metric scales as 1 / length.  A
    height that the scaling takes to 0 is at most 2^-1073, next to a
    point more than 1e308 away, so the value, about 1 / height, is inf.
    """
    ha, hb = a[-1], b[-1]
    ell = math.dist(a[:-1], b[:-1])
    # lengths in units of s; tau = s (t + el/2), centred between the
    # feet, turns the cubic into t^3 + p t + q
    s = ell + ha + hb
    if s == math.inf:
        a, b = [0.25 * v for v in a], [0.25 * v for v in b]
        if a[-1] == 0.0 or b[-1] == 0.0:
            return math.inf
        return _half_space_cassinian(math.dist(a, b), a, b) / 4.0
    el, ea, eb = ell / s, ha / s, hb / s
    p = (2.0 * (ea * ea + eb * eb) - el * el) / 4.0
    q = el * (eb * eb - ea * ea) / 4.0
    taus = [s * (t + 0.5 * el) for t in _depressed_cubic_roots(p, q)]
    pairs = [(math.hypot(t, ha), math.hypot(t - ell, hb)) for t in (0.0, ell, *taus)]
    return _largest_over_product(r, pairs)


@_validated(MetricId.TRIANGULAR)
def triangular_ratio(domain, x, y, xs, ys, gx, gy) -> float:
    """Triangular ratio metric sup_p |x-y| / (|x-p| + |y-p|), a value in
    [0, 1] (1 exactly when the segment xy meets the boundary).

    On the half-space the least sum is |x - mirror(y)|; on finite
    complements it is a minimum over the removed points.  On the ball it
    is |x-y| over the least sum that :func:`hypmetrics.geometry.boundary_sup`
    solves for, at an arc end or at a reflection point, a root of the
    Ptolemy-Alhazen quartic.
    """
    r = math.dist(xs, ys)
    if isinstance(domain, UpperHalfSpace):
        # the shortest path from x over the boundary to y is |x - mirror(y)|
        return r / math.dist(xs, [*ys[:-1], -ys[-1]])
    if isinstance(domain, FiniteComplement):
        v = _largest([r / (px + py) for px, py in zip(gx, gy)])
    else:
        v = r / boundary_sup(x, y, xs, ys, gx, gy, "sum")
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
