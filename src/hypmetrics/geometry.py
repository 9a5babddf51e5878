"""Extended Euclidean geometry: finite points plus a point at infinity,
the three canonical domains, the absolute cross-ratio, and the boundary
root solver of the ball.

Every metric in this package is either a closed-form expression or a
supremum of a functional over the domain boundary; on a finite
complement such a supremum is a maximum over the removed points.
:func:`boundary_sup` serves the two suprema that have neither, both on
the ball: it returns the least product |p-x| |p-y| (for the Cassinian
metric) or the least sum |p-x| + |p-y| (for s) over the unit sphere.
(The half-space Cassinian metric is a cubic root solve in
:mod:`hypmetrics.metrics`.)  The rotational symmetry of the ball reduces
both to three floats (the two norms and half the angle between the
points) and one parameter, the angle on a great circle.  Both are root
solves: the roots of a quartic are the critical points of the product
of distances or of their sum (the Ptolemy-Alhazen quartic of mirror
reflection), its derivative's roots (a closed-form cubic,
:func:`_cubic_roots`) split the arc into pieces, and one Newton run on
the quartic finds each minimum's root, where the distance form is
evaluated once.  Nothing in the package is searched.  The least value is
the distance form at one boundary point, so it is an upper bound on the
true minimum up to the rounding of 1 - |x|, amplified by 1/d with d the
distance to the sphere: for a pair 1e-6 from the sphere and 1e-6 apart
the Cassinian metric comes out 3.6e-11 relative above its true value.
The solver defines no function per call: the distance form and the
quartic are written out where they are evaluated.

One class, :class:`Domain`, says what a domain is: UnitBall,
UpperHalfSpace and FiniteComplement are its subclasses, and a domain
argument is checked as an instance of it.  Points are validated once, at
the public entry points: require_member, the domain methods ``contains``
and ``distance_to_boundary``, and the metric functions, which check the
domain's type themselves.  Each hands a raw point to its domain class's
own checked pass (``_checked`` of UnitBall, UpperHalfSpace or
FiniteComplement), which coerces the point once (:func:`_coerced`, the
rules of :func:`as_point` with one ``tolist()``; finiteness is tested
coordinate by coordinate only where the sum is not finite), checks
membership and returns what the check measured: the point, its
coordinates as floats and its gauge, |x| on the ball, x_n on the
half-space and the distance row to the removed points on a finite
complement, where membership is read as no distance being 0.  Each
class reads d(x) off its gauge in one method (``_distance``), and the
ball's 1 - |x|^2 is read off its gauge in :func:`_one_minus_square`
only.  The domain methods, defined once on :class:`Domain`, read the
same pass; the metric kernels and boundary_sup take trusted points, and
boundary_sup their coordinate lists and gauges too.  ``Domain._point``
keeps one pass as a checked point (:class:`_CheckedPoint`), which the
suite's sampler builds per drawn point, and ``Domain._member`` gives None
where the point is outside, which is all ``contains`` reads.  A checked
point is taken without a second pass on its very domain object, by
``_point``, which returns it as itself, ``distance_to_boundary`` and the
metric functions; elsewhere :func:`_coerced` takes its array and
coordinates, comparing only the dimension.

Every Euclidean length is ``math.hypot`` of the coordinates and every
distance ``math.dist`` of two coordinate lists: both scale internally,
so no square over- or underflows anywhere in the float range.

INFINITY is one object, which copies and pickles keep, and the package
tests a point by identity, ``p is INFINITY``; :func:`is_infinity` is the
same test for callers.

:func:`_is_real`, :func:`_is_integer` and :func:`_real_array` are the
package's only number rules, :func:`_float` reads a real number as a
float (an int beyond the float range as an infinity), and :func:`_items`
is the one rule for a collection argument: mobius and suite use them.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "INFINITY",
    "is_infinity",
    "as_point",
    "UnitBall",
    "UpperHalfSpace",
    "FiniteComplement",
    "Domain",
    "require_member",
    "cross_ratio",
    "DomainMembershipError",
    "BoundaryCardinalityError",
    "ParameterError",
]


class DomainMembershipError(ValueError):
    """A point lies outside the domain it was paired with."""


class BoundaryCardinalityError(ValueError):
    """The domain boundary is too small for the requested quantity."""


class ParameterError(ValueError):
    """A numeric argument is outside its admissible range."""


class _Infinity:
    """Tagged point at infinity of the extended space.

    A dedicated singleton, never a coordinate encoding: arithmetic on it
    is a bug by construction.  ``__new__`` returns the one instance, so a
    copy, a deep copy and an unpickled INFINITY are INFINITY itself, and
    the package tests a point by identity, ``p is INFINITY``.
    """

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFINITY"


INFINITY = _Infinity()


def is_infinity(p) -> bool:
    """Whether ``p`` is INFINITY, the one instance of its class; the
    package itself tests ``p is INFINITY``."""
    return p is INFINITY


_FLOAT64 = np.dtype(float)


def as_point(p, dim: int | None = None) -> np.ndarray:
    """Coerce ``p`` to a finite point of R^n, n >= 2, of dimension ``dim``
    if given: the array of :func:`_coerced`, which holds every rule.

    Coordinates are real numbers: Python or numpy ints and floats, never
    strings or complex values.  Rejects NaN and infinite coordinates,
    and only those: finite coordinates whose sum overflows are accepted.
    INFINITY is not accepted here, callers that allow it must branch
    before coercing.  A checked point is taken as checked: its own array,
    with only its dimension compared.

    Every point so accepted is a valid input, but the metrics' accuracy
    claim holds only where each distance from the point to a puncture of
    a finite complement is at least the least normal float
    (``sys.float_info.min``): ``math.dist`` rounds a subnormal distance
    by up to 41%, and the log-type metrics inherit it.
    """
    return _coerced(p, dim)[0]


def _coerced(p, dim: int | None) -> tuple[np.ndarray, list[float]]:
    """``p`` as :func:`as_point` takes it, and its coordinates as Python
    floats: the one coercion of a point, shared by ``as_point`` and each
    domain's checked pass, with one ``tolist()``.  A checked point gives
    its own array and coordinate list, and only its dimension is
    compared, with the message its array would give."""
    if type(p) is _CheckedPoint:
        # checked on some domain, so already a vector of finite floats
        arr, coords = p.x, p.coords
    else:
        # np.asarray returns a native float64 array as itself; this skips
        # its argument handling, and every check below still runs
        if type(p) is np.ndarray and p.dtype is _FLOAT64:
            arr = p
        elif p is INFINITY:
            raise ParameterError("expected a finite point, got INFINITY")
        else:
            arr = _real_array(p, "a point must be a vector")
        if arr.ndim != 1 or arr.size < 2:
            raise ParameterError(f"a point must be a vector of dimension >= 2, got shape {arr.shape}")
        coords = arr.tolist()
        # a finite sum has only finite terms; an inf or NaN coordinate, or
        # a sum that overflows, is decided coordinate by coordinate
        if not math.isfinite(sum(coords)) and not all(map(math.isfinite, coords)):
            raise ParameterError(f"point has non-finite coordinates: {coords}")
    if dim is not None and arr.size != dim:
        raise ParameterError(f"point of dimension {arr.size} used with a domain of dimension {dim}")
    return arr, coords


def _is_integer(v) -> bool:
    """Whether ``v`` is an integer: a Python or numpy int, never a bool."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_real(v) -> bool:
    """Whether ``v`` is a real number: a Python or numpy int or float, never a bool."""
    # a float first: the check against the numbers.Real ABC takes about
    # 0.5 us, several times a probe's cost per schedule value without it
    return type(v) is float or (isinstance(v, numbers.Real) and not isinstance(v, bool))


def _float(v) -> float:
    """The real number ``v`` (:func:`_is_real`) as a float; an int beyond
    the float range is the infinity of its sign, which finiteness refuses."""
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _real_array(p, name: str) -> np.ndarray:
    """``p`` as a float array if it holds only real numbers: an array of
    bools, ints or floats, or of Python objects that are all
    ``numbers.Real`` (ints too big for int64 arrive so).  ``name`` opens
    the error message, which goes on "of real numbers"."""
    try:
        raw = np.asarray(p)
        kind = raw.dtype.kind
        if kind in "biuf" or (kind == "O" and all(isinstance(v, numbers.Real) for v in raw.flat)):
            return np.asarray(raw, dtype=float)
    except (ValueError, TypeError, OverflowError):
        # ragged nesting, or an int beyond the float range
        pass
    raise ParameterError(f"{name} of real numbers, got {p!r}")


def _items(v, name: str) -> tuple:
    """The items of the collection ``v``, as a tuple; ``v`` that is not
    iterable raises ParameterError."""
    try:
        items = iter(v)
    except TypeError:
        raise ParameterError(f"{name} must be a collection, got {v!r}") from None
    return tuple(items)


def _check_dim(dim) -> int:
    """A dimension as a Python int, rejected if not an integer >= 2; a
    numpy integer is kept as the int it equals, as reprs show it."""
    if not _is_integer(dim) or dim < 2:
        raise ParameterError(f"domains require an integer dimension >= 2, got {dim!r}")
    return int(dim)


# ---------------------------------------------------------------------------
# Domains


class _CheckedPoint:
    """A point as its domain's checked pass returned it, with that domain:
    the array ``x``, its coordinates as floats and its gauge.  Built only
    by ``Domain._point``, which, like the metrics, takes it as checked on
    that very domain object; :func:`_coerced` takes its array and
    coordinates, a finite vector already, comparing only the dimension."""

    __slots__ = ("x", "coords", "gauge", "domain")

    def __init__(self, x: np.ndarray, coords: list[float], gauge, domain):
        self.x, self.coords, self.gauge, self.domain = x, coords, gauge, domain


class Domain:
    """A domain of R^n: the base of UnitBall, UpperHalfSpace and
    FiniteComplement, and the type a domain argument is checked against.
    Its point methods read each subclass's checked pass, and its
    ``__post_init__`` is the dimension rule of the dataclass subclasses.
    Each subclass defines its own ``__init__``, so the base alone, which
    has no checked pass, refuses to be built."""

    def __init__(self):
        raise ParameterError("Domain is the base class: build a UnitBall, UpperHalfSpace or FiniteComplement")

    def __post_init__(self):
        object.__setattr__(self, "dim", _check_dim(self.dim))

    def contains(self, x) -> bool:
        """Whether ``x`` is in the domain; bad input raises ParameterError."""
        return self._member(x) is not None

    def distance_to_boundary(self, x) -> float:
        """Euclidean distance from ``x`` to the finite boundary; a point
        outside the domain raises DomainMembershipError."""
        return self._distance(self._point(x, "point").gauge)

    def _point(self, p, name: str) -> _CheckedPoint:
        """``p`` checked once on this domain, kept as a checked point; a
        checked point of this very domain object is returned as itself."""
        if type(p) is _CheckedPoint and p.domain is self:
            return p
        return _CheckedPoint(*self._checked(p, name), self)

    def _member(self, p) -> _CheckedPoint | None:
        """``p`` checked once on this domain, as a checked point, or None
        where it is outside; bad input raises ParameterError."""
        try:
            return self._point(p, "point")
        except DomainMembershipError:
            return None


@dataclass(frozen=True)
class UnitBall(Domain):
    """Open unit ball B^n = {|x| < 1}."""

    dim: int

    def _checked(self, p, name: str) -> tuple[np.ndarray, list[float], float]:
        """The checked pass on the ball: the point, its coordinates and
        its gauge |x|, which is below 1 inside."""
        x, coords = _coerced(p, self.dim)
        gauge = math.hypot(*coords)
        if not gauge < 1.0:
            raise DomainMembershipError(f"{name} {coords} is not in {self!r}")
        return x, coords, gauge

    def _distance(self, gauge: float) -> float:
        """d(x) from the gauge |x|."""
        return 1.0 - gauge


@dataclass(frozen=True)
class UpperHalfSpace(Domain):
    """Open upper half-space H^n = {x_n > 0}."""

    dim: int

    def _checked(self, p, name: str) -> tuple[np.ndarray, list[float], float]:
        """The checked pass on the half-space: the point, its coordinates
        and its gauge x_n, which is above 0 inside."""
        x, coords = _coerced(p, self.dim)
        gauge = coords[-1]
        if not gauge > 0.0:
            raise DomainMembershipError(f"{name} {coords} is not in {self!r}")
        return x, coords, gauge

    def _distance(self, gauge: float) -> float:
        """d(x) from the gauge x_n."""
        return gauge


class FiniteComplement(Domain):
    """R^n with a nonempty finite set of points removed.

    The removed points are the finite boundary.  Topologically the point
    at infinity is a boundary point as well whenever the domain is viewed
    inside extended space; ``includes_infinity_boundary`` records whether
    the boundary-pair metrics (delta, alpha) may use it.  It defaults to
    True because that is the honest boundary of an unbounded domain.

    Distances to the removed points are ``math.dist`` of Python floats,
    accurate wherever they are at least the least normal float
    (``sys.float_info.min``).  A subnormal distance is rounded by up to
    41%, so the metrics' accuracy claim leaves out points closer than
    that to a puncture.
    """

    def __init__(self, dim: int, removed, includes_infinity_boundary: bool = True):
        dim = _check_dim(dim)
        if type(includes_infinity_boundary) not in (bool, np.bool_):
            raise ParameterError(f"includes_infinity_boundary must be a bool, got {includes_infinity_boundary!r}")
        pts = [as_point(p, dim) for p in _items(removed, "removed points")]
        if not pts:
            raise BoundaryCardinalityError("FiniteComplement requires at least one removed point")
        pts = np.array(pts)
        # membership (a zero distance) is equality of Python floats; -0.0
        # and 0.0 hash alike, so the set finds duplicates the same way
        self._removed_rows = pts.tolist()
        if len(set(map(tuple, self._removed_rows))) < len(pts):
            raise ParameterError("removed points must be pairwise distinct")
        pts.setflags(write=False)
        self.dim = dim
        self.removed = pts
        self.includes_infinity_boundary = bool(includes_infinity_boundary)

    def _distance_row(self, coords: list[float]) -> list[float]:
        """|p - x| for each removed point p, in order, from the coordinates
        of x: every distance to the removed points is taken here."""
        return [math.dist(p, coords) for p in self._removed_rows]

    def _checked(self, p, name: str) -> tuple[np.ndarray, list[float], list[float]]:
        """The checked pass on a finite complement: the point, its
        coordinates and its distance row.  ``math.dist`` is 0 exactly when
        the coordinates are equal (-0.0 equal to 0.0), so membership read
        from the row agrees with ``contains``."""
        x, coords = _coerced(p, self.dim)
        row = self._distance_row(coords)
        if 0.0 in row:
            raise DomainMembershipError(f"{name} {coords} is not in {self!r}")
        return x, coords, row

    def _distance(self, row: list[float]) -> float:
        """d(x) from the distance row: its least entry."""
        return min(row)

    @cached_property
    def removed_distance_rows(self) -> tuple[tuple[float, ...], ...]:
        """The m x m distances |p - q| over removed points p, q, as rows
        of Python floats."""
        return tuple(tuple(self._distance_row(p)) for p in self._removed_rows)

    @cached_property
    def centroid(self) -> np.ndarray:
        """The mean of the removed points, read-only."""
        c = self.removed.mean(axis=0)
        c.setflags(write=False)
        return c

    def boundary_cardinality(self) -> int:
        return len(self.removed) + (1 if self.includes_infinity_boundary else 0)

    def __repr__(self) -> str:
        pts = ", ".join(str(p) for p in self.removed.tolist())
        inf = ", +inf" if self.includes_infinity_boundary else ""
        return f"FiniteComplement(dim={self.dim}, removed=[{pts}]{inf})"


def _require_domain(domain) -> None:
    if not isinstance(domain, Domain):
        raise ParameterError(f"expected a UnitBall, UpperHalfSpace or FiniteComplement domain, got {domain!r}")


def _one_minus_square(gauge: float) -> float:
    """1 - |x|^2 from the ball gauge |x|, as (1 - |x|)(1 + |x|) to keep precision."""
    return (1.0 - gauge) * (1.0 + gauge)


def require_member(domain: Domain, x, name: str = "point") -> np.ndarray:
    """Validate the domain and the membership of ``x``; return the coerced point."""
    _require_domain(domain)
    return domain._checked(x, name)[0]


# ---------------------------------------------------------------------------
# Cross-ratio


# perfbench/tracing.py wraps this as a layer that reads 0 until ROADMAP item 1 retires it
def cross_ratio(p, x, q, y) -> float:
    """Absolute cross-ratio |p,x,q,y| = |p-q| |x-y| / (|p-x| |q-y|).

    At most one argument may be INFINITY, or ParameterError is raised;
    the two factors containing it cancel (their ratio is 1).
    Coincidences that put a zero in the denominator raise
    ZeroDivisionError.
    """
    pts = [p if p is INFINITY else as_point(p) for p in (p, x, q, y)]
    if sum(pt is INFINITY for pt in pts) > 1:
        raise ParameterError("cross_ratio supports at most one point at infinity")
    dims = sorted({pt.size for pt in pts if pt is not INFINITY})
    if len(dims) > 1:
        raise ParameterError(f"cross_ratio takes points of one dimension, got dimensions {dims}")
    p, x, q, y = (pt if pt is INFINITY else pt.tolist() for pt in pts)

    def finite(*pairs):
        return [math.dist(a, b) for a, b in pairs if a is not INFINITY and b is not INFINITY]

    num, den = finite((p, q), (x, y)), finite((p, x), (q, y))
    if 0.0 in den:
        raise ZeroDivisionError("cross_ratio undefined: coincident p,x or q,y")
    if len(den) == 1:
        return num[0] / den[0]
    return _cross(*num, *den)


# the least positive normal float: a finite product at least this large
# is rounded as it would be with unbounded exponents
_NORMAL = sys.float_info.min


def _cross(a: float, b: float, c: float, d: float) -> float:
    """a b / (c d) for a, b >= 0 and c, d > 0, in range wherever the value is.

    Where both products are normal floats, that is their quotient.
    Elsewhere it is the product of two ratios, the smaller of a, b over
    the smaller of c, d and the larger over the larger: on the log scale
    this matching keeps the larger magnitude of the two ratios least, so
    neither leaves the float range unless a ratio of two of the lengths
    does.  Either way, swapping a and b, or c and d, keeps the bits.  The
    metrics' finite maxima form each cross-ratio here, so they match
    :func:`cross_ratio` exactly.
    """
    num, den = a * b, c * d
    if _NORMAL <= num < math.inf and _NORMAL <= den < math.inf:
        return num / den
    if a > b:
        a, b = b, a
    if c > d:
        c, d = d, c
    return (a / c) * (b / d)


# ---------------------------------------------------------------------------
# Boundary root solver of the ball


# no caller; perfbench/tracing.py wraps this name; kept until ROADMAP item 1 revises it
def _golden_max(fn, lo, hi, tol):
    raise NotImplementedError("golden-section search is retired; boundary_sup solves for its minima")


def _in_order(x: np.ndarray, y: np.ndarray) -> bool:
    """Whether (x, y) is the canonical order of the pair, by raw bytes, so
    that a computation from the ordered pair (the ball root solve, the
    half-space Cassinian cubic) gives the same bits for (x, y) and (y, x)."""
    return x.tobytes() <= y.tobytes()


def _depressed_cubic_roots(p: float, q: float) -> tuple[float, ...]:
    """Real roots of t^3 + p t + q = 0 (Cardano, or the trigonometric
    form when all three are real)."""
    d = (0.5 * q) ** 2 + (p / 3.0) ** 3
    if d > 0.0:
        # the two cube roots are c and -p/(3c); c takes the sign that adds magnitudes
        c = -math.copysign((0.5 * abs(q) + math.sqrt(d)) ** (1.0 / 3.0), q)
        return (c - p / (3.0 * c),)
    if p >= 0.0:
        return (0.0,)  # with d <= 0 only p = q = 0 gets here
    m = 2.0 * math.sqrt(-p / 3.0)
    phi = math.acos(max(-1.0, min(1.0, 3.0 * q / (p * m))))
    turn = 2.0 * math.pi
    return m * math.cos(phi / 3.0), m * math.cos((phi - turn) / 3.0), m * math.cos((phi - 2.0 * turn) / 3.0)


def _quadratic_roots(c0: float, c1: float, c2: float) -> list[float]:
    """Real roots of c0 + c1 t + c2 t^2, with c2 = 0 allowed."""
    if c2 == 0.0:
        return [-c0 / c1] if c1 != 0.0 else []
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc < 0.0:
        return []
    # the root of larger magnitude first, the other from the product of
    # the roots, so that neither cancels
    h = -0.5 * (c1 + math.copysign(math.sqrt(disc), c1))
    if h == 0.0:
        return [0.0, 0.0]
    return [t for t in (h / c2, c0 / h) if math.isfinite(t)]


def _cubic_roots(c0: float, c1: float, c2: float, c3: float) -> list[float]:
    """Real roots of c0 + c1 t + c2 t^2 + c3 t^3, a multiple root listed
    as often as it is found.

    The depressed form of t = s - c2 / (3 c3) gives the root t1 of
    largest magnitude, which the shift leaves accurate, and one Newton
    step on the cubic polishes it.  The other two are the roots of the
    quadratic left by dividing out t - t1, from the constant term when t1
    is the largest root and from the leading term otherwise, so small
    roots stay accurate where the shift alone would lose eps (c2 / c3)^2
    of them.  A leading coefficient at most 1e-50 of the others, 0
    included, is dropped so that nothing overflows; a root beyond about
    1e16 in magnitude may then be lost.
    """
    if abs(c3) <= 1e-50 * max(abs(c0), abs(c1), abs(c2)):
        return _quadratic_roots(c0, c1, c2)
    b, c, d = c2 / c3, c1 / c3, c0 / c3
    p = c - b * b / 3.0
    q = d - b * (c - 2.0 * b * b / 9.0) / 3.0
    # the shifted root of largest magnitude, the first of equals
    b3 = b / 3.0
    roots = _depressed_cubic_roots(p, q)
    t = roots[0] - b3
    for s in roots[1:]:
        s -= b3
        if abs(s) > abs(t):
            t = s
    # kept only if it lowers |cubic|: next to a multiple root it may not
    ft, slope = ((c3 * t + c2) * t + c1) * t + c0, (3.0 * c3 * t + 2.0 * c2) * t + c1
    if slope != 0.0:
        u = t - ft / slope
        if abs(((c3 * u + c2) * u + c1) * u + c0) < abs(ft):
            t = u
    if abs(c3 * t * t * t) > abs(c0):
        k = c1 + c0 / t
        return [t, *_quadratic_roots(c0, k, c2 + k / t)]
    k = c2 + c3 * t
    return [t, *_quadratic_roots(c1 + k * t, k, c3)]


# perfbench/tracing.py wraps this name in metrics; kept until ROADMAP item 1 revises it
def boundary_sup(
    x: np.ndarray, y: np.ndarray, xs: list[float], ys: list[float], gx: float, gy: float, kind: str
) -> float:
    """Least |p-x| |p-y| (kind "product") or |p-x| + |p-y| (kind "sum")
    over the unit sphere, for trusted points x, y of the unit ball with
    their coordinate lists and gauges |x| and |y|, as the kernels get them.

    In the plane through 0, x and y the squared distance from the circle
    point at angle theta to a point of polar data (r, t) is D(theta) =
    (1-r)^2 + 4 r sin^2((theta-t)/2).  Both D_x D_y (product) and
    sqrt(D_x) + sqrt(D_y) (sum) are least on the closed short arc
    between t_x and t_y: a point off it is dominated by an arc point no
    farther from either.  Take phi = theta - t_m, t_m the midpoint of the
    arc, so that x sits at phi = -w and y at +w, and u = tan(phi/2); w
    is Kahan's atan2(|x r_y - y r_x|, |x r_y + y r_x|), so the values need
    no basis of the plane.  On the arc a quartic c(u) has the sign of the
    phi-derivative:

    - product: each (1+u^2) D is A u^2 + B u + C with delta = t - t_m,
      A = (1+r)^2 - 4r sin^2(delta/2), B = -4r sin(delta) and C = (1-r)^2
      + 4r sin^2(delta/2).  For G = (1+u^2)^2 D_x D_y = sum g_k u^k, c is
      (1+u^2)^3 times the u-derivative of D_x D_y: -g3 u^4 + (4g4 - 2g2)
      u^3 + 3(g3 - g1) u^2 + (2g2 - 4g0) u + g1.
    - sum: with x = r_x e^{-iw} and y = r_y e^{iw} as complex numbers,
      the mirror-reflection points z = e^{i phi} are the roots of
      conj(x y) z^4 - conj(x + y) z^3 + (x + y) z - x y (Fujimura, Hariri,
      Mocanu and Vuorinen, "The Ptolemy-Alhazen problem and spherical
      mirror reflection", CMFT 19 (2019)); over z^2 it reads Im(conj(x y)
      z^2) = Im(conj(x + y) z).  Times -(1+u^2)^2 that is c = Q + (P-R) u
      + (P+R) u^3 - Q u^4 with P = 2(r_x + r_y) cos w, Q = (r_x - r_y)
      sin w and R = 4 r_x r_y.  Off the sum's critical points its roots
      are those of the difference of the distances, which has none inside
      the short arc.

    The roots of the cubic c' (:func:`_cubic_roots`) cut the arc into
    pieces where c is monotone, and the functional has a minimum in each
    piece where c rises through 0.  Newton's method on c, kept inside the
    piece, finds its root u to rounding, and the candidate is the sin^2
    form at phi = 2 atan(u), one evaluation per minimum: at a minimum an
    error e in the angle moves the value by O(e^2) only.  The least of
    those candidates and of both arc ends (the anchors t_x and t_y) is
    returned.  The arc ends read the sin^2 form off sin w alone: at phi =
    -w the half-angle sines are sin 0 = 0 for x and sin(-w) for y, so D_x
    = (1-r_x)^2 and D_y = (1-r_y)^2 + 4 r_y sin^2 w, and phi = +w mirrors
    this.

    Everything is computed from the canonical pair, so swapping x and y
    gives the same bits.
    """
    al, bl, ra, rb = (xs, ys, gx, gy) if _in_order(x, y) else (ys, xs, gy, gx)
    # a sits at phi = -w, b at phi = +w; w = 0 when a or b is 0
    w = math.atan2(
        math.hypot(*[p * rb - q * ra for p, q in zip(al, bl)]),
        math.hypot(*[p * rb + q * ra for p, q in zip(al, bl)]),
    )
    oma, fa4 = (1.0 - ra) ** 2, 4.0 * ra
    omb, fb4 = (1.0 - rb) ** 2, 4.0 * rb
    product = kind == "product"
    sin, sqrt = math.sin, math.sqrt
    # the distance form at both arc ends, then at one root per minimum;
    # sin is odd, so (fb4 * sin w) * sin w has the bits of the sin(-w) form
    sw = sin(w)
    da, db = oma + fa4 * sw * sw, omb + fb4 * sw * sw
    values = [oma * db, da * omb] if product else [sqrt(oma) + sqrt(db), sqrt(da) + sqrt(omb)]
    umax = math.tan(0.5 * w)
    if umax > 0.0:
        s2 = sin(0.5 * w) ** 2
        if product:
            Aa, Ba, Ca = (1.0 + ra) ** 2 - fa4 * s2, fa4 * sw, oma + fa4 * s2
            Ab, Bb, Cb = (1.0 + rb) ** 2 - fb4 * s2, -fb4 * sw, omb + fb4 * s2
            g4, g0 = Aa * Ab, Ca * Cb
            g3 = Aa * Bb + Ba * Ab
            g2 = Aa * Cb + Ba * Bb + Ca * Ab
            g1 = Ba * Cb + Ca * Bb
            c0, c1, c2, c3, c4 = g1, 2.0 * g2 - 4.0 * g0, 3.0 * (g3 - g1), 4.0 * g4 - 2.0 * g2, -g3
        else:
            # P - R = 2(r_x (1-r_y) + r_y (1-r_x)) - 4 (r_x + r_y) sin^2(w/2)
            # without the cancellation of 2(r_x + r_y) cos w - 4 r_x r_y
            q = (ra - rb) * sw
            pmr = 2.0 * (ra * (1.0 - rb) + rb * (1.0 - ra)) - 4.0 * (ra + rb) * s2
            ppr = 4.0 * ra * rb + 2.0 * (ra + rb) * (1.0 - 2.0 * s2)
            c0, c1, c2, c3, c4 = q, pmr, 0.0, ppr, -q
        # the derivative's coefficients, for its roots and Newton's slope
        d2, d3, d4 = 2.0 * c2, 3.0 * c3, 4.0 * c4
        knots = sorted([t for t in _cubic_roots(c1, d2, d3, d4) if -umax < t < umax])
        knots.append(umax)
        tol = 1e-15 * umax
        # the quartic at each knot, from the arc end -umax to umax
        end = -umax
        pe = (((c4 * end + c3) * end + c2) * end + c1) * end + c0
        for knot in knots:
            pk = (((c4 * knot + c3) * knot + c2) * knot + c1) * knot + c0
            if pe < 0.0 <= pk:
                # Newton on the quartic, kept inside the piece, run until
                # the step or the bracket is down to rounding
                lo, hi = end, knot
                u = lo - pe * (hi - lo) / (pk - pe)
                for _ in range(100):
                    p = (((c4 * u + c3) * u + c2) * u + c1) * u + c0
                    if p < 0.0:
                        lo = u
                    else:
                        hi = u
                    dp = ((d4 * u + d3) * u + d2) * u + c1
                    step = p / dp if dp > 0.0 else math.inf
                    u -= step
                    if abs(step) <= tol:
                        break
                    if not lo < u < hi:
                        u = 0.5 * (lo + hi)
                    if hi - lo <= tol:
                        break
                phi = 2.0 * math.atan(u)
                sa, sb = sin(0.5 * (phi + w)), sin(0.5 * (phi - w))
                da, db = oma + fa4 * sa * sa, omb + fb4 * sb * sb
                values.append(da * db if product else sqrt(da) + sqrt(db))
            end, pe = knot, pk
    least = min(values)
    return sqrt(least) if product else least
