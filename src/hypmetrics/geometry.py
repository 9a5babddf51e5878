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

Points are validated once, at the public entry points: require_member
(and through it every metric function) and distance_to_boundary.  The
domain methods, the closed forms and boundary_sup take trusted float
arrays of the domain's dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

__all__ = [
    "INFINITY",
    "is_infinity",
    "as_point",
    "same_point",
    "UnitBall",
    "UpperHalfSpace",
    "FiniteComplement",
    "Domain",
    "distance_to_boundary",
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
    is a bug by construction.
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
    return isinstance(p, _Infinity)


def as_point(p, dim: int | None = None) -> np.ndarray:
    """Coerce ``p`` to a finite point of R^n, n >= 2.

    Rejects NaN and infinite coordinates; INFINITY is not accepted here,
    callers that allow it must branch before coercing.
    """
    if is_infinity(p):
        raise ParameterError("expected a finite point, got INFINITY")
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ParameterError(f"a point must be a vector of dimension >= 2, got shape {arr.shape}")
    if not all(map(math.isfinite, arr.tolist())):
        raise ParameterError(f"point has non-finite coordinates: {arr.tolist()}")
    if dim is not None and arr.size != dim:
        raise ParameterError(f"point of dimension {arr.size} used with a domain of dimension {dim}")
    return arr


def same_point(x: np.ndarray, y: np.ndarray) -> bool:
    """Whether two finite points of one dimension are equal coordinatewise.

    IEEE ``==`` on Python floats, so -0.0 equals 0.0; comparing the
    ``tolist()`` copies is several times cheaper than a numpy reduction
    on a handful of coordinates.
    """
    return x.tolist() == y.tolist()


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _dist(a: np.ndarray, b: np.ndarray) -> float:
    d = a - b
    return math.sqrt(float(np.dot(d, d)))


# ---------------------------------------------------------------------------
# Domains


@dataclass(frozen=True)
class UnitBall:
    """Open unit ball B^n = {|x| < 1}."""

    dim: int

    def __post_init__(self):
        if self.dim < 2:
            raise ParameterError("domains require dimension >= 2")

    # math.sqrt(np.dot(x, x)) is how np.linalg.norm computes the norm of a
    # 1-D float array, without its generic dispatch
    def contains(self, x) -> bool:
        return math.sqrt(np.dot(x, x)) < 1.0

    def distance_to_boundary(self, x) -> float:
        return 1.0 - math.sqrt(np.dot(x, x))

    def __repr__(self) -> str:
        return f"UnitBall(dim={self.dim})"


@dataclass(frozen=True)
class UpperHalfSpace:
    """Open upper half-space H^n = {x_n > 0}."""

    dim: int

    def __post_init__(self):
        if self.dim < 2:
            raise ParameterError("domains require dimension >= 2")

    def contains(self, x) -> bool:
        return float(x[-1]) > 0.0

    def distance_to_boundary(self, x) -> float:
        return float(x[-1])

    def __repr__(self) -> str:
        return f"UpperHalfSpace(dim={self.dim})"


class FiniteComplement:
    """R^n with a nonempty finite set of points removed.

    The removed points are the finite boundary.  Topologically the point
    at infinity is a boundary point as well whenever the domain is viewed
    inside extended space; ``includes_infinity_boundary`` records whether
    the boundary-pair metrics (delta, alpha) may use it.  It defaults to
    True because that is the honest boundary of an unbounded domain.
    """

    def __init__(self, dim: int, removed, includes_infinity_boundary: bool = True):
        if dim < 2:
            raise ParameterError("domains require dimension >= 2")
        pts = [as_point(p, dim) for p in removed]
        if not pts:
            raise BoundaryCardinalityError("FiniteComplement requires at least one removed point")
        pts = np.array(pts)
        # membership compares Python floats, like same_point; -0.0 and 0.0
        # hash alike, so the set finds duplicates under the same equality
        self._removed_rows = pts.tolist()
        if len(set(map(tuple, self._removed_rows))) < len(pts):
            raise ParameterError("removed points must be pairwise distinct")
        pts.setflags(write=False)
        self.dim = dim
        self.removed = pts
        self.includes_infinity_boundary = bool(includes_infinity_boundary)

    def contains(self, x) -> bool:
        return np.asarray(x, dtype=float).tolist() not in self._removed_rows

    def _squared_distances(self, x) -> np.ndarray:
        d = self.removed - np.asarray(x)[..., None, :]
        # vecdot takes each row's dot product as np.dot(d, d) does, with
        # the same rounding; (d * d).sum(axis=-1), einsum and
        # np.linalg.norm(axis=-1) round differently
        return np.vecdot(d, d)

    def distances(self, x) -> np.ndarray:
        """|p - x| for each removed point p, in order; ``x`` may carry
        leading axes, which then lead the result."""
        return np.sqrt(self._squared_distances(x))

    def distance_to_boundary(self, x) -> float:
        # sqrt is monotone and correctly rounded, so the root of the least
        # square is the least of the rooted distances, bit for bit
        return math.sqrt(self._squared_distances(x).min())

    @cached_property
    def removed_distances(self) -> np.ndarray:
        """The m x m matrix of |p - q| over removed points p, q."""
        return _read_only(self.distances(self.removed))

    @cached_property
    def centroid(self) -> np.ndarray:
        """The mean of the removed points."""
        return _read_only(self.removed.mean(axis=0))

    def boundary_cardinality(self) -> int:
        return len(self.removed) + (1 if self.includes_infinity_boundary else 0)

    def __repr__(self) -> str:
        pts = ", ".join(str(p) for p in self.removed.tolist())
        inf = ", +inf" if self.includes_infinity_boundary else ""
        return f"FiniteComplement(dim={self.dim}, removed=[{pts}]{inf})"


Domain = UnitBall | UpperHalfSpace | FiniteComplement


def require_member(domain: Domain, x, name: str = "point") -> np.ndarray:
    """Validate membership and return the coerced point."""
    if not isinstance(domain, Domain):
        raise ParameterError(f"expected a UnitBall, UpperHalfSpace or FiniteComplement domain, got {domain!r}")
    x = as_point(x, domain.dim)
    if not domain.contains(x):
        raise DomainMembershipError(f"{name} {x.tolist()} is not in {domain!r}")
    return x


def distance_to_boundary(domain: Domain, x) -> float:
    """Euclidean distance from an interior point to the finite boundary."""
    x = require_member(domain, x)
    return domain.distance_to_boundary(x)


# ---------------------------------------------------------------------------
# Cross-ratio


# perfbench/tracing.py wraps this as a layer that reads 0 until ROADMAP item 1 retires it
def cross_ratio(p, x, q, y) -> float:
    """Absolute cross-ratio |p,x,q,y| = |p-q| |x-y| / (|p-x| |q-y|).

    At most one argument may be INFINITY; the two factors containing it
    cancel (their ratio is 1).  Coincidences that put a zero in the
    denominator raise ZeroDivisionError.
    """
    pts = [p if is_infinity(p) else as_point(p) for p in (p, x, q, y)]
    if sum(map(is_infinity, pts)) > 1:
        raise ValueError("cross_ratio supports at most one point at infinity")
    p, x, q, y = pts

    def finite(*pairs):
        return [_dist(a, b) for a, b in pairs if not (is_infinity(a) or is_infinity(b))]

    den = finite((p, x), (q, y))
    if 0.0 in den:
        raise ZeroDivisionError("cross_ratio undefined: coincident p,x or q,y")
    return math.prod(finite((p, q), (x, y))) / math.prod(den)


# ---------------------------------------------------------------------------
# Boundary root solver of the ball


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


# no caller; perfbench/tracing.py wraps this name; kept until ROADMAP item 1 revises it
def _golden_max(fn: Callable[[float], float], lo: float, hi: float, tol: float):
    """Golden-section maximization; returns (arg, value) of the best evaluation."""
    a, b = lo, hi
    best_t, best_v = a, fn(a)
    vb = fn(b)
    if vb > best_v:
        best_t, best_v = b, vb
    h = b - a
    if h <= tol:
        return best_t, best_v
    c = b - _INVPHI * h
    d = a + _INVPHI * h
    fc, fd = fn(c), fn(d)
    for _ in range(400):
        if fc > best_v:
            best_t, best_v = c, fc
        if fd > best_v:
            best_t, best_v = d, fd
        if b - a <= tol:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(d)
    return best_t, best_v


def _canonical_pair(x: np.ndarray, y: np.ndarray):
    """Order a pair by raw bytes so that a computation from the ordered
    pair (the ball root solve, the half-space Cassinian cubic) gives
    the same bits for (x, y) and (y, x)."""
    return (x, y) if x.tobytes() <= y.tobytes() else (y, x)


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
    t = max([s - b / 3.0 for s in _depressed_cubic_roots(p, q)], key=abs)
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
def boundary_sup(x: np.ndarray, y: np.ndarray, kind: str) -> float:
    """Least |p-x| |p-y| (kind "product") or |p-x| + |p-y| (kind "sum")
    over the unit sphere, for trusted points x, y of the unit ball.

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
    returned.

    Everything is computed from the canonical pair, so swapping x and y
    gives the same bits.
    """
    a, b = _canonical_pair(x, y)
    al, bl = a.tolist(), b.tolist()
    ra, rb = math.hypot(*al), math.hypot(*bl)
    # a sits at phi = -w, b at phi = +w; w = 0 when a or b is 0
    w = math.atan2(
        math.hypot(*[p * rb - q * ra for p, q in zip(al, bl)]),
        math.hypot(*[p * rb + q * ra for p, q in zip(al, bl)]),
    )
    oma, fa4 = (1.0 - ra) ** 2, 4.0 * ra
    omb, fb4 = (1.0 - rb) ** 2, 4.0 * rb
    product = kind == "product"
    sin, sqrt = math.sin, math.sqrt

    def value(phi: float) -> float:
        sa, sb = sin(0.5 * (phi + w)), sin(0.5 * (phi - w))
        da, db = oma + fa4 * sa * sa, omb + fb4 * sb * sb
        return da * db if product else sqrt(da) + sqrt(db)

    least = min(value(-w), value(w))
    umax = math.tan(0.5 * w)
    if umax > 0.0:
        s2, sw = sin(0.5 * w) ** 2, sin(w)
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

        def quartic(u: float) -> float:
            return (((c4 * u + c3) * u + c2) * u + c1) * u + c0

        knots = sorted([t for t in _cubic_roots(c1, 2.0 * c2, 3.0 * c3, 4.0 * c4) if -umax < t < umax])
        us = [-umax, *knots, umax]
        tol = 1e-15 * umax
        pa = quartic(-umax)
        for lo, hi in zip(us, us[1:]):
            pb = quartic(hi)
            if pa < 0.0 <= pb:
                # Newton on the quartic, kept inside the piece, run until
                # the step or the bracket is down to rounding
                u = lo - pa * (hi - lo) / (pb - pa)
                for _ in range(100):
                    p = quartic(u)
                    if p < 0.0:
                        lo = u
                    else:
                        hi = u
                    dp = ((4.0 * c4 * u + 3.0 * c3) * u + 2.0 * c2) * u + c1
                    step = p / dp if dp > 0.0 else math.inf
                    u -= step
                    if abs(step) <= tol:
                        break
                    if not lo < u < hi:
                        u = 0.5 * (lo + hi)
                    if hi - lo <= tol:
                        break
                least = min(least, value(2.0 * math.atan(u)))
            pa = pb
    return sqrt(least) if product else least
