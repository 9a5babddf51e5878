"""Extended Euclidean geometry: finite points plus a point at infinity,
the three canonical domains, the absolute cross-ratio, and the boundary
root solver of the ball.

Every metric in this package is either a closed-form expression or a
supremum of a functional over the domain boundary; on a finite
complement such a supremum is a maximum over the removed points.
:func:`boundary_sup` serves the two suprema that have neither, both on
the ball: it returns the least product |p-x| |p-y| (for the Cassinian
metric) or the least sum |p-x| + |p-y| (for s) over the unit sphere,
and the point p that attains it.  (The half-space Cassinian metric is a
cubic root solve in :mod:`hypmetrics.metrics`.)  The rotational
symmetry of the ball reduces both to one parameter, the angle on a
great circle, and both are root solves: a quartic whose roots are the
critical points of the product of distances or of their sum (the
Ptolemy-Alhazen quartic of mirror reflection) locates each minimum, and
Newton's method polishes it.  Nothing in the package is searched.  The
least value is the distance form at one boundary point, so it is an
upper bound on the true minimum up to the rounding of 1 - |x| (and of
the angles in the plane), amplified by 1/d with d the distance to the
sphere: for a pair 1e-6 from the sphere and 1e-6 apart the Cassinian
metric comes out 1.05e-10 relative above its true value.

Points are validated once, at the public entry points: require_member
(and through it every metric function) and distance_to_boundary.  The
domain methods, the closed forms and boundary_sup take trusted float
arrays of the domain's dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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

    def distances(self, x) -> np.ndarray:
        """|p - x| for each removed point p, in order; ``x`` may carry
        leading axes, which then lead the result."""
        d = self.removed - np.asarray(x)[..., None, :]
        # matmul rounds like math.sqrt(np.dot(d, d)) on every row, which
        # np.linalg.norm(axis=-1) does not
        return np.sqrt(np.matmul(d[..., None, :], d[..., :, None])[..., 0, 0])

    def distance_to_boundary(self, x) -> float:
        return float(self.distances(x).min())

    def boundary_cardinality(self) -> int:
        return len(self.removed) + (1 if self.includes_infinity_boundary else 0)

    def __repr__(self) -> str:
        pts = ", ".join(str(p) for p in self.removed.tolist())
        inf = ", +inf" if self.includes_infinity_boundary else ""
        return f"FiniteComplement(dim={self.dim}, removed=[{pts}]{inf})"


Domain = UnitBall | UpperHalfSpace | FiniteComplement


def require_member(domain: Domain, x, name: str = "point") -> np.ndarray:
    """Validate membership and return the coerced point."""
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


def _plane_basis(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis of a 2-plane through the origin containing x and y."""
    n = x.size

    def unit_or_none(v):
        nv = math.sqrt(np.dot(v, v))
        return v / nv if nv > 1e-300 else None

    u1 = unit_or_none(x)
    if u1 is None:
        u1 = unit_or_none(y)
    if u1 is None:
        u1 = np.zeros(n)
        u1[0] = 1.0
    w = y - float(np.dot(y, u1)) * u1
    # projected twice: for y collinear with x (or x = 0) w is rounding
    # residue, which one projection leaves far from orthogonal to u1
    w -= float(np.dot(w, u1)) * u1
    u2 = unit_or_none(w)
    if u2 is None:
        # x, y collinear: any direction orthogonal to u1 completes the plane
        k = int(np.argmin(np.abs(u1)))
        e = np.zeros(n)
        e[k] = 1.0
        w = e - float(np.dot(e, u1)) * u1
        u2 = w / math.sqrt(np.dot(w, w))
    return u1, u2


def _canonical_pair(x: np.ndarray, y: np.ndarray):
    """Order a pair by raw bytes so that a computation from the ordered
    pair (the ball root solve, the half-space Cassinian cubic) gives
    the same bits for (x, y) and (y, x)."""
    return (x, y) if x.tobytes() <= y.tobytes() else (y, x)


def _horner(c, t: float) -> float:
    v = 0.0
    for a in reversed(c):
        v = v * t + a
    return v


def _sign_changes(c, lo: float, hi: float, tol: float) -> list[float]:
    """Points of (lo, hi) where the polynomial sum c[k] t^k changes sign,
    increasing.

    A line or a quadratic has its roots in closed form.  Above that, the
    roots of the derivative cut [lo, hi] into monotone pieces, each with
    at most one sign change, found by Newton's method kept inside its
    piece.  No Newton step divides by the leading coefficient, so a
    degree that drops (a leading coefficient of 0) needs no special case.
    """
    if len(c) == 2:
        t = -c[0] / c[1] if c[1] != 0.0 else lo
        return [t] if lo < t < hi else []
    if len(c) == 3 and c[2] != 0.0:
        disc = c[1] * c[1] - 4.0 * c[2] * c[0]
        if disc <= 0.0:
            return []
        # the root of larger magnitude first, the other from the product
        # of the roots, so that neither cancels
        q = -0.5 * (c[1] + math.copysign(math.sqrt(disc), c[1]))
        return sorted(t for t in (q / c[2], c[0] / q) if lo < t < hi)
    dc = [k * c[k] for k in range(1, len(c))]
    knots = [lo, *_sign_changes(dc, lo, hi, tol), hi]
    out = []
    pa = _horner(c, lo)
    for a, b in zip(knots, knots[1:]):
        pb = _horner(c, b)
        if (pa < 0.0) != (pb < 0.0):
            rising = pa < 0.0
            t = a - pa * (b - a) / (pb - pa)
            for _ in range(100):
                p = _horner(c, t)
                if (p < 0.0) == rising:
                    a = t
                else:
                    b = t
                dp = _horner(dc, t)
                step = p / dp if dp != 0.0 else math.inf
                if abs(step) <= tol:
                    t -= step
                    break
                t -= step
                if not a < t < b:
                    t = 0.5 * (a + b)
                if b - a <= tol:
                    break
            out.append(t)
        pa = pb
    return out


# perfbench/tracing.py wraps this name in metrics; kept until ROADMAP item 1 revises it
def boundary_sup(x: np.ndarray, y: np.ndarray, kind: str) -> tuple[float, np.ndarray]:
    """Least |p-x| |p-y| (kind "product") or |p-x| + |p-y| (kind "sum")
    over the unit sphere, and the point p that attains it, for trusted
    points x, y of the unit ball.

    In the plane through 0, x and y the squared distance from the circle
    point at angle theta to a point of polar data (r, t) is D(theta) =
    (1-r)^2 + 4 r sin^2((theta-t)/2).  Both D_x D_y (product) and
    sqrt(D_x) + sqrt(D_y) (sum) are least on the closed short arc
    between t_x and t_y: a point off it is dominated by an arc point no
    farther from either.  Take phi = theta - t_m, t_m the midpoint of the
    arc, so that x sits at phi = -w and y at +w, and u = tan(phi/2).  On
    the arc a quartic c(u) has the sign of the phi-derivative:

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

    The functional has a minimum in each piece of the arc where c rises
    through 0.  The quartic only locates the pieces: in each one Newton's
    method on the phi-derivative of log(D_x D_y), or of sqrt(D_x) +
    sqrt(D_y), kept inside the piece, finds the minimum of the sin^2 form
    itself, the form every candidate is valued in.  The least of those
    minima and of both arc ends (the anchors t_x and t_y) wins.

    Everything is computed from the canonical pair, so swapping x and y
    gives the same bits.
    """
    a, b = _canonical_pair(x, y)
    u1, u2 = _plane_basis(a, b)

    def polar(p):
        c, s = float(np.dot(p, u1)), float(np.dot(p, u2))
        return math.hypot(c, s), math.atan2(s, c)

    (ra, ta), (rb, tb) = polar(a), polar(b)
    gap = tb - ta
    if gap > math.pi:
        gap -= 2.0 * math.pi
    elif gap < -math.pi:
        gap += 2.0 * math.pi
    w = 0.5 * gap  # a sits at phi = -w, b at phi = +w
    half = abs(w)
    oma, fa4 = (1.0 - ra) ** 2, 4.0 * ra
    omb, fb4 = (1.0 - rb) ** 2, 4.0 * rb
    product = kind == "product"
    sin, cos, sqrt = math.sin, math.cos, math.sqrt

    def value(phi: float) -> float:
        sa, sb = sin(0.5 * (phi + w)), sin(0.5 * (phi - w))
        da, db = oma + fa4 * sa * sa, omb + fb4 * sb * sb
        return da * db if product else sqrt(da) + sqrt(db)

    candidates = [(value(-w), -w), (value(w), w)]
    umax = math.tan(0.5 * half)
    if umax > 0.0:
        s2, sw = sin(0.5 * w) ** 2, sin(w)
        if product:
            Aa, Ba, Ca = (1.0 + ra) ** 2 - fa4 * s2, fa4 * sw, oma + fa4 * s2
            Ab, Bb, Cb = (1.0 + rb) ** 2 - fb4 * s2, -fb4 * sw, omb + fb4 * s2
            g4, g0 = Aa * Ab, Ca * Cb
            g3 = Aa * Bb + Ba * Ab
            g2 = Aa * Cb + Ba * Bb + Ca * Ab
            g1 = Ba * Cb + Ca * Bb
            c = (g1, 2.0 * g2 - 4.0 * g0, 3.0 * (g3 - g1), 4.0 * g4 - 2.0 * g2, -g3)
        else:
            # P - R = 2(r_x (1-r_y) + r_y (1-r_x)) - 4 (r_x + r_y) sin^2(w/2)
            # without the cancellation of 2(r_x + r_y) cos w - 4 r_x r_y
            q = (ra - rb) * sw
            pmr = 2.0 * (ra * (1.0 - rb) + rb * (1.0 - ra)) - 4.0 * (ra + rb) * s2
            ppr = 4.0 * ra * rb + 2.0 * (ra + rb) * (1.0 - 2.0 * s2)
            c = (q, pmr, 0.0, ppr, -q)
        # the knots need only the quartic's sign between them, and Newton
        # converges quadratically, so a loose step tolerance suffices
        knots = _sign_changes([k * c[k] for k in range(1, 5)], -umax, umax, 1e-6 * umax)
        us = [-umax, *knots, umax]
        phis = [-half, *(2.0 * math.atan(k) for k in knots), half]
        tol = 1e-12 * half
        pa = _horner(c, -umax)
        for i in range(len(us) - 1):
            pb = _horner(c, us[i + 1])
            if pa < 0.0 <= pb:
                lo, hi = phis[i], phis[i + 1]
                ua, ub = us[i], us[i + 1]
                phi = 2.0 * math.atan(ua - pa * (ub - ua) / (pb - pa))
                for _ in range(100):
                    sa, ca = sin(0.5 * (phi + w)), cos(0.5 * (phi + w))
                    sb, cb = sin(0.5 * (phi - w)), cos(0.5 * (phi - w))
                    da, db = oma + fa4 * sa * sa, omb + fb4 * sb * sb
                    # D' = 2r sin(phi - delta), D'' = 2r cos(phi - delta)
                    d1a, d1b = fa4 * sa * ca, fb4 * sb * cb
                    d2a, d2b = 0.5 * fa4 * (ca * ca - sa * sa), 0.5 * fb4 * (cb * cb - sb * sb)
                    if product:  # Newton on d/dphi log(D_x D_y)
                        ga, gb = d1a / da, d1b / db
                        candidates.append((da * db, phi))
                        slope = ga + gb
                        curve = (d2a / da - ga * ga) + (d2b / db - gb * gb)
                    else:  # on d/dphi (sqrt(D_x) + sqrt(D_y))
                        qa, qb = sqrt(da), sqrt(db)
                        candidates.append((qa + qb, phi))
                        slope = 0.5 * (d1a / qa + d1b / qb)
                        curve = 0.5 * ((d2a - 0.5 * d1a * d1a / da) / qa + (d2b - 0.5 * d1b * d1b / db) / qb)
                    if slope < 0.0:
                        lo = phi
                    else:
                        hi = phi
                    step = slope / curve if curve > 0.0 else math.inf
                    if abs(step) <= tol:
                        phi -= step
                        candidates.append((value(phi), phi))
                        break
                    phi -= step
                    if not lo < phi < hi:
                        phi = 0.5 * (lo + hi)
                    if hi - lo <= tol:
                        break
            pa = pb
    least, phi = min(candidates)
    theta = ta + w + phi
    return sqrt(least) if product else least, math.cos(theta) * u1 + math.sin(theta) * u2
