"""Extended Euclidean geometry: finite points plus a point at infinity,
the three canonical domains, the absolute cross-ratio, and a boundary
supremum engine.

Every metric in this package is either a closed-form expression or a
supremum of a functional over the domain boundary; on a finite
complement such a supremum is a maximum over the removed points.  The
supremum engine serves the two suprema that have neither, both on the
ball: the Cassinian metric and s.  (The half-space Cassinian metric is a
cubic root solve in :mod:`hypmetrics.metrics`.)  It uses the rotational
symmetry of the ball to reduce the search to one parameter, the angle on
a great circle: a coarse scan locates candidate brackets and
golden-section refinement polishes each of them.  Each value it returns
is the functional at one boundary point, so it is a lower bound on the
supremum up to the rounding of 1 - |x| (and of the angles in the plane),
amplified by 1/d with d the distance to the sphere: for a pair 1e-6 from
the sphere and 1e-6 apart the Cassinian metric comes out 1.05e-10
relative above its true value.  Callers treat it as the supremum.

Points are validated once, at the public entry points: require_member
(and through it every metric function) and distance_to_boundary.  The
domain methods, the closed forms and the supremum engine take trusted
float arrays of the domain's dimension.
"""

from __future__ import annotations

import functools
import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, NamedTuple

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
    "BoundaryWitness",
    "DistancePairFunctional",
    "boundary_sup",
    "EngineSetting",
    "SCAN",
    "RECHECK",
    "sup_refinement",
    "DomainMembershipError",
    "BoundaryCardinalityError",
    "ParameterError",
]

_MAX_BRACKETS = 4
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# across one coarse cell clear of both distance poles a functional rises
# by well under a factor exp(2.5) (its log-derivative is O(1/gap) there),
# so a bracket sampled below this fraction of the incumbent cannot win
_BRACKET_FLOOR = math.exp(-2.5)
# refinement windows stop once the remaining width cannot move the value
# by more than ~(factor * param_tol)^2 at the local curvature scale
# (1/d^2 near a pole at boundary distance d, 1/cell^2 elsewhere); tied to
# param_tol so the recheck setting tightens it too
_ADAPTIVE_TOL_FACTOR = 1e5


class EngineSetting(NamedTuple):
    """Coarse scan density and refinement tolerance of the supremum engine."""

    coarse_samples: int
    param_tol: float


# The engine's only two settings, echoed into every report: SCAN for every
# supremum, RECHECK for borderline violations under sup_refinement().
SCAN = EngineSetting(1024, 1e-12)
RECHECK = EngineSetting(8192, 1e-13)
_setting = SCAN


@contextmanager
def sup_refinement():
    """Run the enclosed suprema at RECHECK; process state, so not thread-safe."""
    global _setting
    saved, _setting = _setting, RECHECK
    try:
        yield
    finally:
        _setting = saved


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
# Boundary supremum engine


@dataclass
class BoundaryWitness:
    """Boundary point realizing (up to refinement tolerance) a supremum."""

    point: np.ndarray
    value: float


class DistancePairFunctional:
    """Boundary functional that depends on p only through |p-x| and |p-y|.

    The metric suprema with no closed form have this shape: the Cassinian
    metric and s on the ball.  ``x`` and
    ``y`` are trusted float arrays; :func:`boundary_sup` checks only that
    they lie in its domain.  Instances are callables on boundary points
    (vectorized over leading axes).  ``form(dx, dy)`` is the value from the
    two distances, on floats and arrays alike; boundary_sup evaluates the
    scan and the refinement through it, directly in distance coordinates,
    which is both faster and free of point reconstruction error.

    Kinds:
      inv_product         scale / (|p-x| |p-y|)
      inv_sum             scale / (|p-x| + |p-y|)
    """

    KINDS = ("inv_product", "inv_sum")
    __slots__ = ("kind", "x", "y", "scale", "form")

    def __init__(self, kind: str, x: np.ndarray, y: np.ndarray, scale: float = 1.0):
        if kind not in self.KINDS:
            raise ParameterError(f"unknown functional kind {kind!r}")
        self.kind = kind
        self.x = x
        self.y = y
        s = self.scale = float(scale)
        if kind == "inv_product":
            self.form = lambda dx, dy: s / (dx * dy)
        else:
            self.form = lambda dx, dy: s / (dx + dy)

    def __call__(self, p):
        p = np.asarray(p, dtype=float)
        dx = np.linalg.norm(p - self.x, axis=-1)
        dy = np.linalg.norm(p - self.y, axis=-1)
        return self.form(dx, dy)


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


def _bracket_indices(values: np.ndarray) -> list[int]:
    """Indices of local maxima of a circular coarse scan, best first, capped."""
    v = values
    rise = np.empty(len(v), dtype=bool)
    rise[1:] = v[1:] >= v[:-1]
    rise[0] = v[0] >= v[-1]
    fall = np.empty(len(v), dtype=bool)
    fall[:-1] = v[:-1] >= v[1:]
    fall[-1] = v[-1] >= v[0]
    idx = np.flatnonzero(rise & fall)
    if idx.size == 0:
        idx = np.array([int(np.argmax(v))])
    order = idx[np.argsort(v[idx])[::-1]]
    picked: list[int] = []
    for i in order:
        if all(min(abs(i - j), len(v) - abs(i - j)) > 1 for j in picked):
            picked.append(int(i))
        if len(picked) >= _MAX_BRACKETS:
            break
    return picked


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


def boundary_sup(domain: Domain, f: DistancePairFunctional) -> tuple[float, BoundaryWitness]:
    """Supremum of ``f`` over the boundary sphere of the ball, with a
    witness.

    The points ``f.x`` and ``f.y`` must lie in the ball; they also supply
    the symmetry plane of the reduction.  Every other domain raises
    ParameterError: its suprema are formulas or exact maxima.
    """
    for name, p in (("x", f.x), ("y", f.y)):
        if not domain.contains(p):
            raise DomainMembershipError(f"{name} {p.tolist()} is not in {domain!r}")

    if not isinstance(domain, UnitBall):
        raise ParameterError(f"boundary_sup searches the ball only, got {domain!r}")
    return _sup_ball(f, *_setting)


def circle_gauge(a: float, b: float):
    """Polar data (radius, angle) of a plane point with coordinates (a, b).

    The distance from that point to the unit-circle point at angle theta
    is sqrt((1-r)^2 + 4 r sin^2((theta-t0)/2)); unlike the raw law of
    cosines this form has no cancellation when the point hugs the circle.
    """
    return math.hypot(a, b), math.atan2(b, a)


def _canonical_pair(x: np.ndarray, y: np.ndarray):
    """Order a pair by raw bytes so that a computation from the ordered
    pair (a search parametrization, the half-space Cassinian cubic) gives
    the same bits for (x, y) and (y, x)."""
    return (x, y) if x.tobytes() <= y.tobytes() else (y, x)


# the coarse grid depends only on the sample count, so its trig is shared
@functools.cache
def _coarse_circle(coarse: int):
    thetas = np.linspace(-math.pi, math.pi, coarse, endpoint=False)
    return thetas, np.sin(0.5 * thetas), np.cos(0.5 * thetas)


def _circ_gap(a: float, b: float) -> float:
    d = abs(a - b) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


def _sup_ball(f, coarse, param_tol):
    x, y = f.x, f.y
    u1, u2 = _plane_basis(*_canonical_pair(x, y))
    rx, tx = circle_gauge(float(np.dot(x, u1)), float(np.dot(x, u2)))
    ry, ty = circle_gauge(float(np.dot(y, u1)), float(np.dot(y, u2)))

    thetas, s05, c05 = _coarse_circle(coarse)
    omx, fx4 = (1.0 - rx) ** 2, 4.0 * rx
    omy, fy4 = (1.0 - ry) ** 2, 4.0 * ry
    half = s05 * math.cos(0.5 * tx) - c05 * math.sin(0.5 * tx)
    dxv = np.sqrt(omx + fx4 * half * half)
    half = s05 * math.cos(0.5 * ty) - c05 * math.sin(0.5 * ty)
    dyv = np.sqrt(omy + fy4 * half * half)
    form = f.form
    values = form(dxv, dyv)

    sin, sqrt = math.sin, math.sqrt

    def eval_scalar(theta: float) -> float:
        sx = sin(0.5 * (theta - tx))
        sy = sin(0.5 * (theta - ty))
        return form(sqrt(omx + fx4 * sx * sx), sqrt(omy + fy4 * sy * sy))

    h = 2.0 * math.pi / coarse
    i0 = int(np.argmax(values))
    best_v = float(values[i0])
    best_theta = float(thetas[i0])

    # anchors first: boundary projections of x and y, where sharp peaks
    # live; the widened window also covers any coarse bracket deduped below
    anchors = [(r0, t0) for (r0, t0) in ((rx, tx), (ry, ty)) if r0 > 1e-12]
    for r0, t0 in anchors:
        tol = max(param_tol, (1.0 - r0) * param_tol * _ADAPTIVE_TOL_FACTOR)
        t, v = _golden_max(eval_scalar, t0 - 3.0 * h, t0 + 3.0 * h, tol)
        if v > best_v:
            best_v, best_theta = v, t

    bracket_tol = max(param_tol, h * param_tol * _ADAPTIVE_TOL_FACTOR)
    for i in _bracket_indices(values):
        c0 = float(thetas[i])
        if any(_circ_gap(c0, t0) <= 2.0 * h for _, t0 in anchors):
            continue  # peak already inside an anchor window
        if float(values[i]) < best_v * _BRACKET_FLOOR:
            continue  # provably cannot reach the incumbent
        t, v = _golden_max(eval_scalar, c0 - h, c0 + h, bracket_tol)
        if v > best_v:
            best_v, best_theta = v, t
    witness = math.cos(best_theta) * u1 + math.sin(best_theta) * u2
    return best_v, BoundaryWitness(witness, best_v)
