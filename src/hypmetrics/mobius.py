"""Mobius transformations of extended Euclidean space.

A map is an ordered composition of primitive conformal generators:
translations, positive scalings, orthogonal maps, and sphere inversions.
This representation works in every dimension and keeps the point at
infinity's bookkeeping local to the inversion generator.

Every parameter is checked by geometry's number rules, as a point is: a
scaling factor or inversion radius is a real number, never a bool, and
an orthogonal matrix, like a point, is an array of real numbers.  A
generator is a slotted dataclass whose ``__post_init__`` checks each
parameter once and assigns what it accepted; generators compare and hash
by identity.  A translation keeps no copy of |b|: its range guard reads
|b| off ``b`` on every apply, so a reassigned ``b`` is guarded as it
stands.  The base point of :func:`ball_automorphism` reads its norm off
the coordinates of its one coercion, and an orthogonal matrix is
accepted as ``np.allclose(QᵀQ, I, atol=1e-10)`` accepts it, decided on
the Gram matrix read once as Python floats.

Every ``apply``, a map's and each generator's, takes INFINITY, tested by
identity, or a point as :func:`as_point` takes it, once, so a checked
point (geometry's ``_CheckedPoint``) is taken as checked and any other
bad point raises ParameterError.  A generator's body (``_image``) takes
only the float array so coerced, which :meth:`MobiusMap.apply` hands
each generator in turn, and INFINITY never.  An image beyond the float
range raises ParameterError, with no numpy warning: a translation,
scaling or orthogonal map runs its numpy expression as it is where a
bound on |p| shows that nothing can overflow, and under ``np.errstate``
with a finiteness test only beyond it, so every in-range image keeps
numpy's bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    INFINITY,
    _NORMAL,
    BoundaryCardinalityError,
    FiniteComplement,
    ParameterError,
    _check_dim,
    _coerced,
    _float,
    _is_real,
    _items,
    _real_array,
    as_point,
)

__all__ = [
    "Translation",
    "Scaling",
    "Orthogonal",
    "SphereInversion",
    "MobiusMap",
    "ball_automorphism",
    "cayley_map",
    "inversion_unit",
    "map_domain",
]


def _positive_real(v, name: str) -> float:
    """``v`` as a float if it is a real number, positive and finite."""
    if not _is_real(v):
        raise ParameterError(f"{name} must be a real number, got {v!r}")
    f = _float(v)
    if not (f > 0.0 and math.isfinite(f)):
        raise ParameterError(f"{name} must be positive and finite")
    return f


# below this bound on |p| (and on |p| + |b|, or f |p|) no coordinate of a
# generator's image, nor any partial sum forming it, can overflow
_SAFE = 2.0**1023


def _magnitude(p: np.ndarray) -> float:
    """|p| of a float array, with no under- or overflow."""
    return math.hypot(*p.tolist())


def _finite_image(image: np.ndarray, generator: str) -> np.ndarray:
    """``image`` if every coordinate is finite; an image beyond the float
    range raises ParameterError naming the generator."""
    if not np.isfinite(image).all():
        raise ParameterError(f"the {generator} image of a point is beyond the float range")
    return image


class _Generator:
    """The base of the generators: ``apply`` takes INFINITY or a point as
    :func:`as_point` takes it, once, and hands the array to ``_image``."""

    __slots__ = ()

    def apply(self, p):
        return self._infinity_image() if p is INFINITY else self._image(as_point(p, self.dim))

    def _infinity_image(self):
        return INFINITY


@dataclass(eq=False, slots=True)
class Translation(_Generator):
    b: np.ndarray

    def __post_init__(self):
        self.b = _coerced(self.b, None)[0]

    @property
    def dim(self):
        return self.b.size

    def _image(self, p: np.ndarray) -> np.ndarray:
        if _magnitude(p) + _magnitude(self.b) < _SAFE:
            return p + self.b
        with np.errstate(over="ignore"):
            return _finite_image(p + self.b, "translation")


@dataclass(eq=False, slots=True)
class Scaling(_Generator):
    factor: float

    def __post_init__(self):
        self.factor = _positive_real(self.factor, "scaling factor")

    dim = None

    def _image(self, p: np.ndarray) -> np.ndarray:
        if _magnitude(p) * self.factor < _SAFE:
            return self.factor * p
        with np.errstate(over="ignore"):
            return _finite_image(self.factor * p, "scaling")


@dataclass(eq=False, slots=True)
class Orthogonal(_Generator):
    matrix: np.ndarray

    def __post_init__(self):
        q = _real_array(self.matrix, "orthogonal generator needs a matrix")
        if q.ndim != 2 or q.shape[0] != q.shape[1] or q.shape[0] < 2:
            raise ParameterError("orthogonal generator needs a square matrix, n >= 2")
        # np.allclose(q.T @ q, I, atol=1e-10) on the Gram matrix read once as
        # Python floats: |QᵀQ - I| <= 1e-10 + 1e-5 |I| entry by entry, NaN
        # failing; an inf or huge entry overflows or makes NaN in the Gram
        # matrix, which fails
        with np.errstate(over="ignore", invalid="ignore"):
            gram = (q.T @ q).tolist()
        orthogonal = all(
            abs(g - 1.0) <= 1e-10 + 1e-5 if i == j else abs(g) <= 1e-10
            for i, row in enumerate(gram)
            for j, g in enumerate(row)
        )
        if not orthogonal:
            if not np.isfinite(q).all():
                raise ParameterError(f"orthogonal generator needs finite entries, got {q.tolist()}")
            raise ParameterError("matrix is not orthogonal")
        self.matrix = q

    @property
    def dim(self):
        return self.matrix.shape[0]

    def _image(self, p: np.ndarray) -> np.ndarray:
        # an accepted matrix has norm below 1.00001, so each product and
        # partial sum of a row with p is below 1.00001 |p|
        if _magnitude(p) < _SAFE:
            return self.matrix @ p
        with np.errstate(over="ignore", invalid="ignore"):
            return _finite_image(self.matrix @ p, "orthogonal")


@dataclass(eq=False, slots=True)
class SphereInversion(_Generator):
    """Inversion in the sphere S(center, radius): an involution swapping
    center and INFINITY.

    Only the center maps to INFINITY: every other point maps to its
    finite image wherever that image is in the float range.  The image
    is c + (r^2/|v|^2) v for v = p - c where |v|^2 is a normal float, and
    c + s (s v) with s = r/|v| where |v|^2 would under- or overflow; an
    image beyond the float range raises ParameterError.
    """

    center: np.ndarray
    radius: float

    def __post_init__(self):
        self.center = as_point(self.center)
        self.radius = _positive_real(self.radius, "inversion radius")

    @property
    def dim(self):
        return self.center.size

    def _infinity_image(self) -> np.ndarray:
        return self.center.copy()

    def _image(self, p: np.ndarray):
        v = p - self.center
        coords = v.tolist()
        norm = math.hypot(*coords)
        # |v|^2 is a normal float in this range, so v.dot(v) neither under- nor overflows
        if 1.5e-154 < norm < 1.3e154:
            return self.center + (self.radius * self.radius / float(v.dot(v))) * v
        if norm == 0.0:
            return INFINITY
        s = self.radius / norm
        return _finite_image(np.array([c + s * (s * x) for c, x in zip(self.center.tolist(), coords)]), "inversion")


class MobiusMap:
    """Ordered composition of generators, applied first-to-last."""

    __slots__ = ("generators", "dim")

    def __init__(self, generators=()):
        gens = _items(generators, "Mobius generators")
        dims = set()
        for g in gens:
            if not isinstance(g, _Generator):
                raise ParameterError(f"not a Mobius generator: {g!r}")
            dims.add(g.dim)
        dims.discard(None)
        if len(dims) > 1:
            raise ParameterError(f"generators disagree on dimension: {sorted(dims)}")
        self.generators = gens
        self.dim = dims.pop() if dims else None

    def apply(self, p):
        if p is not INFINITY:
            p = as_point(p, self.dim)
        for g in self.generators:
            p = g._infinity_image() if p is INFINITY else g._image(p)
        return p

    def __repr__(self) -> str:
        names = ", ".join(type(g).__name__ for g in self.generators)
        return f"MobiusMap([{names}])"


def ball_automorphism(a) -> MobiusMap:
    """Inversion in the sphere orthogonal to the unit sphere that sends a
    to the origin: center a* = a/|a|^2, radius sqrt(|a*|^2 - 1).  Maps the
    unit ball onto itself.

    A point of the ball so near the unit sphere that |a*|^2 - 1 rounds to
    0 or below raises ParameterError, as does one so near 0 that |a|^2
    underflows.
    """
    a, coords = _coerced(a, None)
    # |a| decided as UnitBall decides membership, with no under- or overflow
    norm = math.hypot(*coords)
    if not (0.0 < norm < 1.0):
        raise ParameterError("ball_automorphism needs 0 < |a| < 1")
    na2 = float(a.dot(a))
    if na2 < _NORMAL:
        raise ParameterError(f"ball_automorphism cannot form a* = a/|a|^2: |a|^2 underflows at |a| = {norm!r}")
    a_star = a / na2
    r2 = float(a_star.dot(a_star)) - 1.0
    # within a few ulp of the unit sphere |a*|^2 rounds to 1
    if not r2 > 0.0:
        raise ParameterError(
            f"ball_automorphism needs |a| < 1 by more than rounding: |a*|^2 - 1 rounds to {r2!r} at |a| = {norm!r}"
        )
    return MobiusMap((SphereInversion(a_star, math.sqrt(r2)),))


def cayley_map(dim: int) -> MobiusMap:
    """Standard conformal map of the upper half-space onto the unit ball,
    z -> -e_n + 2(z + e_n)/|z + e_n|^2; sends e_n to the origin."""
    dim = _check_dim(dim)
    e_n = np.zeros(dim)
    e_n[-1] = 1.0
    return MobiusMap(
        (Translation(e_n), SphereInversion(np.zeros(dim), math.sqrt(2.0)), Translation(-e_n))
    )


def inversion_unit(dim: int) -> MobiusMap:
    """Inversion z -> z/|z|^2 in the unit sphere; maps the upper
    half-space onto itself."""
    return MobiusMap((SphereInversion(np.zeros(_check_dim(dim)), 1.0),))


def map_domain(f: MobiusMap, domain: FiniteComplement) -> FiniteComplement:
    """Image of a finite-complement domain under a Mobius map.

    The image's finite boundary is the set of finite images of the
    removed points, together with f(INFINITY) when the domain carried the
    infinity boundary flag and that image is finite.  The flag of the
    image is set when some boundary point lands at infinity.
    """
    if not isinstance(domain, FiniteComplement):
        raise ParameterError(
            "map_domain supports FiniteComplement only; ball/half-space images "
            "must be supplied explicitly"
        )
    boundary = [*domain.removed, INFINITY] if domain.includes_infinity_boundary else domain.removed
    images = [f.apply(p) for p in boundary]
    removed = [q for q in images if q is not INFINITY]
    if not removed:
        raise BoundaryCardinalityError("image domain has no finite boundary point")
    return FiniteComplement(domain.dim, removed, includes_infinity_boundary=len(removed) < len(images))
