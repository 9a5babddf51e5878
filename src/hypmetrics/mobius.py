"""Mobius transformations of extended Euclidean space.

A map is an ordered composition of primitive conformal generators:
translations, positive scalings, orthogonal maps, and sphere inversions.
This representation works in every dimension, keeps the point at
infinity's bookkeeping local to the inversion generator, and makes
inverses exact (each generator knows its own inverse).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    INFINITY,
    BoundaryCardinalityError,
    FiniteComplement,
    ParameterError,
    as_point,
    is_infinity,
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


@dataclass(frozen=True, eq=False)
class Translation:
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "b", as_point(self.b))

    @property
    def dim(self):
        return self.b.size

    def apply(self, p):
        if is_infinity(p):
            return INFINITY
        return p + self.b

    def inverse(self):
        return Translation(-self.b)


@dataclass(frozen=True, eq=False)
class Scaling:
    factor: float

    def __post_init__(self):
        f = float(self.factor)
        if not (f > 0.0 and math.isfinite(f)):
            raise ParameterError("scaling factor must be positive and finite")
        object.__setattr__(self, "factor", f)

    dim = None

    def apply(self, p):
        if is_infinity(p):
            return INFINITY
        return self.factor * p

    def inverse(self):
        return Scaling(1.0 / self.factor)


@dataclass(frozen=True, eq=False)
class Orthogonal:
    matrix: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.matrix, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1] or q.shape[0] < 2:
            raise ParameterError("orthogonal generator needs a square matrix, n >= 2")
        if not np.allclose(q.T @ q, np.eye(q.shape[0]), atol=1e-10):
            raise ParameterError("matrix is not orthogonal")
        object.__setattr__(self, "matrix", q)

    @property
    def dim(self):
        return self.matrix.shape[0]

    def apply(self, p):
        if is_infinity(p):
            return INFINITY
        return self.matrix @ p

    def inverse(self):
        return Orthogonal(self.matrix.T)


@dataclass(frozen=True, eq=False)
class SphereInversion:
    """Inversion in the sphere S(center, radius): an involution swapping
    center and INFINITY."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_point(self.center))
        r = float(self.radius)
        if not (r > 0.0 and math.isfinite(r)):
            raise ParameterError("inversion radius must be positive and finite")
        object.__setattr__(self, "radius", r)

    @property
    def dim(self):
        return self.center.size

    def apply(self, p):
        if is_infinity(p):
            return self.center.copy()
        v = p - self.center
        n2 = float(np.dot(v, v))
        if n2 == 0.0:
            return INFINITY
        return self.center + (self.radius * self.radius / n2) * v

    def inverse(self):
        return self


_GENERATOR_TYPES = (Translation, Scaling, Orthogonal, SphereInversion)


class MobiusMap:
    """Ordered composition of generators, applied first-to-last."""

    __slots__ = ("generators", "dim")

    def __init__(self, generators=()):
        gens = tuple(generators)
        for g in gens:
            if not isinstance(g, _GENERATOR_TYPES):
                raise ParameterError(f"not a Mobius generator: {g!r}")
        dims = {g.dim for g in gens if g.dim is not None}
        if len(dims) > 1:
            raise ParameterError(f"generators disagree on dimension: {sorted(dims)}")
        self.generators = gens
        self.dim = dims.pop() if dims else None

    def apply(self, p):
        if not is_infinity(p):
            p = as_point(p, self.dim)
        for g in self.generators:
            p = g.apply(p)
        return p

    __call__ = apply

    def inverse(self) -> "MobiusMap":
        return MobiusMap(tuple(g.inverse() for g in reversed(self.generators)))

    def __repr__(self) -> str:
        names = ", ".join(type(g).__name__ for g in self.generators)
        return f"MobiusMap([{names}])"


def ball_automorphism(a) -> MobiusMap:
    """Inversion in the sphere orthogonal to the unit sphere that sends a
    to the origin: center a* = a/|a|^2, radius sqrt(|a*|^2 - 1).  Maps the
    unit ball onto itself.
    """
    a = as_point(a)
    na2 = float(np.dot(a, a))
    if not (0.0 < na2 < 1.0):
        raise ParameterError("ball_automorphism needs 0 < |a| < 1")
    a_star = a / na2
    r = math.sqrt(float(np.dot(a_star, a_star)) - 1.0)
    return MobiusMap((SphereInversion(a_star, r),))


def cayley_map(dim: int) -> MobiusMap:
    """Standard conformal map of the upper half-space onto the unit ball,
    z -> -e_n + 2(z + e_n)/|z + e_n|^2; sends e_n to the origin."""
    e_n = np.zeros(dim)
    e_n[-1] = 1.0
    return MobiusMap(
        (Translation(e_n), SphereInversion(np.zeros(dim), math.sqrt(2.0)), Translation(-e_n))
    )


def inversion_unit(dim: int) -> MobiusMap:
    """Inversion z -> z/|z|^2 in the unit sphere; maps the upper
    half-space onto itself."""
    return MobiusMap((SphereInversion(np.zeros(dim), 1.0),))


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
    removed = []
    flag = False
    for p in domain.removed:
        q = f.apply(p)
        if is_infinity(q):
            flag = True
        else:
            removed.append(q)
    if domain.includes_infinity_boundary:
        q = f.apply(INFINITY)
        if is_infinity(q):
            flag = True
        else:
            removed.append(q)
    if not removed:
        raise BoundaryCardinalityError("image domain has no finite boundary point")
    return FiniteComplement(domain.dim, removed, includes_infinity_boundary=flag)
