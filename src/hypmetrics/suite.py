"""Declarative catalog of comparison inequalities and sharpness probes,
with a deterministic randomized verification engine.

Every case but one states a proved inequality between metrics (or a
metric axiom batch, or a Mobius distortion bound) and is checked on
freshly sampled admissible configurations.  The exception is T-ALJ,
alpha <= j on convex domains: it is false (see its notes), and it is
kept as stated so that it reports its violations.  Chains and axiom
batches are encoded as a max-of-residuals against zero, a chain
t0 <= t1 <= ... by ``_chain``; single natural bounds keep their two
sides as-is.  A pair case's evaluator is ``_pairwise(bound, *metrics)``:
each metric once at the sampled pair, then the case's arithmetic on the
values; a Mobius case's is ``_distortion(bound)``: u at the pair, then
at its image, then ``bound(u0, u1)``.  A case says once what a sample
holds: ``sampler`` picks a pair, a triple or an equal-distance pair; a
Mobius case declares ``draw_map``, a function ``(domain, rng) -> (f,
f(domain))`` that draws the map from the sample's stream before its
pair; the scalar case declares ``grid`` and the one domain None.

Each sample is drawn in one pass.  A draw is made again only where it
can really miss: a direction of norm near 0 (``_unit``), a point of a
finite complement drawn onto a removed point (``sample_point``), a
second point equal to the first (``_checked_pair``), and an
equal-distance flip that changed no coordinate
(``_equal_distance_pair``).  Each sampled point is checked once, where
it is drawn: ``sample_point`` returns every draw as a checked point of
its domain (geometry's ``_CheckedPoint``), and a ``Sample`` holds each
point once, as that checked point.  ``_checked_sample`` alone builds the
images of a Mobius case or a mapped probe: the map applied to the
checked pair, each image checked once on the image domain (under the
case id for a case).  The evaluators hand the points to the public
metric functions, which take them without a second check, and a report
shows their coordinates.

Every probe drives a parametric family toward a limit that attains a
sharp constant and records the convergence table.  ``probe(...)``, the
counterpart of ``add(...)``, declares it as a domain, a point family
``t -> Sample`` (``sym`` is x = t*e1, y = -t*e1; a mapped family gives
its map and image domain) and a case-style evaluator, so probes run
through ``_pairwise`` and ``_distortion`` as the cases do, and
``_checked_sample`` checks each point a family builds once.

Determinism contract: sample k of a case draws from a Philox stream
keyed by (seed, case id, k) alone and started at counter 0, so results
do not depend on execution order or on how samples are split across
processes.  Each process re-keys one generator for every sample; a
sample is built completely from its stream before the next stream is
keyed, so the generator is never shared between threads.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import operator
import struct
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .geometry import (
    DomainMembershipError,
    FiniteComplement,
    ParameterError,
    UnitBall,
    UpperHalfSpace,
    _float,
    _is_integer,
    _is_real,
    _items,
)
from .metrics import (
    alpha_metric,
    alpha_pair_form,
    cassinian,
    delta_metric,
    eta_metric,
    j_metric,
    j_tilde,
    rho,
    triangular_ratio,
    u_metric,
)
from .mobius import (
    MobiusMap,
    Orthogonal,
    Scaling,
    SphereInversion,
    Translation,
    ball_automorphism,
    cayley_map,
    inversion_unit,
    map_domain,
)

__all__ = [
    "InequalityCase",
    "SharpnessProbe",
    "CaseResult",
    "ProbeResult",
    "Catalog",
    "catalog",
    "check_case",
    "run_probe",
    "sample_point",
    "records_to_json",
    "records_to_csv",
    "records_to_text",
    "parse_report",
    "ConfigurationError",
    "ScheduleError",
    "DEFAULT_SAMPLES",
    "DEFAULT_SEED",
    "DEFAULT_SLACK",
]

DEFAULT_SAMPLES = 10_000
DEFAULT_SEED = 42
DEFAULT_SLACK = 1e-9

# deviations at or below this are numerically indistinguishable from the
# limit: mapped near-boundary configurations carry ~eps/d(x) noise, so a
# converged tail may wobble around 1e-10 without breaking monotonicity
_MONOTONE_FLOOR = 1e-9

LOG2 = math.log(2.0)
LOG3 = math.log(3.0)
TWO_LOG2 = 2.0 * LOG2
TWO_LOG3 = 2.0 * LOG3


class ConfigurationError(ValueError):
    """A case or report was asked to run with an inadmissible setup."""


class ScheduleError(ValueError):
    """A probe's point family left its domain, was undefined, or gave a
    non-finite estimate at some schedule point."""


def _round12(v):
    """Round to 12 significant digits; the canonical report precision."""
    f = float(v)
    return float(f"{f:.12g}")


# ---------------------------------------------------------------------------
# Deterministic sampling


@lru_cache(maxsize=1)
def _philox() -> np.random.Generator:
    # built on first use, not at import: loading numpy.random takes
    # 12-14 ms, which importing the package and building the catalog
    # otherwise never pay
    return np.random.Generator(np.random.Philox(0))


# Python ints: the Philox state setter reads an array one element at a time
_ZERO_WORDS = (0, 0, 0, 0)


def _stream(seed: int, case_id: str, k: int) -> np.random.Generator:
    """The Philox stream of sample k of a case: keyed by the first 16
    bytes of SHA-256("seed:case_id:k"), at counter 0.

    Philox is counter-based, so re-keying one generator and clearing its
    counter and buffers gives the draws of a fresh
    ``Generator(Philox(key=key))`` without the OS-entropy seeding that
    construction pays for.  The returned generator is process state,
    valid until the next call, so not thread-safe.
    """
    digest = hashlib.sha256(f"{seed}:{case_id}:{k}".encode()).digest()
    rng = _philox()
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        # native byte order, as np.frombuffer(digest[:16], np.uint64) reads it
        "state": {"counter": _ZERO_WORDS, "key": struct.unpack_from("=2Q", digest)},
        "buffer": _ZERO_WORDS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def _uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    """The draw of ``rng.uniform(lo, hi)``, which computes lo + (hi - lo)
    * ``random()`` as well, without its argument handling."""
    return lo + (hi - lo) * rng.random()


def _unit(rng: np.random.Generator, n: int) -> np.ndarray:
    while True:
        g = rng.standard_normal(n)
        norm = math.sqrt(g.dot(g))
        if norm > 1e-12:
            return g / norm


def sample_point(domain, rng: np.random.Generator):
    """One admissible interior point, stressing the regimes the bounds
    care about (near-boundary on the ball, extreme heights on the
    half-space, tight clouds around punctures).

    Every draw is checked once on ``domain``, where it is drawn, and the
    point is returned as that checked point (geometry's
    ``_CheckedPoint``; its ``x`` is the array).  The metrics take it on
    this domain object without checking it again; anything else takes
    its array.  On a finite complement a draw at a removed point is
    drawn again, its membership read from the same check.
    """
    n = domain.dim
    if isinstance(domain, UnitBall):
        direction = _unit(rng, n)
        if rng.random() < 0.5:
            radius = rng.random() ** (1.0 / n)
        else:
            radius = 1.0 - 10.0 ** (-float(rng.integers(1, 7)))
        return domain._point(radius * direction, "point")
    if isinstance(domain, UpperHalfSpace):
        p = np.empty(n)
        p[:-1] = 2.0 * rng.standard_normal(n - 1)
        p[-1] = 10.0 ** _uniform(rng, -6.0, 6.0)
        return domain._point(p, "point")
    while True:
        if rng.random() < 0.7:
            center = domain.removed[int(rng.integers(len(domain.removed)))]
            sigma = 10.0 ** _uniform(rng, -6.0, 0.5)
            p = center + sigma * rng.standard_normal(n)
        else:
            p = domain.centroid + (5.0 + 45.0 * rng.random()) * _unit(rng, n)
        point = domain._member(p)
        if point is not None:
            return point


def _checked_pair(domain, rng: np.random.Generator):
    """Two distinct points of :func:`sample_point`, as checked points."""
    x = sample_point(domain, rng)
    while True:
        y = sample_point(domain, rng)
        # IEEE == on Python floats, so -0.0 equals 0.0
        if x.coords != y.coords:
            return x, y


def _equal_distance_pair(domain, rng: np.random.Generator):
    """Pair with bit-identical boundary distances, as checked points.

    Built by flipping signs of offset components whose anchor coordinate
    is zero: the two offset vectors then have the same squares in the
    same order, so the recomputed distances agree exactly.  Each point
    built is checked once.  A domain that gives no pair in 64 flips, as
    one whose anchor has no zero coordinate, raises ConfigurationError.
    """
    n = domain.dim
    if isinstance(domain, UnitBall):
        anchor = np.zeros(n)
        if rng.random() < 0.5:
            radius = 0.05 + 0.9 * rng.random()
        else:
            radius = 1.0 - 10.0 ** (-float(rng.integers(1, 7)))
        w = radius * _unit(rng, n)
    else:
        anchor = domain.removed[int(rng.integers(len(domain.removed)))]
        sigma = 10.0 ** _uniform(rng, -4.0, 1.0)
        w = sigma * rng.standard_normal(n)
    flippable = anchor == 0.0
    # x is checked once; None where it fell on a removed point, which no flip mends
    x = domain._member(anchor + w)
    for _ in range(64):
        flips = (rng.random(n) < 0.5) & flippable & (w != 0.0)
        if not flips.any():
            continue
        signs = np.where(flips, -1.0, 1.0)
        y = domain._member(anchor + w * signs)
        if y is not None and x is not None and x.coords != y.coords:
            return x, y
    raise ConfigurationError(f"no equal-distance pair found in 64 sign flips on {domain!r}")


def _random_rotation(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(r.diagonal())


def _random_map(domain: FiniteComplement, rng: np.random.Generator):
    """A random Mobius map of one to three generators and the image of
    ``domain``.  ``map_domain`` cannot fail here: ``domain`` is a finite
    complement with two or more boundary points, INFINITY counted, and
    a Mobius map sends at most one of them to INFINITY."""
    n = domain.dim
    gens = []
    for _ in range(1 + int(rng.integers(3))):
        kind = int(rng.integers(4))
        if kind == 0:
            gens.append(Translation(2.0 * rng.standard_normal(n)))
        elif kind == 1:
            gens.append(Scaling(10.0 ** _uniform(rng, -1.0, 1.0)))
        elif kind == 2:
            gens.append(Orthogonal(_random_rotation(rng, n)))
        else:
            gens.append(SphereInversion(3.0 * rng.standard_normal(n), 10.0 ** _uniform(rng, -0.5, 0.5)))
    f = MobiusMap(tuple(gens))
    return f, map_domain(f, domain)


def _ball_map(domain: UnitBall, rng: np.random.Generator):
    """A ball automorphism centred at a random point of radius 0.05 to
    0.9, which maps the ball onto itself."""
    a = (0.05 + 0.85 * rng.random()) * _unit(rng, domain.dim)
    return ball_automorphism(a), domain


@lru_cache(maxsize=None)
def _fixed_maps(dim: int) -> tuple[MobiusMap, UnitBall, MobiusMap]:
    """The Cayley map of dimension ``dim``, the ball it takes the
    half-space onto and the unit-sphere inversion, built once per
    dimension and only applied."""
    return cayley_map(dim), UnitBall(dim), inversion_unit(dim)


def _cayley_draw(domain: UpperHalfSpace, rng: np.random.Generator):
    """The Cayley map of the half-space ``domain`` onto the ball of its
    dimension; it draws nothing."""
    return _fixed_maps(domain.dim)[:2]


def _inversion_draw(domain: UpperHalfSpace, rng: np.random.Generator):
    """The unit-sphere inversion, which takes the half-space ``domain``
    onto itself; it draws nothing."""
    return _fixed_maps(domain.dim)[2], domain


@dataclass
class Sample:
    """One configuration: the points x, y, z and the images fx, fy, the
    points the evaluators hand to the metrics.  The sampler and the probes
    give each as a checked point, checked once on its domain (x, y, z) or
    on the image domain (fx, fy); a sample built by hand may hold arrays,
    which the metrics check."""

    x: object = None
    y: object = None
    z: object = None
    fmap: MobiusMap | None = None
    fdomain: object | None = None
    fx: object = None
    fy: object = None
    t: float | None = None


def _checked_sample(domain, smp: Sample, prefix: str = "") -> Sample:
    """``smp`` with x, then y checked once on ``domain`` (a checked point
    of ``domain`` is kept) and, where it has a map, the images ``fx`` and
    ``fy`` of the checked pair, each checked once on the image domain
    under a name that starts with ``prefix``: the one place a sample's
    images are built.  A point that fails raises as a metric call would."""
    smp.x, smp.y = domain._point(smp.x, "x"), domain._point(smp.y, "y")
    if smp.fmap is not None:
        smp.fx = smp.fdomain._point(smp.fmap.apply(smp.x), f"{prefix}image of x")
        smp.fy = smp.fdomain._point(smp.fmap.apply(smp.y), f"{prefix}image of y")
    return smp


def _build_sample(case: "InequalityCase", domain, rng: np.random.Generator) -> Sample:
    """The sample of ``case`` on ``domain``, drawn from ``rng`` in one
    pass.  A Mobius case draws its map, then a pair, whose images
    :func:`_checked_sample` builds under names that carry the case id: an
    image outside the image domain raises, and so do images that
    coincide."""
    if case.draw_map is not None:
        f, fd = case.draw_map(domain, rng)
        smp = _checked_sample(domain, Sample(*_checked_pair(domain, rng), fmap=f, fdomain=fd), f"{case.case_id} ")
        if smp.fx.coords == smp.fy.coords:
            raise ConfigurationError(f"{case.case_id}: the images of distinct points coincide")
        return smp
    if case.sampler == "triple":
        x, y = _checked_pair(domain, rng)
        return Sample(x=x, y=y, z=sample_point(domain, rng))
    x, y = _checked_pair(domain, rng) if case.sampler == "pair" else _equal_distance_pair(domain, rng)
    return Sample(x=x, y=y)


# ---------------------------------------------------------------------------
# Declarative records


@dataclass(frozen=True)
class InequalityCase:
    case_id: str
    paper_ref: str
    formula: str
    domains: tuple
    evaluate: Callable  # (domain, Sample) -> (lhs, rhs); rhs may be +inf (vacuous)
    constant: float | None = None
    sampler: str = "pair"  # "pair" | "triple" | "equal_pair"
    draw_map: Callable | None = None  # (domain, rng) -> (f, f(domain)), drawn before each pair
    grid: tuple[float, float] | None = None  # (lo, hi): samples are evenly spaced t, domains (None,)
    notes: str = ""

    def __post_init__(self):
        # a map draw is followed by one pair draw
        allowed = ("pair",) if self.draw_map is not None else ("pair", "triple", "equal_pair")
        if self.sampler not in allowed:
            raise ConfigurationError(f"case {self.case_id}: sampler must be one of {allowed}, got {self.sampler!r}")
        if not self.domains:
            raise ConfigurationError(f"case {self.case_id}: declares no domains")
        if self.grid is None and None in self.domains:
            raise ConfigurationError(f"case {self.case_id}: a None domain needs a grid")
        # _equal_distance_pair anchors its pairs on the ball's centre or a removed point
        other = [d for d in self.domains if not isinstance(d, (UnitBall, FiniteComplement))]
        if self.sampler == "equal_pair" and other:
            raise ConfigurationError(
                f"case {self.case_id}: sampler 'equal_pair' runs on UnitBall and FiniteComplement domains only, "
                f"got {other[0]!r}"
            )
        # a grid sample holds t alone: no point is drawn and no map applied
        drawn = set(self.domains) != {None} or self.draw_map is not None or self.sampler != "pair"
        if self.grid is not None and drawn:
            raise ConfigurationError(f"case {self.case_id}: a grid case takes domain None, no draw_map, pair sampler")


@dataclass(frozen=True)
class SharpnessProbe:
    probe_id: str
    paper_ref: str
    family: str
    direction: str  # "0+" | "1-" | "1+" | "inf" | "exact"
    schedule: tuple[float, ...]
    expected_limit: float
    tolerance: float
    evaluate: Callable[[float], float]


@dataclass(frozen=True)
class Catalog:
    cases: tuple[InequalityCase, ...]
    probes: tuple[SharpnessProbe, ...]

    def case(self, case_id: str) -> InequalityCase:
        for c in self.cases:
            if c.case_id == case_id:
                return c
        raise KeyError(case_id)

    def probe(self, probe_id: str) -> SharpnessProbe:
        for p in self.probes:
            if p.probe_id == probe_id:
                return p
        raise KeyError(probe_id)


@dataclass
class CaseResult:
    case_id: str
    paper_ref: str
    samples: int
    violations: int
    max_slack: float | None
    seed: int
    passed: bool
    wall_time: float
    notes: str
    violation_samples: list

    def record(self) -> dict:
        return {
            "case_id": self.case_id,
            "paper_ref": self.paper_ref,
            "samples": self.samples,
            "violations": self.violations,
            "max_slack": None if self.max_slack is None else _round12(self.max_slack),
            "seed": self.seed,
            "pass": self.passed,
            "wall_time": _round12(self.wall_time),
            "notes": self.notes,
            "violation_samples": self.violation_samples,
        }


@dataclass
class ProbeResult:
    probe_id: str
    paper_ref: str
    schedule: list
    estimates: list
    expected_limit: float
    final_deviation: float
    monotone: bool
    passed: bool
    wall_time: float
    notes: str

    def record(self) -> dict:
        return {
            "case_id": self.probe_id,
            "paper_ref": self.paper_ref,
            "samples": len(self.schedule),
            "violations": 0 if self.passed else 1,
            "max_slack": _round12(self.final_deviation),
            "seed": None,
            "pass": self.passed,
            "wall_time": _round12(self.wall_time),
            "notes": self.notes,
            "schedule": [_round12(t) for t in self.schedule],
            "estimates": [_round12(v) for v in self.estimates],
            "expected_limit": _round12(self.expected_limit),
            "final_deviation": _round12(self.final_deviation),
            "monotone": self.monotone,
        }


# ---------------------------------------------------------------------------
# Catalog


def _axioms_evaluator(metric_fn, triangle: bool):
    def ev(domain, smp: Sample):
        x, y = smp.x, smp.y
        mxy = metric_fn(domain, x, y)
        myx = metric_fn(domain, y, x)
        mxx = metric_fn(domain, x, x)
        residual = max(-mxy, abs(mxy - myx), mxx)
        if triangle:
            mxz = metric_fn(domain, x, smp.z)
            mzy = metric_fn(domain, smp.z, y)
            residual = max(residual, math.fsum((mxy, -mxz, -mzy)))
        return residual, 0.0

    return ev


def _chain(*terms):
    """(largest step down, 0.0) for the chain t0 <= t1 <= ...: the chain
    holds exactly when no term exceeds the next one."""
    return max(map(operator.sub, terms, terms[1:])), 0.0


def _pairwise(bound, *metrics):
    """The evaluator of a pair case or probe: each metric once at
    (domain, smp.x, smp.y), in the order given, then ``bound(*values)``,
    the case's (lhs, rhs) or the probe's estimate."""
    return lambda domain, smp: bound(*[m(domain, smp.x, smp.y) for m in metrics])


def _distortion(bound):
    """The evaluator of a Mobius case or probe: u at (x, y) on the
    domain, then u at the images (fx, fy) on the image domain, then
    ``bound(u0, u1)``; u is bound when the catalog is built."""
    u = u_metric
    return lambda domain, smp: bound(u(domain, smp.x, smp.y), u(smp.fdomain, smp.fx, smp.fy))


@lru_cache(maxsize=1)
def catalog() -> Catalog:
    n = 3
    e1 = np.zeros(n)
    e1[0] = 1.0
    e3 = np.zeros(n)
    e3[2] = 1.0
    en = e3  # vertical direction of the half-space
    origin = np.zeros(n)

    ball = UnitBall(n)
    half = UpperHalfSpace(n)
    punct1 = FiniteComplement(n, [e1])
    punct0 = FiniteComplement(n, [origin])
    punct3 = FiniteComplement(n, [origin, [2.0, 0.0, 0.0], [0.0, 3.0, 1.0]])

    all4 = (ball, half, punct1, punct3)
    convex2 = (ball, half)

    U, JT, J = u_metric, j_tilde, j_metric
    D, A, E, C, S, R = delta_metric, alpha_metric, eta_metric, cassinian, triangular_ratio, rho

    cases: list[InequalityCase] = []

    def add(case_id, paper_ref, formula, domains, ev, **kw):
        cases.append(
            InequalityCase(case_id, paper_ref, formula, tuple(domains), ev, **kw)
        )

    # -- metric axioms ------------------------------------------------------
    axiom_metrics = [
        ("AX-U", U, True, "u", ""),
        ("AX-JT", JT, True, "j_tilde", ""),
        ("AX-J", J, True, "j", ""),
        ("AX-DELTA", D, True, "delta", ""),
        ("AX-ETA", E, True, "eta",
         "positivity is not asserted; it fails for equidistant pairs around a one-point boundary"),
        ("AX-C", C, True, "the Cassinian metric", ""),
        ("AX-S", S, True, "the triangular ratio metric", ""),
        ("AX-ALPHA", A, False, "the Apollonian metric",
         "pseudo-metric: positivity and the triangle inequality are not asserted"),
    ]
    for cid, fn, tri, name, note in axiom_metrics:
        add(
            cid,
            f"metric axioms of {name}: nonnegativity, symmetry, zero self-distance"
            + (", triangle inequality on sampled triples" if tri else ""),
            "max(-m(x,y), |m(x,y)-m(y,x)|, m(x,x), m(x,y)-m(x,z)-m(z,y)) <= 0" if tri
            else "max(-m(x,y), |m(x,y)-m(y,x)|, m(x,x)) <= 0",
            all4,
            _axioms_evaluator(fn, tri),
            sampler="triple" if tri else "pair",
            notes=note,
        )

    # -- two-sided comparisons with the hyperbolic metric -------------------
    z1 = _pairwise(lambda r_, u_: _chain(r_, u_, 3.0 * r_), R, U)
    add("T-Z1-B", "two-sided comparison of u with the hyperbolic metric of the ball, constants 1 and 3",
        "rho <= u <= 3*rho", (ball,), z1, constant=3.0)
    add("T-Z1-H", "two-sided comparison of u with the hyperbolic metric of the half-space, constants 1 and 3",
        "rho <= u <= 3*rho", (half,), z1, constant=3.0)

    j_rho = _pairwise(lambda r_, j_: _chain(0.5 * r_, j_, r_), R, J)
    add("T-C-B", "distance-ratio metric against the hyperbolic metric of the ball",
        "rho/2 <= j <= rho", (ball,), j_rho, constant=2.0)
    add("T-C-H", "distance-ratio metric against the hyperbolic metric of the half-space",
        "rho/2 <= j <= rho", (half,), j_rho, constant=2.0)

    # -- distance-ratio comparisons -----------------------------------------
    add("T-O3", "two-sided product-form distance-ratio bounds for u",
        "2*j_tilde <= u <= 4*j_tilde", all4,
        _pairwise(lambda u_, jt_: _chain(2.0 * jt_, u_, 4.0 * jt_), U, JT), constant=4.0)
    add("T-O3-EQ", "lower product-form bound attained when the boundary distances agree",
        "u == 2*j_tilde when d(x) == d(y)", (ball, punct1),
        _pairwise(lambda u_, jt_: (abs(u_ - 2.0 * jt_), 0.0), U, JT), sampler="equal_pair")
    add("T-O4", "two-sided min-form distance-ratio bounds for u",
        "j <= u <= 4*j", all4, _pairwise(lambda u_, j_: _chain(j_, u_, 4.0 * j_), U, J), constant=4.0)
    add("T-JS", "boundary-pair metric squeezed between the distance-ratio metrics",
        "j <= delta <= 2*j_tilde <= 2*j", all4,
        _pairwise(lambda j_, d_, jt_: _chain(j_, d_, 2.0 * jt_, 2.0 * j_), J, D, JT))
    add("T-ALJ", "Apollonian metric below the distance-ratio metric on convex domains",
        "alpha <= j", convex2, _pairwise(lambda a_, j_: (a_, j_), A, J),
        notes="known counterexample: alpha(0, e1/2) = log 3 > log 2 = j on the ball, "
        "because alpha = rho >= j on the ball and the half-space")
    add("T-PAH", "boundary-pair metric against the Apollonian metric, best possible bracket",
        "alpha <= delta <= log(exp(alpha)+2) <= alpha + log 3", all4,
        _pairwise(lambda a_, d_: _chain(a_, d_, math.log(math.exp(a_) + 2.0), a_ + LOG3), A, D))
    add("T-L3", "half-Apollonian metric between half of and all of the Apollonian metric",
        "alpha/2 <= eta <= alpha", all4,
        _pairwise(lambda a_, e_: _chain(0.5 * a_, e_, a_), A, E), constant=2.0)
    add("T-EQU14", "triangular ratio bracketed by functions of the distance-ratio metric",
        "tanh(j/2) <= s <= (exp(j)-1)/2", all4,
        _pairwise(lambda j_, s_: _chain(math.tanh(0.5 * j_), s_, 0.5 * math.expm1(j_)), J, S))

    # -- additive comparisons with the hyperbolic metric --------------------
    add("T-EQU2-B", "additive lower hyperbolic bound for u on the ball",
        "rho - 2*log2 <= u", (ball,),
        _pairwise(lambda r_, u_: (r_ - TWO_LOG2, u_), R, U), constant=TWO_LOG2)

    upper_rho = _pairwise(lambda u_, r_: (u_, r_ + TWO_LOG2), U, R)
    add("T-32-B", "additive upper hyperbolic bound for u on the ball",
        "u <= rho + 2*log2", (ball,), upper_rho, constant=TWO_LOG2)
    add("T-35-H", "additive upper hyperbolic bound for u on the half-space",
        "u <= rho + 2*log2", (half,), upper_rho, constant=TWO_LOG2)

    # -- sharp multiplicative and additive distance-ratio bounds ------------
    add("T-JG", "sharp multiplicative product-form bound for u",
        "u <= 3*j_tilde", all4, _pairwise(lambda u_, jt_: (u_, 3.0 * jt_), U, JT), constant=3.0)
    add("T-JG4", "sharp multiplicative min-form bound for u",
        "u <= 3*j", all4, _pairwise(lambda u_, j_: (u_, 3.0 * j_), U, J), constant=3.0)
    add("T-HG", "additive product-form bound for u",
        "u <= 2*j_tilde + log2", all4,
        _pairwise(lambda u_, jt_: (u_, 2.0 * jt_ + LOG2), U, JT), constant=LOG2)
    add("T-HG-COR", "additive min-form bound for u",
        "u <= 2*j + log2", all4, _pairwise(lambda u_, j_: (u_, 2.0 * j_ + LOG2), U, J), constant=LOG2)

    # -- boundary-pair metric comparisons ------------------------------------
    add("T-JG6", "two-sided boundary-pair bounds for u, constants 1 and 3",
        "delta <= u <= 3*delta", all4,
        _pairwise(lambda d_, u_: _chain(d_, u_, 3.0 * d_), D, U), constant=3.0)
    add("T-EQU13", "weaker boundary-pair bounds kept as a consistency check",
        "delta/2 <= u <= 4*delta", all4,
        _pairwise(lambda d_, u_: _chain(0.5 * d_, u_, 4.0 * d_), D, U), constant=4.0)

    # -- half-Apollonian comparisons -----------------------------------------
    add("T-JG7", "best possible half-Apollonian bounds for u",
        "eta <= u <= 2*eta + 2*log3", all4,
        _pairwise(lambda e_, u_: _chain(e_, u_, 2.0 * e_ + TWO_LOG3), E, U), constant=TWO_LOG3)
    add("T-JG8", "weaker half-Apollonian bound kept as a consistency check",
        "u <= 4*log(2 + exp(eta))", all4,
        _pairwise(lambda e_, u_: (u_, 4.0 * math.log(2.0 + math.exp(e_))), E, U))

    def ev_eta_dom(domain, smp):
        t = smp.t
        return 2.0 * t + TWO_LOG3, 4.0 * math.log(2.0 + math.exp(t))

    add("T-ETA-DOM", "scalar dominance of the two half-Apollonian upper bounds",
        "2*t + 2*log3 <= 4*log(2 + exp(t)) for t >= 0", (None,), ev_eta_dom, grid=(0.0, 10.0))

    # -- Apollonian comparisons ----------------------------------------------
    add("T-ALPHA-U", "Apollonian bounds for u on general domains",
        "alpha <= u <= 2*alpha + 2*log3", all4,
        _pairwise(lambda a_, u_: _chain(a_, u_, 2.0 * a_ + TWO_LOG3), A, U), constant=TWO_LOG3)
    add("T-ALPHA-U-CONVEX", "multiplicative Apollonian bound for u on convex domains",
        "u <= 3*alpha", convex2, _pairwise(lambda u_, a_: (u_, 3.0 * a_), U, A), constant=3.0)
    add("T-ALPHA-FORMS", "joint boundary-pair supremum form of the Apollonian metric against its two-factor sum form",
        "|alpha_pair - alpha_sum| == 0", (ball, punct1, punct3),
        _pairwise(lambda pair, summ: (abs(pair - summ), 0.0), alpha_pair_form, A),
        notes="on the ball both forms are rho, so there the case checks only bookkeeping")

    # -- Cassinian comparisons ------------------------------------------------
    def nearer_farther(domain, smp):
        """min and max of the boundary distances d(x), d(y), read off the
        gauges of checked points."""
        d = domain.distance_to_boundary(smp.x), domain.distance_to_boundary(smp.y)
        return min(d), max(d)

    def ev_equ12(domain, smp):
        c_ = C(domain, smp.x, smp.y)
        u_ = U(domain, smp.x, smp.y)
        rmin, rmax = nearer_farther(domain, smp)
        return max(2.0 * math.log1p(rmin * c_) - u_, 0.5 * math.log1p(rmax * c_) - u_), 0.0

    add("T-EQU12", "Cassinian lower bounds for u with both boundary distances",
        "u >= 2*log(1 + min(d)*c) and u >= log(1 + max(d)*c)/2", all4, ev_equ12)

    def ev_equ12_dom(domain, smp):
        rmin, rmax = nearer_farther(domain, smp)
        if rmin < 0.25 * rmax:
            return 0.0, math.inf
        c_ = C(domain, smp.x, smp.y)
        return 0.5 * math.log1p(rmax * c_) - 2.0 * math.log1p(rmin * c_), 0.0

    add("T-EQU12-DOM", "the min-distance Cassinian bound dominates when the boundary distances are within a factor four",
        "2*log(1 + min(d)*c) >= log(1 + max(d)*c)/2 when min(d) >= max(d)/4", all4,
        ev_equ12_dom)

    # -- triangular ratio comparisons -----------------------------------------
    def s_bounds(s_, u_):
        upper = (3.0 * math.log((1.0 + s_) / (1.0 - s_)),) if s_ < 1.0 else ()
        return _chain(TWO_LOG3 * s_, u_, *upper)

    add("T-S", "triangular ratio bounds for u; the upper bound degenerates at s = 1",
        "(2*log3)*s <= u <= 3*log((1+s)/(1-s))", all4, _pairwise(s_bounds, S, U),
        notes="upper bound treated as vacuous when s = 1")

    # -- Mobius distortion ------------------------------------------------------
    m1 = _distortion(lambda u0, u1: _chain(u0 / 3.0, u1, 3.0 * u0))
    add("M1-FC", "three-fold distortion of u under Mobius maps of punctured space",
        "u/3 <= u'(f.) <= 3*u", (punct1, punct3), m1, constant=3.0, draw_map=_random_map,
        notes="image domain built from the mapped boundary points")
    add("M1-BALL", "three-fold distortion of u under ball automorphisms",
        "u/3 <= u'(f.) <= 3*u", (ball,), m1, constant=3.0, draw_map=_ball_map)
    add("M1-HB", "three-fold distortion of u under the half-space to ball map",
        "u/3 <= u'(f.) <= 3*u", (half,), m1, constant=3.0, draw_map=_cayley_draw)

    m_add = _distortion(lambda u0, u1: (abs(u1 - u0), TWO_LOG2))
    add("M2-BALL", "additive distortion of u under ball automorphisms",
        "|u(f.) - u| <= 2*log2", (ball,), m_add, constant=TWO_LOG2, draw_map=_ball_map)
    add("M3-HH", "additive distortion of u under unit-sphere inversion of the half-space",
        "|u(f.) - u| <= 2*log2", (half,), m_add, constant=TWO_LOG2, draw_map=_inversion_draw)
    add("M3-HB", "additive distortion of u under the half-space to ball map",
        "|u(f.) - u| <= 2*log2", (half,), m_add, constant=TWO_LOG2, draw_map=_cayley_draw)

    # -- probes ---------------------------------------------------------------
    probes: list[SharpnessProbe] = []

    def probe(probe_id, paper_ref, family, direction, schedule, limit, tolerance, domain, pair, ev):
        probes.append(SharpnessProbe(
            probe_id, paper_ref, family, direction, tuple(schedule), limit, tolerance,
            lambda t: ev(domain, _checked_sample(domain, pair(t)))))

    def sym(t):
        return Sample(x=t * e1, y=-t * e1)

    u_minus_rho = _pairwise(operator.sub, U, R)
    probe("P1", "two-stage radial family on the ball attaining the additive constant 2*log2",
          "x = s*e1, y = t*e1 on the ball; inner limit t -> 1-, outer s -> 1-",
          "1-", (1.0 - 10.0 ** (-k) for k in range(1, 5)), TWO_LOG2, 2e-3,
          ball, lambda s: Sample(x=s * e1, y=(1.0 - (1.0 - s) * 10.0 ** (-5)) * e1), u_minus_rho)
    probe("P2", "vertical family on the half-space attaining the additive constant 2*log2",
          "x = e_n, y = t*e_n on the half-space, t -> 0+",
          "0+", (10.0 ** (-k) for k in range(1, 7)), TWO_LOG2, 2e-3,
          half, lambda t: Sample(x=en, y=t * en), u_minus_rho)
    probe("P3", "symmetric family in punctured space attaining the sharp factor 3 over the product-form distance ratio",
          "x = t*e1, y = -t*e1 in space punctured at e1, t -> 0+",
          "0+", (10.0 ** (-k) for k in range(1, 5)), 3.0, 1e-3,
          punct1, sym, _pairwise(operator.truediv, U, JT))
    probe("P3-J", "symmetric family in punctured space attaining the sharp factor 3 over the min-form distance ratio",
          "x = t*e1, y = -t*e1 in space punctured at e1, t -> 0+",
          "0+", (10.0 ** (-k) for k in range(1, 5)), 3.0, 1e-3,
          punct1, sym, _pairwise(operator.truediv, U, J))
    probe("P4", "symmetric family in punctured space attaining the additive constant log2",
          "x = t*e1, y = -t*e1 in space punctured at e1, t -> 1-",
          "1-", (1.0 - 10.0 ** (-k) for k in range(1, 5)), LOG2, 1e-2,
          punct1, sym, _pairwise(lambda u_, jt_: u_ - 2.0 * jt_, U, JT))
    probe("P5", "one-sided family in punctured space driving u down to the half-Apollonian metric",
          "x = 0, y = t*e1 in space punctured at e1, t -> 1-",
          "1-", (1.0 - 10.0 ** (-k) for k in range(1, 7)), 1.0, 5e-2,
          punct1, lambda t: Sample(x=origin, y=t * e1), _pairwise(operator.truediv, U, E))
    probe("P6", "antipodal family around a single puncture where u is constant 2*log3",
          "y = -x in space punctured at the origin",
          "exact", (0.1, 0.5, 1.0, 2.0, 10.0), TWO_LOG3, 1e-12,
          punct0, sym, lambda domain, smp: U(domain, smp.x, smp.y))
    probe("P7", "symmetric family in punctured space attaining the sharp factor 3 over the triangular-ratio bound",
          "x = t*e1, y = -t*e1 in space punctured at e1, t -> 0+",
          "0+", (10.0 ** (-k) for k in range(1, 5)), 3.0, 1e-3,
          punct1, sym, _pairwise(lambda s_, u_: u_ / math.log((1.0 + s_) / (1.0 - s_)), S, U))
    probe("P8", "ball automorphisms attaining the multiplicative distortion factor 3",
          "f centered at t*e1 applied to x = (1-t)*e1, y = -(1-t)*e1, t -> 1-",
          "1-", (1.0 - 10.0 ** (-k) for k in range(1, 7)), 3.0, 5e-2,
          ball, lambda t: Sample((1.0 - t) * e1, -((1.0 - t) * e1), fmap=ball_automorphism(t * e1), fdomain=ball),
          _distortion(lambda u0, u1: u1 / u0))

    # the fixed maps of dimension n, from the cache the Mobius draws read
    cay, _, inv = _fixed_maps(n)

    def cayley_pair(t):
        return Sample(t * en, (1.0 / t) * en, fmap=cay, fdomain=ball)

    probe("P9", "half-space to ball map attaining the multiplicative distortion factor 1/3",
          "x = t*e_n, y = e_n/t under the half-space to ball map, t -> 1+",
          "1+", (1.0 + 10.0 ** (-k) for k in range(1, 7)), 1.0 / 3.0, 5e-2,
          half, cayley_pair, _distortion(lambda u0, u1: u1 / u0))
    probe("P9-ADD", "half-space to ball map attaining the additive distortion constant 2*log2",
          "x = t*e_n, y = e_n/t under the half-space to ball map, t -> inf",
          "inf", (10.0 ** k for k in range(1, 7)), TWO_LOG2, 1e-3,
          half, cayley_pair, _distortion(operator.sub))

    probe("P10", "unit-sphere inversion of the half-space attaining the additive distortion constant 2*log2",
          "x = e1 + t*e_n, y = e1 + e_n/t under unit inversion, t -> 0+",
          "0+", (10.0 ** (-k) for k in range(1, 7)), TWO_LOG2, 1e-3,
          half, lambda t: Sample(e1 + t * en, e1 + (1.0 / t) * en, fmap=inv, fdomain=half), _distortion(operator.sub))
    probe("P11", "diameter family of the ball where u equals the boundary-pair metric exactly",
          "x = t*e1, y = -t*e1 on the ball",
          "exact", (0.1, 0.5, 0.9, 0.99, 0.999, 0.999999), 0.0, 1e-12,
          ball, sym, _pairwise(operator.sub, U, D))

    def ev_p12(domain, smp):
        c_ = C(domain, smp.x, smp.y)
        rmin = nearer_farther(domain, smp)[0]
        return U(domain, smp.x, smp.y) - 2.0 * math.log1p(rmin * c_)

    probe("P12", "equidistant family around a single puncture where the Cassinian lower bound for u is an equality",
          "x = t*e1, y = t*e3 in space punctured at the origin",
          "exact", (1e-3, 0.1, 0.5, 1.0, 7.0, 100.0), 0.0, 1e-12,
          punct0, lambda t: Sample(x=t * e1, y=t * e3), ev_p12)

    ids = [c.case_id for c in cases] + [p.probe_id for p in probes]
    if len(ids) != len(set(ids)):
        raise ConfigurationError("catalog ids are not unique")
    return Catalog(tuple(cases), tuple(probes))


# ---------------------------------------------------------------------------
# Execution


def _violates(lhs: float, rhs: float, slack: float) -> bool:
    return lhs > rhs * (1.0 + slack) + slack


def _sample_summary(domain, smp: Sample, index: int, lhs: float, rhs: float) -> dict:
    rec: dict = {"index": index, "domain": repr(domain) if domain is not None else None}
    if smp.t is not None:
        rec["t"] = _round12(smp.t)
    if smp.x is not None:
        rec["x"] = [_round12(v) for v in smp.x.coords]
    if smp.y is not None:
        rec["y"] = [_round12(v) for v in smp.y.coords]
    if smp.z is not None:
        rec["z"] = [_round12(v) for v in smp.z.coords]
    if smp.fmap is not None:
        rec["map"] = repr(smp.fmap)
        rec["image_domain"] = repr(smp.fdomain)
    rec["lhs"] = _round12(lhs)
    rec["rhs"] = None if math.isinf(rhs) else _round12(rhs)
    return rec


# no caller; perfbench/tracing.py wraps this name; kept until ROADMAP item 1 revises it
@contextmanager
def sup_refinement():
    """A context that does nothing: no computation reads an engine setting."""
    yield


def check_case(
    case: InequalityCase,
    n_samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    slack: float = DEFAULT_SLACK,
) -> CaseResult:
    """Run one catalog case on freshly sampled configurations.

    A sample violates when lhs > rhs*(1+slack) + slack.  Each sample is
    evaluated once: every metric is a formula, an exact maximum or a root
    solve, so a second evaluation could only repeat the first.

    ``n_samples`` and ``seed`` are integers and ``slack`` a real number,
    bools excluded, and the record holds the integers as Python ints.
    """
    if not _is_integer(n_samples) or n_samples < 1:
        raise ParameterError(f"n_samples must be an integer >= 1, got {n_samples!r}")
    if not _is_integer(seed):
        raise ParameterError(f"seed must be an integer, got {seed!r}")
    n_samples, seed = int(n_samples), int(seed)
    if not (_is_real(slack) and math.isfinite(_float(slack)) and slack >= 0.0):
        raise ParameterError(f"slack must be a finite number >= 0, got {slack!r}")
    slack = float(slack)
    domains = case.domains

    started = time.perf_counter()
    violations = 0
    retained: list[dict] = []
    max_slack: float | None = None

    base = n_samples // len(domains)
    counts = [base + (1 if i < n_samples % len(domains) else 0) for i in range(len(domains))]
    k = 0
    for domain, count in zip(domains, counts):
        for _ in range(count):
            if case.grid is not None:
                lo, hi = case.grid
                t = lo if n_samples == 1 else lo + (hi - lo) * (k / (n_samples - 1))
                smp = Sample(t=t)
            else:
                smp = _build_sample(case, domain, _stream(seed, case.case_id, k))
            lhs, rhs = case.evaluate(domain, smp)
            if _violates(lhs, rhs, slack):
                violations += 1
                if len(retained) < 10:
                    retained.append(_sample_summary(domain, smp, k, lhs, rhs))
            if not math.isinf(rhs):
                gap = lhs - rhs
                if max_slack is None or gap > max_slack:
                    max_slack = gap
            k += 1

    return CaseResult(
        case_id=case.case_id,
        paper_ref=case.paper_ref,
        samples=n_samples,
        violations=violations,
        max_slack=max_slack,
        seed=seed,
        passed=violations == 0,
        wall_time=time.perf_counter() - started,
        notes=case.notes,
        violation_samples=retained,
    )


def run_probe(probe: SharpnessProbe, schedule_overrides=None) -> ProbeResult:
    """Evaluate a sharpness probe along its schedule.

    Reports the estimate at each point, the deviation of the final
    estimate from the expected sharp constant, and whether the deviation
    is non-increasing over the last three points (deviations at the
    noise floor count as converged).  Every probe must be monotone in
    that sense to pass, as well as end within its tolerance.  A schedule
    holds at least four finite real numbers, bools excluded.
    """
    schedule = _items(probe.schedule if schedule_overrides is None else schedule_overrides, "a probe schedule")
    for t in schedule:
        if not _is_real(t):
            raise ParameterError(f"probe schedule values must be real numbers, got {t!r}")
    schedule = tuple(map(_float, schedule))
    if len(schedule) < 4:
        raise ParameterError("a probe schedule needs at least 4 points")
    for t in schedule:
        if not math.isfinite(t):
            raise ParameterError(f"probe schedule values must be finite, got {t!r}")
    started = time.perf_counter()
    estimates = []
    # a huge t may overflow; the non-finite estimate is rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        for t in schedule:
            try:
                v = float(probe.evaluate(t))
            except DomainMembershipError as exc:
                raise ScheduleError(
                    f"probe {probe.probe_id}: point family leaves the domain at t = {t!r} ({exc})"
                ) from None
            except (ParameterError, ArithmeticError) as exc:
                # a t at a pole of the family divides by zero in float arithmetic
                raise ScheduleError(
                    f"probe {probe.probe_id}: the family is undefined at t = {t!r} ({exc})"
                ) from None
            if not math.isfinite(v):
                raise ScheduleError(f"probe {probe.probe_id}: the estimate at t = {t!r} is {v}")
            estimates.append(v)
    deviations = [abs(v - probe.expected_limit) for v in estimates]
    clamped = [0.0 if d <= _MONOTONE_FLOOR else d for d in deviations]
    monotone = all(
        clamped[i + 1] <= clamped[i] for i in range(len(clamped) - 3, len(clamped) - 1)
    )
    final_deviation = deviations[-1]
    passed = final_deviation <= probe.tolerance and monotone
    return ProbeResult(
        probe_id=probe.probe_id,
        paper_ref=probe.paper_ref,
        schedule=list(schedule),
        estimates=estimates,
        expected_limit=probe.expected_limit,
        final_deviation=final_deviation,
        monotone=monotone,
        passed=passed,
        wall_time=time.perf_counter() - started,
        notes=probe.family,
    )


# ---------------------------------------------------------------------------
# Report serialization

_BASE_FIELDS = ("case_id", "paper_ref", "samples", "violations", "max_slack", "seed", "pass")
_FIELD_RULES = (
    ("case_id", lambda v: type(v) is str, "a string"),
    ("pass", lambda v: type(v) is bool, "true or false"),
    ("samples", lambda v: _is_integer(v) and v >= 0, "an integer >= 0"),
    ("violations", lambda v: _is_integer(v) and v >= 0, "an integer >= 0"),
    ("max_slack", lambda v: v is None or _is_real(v), "a number or null"),
    ("seed", lambda v: v is None or _is_integer(v), "an integer or null"),
)
_PROBE_FIELDS = ("schedule", "estimates", "expected_limit", "final_deviation")


def records_to_json(records) -> str:
    return json.dumps(records, indent=2, ensure_ascii=False, allow_nan=False) + "\n"


def _finite_float(token: str) -> float:
    v = float(token)
    if not math.isfinite(v):
        raise ConfigurationError(f"report contains the non-finite number {token}")
    return v


def parse_report(text: str):
    """Parse and validate a report produced by this package.

    Accepts a JSON array of records or a single record object; returns
    the parsed structure unchanged (so re-serialization is lossless).
    """
    try:
        data = json.loads(text, parse_float=_finite_float, parse_constant=_finite_float)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"report is not valid JSON: {exc}") from None
    records = data if isinstance(data, list) else [data]
    if not records:
        raise ConfigurationError("report contains no records")
    for rec in records:
        if not isinstance(rec, dict):
            raise ConfigurationError("report records must be objects")
        missing = [f for f in _BASE_FIELDS if f not in rec]
        if missing:
            raise ConfigurationError(f"report record is missing fields: {missing}")
        for field, valid, kind in _FIELD_RULES:
            if not valid(rec[field]):
                raise ConfigurationError(f"report record {field} must be {kind}, got {rec[field]!r}")
        if "schedule" in rec:
            missing = [f for f in _PROBE_FIELDS if f not in rec]
            if missing:
                raise ConfigurationError(f"probe record is missing fields: {missing}")
    return data


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def records_to_csv(records) -> str:
    if isinstance(records, dict):
        records = [records]
    columns = [
        "case_id", "samples", "violations", "max_slack", "seed", "pass",
        "wall_time", "expected_limit", "final_deviation", "monotone",
    ]
    rows = [[_fmt(rec.get(col)) for col in columns] for rec in records]
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([columns, *rows])
    return out.getvalue()


def records_to_text(records) -> str:
    if isinstance(records, dict):
        records = [records]
    lines = []
    for rec in records:
        status = "pass" if rec.get("pass") else "FAIL"
        if "schedule" in rec:
            lines.append(
                f"{rec['case_id']:<16} {status}  final_deviation={_fmt(rec.get('final_deviation'))} "
                f"expected={_fmt(rec.get('expected_limit'))} monotone={_fmt(rec.get('monotone'))}"
            )
        else:
            lines.append(
                f"{rec['case_id']:<16} {status}  samples={rec.get('samples')} "
                f"violations={rec.get('violations')} max_slack={_fmt(rec.get('max_slack'))}"
            )
    return "\n".join(lines) + "\n"
