"""Declarative catalog of comparison inequalities and sharpness probes,
with a deterministic randomized verification engine.

Every case but one states a proved inequality between metrics (or a
metric axiom batch, or a Mobius distortion bound) and is checked on
freshly sampled admissible configurations.  The exception is T-ALJ,
alpha <= j on convex domains: it is false (see its notes), and it is
kept as stated so that it reports its violations.  Chains and axiom
batches are encoded as a max-of-residuals against zero; single natural
bounds keep their two sides as-is.  Every probe drives a parametric
family toward a limit that attains a sharp constant and records the
convergence table.

Determinism contract: sample k of a case draws from a Philox stream
keyed by (seed, case id, k) alone and started at counter 0, so results
do not depend on execution order or on how samples are split across
processes.  Each process re-keys one generator for every sample; a
sample is built completely from its stream before the next stream is
keyed, so the generator is never shared between threads.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .geometry import (
    BoundaryCardinalityError,
    DomainMembershipError,
    FiniteComplement,
    ParameterError,
    UnitBall,
    UpperHalfSpace,
    is_infinity,
    same_point,
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
    "sample_pair",
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


_ZERO_WORDS = np.zeros(4, dtype=np.uint64)


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
        "state": {"counter": _ZERO_WORDS, "key": np.frombuffer(digest[:16], dtype=np.uint64)},
        "buffer": _ZERO_WORDS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def _unit(rng: np.random.Generator, n: int) -> np.ndarray:
    while True:
        g = rng.standard_normal(n)
        norm = math.sqrt(np.dot(g, g))
        if norm > 1e-12:
            return g / norm


def sample_point(domain, rng: np.random.Generator) -> np.ndarray:
    """One admissible interior point, stressing the regimes the bounds
    care about (near-boundary on the ball, extreme heights on the
    half-space, tight clouds around punctures)."""
    n = domain.dim
    if isinstance(domain, UnitBall):
        direction = _unit(rng, n)
        if rng.random() < 0.5:
            radius = rng.random() ** (1.0 / n)
        else:
            radius = 1.0 - 10.0 ** (-float(rng.integers(1, 7)))
        return radius * direction
    if isinstance(domain, UpperHalfSpace):
        p = np.empty(n)
        p[:-1] = 2.0 * rng.standard_normal(n - 1)
        p[-1] = 10.0 ** rng.uniform(-6.0, 6.0)
        return p
    while True:
        if rng.random() < 0.7:
            center = domain.removed[int(rng.integers(len(domain.removed)))]
            sigma = 10.0 ** rng.uniform(-6.0, 0.5)
            p = center + sigma * rng.standard_normal(n)
        else:
            centroid = domain.removed.mean(axis=0)
            p = centroid + (5.0 + 45.0 * rng.random()) * _unit(rng, n)
        if domain.contains(p):
            return p


def sample_pair(domain, rng: np.random.Generator):
    x = sample_point(domain, rng)
    while True:
        y = sample_point(domain, rng)
        if not same_point(x, y):
            return x, y


def _equal_distance_pair(domain, rng: np.random.Generator):
    """Pair with bit-identical boundary distances.

    Built by flipping signs of offset components whose anchor coordinate
    is zero: the two offset vectors then have the same squares in the
    same order, so the recomputed distances agree exactly.
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
        sigma = 10.0 ** rng.uniform(-4.0, 1.0)
        w = sigma * rng.standard_normal(n)
    flippable = anchor == 0.0
    x = anchor + w
    for _ in range(64):
        flips = (rng.random(n) < 0.5) & flippable & (w != 0.0)
        if not flips.any():
            continue
        signs = np.where(flips, -1.0, 1.0)
        y = anchor + w * signs
        if domain.contains(y) and domain.contains(x) and not same_point(x, y):
            return x, y
    return sample_pair(domain, rng)


def _random_rotation(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _random_mobius(rng: np.random.Generator, n: int) -> MobiusMap:
    gens = []
    for _ in range(1 + int(rng.integers(3))):
        kind = int(rng.integers(4))
        if kind == 0:
            gens.append(Translation(2.0 * rng.standard_normal(n)))
        elif kind == 1:
            gens.append(Scaling(10.0 ** rng.uniform(-1.0, 1.0)))
        elif kind == 2:
            gens.append(Orthogonal(_random_rotation(rng, n)))
        else:
            gens.append(SphereInversion(3.0 * rng.standard_normal(n), 10.0 ** rng.uniform(-0.5, 0.5)))
    return MobiusMap(tuple(gens))


def _sample_map(map_family: str, domain, rng: np.random.Generator):
    n = domain.dim
    if map_family == "random":
        for _ in range(16):
            f = _random_mobius(rng, n)
            try:
                return f, map_domain(f, domain)
            except BoundaryCardinalityError:
                continue
        raise ConfigurationError("could not build an admissible random Mobius map")
    if map_family == "ball_auto":
        a = (0.05 + 0.85 * rng.random()) * _unit(rng, n)
        return ball_automorphism(a), domain
    if map_family == "cayley":
        return cayley_map(n), UnitBall(n)
    if map_family == "inv_unit":
        return inversion_unit(n), domain
    raise ConfigurationError(f"unknown map family {map_family!r}")


@dataclass
class Sample:
    x: np.ndarray | None = None
    y: np.ndarray | None = None
    z: np.ndarray | None = None
    fmap: MobiusMap | None = None
    fdomain: object | None = None
    fx: np.ndarray | None = None
    fy: np.ndarray | None = None
    t: float | None = None


def _build_sample(case: "InequalityCase", domain, rng: np.random.Generator) -> Sample:
    if case.sampler == "pair":
        x, y = sample_pair(domain, rng)
        return Sample(x=x, y=y)
    if case.sampler == "triple":
        x, y = sample_pair(domain, rng)
        return Sample(x=x, y=y, z=sample_point(domain, rng))
    if case.sampler == "equal_pair":
        x, y = _equal_distance_pair(domain, rng)
        return Sample(x=x, y=y)
    if case.sampler == "pair_map":
        f, fd = _sample_map(case.map_family, domain, rng)
        for _ in range(64):
            x, y = sample_pair(domain, rng)
            fx = f.apply(x)
            fy = f.apply(y)
            if is_infinity(fx) or is_infinity(fy) or same_point(fx, fy):
                continue
            if not (fd.contains(fx) and fd.contains(fy)):
                continue
            return Sample(x=x, y=y, fmap=f, fdomain=fd, fx=fx, fy=fy)
        raise ConfigurationError(f"no admissible mapped pair found for {case.case_id}")
    raise ConfigurationError(f"unknown sampler kind {case.sampler!r}")


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
    condition: str = ""
    sampler: str = "pair"
    map_family: str | None = None
    grid: tuple[float, float] | None = None
    notes: str = ""


@dataclass(frozen=True)
class SharpnessProbe:
    probe_id: str
    paper_ref: str
    family: str
    functional: str  # "ratio" | "difference" | "value"
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
        mxy = metric_fn(domain, smp.x, smp.y)
        myx = metric_fn(domain, smp.y, smp.x)
        mxx = metric_fn(domain, smp.x, smp.x)
        residual = max(-mxy, abs(mxy - myx), mxx)
        if triangle:
            mxz = metric_fn(domain, smp.x, smp.z)
            mzy = metric_fn(domain, smp.z, smp.y)
            residual = max(residual, math.fsum((mxy, -mxz, -mzy)))
        return residual, 0.0

    return ev


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
    def ev_z1(domain, smp):
        r_ = R(domain, smp.x, smp.y)
        u_ = U(domain, smp.x, smp.y)
        return max(r_ - u_, u_ - 3.0 * r_), 0.0

    add("T-Z1-B", "two-sided comparison of u with the hyperbolic metric of the ball, constants 1 and 3",
        "rho <= u <= 3*rho", (ball,), ev_z1, constant=3.0)
    add("T-Z1-H", "two-sided comparison of u with the hyperbolic metric of the half-space, constants 1 and 3",
        "rho <= u <= 3*rho", (half,), ev_z1, constant=3.0)

    def ev_c(domain, smp):
        r_ = R(domain, smp.x, smp.y)
        j_ = J(domain, smp.x, smp.y)
        return max(0.5 * r_ - j_, j_ - r_), 0.0

    add("T-C-B", "distance-ratio metric against the hyperbolic metric of the ball",
        "rho/2 <= j <= rho", (ball,), ev_c, constant=2.0)
    add("T-C-H", "distance-ratio metric against the hyperbolic metric of the half-space",
        "rho/2 <= j <= rho", (half,), ev_c, constant=2.0)

    # -- distance-ratio comparisons -----------------------------------------
    def ev_o3(domain, smp):
        u_ = U(domain, smp.x, smp.y)
        jt_ = JT(domain, smp.x, smp.y)
        return max(2.0 * jt_ - u_, u_ - 4.0 * jt_), 0.0

    add("T-O3", "two-sided product-form distance-ratio bounds for u",
        "2*j_tilde <= u <= 4*j_tilde", all4, ev_o3, constant=4.0)

    def ev_o3_eq(domain, smp):
        u_ = U(domain, smp.x, smp.y)
        jt_ = JT(domain, smp.x, smp.y)
        return abs(u_ - 2.0 * jt_), 0.0

    add("T-O3-EQ", "lower product-form bound attained when the boundary distances agree",
        "u == 2*j_tilde when d(x) == d(y)", (ball, punct1), ev_o3_eq,
        sampler="equal_pair", condition="d(x) = d(y) by construction")

    def ev_o4(domain, smp):
        u_ = U(domain, smp.x, smp.y)
        j_ = J(domain, smp.x, smp.y)
        return max(j_ - u_, u_ - 4.0 * j_), 0.0

    add("T-O4", "two-sided min-form distance-ratio bounds for u",
        "j <= u <= 4*j", all4, ev_o4, constant=4.0)

    def ev_js(domain, smp):
        j_ = J(domain, smp.x, smp.y)
        d_ = D(domain, smp.x, smp.y)
        jt_ = JT(domain, smp.x, smp.y)
        return max(j_ - d_, d_ - 2.0 * jt_, 2.0 * jt_ - 2.0 * j_), 0.0

    add("T-JS", "boundary-pair metric squeezed between the distance-ratio metrics",
        "j <= delta <= 2*j_tilde <= 2*j", all4, ev_js)

    def ev_alj(domain, smp):
        return A(domain, smp.x, smp.y), J(domain, smp.x, smp.y)

    add("T-ALJ", "Apollonian metric below the distance-ratio metric on convex domains",
        "alpha <= j", convex2, ev_alj, condition="convex domains only",
        notes="known counterexample: alpha(0, e1/2) = log 3 > log 2 = j on the ball, "
        "because alpha = rho >= j on the ball and the half-space")

    def ev_pah(domain, smp):
        a_ = A(domain, smp.x, smp.y)
        d_ = D(domain, smp.x, smp.y)
        mid = math.log(math.exp(a_) + 2.0)
        return max(a_ - d_, d_ - mid, mid - (a_ + LOG3)), 0.0

    add("T-PAH", "boundary-pair metric against the Apollonian metric, best possible bracket",
        "alpha <= delta <= log(exp(alpha)+2) <= alpha + log 3", all4, ev_pah)

    def ev_l3(domain, smp):
        a_ = A(domain, smp.x, smp.y)
        e_ = E(domain, smp.x, smp.y)
        return max(0.5 * a_ - e_, e_ - a_), 0.0

    add("T-L3", "half-Apollonian metric between half of and all of the Apollonian metric",
        "alpha/2 <= eta <= alpha", all4, ev_l3, constant=2.0)

    def ev_equ14(domain, smp):
        j_ = J(domain, smp.x, smp.y)
        s_ = S(domain, smp.x, smp.y)
        return max(math.tanh(0.5 * j_) - s_, s_ - 0.5 * math.expm1(j_)), 0.0

    add("T-EQU14", "triangular ratio bracketed by functions of the distance-ratio metric",
        "tanh(j/2) <= s <= (exp(j)-1)/2", all4, ev_equ14)

    # -- additive comparisons with the hyperbolic metric --------------------
    def ev_equ2(domain, smp):
        return R(domain, smp.x, smp.y) - TWO_LOG2, U(domain, smp.x, smp.y)

    add("T-EQU2-B", "additive lower hyperbolic bound for u on the ball",
        "rho - 2*log2 <= u", (ball,), ev_equ2, constant=TWO_LOG2)

    def ev_upper_rho(domain, smp):
        return U(domain, smp.x, smp.y), R(domain, smp.x, smp.y) + TWO_LOG2

    add("T-32-B", "additive upper hyperbolic bound for u on the ball",
        "u <= rho + 2*log2", (ball,), ev_upper_rho, constant=TWO_LOG2)
    add("T-35-H", "additive upper hyperbolic bound for u on the half-space",
        "u <= rho + 2*log2", (half,), ev_upper_rho, constant=TWO_LOG2)

    # -- sharp multiplicative and additive distance-ratio bounds ------------
    def ev_jg(domain, smp):
        return U(domain, smp.x, smp.y), 3.0 * JT(domain, smp.x, smp.y)

    add("T-JG", "sharp multiplicative product-form bound for u",
        "u <= 3*j_tilde", all4, ev_jg, constant=3.0)

    def ev_jg4(domain, smp):
        return U(domain, smp.x, smp.y), 3.0 * J(domain, smp.x, smp.y)

    add("T-JG4", "sharp multiplicative min-form bound for u",
        "u <= 3*j", all4, ev_jg4, constant=3.0)

    def ev_hg(domain, smp):
        return U(domain, smp.x, smp.y), 2.0 * JT(domain, smp.x, smp.y) + LOG2

    add("T-HG", "additive product-form bound for u",
        "u <= 2*j_tilde + log2", all4, ev_hg, constant=LOG2)

    def ev_hg_cor(domain, smp):
        return U(domain, smp.x, smp.y), 2.0 * J(domain, smp.x, smp.y) + LOG2

    add("T-HG-COR", "additive min-form bound for u",
        "u <= 2*j + log2", all4, ev_hg_cor, constant=LOG2)

    # -- boundary-pair metric comparisons ------------------------------------
    def ev_jg6(domain, smp):
        d_ = D(domain, smp.x, smp.y)
        u_ = U(domain, smp.x, smp.y)
        return max(d_ - u_, u_ - 3.0 * d_), 0.0

    add("T-JG6", "two-sided boundary-pair bounds for u, constants 1 and 3",
        "delta <= u <= 3*delta", all4, ev_jg6, constant=3.0)

    def ev_equ13(domain, smp):
        d_ = D(domain, smp.x, smp.y)
        u_ = U(domain, smp.x, smp.y)
        return max(0.5 * d_ - u_, u_ - 4.0 * d_), 0.0

    add("T-EQU13", "weaker boundary-pair bounds kept as a consistency check",
        "delta/2 <= u <= 4*delta", all4, ev_equ13, constant=4.0)

    # -- half-Apollonian comparisons -----------------------------------------
    def ev_jg7(domain, smp):
        e_ = E(domain, smp.x, smp.y)
        u_ = U(domain, smp.x, smp.y)
        return max(e_ - u_, u_ - (2.0 * e_ + TWO_LOG3)), 0.0

    add("T-JG7", "best possible half-Apollonian bounds for u",
        "eta <= u <= 2*eta + 2*log3", all4, ev_jg7, constant=TWO_LOG3)

    def ev_jg8(domain, smp):
        e_ = E(domain, smp.x, smp.y)
        return U(domain, smp.x, smp.y), 4.0 * math.log(2.0 + math.exp(e_))

    add("T-JG8", "weaker half-Apollonian bound kept as a consistency check",
        "u <= 4*log(2 + exp(eta))", all4, ev_jg8)

    def ev_eta_dom(domain, smp):
        t = smp.t
        return 2.0 * t + TWO_LOG3, 4.0 * math.log(2.0 + math.exp(t))

    add("T-ETA-DOM", "scalar dominance of the two half-Apollonian upper bounds",
        "2*t + 2*log3 <= 4*log(2 + exp(t)) for t >= 0", (), ev_eta_dom,
        sampler="grid", grid=(0.0, 10.0), condition="t in [0, 10]")

    # -- Apollonian comparisons ----------------------------------------------
    def ev_alpha_u(domain, smp):
        a_ = A(domain, smp.x, smp.y)
        u_ = U(domain, smp.x, smp.y)
        return max(a_ - u_, u_ - (2.0 * a_ + TWO_LOG3)), 0.0

    add("T-ALPHA-U", "Apollonian bounds for u on general domains",
        "alpha <= u <= 2*alpha + 2*log3", all4, ev_alpha_u, constant=TWO_LOG3)

    def ev_alpha_u_convex(domain, smp):
        return U(domain, smp.x, smp.y), 3.0 * A(domain, smp.x, smp.y)

    add("T-ALPHA-U-CONVEX", "multiplicative Apollonian bound for u on convex domains",
        "u <= 3*alpha", convex2, ev_alpha_u_convex, constant=3.0,
        condition="convex domains only")

    def ev_alpha_forms(domain, smp):
        pair = alpha_pair_form(domain, smp.x, smp.y)
        summ = A(domain, smp.x, smp.y)
        return abs(pair - summ), 0.0

    add("T-ALPHA-FORMS", "joint boundary-pair supremum form of the Apollonian metric against its two-factor sum form",
        "|alpha_pair - alpha_sum| == 0", (ball, punct1, punct3), ev_alpha_forms,
        notes="on the ball both forms are rho, so there the case checks only bookkeeping")

    # -- Cassinian comparisons ------------------------------------------------
    def ev_equ12(domain, smp):
        c_ = C(domain, smp.x, smp.y)
        u_ = U(domain, smp.x, smp.y)
        dx = domain.distance_to_boundary(smp.x)
        dy = domain.distance_to_boundary(smp.y)
        rmin, rmax = min(dx, dy), max(dx, dy)
        return max(2.0 * math.log1p(rmin * c_) - u_, 0.5 * math.log1p(rmax * c_) - u_), 0.0

    add("T-EQU12", "Cassinian lower bounds for u with both boundary distances",
        "u >= 2*log(1 + min(d)*c) and u >= log(1 + max(d)*c)/2", all4, ev_equ12)

    def ev_equ12_dom(domain, smp):
        dx = domain.distance_to_boundary(smp.x)
        dy = domain.distance_to_boundary(smp.y)
        rmin, rmax = min(dx, dy), max(dx, dy)
        if rmin < 0.25 * rmax:
            return 0.0, math.inf
        c_ = C(domain, smp.x, smp.y)
        return 0.5 * math.log1p(rmax * c_) - 2.0 * math.log1p(rmin * c_), 0.0

    add("T-EQU12-DOM", "the min-distance Cassinian bound dominates when the boundary distances are within a factor four",
        "2*log(1 + min(d)*c) >= log(1 + max(d)*c)/2 when min(d) >= max(d)/4", all4,
        ev_equ12_dom, condition="min(d) >= max(d)/4")

    # -- triangular ratio comparisons -----------------------------------------
    def ev_s(domain, smp):
        s_ = S(domain, smp.x, smp.y)
        u_ = U(domain, smp.x, smp.y)
        parts = [TWO_LOG3 * s_ - u_]
        if s_ < 1.0:
            parts.append(u_ - 3.0 * math.log((1.0 + s_) / (1.0 - s_)))
        return max(parts), 0.0

    add("T-S", "triangular ratio bounds for u; the upper bound degenerates at s = 1",
        "(2*log3)*s <= u <= 3*log((1+s)/(1-s))", all4, ev_s,
        condition="upper side only when s < 1",
        notes="upper bound treated as vacuous when s = 1")

    # -- Mobius distortion ------------------------------------------------------
    def ev_m1(domain, smp):
        u0 = U(domain, smp.x, smp.y)
        u1 = U(smp.fdomain, smp.fx, smp.fy)
        return max(u0 / 3.0 - u1, u1 - 3.0 * u0), 0.0

    add("M1-FC", "three-fold distortion of u under Mobius maps of punctured space",
        "u/3 <= u'(f.) <= 3*u", (punct1, punct3), ev_m1, constant=3.0,
        sampler="pair_map", map_family="random",
        notes="image domain built from the mapped boundary points")
    add("M1-BALL", "three-fold distortion of u under ball automorphisms",
        "u/3 <= u'(f.) <= 3*u", (ball,), ev_m1, constant=3.0,
        sampler="pair_map", map_family="ball_auto")
    add("M1-HB", "three-fold distortion of u under the half-space to ball map",
        "u/3 <= u'(f.) <= 3*u", (half,), ev_m1, constant=3.0,
        sampler="pair_map", map_family="cayley")

    def ev_m_add(domain, smp):
        u0 = U(domain, smp.x, smp.y)
        u1 = U(smp.fdomain, smp.fx, smp.fy)
        return abs(u1 - u0), TWO_LOG2

    add("M2-BALL", "additive distortion of u under ball automorphisms",
        "|u(f.) - u| <= 2*log2", (ball,), ev_m_add, constant=TWO_LOG2,
        sampler="pair_map", map_family="ball_auto")
    add("M3-HH", "additive distortion of u under unit-sphere inversion of the half-space",
        "|u(f.) - u| <= 2*log2", (half,), ev_m_add, constant=TWO_LOG2,
        sampler="pair_map", map_family="inv_unit")
    add("M3-HB", "additive distortion of u under the half-space to ball map",
        "|u(f.) - u| <= 2*log2", (half,), ev_m_add, constant=TWO_LOG2,
        sampler="pair_map", map_family="cayley")

    # -- probes ---------------------------------------------------------------
    probes: list[SharpnessProbe] = []

    def p1_eval(s):
        last = math.nan
        for m in (2, 3, 4, 5):
            t = 1.0 - (1.0 - s) * 10.0 ** (-m)
            last = U(ball, s * e1, t * e1) - R(ball, s * e1, t * e1)
        return last

    probes.append(SharpnessProbe(
        "P1", "two-stage radial family on the ball attaining the additive constant 2*log2",
        "x = s*e1, y = t*e1 on the ball; inner limit t -> 1-, outer s -> 1-",
        "difference", "1-", tuple(1.0 - 10.0 ** (-k) for k in range(1, 5)),
        TWO_LOG2, 2e-3, p1_eval))

    def p2_eval(t):
        return U(half, en, t * en) - R(half, en, t * en)

    probes.append(SharpnessProbe(
        "P2", "vertical family on the half-space attaining the additive constant 2*log2",
        "x = e_n, y = t*e_n on the half-space, t -> 0+",
        "difference", "0+", tuple(10.0 ** (-k) for k in range(1, 7)),
        TWO_LOG2, 2e-3, p2_eval))

    def p3_eval(t):
        return U(punct1, t * e1, -t * e1) / JT(punct1, t * e1, -t * e1)

    probes.append(SharpnessProbe(
        "P3", "symmetric family in punctured space attaining the sharp factor 3 over the product-form distance ratio",
        "x = t*e1, y = -t*e1 in space punctured at e1, t -> 0+",
        "ratio", "0+", tuple(10.0 ** (-k) for k in range(1, 5)),
        3.0, 1e-3, p3_eval))

    def p3j_eval(t):
        return U(punct1, t * e1, -t * e1) / J(punct1, t * e1, -t * e1)

    probes.append(SharpnessProbe(
        "P3-J", "symmetric family in punctured space attaining the sharp factor 3 over the min-form distance ratio",
        "x = t*e1, y = -t*e1 in space punctured at e1, t -> 0+",
        "ratio", "0+", tuple(10.0 ** (-k) for k in range(1, 5)),
        3.0, 1e-3, p3j_eval))

    def p4_eval(t):
        return U(punct1, t * e1, -t * e1) - 2.0 * JT(punct1, t * e1, -t * e1)

    probes.append(SharpnessProbe(
        "P4", "symmetric family in punctured space attaining the additive constant log2",
        "x = t*e1, y = -t*e1 in space punctured at e1, t -> 1-",
        "difference", "1-", tuple(1.0 - 10.0 ** (-k) for k in range(1, 5)),
        LOG2, 1e-2, p4_eval))

    def p5_eval(t):
        return U(punct1, origin, t * e1) / E(punct1, origin, t * e1)

    probes.append(SharpnessProbe(
        "P5", "one-sided family in punctured space driving u down to the half-Apollonian metric",
        "x = 0, y = t*e1 in space punctured at e1, t -> 1-",
        "ratio", "1-", tuple(1.0 - 10.0 ** (-k) for k in range(1, 7)),
        1.0, 5e-2, p5_eval))

    def p6_eval(t):
        return U(punct0, t * e1, -t * e1)

    probes.append(SharpnessProbe(
        "P6", "antipodal family around a single puncture where u is constant 2*log3",
        "y = -x in space punctured at the origin",
        "value", "exact", (0.1, 0.5, 1.0, 2.0, 10.0),
        TWO_LOG3, 1e-12, p6_eval))

    def p7_eval(t):
        s_ = S(punct1, t * e1, -t * e1)
        return U(punct1, t * e1, -t * e1) / math.log((1.0 + s_) / (1.0 - s_))

    probes.append(SharpnessProbe(
        "P7", "symmetric family in punctured space attaining the sharp factor 3 over the triangular-ratio bound",
        "x = t*e1, y = -t*e1 in space punctured at e1, t -> 0+",
        "ratio", "0+", tuple(10.0 ** (-k) for k in range(1, 5)),
        3.0, 1e-3, p7_eval))

    def p8_eval(t):
        f = ball_automorphism(t * e1)
        x = (1.0 - t) * e1
        y = -x
        return U(ball, f.apply(x), f.apply(y)) / U(ball, x, y)

    probes.append(SharpnessProbe(
        "P8", "ball automorphisms attaining the multiplicative distortion factor 3",
        "f centered at t*e1 applied to x = (1-t)*e1, y = -(1-t)*e1, t -> 1-",
        "ratio", "1-", tuple(1.0 - 10.0 ** (-k) for k in range(1, 7)),
        3.0, 5e-2, p8_eval))

    cay = cayley_map(n)

    def p9_eval(t):
        x = t * en
        y = (1.0 / t) * en
        return U(ball, cay.apply(x), cay.apply(y)) / U(half, x, y)

    probes.append(SharpnessProbe(
        "P9", "half-space to ball map attaining the multiplicative distortion factor 1/3",
        "x = t*e_n, y = e_n/t under the half-space to ball map, t -> 1+",
        "ratio", "1+", tuple(1.0 + 10.0 ** (-k) for k in range(1, 7)),
        1.0 / 3.0, 5e-2, p9_eval))

    def p9add_eval(t):
        x = t * en
        y = (1.0 / t) * en
        return U(half, x, y) - U(ball, cay.apply(x), cay.apply(y))

    probes.append(SharpnessProbe(
        "P9-ADD", "half-space to ball map attaining the additive distortion constant 2*log2",
        "x = t*e_n, y = e_n/t under the half-space to ball map, t -> inf",
        "difference", "inf", tuple(10.0 ** k for k in range(1, 7)),
        TWO_LOG2, 1e-3, p9add_eval))

    inv = inversion_unit(n)

    def p10_eval(t):
        x = e1 + t * en
        y = e1 + (1.0 / t) * en
        return U(half, x, y) - U(half, inv.apply(x), inv.apply(y))

    probes.append(SharpnessProbe(
        "P10", "unit-sphere inversion of the half-space attaining the additive distortion constant 2*log2",
        "x = e1 + t*e_n, y = e1 + e_n/t under unit inversion, t -> 0+",
        "difference", "0+", tuple(10.0 ** (-k) for k in range(1, 7)),
        TWO_LOG2, 1e-3, p10_eval))

    def p11_eval(t):
        return U(ball, t * e1, -t * e1) - D(ball, t * e1, -t * e1)

    probes.append(SharpnessProbe(
        "P11", "diameter family of the ball where u equals the boundary-pair metric exactly",
        "x = t*e1, y = -t*e1 on the ball",
        "difference", "exact", (0.1, 0.5, 0.9, 0.99, 0.999, 0.999999),
        0.0, 1e-12, p11_eval))

    def p12_eval(t):
        x = t * e1
        y = t * e3
        c_ = C(punct0, x, y)
        rmin = min(punct0.distance_to_boundary(x), punct0.distance_to_boundary(y))
        return U(punct0, x, y) - 2.0 * math.log1p(rmin * c_)

    probes.append(SharpnessProbe(
        "P12", "equidistant family around a single puncture where the Cassinian lower bound for u is an equality",
        "x = t*e1, y = t*e3 in space punctured at the origin",
        "difference", "exact", (1e-3, 0.1, 0.5, 1.0, 7.0, 100.0),
        0.0, 1e-12, p12_eval))

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
        rec["x"] = [_round12(v) for v in smp.x]
    if smp.y is not None:
        rec["y"] = [_round12(v) for v in smp.y]
    if smp.z is not None:
        rec["z"] = [_round12(v) for v in smp.z]
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
    """
    if n_samples < 1:
        raise ParameterError("n_samples must be >= 1")
    if not (math.isfinite(slack) and slack >= 0.0):
        raise ParameterError(f"slack must be a finite number >= 0, got {slack!r}")
    domains = (None,) if case.sampler == "grid" else case.domains

    started = time.perf_counter()
    violations = 0
    retained: list[dict] = []
    max_slack: float | None = None

    base = n_samples // len(domains)
    counts = [base + (1 if i < n_samples % len(domains) else 0) for i in range(len(domains))]
    k = 0
    for domain, count in zip(domains, counts):
        for _ in range(count):
            if case.sampler == "grid":
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
    that sense to pass, as well as end within its tolerance.
    """
    schedule = tuple(float(t) for t in (schedule_overrides or probe.schedule))
    if len(schedule) < 4:
        raise ParameterError("a probe schedule needs at least 4 points")
    for t in schedule:
        if not math.isfinite(t):
            raise ParameterError(f"probe schedule values must be finite, got {t!r}")
    started = time.perf_counter()
    estimates = []
    for t in schedule:
        try:
            # a huge t may overflow; the non-finite estimate is rejected below
            with np.errstate(over="ignore", invalid="ignore"):
                v = float(probe.evaluate(t))
        except DomainMembershipError as exc:
            raise ScheduleError(
                f"probe {probe.probe_id}: point family leaves the domain at t = {t!r} ({exc})"
            ) from None
        except ParameterError as exc:
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
    lines = [",".join(columns)]
    for rec in records:
        lines.append(",".join(_fmt(rec.get(col)) for col in columns))
    return "\n".join(lines) + "\n"


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
