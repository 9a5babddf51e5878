"""50-digit references for every metric with a closed form or an exact
finite maximum.

Each reference evaluates its formula in mpmath at the exact binary value
of the float inputs, so a comparison sees only the package's own
rounding.  The inputs cover the regimes the sampler stresses: ball radii
up to 1 - 1e-6, half-space heights from 1e-6 to 1e6, and clouds of sigma
down to 1e-6 around punctures.

The one-sided Apollonian supremum lambda(x, y) = sup_p |p-x| / |p-y|
over the boundary is the ratio at which the Apollonian sphere around y
first touches the boundary.  Then eta = log max(lambda(x, y),
lambda(y, x)) and alpha = log lambda(x, y) + log lambda(y, x).

Tolerance: 1e-12 relative plus 8 eps absolute, the absolute term
multiplied on the ball by (1 + 1/d(x) + 1/d(y)), since 1 - |x| inherits
the rounding of |x| relatively amplified by 1/d(x).
"""

import math

import mpmath
import numpy as np
import pytest

from hypmetrics.geometry import FiniteComplement, UnitBall, UpperHalfSpace
from hypmetrics.metrics import evaluate_metric
from hypmetrics.suite import sample_pair

MP = mpmath.MPContext()
MP.dps = 50
EPS = 2.0**-52
REL = 1e-12


def _mp(v):
    return [MP.mpf(float(c)) for c in v]


def _norm(v):
    return MP.sqrt(MP.fsum(c * c for c in v))


def _dist(a, b):
    return _norm([p - q for p, q in zip(a, b)])


def _boundary_distances(domain, x):
    """Distances from x to the finite boundary points (ball and half-space:
    to the nearest one)."""
    if isinstance(domain, UnitBall):
        return [1 - _norm(x)]
    if isinstance(domain, UpperHalfSpace):
        return [x[-1]]
    return [_dist(x, _mp(p)) for p in domain.removed]


def lam(domain, x, y):
    """sup over the boundary of |p-x| / |p-y|, x and y in mpmath."""
    r = _dist(x, y)
    if isinstance(domain, UnitBall):
        tx, ty = 1 - _norm(x) ** 2, 1 - _norm(y) ** 2
        return (MP.sqrt(r * r + tx * ty) + r) / ty
    if isinstance(domain, UpperHalfSpace):
        return (r + MP.sqrt(r * r + 4 * x[-1] * y[-1])) / (2 * y[-1])
    best = max(a / b for a, b in zip(_boundary_distances(domain, x), _boundary_distances(domain, y)))
    # the point at infinity, a boundary point when flagged, gives ratio 1
    return max(best, MP.one) if domain.includes_infinity_boundary else best


def reference(domain, name, x, y):
    x, y = _mp(x), _mp(y)
    r = _dist(x, y)
    dxs, dys = _boundary_distances(domain, x), _boundary_distances(domain, y)
    dx, dy = min(dxs), min(dys)
    if name == "u":
        return 2 * MP.log((r + max(dx, dy)) / MP.sqrt(dx * dy))
    if name == "j":
        return MP.log(1 + r / min(dx, dy))
    if name == "j_tilde":
        return (MP.log(1 + r / dx) + MP.log(1 + r / dy)) / 2
    if name == "rho":
        if isinstance(domain, UnitBall):
            return 2 * MP.asinh(r / MP.sqrt((1 - _norm(x) ** 2) * (1 - _norm(y) ** 2)))
        return 2 * MP.asinh(r / (2 * MP.sqrt(x[-1] * y[-1])))
    if name == "eta":
        return MP.log(max(lam(domain, x, y), lam(domain, y, x)))
    if name == "alpha":
        return MP.log(lam(domain, x, y)) + MP.log(lam(domain, y, x))
    if name == "cassinian":
        return max(r / (a * b) for a, b in zip(dxs, dys))
    if name == "triangular":
        if isinstance(domain, UpperHalfSpace):
            return r / _dist(x, y[:-1] + [-y[-1]])
        return min(MP.one, max(r / (a + b) for a, b in zip(dxs, dys)))
    raise KeyError(name)


def tolerance(domain, x, y, value) -> float:
    amplification = 1.0
    if isinstance(domain, UnitBall):
        amplification += 1.0 / domain.distance_to_boundary(x) + 1.0 / domain.distance_to_boundary(y)
    return REL * abs(value) + 8.0 * EPS * amplification


def _unit(rng, n):
    g = rng.standard_normal(n)
    return g / np.linalg.norm(g)


def _extreme_pairs(domain, rng):
    """Hand-placed pairs at the edges of the sampler's regimes."""
    n = domain.dim
    if isinstance(domain, UnitBall):
        rim = [(1.0 - 1e-6) * _unit(rng, n) for _ in range(6)]
        pairs = [(a, b) for a in rim for b in rim if a is not b]
        pairs += [(a, s * _unit(rng, n)) for a in rim for s in (0.0, 0.5, 0.9, 1.0 - 1e-3)]
        # close pairs hugging the sphere
        pairs += [(a, a * (1.0 - 1e-7) + 1e-7 * _unit(rng, n)) for a in rim]
        return pairs
    if isinstance(domain, UpperHalfSpace):
        pairs = []
        for hx in (1e-6, 1e-3, 1.0, 1e3, 1e6):
            for hy in (1e-6, 1.0, 1e6):
                for offset in (0.0, 1e-6, 1.0, 1e3):
                    x = np.zeros(n)
                    x[-1] = hx
                    y = np.zeros(n)
                    y[:-1] = offset * _unit(rng, n - 1)
                    y[-1] = hy
                    if not (x == y).all():
                        pairs.append((x, y))
        return pairs
    pairs = []
    for p in domain.removed:
        for sigma in (1e-6, 1e-3):
            x = p + sigma * _unit(rng, n)
            pairs += [(x, p + sigma * _unit(rng, n)), (x, p + 10.0 * _unit(rng, n))]
    return pairs


def _pairs(domain):
    rng = np.random.default_rng(2024 + domain.dim)
    return _extreme_pairs(domain, rng) + [sample_pair(domain, rng) for _ in range(250)]


E1 = [1.0, 0.0, 0.0]
PUNCT3 = [[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 3.0, 1.0]]
DOMAINS = [
    UnitBall(2),
    UnitBall(3),
    UpperHalfSpace(3),
    UpperHalfSpace(5),
    FiniteComplement(3, [E1]),
    FiniteComplement(3, PUNCT3),
    FiniteComplement(3, PUNCT3, includes_infinity_boundary=False),
]
CLOSED = {
    UnitBall: ("u", "rho", "j", "j_tilde", "eta", "alpha"),
    UpperHalfSpace: ("u", "rho", "j", "j_tilde", "eta", "alpha", "triangular"),
    FiniteComplement: ("u", "j", "j_tilde", "eta", "alpha", "cassinian", "triangular"),
}
CASES = [(d, name) for d in DOMAINS for name in CLOSED[type(d)]]


def _case_id(case):
    domain, name = case
    tag = f"{type(domain).__name__}{domain.dim}-{name}"
    if isinstance(domain, FiniteComplement):
        tag += f"-m{len(domain.removed)}" + ("" if domain.includes_infinity_boundary else "-noinf")
    return tag


@pytest.mark.parametrize("domain, name", CASES, ids=[_case_id(c) for c in CASES])
def test_metric_meets_its_50_digit_reference(domain, name):
    for x, y in _pairs(domain):
        got = evaluate_metric(domain, name, x, y)
        want = reference(domain, name, x, y)
        assert float(abs(MP.mpf(got) - want)) <= tolerance(domain, x, y, float(want)), (
            name, x.tolist(), y.tolist(), got, float(want)
        )


def _textbook_eta(x, y):
    """eta on the ball from lambda(x, y) = (1-|x|^2) / ([x,y] - |x-y|),
    which cancels when x or y hugs the sphere."""
    r = float(np.linalg.norm(x - y))
    tx, ty = 1.0 - float(np.dot(x, x)), 1.0 - float(np.dot(y, y))
    bracket = math.sqrt(r * r + tx * ty)
    return math.log(max(tx / (bracket - r), ty / (bracket - r)))


def test_the_tolerance_rejects_the_cancelling_lambda_form():
    # the textbook form loses about 1.9e-5 relative at 1 - |x| = 1e-6;
    # an oracle that let it pass could not guard the ball's closed form
    ball = UnitBall(3)
    ratios = []
    for x, y in _pairs(ball):
        want = float(reference(ball, "eta", x, y))
        ratios.append(abs(_textbook_eta(x, y) - want) / tolerance(ball, x, y, want))
    assert max(ratios) > 1e3


@pytest.mark.parametrize("domain", [UnitBall(2), UpperHalfSpace(2)], ids=repr)
def test_lambda_is_the_boundary_supremum(domain):
    # a dense scan of the boundary circle or line stays below lambda and
    # comes within the scan's resolution of it
    rng = np.random.default_rng(31)
    th = np.linspace(-math.pi, math.pi, 200_000, endpoint=False)
    if isinstance(domain, UnitBall):
        boundary = np.stack([np.cos(th), np.sin(th)], axis=1)
    else:
        boundary = np.stack([40.0 * np.tan(0.5 * th), np.zeros_like(th)], axis=1)
    for _ in range(20):
        if isinstance(domain, UnitBall):
            x, y = (rng.uniform(0.0, 0.8) * _unit(rng, 2) for _ in range(2))
        else:
            x, y = (np.array([rng.normal(), 10.0 ** rng.uniform(-0.5, 0.5)]) for _ in range(2))
        scan = float(np.max(np.linalg.norm(boundary - x, axis=1) / np.linalg.norm(boundary - y, axis=1)))
        exact = float(lam(domain, _mp(x), _mp(y)))
        assert exact * (1.0 - 1e-6) <= scan <= exact * (1.0 + 1e-12)
