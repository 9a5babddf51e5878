"""Independent value checks for the scalar API and the probes.

Closed forms are re-derived here in plain ``math`` from the README's
table; boundary suprema are bounded below by a dense brute-force scan of
the boundary; the paper's identities are checked between metric values
of one point pair.  Nothing here calls into hypmetrics except to read
the domain description (dimension, removed points, infinity flag).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

EPS = 2.220446049250313e-16
CLOSED_REL = 1e-12
SUP_REL = 1e-9
# absolute floor of the supremum check, for values at rounding level
SUP_ABS = 1e-12
PROBE_REL = 1e-9
PROBE_ABS = 1e-12
PROBE_REFERENCE = Path(__file__).with_name("probe_reference.json")

# ROADMAP's deliberate probe shortfalls stay visible.  The P5 family
# converges as 2 log(1+t) / log(1/(1-t)), 0.100 at the last schedule point
# against a tolerance of 0.05, so its run fails.  P10's deviation is about
# 2t: it misses only the acceptance anchor at t = 1e-3 (2.0e-3 against
# 1e-3) and passes at the end of its schedule, t = 1e-6; the stored
# estimates pin that anchor value.  Neither is re-anchored or re-scheduled.
EXPECTED_PROBE_FAILURES = frozenset({"P5"})


def _kind(domain) -> str:
    return type(domain).__name__


def _norm(v) -> float:
    return math.sqrt(math.fsum(float(c) * float(c) for c in v))


def boundary_distance(domain, x) -> float:
    kind = _kind(domain)
    if kind == "UnitBall":
        return 1.0 - _norm(x)
    if kind == "UpperHalfSpace":
        return float(x[-1])
    return min(math.dist(x, p) for p in domain.removed)


def _one_minus_sq(x) -> float:
    n = _norm(x)
    return (1.0 - n) * (1.0 + n)


def closed_form(domain, name: str, x, y) -> float:
    """u, rho, j_tilde, j and delta from their textbook definitions."""
    kind = _kind(domain)
    r = math.dist(x, y)
    dx, dy = boundary_distance(domain, x), boundary_distance(domain, y)
    if name == "u":
        return 2.0 * math.log((r + max(dx, dy)) / math.sqrt(dx * dy))
    if name == "j_tilde":
        return 0.5 * (math.log1p(r / dx) + math.log1p(r / dy))
    if name == "j":
        return math.log1p(r / min(dx, dy))
    if name == "rho" or (name == "delta" and kind != "FiniteComplement"):
        # sinh(rho/2) = |x-y| / sqrt((1-|x|^2)(1-|y|^2)) on the ball and
        # |x-y| / (2 sqrt(x_n y_n)) on the half-space
        if kind == "UnitBall":
            return 2.0 * math.asinh(r / math.sqrt(_one_minus_sq(x) * _one_minus_sq(y)))
        return 2.0 * math.asinh(r / (2.0 * math.sqrt(dx * dy)))
    if name == "delta":
        return math.log1p(_max_cross_ratio(domain, x, y))
    raise KeyError(name)


def _max_cross_ratio(domain, x, y) -> float:
    """max over boundary pairs of |p,x,q,y| = |p-q||x-y| / (|p-x||q-y|);
    a factor pair holding the point at infinity cancels to 1."""
    r = math.dist(x, y)
    pts = [tuple(map(float, p)) for p in domain.removed]
    best = 0.0
    for p in pts:
        for q in pts:
            best = max(best, math.dist(p, q) * r / (math.dist(p, x) * math.dist(q, y)))
    if domain.includes_infinity_boundary:
        for p in pts:
            best = max(best, r / math.dist(p, x), r / math.dist(p, y))
    return best


def closed_tolerance(domain, x, y, a: float, b: float) -> float:
    """Rounding bound for comparing two evaluations of one closed form.

    On the ball the boundary distance 1 - |x| inherits the rounding of
    |x|, relatively amplified by 1/d(x); every closed form here moves by
    at most 2 per unit of relative change in a boundary distance.
    """
    amplification = 1.0
    if _kind(domain) == "UnitBall":
        amplification += 1.0 / boundary_distance(domain, x) + 1.0 / boundary_distance(domain, y)
    return CLOSED_REL * max(abs(a), abs(b)) + 8.0 * EPS * amplification


# ---------------------------------------------------------------------------
# brute-force boundary scans


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _orthonormal(c: np.ndarray, hint: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    t1 = hint - np.dot(hint, c) * c
    if np.linalg.norm(t1) < 1e-8:
        e = np.zeros(3)
        e[int(np.argmin(np.abs(c)))] = 1.0
        t1 = e - np.dot(e, c) * c
    t1 = _unit(t1)
    return t1, np.cross(c, t1)


def _fibonacci_sphere(n: int) -> np.ndarray:
    k = np.arange(n) + 0.5
    z = 1.0 - 2.0 * k / n
    phi = math.pi * (3.0 - math.sqrt(5.0)) * k
    s = np.sqrt(1.0 - z * z)
    return np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=1)


def _ball_distances(x: np.ndarray, y: np.ndarray):
    """(|p-x|, |p-y|) over a dense set of unit-sphere points p.

    The set is a Fibonacci sphere, the great circle through x and y, and
    caps around the radial projections of x and y reaching down to a
    thousandth of the boundary distance.  Inside its own cap a point's
    distance comes from the chord formula, free of cancellation.
    """
    dxs, dys = [], []

    def direct(pts):
        dxs.append(np.linalg.norm(pts - x, axis=1))
        dys.append(np.linalg.norm(pts - y, axis=1))

    direct(_fibonacci_sphere(4096))
    cx = _unit(x) if np.linalg.norm(x) > 0 else _unit(y)
    t1, _ = _orthonormal(cx, y)
    th = np.linspace(-math.pi, math.pi, 8192, endpoint=False)
    direct(np.cos(th)[:, None] * cx + np.sin(th)[:, None] * t1)

    for own, other, mine in ((x, y, dxs), (y, x, dys)):
        rad = _norm(own)
        if rad < 1e-12:
            continue
        c = own / rad
        t1, t2 = _orthonormal(c, other)
        d = 1.0 - rad
        theta = np.concatenate([[0.0], np.geomspace(1e-3 * d, math.pi, 96)])[:, None]
        phi = np.linspace(0.0, 2.0 * math.pi, 48, endpoint=False)
        ring = np.cos(phi)[None, :, None] * t1 + np.sin(phi)[None, :, None] * t2
        pts = (np.cos(theta)[:, :, None] * c + np.sin(theta)[:, :, None] * ring).reshape(-1, 3)
        chord = np.sqrt(d * d + 4.0 * rad * np.sin(0.5 * theta) ** 2)
        own_d = np.broadcast_to(chord, (theta.shape[0], phi.size)).reshape(-1)
        other_d = np.linalg.norm(pts - other, axis=1)
        if mine is dxs:
            dxs.append(own_d)
            dys.append(other_d)
        else:
            dxs.append(other_d)
            dys.append(own_d)
    return np.concatenate(dxs), np.concatenate(dys)


def _half_distances(x: np.ndarray, y: np.ndarray):
    """(|p-x|, |p-y|) over a dense set of points p of the plane x_3 = 0:
    the line through both feet, polar grids around each foot from a
    thousandth to a thousand heights, and a wide polar grid.  Inside its
    own grid a point's distance to its foot's point is exact."""
    dxs, dys = [], []
    fx = np.array([x[0], x[1], 0.0])
    fy = np.array([y[0], y[1], 0.0])
    horiz = fy - fx
    ell = float(np.linalg.norm(horiz))
    w = horiz / ell if ell > 0 else np.array([1.0, 0.0, 0.0])
    v = np.array([-w[1], w[0], 0.0])
    scale = ell + float(x[2]) + float(y[2])

    th = -math.pi + (np.arange(8192) + 0.37) * (2.0 * math.pi / 8192)
    line = fx + (scale * np.tan(0.5 * th))[:, None] * w
    dxs.append(np.linalg.norm(line - x, axis=1))
    dys.append(np.linalg.norm(line - y, axis=1))

    radii = np.geomspace(1e-3, 1e3, 64) * scale
    phi = np.linspace(0.0, 2.0 * math.pi, 48, endpoint=False)
    wide = (radii[:, None, None] * (np.cos(phi)[None, :, None] * w + np.sin(phi)[None, :, None] * v)).reshape(-1, 3)
    wide = wide + 0.5 * (fx + fy)
    dxs.append(np.linalg.norm(wide - x, axis=1))
    dys.append(np.linalg.norm(wide - y, axis=1))

    for foot, own, other, mine in ((fx, x, y, dxs), (fy, y, x, dys)):
        h = float(own[2])
        rho = np.concatenate([[0.0], np.geomspace(1e-3 * h, 1e3 * max(h, scale), 128)])
        offs = (rho[:, None, None] * (np.cos(phi)[None, :, None] * w + np.sin(phi)[None, :, None] * v)).reshape(-1, 3)
        own_d = np.broadcast_to(np.hypot(rho, h)[:, None], (rho.size, phi.size)).reshape(-1)
        other_d = np.linalg.norm(offs + (foot - other), axis=1)
        if mine is dxs:
            dxs.append(own_d)
            dys.append(other_d)
        else:
            dxs.append(other_d)
            dys.append(own_d)
    return np.concatenate(dxs), np.concatenate(dys)


def sup_lower_bound(domain, name: str, x, y) -> float:
    """Lower bound on a supremum metric from evaluating its boundary
    functional at many boundary points (exact on finite complements)."""
    kind = _kind(domain)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r = math.dist(x, y)
    infinity = False
    if kind == "UnitBall":
        dx, dy = _ball_distances(x, y)
    elif kind == "UpperHalfSpace":
        dx, dy = _half_distances(x, y)
        infinity = True
    else:
        pts = np.array([np.asarray(p, dtype=float) for p in domain.removed])
        dx = np.linalg.norm(pts - x, axis=1)
        dy = np.linalg.norm(pts - y, axis=1)
        infinity = domain.includes_infinity_boundary
    if name == "eta":
        return float(np.max(np.abs(np.log(dx / dy))))
    if name == "cassinian":
        return float(np.max(r / (dx * dy)))
    if name == "triangular":
        return min(float(np.max(r / (dx + dy))), 1.0)
    if name == "alpha":
        # sum of the two one-point suprema; the point at infinity, where
        # it is a boundary point of the search, contributes 0 to each
        a = float(np.max(np.log(dy / dx)))
        b = float(np.max(np.log(dx / dy)))
        if infinity:
            a, b = max(a, 0.0), max(b, 0.0)
        return a + b
    raise KeyError(name)


SUP_METRICS = frozenset({"eta", "cassinian", "triangular", "alpha"})


def check_value(domain, name: str, x, y, value: float) -> str | None:
    """None when ``value`` agrees with the oracle, else a description."""
    if not math.isfinite(value):
        return f"{name} on {domain!r}: non-finite value {value!r}"
    if name in SUP_METRICS:
        bound = sup_lower_bound(domain, name, x, y)
        if value < bound - (SUP_REL * abs(bound) + SUP_ABS):
            return f"{name} on {domain!r}: {value!r} below the boundary scan's {bound!r}"
        return None
    expected = closed_form(domain, name, x, y)
    if abs(value - expected) > closed_tolerance(domain, x, y, value, expected):
        return f"{name} on {domain!r}: {value!r} against the closed form's {expected!r}"
    return None


def check_identities(domain, values: dict) -> list[str]:
    """The paper's identities between metrics of one point pair:
    delta == rho on the ball and the half-space, alpha/2 <= eta <= alpha,
    and s <= 1."""
    out = []
    if "rho" in values and abs(values["delta"] - values["rho"]) > CLOSED_REL * abs(values["rho"]):
        out.append(f"delta {values['delta']!r} != rho {values['rho']!r} on {domain!r}")
    a, e = values["alpha"], values["eta"]
    if 0.5 * a > e * (1.0 + SUP_REL) + SUP_ABS or e > a * (1.0 + SUP_REL) + SUP_ABS:
        out.append(f"alpha/2 <= eta <= alpha fails on {domain!r}: alpha {a!r}, eta {e!r}")
    if values["triangular"] > 1.0:
        out.append(f"s = {values['triangular']!r} > 1 on {domain!r}")
    return out


# ---------------------------------------------------------------------------
# probes


def probe_reference() -> dict:
    return json.loads(PROBE_REFERENCE.read_text())["estimates"]


def check_probe(pid: str, passed: bool, estimates, reference: dict) -> list[str]:
    """Expected verdict and estimates equal to the stored ones."""
    out = []
    expected_pass = pid not in EXPECTED_PROBE_FAILURES
    if passed != expected_pass:
        out.append(f"probe {pid}: pass={passed}, expected {expected_pass}")
    ref = reference.get(pid)
    if ref is None or len(ref) != len(estimates):
        out.append(f"probe {pid}: no stored estimates of matching length")
        return out
    for got, want in zip(estimates, ref):
        if abs(got - want) > PROBE_REL * abs(want) + PROBE_ABS:
            out.append(f"probe {pid}: estimate {got!r} against stored {want!r}")
            break
    return out
