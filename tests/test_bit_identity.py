"""Bit-identity fixture of the sampler, the metrics and the ball root solve.

Four SHA-256 digests over ``float.hex`` of every value:

- the samples ``_build_sample`` builds for every sampled catalog case at
  seed 42, samples 0..99 of each domain (x, y, z, f(x), f(y), the map's
  repr and the image domain's removed points);
- ``evaluate_metric`` for every evaluable metric, ``alpha_pair_form``,
  the domain's ``distance_to_boundary`` and the distance vectors on finite
  complements, at sampler pairs, at pairs in clouds of radius 1e-6 around
  the punctures and at far points 1e3 to 1e6 away;
- the same values on the unit ball and the upper half-space in
  dimensions 2 and 3, at sampler pairs, at pairs 1e-6 to 1e-12 from the
  sphere and at half-space heights 1e-6 to 1e6;
- ``boundary_sup`` of both kinds on the ball in dimensions 2 to 5, at
  sampler pairs and at pairs 1e-1 to 1e-15 from the sphere: with a point
  at the origin (w = 0), on one ray, antipodal (w = pi/2), with equal
  norms (the sum kind's cubic loses its leading term) and close together.

A table pins the outcome of every finite-complement metric at points
1e-170 from a puncture or 1e200 away, where a squared distance would
underflow to 0 or overflow to inf: the float (inf included), or the
exception type should one be raised.

A change that moves any draw or any value by one ulp changes a digest.
The digests are never updated to absorb a diff: an intended numerical
change is a golden-report change, reviewed as such.
"""

import functools
import hashlib

import numpy as np

from hypmetrics.geometry import FiniteComplement, UnitBall, UpperHalfSpace, boundary_sup
from hypmetrics.metrics import alpha_pair_form, evaluable_metrics, evaluate_metric
from hypmetrics.suite import _build_sample, _checked_pair, _stream, catalog

SAMPLES_PER_DOMAIN = 100

SAMPLE_DIGEST = "b7d06ac4eeb1666753166cf61a90c09786584fe3716cab8c884393f3fd9d4bd2"
FC_METRIC_DIGEST = "60b4d2dce9a0195d2e6e7d3356eb3029d86eb75961ad476e82dca7f169bc7013"
BH_METRIC_DIGEST = "58d5ca2170a75533a55c297330899b7cf056086c0e021c7072f5cb7be8aef78e"
BALL_SOLVER_DIGEST = "831bbbff588891dd4f43a2f9bb88b2d57d8a1a1f5c823e4dc248966f41cf6ee3"


def _hex(values) -> str:
    return ",".join(float(v).hex() for v in np.asarray(values, dtype=float).ravel().tolist())


def sample_lines():
    """One line per built sample, in catalog order."""
    for case in catalog().cases:
        if case.grid is not None:
            continue
        for i, domain in enumerate(case.domains):
            for k in range(i * SAMPLES_PER_DOMAIN, (i + 1) * SAMPLES_PER_DOMAIN):
                smp = _build_sample(case, domain, _stream(42, case.case_id, k))
                parts = [case.case_id, str(k)]
                for v in (smp.x, smp.y, smp.z, smp.fx, smp.fy):
                    parts.append("-" if v is None else _hex(v.coords))
                if smp.fmap is not None:
                    parts.append(repr(smp.fmap))
                if isinstance(smp.fdomain, FiniteComplement):
                    parts += [_hex(smp.fdomain.removed), str(smp.fdomain.includes_infinity_boundary)]
                yield "|".join(parts)


def _fc_domains():
    seen = {}
    for case in catalog().cases:
        for d in case.domains:
            if isinstance(d, FiniteComplement):
                seen[id(d)] = d
    return [
        *seen.values(),
        FiniteComplement(3, [[0.0, 0.0, 0.0]]),
        FiniteComplement(3, [[0.0, 0.0, 0.0]], includes_infinity_boundary=False),
        FiniteComplement(3, [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], includes_infinity_boundary=False),
        FiniteComplement(2, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-2.0, 0.5]]),
        FiniteComplement(3, [[0.3, -1.7, 0.25], [1.1, 0.9, -0.6], [-0.45, 0.05, 2.2], [1e-3, 7.0, 0.1]]),
    ]


def _fc_pairs(domain, rng):
    """Sampler pairs, pairs in 1e-6 clouds around one or two punctures,
    and far pairs."""
    n, removed = domain.dim, domain.removed
    for _ in range(120):
        yield [p.x for p in _checked_pair(domain, rng)]
    for _ in range(60):
        p = removed[int(rng.integers(len(removed)))]
        q = removed[int(rng.integers(len(removed)))]
        yield p + 1e-6 * rng.standard_normal(n), q + 1e-6 * rng.standard_normal(n)
    for _ in range(30):
        g = rng.standard_normal((2, n))
        scale = 10.0 ** rng.uniform(3.0, 6.0, 2)
        yield scale[0] * g[0], scale[1] * g[1]
    for _ in range(20):
        p = removed[int(rng.integers(len(removed)))]
        yield p + 1e-6 * rng.standard_normal(n), 10.0 ** rng.uniform(3.0, 6.0) * rng.standard_normal(n)


def fc_metric_lines():
    """One line per finite-complement pair: every value, or the error's
    type where the metric is undefined."""
    rng = np.random.default_rng(42)
    for domain in _fc_domains():
        yield repr(domain) + "|" + _hex(domain.removed_distance_rows)
        for x, y in _fc_pairs(domain, rng):
            parts = [_hex(x), _hex(y), _hex(domain._distance_row(x.tolist())), _hex(domain._distance_row(y.tolist()))]
            yield "|".join(parts + _metric_values(domain, x, y))


def _outcome(f) -> str:
    """``float.hex`` of f() (a NaN reads "nan" whatever its sign: numpy's
    maximum returns either sign by the NaN's position), or the type name
    of the exception it raises."""
    try:
        return float(f()).hex()
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__


def _metric_values(domain, x, y) -> list[str]:
    """distance_to_boundary at x and y, every evaluable metric and
    alpha_pair_form, each as its ``_outcome``."""
    calls = [
        lambda: domain.distance_to_boundary(x),
        lambda: domain.distance_to_boundary(y),
        *(functools.partial(evaluate_metric, domain, m, x, y) for m in evaluable_metrics(domain)),
        lambda: alpha_pair_form(domain, x, y),
    ]
    return [_outcome(f) for f in calls]


def _bh_pairs(domain, rng):
    """Sampler pairs, then ball pairs 1e-6 to 1e-12 from the sphere (half
    of them 1e-6 to 1e-12 apart) or half-space pairs at heights 1e-6 to
    1e6 with horizontal offsets 1e-6 to 1e6."""
    n = domain.dim
    for _ in range(120):
        yield [p.x for p in _checked_pair(domain, rng)]
    for k in range(80):
        if isinstance(domain, UnitBall):
            g = rng.standard_normal((2, n))
            depth = 10.0 ** -rng.uniform(6.0, 12.0, 2)
            x = (1.0 - depth[0]) * g[0] / np.linalg.norm(g[0])
            if k % 2:
                y = x + 10.0 ** -rng.uniform(6.0, 12.0) * g[1] / np.linalg.norm(g[1])
                if not np.linalg.norm(y) < 1.0:
                    y = 2.0 * x - y
            else:
                y = (1.0 - depth[1]) * g[1] / np.linalg.norm(g[1])
        else:
            x = np.append(2.0 * rng.standard_normal(n - 1), 10.0 ** rng.uniform(-6.0, 6.0))
            y = x + 10.0 ** rng.uniform(-6.0, 6.0) * np.append(rng.standard_normal(n - 1), 0.0)
            y[-1] = 10.0 ** rng.uniform(-6.0, 6.0)
        yield x, y


def bh_metric_lines():
    """One line per ball or half-space pair with every value."""
    rng = np.random.default_rng(42)
    for domain in (UnitBall(2), UnitBall(3), UpperHalfSpace(2), UpperHalfSpace(3)):
        for x, y in _bh_pairs(domain, rng):
            yield "|".join([repr(domain), _hex(x), _hex(y), *_metric_values(domain, x, y)])


def _ball_solver_pairs(domain, rng):
    """Sampler pairs, then at each depth 1e-1 to 1e-15 from the sphere:
    a point at the origin with a point at that depth (both orders), two
    points on one ray, antipodal points, points of equal norm (one the
    other with signs flipped) and a pair that depth apart."""
    n = domain.dim
    for _ in range(100):
        yield [p.x for p in _checked_pair(domain, rng)]
    for k in range(1, 16):
        g = rng.standard_normal((2, n))
        e, f = g[0] / np.linalg.norm(g[0]), g[1] / np.linalg.norm(g[1])
        outer, inner = 1.0 - 10.0**-k, rng.uniform(0.05, 0.95)
        x = outer * e
        flips = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        flips[int(rng.integers(n))] *= -1.0
        for pair in (
            (np.zeros(n), x),
            (x, np.zeros(n)),
            (inner * e, x),
            (x, -inner * e),
            (x, -x),
            (x, flips * x),
            (x, x + 10.0**-k * f),
        ):
            if all(domain.contains(p) for p in pair):
                yield pair


def ball_solver_lines():
    """One line per ball pair: both kinds of ``boundary_sup``, from the
    coordinate lists and gauges the metric kernels hand it."""
    rng = np.random.default_rng(42)
    for n in (2, 3, 4, 5):
        domain = UnitBall(n)
        for x, y in _ball_solver_pairs(domain, rng):
            (x, xs, gx), (y, ys, gy) = domain._checked(x, "x"), domain._checked(y, "y")
            values = [boundary_sup(x, y, xs, ys, gx, gy, kind) for kind in ("product", "sum")]
            yield "|".join([str(n), _hex(xs), _hex(ys), _hex(values)])


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


_TINY, _HUGE = 1e-170, 1e200
# pairs whose distances to the punctures at 0, 2 e1 and (0, 3, 1) would
# square to 0 (1e-170 away) or to inf (1e200 away)
DEGENERATE_PAIRS = {
    "tiny-mid": ([_TINY, 0.0, 0.0], [0.5, 0.0, 0.0]),
    "tiny-tiny": ([_TINY, 0.0, 0.0], [0.0, _TINY, 0.0]),
    "tiny-tiny2": ([_TINY, 0.0, 0.0], [2.0, _TINY, 0.0]),
    "mid-tiny2": ([0.5, 0.0, 0.0], [2.0, _TINY, 0.0]),
    "tiny-huge": ([_TINY, 0.0, 0.0], [_HUGE, 0.0, 0.0]),
    "huge-mid": ([_HUGE, 0.0, 0.0], [0.5, 0.0, 0.0]),
    "huge-huge": ([_HUGE, 0.0, 0.0], [0.0, _HUGE, 0.0]),
}


def degenerate_outcomes() -> dict:
    """``_metric_values`` at each degenerate pair, both orders, with and
    without the infinity flag, each value named."""
    removed = [[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 3.0, 1.0]]
    out = {}
    for flag in (True, False):
        domain = FiniteComplement(3, removed, includes_infinity_boundary=flag)
        names = ["d(x)", "d(y)", *(m.value for m in evaluable_metrics(domain)), "alpha_pair_form"]
        for label, (x, y) in DEGENERATE_PAIRS.items():
            for order, (a, b) in (("xy", (x, y)), ("yx", (y, x))):
                values = _metric_values(domain, a, b)
                key = f"{'inf' if flag else 'noinf'}:{label}:{order}"
                out[key] = " ".join(f"{n}={v}" for n, v in zip(names, values))
    return out


DEGENERATE_OUTCOMES = {
    'inf:tiny-mid:xy': 'd(x)=0x1.3529ba7d19eafp-565 d(y)=0x1.0000000000000p-1 u=0x1.8821f2ecc521ep+8 j_tilde=0x1.877080d4cd501p+7 j=0x1.86bf0ebcd57e4p+8 delta=0x1.8708b4451a51ap+8 alpha=0x1.8708b4451a51bp+8 eta=0x1.86bf0ebcd57e4p+8 cassinian=0x1.a7f5245e5a2cfp+564 triangular=0x1.0000000000000p+0 alpha_pair_form=0x1.8708b4451a51ap+8',
    'inf:tiny-mid:yx': 'd(x)=0x1.0000000000000p-1 d(y)=0x1.3529ba7d19eafp-565 u=0x1.8821f2ecc521ep+8 j_tilde=0x1.877080d4cd501p+7 j=0x1.86bf0ebcd57e4p+8 delta=0x1.8708b4451a51ap+8 alpha=0x1.8708b4451a51bp+8 eta=0x1.86bf0ebcd57e4p+8 cassinian=0x1.a7f5245e5a2cfp+564 triangular=0x1.0000000000000p+0 alpha_pair_form=0x1.8708b4451a51ap+8',
    'inf:tiny-tiny:xy': 'd(x)=0x1.3529ba7d19eafp-565 d(y)=0x1.3529ba7d19eafp-565 u=0x1.c34366179d426p+0 j_tilde=0x1.c34366179d426p-1 j=0x1.c34366179d426p-1 delta=0x1.c34366179d426p-1 alpha=0x0.0p+0 eta=0x0.0p+0 cassinian=0x1.2bc8854f0c64bp+565 triangular=0x1.6a09e667f3bccp-1 alpha_pair_form=0x0.0p+0',
    'inf:tiny-tiny:yx': 'd(x)=0x1.3529ba7d19eafp-565 d(y)=0x1.3529ba7d19eafp-565 u=0x1.c34366179d426p+0 j_tilde=0x1.c34366179d426p-1 j=0x1.c34366179d426p-1 delta=0x1.c34366179d426p-1 alpha=0x0.0p+0 eta=0x0.0p+0 cassinian=0x1.2bc8854f0c64bp+565 triangular=0x1.6a09e667f3bccp-1 alpha_pair_form=0x0.0p+0',
    'inf:tiny-tiny2:xy': 'd(x)=0x1.3529ba7d19eafp-565 d(y)=0x1.3529ba7d19eafp-565 u=0x1.8821f2ecc521ep+9 j_tilde=0x1.8821f2ecc521ep+8 j=0x1.8821f2ecc521ep+8 delta=0x1.8821f2ecc521ep+9 alpha=0x1.8821f2ecc521ep+9 eta=0x1.8821f2ecc521ep+8 cassinian=0x1.a7f5245e5a2cfp+564 triangular=0x1.0000000000000p+0 alpha_pair_form=0x1.8821f2ecc521ep+9',
    'inf:tiny-tiny2:yx': 'd(x)=0x1.3529ba7d19eafp-565 d(y)=0x1.3529ba7d19eafp-565 u=0x1.8821f2ecc521ep+9 j_tilde=0x1.8821f2ecc521ep+8 j=0x1.8821f2ecc521ep+8 delta=0x1.8821f2ecc521ep+9 alpha=0x1.8821f2ecc521ep+9 eta=0x1.8821f2ecc521ep+8 cassinian=0x1.a7f5245e5a2cfp+564 triangular=0x1.0000000000000p+0 alpha_pair_form=0x1.8821f2ecc521ep+9',
    'inf:mid-tiny2:xy': 'd(x)=0x1.0000000000000p-1 d(y)=0x1.3529ba7d19eafp-565 u=0x1.8984d71cb4c57p+8 j_tilde=0x1.893b31946ff21p+7 j=0x1.87d84d64804e7p+8 delta=0x1.893b31946ff21p+8 alpha=0x1.893b31946ff21p+8 eta=0x1.87d84d64804e7p+8 cassinian=0x1.a7f5245e5a2cfp+564 triangular=0x1.0000000000000p+0 alpha_pair_form=0x1.893b31946ff21p+8',
    'inf:mid-tiny2:yx': 'd(x)=0x1.3529ba7d19eafp-565 d(y)=0x1.0000000000000p-1 u=0x1.8984d71cb4c57p+8 j_tilde=0x1.893b31946ff21p+7 j=0x1.87d84d64804e7p+8 delta=0x1.893b31946ff21p+8 alpha=0x1.893b31946ff21p+8 eta=0x1.87d84d64804e7p+8 cassinian=0x1.a7f5245e5a2cfp+564 triangular=0x1.0000000000000p+0 alpha_pair_form=0x1.893b31946ff21p+8',
    'inf:tiny-huge:xy': 'd(x)=0x1.3529ba7d19eafp-565 d(y)=0x1.4e718d7d7625ap+664 u=0x1.aaabe02cb9216p+9 j_tilde=0x1.aa532720bd388p+8 j=0x1.a9fa6e14c14fap+9 delta=0x1.a9fa6e14c14fap+9 alpha=0x1.a9fa6e14c14fap+9 eta=0x1.a9fa6e14c14fap+9 cassinian=0x1.a7f5245e5a2cep+564 triangular=0x1.0000000000000p+0 alpha_pair_form=0x1.a9fa6e14c14fap+9',
    'inf:tiny-huge:yx': 'd(x)=0x1.4e718d7d7625ap+664 d(y)=0x1.3529ba7d19eafp-565 u=0x1.aaabe02cb9216p+9 j_tilde=0x1.aa532720bd388p+8 j=0x1.a9fa6e14c14fap+9 delta=0x1.a9fa6e14c14fap+9 alpha=0x1.a9fa6e14c14fap+9 eta=0x1.a9fa6e14c14fap+9 cassinian=0x1.a7f5245e5a2cep+564 triangular=0x1.0000000000000p+0 alpha_pair_form=0x1.a9fa6e14c14fap+9',
    'inf:huge-mid:xy': 'd(x)=0x1.4e718d7d7625ap+664 d(y)=0x1.0000000000000p-1 u=0x1.ce98b19c9cc49p+8 j_tilde=0x1.cde73f84a4f2cp+7 j=0x1.cd35cd6cad20fp+8 delta=0x1.cd35cd6cad20fp+8 alpha=0x1.cd35cd6cad20fp+8 eta=0x1.cd35cd6cad20fp+8 cassinian=0x1.0000000000000p+1 triangular=0x1.0000000000000p+0 alpha_pair_form=0x1.cd35cd6cad20fp+8',
    'inf:huge-mid:yx': 'd(x)=0x1.0000000000000p-1 d(y)=0x1.4e718d7d7625ap+664 u=0x1.ce98b19c9cc49p+8 j_tilde=0x1.cde73f84a4f2cp+7 j=0x1.cd35cd6cad20fp+8 delta=0x1.cd35cd6cad20fp+8 alpha=0x1.cd35cd6cad20fp+8 eta=0x1.cd35cd6cad20fp+8 cassinian=0x1.0000000000000p+1 triangular=0x1.0000000000000p+0 alpha_pair_form=0x1.cd35cd6cad20fp+8',
    'inf:huge-huge:xy': 'd(x)=0x1.4e718d7d7625ap+664 d(y)=0x1.4e718d7d7625ap+664 u=0x1.c34366179d426p+0 j_tilde=0x1.c34366179d427p-1 j=0x1.c34366179d427p-1 delta=0x1.c34366179d427p-1 alpha=0x0.0p+0 eta=0x0.0p+0 cassinian=0x1.151f68876f411p-664 triangular=0x1.6a09e667f3bcdp-1 alpha_pair_form=0x0.0p+0',
    'inf:huge-huge:yx': 'd(x)=0x1.4e718d7d7625ap+664 d(y)=0x1.4e718d7d7625ap+664 u=0x1.c34366179d426p+0 j_tilde=0x1.c34366179d427p-1 j=0x1.c34366179d427p-1 delta=0x1.c34366179d427p-1 alpha=0x0.0p+0 eta=0x0.0p+0 cassinian=0x1.151f68876f411p-664 triangular=0x1.6a09e667f3bcdp-1 alpha_pair_form=0x0.0p+0',
    'noinf:tiny-mid:xy': 'd(x)=0x1.3529ba7d19eafp-565 d(y)=0x1.0000000000000p-1 u=0x1.8821f2ecc521ep+8 j_tilde=0x1.877080d4cd501p+7 j=0x1.86bf0ebcd57e4p+8 delta=0x1.8708b4451a51ap+8 alpha=0x1.8708b4451a51bp+8 eta=0x1.86bf0ebcd57e4p+8 cassinian=0x1.a7f5245e5a2cfp+564 triangular=0x1.0000000000000p+0 alpha_pair_form=0x1.8708b4451a51ap+8',
    'noinf:tiny-mid:yx': 'd(x)=0x1.0000000000000p-1 d(y)=0x1.3529ba7d19eafp-565 u=0x1.8821f2ecc521ep+8 j_tilde=0x1.877080d4cd501p+7 j=0x1.86bf0ebcd57e4p+8 delta=0x1.8708b4451a51ap+8 alpha=0x1.8708b4451a51bp+8 eta=0x1.86bf0ebcd57e4p+8 cassinian=0x1.a7f5245e5a2cfp+564 triangular=0x1.0000000000000p+0 alpha_pair_form=0x1.8708b4451a51ap+8',
    'noinf:tiny-tiny:xy': 'd(x)=0x1.3529ba7d19eafp-565 d(y)=0x1.3529ba7d19eafp-565 u=0x1.c34366179d426p+0 j_tilde=0x1.c34366179d426p-1 j=0x1.c34366179d426p-1 delta=0x1.c34366179d426p-1 alpha=0x0.0p+0 eta=0x0.0p+0 cassinian=0x1.2bc8854f0c64bp+565 triangular=0x1.6a09e667f3bccp-1 alpha_pair_form=0x0.0p+0',
    'noinf:tiny-tiny:yx': 'd(x)=0x1.3529ba7d19eafp-565 d(y)=0x1.3529ba7d19eafp-565 u=0x1.c34366179d426p+0 j_tilde=0x1.c34366179d426p-1 j=0x1.c34366179d426p-1 delta=0x1.c34366179d426p-1 alpha=0x0.0p+0 eta=0x0.0p+0 cassinian=0x1.2bc8854f0c64bp+565 triangular=0x1.6a09e667f3bccp-1 alpha_pair_form=0x0.0p+0',
    'noinf:tiny-tiny2:xy': 'd(x)=0x1.3529ba7d19eafp-565 d(y)=0x1.3529ba7d19eafp-565 u=0x1.8821f2ecc521ep+9 j_tilde=0x1.8821f2ecc521ep+8 j=0x1.8821f2ecc521ep+8 delta=0x1.8821f2ecc521ep+9 alpha=0x1.8821f2ecc521ep+9 eta=0x1.8821f2ecc521ep+8 cassinian=0x1.a7f5245e5a2cfp+564 triangular=0x1.0000000000000p+0 alpha_pair_form=0x1.8821f2ecc521ep+9',
    'noinf:tiny-tiny2:yx': 'd(x)=0x1.3529ba7d19eafp-565 d(y)=0x1.3529ba7d19eafp-565 u=0x1.8821f2ecc521ep+9 j_tilde=0x1.8821f2ecc521ep+8 j=0x1.8821f2ecc521ep+8 delta=0x1.8821f2ecc521ep+9 alpha=0x1.8821f2ecc521ep+9 eta=0x1.8821f2ecc521ep+8 cassinian=0x1.a7f5245e5a2cfp+564 triangular=0x1.0000000000000p+0 alpha_pair_form=0x1.8821f2ecc521ep+9',
    'noinf:mid-tiny2:xy': 'd(x)=0x1.0000000000000p-1 d(y)=0x1.3529ba7d19eafp-565 u=0x1.8984d71cb4c57p+8 j_tilde=0x1.893b31946ff21p+7 j=0x1.87d84d64804e7p+8 delta=0x1.893b31946ff21p+8 alpha=0x1.893b31946ff21p+8 eta=0x1.87d84d64804e7p+8 cassinian=0x1.a7f5245e5a2cfp+564 triangular=0x1.0000000000000p+0 alpha_pair_form=0x1.893b31946ff21p+8',
    'noinf:mid-tiny2:yx': 'd(x)=0x1.3529ba7d19eafp-565 d(y)=0x1.0000000000000p-1 u=0x1.8984d71cb4c57p+8 j_tilde=0x1.893b31946ff21p+7 j=0x1.87d84d64804e7p+8 delta=0x1.893b31946ff21p+8 alpha=0x1.893b31946ff21p+8 eta=0x1.87d84d64804e7p+8 cassinian=0x1.a7f5245e5a2cfp+564 triangular=0x1.0000000000000p+0 alpha_pair_form=0x1.893b31946ff21p+8',
    'noinf:tiny-huge:xy': 'd(x)=0x1.3529ba7d19eafp-565 d(y)=0x1.4e718d7d7625ap+664 u=0x1.aaabe02cb9216p+9 j_tilde=0x1.aa532720bd388p+8 j=0x1.a9fa6e14c14fap+9 delta=0x1.88973bf088a56p+8 alpha=0x1.88973bf088a57p+8 eta=0x1.a9fa6e14c14fap+9 cassinian=0x1.a7f5245e5a2cep+564 triangular=0x1.0000000000000p+0 alpha_pair_form=0x1.88973bf088a56p+8',
    'noinf:tiny-huge:yx': 'd(x)=0x1.4e718d7d7625ap+664 d(y)=0x1.3529ba7d19eafp-565 u=0x1.aaabe02cb9216p+9 j_tilde=0x1.aa532720bd388p+8 j=0x1.a9fa6e14c14fap+9 delta=0x1.88973bf088a56p+8 alpha=0x1.88973bf088a57p+8 eta=0x1.a9fa6e14c14fap+9 cassinian=0x1.a7f5245e5a2cep+564 triangular=0x1.0000000000000p+0 alpha_pair_form=0x1.88973bf088a56p+8',
    'noinf:huge-mid:xy': 'd(x)=0x1.4e718d7d7625ap+664 d(y)=0x1.0000000000000p-1 u=0x1.ce98b19c9cc49p+8 j_tilde=0x1.cde73f84a4f2cp+7 j=0x1.cd35cd6cad20fp+8 delta=0x1.fdc168da0ae7bp+0 alpha=0x1.db565458ead00p+0 eta=0x1.cd35cd6cad20fp+8 cassinian=0x1.0000000000000p+1 triangular=0x1.0000000000000p+0 alpha_pair_form=0x1.db565458eac4ep+0',
    'noinf:huge-mid:yx': 'd(x)=0x1.0000000000000p-1 d(y)=0x1.4e718d7d7625ap+664 u=0x1.ce98b19c9cc49p+8 j_tilde=0x1.cde73f84a4f2cp+7 j=0x1.cd35cd6cad20fp+8 delta=0x1.fdc168da0ae7bp+0 alpha=0x1.db565458ead00p+0 eta=0x1.cd35cd6cad20fp+8 cassinian=0x1.0000000000000p+1 triangular=0x1.0000000000000p+0 alpha_pair_form=0x1.db565458eac4ep+0',
    'noinf:huge-huge:xy': 'd(x)=0x1.4e718d7d7625ap+664 d(y)=0x1.4e718d7d7625ap+664 u=0x1.c34366179d426p+0 j_tilde=0x1.c34366179d427p-1 j=0x1.c34366179d427p-1 delta=0x1.03397b6097f67p-662 alpha=0x0.0p+0 eta=0x0.0p+0 cassinian=0x1.151f68876f411p-664 triangular=0x1.6a09e667f3bcdp-1 alpha_pair_form=0x0.0p+0',
    'noinf:huge-huge:yx': 'd(x)=0x1.4e718d7d7625ap+664 d(y)=0x1.4e718d7d7625ap+664 u=0x1.c34366179d426p+0 j_tilde=0x1.c34366179d427p-1 j=0x1.c34366179d427p-1 delta=0x1.03397b6097f67p-662 alpha=0x0.0p+0 eta=0x0.0p+0 cassinian=0x1.151f68876f411p-664 triangular=0x1.6a09e667f3bcdp-1 alpha_pair_form=0x0.0p+0',
}


def test_degenerate_finite_complement_outcomes_are_pinned():
    # every value is finite: at tiny-huge, where a distance ratio of about
    # 1e370 leaves the float range, j, j_tilde, eta and alpha take its log
    # as a difference of logs
    assert degenerate_outcomes() == DEGENERATE_OUTCOMES


def test_built_samples_keep_every_bit():
    assert _digest(sample_lines()) == SAMPLE_DIGEST


def test_finite_complement_values_keep_every_bit():
    assert _digest(fc_metric_lines()) == FC_METRIC_DIGEST


def test_ball_and_half_space_values_keep_every_bit():
    assert _digest(bh_metric_lines()) == BH_METRIC_DIGEST


def test_ball_root_solve_keeps_every_bit():
    assert _digest(ball_solver_lines()) == BALL_SOLVER_DIGEST
