"""Bit-identity fixture of the sampler and the finite-complement metrics.

Two SHA-256 digests over ``float.hex`` of every value:

- the samples ``_build_sample`` builds for every sampled catalog case at
  seed 42, samples 0..99 of each domain (x, y, z, f(x), f(y), the map's
  repr and the image domain's removed points);
- ``evaluate_metric`` for every evaluable metric, ``alpha_pair_form``,
  ``distance_to_boundary`` and the distance vectors on finite
  complements, at sampler pairs, at pairs in clouds of radius 1e-6 around
  the punctures and at far points 1e3 to 1e6 away.

A change that moves any draw or any value by one ulp changes a digest.
The digests are never updated to absorb a diff: an intended numerical
change is a golden-report change, reviewed as such.
"""

import hashlib

import numpy as np

from hypmetrics.geometry import FiniteComplement, distance_to_boundary
from hypmetrics.metrics import alpha_pair_form, evaluable_metrics, evaluate_metric
from hypmetrics.suite import _build_sample, _stream, catalog, sample_pair

SAMPLES_PER_DOMAIN = 100

SAMPLE_DIGEST = "b7d06ac4eeb1666753166cf61a90c09786584fe3716cab8c884393f3fd9d4bd2"
FC_METRIC_DIGEST = "4a5d852317906f19b5fe5db0c7d54f19582ae67508be83af217f2d7ece496a9e"


def _hex(values) -> str:
    return ",".join(float(v).hex() for v in np.asarray(values, dtype=float).ravel().tolist())


def sample_lines():
    """One line per built sample, in catalog order."""
    for case in catalog().cases:
        if case.sampler == "grid":
            continue
        for i, domain in enumerate(case.domains):
            for k in range(i * SAMPLES_PER_DOMAIN, (i + 1) * SAMPLES_PER_DOMAIN):
                smp = _build_sample(case, domain, _stream(42, case.case_id, k))
                parts = [case.case_id, str(k)]
                for v in (smp.x, smp.y, smp.z, smp.fx, smp.fy):
                    parts.append("-" if v is None else _hex(v))
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
        yield sample_pair(domain, rng)
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
        yield repr(domain) + "|" + _hex(domain.distances(domain.removed))
        for x, y in _fc_pairs(domain, rng):
            parts = [_hex(x), _hex(y), _hex(domain.distances(x)), _hex(domain.distances(y))]
            parts += [distance_to_boundary(domain, x).hex(), distance_to_boundary(domain, y).hex()]
            for metric in evaluable_metrics(domain):
                try:
                    parts.append(evaluate_metric(domain, metric, x, y).hex())
                except ValueError as exc:
                    parts.append(type(exc).__name__)
            parts.append(alpha_pair_form(domain, x, y).hex())
            yield "|".join(parts)


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def test_built_samples_keep_every_bit():
    assert _digest(sample_lines()) == SAMPLE_DIGEST


def test_finite_complement_values_keep_every_bit():
    assert _digest(fc_metric_lines()) == FC_METRIC_DIGEST
