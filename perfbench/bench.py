"""Workloads of the hypmetrics benchmark, their timed loops and checks.

The package is driven only through its public entry points:
``hypmetrics.cli.main`` for ``verify`` and ``evaluate_metric`` and
``run_probe`` for the scalar API.  All inputs (case lists, sample counts,
per-round seeds and evaluation points) come from the workload seed.

Workloads:

- ``verify_closed``: ``verify`` over every catalog case that never calls
  ``boundary_sup``.  Sampling, validation, the closed forms,
  finite-complement delta and the Mobius maps do the work; the supremum
  engine does none, so a supremum-engine change predicts no change here.
- ``verify_sup``: ``verify`` over every other case.  ``boundary_sup`` and
  golden refinement take about half the time, and only here does the
  recheck pass fire (T-ALJ borderline hits).  The two verify workloads
  together are the whole catalog.
- ``eval_scalar``: a closed loop with one caller making pre-generated
  ``evaluate_metric`` calls over every evaluable (metric, domain) pair of
  the four catalog domains, plus one pass of all probes per round.  Same
  metric layers one call at a time, no sampling and no recheck: a batched
  engine that slows a batch of one shows here.

A verify round runs ``verify --case ID`` once for each case of the
workload at the round's seed; a run cycles through ``VERIFY_SEEDS``
rounds, so every op (one case at one seed) is repeated.  An
``eval_scalar`` round is one pass over all its calls.  Each op's latency
is the median over its repeats, which keeps interference from other
processes out of the percentiles; ``ops_per_s`` is the median over rounds.
"""

from __future__ import annotations

import io
import json
import math
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field

import numpy as np

from hypmetrics import FiniteComplement, UnitBall, UpperHalfSpace, evaluable_metrics, evaluate_metric
from hypmetrics.cli import main
from hypmetrics.suite import catalog, parse_report, run_probe

import oracle
from tracing import Tracer

CLOSED_CASES = (
    "AX-U", "AX-JT", "AX-J", "AX-DELTA",
    "T-Z1-B", "T-Z1-H", "T-C-B", "T-C-H", "T-O3", "T-O3-EQ", "T-O4", "T-JS",
    "T-EQU2-B", "T-32-B", "T-35-H", "T-JG", "T-JG4", "T-HG", "T-HG-COR",
    "T-JG6", "T-EQU13", "T-ETA-DOM",
    "M1-FC", "M1-BALL", "M1-HB", "M2-BALL", "M3-HH", "M3-HB",
)
SUP_CASES = (
    "AX-ETA", "AX-C", "AX-S", "AX-ALPHA",
    "T-ALJ", "T-PAH", "T-L3", "T-EQU14", "T-JG7", "T-JG8",
    "T-ALPHA-U", "T-ALPHA-U-CONVEX", "T-ALPHA-FORMS", "T-EQU12", "T-EQU12-DOM", "T-S",
)
WORKLOADS = ("verify_closed", "verify_sup", "eval_scalar")

# T-ALJ states alpha <= j on convex domains, which is false (on the ball
# alpha equals rho >= j); ROADMAP keeps it in the catalog as a deliberate,
# visible failure.  Every other case must pass.
EXPECTED_CASE_FAILURES = frozenset({"T-ALJ"})

SAMPLES_PER_CASE = 20
VERIFY_SEEDS = 24
POINTS_PER_PAIR = 40
WARMUP_SAMPLES = 2


def partition_failures() -> list[str]:
    """The two verify workloads must split the catalog exactly."""
    ids = {c.case_id for c in catalog().cases}
    closed, sup = set(CLOSED_CASES), set(SUP_CASES)
    out = []
    if closed & sup:
        out.append(f"cases in both verify workloads: {sorted(closed & sup)}")
    if closed | sup != ids:
        out.append(
            f"verify workloads do not cover the catalog: missing {sorted(ids - closed - sup)}, "
            f"unknown {sorted((closed | sup) - ids)}"
        )
    return out


@dataclass
class Checks:
    attempted: int = 0
    failures: list = field(default_factory=list)

    def add(self, problems) -> None:
        """One check; ``problems`` is a message, a list of them, or empty."""
        self.attempted += 1
        if isinstance(problems, str):
            problems = [problems]
        if problems:
            self.failures.append("; ".join(problems))


def round_seeds(seed: int):
    rng = np.random.default_rng([seed, 0])
    while True:
        yield int(rng.integers(0, 2**31 - 1))


def cases_of(workload: str) -> tuple[str, ...]:
    return CLOSED_CASES if workload == "verify_closed" else SUP_CASES


# ---------------------------------------------------------------------------
# verify workloads


def verify_round(cases, seed: int, samples: int, latencies_ns: list | None = None):
    """Run ``verify --case ID`` for every case; returns [(id, code, text)],
    the code None and the text a traceback where the job raised."""
    out = []
    clock = time.perf_counter_ns
    for cid in cases:
        buf = io.StringIO()
        start = clock()
        try:
            with redirect_stdout(buf):
                code = main(["verify", "--case", cid, "--samples", str(samples), "--seed", str(seed)])
        except Exception:
            code, text = None, traceback.format_exc()
        else:
            text = buf.getvalue()
        if latencies_ns is not None:
            latencies_ns.append(clock() - start)
        out.append((cid, code, text))
    return out


def verdict_problems(cid: str, code, text: str, samples: int) -> list[str]:
    """The case passes, except T-ALJ, which must report violations; the
    record has the requested sample count; the exit code matches."""
    if code is None:
        return [f"{cid}: verify raised\n{text}"]
    try:
        records = parse_report(text)
    except ValueError as exc:
        return [f"{cid}: unparsable report ({exc})"]
    if not isinstance(records, list) or len(records) != 1 or records[0]["case_id"] != cid:
        return [f"{cid}: report does not hold exactly this case"]
    rec = records[0]
    out = []
    if rec["samples"] != samples:
        out.append(f"{cid}: {rec['samples']} samples, requested {samples}")
    if cid in EXPECTED_CASE_FAILURES:
        if rec["pass"] or not rec["violations"] > 0:
            out.append(f"{cid}: expected violations, got pass={rec['pass']} violations={rec['violations']}")
    elif not rec["pass"]:
        out.append(f"{cid}: failed with {rec['violations']} violations")
    if code != (0 if rec["pass"] else 1):
        out.append(f"{cid}: exit code {code} for pass={rec['pass']}")
    return out


def stripped(text: str):
    """A report with its timings removed, for reproducibility comparisons."""
    try:
        records = json.loads(text)
    except ValueError:
        return text
    for rec in records if isinstance(records, list) else [records]:
        if isinstance(rec, dict):
            rec.pop("wall_time", None)
    return records


def determinism_problems(reference, again) -> list[str]:
    """Reports of two runs of one verify round must agree but for timings."""
    return [
        f"{cid}: report differs between runs at the same seed"
        for (cid, _, a), (_, _, b) in zip(reference, again)
        if stripped(a) != stripped(b)
    ]


# ---------------------------------------------------------------------------
# eval_scalar workload

def catalog_domains():
    """The four domains the catalog samples most: ball, half-space, space
    punctured at e1, and space punctured at three points."""
    return (
        UnitBall(3),
        UpperHalfSpace(3),
        FiniteComplement(3, [[1.0, 0.0, 0.0]]),
        FiniteComplement(3, [[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 3.0, 1.0]]),
    )


def _direction(rng) -> np.ndarray:
    while True:
        g = rng.standard_normal(3)
        n = float(np.linalg.norm(g))
        if n > 1e-12:
            return g / n


def draw_point(domain, rng) -> np.ndarray:
    """Interior point in the regimes the sampler stresses: radius up to
    1-1e-6 on the ball, heights 1e-6..1e6 on the half-space, clouds down
    to sigma 1e-6 around punctures and far points."""
    if isinstance(domain, UnitBall):
        if rng.random() < 0.5:
            radius = rng.random() ** (1.0 / 3.0)
        else:
            radius = 1.0 - 10.0 ** (-float(rng.integers(1, 7)))
        return radius * _direction(rng)
    if isinstance(domain, UpperHalfSpace):
        return np.array([2.0 * rng.standard_normal(), 2.0 * rng.standard_normal(), 10.0 ** rng.uniform(-6.0, 6.0)])
    removed = np.array(domain.removed)
    while True:
        if rng.random() < 0.7:
            center = removed[int(rng.integers(len(removed)))]
            p = center + 10.0 ** rng.uniform(-6.0, 0.5) * rng.standard_normal(3)
        else:
            p = removed.mean(axis=0) + (5.0 + 45.0 * rng.random()) * _direction(rng)
        if all(not np.array_equal(p, q) for q in removed):
            return p


@dataclass(frozen=True)
class ScalarInputs:
    domains: tuple
    pairs: tuple  # per domain: tuple of (x, y)
    calls: tuple  # (domain index, metric name, pair index), in loop order


def scalar_inputs(seed: int, points_per_pair: int = POINTS_PER_PAIR) -> ScalarInputs:
    rng = np.random.default_rng([seed, 1])
    domains = catalog_domains()
    pairs = []
    calls = []
    for di, dom in enumerate(domains):
        pts = []
        while len(pts) < points_per_pair:
            x, y = draw_point(dom, rng), draw_point(dom, rng)
            if not np.array_equal(x, y):
                pts.append((x, y))
        pairs.append(tuple(pts))
        for m in evaluable_metrics(dom):
            calls.extend((di, m.value, k) for k in range(points_per_pair))
    order = rng.permutation(len(calls))
    return ScalarInputs(domains, tuple(pairs), tuple(calls[i] for i in order))


def scalar_pass(inp: ScalarInputs, latencies_ns: list | None = None, tracer: Tracer | None = None):
    """One closed-loop pass over every call; returns the values (an
    exception in place of a value when a call raises)."""
    values = []
    clock = time.perf_counter_ns
    domains, pairs = inp.domains, inp.pairs
    for i, (di, name, k) in enumerate(inp.calls):
        x, y = pairs[di][k]
        if tracer is not None:
            tracer.op = i
        start = clock()
        try:
            v = evaluate_metric(domains[di], name, x, y)
        except Exception as exc:
            v = exc
        if latencies_ns is not None:
            latencies_ns.append(clock() - start)
        values.append(v)
    return values


def probe_pass(tracer: Tracer | None = None):
    results = []
    for p in catalog().probes:
        if tracer is not None:
            tracer.op = ("probe", p.probe_id)
        results.append(run_probe(p))
    return results


def check_values(checks: Checks, inp: ScalarInputs, values) -> None:
    """Oracle check of every distinct call, plus identities per pair."""
    by_pair: dict = {}
    for (di, name, k), v in zip(inp.calls, values):
        dom = inp.domains[di]
        x, y = inp.pairs[di][k]
        if isinstance(v, Exception):
            checks.add(f"{name} on {dom!r} raised {v!r}")
            continue
        checks.add(oracle.check_value(dom, name, x, y, v))
        by_pair.setdefault((di, k), {})[name] = v
    for (di, k), vals in sorted(by_pair.items()):
        if len(vals) == len(evaluable_metrics(inp.domains[di])):
            checks.add(oracle.check_identities(inp.domains[di], vals))
        else:
            checks.add(f"pair {k} on {inp.domains[di]!r}: identities not checked, a call raised")


def probe_signature(results):
    return [(r.probe_id, r.passed, r.estimates) for r in results]


def same_values(a, b) -> bool:
    """Equal call by call; exceptions compare by their text."""
    return len(a) == len(b) and all(
        (repr(u) == repr(v)) if isinstance(u, Exception) or isinstance(v, Exception) else u == v
        for u, v in zip(a, b)
    )


# ---------------------------------------------------------------------------
# machine-speed calibration and statistics

# The kernel's time on a quiet 2-core x86_64 machine under CPython 3.11
# and numpy 2.4; measured times are reported at this speed.
CALIBRATION_NOMINAL_S = 0.013
_CAL_POINT = np.array([0.3, -0.2, 0.5])


def calibration_s() -> float:
    """Time of a fixed kernel doing the package's kind of work (interpreted
    calls into small numpy and math operations) without hypmetrics.

    Shared machines drift in speed by a third over seconds.  The kernel is
    timed around every measured unit of work, and each measured time is
    multiplied by ``CALIBRATION_NOMINAL_S`` over the kernel's mean time
    around it, which cancels most of the drift.  A change to hypmetrics
    cannot move the kernel.
    """
    start = time.perf_counter()
    s = 0.0
    for i in range(2000):
        v = np.asarray(_CAL_POINT, dtype=float)
        if np.all(np.isfinite(v)):
            s += math.log1p(math.sqrt(float(np.dot(v, v))) + i)
    return time.perf_counter() - start


def speed_factor(before: float, after: float) -> float:
    """Multiplier taking a time measured between two kernel timings to
    the nominal machine speed."""
    return CALIBRATION_NOMINAL_S / (0.5 * (before + after))



def percentile(sorted_values, p: float):
    """Nearest-rank percentile of an ascending list."""
    idx = max(0, math.ceil(p / 100.0 * len(sorted_values)) - 1)
    return sorted_values[idx]


def tail_percentile(n: int, wanted: float = 99.0, beyond: int = 10) -> float:
    """The highest whole percentile, at most ``wanted``, that leaves at
    least ``beyond`` of ``n`` samples above it (50 when none does)."""
    p = wanted
    while p > 50.0 and n - math.ceil(p / 100.0 * n) < beyond:
        p -= 1.0
    return p


# ---------------------------------------------------------------------------
# traced-run invariants

# layers that must do work on a workload, and layers that must do none;
# the metric layers catch wrappers installed after the catalog was bound
BUSY_LAYERS = {
    "verify_closed": ("suite.stream", "geometry.validation", "metrics.closed"),
    "verify_sup": ("suite.stream", "geometry.boundary_sup", "metrics.sup"),
    "eval_scalar": ("geometry.validation", "metrics.closed", "metrics.sup"),
}
IDLE_LAYERS = {
    "verify_closed": ("geometry.boundary_sup",),
    "verify_sup": (),
    "eval_scalar": ("suite.stream",),
}


def layer_problems(workload: str, calls: dict) -> list[str]:
    """A layer with no calls where it should do the work, or with calls
    where it should do none, means the tracing or the workload split is
    wrong.  Every sampled case evaluates metrics, most of them several per
    sample, so fewer metric calls than samples means the catalog was
    bound before the wrappers went in."""
    out = [f"{name}: 0 calls on {workload}" for name in BUSY_LAYERS[workload] if calls[name] == 0]
    out += [f"{name}: {calls[name]} calls on {workload}, expected 0" for name in IDLE_LAYERS[workload] if calls[name]]
    metric_calls = calls["metrics.closed"] + calls["metrics.sup"] + calls["metrics.delta_fc"]
    if metric_calls < calls["suite.stream"]:
        out.append(f"{metric_calls} metric calls for {calls['suite.stream']} samples on {workload}")
    return out
