"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

They fail when the verify workloads stop splitting the catalog, when a
traced run leaves a layer idle on the workload built to exercise it (or
busy where it must do nothing), or when the declared metrics drift from
what the runs report.
"""

import json
import math

import numpy as np
import pytest

import run

run.bootstrap()

import bench  # noqa: E402
import oracle  # noqa: E402
from tracing import LAYER_METRICS, Tracer  # noqa: E402

SEED = 20240607


def test_verify_workloads_partition_the_catalog():
    assert bench.partition_failures() == []


def _traced(workload):
    tracer = Tracer()
    tracer.install()
    try:
        if workload == "eval_scalar":
            inp = bench.scalar_inputs(SEED, points_per_pair=2)
            out = bench.scalar_pass(inp, tracer=tracer), bench.probe_signature(bench.probe_pass(tracer))
        else:
            out = bench.verify_round(bench.cases_of(workload), SEED, 3)
    finally:
        tracer.uninstall()
    return tracer, out


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_traced_run_puts_the_work_in_the_expected_layers(workload):
    tracer, _ = _traced(workload)
    assert bench.layer_problems(workload, tracer.calls) == []


@pytest.mark.parametrize("workload", ["verify_closed", "verify_sup"])
def test_tracing_does_not_change_reports(workload):
    _, traced = _traced(workload)
    for cid, code, text in traced:
        assert bench.verdict_problems(cid, code, text, 3) == []
    assert bench.determinism_problems(bench.verify_round(bench.cases_of(workload), SEED, 3), traced) == []


def test_uninstall_restores_the_package():
    from hypmetrics import geometry, metrics, suite

    before = (geometry.as_point, metrics.boundary_sup, dict(metrics._DISPATCH), suite.check_case)
    _traced("verify_closed")
    after = (geometry.as_point, metrics.boundary_sup, dict(metrics._DISPATCH), suite.check_case)
    assert before == after


def test_declared_metrics_match_the_reported_ones():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    assert [m["name"] for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in declared["per_layer"]] == list(LAYER_METRICS)
    assert [w["name"] for w in declared["workloads"]] == list(bench.WORKLOADS)
    tracer, _ = _traced("verify_sup")
    assert set(tracer.layer_metrics()) | {"trace.overhead_ratio"} == set(LAYER_METRICS)


def test_oracle_accepts_the_package_and_rejects_perturbed_values():
    inp = bench.scalar_inputs(SEED, points_per_pair=3)
    values = bench.scalar_pass(inp)
    checks = bench.Checks()
    bench.check_values(checks, inp, values)
    assert checks.failures == [] and checks.attempted > len(values)
    for (di, name, k), v in zip(inp.calls, values):
        x, y = inp.pairs[di][k]
        dom = inp.domains[di]
        if name in oracle.SUP_METRICS:
            worse = v - 1e-6 * max(abs(v), 1.0)
        else:
            worse = v * (1.0 + 1e-6) + 1e-9
        assert oracle.check_value(dom, name, x, y, worse) is not None, (name, dom)


def test_sup_scan_is_tight_where_the_supremum_is_known():
    # on the ball the one-point suprema at a symmetric pair sit at the
    # boundary projections, so the scan must reach them to rounding
    ball = bench.catalog_domains()[0]
    x = np.array([0.5, 0.0, 0.0])
    y = -x
    assert math.isclose(oracle.sup_lower_bound(ball, "eta", x, y), math.log(3.0), rel_tol=1e-12)
    assert math.isclose(oracle.sup_lower_bound(ball, "cassinian", x, y), 1.0 / 0.75, rel_tol=1e-12)


def test_probe_reference_matches_the_probes():
    ref = oracle.probe_reference()
    results = bench.probe_pass()
    assert sorted(ref) == sorted(r.probe_id for r in results)
    for r in results:
        assert oracle.check_probe(r.probe_id, r.passed, r.estimates, ref) == []


def test_tail_percentile_keeps_ten_samples_beyond():
    assert bench.tail_percentile(5000) == 99.0
    p = bench.tail_percentile(400)
    assert 400 - math.ceil(p / 100.0 * 400) >= 10
    assert 400 - math.ceil((p + 1.0) / 100.0 * 400) < 10
