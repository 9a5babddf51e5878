"""Tests for the verification suite: sampling, case running, probes, reports."""

import hashlib
import itertools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import hypmetrics.geometry as geo
from hypmetrics.geometry import FiniteComplement, ParameterError, UnitBall, UpperHalfSpace
from hypmetrics.suite import (
    ConfigurationError,
    DEFAULT_SEED,
    InequalityCase,
    SharpnessProbe,
    ScheduleError,
    _equal_distance_pair,
    _stream,
    catalog,
    check_case,
    parse_report,
    records_to_csv,
    records_to_json,
    records_to_text,
    run_probe,
    sample_pair,
    sample_point,
)

BALL = UnitBall(3)
HALF = UpperHalfSpace(3)
PUNCT = FiniteComplement(3, [np.array([1.0, 0.0, 0.0])])


class TestSampling:
    def test_stream_is_deterministic(self):
        a = _stream(42, "CASE", 7).random(4)
        b = _stream(42, "CASE", 7).random(4)
        assert np.array_equal(a, b)

    def test_stream_separates_indices_and_cases(self):
        a = _stream(42, "CASE", 0).random()
        b = _stream(42, "CASE", 1).random()
        c = _stream(42, "OTHER", 0).random()
        d = _stream(43, "CASE", 0).random()
        assert len({a, b, c, d}) == 4

    @staticmethod
    def _draws(rng):
        # every draw kind the sampler makes, and a closing int32 draw that
        # leaves half a word cached (has_uint32 = 1) for the next stream
        return [
            rng.random(),
            int(rng.integers(3)),
            int(rng.integers(1, 7)),
            rng.uniform(-6.0, 0.5),
            rng.standard_normal(5).tolist(),
            rng.random(3).tolist(),
            int(rng.integers(0, 2**31 - 1, dtype=np.int32)),
        ]

    def test_stream_matches_a_fresh_philox(self):
        # consecutive streams share one generator; each must start from
        # counter 0 with empty buffers whatever the previous one left
        grid = itertools.product((0, 42, 2**40 + 3), ("AX-J", "T-ALJ", "P5"), (0, 1, 9999))
        for seed, case_id, k in grid:
            rng = _stream(seed, case_id, k)
            got = self._draws(rng)
            assert rng.bit_generator.state["has_uint32"] == 1
            digest = hashlib.sha256(f"{seed}:{case_id}:{k}".encode()).digest()
            key = np.frombuffer(digest[:16], dtype=np.uint64)
            assert got == self._draws(np.random.Generator(np.random.Philox(key=key)))

    def test_catalog_leaves_numpy_random_unloaded(self):
        # loading numpy.random takes 12-14 ms, which the import and the
        # catalog never need; the generator is built on the first stream
        code = "import sys, hypmetrics; hypmetrics.catalog(); print('numpy.random' in sys.modules)"
        src = os.path.dirname(os.path.dirname(geo.__file__))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        assert out.stdout.strip() == "False"

    @pytest.mark.parametrize("domain", [BALL, HALF, PUNCT])
    def test_sample_point_membership(self, domain):
        for k in range(300):
            p = sample_point(domain, _stream(1, "pt", k))
            assert domain.contains(p)

    def test_sample_pair_distinct(self):
        for k in range(100):
            x, y = sample_pair(BALL, _stream(2, "pair", k))
            assert not np.array_equal(x, y)

    @pytest.mark.parametrize("domain", [BALL, PUNCT])
    def test_equal_distance_pair_is_bitwise_equal(self, domain):
        hits = 0
        for k in range(200):
            x, y = _equal_distance_pair(domain, _stream(3, "eq", k))
            dx = domain.distance_to_boundary(x)
            dy = domain.distance_to_boundary(y)
            if dx == dy:
                hits += 1
        # the sign-flip construction succeeds nearly always; the rare
        # fallback draw is allowed to differ
        assert hits >= 195


class TestCatalog:
    def test_ids_are_unique(self):
        cat = catalog()
        ids = [c.case_id for c in cat.cases] + [p.probe_id for p in cat.probes]
        assert len(ids) == len(set(ids))

    def test_lookup(self):
        cat = catalog()
        assert cat.case("AX-U").case_id == "AX-U"
        assert cat.probe("P6").probe_id == "P6"
        with pytest.raises(KeyError):
            cat.case("NOPE")
        with pytest.raises(KeyError):
            cat.probe("NOPE")

    def test_every_case_runs_end_to_end(self):
        cat = catalog()
        for case in cat.cases:
            rec = check_case(case, n_samples=8, seed=42).record()
            assert rec["samples"] == 8
            assert "engine" not in rec

    def test_every_probe_has_a_workable_schedule(self):
        cat = catalog()
        for probe in cat.probes:
            assert len(probe.schedule) >= 4
            res = run_probe(probe)
            assert len(res.estimates) == len(probe.schedule)


class TestCheckCase:
    def test_parameter_validation(self):
        case = catalog().case("AX-U")
        with pytest.raises(ParameterError):
            check_case(case, n_samples=0)
        for slack in (-1e-9, math.nan, math.inf):
            with pytest.raises(ParameterError):
                check_case(case, slack=slack)

    def test_grid_case_takes_no_domain(self):
        case = catalog().case("T-ETA-DOM")
        rec = check_case(case, n_samples=64)
        assert rec.violations == 0

    def test_deterministic_records(self):
        case = catalog().case("T-JS")
        r1 = check_case(case, n_samples=40, seed=11).record()
        r2 = check_case(case, n_samples=40, seed=11).record()
        r1.pop("wall_time")
        r2.pop("wall_time")
        assert r1 == r2

    def test_violations_are_counted_and_capped(self):
        rigged = InequalityCase(
            case_id="RIG-FAIL",
            paper_ref="none",
            formula="2 <= 1",
            domains=(BALL,),
            evaluate=lambda domain, smp: (2.0, 1.0),
        )
        rec = check_case(rigged, n_samples=25, seed=1)
        assert rec.violations == 25
        assert not rec.passed
        assert len(rec.violation_samples) == 10
        assert rec.max_slack == pytest.approx(1.0)
        summary = rec.violation_samples[0]
        assert summary["lhs"] == 2.0 and summary["rhs"] == 1.0

    def test_borderline_hits_are_evaluated_once(self):
        # a hit just past the slack is counted on its first evaluation
        seen = []

        def evaluate(domain, smp):
            seen.append(smp.x.tolist())
            return 1.0 + 1e-6, 1.0

        rigged = InequalityCase(
            case_id="RIG-BORDER",
            paper_ref="none",
            formula="barely",
            domains=(BALL,),
            evaluate=evaluate,
        )
        rec = check_case(rigged, n_samples=3, seed=1)
        assert len(seen) == 3 and len(set(map(tuple, seen))) == 3
        assert rec.violations == 3

    def test_gross_violations_skip_the_recheck(self):
        # no violation is ever re-evaluated: one call per sample, all counted
        seen = []

        def evaluate(domain, smp):
            seen.append(smp.x.tolist())
            return 5.0, 1.0

        rigged = InequalityCase(
            case_id="RIG-GROSS",
            paper_ref="none",
            formula="grossly",
            domains=(BALL,),
            evaluate=evaluate,
        )
        rec = check_case(rigged, n_samples=3, seed=1)
        assert len(seen) == 3 and len(set(map(tuple, seen))) == 3
        assert rec.violations == 3
        assert rec.max_slack == pytest.approx(4.0)

    def test_vacuous_comparisons_do_not_enter_max_slack(self):
        rigged = InequalityCase(
            case_id="RIG-VACUOUS",
            paper_ref="none",
            formula="n/a",
            domains=(BALL,),
            evaluate=lambda domain, smp: (1.0, math.inf),
        )
        rec = check_case(rigged, n_samples=5, seed=1)
        assert rec.violations == 0 and rec.max_slack is None
        assert rec.record()["max_slack"] is None

    def test_known_counterexample_case_reports_violations(self):
        # alpha exceeds j on the ball, so this case must flag samples
        rec = check_case(catalog().case("T-ALJ"), n_samples=50, seed=42)
        assert rec.violations > 0 and not rec.passed

    def test_axioms_pass_on_small_runs(self):
        for cid in ("AX-U", "AX-J", "AX-DELTA", "AX-ETA"):
            rec = check_case(catalog().case(cid), n_samples=24, seed=42)
            assert rec.passed, cid


class TestRunProbe:
    def test_schedule_needs_four_points(self):
        probe = catalog().probe("P2")
        with pytest.raises(ParameterError):
            run_probe(probe, schedule_overrides=(0.1, 0.01, 0.001))

    def test_out_of_domain_schedule_is_reported(self):
        # t = 1 puts the family right on the removed point
        probe = catalog().probe("P4")
        with pytest.raises(ScheduleError):
            run_probe(probe, schedule_overrides=(0.5, 0.9, 0.99, 1.0))

    def test_exact_identity_probe(self):
        res = run_probe(catalog().probe("P6"))
        assert res.final_deviation == 0.0 and res.monotone and res.passed

    def test_vertical_ray_probe_converges(self):
        res = run_probe(catalog().probe("P2"))
        assert res.final_deviation < 1e-5
        assert res.passed

    def test_small_argument_probe_converges(self):
        res = run_probe(catalog().probe("P3"))
        assert res.final_deviation < 1e-3
        assert res.passed

    def test_noise_floor_counts_as_converged(self):
        probe = SharpnessProbe(
            probe_id="RIG-FLAT",
            paper_ref="none",
            family="t -> 1 + jitter below the floor",
            functional="value",
            direction="exact",
            schedule=(1.0, 2.0, 3.0, 4.0),
            expected_limit=1.0,
            tolerance=1e-6,
            evaluate=lambda t: 1.0 + (1e-12 if int(t) % 2 else 5e-13),
        )
        res = run_probe(probe)
        assert res.monotone and res.passed

    def test_genuinely_rising_deviation_fails_monotonicity(self):
        probe = SharpnessProbe(
            probe_id="RIG-RISE",
            paper_ref="none",
            family="deviation grows",
            functional="value",
            direction="exact",
            schedule=(1.0, 2.0, 3.0, 4.0),
            expected_limit=1.0,
            tolerance=1.0,
            evaluate=lambda t: 1.0 + t * 1e-3,
        )
        res = run_probe(probe)
        assert not res.monotone and not res.passed


class TestReports:
    def _records(self):
        rec1 = check_case(catalog().case("T-JS"), n_samples=10, seed=5).record()
        rec2 = run_probe(catalog().probe("P6")).record()
        return [rec1, rec2]

    def test_json_round_trip(self):
        records = self._records()
        text = records_to_json(records)
        assert parse_report(text) == records

    def test_json_has_no_nan(self):
        records = self._records()
        assert "NaN" not in records_to_json(records)

    def test_parse_rejects_invalid_json(self):
        with pytest.raises(ConfigurationError):
            parse_report("{not json")

    def test_parse_rejects_missing_fields(self):
        with pytest.raises(ConfigurationError):
            parse_report('[{"case_id": "X"}]')

    def test_parse_rejects_empty_and_non_objects(self):
        with pytest.raises(ConfigurationError):
            parse_report("[]")
        with pytest.raises(ConfigurationError):
            parse_report("[3]")

    def test_parse_rejects_truncated_probe_records(self):
        rec = run_probe(catalog().probe("P6")).record()
        rec.pop("estimates")
        with pytest.raises(ConfigurationError):
            parse_report(json.dumps([rec]))

    def test_single_object_reports_are_accepted(self):
        rec = check_case(catalog().case("T-JS"), n_samples=5, seed=5).record()
        assert parse_report(json.dumps(rec)) == rec

    def test_csv_shape(self):
        text = records_to_csv(self._records())
        lines = text.strip().split("\n")
        assert lines[0].startswith("case_id,samples,violations,max_slack,seed,pass")
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "T-JS"

    def test_text_rendering(self):
        text = records_to_text(self._records())
        lines = text.strip().split("\n")
        assert len(lines) == 2
        assert "pass" in lines[0]
        assert "final_deviation" in lines[1]

    def test_seed_default_is_part_of_the_record(self):
        rec = check_case(catalog().case("T-JS"), n_samples=5).record()
        assert rec["seed"] == DEFAULT_SEED
