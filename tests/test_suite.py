"""Tests for the verification suite: sampling, case running, probes, reports."""

import dataclasses
import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import hypmetrics.geometry as geo
import hypmetrics.suite as suite
from hypmetrics.geometry import FiniteComplement, ParameterError, UnitBall, UpperHalfSpace
from hypmetrics.metrics import triangular_ratio, u_metric
from hypmetrics.mobius import MobiusMap, Translation, ball_automorphism
from hypmetrics.suite import (
    TWO_LOG3,
    ConfigurationError,
    DEFAULT_SEED,
    InequalityCase,
    Sample,
    SharpnessProbe,
    ScheduleError,
    _chain,
    _checked_pair,
    _distortion,
    _equal_distance_pair,
    _pairwise,
    _stream,
    catalog,
    check_case,
    parse_report,
    records_to_csv,
    records_to_json,
    records_to_text,
    run_probe,
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

    def test_checked_pair_distinct(self):
        for k in range(100):
            x, y = _checked_pair(BALL, _stream(2, "pair", k))
            assert not np.array_equal(x.x, y.x)

    @pytest.mark.parametrize("domain", [BALL, PUNCT])
    def test_equal_distance_pair_is_bitwise_equal(self, domain):
        hits = 0
        for k in range(200):
            x, y = _equal_distance_pair(domain, _stream(3, "eq", k))
            dx = domain.distance_to_boundary(x)
            dy = domain.distance_to_boundary(y)
            if dx == dy:
                hits += 1
        # every pair returned is a sign flip, so no pair may differ
        assert hits == 200

    def test_equal_distance_pair_checks_x_once(self):
        # one checked pass per point built: x first, then each y; the pair
        # returned holds the passes that were made
        tested = []

        class Ball(UnitBall):
            def _checked(self, p, name):
                tested.append(p)
                return super()._checked(p, name)

        domain = Ball(3)
        for k in range(20):
            tested.clear()
            x, y = _equal_distance_pair(domain, _stream(3, "eq", k))
            assert sum(p is x.x for p in tested) == 1, k
            assert x.x is tested[0] and y.x is tested[-1]
            assert len({id(p) for p in tested}) == len(tested)
            assert x.domain is domain and y.domain is domain

    @pytest.mark.parametrize("domain", [BALL, HALF, PUNCT])
    def test_sample_point_returns_its_draw_checked_on_the_domain(self, domain):
        for k in range(50):
            p = sample_point(domain, _stream(4, "pt", k))
            assert type(p) is geo._CheckedPoint and p.domain is domain
            x, coords, gauge = domain._checked(p.x, "point")
            assert x is p.x and coords == p.coords and gauge == p.gauge

    def test_a_rejected_draw_is_checked_once(self, monkeypatch):
        # the first draw lands on the removed point: the one pass made on it
        # raises, and the second draw is returned with the pass made on it
        class Scripted:
            def __init__(self):
                self.normals = [np.zeros(3), np.array([0.3, -0.2, 0.1])]

            def random(self):
                return 0.5

            def integers(self, n):
                return 0

            def standard_normal(self, n):
                return self.normals.pop(0)

        checked = []
        original = FiniteComplement._checked

        def counted(self, p, name):
            checked.append(p.tolist())
            return original(self, p, name)

        monkeypatch.setattr(FiniteComplement, "_checked", counted)
        p = sample_point(PUNCT, Scripted())
        assert checked[0] == PUNCT.removed[0].tolist()
        assert checked == [PUNCT.removed[0].tolist(), p.coords]

    def test_each_drawn_point_is_checked_once_and_no_metric_call_checks(self, monkeypatch):
        # every sampled catalog case: while a sample is built, one checked
        # pass per drawn point (a pass that raises is a rejected draw) and
        # one per Mobius image on the image domain, none made twice; while
        # it is evaluated, none at all
        passes = []

        def counting(cls):
            original = cls._checked

            def _checked(self, p, name):
                try:
                    out = original(self, p, name)
                except geo.DomainMembershipError:
                    passes.append((self, p, False))
                    raise
                passes.append((self, p, True))
                return out

            monkeypatch.setattr(cls, "_checked", _checked)

        for cls in (UnitBall, UpperHalfSpace, FiniteComplement):
            counting(cls)
        draws = []
        draw = suite.sample_point
        monkeypatch.setattr(suite, "sample_point", lambda domain, rng: draws.append(draw(domain, rng)) or draws[-1])
        cases = [case for case in catalog().cases if case.grid is None]
        assert len(cases) == 43
        for case in cases:
            for domain in case.domains:
                for k in range(4):
                    passes.clear()
                    draws.clear()
                    smp = suite._build_sample(case, domain, _stream(7, case.case_id, k))
                    built = list(passes)
                    passes.clear()
                    case.evaluate(domain, smp)
                    assert passes == [], case.case_id
                    keys = [(id(d), tuple(p.tolist())) for d, p, _ in built]
                    assert len(set(keys)) == len(keys), case.case_id
                    points = [(domain, smp.x), (domain, smp.y)]
                    points += [(domain, smp.z)] if smp.z is not None else []
                    points += [(smp.fdomain, smp.fx), (smp.fdomain, smp.fy)] if smp.fmap is not None else []
                    for d, pt in points:
                        assert pt.domain is d and any(c is d and p is pt.x and ok for c, p, ok in built), case.case_id
                    # each draw returned is the one pass made on its array
                    drawn = {id(pt.x) for pt in draws}
                    assert sum(id(p) in drawn for _, p, _ in built) == len(draws), case.case_id
                    if case.draw_map is None and case.sampler != "equal_pair":
                        assert sum(ok for _, _, ok in built) == len(draws), case.case_id


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


class TestPairEvaluators:
    def test_chain_equals_the_written_max(self):
        rng = np.random.default_rng(17)
        rows = [(1.0, 1.0, 1.0, 1.0), (0.0, -0.0, 0.0, -0.0), (math.nan, 1.0, 2.0, math.nan), (2.0, math.nan, 1.0, 0.5)]
        for _ in range(200):
            rows.append(tuple((rng.standard_normal(4) * 10.0 ** rng.uniform(-3.0, 3.0, 4)).tolist()))
        for a, b, c, d in rows:
            for got, want in (
                (_chain(a, b), a - b),
                (_chain(a, b, c), max(a - b, b - c)),
                (_chain(a, b, c, d), max(a - b, b - c, c - d)),
            ):
                assert got[0].hex() == want.hex() and got[1] == 0.0, (a, b, c, d)

    @pytest.mark.parametrize("k", [2, 3])
    def test_pairwise_calls_each_metric_once_in_order(self, k):
        calls = []

        def recording(name, value):
            def metric(domain, x, y):
                calls.append((name, domain, x, y))
                return value

            return metric

        names = "abc"[:k]
        ev = _pairwise(lambda *values: (values, "rhs"), *[recording(n, float(i)) for i, n in enumerate(names)])
        smp = Sample(x=np.zeros(3), y=np.ones(3))
        assert ev(BALL, smp) == (tuple(float(i) for i in range(k)), "rhs")
        assert [c[0] for c in calls] == list(names)
        assert all(c[1] is BALL and c[2] is smp.x and c[3] is smp.y for c in calls)

    def test_distortion_evaluates_the_pair_then_its_image(self, monkeypatch):
        # u is looked up when the evaluator is built, as the catalog binds it
        calls = []

        def u(domain, x, y):
            calls.append((domain, x, y))
            return float(len(calls))

        monkeypatch.setattr(suite, "u_metric", u)
        ev = _distortion(lambda u0, u1: (u0, u1))
        smp = Sample(x=np.zeros(3), y=np.ones(3), fdomain=HALF, fx=np.full(3, 2.0), fy=np.full(3, 3.0))
        assert ev(BALL, smp) == (1.0, 2.0)
        assert calls == [(BALL, smp.x, smp.y), (HALF, smp.fx, smp.fy)]

    def test_triangular_case_drops_its_upper_side_at_s_one(self):
        # the segment from 0 to 2e1 passes through the puncture e1
        x, y = np.zeros(3), np.array([2.0, 0.0, 0.0])
        assert triangular_ratio(PUNCT, x, y) == 1.0
        lhs_rhs = catalog().case("T-S").evaluate(PUNCT, Sample(x=x, y=y))
        assert lhs_rhs == (TWO_LOG3 - u_metric(PUNCT, x, y), 0.0)


class TestCheckCase:
    def test_parameter_validation(self):
        case = catalog().case("AX-U")
        with pytest.raises(ParameterError):
            check_case(case, n_samples=0)
        for slack in (-1e-9, math.nan, math.inf):
            with pytest.raises(ParameterError):
                check_case(case, slack=slack)

    @pytest.mark.parametrize("n_samples", [2.5, True, "3", np.float64(4.0)], ids=repr)
    def test_n_samples_must_be_an_integer(self, n_samples):
        # 2.5 died in range(), and True ran one sample that parse_report rejects
        with pytest.raises(ParameterError, match="^n_samples must be an integer >= 1, got "):
            check_case(catalog().case("AX-U"), n_samples=n_samples)

    @pytest.mark.parametrize("seed", [1.5, "7", True, None], ids=repr)
    def test_seed_must_be_an_integer(self, seed):
        # each ran: None into a record with the null seed of a probe, the others into one parse_report rejects
        with pytest.raises(ParameterError, match="^seed must be an integer, got "):
            check_case(catalog().case("AX-U"), n_samples=2, seed=seed)

    @pytest.mark.parametrize("slack", ["0", None, True], ids=repr)
    def test_slack_must_be_a_real_number(self, slack):
        # "0" and None raised a plain TypeError, and True ran as a slack of 1.0
        with pytest.raises(ParameterError, match="^slack must be a finite number >= 0, got "):
            check_case(catalog().case("AX-U"), n_samples=2, slack=slack)

    @staticmethod
    def _in_dimension(domain, n):
        """``domain`` in dimension n, a complement's punctures truncated or
        padded with zeros."""
        if isinstance(domain, FiniteComplement):
            removed = [(p + [0.0] * n)[:n] for p in domain.removed.tolist()]
            return FiniteComplement(n, removed, domain.includes_infinity_boundary)
        return type(domain)(n)

    @pytest.mark.parametrize("n", [2, 4, 5])
    def test_verdicts_hold_in_every_dimension(self, n):
        # the paper's statements are for R^n: every sampled case keeps its
        # verdict on domains of dimension n, the Mobius cases included
        wrong = []
        for case in catalog().cases:
            if case.grid is None:
                case_n = dataclasses.replace(case, domains=tuple(self._in_dimension(d, n) for d in case.domains))
                if check_case(case_n, n_samples=300, seed=7).passed == (case.case_id == "T-ALJ"):
                    wrong.append(case.case_id)
        assert wrong == []

    def test_numpy_integers_give_the_record_of_the_python_ints(self):
        # the record holds Python ints, so it serializes and parses back
        case = catalog().case("T-JS")
        got = check_case(case, n_samples=np.int64(4), seed=np.int64(3)).record()
        want = check_case(case, n_samples=4, seed=3).record()
        assert type(got["samples"]) is int and type(got["seed"]) is int
        got.pop("wall_time")
        want.pop("wall_time")
        assert got == want
        assert parse_report(records_to_json([got])) == [got]

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
            seen.append(smp.x.coords)
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
            seen.append(smp.x.coords)
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

    def test_a_map_case_with_no_admissible_pair_names_the_case(self):
        # every image lies 99 or more from the ball, so the first image check raises
        far = MobiusMap((Translation(np.array([100.0, 0.0, 0.0])),))
        rigged = InequalityCase(
            case_id="RIG-NO-IMAGE",
            paper_ref="none",
            formula="n/a",
            domains=(BALL,),
            evaluate=lambda domain, smp: (0.0, 1.0),
            draw_map=lambda domain, rng: (far, domain),
        )
        with pytest.raises(geo.DomainMembershipError, match="^RIG-NO-IMAGE image of x "):
            check_case(rigged, n_samples=1, seed=1)

    def test_an_equal_pair_case_with_no_zero_anchor_coordinate_raises(self):
        # no sign can be flipped about [1, 1, 1], so no equal-distance pair exists
        rigged = InequalityCase(
            case_id="RIG-NO-FLIP",
            paper_ref="none",
            formula="n/a",
            domains=(FiniteComplement(3, [[1.0, 1.0, 1.0]]),),
            evaluate=lambda domain, smp: (2.0, 1.0),
            sampler="equal_pair",
        )
        with pytest.raises(ConfigurationError, match="^no equal-distance pair found in 64 sign flips on "):
            check_case(rigged, n_samples=200, seed=1)

    @pytest.mark.parametrize(
        "declaration, keys",
        [
            ({"domains": (BALL,), "sampler": "triple"}, {"x", "y", "z"}),
            (
                {"domains": (BALL,), "draw_map": lambda domain, rng: (ball_automorphism([0.5, 0.0, 0.0]), domain)},
                {"x", "y", "map", "image_domain"},
            ),
            ({"domains": (None,), "grid": (0.0, 1.0)}, {"t"}),
        ],
        ids=["triple", "map", "grid"],
    )
    def test_violation_summaries_record_what_each_sample_holds(self, declaration, keys):
        rigged = InequalityCase(
            case_id="RIG-SUMMARY",
            paper_ref="none",
            formula="2 <= 1",
            evaluate=lambda domain, smp: (2.0, 1.0),
            **declaration,
        )
        summaries = check_case(rigged, n_samples=3, seed=1).violation_samples
        assert len(summaries) == 3
        for summary in summaries:
            assert set(summary) == {"index", "domain", "lhs", "rhs"} | keys
            assert (summary["lhs"], summary["rhs"]) == (2.0, 1.0)
            assert summary["domain"] == (None if declaration["domains"] == (None,) else repr(BALL))
            if "x" in keys:
                # the coordinates of the points the sample was built with, to 12 digits
                smp = suite._build_sample(rigged, BALL, _stream(1, "RIG-SUMMARY", summary["index"]))
                for name in keys & {"x", "y", "z"}:
                    coords = geo.as_point(getattr(smp, name)).tolist()
                    assert summary[name] == [suite._round12(v) for v in coords], name
            if "map" in keys:
                assert summary["map"] == "MobiusMap([SphereInversion])"
                assert summary["image_domain"] == repr(BALL)
        if "t" in keys:
            assert [summary["t"] for summary in summaries] == [0.0, 0.5, 1.0]

    @pytest.mark.parametrize(
        "declaration",
        [
            {"sampler": "grid", "grid": (0.0, 1.0)},
            {"sampler": "pair_map"},
            {"sampler": "triple", "draw_map": lambda domain, rng: (None, domain)},
        ],
        ids=["grid", "pair_map", "triple-with-map"],
    )
    def test_a_case_declares_one_of_the_three_samplers(self, declaration):
        with pytest.raises(ConfigurationError, match="^case RIG-SAMPLER: sampler must be one of"):
            InequalityCase(
                case_id="RIG-SAMPLER",
                paper_ref="none",
                formula="n/a",
                domains=(BALL,),
                evaluate=lambda domain, smp: (0.0, 1.0),
                **declaration,
            )

    @pytest.mark.parametrize(
        "declaration, message",
        [({"domains": ()}, "declares no domains"), ({"domains": (None,)}, "a None domain needs a grid")],
        ids=["no-domains", "none-without-grid"],
    )
    def test_a_case_declares_domains_it_can_run_on(self, declaration, message):
        with pytest.raises(ConfigurationError, match=f"^case RIG-DOMAINS: {message}"):
            InequalityCase(
                case_id="RIG-DOMAINS",
                paper_ref="none",
                formula="n/a",
                evaluate=lambda domain, smp: (0.0, 1.0),
                **declaration,
            )

    @pytest.mark.parametrize(
        "declaration",
        [
            {"domains": (BALL,)},
            {"domains": (None, BALL)},
            {"domains": (None,), "draw_map": lambda domain, rng: (None, domain)},
            {"domains": (None,), "sampler": "triple"},
        ],
        ids=["ball", "none-and-ball", "draw-map", "triple"],
    )
    def test_a_grid_case_declares_nothing_a_grid_sample_drops(self, declaration):
        # a grid sample holds t alone, so a domain, a map draw or a
        # sampler beside the grid would be dropped without a word
        message = "^case RIG-GRID: a grid case takes domain None, no draw_map, pair sampler$"
        with pytest.raises(ConfigurationError, match=message):
            InequalityCase(
                case_id="RIG-GRID",
                paper_ref="none",
                formula="n/a",
                evaluate=lambda domain, smp: (0.0, 1.0),
                grid=(0.0, 1.0),
                **declaration,
            )

    @pytest.mark.parametrize("domain", [HALF, None], ids=repr)
    def test_an_equal_pair_case_runs_on_a_ball_or_a_complement(self, domain):
        # the sampler anchors its pairs on the ball's centre or a removed point
        message = "^case RIG-EQUAL: sampler 'equal_pair' runs on UnitBall and FiniteComplement domains only, got "
        with pytest.raises(ConfigurationError, match=message + re.escape(repr(domain))):
            InequalityCase(
                case_id="RIG-EQUAL",
                paper_ref="none",
                formula="n/a",
                domains=(BALL, domain),
                evaluate=lambda domain, smp: (0.0, 1.0),
                sampler="equal_pair",
                grid=(0.0, 1.0) if domain is None else None,
            )

    def test_known_counterexample_case_reports_violations(self):
        # alpha exceeds j on the ball, so this case must flag samples
        rec = check_case(catalog().case("T-ALJ"), n_samples=50, seed=42)
        assert rec.violations > 0 and not rec.passed

    def test_axioms_pass_on_small_runs(self):
        for cid in ("AX-U", "AX-J", "AX-DELTA", "AX-ETA"):
            rec = check_case(catalog().case(cid), n_samples=24, seed=42)
            assert rec.passed, cid


def _reference_probe_evaluators():
    """Each probe written out as one closure over its metrics: the
    reference the declared probes must match bit for bit.  P1 keeps a
    loop over the inner stages m = 2..5, of which only the last counts."""
    from hypmetrics.metrics import cassinian, delta_metric, eta_metric, j_metric, j_tilde, rho
    from hypmetrics.mobius import ball_automorphism, cayley_map, inversion_unit

    n = 3
    e1, e3, origin = np.eye(n)[0], np.eye(n)[2], np.zeros(n)
    en = e3
    ball, half = UnitBall(n), UpperHalfSpace(n)
    punct1, punct0 = FiniteComplement(n, [e1]), FiniteComplement(n, [origin])
    U, JT, J, D, E, C, S, R = (
        u_metric, j_tilde, j_metric, delta_metric, eta_metric, cassinian, triangular_ratio, rho,
    )
    cay, inv = cayley_map(n), inversion_unit(n)

    def p1_eval(s):
        last = math.nan
        for m in (2, 3, 4, 5):
            t = 1.0 - (1.0 - s) * 10.0 ** (-m)
            last = U(ball, s * e1, t * e1) - R(ball, s * e1, t * e1)
        return last

    def p2_eval(t):
        return U(half, en, t * en) - R(half, en, t * en)

    def p3_eval(t):
        return U(punct1, t * e1, -t * e1) / JT(punct1, t * e1, -t * e1)

    def p3j_eval(t):
        return U(punct1, t * e1, -t * e1) / J(punct1, t * e1, -t * e1)

    def p4_eval(t):
        return U(punct1, t * e1, -t * e1) - 2.0 * JT(punct1, t * e1, -t * e1)

    def p5_eval(t):
        return U(punct1, origin, t * e1) / E(punct1, origin, t * e1)

    def p6_eval(t):
        return U(punct0, t * e1, -t * e1)

    def p7_eval(t):
        s_ = S(punct1, t * e1, -t * e1)
        return U(punct1, t * e1, -t * e1) / math.log((1.0 + s_) / (1.0 - s_))

    def p8_eval(t):
        f = ball_automorphism(t * e1)
        x = (1.0 - t) * e1
        y = -x
        return U(ball, f.apply(x), f.apply(y)) / U(ball, x, y)

    def p9_eval(t):
        x = t * en
        y = (1.0 / t) * en
        return U(ball, cay.apply(x), cay.apply(y)) / U(half, x, y)

    def p9add_eval(t):
        x = t * en
        y = (1.0 / t) * en
        return U(half, x, y) - U(ball, cay.apply(x), cay.apply(y))

    def p10_eval(t):
        x = e1 + t * en
        y = e1 + (1.0 / t) * en
        return U(half, x, y) - U(half, inv.apply(x), inv.apply(y))

    def p11_eval(t):
        return U(ball, t * e1, -t * e1) - D(ball, t * e1, -t * e1)

    def p12_eval(t):
        x = t * e1
        y = t * e3
        c_ = C(punct0, x, y)
        rmin = min(punct0.distance_to_boundary(x), punct0.distance_to_boundary(y))
        return U(punct0, x, y) - 2.0 * math.log1p(rmin * c_)

    return {
        "P1": p1_eval, "P2": p2_eval, "P3": p3_eval, "P3-J": p3j_eval, "P4": p4_eval,
        "P5": p5_eval, "P6": p6_eval, "P7": p7_eval, "P8": p8_eval, "P9": p9_eval,
        "P9-ADD": p9add_eval, "P10": p10_eval, "P11": p11_eval, "P12": p12_eval,
    }


# points off each schedule, inside the family's domain, by direction
_EXTRA_T = {
    "0+": (0.37, 3e-8),
    "1-": (0.3, 0.77, 1.0 - 3e-8),
    "1+": (1.7, 1.0 + 3e-8),
    "inf": (2.5, 3e8),
    "exact": (0.3, 0.77),
}


class TestRunProbe:
    def test_each_probe_point_is_checked_once(self, monkeypatch):
        # x and y once each, and the images of a mapped pair once each on
        # the image domain, named as images, however many metrics the
        # probe evaluates
        names = []
        for cls in (UnitBall, UpperHalfSpace, FiniteComplement):
            monkeypatch.setattr(
                cls, "_checked", lambda self, p, name, original=cls._checked: names.append(name) or original(self, p, name)
            )
        mapped = {"P8", "P9", "P9-ADD", "P10"}
        for probe in catalog().probes:
            for t in probe.schedule:
                names.clear()
                probe.evaluate(t)
                images = ["image of x", "image of y"] if probe.probe_id in mapped else []
                assert names == ["x", "y", *images], (probe.probe_id, t)

    @pytest.mark.parametrize("probe_id", ["P9", "P9-ADD", "P10"])
    def test_a_mapped_probe_point_is_coerced_four_times(self, monkeypatch, probe_id):
        # x and y where they are checked, then each image on the image
        # domain; the map takes the checked pair as checked, so no
        # argument but these four is coerced in full
        full = []
        coerced = geo._coerced

        def counted(p, dim):
            if type(p) is not geo._CheckedPoint:
                full.append(p)
            return coerced(p, dim)

        monkeypatch.setattr(geo, "_coerced", counted)
        probe = catalog().probe(probe_id)
        for t in probe.schedule:
            full.clear()
            probe.evaluate(t)
            assert len(full) == 4, t

    def test_schedule_needs_four_points(self):
        probe = catalog().probe("P2")
        with pytest.raises(ParameterError):
            run_probe(probe, schedule_overrides=(0.1, 0.01, 0.001))

    def test_a_schedule_that_is_not_a_collection_is_a_parameter_error(self):
        # tuple(5) raised a plain TypeError
        with pytest.raises(ParameterError, match="^a probe schedule must be a collection, got 5$"):
            run_probe(catalog().probe("P2"), schedule_overrides=5)

    def test_an_empty_schedule_is_rejected(self):
        # () is a schedule of no points, not a request for the probe's own
        with pytest.raises(ParameterError, match="at least 4 points"):
            run_probe(catalog().probe("P2"), schedule_overrides=())

    def test_out_of_domain_schedule_is_reported(self):
        # t = 1 puts the family right on the removed point
        probe = catalog().probe("P4")
        with pytest.raises(ScheduleError):
            run_probe(probe, schedule_overrides=(0.5, 0.9, 0.99, 1.0))

    @pytest.mark.parametrize("probe_id, t", [("P3", 0.0), ("P9", 1.0), ("P7", 1.5)])
    def test_a_pole_of_the_family_is_reported(self, probe_id, t):
        # each family divides by zero there, in float arithmetic
        with pytest.raises(ScheduleError, match=f"the family is undefined at t = {t!r}"):
            run_probe(catalog().probe(probe_id), schedule_overrides=(0.5, 0.25, 0.125, t))

    def test_no_edge_parameter_escapes_as_a_traceback(self):
        # the scales 1e150, 1e300 and 1e-170 square or multiply out of the
        # float range; every value there comes out, or a ScheduleError
        ulp = math.ulp(1.0)
        edges = (0.0, 1e-300, -1e-300, 1.0 - ulp / 2, 1.0 + ulp, 1.0, -1.0, 1.5, 1e308,
                 1e150, -1e150, 1e300, -1e300, 1e-170, -1e-170)
        for probe in catalog().probes:
            for t in edges:
                try:
                    run_probe(probe, schedule_overrides=(t,) * 4)
                except (ScheduleError, ParameterError):
                    pass

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
            direction="exact",
            schedule=(1.0, 2.0, 3.0, 4.0),
            expected_limit=1.0,
            tolerance=1.0,
            evaluate=lambda t: 1.0 + t * 1e-3,
        )
        res = run_probe(probe)
        assert not res.monotone and not res.passed

    def test_declared_probes_match_their_closures_bit_for_bit(self):
        # the golden file rounds to 12 digits and the benchmark compares
        # to 1e-9; this compares every bit of every estimate
        reference = _reference_probe_evaluators()
        probes = catalog().probes
        assert sorted(reference) == sorted(p.probe_id for p in probes)
        for probe in probes:
            for t in probe.schedule + _EXTRA_T[probe.direction]:
                got, want = probe.evaluate(t), reference[probe.probe_id](t)
                assert got.hex() == want.hex(), (probe.probe_id, t)


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
