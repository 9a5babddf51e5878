"""End-to-end tests for the command line interface, driven through main()."""

import csv
import io
import json
import math

import mpmath
import pytest

from hypmetrics import cli
from hypmetrics.cli import main
from hypmetrics.suite import parse_report, records_to_text


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_ball_u(self, capsys):
        code, out, err = run(
            capsys, "eval", "--domain", "ball", "--metric", "u", "-x", "0,0,0", "-y", "0.5,0,0"
        )
        assert code == 0 and err == ""
        assert out.strip() == f"{math.log(4.5):.12g}"

    def test_halfspace_rho(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--domain", "halfspace", "--metric", "rho",
            "-x", "0,0,1", "-y", "0,0,2",
        )
        assert code == 0
        assert out.strip() == f"{math.log(2.0):.12g}"

    def test_complement_cassinian(self, capsys):
        # boundary is the removed point and infinity; the removed point wins
        code, out, _ = run(
            capsys, "eval", "--domain", "complement", "--remove", "1,0,0",
            "--metric", "cassinian", "-x", "0,0,0", "-y", "2,0,0",
        )
        assert code == 0
        assert out.strip() == "2"

    def test_complement_alpha_with_a_ratio_beyond_the_float_range(self, capsys):
        # x is 7e-324 from the puncture, so |x| / |y| underflows to 0 and
        # |y| / |x| overflows; the two logs cancel to the true value 0
        code, out, err = run(
            capsys, "eval", "--domain", "complement", "--remove", "0,0,0", "--no-infinity-boundary",
            "--metric", "alpha", "-x", "5e-324,0,5e-324", "-y", "2,0,0",
        )
        assert code == 0 and err == ""
        assert out.strip() == "0"

    def test_metric_defaults_to_u(self, capsys):
        code, out, _ = run(capsys, "eval", "--domain", "ball", "-x", "0,0,0", "-y", "0.5,0,0")
        assert code == 0
        assert out.strip() == f"{math.log(4.5):.12g}"

    def test_planar_points_work(self, capsys):
        code, out, _ = run(capsys, "eval", "--domain", "ball", "-x", "0,0", "-y", "0.5,0")
        assert code == 0
        assert out.strip() == f"{math.log(4.5):.12g}"

    def test_unknown_metric_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--domain", "ball", "--metric", "nope", "-x", "0,0", "-y", "0.5,0"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--domain", "ball", "-x", "0,0", "-y", "0,0,1"],
            ["eval", "--domain", "ball", "--remove", "5,5", "-x", "0,0", "-y", "0.5,0"],
            ["eval", "--domain", "complement", "-x", "0,0,0", "-y", "2,0,0"],
            ["eval", "--domain", "ball", "-x", "zero,0", "-y", "0.5,0"],
            ["eval", "--domain", "ball", "-x", "0", "-y", "0.5"],
            ["eval", "--domain", "ball", "-x", "0,0,2", "-y", "0.5,0,0"],
            ["eval", "--domain", "complement", "--remove", "1,0,0",
             "--metric", "rho", "-x", "0,0,0", "-y", "2,0,0"],
        ],
    )
    def test_configuration_errors_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_there_is_no_dim_option(self, capsys):
        # the dimension is the points'
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--domain", "ball", "--dim", "2", "-x", "0,0", "-y", "0.5,0"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --dim 2" in capsys.readouterr().err

    @pytest.mark.parametrize("domain", ["ball", "halfspace"])
    def test_complement_options_need_the_complement(self, capsys, domain):
        # the ball and the half-space would ignore them
        for options in (["--remove", "5,5"], ["--no-infinity-boundary"], ["--remove", "5,5", "--no-infinity-boundary"]):
            code, out, err = run(capsys, "eval", "--domain", domain, *options, "-x", "0,0.5", "-y", "0.5,0.5")
            assert (code, out) == (2, "")
            assert err == "error: --remove and --no-infinity-boundary need --domain complement\n"

    @pytest.mark.parametrize(
        "metric, x, y",
        [
            ("u", "0,1e200", "1e200,1e200"),
            ("rho", "0,1e100", "1e100,1e100"),
            ("u", "0,0,1e-200", "1,0,1e-200"),
            ("rho", "0,0,1e-200", "1,0,1e-200"),
        ],
    )
    def test_formerly_overflowing_points_evaluate(self, capsys, metric, x, y):
        # squares of coordinates beyond 1e154, and products of heights of
        # 1e-200, leave the float range; the kernels form neither.  The
        # printed value is checked against a 50-digit evaluation at the
        # same floats
        code, out, err = run(
            capsys, "eval", "--domain", "halfspace", "--metric", metric, "-x", x, "-y", y
        )
        assert (code, err) == (0, "")
        mp = mpmath.MPContext()
        mp.dps = 50
        xs, ys = ([mp.mpf(float(c)) for c in p.split(",")] for p in (x, y))
        r = mp.sqrt(mp.fsum((a - b) ** 2 for a, b in zip(xs, ys)))
        hx, hy = xs[-1], ys[-1]
        if metric == "u":
            want = 2 * mp.log((r + max(hx, hy)) / mp.sqrt(hx * hy))
        else:
            want = 2 * mp.asinh(r / (2 * mp.sqrt(hx * hy)))
        assert abs(float(out) - want) <= 1e-11 * want, (out, want)

    def test_non_finite_value_exits_2(self, capsys):
        # |x - y| = 2e308 is beyond the float range, so u is inf
        code, out, err = run(
            capsys, "eval", "--domain", "halfspace", "--metric", "u", "-x", "1e308,1", "-y", "-1e308,1"
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: u evaluates to inf at these points")
        assert "too large" in err and "double precision" in err

    def test_nan_value_exits_2(self, capsys, monkeypatch):
        # no kernel gives NaN at the points below; the stand-in shows that
        # eval rejects a NaN value as it rejects inf
        monkeypatch.setattr(cli, "evaluate_metric", lambda *args: math.nan)
        code, out, err = run(capsys, "eval", "--domain", "halfspace", "--metric", "cassinian", "-x", "0,1", "-y", "1,1")
        assert (code, out) == (2, "")
        assert err.startswith("error: cassinian evaluates to nan at these points")

    @pytest.mark.parametrize(
        "x, y, out", [("-8e307,1e308", "8e307,1.7e308", "7.81670282587e-309"), ("0,1e308", "1e308,1e308", "8e-309")]
    )
    def test_cassinian_near_the_float_maximum_evaluates(self, capsys, x, y, out):
        # the half-space Cassinian cubic's normaliser overflows here; the
        # metric is evaluated on the pair scaled by 1/4
        got = run(capsys, "eval", "--domain", "halfspace", "--metric", "cassinian", "-x", x, "-y", y)
        assert got == (0, out + "\n", "")

    def test_no_infinity_boundary_changes_the_domain(self, capsys):
        args = ["--metric", "delta", "-x", "0,0,0", "-y", "2,0,0"]
        code, out, _ = run(
            capsys, "eval", "--domain", "complement", "--remove", "1,0,0", *args
        )
        assert code == 0
        # with only one finite boundary point the metric is undefined
        code, _, err = run(
            capsys, "eval", "--domain", "complement", "--remove", "1,0,0",
            "--no-infinity-boundary", *args,
        )
        assert code == 2 and err.startswith("error:")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--domain", "ball", "-x", "0,0,0", "-y", "1,0,0"],
             "error: y [1.0, 0.0, 0.0] is not in UnitBall(dim=3)\n"),
            (["--domain", "complement", "--remove", "1,0,0", "--metric", "delta",
              "-x", "0,0,0", "-y", "1,0,0"],
             "error: y [1.0, 0.0, 0.0] is not in "
             "FiniteComplement(dim=3, removed=[[1.0, 0.0, 0.0]], +inf)\n"),
        ],
    )
    def test_membership_error_prints_plain_floats(self, capsys, argv, message):
        code, out, err = run(capsys, "eval", *argv)
        assert (code, out, err) == (2, "", message)


@pytest.mark.parametrize(
    "argv, joined",
    [
        (["eval", "--domain", "ball", "-x", "-0.5,0", "-y", "0.2,0"],
         ["eval", "--domain", "ball", "-x=-0.5,0", "-y", "0.2,0"]),
        (["eval", "--domain", "ball", "-x", "0.2,0", "-y", "-.5,-0.25"],
         ["eval", "--domain", "ball", "-x", "0.2,0", "-y=-.5,-0.25"]),
        (["eval", "--domain", "complement", "--remove", "-1,0", "--rem", "-2e-1,3",
          "--metric", "cassinian", "-x", "0,0", "-y", "2,0"],
         ["eval", "--domain", "complement", "--remove=-1,0", "--rem=-2e-1,3",
          "--metric", "cassinian", "-x", "0,0", "-y", "2,0"]),
        (["probe", "--id", "P6", "--schedule", "-0.1,-0.5,-1,-2"],
         ["probe", "--id", "P6", "--schedule=-0.1,-0.5,-1,-2"]),
        (["probe", "--id", "P6", "--sched", "-0.1,-0.5,-1,-2"],
         ["probe", "--id", "P6", "--sched=-0.1,-0.5,-1,-2"]),
    ],
)
def test_lists_may_start_with_a_negative_value(capsys, argv, joined):
    # argparse alone reads "-0.5,0" as an option and exits 2 with
    # "expected one argument"; the spelling "-x=-0.5,0" always worked
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert run(capsys, *joined) == (0, out, "")


def test_an_option_name_is_not_taken_as_a_list(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--domain", "ball", "-x", "-y", "0.5,0"])
    assert exc.value.code == 2
    assert "argument -x: expected one argument" in capsys.readouterr().err


class TestCachedParser:
    """main() builds its parser once; no call may see another's arguments."""

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_repeated_case_flags_do_not_accumulate(self, capsys):
        for case in ("AX-U", "AX-J"):
            code, out, _ = run(capsys, "verify", "--case", case, "--samples", "5")
            assert code == 0
            assert [rec["case_id"] for rec in parse_report(out)] == [case]

    def test_repeated_remove_flags_do_not_accumulate(self, capsys, monkeypatch):
        calls = [
            ["eval", "--domain", "complement", "--remove", "1,0,0", "--remove", "0,2,0",
             "--metric", "eta", "-x", "0,0,1", "-y", "3,0,0"],
            ["eval", "--domain", "complement", "--remove", "0,0,-1",
             "--metric", "eta", "-x", "0,0,1", "-y", "3,0,0"],
        ]
        shared = [run(capsys, *argv) for argv in calls]
        assert cli._build_parser().parse_args(calls[1]).remove == ["0,0,-1"]
        # an uncached builder gives every call a parser of its own
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        fresh = [run(capsys, *argv) for argv in calls]
        assert shared == fresh
        assert shared[0] != shared[1]


class TestUnwritableOut:
    """An unwritable --out is a usage error, found before any case or
    probe runs, and an existing file is left alone until the run is done."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--case", "AX-U", "--samples", "5"],
            ["probe", "--id", "P6"],
        ],
        ids=["verify", "probe"],
    )
    def test_verify_and_probe(self, capsys, tmp_path, monkeypatch, argv):
        calls = []
        monkeypatch.setattr(cli, "check_case", lambda *a, **k: calls.append("check_case"))
        monkeypatch.setattr(cli, "run_probe", lambda *a, **k: calls.append("run_probe"))
        target = tmp_path / "missing" / "out.json"
        code, out, err = run(capsys, *argv, "--out", str(target))
        assert code == 2 and out == ""
        assert err.startswith(f"error: could not write {target}")
        assert not target.parent.exists()
        assert calls == []

    def test_report(self, capsys, tmp_path):
        report = tmp_path / "r.json"
        assert run(capsys, "verify", "--case", "AX-U", "--samples", "5", "--out", str(report))[0] == 0
        target = tmp_path / "missing" / "out.txt"
        code, out, err = run(capsys, "report", "--in", str(report), "--out", str(target))
        assert code == 2 and out == ""
        assert err.startswith(f"error: could not write {target}")

    def test_failed_run_leaves_the_out_file_as_it_was(self, capsys, tmp_path):
        existing = tmp_path / "old.json"
        existing.write_text("previous report\n")
        fresh = tmp_path / "new.json"
        for target in (existing, fresh):
            code, _, err = run(capsys, "verify", "--case", "NOPE", "--out", str(target))
            assert code == 2 and "unknown case ids" in err
        assert existing.read_text() == "previous report\n"
        assert not fresh.exists()

    def test_report_may_overwrite_its_input(self, capsys, tmp_path):
        report = tmp_path / "r.json"
        assert run(capsys, "verify", "--case", "AX-U", "--samples", "5", "--out", str(report))[0] == 0
        text = report.read_text()
        code, out, _ = run(capsys, "report", "--in", str(report), "--out", str(report))
        assert code == 0 and out == ""
        assert report.read_text() == records_to_text(parse_report(text))


class TestRender:
    def test_every_json_report_goes_through_the_module_serializer(self, capsys, tmp_path, monkeypatch):
        # the name is looked up at each call, so rebinding it (as a tracer
        # does) reaches verify, probe and report alike
        calls = []
        serialize = cli.records_to_json

        def counting(records):
            calls.append(records)
            return serialize(records)

        monkeypatch.setattr(cli, "records_to_json", counting)
        report = tmp_path / "r.json"
        runs = [
            ["verify", "--case", "AX-U", "--samples", "5", "--out", str(report)],
            ["probe", "--id", "P6"],
            ["report", "--in", str(report)],
        ]
        for k, argv in enumerate(runs, 1):
            run(capsys, *argv, "--format", "json")
            assert len(calls) == k, argv


class TestVerify:
    def test_single_case_json(self, capsys):
        code, out, _ = run(capsys, "verify", "--case", "AX-U", "--samples", "20")
        assert code == 0
        records = parse_report(out)
        assert len(records) == 1
        rec = records[0]
        assert rec["case_id"] == "AX-U"
        assert rec["samples"] == 20
        assert rec["seed"] == 42
        assert rec["pass"] is True

    def test_unknown_case_lists_known_ids(self, capsys):
        code, _, err = run(capsys, "verify", "--case", "BOGUS", "--samples", "5")
        assert code == 2
        assert "unknown case ids: BOGUS" in err
        assert "AX-U" in err
        # every unknown id, in the order given, among known ones
        code, _, err = run(capsys, "verify", "--case", "ZZ", "--case", "AX-U", "--case", "BOGUS", "--samples", "5")
        assert code == 2
        assert "unknown case ids: ZZ, BOGUS; known: AX-U, " in err

    def test_a_repeated_case_runs_once_in_first_seen_order(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--case", "AX-J", "--case", "AX-U", "--case", "AX-J", "--case", "AX-U",
            "--samples", "5",
        )
        assert code == 0
        assert [rec["case_id"] for rec in parse_report(out)] == ["AX-J", "AX-U"]

    def test_bad_samples(self, capsys):
        code, _, err = run(capsys, "verify", "--case", "AX-U", "--samples", "0")
        assert code == 2 and err.startswith("error:")

    def test_failing_case_exits_1(self, capsys):
        code, out, _ = run(capsys, "verify", "--case", "T-ALJ", "--samples", "50")
        assert code == 1
        rec = parse_report(out)[0]
        assert rec["violations"] > 0 and rec["pass"] is False

    @pytest.mark.parametrize("slack", ["nan", "inf"])
    def test_non_finite_slack_exits_2(self, capsys, slack):
        # a NaN slack makes every comparison false, so even the known
        # counterexample would report "pass, violations=0"
        code, out, err = run(capsys, "verify", "--case", "T-ALJ", "--samples", "50", "--slack", slack)
        assert code == 2 and out == "" and "slack" in err

    def test_the_seed_is_read_from_the_arguments_only(self, capsys, monkeypatch):
        # a report's seed is the one its command states, or 42; the
        # environment, set or garbage, is not read
        for env in ("9", "soon"):
            monkeypatch.setenv("HYPMETRICS_SEED", env)
            code, out, err = run(capsys, "verify", "--case", "AX-U", "--samples", "5")
            assert (code, err) == (0, "") and parse_report(out)[0]["seed"] == 42

    def test_seed_flag_beats_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("HYPMETRICS_SEED", "9")
        code, out, _ = run(capsys, "verify", "--case", "AX-U", "--samples", "5", "--seed", "7")
        assert code == 0 and parse_report(out)[0]["seed"] == 7

    def test_garbage_environment_seed(self, capsys, monkeypatch):
        # the variable is not read, so a garbage value is no error
        monkeypatch.setenv("HYPMETRICS_SEED", "soon")
        code, out, err = run(capsys, "verify", "--case", "AX-U", "--samples", "5", "--seed", "7")
        assert (code, err) == (0, "") and parse_report(out)[0]["seed"] == 7

    def test_text_and_csv_formats(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--case", "AX-U", "--samples", "5", "--format", "text"
        )
        assert code == 0 and "pass" in out
        code, out, _ = run(
            capsys, "verify", "--case", "AX-U", "--samples", "5", "--format", "csv"
        )
        assert code == 0 and out.startswith("case_id,")

    def test_out_writes_a_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "verify", "--case", "AX-U", "--samples", "5", "--out", str(target)
        )
        assert code == 0 and out == ""
        assert parse_report(target.read_text())[0]["case_id"] == "AX-U"


class TestProbe:
    def test_csv_table(self, capsys):
        code, out, _ = run(capsys, "probe", "--id", "P6")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("# probe P6:")
        assert lines[1] == "t,functional_value,deviation_from_expected"
        assert lines[-1].startswith("# summary: expected_limit=")
        assert "pass=true" in lines[-1]
        data_rows = lines[2:-1]
        assert len(data_rows) >= 4
        assert all(len(row.split(",")) == 3 for row in data_rows)

    def test_failing_probe_exits_1(self, capsys):
        code, out, _ = run(capsys, "probe", "--id", "P5")
        assert code == 1
        assert "pass=false" in out

    def test_unknown_probe(self, capsys):
        code, _, err = run(capsys, "probe", "--id", "BOGUS")
        assert code == 2 and "unknown probe ids" in err

    def test_schedule_at_a_pole_exits_2(self, capsys):
        code, _, err = run(capsys, "probe", "--id", "P3", "--schedule", "0.1,0.01,0.001,0")
        assert code == 2 and "the family is undefined at t = 0.0" in err

    def test_schedule_override(self, capsys):
        code, out, _ = run(
            capsys, "probe", "--id", "P3", "--schedule", "0.1,0.01,0.001,0.0001"
        )
        assert code == 0
        assert out.count("\n") == 7

    def test_schedule_needs_exactly_one_id(self, capsys):
        code, _, err = run(
            capsys, "probe", "--id", "P3", "--id", "P6", "--schedule", "0.1,0.01,0.001,0.0001"
        )
        assert code == 2 and "exactly one" in err
        code, _, err = run(capsys, "probe", "--schedule", "0.1,0.01,0.001,0.0001")
        assert code == 2

    def test_a_repeated_id_runs_once(self, capsys):
        # one id given twice is one id, so a schedule applies to it
        code, out, _ = run(capsys, "probe", "--id", "P1", "--id", "P1", "--schedule", "0.5,0.9,0.99,0.999")
        assert code == 0
        assert out.count("# probe P1:") == 1
        code, out, _ = run(capsys, "probe", "--id", "P6", "--id", "P3", "--id", "P6", "--format", "json")
        assert code == 0
        assert [rec["case_id"] for rec in parse_report(out)] == ["P6", "P3"]

    def test_unparsable_schedule(self, capsys):
        code, _, err = run(capsys, "probe", "--id", "P6", "--schedule", "1,2,x,4")
        assert code == 2 and "could not parse schedule" in err

    @pytest.mark.parametrize("value", ["1e400", "-inf", "nan"])
    def test_non_finite_schedule(self, capsys, value):
        code, out, err = run(capsys, "probe", "--id", "P2", "--schedule", f"0.1,0.01,0.001,{value}")
        assert code == 2 and out == ""
        assert err == f"error: probe schedule values must be finite, got {float(value)!r}\n"

    def test_schedule_overflowing_the_family(self, capsys):
        # finite, but |x - y| = 2t is beyond the float range there; at
        # t = 1e300 the family still gives 2 log 3
        argv = ["probe", "--id", "P6", "--schedule", "0.1,0.01,0.001,1e308", "--format", "json"]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: probe P6: the estimate at t = 1e+308 is inf\n"
        argv = ["probe", "--id", "P6", "--schedule", "0.1,0.01,0.001,1e300", "--format", "json"]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        # the report rounds estimates to 12 digits; the deviation from 2 log 3 is exact
        assert json.loads(out)[0]["final_deviation"] == 0.0

    def test_schedule_where_the_family_is_undefined(self, capsys):
        # the family's own parameter check fails; the error names probe and t
        code, out, err = run(capsys, "probe", "--id", "P8", "--schedule", "0.1,0.01,0.001,1e300")
        assert code == 2 and out == ""
        assert err == (
            "error: probe P8: the family is undefined at t = 1e+300 "
            "(ball_automorphism needs 0 < |a| < 1)\n"
        )

    def test_schedule_leaving_the_domain(self, capsys):
        code, _, err = run(capsys, "probe", "--id", "P4", "--schedule", "0.5,0.9,0.99,1.0")
        assert code == 2 and "leaves the domain" in err

    def test_an_image_leaving_the_domain_is_named_as_an_image(self, capsys):
        # x = 1e17 e_n is in the half-space; its Cayley image rounds to
        # the south pole, which is not in the ball
        code, out, err = run(capsys, "probe", "--id", "P9", "--schedule", "2,1e4,1e8,1e17")
        assert code == 2 and out == ""
        assert err == (
            "error: probe P9: point family leaves the domain at t = 1e+17 "
            "(image of x [0.0, 0.0, -1.0] is not in UnitBall(dim=3))\n"
        )

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "probe", "--id", "P6", "--format", "json")
        assert code == 0
        rec = parse_report(out)[0]
        assert rec["case_id"] == "P6"
        assert rec["final_deviation"] == 0.0
        assert rec["seed"] is None

    def test_all_probes_render(self, capsys):
        code, out, _ = run(capsys, "probe", "--format", "text")
        assert code == 1  # catalog contains probes that genuinely fall short
        assert out.count("\n") == len(
            [ln for ln in out.strip().split("\n")]
        )


class TestReport:
    def _write_report(self, capsys, tmp_path, case="AX-U", samples="5"):
        target = tmp_path / "r.json"
        code, _, _ = run(
            capsys, "verify", "--case", case, "--samples", samples, "--out", str(target)
        )
        return code, target

    def test_round_trip(self, capsys, tmp_path):
        wrote, target = self._write_report(capsys, tmp_path)
        assert wrote == 0
        code, out, _ = run(capsys, "report", "--in", str(target), "--format", "json")
        assert code == 0
        assert out == target.read_text()

    def test_text_rendering(self, capsys, tmp_path):
        _, target = self._write_report(capsys, tmp_path)
        code, out, _ = run(capsys, "report", "--in", str(target))
        assert code == 0 and "AX-U" in out and "pass" in out

    def test_failing_report_exits_1(self, capsys, tmp_path):
        wrote, target = self._write_report(capsys, tmp_path, case="T-ALJ", samples="50")
        assert wrote == 1
        code, out, _ = run(capsys, "report", "--in", str(target))
        assert code == 1 and "FAIL" in out

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "report", "--in", str(tmp_path / "absent.json"))
        assert code == 2 and "could not read report" in err

    def test_corrupt_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{]")
        code, _, err = run(capsys, "report", "--in", str(bad))
        assert code == 2 and err.startswith("error:")

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_rejects_non_finite_numbers(self, capsys, tmp_path, token):
        _, target = self._write_report(capsys, tmp_path)
        text = target.read_text()
        bad = tmp_path / "nonfinite.json"
        bad.write_text(text.replace('"max_slack": 0.0', f'"max_slack": {token}', 1))
        assert bad.read_text() != text
        code, out, err = run(capsys, "report", "--in", str(bad), "--format", "json")
        assert code == 2 and out == "" and "non-finite" in err

    def test_rejects_invalid_utf8(self, capsys, tmp_path):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'[{"case_id": "caf\xe9"}]')
        code, _, err = run(capsys, "report", "--in", str(bad))
        assert code == 2 and "could not read report" in err

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("case_id", None, "case_id must be a string"),
            ("pass", "false", "pass must be true or false"),
            ("samples", [1, 2], "samples must be an integer >= 0, got [1, 2]"),
            ("samples", True, "samples must be an integer >= 0, got True"),
            ("violations", -1, "violations must be an integer >= 0, got -1"),
            ("violations", 1.0, "violations must be an integer >= 0, got 1.0"),
            ("max_slack", "0.5", "max_slack must be a number or null, got '0.5'"),
            ("max_slack", False, "max_slack must be a number or null, got False"),
            ("seed", 4.5, "seed must be an integer or null, got 4.5"),
            ("seed", "42", "seed must be an integer or null, got '42'"),
        ],
    )
    def test_rejects_wrongly_typed_fields(self, capsys, tmp_path, field, value, message):
        _, target = self._write_report(capsys, tmp_path)
        records = json.loads(target.read_text())
        records[0][field] = value
        bad = tmp_path / "typed.json"
        bad.write_text(json.dumps(records))
        code, out, err = run(capsys, "report", "--in", str(bad), "--format", "text")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and message in err

    def test_takes_null_and_whole_number_fields(self, capsys, tmp_path):
        _, target = self._write_report(capsys, tmp_path)
        records = json.loads(target.read_text())
        records[0].update(max_slack=None, seed=None)
        records.append(dict(records[0], max_slack=3, seed=-1, samples=0))
        good = tmp_path / "nulls.json"
        good.write_text(json.dumps(records))
        code, out, err = run(capsys, "report", "--in", str(good), "--format", "json")
        assert (code, err) == (0, "") and json.loads(out) == records

    def test_csv_quotes_a_field_with_a_comma(self, capsys, tmp_path):
        _, target = self._write_report(capsys, tmp_path)
        records = json.loads(target.read_text())
        records[0]["case_id"] = "A,B"
        records.append(dict(records[0], case_id='say "u"'))
        quoted = tmp_path / "quoted.json"
        quoted.write_text(json.dumps(records))
        code, out, _ = run(capsys, "report", "--in", str(quoted), "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert [len(row) for row in rows] == [10, 10, 10]
        assert [row[0] for row in rows] == ["case_id", "A,B", 'say "u"']
        assert out.splitlines()[1].startswith('"A,B",')

    def test_rejects_wrong_shape(self, capsys, tmp_path):
        bad = tmp_path / "shape.json"
        bad.write_text(json.dumps([{"case_id": "X"}]))
        code, _, err = run(capsys, "report", "--in", str(bad))
        assert code == 2 and err.startswith("error:")
