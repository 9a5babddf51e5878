"""End-to-end tests for the command line interface, driven through main()."""

import json
import math

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
            ["eval", "--domain", "ball", "--dim", "4", "-x", "0,0,0", "-y", "0.5,0,0"],
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

    @pytest.mark.parametrize(
        "metric, x, y",
        [
            ("u", "0,1e200", "1e200,1e200"),
            ("rho", "0,1e100", "1e100,1e100"),
            ("u", "0,0,1e-200", "1,0,1e-200"),
            ("rho", "0,0,1e-200", "1,0,1e-200"),
        ],
    )
    def test_overflow_exits_2(self, capsys, metric, x, y):
        # squared coordinates overflow: u comes out nan and rho inf; the
        # products d(x) d(y) and 2 x_n y_n of heights 1e-200 underflow to
        # 0 and raise ZeroDivisionError
        code, out, err = run(
            capsys, "eval", "--domain", "halfspace", "--metric", metric, "-x", x, "-y", y
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {metric} evaluates to ")
        assert "too large" in err and "double precision" in err

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
    def test_single_case_json(self, capsys, monkeypatch):
        monkeypatch.delenv("HYPMETRICS_SEED", raising=False)
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

    def test_seed_flag_beats_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("HYPMETRICS_SEED", "9")
        code, out, _ = run(
            capsys, "verify", "--case", "AX-U", "--samples", "5", "--seed", "7"
        )
        assert code == 0 and parse_report(out)[0]["seed"] == 7

    def test_environment_seed_beats_default(self, capsys, monkeypatch):
        monkeypatch.setenv("HYPMETRICS_SEED", "9")
        code, out, _ = run(capsys, "verify", "--case", "AX-U", "--samples", "5")
        assert code == 0 and parse_report(out)[0]["seed"] == 9

    def test_garbage_environment_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("HYPMETRICS_SEED", "soon")
        code, _, err = run(capsys, "verify", "--case", "AX-U", "--samples", "5")
        assert code == 2 and "HYPMETRICS_SEED" in err

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

    def test_unparsable_schedule(self, capsys):
        code, _, err = run(capsys, "probe", "--id", "P6", "--schedule", "1,2,x,4")
        assert code == 2 and "could not parse schedule" in err

    @pytest.mark.parametrize("value", ["1e400", "-inf", "nan"])
    def test_non_finite_schedule(self, capsys, value):
        code, out, err = run(capsys, "probe", "--id", "P2", "--schedule", f"0.1,0.01,0.001,{value}")
        assert code == 2 and out == ""
        assert err == f"error: probe schedule values must be finite, got {float(value)!r}\n"

    def test_schedule_overflowing_the_family(self, capsys):
        # finite, but the family's arithmetic overflows to nan there
        argv = ["probe", "--id", "P6", "--schedule", "0.1,0.01,0.001,1e300", "--format", "json"]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: probe P6: the estimate at t = 1e+300 is nan\n"

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

    def test_rejects_wrong_shape(self, capsys, tmp_path):
        bad = tmp_path / "shape.json"
        bad.write_text(json.dumps([{"case_id": "X"}]))
        code, _, err = run(capsys, "report", "--in", str(bad))
        assert code == 2 and err.startswith("error:")
