"""Command line interface.

Four operations: evaluate one metric at a pair of points, run the
inequality catalog, drive sharpness probes, and render saved reports.
Exit codes: 0 on success, 1 when a verification or probe fails, 2 for
usage and configuration errors.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys

import numpy as np

from .geometry import (
    BoundaryCardinalityError,
    DomainMembershipError,
    FiniteComplement,
    ParameterError,
    UnitBall,
    UpperHalfSpace,
)
from .metrics import MetricId, evaluate_metric
from .suite import (
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    DEFAULT_SLACK,
    ConfigurationError,
    ScheduleError,
    catalog,
    check_case,
    parse_report,
    records_to_csv,
    records_to_json,
    records_to_text,
    run_probe,
)

_FORMATS = ("json", "csv", "text")
_NEGATIVE_LEAD = re.compile(r"-\.?\d")


def _takes_a_list(option: str) -> bool:
    """Whether ``option`` names one whose value is a comma-separated list
    of numbers; argparse also accepts unambiguous abbreviations of long
    options, such as ``--sched``."""
    return option in ("-x", "-y") or (
        len(option) > 2 and ("--remove".startswith(option) or "--schedule".startswith(option))
    )


def _attach_negative_lists(argv: list[str]) -> list[str]:
    """Spell ``-x -0.5,0`` as ``-x=-0.5,0``.

    argparse reads a token that starts with "-" and is not a plain
    negative number as an option, so a list whose first value is
    negative would leave its option without an argument.
    """
    out: list[str] = []
    for token in argv:
        if out and _NEGATIVE_LEAD.match(token) and _takes_a_list(out[-1]):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _parse_point(text: str) -> np.ndarray:
    parts = [p for p in text.replace(" ", "").split(",") if p != ""]
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ParameterError(
            f"could not parse point {text!r}; expected comma-separated floats"
        ) from None
    if len(values) < 2:
        raise ParameterError(f"point {text!r} needs at least two coordinates")
    return np.asarray(values, dtype=float)


def _resolve_seed(explicit: int | None) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get("HYPMETRICS_SEED")
    if env is None:
        return DEFAULT_SEED
    try:
        return int(env)
    except ValueError:
        raise ParameterError(f"HYPMETRICS_SEED must be an integer, got {env!r}") from None


def _emit(text: str, out: str | None, mode: str = "w") -> None:
    if out:
        try:
            with open(out, mode, encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParameterError(f"could not write {out}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def _render(data, fmt: str) -> str:
    """A list of records, or one record, as json, csv or text.  Each
    serializer is called by its module-global name, so that rebinding the
    name (as the benchmark's tracer does) reaches every command."""
    if fmt == "json":
        return records_to_json(data)
    if fmt == "csv":
        return records_to_csv(data)
    return records_to_text(data)


def _check_out(out: str | None) -> None:
    """Fail before any work when ``out`` cannot be written.  Append mode
    leaves an existing file, perhaps the report being read, untouched."""
    if out:
        created = not os.path.exists(out)
        _emit("", out, mode="a")
        if created:
            os.remove(out)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built on the first main() call and shared by every later one;
    # parse_args leaves the parser unchanged and the append actions copy
    # their defaults before appending
    parser = argparse.ArgumentParser(
        prog="hypmetrics",
        description="hyperbolic-type metrics on canonical domains: evaluation, "
        "inequality verification, sharpness probes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate one metric at a pair of points")
    ev.add_argument("--domain", choices=("ball", "halfspace", "complement"), required=True)
    ev.add_argument("--dim", type=int, default=None, help="dimension check; inferred from the points")
    ev.add_argument("--remove", action="append", default=[], metavar="POINT",
                    help="removed point of a complement domain; repeatable")
    ev.add_argument("--no-infinity-boundary", action="store_true",
                    help="complement only: leave infinity out of the boundary")
    ev.add_argument("--metric", default="u", choices=[m.value for m in MetricId])
    ev.add_argument("-x", required=True, metavar="POINT", help="comma-separated coordinates")
    ev.add_argument("-y", required=True, metavar="POINT", help="comma-separated coordinates")

    vf = sub.add_parser("verify", help="run inequality cases and emit a report")
    vf.add_argument("--case", action="append", default=None, metavar="ID",
                    help="case id; repeatable; default is the whole catalog")
    vf.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    vf.add_argument("--seed", type=int, default=None,
                    help=f"overrides HYPMETRICS_SEED; default {DEFAULT_SEED}")
    vf.add_argument("--slack", type=float, default=DEFAULT_SLACK)
    vf.add_argument("--format", choices=_FORMATS, default="json")
    vf.add_argument("--out", default=None, metavar="FILE")

    pb = sub.add_parser("probe", help="run sharpness probes and emit convergence tables")
    pb.add_argument("--id", action="append", default=None, metavar="ID",
                    help="probe id; repeatable; default is all probes")
    pb.add_argument("--schedule", default=None, metavar="T1,T2,...",
                    help="parameter override; needs exactly one --id")
    pb.add_argument("--format", choices=_FORMATS, default="csv")
    pb.add_argument("--out", default=None, metavar="FILE")

    rp = sub.add_parser("report", help="validate and render a saved report")
    rp.add_argument("--in", dest="infile", required=True, metavar="FILE")
    rp.add_argument("--format", choices=_FORMATS, default="text")
    rp.add_argument("--out", default=None, metavar="FILE")
    return parser


def _cmd_eval(args) -> int:
    x = _parse_point(args.x)
    y = _parse_point(args.y)
    if x.size != y.size:
        raise ParameterError(f"points have different dimensions: {x.size} and {y.size}")
    dim = int(x.size)
    if args.dim is not None and args.dim != dim:
        raise ParameterError(f"--dim {args.dim} does not match the {dim}-dimensional points")
    if args.domain == "ball":
        domain = UnitBall(dim)
    elif args.domain == "halfspace":
        domain = UpperHalfSpace(dim)
    else:
        if not args.remove:
            raise ParameterError("--domain complement needs at least one --remove point")
        removed = [_parse_point(p) for p in args.remove]
        domain = FiniteComplement(
            dim, removed, includes_infinity_boundary=not args.no_infinity_boundary
        )
    # squared coordinates beyond about 1e154 overflow, and so do ratios
    # over subnormal boundary distances; products of two tiny heights or
    # distances underflow to 0 and raise in a division instead.  Either
    # way the value is rejected
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            value = evaluate_metric(domain, args.metric, x, y)
        finite = bool(np.isfinite(value))
    except ArithmeticError as exc:
        value, finite = f"a {type(exc).__name__}", False
    if not finite:
        raise ParameterError(
            f"{args.metric} evaluates to {value} at these points: their coordinates are "
            "too large (or a distance to the boundary too small) for double precision"
        )
    print(f"{value:.12g}")
    return 0


def _cmd_verify(args) -> int:
    if args.samples < 1:
        raise ParameterError("--samples must be >= 1")
    seed = _resolve_seed(args.seed)
    cat = catalog()
    known = [c.case_id for c in cat.cases]
    ids = args.case if args.case else known
    unknown = [i for i in ids if i not in set(known)]
    if unknown:
        raise ParameterError(
            f"unknown case ids: {', '.join(unknown)}; known: {', '.join(known)}"
        )
    records = []
    all_pass = True
    for cid in ids:
        result = check_case(cat.case(cid), n_samples=args.samples, seed=seed, slack=args.slack)
        records.append(result.record())
        all_pass = all_pass and result.passed
    _emit(_render(records, args.format), args.out)
    return 0 if all_pass else 1


def _probe_csv(results) -> str:
    lines = []
    for res in results:
        lines.append(f"# probe {res.probe_id}: {res.notes}")
        lines.append("t,functional_value,deviation_from_expected")
        for t, v in zip(res.schedule, res.estimates):
            lines.append(f"{t:.12g},{v:.12g},{abs(v - res.expected_limit):.12g}")
        lines.append(
            f"# summary: expected_limit={res.expected_limit:.12g} "
            f"final_deviation={res.final_deviation:.12g} "
            f"monotone={str(res.monotone).lower()} pass={str(res.passed).lower()}"
        )
    return "\n".join(lines) + "\n"


def _cmd_probe(args) -> int:
    cat = catalog()
    known = [p.probe_id for p in cat.probes]
    ids = args.id if args.id else known
    unknown = [i for i in ids if i not in set(known)]
    if unknown:
        raise ParameterError(
            f"unknown probe ids: {', '.join(unknown)}; known: {', '.join(known)}"
        )
    overrides = None
    if args.schedule is not None:
        if len(ids) != 1:
            raise ParameterError("--schedule applies to exactly one --id")
        try:
            overrides = tuple(float(s) for s in args.schedule.split(","))
        except ValueError:
            raise ParameterError(f"could not parse schedule {args.schedule!r}") from None
    results = [run_probe(cat.probe(pid), overrides) for pid in ids]
    if args.format == "csv":
        text = _probe_csv(results)
    else:
        text = _render([res.record() for res in results], args.format)
    _emit(text, args.out)
    return 0 if all(res.passed for res in results) else 1


def _cmd_report(args) -> int:
    try:
        with open(args.infile, encoding="utf-8") as fh:
            raw = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"could not read report: {exc}") from None
    data = parse_report(raw)
    records = data if isinstance(data, list) else [data]
    _emit(_render(data, args.format), args.out)
    return 0 if all(rec.get("pass") for rec in records) else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser().parse_args(_attach_negative_lists(argv))
    try:
        _check_out(getattr(args, "out", None))
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "probe":
            return _cmd_probe(args)
        return _cmd_report(args)
    except (
        ParameterError,
        DomainMembershipError,
        BoundaryCardinalityError,
        ConfigurationError,
        ScheduleError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
