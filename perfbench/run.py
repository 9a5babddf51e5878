"""hypmetrics benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a hypmetrics checkout; the package is imported from
its ``src`` directory, so nothing needs installing.  Workloads are
described in ``bench.py``.

Times are reported at a nominal machine speed: every measured unit of
work is bracketed by timings of a fixed calibration kernel that does not
touch hypmetrics (``bench.calibration_s``), and its time is rescaled by
the kernel's nominal over measured time.  On shared machines whose speed
drifts this keeps run-to-run spread several times below that of raw wall
time; the raw medians are kept in the result file.

``--trace 0`` measures the end-to-end metrics with tracing off:

- ``setup_s``: median over fresh interpreters of importing hypmetrics,
  building ``catalog()`` and making the first calls that fill the
  coarse-grid caches;
- ``ops_per_s``: median over rounds of sampled configurations checked per
  second through ``main`` including JSON serialization (verify
  workloads), or of metric calls per second (``eval_scalar``);
- ``op_us.p50`` and ``op_us.p99``: percentiles over the distinct ops (a
  ``verify --case`` job at one seed, or one ``evaluate_metric`` call) of
  each op's median latency over its repeats.  When fewer than ten ops lie
  beyond the 99th percentile, the highest percentile that has ten is
  reported, and the provenance names it with the count;
- ``probe_s``: median time of one ``run_probe`` pass over all probes,
  made once per round on every workload;
- ``peak_rss_mb``: peak resident set of the workload process after the
  timed rounds.

``--trace 1`` alternates untraced and traced passes over the first
round's inputs and reports the per-layer metrics of ``tracing.py``.

Every run checks the outputs outside the timed region (verdicts,
determinism at equal seeds, the value oracle, the probes) and counts
failed checks against checks made in ``failed`` and ``attempted``.
Results and provenance go to ``perfbench/results/``; the last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_us.p50": "us",
    "op_us.p99": "us",
    "probe_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_REPEATS = 9

# prints the set-up time, then the calibration kernel's median time
# measured afterwards in the same interpreter
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from hypmetrics import UnitBall, UpperHalfSpace, catalog, evaluate_metric
catalog()
evaluate_metric(UnitBall(3), "eta", [0.1, 0.2, 0.3], [-0.4, 0.1, 0.0])
evaluate_metric(UpperHalfSpace(3), "eta", [0.1, 0.2, 0.3], [-0.4, 0.1, 2.0])
elapsed = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
from bench import calibration_s
print(repr(elapsed), repr(sorted(calibration_s() for _ in range(3))[1]))
"""


def bootstrap() -> None:
    """Import hypmetrics from this checkout's sources, or exit with 2."""
    pkg = SRC / "hypmetrics"
    if not (pkg / "__init__.py").is_file():
        print(f"error: no hypmetrics sources under {SRC}; run from a checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import hypmetrics

    if Path(hypmetrics.__file__).resolve().parent != pkg:
        print(f"error: imported hypmetrics from {hypmetrics.__file__}, not {pkg}", file=sys.stderr)
        sys.exit(2)


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return "unavailable: not a git checkout"
    return "unknown"


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "hypmetrics").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def measure_setup(bench) -> tuple[float, float]:
    """Median set-up time over fresh interpreters, after one unmeasured
    start that writes the bytecode caches: (at nominal speed, raw)."""
    argv = [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH_DIR)]
    times, raw = [], []
    subprocess.run(argv, cwd=ROOT, capture_output=True, timeout=120, check=True)
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        t, cal = (float(v) for v in out.stdout.split()[-2:])
        times.append(t * bench.speed_factor(cal, cal))
        raw.append(t)
    return statistics.median(times), statistics.median(raw)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------


def run_untraced(bench, workload: str, seed: int, seconds: float):
    import oracle

    checks = bench.Checks()
    checks.add(bench.partition_failures())
    seeds = bench.round_seeds(seed)
    verify = workload != "eval_scalar"
    n = bench.SAMPLES_PER_CASE
    if verify:
        cases = bench.cases_of(workload)
        bench.verify_round(cases, next(seeds), bench.WARMUP_SAMPLES)
        round_seeds = [next(seeds) for _ in range(bench.VERIFY_SEEDS)]
        ops_per_round = len(cases)
        work_per_round = len(cases) * n

        def run_round(i, latencies_ns):
            return bench.verify_round(cases, round_seeds[i], n, latencies_ns)
    else:
        inp = bench.scalar_inputs(seed)
        ref_values = bench.scalar_pass(inp)
        round_seeds = [None]  # one round: every call of the pool
        ops_per_round = work_per_round = len(inp.calls)

        def run_round(i, latencies_ns):
            return bench.scalar_pass(inp, latencies_ns)

    ref_probes = bench.probe_pass()
    ref_sig = bench.probe_signature(ref_probes)
    first_outputs = [None] * len(round_seeds)

    def check_round(i, out, probes):
        """Checks of one round, made between rounds, outside the timing;
        only the first output of each round is kept."""
        checks.add([] if bench.probe_signature(probes) == ref_sig else "probe results changed between passes")
        if not verify:
            checks.add([] if bench.same_values(out, ref_values) else "scalar values changed between passes")
        elif first_outputs[i] is None:
            first_outputs[i] = out
            for cid, code, text in out:
                checks.add(bench.verdict_problems(cid, code, text, n))
        else:
            checks.add(bench.determinism_problems(first_outputs[i], out))

    # a round is its work and one probe pass, bracketed by kernel timings
    # that rescale its times to the nominal machine speed
    op_times = [[array("d") for _ in range(ops_per_round)] for _ in round_seeds]
    rates, raw_rates, probe_times = [], [], []
    deadline = time.perf_counter() + seconds
    cal = bench.calibration_s()
    while True:
        for i in range(len(round_seeds)):
            round_ns: list[int] = []
            start = time.perf_counter()
            out = run_round(i, round_ns)
            work_s = time.perf_counter() - start
            start = time.perf_counter()
            probes = bench.probe_pass()
            probe_s = time.perf_counter() - start
            cal_next = bench.calibration_s()
            k = bench.speed_factor(cal, cal_next)
            rates.append(work_per_round / (work_s * k))
            raw_rates.append(work_per_round / work_s)
            probe_times.append(probe_s * k)
            for times, ns in zip(op_times[i], round_ns):
                times.append(ns * k)
            check_round(i, out, probes)
            cal = bench.calibration_s()
        if time.perf_counter() >= deadline:
            break
    rss = peak_rss_mb()

    reference = oracle.probe_reference()
    for res in ref_probes:
        checks.add(oracle.check_probe(res.probe_id, res.passed, res.estimates, reference))
    if not verify:
        bench.check_values(checks, inp, ref_values)

    latencies = sorted(statistics.median(t) for per_round in op_times for t in per_round)
    tail = bench.tail_percentile(len(latencies))
    setup_s, raw_setup_s = measure_setup(bench)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": statistics.median(rates),
        "op_us.p50": bench.percentile(latencies, 50.0) / 1e3,
        "op_us.p99": bench.percentile(latencies, tail) / 1e3,
        "probe_s": statistics.median(probe_times),
        "peak_rss_mb": rss,
    }
    extra = {
        "rounds": len(rates),
        "distinct_ops": len(latencies),
        "repeats_per_op": len(op_times[0][0]),
        "probe_passes": len(probe_times) + 1,
        "op_us.p99_percentile": tail,
        "op_us.p99_ops_beyond": len(latencies) - math.ceil(tail / 100.0 * len(latencies)),
        "raw_setup_s": raw_setup_s,
        "raw_ops_per_s": statistics.median(raw_rates),
    }
    return {k: (v, END_TO_END[k]) for k, v in metrics.items()}, checks, extra, None


def run_traced(bench, workload: str, seed: int, seconds: float):
    import oracle
    from tracing import LAYER_METRICS, Tracer

    checks = bench.Checks()
    checks.add(bench.partition_failures())
    verify = workload != "eval_scalar"
    n = bench.SAMPLES_PER_CASE
    if verify:
        cases = bench.cases_of(workload)
        seeds = bench.round_seeds(seed)
        bench.verify_round(cases, next(seeds), bench.WARMUP_SAMPLES)
        rseed = next(seeds)  # the first round of an untraced run

        def work(tracer=None):
            return bench.verify_round(cases, rseed, n)
    else:
        inp = bench.scalar_inputs(seed)

        def work(tracer=None):
            return bench.scalar_pass(inp, tracer=tracer), bench.probe_signature(bench.probe_pass(tracer))

    work()  # warm-up
    untraced, traced, factors, outputs, passes = [], [], [], [], []
    first_tracer = None
    deadline = time.perf_counter() + seconds
    cal = bench.calibration_s()
    while True:
        start = time.perf_counter()
        outputs.append(work())
        t = time.perf_counter() - start
        cal_mid = bench.calibration_s()
        untraced.append(t * bench.speed_factor(cal, cal_mid))
        tracer = Tracer(keep_spans=first_tracer is None)
        tracer.install()
        try:
            start = time.perf_counter()
            outputs.append(work(tracer))
            t = time.perf_counter() - start
        finally:
            tracer.uninstall()
        cal = bench.calibration_s()
        factors.append(bench.speed_factor(cal_mid, cal))
        traced.append(t * factors[-1])
        first_tracer = first_tracer or tracer
        passes.append(tracer)
        if time.perf_counter() >= deadline:
            break

    reference = outputs[0]
    if verify:
        for cid, code, text in reference:
            checks.add(bench.verdict_problems(cid, code, text, n))
        for out in outputs[1:]:
            checks.add(bench.determinism_problems(reference, out))
    else:
        values, probe_sig = reference
        bench.check_values(checks, inp, values)
        ref = oracle.probe_reference()
        for pid, passed, estimates in probe_sig:
            checks.add(oracle.check_probe(pid, passed, estimates, ref))
        for out in outputs[1:]:
            same = bench.same_values(out[0], values) and out[1] == probe_sig
            checks.add([] if same else "traced and untraced outputs differ")
    counts = first_tracer.counts()
    for t in passes[1:]:
        checks.add([] if t.counts() == counts else "layer counts differ between traced passes")
    checks.add(bench.layer_problems(workload, counts["calls"]))

    per_pass = [t.layer_metrics() for t in passes]
    metrics = {}
    for name, value in per_pass[0].items():
        if LAYER_METRICS[name][0] == "s":
            value = statistics.median(p[name] * k for p, k in zip(per_pass, factors))
        metrics[name] = value
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    extra = {"traced_passes": len(traced), "spans_in_first_pass": len(first_tracer.spans)}
    return {k: (metrics[k], LAYER_METRICS[k][0]) for k in LAYER_METRICS}, checks, extra, first_tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hypmetrics benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bootstrap()
    import numpy as np

    import bench

    if args.workload not in bench.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(bench.WORKLOADS)}")

    runner = run_traced if args.trace else run_untraced
    metrics, checks, extra, tracer = runner(bench, args.workload, args.seed, args.seconds)

    import hypmetrics

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "run_seconds": args.seconds,
        **(
            {"points_per_pair": bench.POINTS_PER_PAIR}
            if args.workload == "eval_scalar"
            else {"samples_per_case": bench.SAMPLES_PER_CASE, "seeds_per_pass": bench.VERIFY_SEEDS}
        ),
        **extra,
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "hypmetrics": hypmetrics.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
    }
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"provenance": provenance, **result, "error_rate": result["failed"] / result["attempted"],
              "failures": checks.failures[:50]}
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None:
        with open(RESULTS / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.span_records():
                fh.write(json.dumps(span) + "\n")

    for msg in checks.failures[:20]:
        print(f"FAILED CHECK: {msg}", file=sys.stderr)
    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:>16.6g}  {unit}")
    print(f"{'error_rate':<{width}}  {record['error_rate']:>16.6g}  ratio  "
          f"({result['failed']} of {result['attempted']} checks failed)")
    for key, value in provenance.items():
        print(f"# {key}: {value}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
