"""Span tracing of hypmetrics layers, installed from outside the package.

A traced run replaces module-level functions of ``hypmetrics.suite``,
``.geometry``, ``.metrics`` and ``.mobius`` with wrappers that record a
span per call: name, start, end, parent span and the op it belongs to.
Nothing inside the package is edited; ``uninstall`` puts every original
back, so untraced passes run the package exactly as shipped.

Wiring: ``suite.catalog()`` binds the metric functions when it is
built, ``metrics`` holds its own references to ``boundary_sup``,
``require_member`` and ``cross_ratio``, ``cli`` to ``check_case`` and
``records_to_json``, and ``evaluate_metric`` dispatches through
``metrics._DISPATCH``.  Each wrapper therefore replaces every reference
to its original in every package namespace, and the cached catalog is
dropped on install and on uninstall so that it is rebuilt against the
functions in force.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

LAYERS = (
    "suite.check_case",
    "suite.stream",
    "suite.sampling",
    "suite.recheck",
    "suite.serialize",
    "geometry.validation",
    "geometry.boundary_sup",
    "geometry.golden",
    "geometry.cross_ratio",
    "metrics.closed",
    "metrics.sup",
    "metrics.delta_fc",
    "mobius.apply",
)

# per-layer metric name -> (unit, better); the order is the print order
LAYER_METRICS = {
    "suite.stream.calls": ("count", "lower"),
    "suite.stream.self_s": ("s", "lower"),
    "suite.sampling.calls": ("count", "lower"),
    "suite.sampling.self_s": ("s", "lower"),
    "suite.sampling.draws_per_sample": ("draws/sample", "lower"),
    "suite.recheck.calls": ("count", "lower"),
    "suite.recheck.s": ("s", "lower"),
    "suite.serialize.s": ("s", "lower"),
    "suite.serialize.bytes": ("bytes", "lower"),
    "suite.check_case.self_s": ("s", "lower"),
    "geometry.validation.calls": ("count", "lower"),
    "geometry.validation.self_s": ("s", "lower"),
    "geometry.boundary_sup.calls": ("count", "lower"),
    "geometry.boundary_sup.self_s": ("s", "lower"),
    "geometry.golden.calls": ("count", "lower"),
    "geometry.golden.evals": ("count", "lower"),
    "geometry.golden.self_s": ("s", "lower"),
    "geometry.golden.useful_ratio": ("ratio", "higher"),
    "geometry.cross_ratio.calls": ("count", "lower"),
    "geometry.cross_ratio.self_s": ("s", "lower"),
    "metrics.closed.calls": ("count", "lower"),
    "metrics.closed.self_s": ("s", "lower"),
    "metrics.sup.calls": ("count", "lower"),
    "metrics.sup.self_s": ("s", "lower"),
    "metrics.delta_fc.calls": ("count", "lower"),
    "metrics.delta_fc.self_s": ("s", "lower"),
    "mobius.apply.calls": ("count", "lower"),
    "mobius.apply.self_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self, keep_spans: bool = True):
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.total_ns = dict.fromkeys(LAYERS, 0)
        self.keep_spans = keep_spans
        self.spans: list[tuple] = []  # (id, parent, name, start_ns, end_ns, op)
        self.op = None
        self.draws = 0
        self.golden_evals = 0
        self.golden_useful = 0
        self.serialized_bytes = 0
        self._stack: list[list] = []  # [span id, ns covered by child spans]
        self._next_id = 0
        self._sup_frames: list[list] = []
        self._restore: list = []

    # -- spans --------------------------------------------------------------

    def _open(self) -> list:
        frame = [self._next_id, 0, time.perf_counter_ns()]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame: list) -> None:
        end = time.perf_counter_ns()
        stack = self._stack
        stack.pop()
        sid, child_ns, start = frame
        dur = end - start
        parent = None
        if stack:
            stack[-1][1] += dur
            parent = stack[-1][0]
        self.calls[name] += 1
        self.self_ns[name] += dur - child_ns
        self.total_ns[name] += dur
        if self.keep_spans:
            self.spans.append((sid, parent, name, start, end, self.op))

    def wrap(self, layer: str, fn, name_of=None):
        """``fn`` recording one span per call; ``name_of(args)`` may pick
        the layer from the arguments."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = layer if name_of is None else name_of(args)
            frame = self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, frame)

        return traced

    @contextmanager
    def span(self, layer: str):
        frame = self._open()
        try:
            yield
        finally:
            self._close(layer, frame)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        from hypmetrics import cli, geometry, metrics, mobius, suite
        import hypmetrics

        modules = (hypmetrics, geometry, metrics, mobius, suite, cli)

        def replace(original, replacement):
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, replacement)
                        self._restore.append((setattr, mod, attr, original))
            for key, value in list(metrics._DISPATCH.items()):
                if value is original:
                    metrics._DISPATCH[key] = replacement
                    self._restore.append((dict.__setitem__, metrics._DISPATCH, key, original))

        def layer(name, *fns):
            for fn in fns:
                replace(fn, self.wrap(name, fn))

        # suite
        traced_check = self.wrap("suite.check_case", suite.check_case)

        def check_case(case, *args, **kwargs):
            self.op = (case.case_id, None)
            return traced_check(case, *args, **kwargs)

        replace(suite.check_case, check_case)

        traced_stream = self.wrap("suite.stream", suite._stream)

        def stream(seed, case_id, k):
            self.op = (case_id, k)
            return traced_stream(seed, case_id, k)

        replace(suite._stream, stream)
        layer("suite.sampling", suite._build_sample)

        sample_point = suite.sample_point

        def counted_sample_point(domain, rng):
            self.draws += 1
            return sample_point(domain, rng)

        replace(sample_point, counted_sample_point)

        refinement = suite.sup_refinement

        @contextmanager
        def recheck(*args, **kwargs):
            with self.span("suite.recheck"), refinement(*args, **kwargs):
                yield

        replace(refinement, recheck)

        traced_json = self.wrap("suite.serialize", suite.records_to_json)

        def records_to_json(records):
            text = traced_json(records)
            self.serialized_bytes += len(text.encode())
            return text

        replace(suite.records_to_json, records_to_json)

        # geometry
        layer("geometry.validation", geometry.as_point, geometry.require_member)
        layer("geometry.cross_ratio", geometry.cross_ratio)

        traced_sup = self.wrap("geometry.boundary_sup", geometry.boundary_sup)

        def boundary_sup(*args, **kwargs):
            frame: list = []
            self._sup_frames.append(frame)
            try:
                result = traced_sup(*args, **kwargs)
            finally:
                self._sup_frames.pop()
            self.golden_useful += sum(1 for v in frame if v == result[0])
            return result

        replace(geometry.boundary_sup, boundary_sup)

        traced_golden = self.wrap("geometry.golden", geometry._golden_max)

        def golden_max(fn, lo, hi, tol):
            def counted(t):
                self.golden_evals += 1
                return fn(t)

            result = traced_golden(counted, lo, hi, tol)
            if self._sup_frames:
                self._sup_frames[-1].append(result[1])
            return result

        replace(geometry._golden_max, golden_max)

        # metrics
        layer("metrics.closed", metrics.u_metric, metrics.rho, metrics.j_metric, metrics.j_tilde)
        layer(
            "metrics.sup",
            metrics.eta_metric,
            metrics.cassinian,
            metrics.triangular_ratio,
            metrics.alpha_metric,
            metrics.alpha_pair_form,
        )
        fc = geometry.FiniteComplement
        replace(
            metrics.delta_metric,
            self.wrap(
                "metrics.delta_fc",
                metrics.delta_metric,
                name_of=lambda a: "metrics.delta_fc" if isinstance(a[0], fc) else "metrics.closed",
            ),
        )

        # mobius
        layer("mobius.apply", mobius.map_domain)
        apply = mobius.MobiusMap.apply
        mobius.MobiusMap.apply = self.wrap("mobius.apply", apply)
        self._restore.append((setattr, mobius.MobiusMap, "apply", apply))

        suite.catalog.cache_clear()

    def uninstall(self) -> None:
        from hypmetrics import suite

        for setter, target, key, original in reversed(self._restore):
            setter(target, key, original)
        self._restore.clear()
        suite.catalog.cache_clear()

    # -- results ------------------------------------------------------------

    def counts(self) -> dict:
        """Deterministic counters; equal across traced passes of one input.
        Serialized bytes are left out: reports carry their wall times."""
        return {
            "calls": dict(self.calls),
            "draws": self.draws,
            "golden_evals": self.golden_evals,
            "golden_useful": self.golden_useful,
        }

    def layer_metrics(self) -> dict:
        """Per-layer metric values of this pass, overhead ratio excluded."""
        c, s = self.calls, self.self_ns
        out = {}
        for name in LAYERS:
            if name in ("suite.recheck", "suite.serialize"):
                continue
            if name != "suite.check_case":
                out[f"{name}.calls"] = c[name]
            out[f"{name}.self_s"] = s[name] / 1e9
        out["suite.recheck.calls"] = c["suite.recheck"]
        out["suite.recheck.s"] = self.total_ns["suite.recheck"] / 1e9
        out["suite.serialize.s"] = self.total_ns["suite.serialize"] / 1e9
        out["suite.serialize.bytes"] = self.serialized_bytes
        built = c["suite.sampling"]
        # a ratio over no work reads 0, so every workload reports every metric
        out["suite.sampling.draws_per_sample"] = self.draws / built if built else 0.0
        out["geometry.golden.evals"] = self.golden_evals
        golden = c["geometry.golden"]
        out["geometry.golden.useful_ratio"] = self.golden_useful / golden if golden else 0.0
        return out

    def span_records(self):
        for sid, parent, name, start, end, op in self.spans:
            yield {
                "id": sid,
                "parent": parent,
                "name": name,
                "start_ns": start,
                "end_ns": end,
                "op": list(op) if isinstance(op, tuple) else op,
            }
