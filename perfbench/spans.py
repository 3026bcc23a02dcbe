"""Span tracing of oscbath's public functions, and the per-layer metrics
computed from the spans.

The worker installs one wrapper per target function.  A wrapper records a
span (name, start, end, parent span, attributes) in memory; the worker
writes all spans out when its sample ends and the driver turns them into
per-layer metrics.  Per-element helpers such as ``cli.fmt`` (557k calls on
master-n51) are deliberately not wrapped: their cost shows up in the self
time of the span that calls them.
"""

import functools
import math
import sys
import time

# (module, function, per-layer metric that the span's self time adds to)
TARGETS = (
    ("oscbath.config", "load_config", "config.load_s"),
    ("oscbath.model", "build_hamiltonian", "model.build_s"),
    ("oscbath.linalg", "eigendecompose", "linalg.eigendecompose_s"),
    ("oscbath.amplitudes", "amplitudes_at", "amplitudes.dense_s"),
    ("oscbath.amplitudes", "survival_series", "amplitudes.series_s"),
    ("oscbath.master", "transition_probabilities", "master.probabilities_s"),
    ("oscbath.master", "master_coefficients", "master.solve_s"),
    ("oscbath.master", "master_coefficients_flagged", "master.solve_s"),
    ("oscbath.master", "evolve_populations", "master.trajectory_s"),
    ("oscbath.master", "master_residual", "master.trajectory_s"),
    ("oscbath.langevin", "langevin_residual", "langevin.coeffs_s"),
    ("oscbath.golden", "golden_rule_rates", "golden.rates_s"),
    ("oscbath.golden", "perturbative_prediction", "golden.fit_s"),
    ("oscbath.golden", "fit_exponential", "golden.fit_s"),
    ("oscbath.golden", "compare_exact_vs_golden", "golden.compare_s"),
    ("oscbath.validation", "run_suite", "validation.suite_s"),
    ("oscbath.validation", "two_mode_oracle", "validation.oracle_s"),
    ("oscbath.cli", "main", "cli.self_s"),
)


def span_name(module, function):
    """``oscbath.linalg``, ``eigendecompose`` -> ``linalg.eigendecompose``."""
    return f"{module.rsplit('.', 1)[-1]}.{function}"


SPAN_METRIC = {span_name(mod, fn): metric for mod, fn, metric in TARGETS}

# per-layer metric -> unit; every traced sample reports all of them
LAYER_UNITS = {
    "config.load_s": "s",
    "model.build_s": "s",
    "linalg.eigendecompose_s": "s",
    "linalg.eigendecompose_calls": "count",
    "linalg.dim": "count",
    "amplitudes.dense_s": "s",
    "amplitudes.dense_calls": "count",
    "amplitudes.dense_gflop": "GFLOP_computed",
    "amplitudes.series_s": "s",
    "amplitudes.series_points": "count",
    "master.probabilities_s": "s",
    "master.solve_s": "s",
    "master.solve_calls": "count",
    "master.nonsingular_frac": "fraction",
    "master.trajectory_s": "s",
    "langevin.coeffs_s": "s",
    "langevin.nonsingular_frac": "fraction",
    "golden.rates_s": "s",
    "golden.rates_calls": "count",
    "golden.fit_s": "s",
    "golden.compare_s": "s",
    "validation.suite_s": "s",
    "validation.oracle_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "trace.overhead_frac": "fraction",
}


def _attributes(name, args, result):
    """Work counts of one call, read from its arguments and result."""
    if name == "linalg.eigendecompose":
        return {"dim": len(args[0])}
    if name == "amplitudes.amplitudes_at":
        return {"dim": int(args[0].dim)}
    if name == "amplitudes.survival_series":
        return {"points": len(args[1])}
    if name == "langevin.langevin_residual":
        return {"points": len(result),
                "nonsingular": sum(math.isfinite(x) for x in result)}
    return {}


class Tracer:
    """In-memory span recorder; spans are ``[name, start, end, parent, attrs]``
    with ``parent`` the index of the enclosing span or None."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.installed = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None,
                    self._open[-1] if self._open else None, {}]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4]["raised"] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            span[4].update(_attributes(name, args, result))
            return result
        return traced

    def install(self):
        """Wrap every target at every place its name is looked up: the
        defining module and each loaded oscbath module (or the package)
        that imported it.  Targets missing from this version of oscbath are
        skipped and reported on stderr; their metrics then read 0."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "oscbath" or key.startswith("oscbath."))]
        for mod_name, fn_name, _ in TARGETS:
            original = getattr(sys.modules.get(mod_name), fn_name, None)
            if original is None:
                print(f"perfbench: {mod_name}.{fn_name} not found, not traced",
                      file=sys.stderr)
                continue
            name = span_name(mod_name, fn_name)
            wrapper = self.wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
            self.installed.append(name)


def self_times(spans):
    """Each span's duration minus the time covered by its child spans."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_metrics(spans, bytes_written):
    """Per-layer metrics of one traced sample (all but trace.overhead_frac)."""
    out = {name: 0.0 if unit == "s" else 0
           for name, unit in LAYER_UNITS.items() if name != "trace.overhead_frac"}
    solves = solves_ok = points = points_ok = 0
    for (name, _, _, _, attrs), own in zip(spans, self_times(spans)):
        out[SPAN_METRIC[name]] += own
        if name == "linalg.eigendecompose":
            out["linalg.eigendecompose_calls"] += 1
            out["linalg.dim"] = max(out["linalg.dim"], attrs["dim"])
        elif name == "amplitudes.amplitudes_at":
            out["amplitudes.dense_calls"] += 1
            # three dim x dim complex matmuls (A, Adot, Addot), 8 dim^3 flops each
            out["amplitudes.dense_gflop"] += 3 * 8 * attrs["dim"] ** 3 / 1e9
        elif name == "amplitudes.survival_series":
            out["amplitudes.series_points"] += attrs["points"]
        elif name == "master.master_coefficients":
            solves += 1
            solves_ok += "raised" not in attrs
        elif name == "langevin.langevin_residual":
            points += attrs["points"]
            points_ok += attrs["nonsingular"]
        elif name == "golden.golden_rule_rates":
            out["golden.rates_calls"] += 1
    out["master.solve_calls"] = solves
    # a fraction over zero attempts reads 0
    out["master.nonsingular_frac"] = solves_ok / solves if solves else 0.0
    out["langevin.nonsingular_frac"] = points_ok / points if points else 0.0
    out["cli.bytes_written"] = bytes_written
    return out
