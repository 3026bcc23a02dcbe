"""Command-line front end.

Subcommands: amplitudes | master | langevin | golden | validate.  ``main``
runs each one: it reads the config, applies ``--t-max``, ``--dt`` and
``--window`` (whose value may follow after a space even when it starts with
'-'), creates ``--out``, eigensolves once and calls
``cmd_<name>(cfg, sd, out)``, which reduces engine blocks and writes its
files.  ``main`` prints every stderr line: one per error, and one
``warning: <message>`` per UserWarning a command raises.  ``cli`` holds no
grid rule: each command takes its time grids from ``RunConfig``.
Outputs are deterministic: fixed column order, every float written as the
exact bytes of Python's ``'%.17g' % x``, Unix line endings, singular time
points written as nan plus a sidecar ``singular_points.txt``.  Every CSV
file is written by one ``floatfmt.CsvWriter``: ``amplitudes`` and ``master``
hand it each block of ``master.time_blocks`` as the block arrives, and it
formats each file's lines in calls of at most ``floatfmt.CALL_NUMBERS``
numbers across blocks, so memory is bounded by one block, one call's
pending numbers per file and a few per-time vectors.  Each command asks the engine
for only the rows of Pdot and W it reads: ``golden`` row 0 (its W[0, 0]
loss rate), ``amplitudes`` none and ``master`` all of them.

Exit codes: 0 success, 1 validation failure, 2 config or I/O error
(including a time grid or fit window that is not usable) or running out of
memory, 3 numerical failure (LAPACK eigensolver non-convergence, a survival
amplitude too small to fit, a numpy BLAS without the LAPACK routines of
the W solve, a floating-point overflow, invalid operation or division by
zero: each command runs under ``np.errstate`` set to raise, outside the
few local blocks where a nan or inf is documented output).
"""

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys
import warnings

import numpy as np

from . import amplitudes, floatfmt, golden, langevin, master, model, validation
from .config import ConfigError, load_config
from .linalg import NumericalError, eigendecompose

@contextlib.contextmanager
def _csv(path, header):
    """A ``floatfmt.CsvWriter`` of a new file at ``path``, flushed on
    leaving the block."""
    with open(path, "wb") as fh:
        csv = floatfmt.CsvWriter(fh, header)
        yield csv
        csv.flush()


def _write_csv(path, header, *columns):
    with _csv(path, header) as csv:
        csv.rows(*columns)


def _write_singular_report(out_dir, singular_times):
    header = ("# time points where P(t) or the Wronskian is singular to tolerance; "
              "values written as nan" if singular_times.size
              else "# no singular time points")
    _write_csv(os.path.join(out_dir, "singular_points.txt"), header, singular_times)


def cmd_amplitudes(cfg, sd, out):
    times = cfg.time_grid()
    with _csv(os.path.join(out, "amplitudes.csv"), "t,n,m,re,im") as csv:
        for blk in master.time_blocks(sd, times, rows=0):
            csv.grid(blk.times, blk.a)

    a00 = amplitudes.survival_series(sd, times)[0]
    _write_csv(os.path.join(out, "survival.csv"), "t,re,im,abs",
               times, a00.real, a00.imag, np.hypot(a00.real, a00.imag))
    return 0


def cmd_master(cfg, sd, out):
    times = cfg.time_grid()
    singular = []
    with (_csv(os.path.join(out, "populations.csv"), "t,n,population") as occ_csv,
          _csv(os.path.join(out, "w_coeffs.csv"), "t,n,k,W") as w_csv,
          _csv(os.path.join(out, "master_residual.csv"),
               "t,residual,residual_balance") as res_csv):
        for blk in master.time_blocks(sd, times,
                                      condition_cap=cfg.tolerances["condition_cap"]):
            res, bal = master.master_residual(blk, cfg.initial)
            occ_csv.grid(blk.times, blk.p @ cfg.initial)
            w_csv.grid(blk.times, blk.w)
            res_csv.rows(blk.times, res, bal)
            singular.extend(blk.times[blk.singular].tolist())

    _write_singular_report(out, np.array(singular))
    return 0


def cmd_langevin(cfg, sd, out):
    times = cfg.time_grid()
    series = langevin.langevin_series(sd, times)
    _write_csv(os.path.join(out, "langevin.csv"), "t,a,b,omega_sq,gamma,singular",
               times, series.a00.real, series.a00.imag, series.omega_sq, series.gamma,
               series.singular)

    tsub = cfg.cov_times()
    cov = langevin.noise_covariance_grid(sd, tsub, cfg.initial, cfg.spec)
    _write_csv(os.path.join(out, "noise_cov.csv"), "t,t_prime,c_ff",
               np.repeat(tsub, len(tsub)), np.tile(tsub, len(tsub)), cov.ravel())

    _write_csv(os.path.join(out, "langevin_residual.csv"), "t,residual",
               times, langevin.langevin_residual(series))

    _write_singular_report(out, times[series.singular])
    return 0


def _json_number(x):
    """``x``, or None (JSON null) if it is not finite: strict JSON has no nan or inf."""
    return x if math.isfinite(x) else None


def cmd_golden(cfg, sd, out):
    window, times = cfg.fit_times()
    a00 = amplitudes.survival_series(sd, times)[0]
    fit = golden.fit_exponential(times, a00)
    pred = golden.perturbative_prediction(cfg.spec)

    wtimes = cfg.w00_times(pred.gamma)
    blocks = master.time_blocks(sd, wtimes, 1, cfg.tolerances["condition_cap"])
    w00 = np.array([w for blk in blocks for w in blk.w[:, 0, 0]])
    w_dev = golden.compare_exact_vs_golden(wtimes, w00, cfg.spec)

    report = {
        "gamma_pred": _json_number(pred.gamma),
        "gamma_fit": _json_number(fit.gamma_fit),
        "delta_omega_pred": _json_number(pred.delta_omega),
        "omega_fit": _json_number(fit.omega_fit),
        "window": [_json_number(float(t)) for t in window],
        "goodness": _json_number(fit.goodness),
        "w_deviation": _json_number(w_dev),
    }
    with open(os.path.join(out, "golden_report.json"), "w", newline="\n") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return 0


def cmd_validate(cfg, sd, out):
    results = validation.run_suite(cfg, sd)
    width = max(len(name) for name, _, _, _ in results)
    for name, value, tolerance, ok in results:
        status = "PASS" if ok else "FAIL"
        print(f"{status}  {name:<{width}}  value={value:.3e}  tol={tolerance:.1e}")
    passed = sum(ok for _, _, _, ok in results)
    print(f"{passed}/{len(results)} checks passed")
    return 0 if passed == len(results) else 1


# flags whose value may start with '-' (-1e-3, -inf, -5,10): argparse reads
# such a value as an option of its own unless '=' joins it to its flag
VALUE_FLAGS = ("--t-max", "--dt", "--window")


def _join_values(argv):
    """``argv`` with each of ``VALUE_FLAGS``, or a prefix of one that
    argparse would expand to it (``--d``), joined by '=' to the argument
    after it, so that argument reaches the flag's conversion and the run
    configuration's checks whatever its first character."""
    joined, args = [], iter(argv)
    for arg in args:
        flag = len(arg) > 2 and any(f.startswith(arg) for f in VALUE_FLAGS)
        value = next(args, None) if flag else None
        joined.append(arg if value is None else f"{arg}={value}")
    return joined


class _Parser(argparse.ArgumentParser):
    """Subcommand parsers are made of this class too, so every usage error
    prints one line on stderr and exits 2, as a config error does."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="oscbath",
        description="Exact master and Langevin equations for a harmonic "
                    "oscillator coupled to a finite bath")
    sub = parser.add_subparsers(dest="command", required=True)
    for handler in (cmd_amplitudes, cmd_master, cmd_langevin, cmd_golden, cmd_validate):
        name = handler.__name__.removeprefix("cmd_")
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--t-max", type=float, default=None, help="override time.t_max")
        p.add_argument("--dt", type=float, default=None, help="override time.dt")
        if name == "golden":
            p.add_argument("--window", help="fit window t1,t2")
        p.set_defaults(handler=handler, window=None)
    return parser


def main(argv=None):
    args = build_parser().parse_args(_join_values(sys.argv[1:] if argv is None else argv))
    overrides = {k: v for k, v in (("t_max", args.t_max), ("dt", args.dt)) if v is not None}
    caught = []
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", UserWarning)
            cfg = load_config(args.config)
            if args.window is not None:
                try:
                    t1, t2 = (float(x) for x in args.window.split(","))
                except ValueError as exc:
                    raise ConfigError(f"bad --window '{args.window}': expected t1,t2") from exc
                overrides["fit_window"] = (t1, t2)
            # replace() re-runs RunConfig's time-grid, phase and fit-window checks
            cfg = dataclasses.replace(cfg, **overrides)
            os.makedirs(args.out, exist_ok=True)
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                sd = eigendecompose(model.build_hamiltonian(cfg.spec))
                return args.handler(cfg, sd, args.out)
    except ConfigError as exc:
        message, code = f"config error: {exc}", 2
    except (np.linalg.LinAlgError, NumericalError, FloatingPointError) as exc:
        message, code = f"numerical failure: {exc}", 3
    except OSError as exc:
        message, code = f"i/o error: {exc}", 2
    except MemoryError as exc:  # numpy's names the allocation, Python's is bare
        message, code = "out of memory" + (f": {exc}" if str(exc) else ""), 2
    finally:
        # a warning prints before the error that ended its command; any
        # other category prints as the warnings module would have printed it
        for w in caught:
            if issubclass(w.category, UserWarning):
                print(f"warning: {w.message}", file=sys.stderr)
            else:
                warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
