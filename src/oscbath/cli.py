"""Command-line front end.

Subcommands: amplitudes | master | langevin | golden | validate.
Outputs are deterministic: fixed column order, 17-significant-digit floats,
Unix line endings, singular time points written as nan plus a sidecar
``singular_points.txt``.  ``amplitudes`` and ``master`` write each block of
``master.time_blocks`` as it arrives, the survival sums are formed block by
block, and every per-time CSV column is formatted one block at a time, so
memory is bounded by one block plus a few per-time vectors.
Each command asks the engine for only the rows of Pdot and W it reads:
``golden`` for row 0 (its W[0, 0] loss rate), ``amplitudes`` for none and
``master`` for all.

Exit codes: 0 success, 1 validation failure, 2 config or I/O error
(including a time grid or fit window that is not usable), 3 numerical
failure (LAPACK eigensolver non-convergence, a survival amplitude too small
to fit).  Errors print one line on stderr, and so does each warning.
"""

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import sys
import warnings

import numpy as np

from . import amplitudes, golden, langevin, master, model, validation
from .config import ConfigError, load_config
from .linalg import NumericalError, eigendecompose

MAX_COV_POINTS = 101  # per axis in noise_cov.csv
MAX_W00_POINTS = 201  # fit-window times at which golden solves W


def _subsample(times, points):
    """Every k-th time, k the smallest stride that keeps at most ``points``."""
    return times[::max(1, -(-(len(times) - 1) // (points - 1)))]


def _lines(template, *columns):
    """``template % row`` for each row of equal-length 1-D array columns.

    The columns become Python values one block of
    ``amplitudes.block_slices`` rows at a time, never the whole grid at
    once, so a long grid costs no more than one block of Python objects."""
    for s in amplitudes.block_slices(len(columns[0]), len(columns)):
        for row in zip(*(c[s].tolist() for c in columns)):
            yield template % row


@functools.cache
def _grid_template(shape, is_complex):
    """One time's lines of a ``shape`` array, index columns in C order."""
    value = "%.17g,%.17g\n" if is_complex else "%.17g\n"
    # "\0" marks where a line's time goes
    return "".join("\0" + "".join(f"{i}," for i in idx) + value
                   for idx in np.ndindex(shape))


def _grid_lines(times, values):
    """The (t, index..., value) lines of an array whose leading axis runs
    over ``times``, one string per time; a complex value gives re, im."""
    body = _grid_template(values.shape[1:], np.iscomplexobj(values))
    if np.iscomplexobj(values):
        values = np.stack((values.real, values.imag), axis=-1)
    for t, row in zip(times.tolist(), values.reshape(len(times), -1).tolist()):
        yield body.replace("\0", "%.17g," % t) % tuple(row)


@contextlib.contextmanager
def _open_csv(path, header):
    """``path`` open for writing with Unix line endings, ``header`` written."""
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        yield fh


def _write_csv(path, header, lines):
    with _open_csv(path, header) as fh:
        fh.writelines(lines)


def _write_singular_report(out_dir, singular_times):
    header = ("# time points where P(t) or the Wronskian is singular to tolerance; "
              "values written as nan" if singular_times.size
              else "# no singular time points")
    _write_csv(os.path.join(out_dir, "singular_points.txt"), header,
               _lines("%.17g\n", singular_times))


def _prepare(args):
    cfg = load_config(args.config)
    overrides = {}
    if args.t_max is not None:
        overrides["t_max"] = args.t_max
    if args.dt is not None:
        overrides["dt"] = args.dt
    window = getattr(args, "window", None)  # only golden has the flag
    if window is not None:
        try:
            t1, t2 = (float(x) for x in window.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad --window '{window}': expected t1,t2") from exc
        overrides["fit_window"] = (t1, t2)
    # replace() re-runs RunConfig's time-grid and fit-window checks
    cfg = dataclasses.replace(cfg, **overrides)
    os.makedirs(args.out, exist_ok=True)
    sd = eigendecompose(model.build_hamiltonian(cfg.spec))
    return cfg, sd


def cmd_amplitudes(args):
    cfg, sd = _prepare(args)
    times = cfg.time_grid()

    # lines are formatted block by block while the file is written
    lines = (line for blk in master.time_blocks(sd, times, rows=0)
             for line in _grid_lines(blk.times, blk.a))
    _write_csv(os.path.join(args.out, "amplitudes.csv"), "t,n,m,re,im", lines)

    a00, _, _ = amplitudes.survival_series(sd, times)
    _write_csv(os.path.join(args.out, "survival.csv"), "t,re,im,abs",
               _lines("%.17g,%.17g,%.17g,%.17g\n", times, a00.real, a00.imag,
                      np.hypot(a00.real, a00.imag)))
    return 0


def cmd_master(args):
    cfg, sd = _prepare(args)
    times = cfg.time_grid()

    singular = []
    with (_open_csv(os.path.join(args.out, "populations.csv"), "t,n,population") as occ_fh,
          _open_csv(os.path.join(args.out, "w_coeffs.csv"), "t,n,k,W") as w_fh,
          _open_csv(os.path.join(args.out, "master_residual.csv"),
                    "t,residual,residual_balance") as res_fh):
        for blk in master.time_blocks(sd, times):
            w, _, sing = master.master_coefficients(blk.p, blk.pdot,
                                                    cfg.tolerances["condition_cap"])
            res, bal = master.master_residual(blk, w, cfg.initial)
            occ_fh.writelines(_grid_lines(blk.times, blk.p @ cfg.initial))
            w_fh.writelines(_grid_lines(blk.times, w))
            res_fh.writelines(_lines("%.17g,%.17g,%.17g\n", blk.times, res, bal))
            singular.extend(blk.times[sing].tolist())

    _write_singular_report(args.out, np.array(singular))
    return 0


def cmd_langevin(args):
    cfg, sd = _prepare(args)
    times = cfg.time_grid()

    series = langevin.langevin_series(sd, times)
    _write_csv(os.path.join(args.out, "langevin.csv"), "t,a,b,omega_sq,gamma,singular",
               _lines("%.17g,%.17g,%.17g,%.17g,%.17g,%d\n", times, series.a00.real,
                      series.a00.imag, series.omega_sq, series.gamma, series.singular))

    tsub = _subsample(times, MAX_COV_POINTS)
    cov = langevin.noise_covariance_grid(sd, tsub, cfg.initial, cfg.spec)
    _write_csv(os.path.join(args.out, "noise_cov.csv"), "t,t_prime,c_ff",
               _lines("%.17g,%.17g,%.17g\n", np.repeat(tsub, len(tsub)),
                      np.tile(tsub, len(tsub)), cov.ravel()))

    _write_csv(os.path.join(args.out, "langevin_residual.csv"), "t,residual",
               _lines("%.17g,%.17g\n", times, langevin.langevin_residual(series)))

    _write_singular_report(args.out, times[series.singular])
    return 0


def _json_number(x):
    """``x``, or None (JSON null) if it is not finite: strict JSON has no
    nan or inf."""
    return x if math.isfinite(x) else None


def cmd_golden(args):
    cfg, sd = _prepare(args)
    window, times = cfg.fit_times()

    a00, _, _ = amplitudes.survival_series(sd, times)
    fit = golden.fit_exponential(times, a00)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        pred = golden.perturbative_prediction(cfg.spec)
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)

    wtimes = _subsample(times, MAX_W00_POINTS)
    w00 = []
    for blk in master.time_blocks(sd, wtimes, rows=1):
        w, _, _ = master.master_coefficients(blk.p, blk.pdot, cfg.tolerances["condition_cap"])
        # copied, since a view of W[:, 0, 0] would keep the block's whole W alive
        w00.append(w[:, 0, 0].copy())
    w00 = np.concatenate(w00)
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
    with open(os.path.join(args.out, "golden_report.json"), "w", newline="\n") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return 0


def cmd_validate(args):
    cfg, sd = _prepare(args)
    results = validation.run_suite(cfg, sd)
    width = max(len(name) for name, _, _, _ in results)
    failed = 0
    for name, value, tolerance, ok in results:
        status = "PASS" if ok else "FAIL"
        print(f"{status}  {name:<{width}}  value={value:.3e}  tol={tolerance:.1e}")
        if not ok:
            failed += 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


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
    handlers = {
        "amplitudes": cmd_amplitudes,
        "master": cmd_master,
        "langevin": cmd_langevin,
        "golden": cmd_golden,
        "validate": cmd_validate,
    }
    for name, handler in handlers.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--t-max", type=float, default=None, help="override time.t_max")
        p.add_argument("--dt", type=float, default=None, help="override time.dt")
        if name == "golden":
            p.add_argument("--window", default=None, help="fit window t1,t2")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (np.linalg.LinAlgError, NumericalError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
