"""Built-in invariant suite behind the `validate` CLI subcommand.

``run_suite`` returns (name, worst_value, tolerance, passed) rows, and its
``record`` alone decides ``passed``.  The two-mode closed-form oracle runs
regardless of the supplied model, so a validate run always exercises the
analytic reference case.
"""

import numpy as np

from . import langevin, master, model
from .linalg import eigendecompose


def _spectral_checks(h, sd):
    recon = sd.reconstruct()
    scale = np.linalg.norm(h)
    rec_res = np.linalg.norm(recon - h) / scale if scale > 0 else 0.0
    gram = sd.vectors.conj().T @ sd.vectors
    np.fill_diagonal(gram, np.diag(gram) - 1.0)
    uni = np.abs(gram).max()
    return rec_res, uni


def grid_invariants(sd, times, initial, condition_cap=None):
    """Worst invariant defects of the dense path over a time grid, reduced
    block by block as ``master.time_blocks`` yields them.

    Returns a dict: ``unitarity`` max |A A^H - I|, ``rows`` and ``cols``
    the double-stochasticity defects of P, ``positivity`` the most negative
    occupation (0 if none) and ``conservation`` the relative drift of the
    total quantum number.  Given a ``condition_cap``, it also solves W on
    each block and adds ``master_residual``, the largest finite
    master-equation residual (0 if every point is singular); without one, no
    W is solved.  A nan defect stays nan.
    """
    initial = np.asarray(initial, dtype=np.float64)
    worst = {}
    total0 = None
    eye = np.eye(sd.dim)
    # Pdot is read only to solve W
    rows = None if condition_cap is not None else 0
    for blk in master.time_blocks(sd, times, rows):
        gram = blk.a @ blk.a.conj().swapaxes(-1, -2)
        occ = blk.p @ initial
        totals = occ.sum(axis=-1)
        if total0 is None:
            total0 = totals[0]
        block_worst = {
            "unitarity": np.abs(gram - eye).max(),
            "rows": np.abs(blk.p.sum(axis=-1) - 1.0).max(),
            "cols": np.abs(blk.p.sum(axis=-2) - 1.0).max(),
            "positivity": 0.0 - occ.min(initial=0.0),  # never -0.0
            "drift": np.abs(totals - total0).max(),
        }
        if condition_cap is not None:
            w, _, _ = master.master_coefficients(blk.p, blk.pdot, condition_cap)
            res, _ = master.master_residual(blk, w, initial)
            block_worst["master_residual"] = res[np.isfinite(res)].max(initial=0.0)
        for key, value in block_worst.items():
            worst[key] = float(np.maximum(worst.get(key, 0.0), value))
    worst["conservation"] = worst.pop("drift") / abs(total0)
    return worst


def run_suite(cfg, sd):
    """Run every invariant on the configured model, given its spectral
    decomposition ``sd``; returns a list of (name, value, tolerance, passed)
    rows."""
    tol = cfg.tolerances
    results = []

    def record(name, value, tolerance):
        ok = bool(np.isfinite(value) and value <= tolerance)
        results.append((name, float(value), float(tolerance), ok))

    rec_res, uni = _spectral_checks(model.build_hamiltonian(cfg.spec), sd)
    record("spectral reconstruction", rec_res, 1e-12)
    record("eigenvector unitarity", uni, 1e-12)

    times = cfg.time_grid()
    worst = grid_invariants(sd, times, cfg.initial, tol["condition_cap"])
    record("amplitude unitarity", worst["unitarity"], tol["unitarity"])
    record("double stochasticity (rows)", worst["rows"], tol["stochasticity"])
    record("double stochasticity (cols)", worst["cols"], tol["stochasticity"])
    record("occupation positivity", worst["positivity"], 1e-12)
    record("total quanta conservation", worst["conservation"], tol["conservation"])
    record("master-equation residual", worst["master_residual"], tol["master_residual"])

    lres = langevin.langevin_residual(langevin.langevin_series(sd, times))
    finite = lres[np.isfinite(lres)]
    record("Langevin ODE residual", finite.max() if finite.size else 0.0,
           tol["langevin_residual"])

    for row in two_mode_oracle():
        record(*row)
    return results


def two_mode_oracle():
    """Closed-form resonant two-oscillator reference (g = 0.1, Omega = 1).

    A00 = exp(-it) cos(gt), W = g tan(2gt) [[-1, 1], [1, -1]],
    Gamma = 2 g tan(gt), Omega2 = Omega^2 + g^2 + 2 g^2 tan(gt)^2.
    """
    g = 0.1
    spec = model.ModelSpec(omega=1.0, bath_frequencies=np.array([1.0]),
                           couplings=np.array([g]))
    sd = eigendecompose(model.build_hamiltonian(spec))
    times = np.linspace(0.05, 0.9 * np.pi / (4 * g), 40)
    a00, w = [], []
    for blk in master.time_blocks(sd, times):
        a00.append(blk.a[:, 0, 0])
        w.append(master.master_coefficients(blk.p, blk.pdot)[0])
    a00, w = np.concatenate(a00), np.concatenate(w)
    worst_a = np.abs(a00 - np.exp(-1j * times) * np.cos(g * times)).max()
    w_exact = (g * np.tan(2 * g * times))[:, None, None] * np.array([[-1.0, 1.0],
                                                                     [1.0, -1.0]])
    worst_w = np.abs(w - w_exact).max()
    series = langevin.langevin_series(sd, times)
    tan = np.tan(g * times)
    worst_lang = np.abs(np.concatenate([
        series.gamma - 2 * g * tan,
        series.omega_sq - (1.0 + g ** 2 + 2 * g ** 2 * tan ** 2)])).max()
    return [
        ("two-mode survival closed form", worst_a, 1e-12),
        ("two-mode W closed form", worst_w, 1e-8),
        ("two-mode Langevin closed form", worst_lang, 1e-8),
    ]
