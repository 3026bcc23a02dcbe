"""Built-in invariant suite behind the `validate` CLI subcommand.

``run_suite`` returns (name, worst_value, tolerance, passed) rows, and its
``record`` alone decides ``passed``.  The two-mode closed-form oracle runs
regardless of the supplied model, so a validate run always exercises the
analytic reference case.
"""

import numpy as np

from . import langevin, master, model
from .linalg import eigendecompose

# spectral reconstruction and eigenvector unitarity are held to
# SPECTRAL_DIM_EPS * dim * eps: a backward-stable eigensolver's errors grow
# like dim * eps.  The shipped configs reach at most 0.75 dim eps (3.3e-16
# at dim 2), and 20 keeps the bound at or below 1e-12 up to dim 225
# (9.0e-13 at dim 202)
SPECTRAL_DIM_EPS = 20.0


def _spectral_checks(h, sd):
    recon = sd.reconstruct()
    scale = np.linalg.norm(h)
    rec_res = np.linalg.norm(recon - h) / scale if scale > 0 else 0.0
    return rec_res, _unitarity_defect(sd.vectors.conj().T)


def _unitarity_defect(a):
    """max |A A^H - I| over a stack of A, or over one matrix, reduced one
    time at a time in three (dim, dim) buffers made once per call: conj(A_k),
    its Gram A_k conj(A_k)^T, from which 1 comes off the diagonal in place,
    and the Gram's modulus.  Each Gram is the zgemm that a stacked matmul
    makes for its slice, so the defect is bit-equal to the stacked
    formula's, and a nan stays nan."""
    dim = a.shape[-1]
    conj, gram = np.empty((2, dim, dim), np.complex128)
    mag = np.empty((dim, dim))
    diagonal = gram.reshape(-1)[::dim + 1]
    worst = 0.0
    for a_k in a.reshape(-1, dim, dim):
        np.matmul(a_k, np.conjugate(a_k, out=conj).T, out=gram)
        diagonal -= 1.0
        worst = np.maximum(worst, np.abs(gram, out=mag).max())
    return worst


def grid_invariants(blocks, initial):
    """Worst invariant defects of the dense path, reduced block by block
    over ``blocks``, the ``master.time_blocks`` of one time grid.

    Returns a dict: ``unitarity`` max |A A^H - I|, ``rows`` and ``cols``
    the double-stochasticity defects of P, ``positivity`` the most negative
    occupation (0 if none) and ``conservation`` the relative drift of the
    total quantum number (the absolute drift if the initial total is 0).
    Where the blocks carry every row of W, this adds ``master_residual``,
    the largest master-equation residual at the times not flagged singular
    (0 if every point is singular).  A nan defect stays nan, and a grid
    with no times has every defect 0.
    """
    initial = np.asarray(initial, dtype=np.float64)
    worst = dict.fromkeys(("unitarity", "rows", "cols", "positivity", "drift"), 0.0)
    total0 = None
    for blk in blocks:
        occ = blk.p @ initial
        totals = occ.sum(axis=-1)
        if total0 is None:
            total0 = totals[0]
        block_worst = {
            "unitarity": _unitarity_defect(blk.a),
            "rows": np.abs(blk.p.sum(axis=-1) - 1.0).max(),
            "cols": np.abs(blk.p.sum(axis=-2) - 1.0).max(),
            "positivity": 0.0 - occ.min(initial=0.0),  # never -0.0
            "drift": np.abs(totals - total0).max(),
        }
        if blk.w is not None:
            res, _ = master.master_residual(blk, initial)
            block_worst["master_residual"] = res[~blk.singular].max(initial=0.0)
        for key, value in block_worst.items():
            worst[key] = float(np.maximum(worst.get(key, 0.0), value))
    worst["conservation"] = worst.pop("drift") / (abs(total0 or 0.0) or 1.0)
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
    spectral_tol = SPECTRAL_DIM_EPS * sd.dim * np.finfo(np.float64).eps
    record("spectral reconstruction", rec_res, spectral_tol)
    record("eigenvector unitarity", uni, spectral_tol)

    times = cfg.time_grid()
    worst = grid_invariants(
        master.time_blocks(sd, times, condition_cap=tol["condition_cap"]), cfg.initial)
    record("amplitude unitarity", worst["unitarity"], tol["unitarity"])
    record("double stochasticity (rows)", worst["rows"], tol["stochasticity"])
    record("double stochasticity (cols)", worst["cols"], tol["stochasticity"])
    record("occupation positivity", worst["positivity"], 1e-12)
    record("total quanta conservation", worst["conservation"], tol["conservation"])
    record("master-equation residual", worst["master_residual"], tol["master_residual"])

    series = langevin.langevin_series(sd, times)
    lres = langevin.langevin_residual(series)
    record("Langevin ODE residual", lres[~series.singular].max(initial=0.0),
           tol["langevin_residual"])

    for row in two_mode_oracle():
        record(*row)
    return results


def two_mode_oracle():
    """Closed-form two-oscillator references, Omega = 1 and g = 0.1, each
    reduced block by block as ``master.time_blocks`` yields it.

    Resonant (omega_1 = 1), at 40 times in [0.05, 0.9 pi / (4g)]:
    A00 = exp(-it) cos(gt), W = g tan(2gt) [[-1, 1], [1, -1]],
    Gamma = 2 g tan(gt), Omega2 = Omega^2 + g^2 + 2 g^2 tan(gt)^2.
    Detuned (omega_1 = 1.3), at 40 times in [0.05, 2 pi / R], with
    Sigma = (Omega + omega_1) / 2, delta = (Omega - omega_1) / 2 and
    R = sqrt(delta^2 + g^2): A00 = exp(-i Sigma t)(cos Rt - i (delta/R) sin Rt),
    W = pdot / (2p - 1) [[1, -1], [-1, 1]] with p = 1 - (g/R)^2 sin^2 Rt and
    pdot = -(g^2/R) sin 2Rt.  delta^2 > g^2 keeps |2p - 1| >= 0.386, so no
    time is singular.  A nan error stays nan, so it fails its row.
    """
    g = 0.1
    sigma, delta = (1.0 + 1.3) / 2, (1.0 - 1.3) / 2
    r = np.sqrt(delta ** 2 + g ** 2)

    def detuned(t):
        sin = np.sin(r * t)
        p = 1 - (g / r) ** 2 * sin ** 2
        return (np.exp(-1j * sigma * t) * (np.cos(r * t) - 1j * (delta / r) * sin),
                -(g ** 2 / r) * np.sin(2 * r * t) / (2 * p - 1))

    def resonant_langevin(t):
        tan = np.tan(g * t)
        return 2 * g * tan, 1.0 + g ** 2 + 2 * g ** 2 * tan ** 2

    # (row label, omega_1, last time, (A00, W00) closed form, (Gamma, Omega2) or None)
    cases = (
        ("two-mode", 1.0, 0.9 * np.pi / (4 * g),
         lambda t: (np.exp(-1j * t) * np.cos(g * t), -g * np.tan(2 * g * t)),
         resonant_langevin),
        ("detuned", 1.3, 2 * np.pi / r, detuned, None),
    )
    rows = []
    for label, omega_1, t_end, closed_form, langevin_form in cases:
        spec = model.ModelSpec(omega=1.0, bath_frequencies=np.array([omega_1]),
                               couplings=np.array([g]))
        sd = eigendecompose(model.build_hamiltonian(spec))
        times = np.linspace(0.05, t_end, 40)
        worst_a = worst_w = 0.0
        for blk in master.time_blocks(sd, times):
            a00, w00 = closed_form(blk.times)
            w_exact = w00[:, None, None] * np.array([[1.0, -1.0], [-1.0, 1.0]])
            worst_a = np.maximum(worst_a, np.abs(blk.a[:, 0, 0] - a00).max())
            worst_w = np.maximum(worst_w, np.abs(blk.w - w_exact).max())
        rows += [(f"{label} survival closed form", worst_a, 1e-12),
                 (f"{label} W closed form", worst_w, 1e-8)]
        if langevin_form is not None:
            series = langevin.langevin_series(sd, times)
            gamma, omega_sq = langevin_form(times)
            worst_lang = np.maximum(np.abs(series.gamma - gamma).max(),
                                    np.abs(series.omega_sq - omega_sq).max())
            rows.append((f"{label} Langevin closed form", worst_lang, 1e-8))
    return rows
