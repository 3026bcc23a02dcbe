"""Package outputs against a 40-digit reference that shares no code with
numpy's LAPACK: mpmath's ``eighe`` of H's exact doubles.

The models, seeded ``conftest.complex_model``s and the digest matrix's
``complex_bath.json``, have complex couplings, a complex Hermitian
``bath_bath`` block and a nonzero ``v_self``, so H is a full complex
matrix.
"""

import dataclasses
import os

import numpy as np
import pytest
from mpmath import mp

import oscbath as ob
from conftest import complex_model, load_digest_tool
from oscbath.config import load_config, parse_config

EPS = np.finfo(np.float64).eps
# survival_series' A00 error in units of eps (1 + max|alpha| t): the
# measured maximum over the models below, 3.0 at dim 21, rounded up past
# it.  It falls at t = 0, where the error is that of sum_k |U[0, k]|^2 = 1
# and moves in steps of eps / 2; for t > 0 it was at most 1.67
A00_UNITS = 4.0
# the same for dA00 and d2A00, in one and two more factors of max|alpha|:
# the measured maxima, 1.65 and 0.98 at dim 21, rounded up
SERIES_UNITS = (A00_UNITS, 2.0, 1.5)
# the dense engine's A error in units of eps (dim + max|alpha| t), whose
# dim eps term is that of sum_k conj(U[n, k]) U[m, k] = delta_nm at small t,
# and its W error in units of eps (1 + max|alpha| t) condition
# (max|alpha| + max|W|), with the engine's own condition estimate: the
# measured maxima over the models and times below, 1.37
# (complex_bath.json, t = 69.6) and 1.47 (dim 4, condition 2,925), rounded
# up.  P's error in A's units and Pdot's in one more factor of max|alpha|:
# measured 1.5 (dim 8) and 0.20 (complex_bath.json), rounded up
A_UNITS = 2.0
P_UNITS = 2.0
PDOT_UNITS = 0.25
W_UNITS = 2.0
# W's row and column sums, exactly 0 since P is doubly stochastic, in W's
# unit: the worst grew with dim, 0.38 at dim 2 to 3.56 at dim 202, but
# over sqrt(dim) it read 0.15-0.28 on the models and shipped configs below
# and 0.45 on complex_bath.json
SUM_UNITS = 0.5


def reference_model(model):
    """The spec of ``complex_model(model, seed=model)`` for a dim, or of the
    digest matrix's config of that name."""
    if isinstance(model, int):
        return complex_model(model, seed=model)
    return parse_config(load_digest_tool().MADE[model]).spec


@pytest.mark.parametrize("model", [4, 8, 13, 21, "complex_bath.json"])
def test_survival_amplitude(model):
    h = ob.build_hamiltonian(reference_model(model))
    sd = ob.eigendecompose(h)
    dim = sd.dim
    times = np.linspace(0.0, 60.0, 120)
    got = ob.survival_series(sd, times, derivatives=True)
    with mp.workdps(40):
        alpha, u = mp.eighe(mp.matrix(h.tolist()))
        weights = [abs(u[0, k]) ** 2 for k in range(dim)]
        # A00, dA00 and d2A00: the sums weighted by 1, -i alpha and -alpha^2
        factors = [[1, -1j * a, -a ** 2] for a in alpha]
        error = np.zeros((3, len(times)))
        for i, t in enumerate(times.tolist()):
            terms = [w * mp.expj(-a * t) for w, a in zip(weights, alpha)]
            for d in range(3):
                ref = mp.fsum(x * f[d] for x, f in zip(terms, factors))
                error[d, i] = abs(mp.mpc(got[d, i]) - ref)
    max_alpha = np.abs(sd.eigenvalues).max()
    ratio = error / (EPS * (1.0 + max_alpha * times) * max_alpha ** np.arange(3)[:, None])
    for d, units in enumerate(SERIES_UNITS):
        assert ratio[d].max() <= units, (d, ratio[d].max(), times[ratio[d].argmax()])


def dense_reference(h, times):
    """A, P = |A|^2, Pdot and W = Pdot P^-1 at each of ``times`` as mpmath
    matrices at the working precision, from ``mp.eighe`` of ``h``'s exact
    doubles."""
    dim = len(h)
    alpha, u = mp.eighe(mp.matrix(h.tolist()))
    # pairs[n][m][k] = conj(U[n, k]) U[m, k]
    pairs = [[[mp.conj(u[n, k]) * u[m, k] for k in range(dim)] for m in range(dim)]
             for n in range(dim)]
    for t in times:
        phases = [mp.expj(-a * t) for a in alpha]
        rates = [-1j * a * ph for a, ph in zip(alpha, phases)]
        a, p, pdot = (mp.matrix(dim, dim) for _ in range(3))
        for n in range(dim):
            for m in range(dim):
                a[n, m] = mp.fdot(pairs[n][m], phases)
                p[n, m] = abs(a[n, m]) ** 2
                pdot[n, m] = 2 * mp.re(mp.conj(a[n, m]) * mp.fdot(pairs[n][m], rates))
        yield a, p, pdot, pdot * mp.inverse(p)


def w_unit(max_alpha, t, condition, w_max):
    """W's error unit, eps (1 + max|alpha| t) condition (max|alpha| + max|W|)."""
    return EPS * (1.0 + max_alpha * t) * condition * (max_alpha + w_max)


@pytest.mark.parametrize("model", [4, 8, 13, "complex_bath.json"])
def test_dense_amplitudes_and_w(model):
    h = ob.build_hamiltonian(reference_model(model))
    sd = ob.eigendecompose(h)
    dim = sd.dim
    # a few fixed times and the six worst-conditioned of a fine scan
    scan_times = np.linspace(0.3, 80.0, 400)
    condition = np.concatenate([blk.condition for blk in ob.time_blocks(sd, scan_times)])
    times = np.sort(np.concatenate([[0.0, 0.05, 0.3, 1.0, 7.0, 30.0],
                                    scan_times[np.argsort(condition)[-6:]]]))
    (blk,) = ob.time_blocks(sd, times)
    assert not blk.singular.any()
    max_alpha = np.abs(sd.eigenvalues).max()
    ratios = {name: [] for name in ("a", "p", "pdot", "w")}
    with mp.workdps(40):
        for i, refs in enumerate(dense_reference(h, times.tolist())):
            a, p, pdot, w = ([x for row in ref.tolist() for x in row] for ref in refs)
            a_unit = EPS * (dim + max_alpha * times[i])
            for name, ref, unit in (("a", a, a_unit), ("p", p, a_unit),
                                    ("pdot", pdot, a_unit * max_alpha)):
                got = getattr(blk, name)[i].ravel().tolist()
                ratios[name].append(max(abs(mp.mpmathify(x) - y)
                                        for x, y in zip(got, ref)) / unit)
            w_err = max(abs(mp.mpf(x) - y) for x, y in zip(blk.w[i].ravel().tolist(), w))
            w_max = max(abs(y) for y in w)
            ratios["w"].append(w_err / w_unit(max_alpha, times[i], blk.condition[i], w_max))
    for name, units in (("a", A_UNITS), ("p", P_UNITS), ("pdot", PDOT_UNITS), ("w", W_UNITS)):
        ratio = np.array(ratios[name], dtype=np.float64)
        assert ratio.max() <= units, (name, ratio.max(), times[ratio.argmax()])


CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
# a reference model on 400 times in [0.3, 80] (overrides None), or a
# shipped config on its grid; n201's to t = 20 at a step of 0.4 keeps
# t = 0.4, where its worst sum falls on the config's own step
SUM_CASES = [(4, None), (8, None), (13, None), ("complex_bath.json", None),
             ("two_oscillator.json", {}), ("linear_bath_n51.json", {}),
             ("linear_bath_n201.json", {"t_max": 20.0, "dt": 0.4})]


@pytest.mark.parametrize("model, overrides", SUM_CASES, ids=[str(m) for m, _ in SUM_CASES])
def test_w_row_and_column_sums_vanish(model, overrides):
    # P's rows and columns sum to 1, so W 1 = 0 and 1^T W = 0
    if overrides is None:
        spec, times = reference_model(model), np.linspace(0.3, 80.0, 400)
    else:
        cfg = dataclasses.replace(load_config(os.path.join(CONFIG_DIR, model)), **overrides)
        spec, times = cfg.spec, cfg.time_grid()
    sd = ob.eigendecompose(ob.build_hamiltonian(spec))
    max_alpha = np.abs(sd.eigenvalues).max()
    start = 0
    for blk in ob.time_blocks(sd, times):
        t = times[start:start + len(blk.condition)]
        start += len(t)
        ok = ~blk.singular
        w = blk.w[ok]
        unit = w_unit(max_alpha, t[ok], blk.condition[ok], np.abs(w).max(axis=(1, 2)))
        for axis in (-1, -2):
            ratio = np.abs(w.sum(axis=axis)).max(axis=-1) / unit
            assert ratio.max(initial=0.0) <= SUM_UNITS * np.sqrt(sd.dim), (axis, ratio.max())
    assert start == len(times)
