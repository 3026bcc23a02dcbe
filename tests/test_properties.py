"""Derandomized property tests on random arrowhead models: a system
oscillator coupled to 1-11 bath modes that do not couple to each other, so
the one-particle Hamiltonian of dim 2-12 is an arrowhead matrix, with real
or complex couplings; and on resonant two-mode models, against their
closed forms."""

import numpy as np
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import oscbath as ob
from oscbath.amplitudes import survival_series
from oscbath.langevin import langevin_series
from oscbath.master import time_blocks

# derandomized: the same examples on every run, and no example database
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

unit = st.floats(0.0, 1.0)


@st.composite
def arrowheads(draw):
    """A ``ModelSpec`` with 1-11 bath modes, every |g_n| in [0.005, 0.3],
    and the same couplings times unit phases as a second one."""
    n = draw(st.integers(1, 11))
    draws = st.lists(unit, min_size=n, max_size=n)
    freqs = 0.1 + 1.9 * np.array(draw(draws))
    signs = np.where(np.array(draw(draws)) < 0.5, -1.0, 1.0)
    g = signs * (0.005 + 0.295 * np.array(draw(draws)))
    if draw(st.booleans()):
        g = g * np.exp(2j * np.pi * np.array(draw(draws)))
    rephased = g * np.exp(2j * np.pi * np.array(draw(draws)))
    omega = 0.5 + draw(unit)
    return (ob.ModelSpec(omega=omega, bath_frequencies=freqs, couplings=g),
            ob.ModelSpec(omega=omega, bath_frequencies=freqs, couplings=rephased))


times_lists = st.lists(st.floats(0.0, 20.0), min_size=1, max_size=4)


def solve(spec, times, rows=None):
    """The one TimeBlock over ``times``."""
    sd = ob.eigendecompose(ob.build_hamiltonian(spec))
    (blk,) = time_blocks(sd, times, rows)
    return blk


def w_error_bound(tol, w, condition):
    """``tol`` times the condition of each time's P and its largest |W|
    (at least 1): how far rounding in P or Pdot can move W = Pdot P^{-1}."""
    return tol * condition * np.abs(w).max(axis=(-2, -1), initial=1.0)


@PROPERTY
@given(arrowheads(), times_lists, st.integers(0, 12))
def test_row_subset_w_equals_full_rows(specs, times, rows):
    spec, _ = specs
    rows = min(rows, len(spec.couplings) + 1)
    full, part = solve(spec, times), solve(spec, times, rows)
    assert np.array_equal(part.p, full.p)
    assert part.pdot.shape == (len(times), rows, full.p.shape[-1])
    assert np.abs(part.pdot - full.pdot[:, :rows]).max(initial=0.0) <= 1e-14
    if rows == 0:
        assert part.w is None and part.condition is None and part.singular is None
        return
    assert part.w.shape == part.pdot.shape
    assert np.array_equal(part.singular, full.singular)
    assert np.allclose(part.condition, full.condition, rtol=1e-12, atol=0)
    ok = ~full.singular
    err = np.abs(part.w - full.w[:, :rows]).max(axis=(-2, -1), initial=0.0)
    assert np.all(err[ok] <= w_error_bound(1e-14, full.w, full.condition)[ok])
    assert np.isnan(part.w[full.singular]).all()


@PROPERTY
@given(arrowheads(), times_lists)
def test_invariant_under_coupling_phases(specs, times):
    # D = diag(1, g_n'/g_n) maps one model onto the other, and A onto
    # D A D^*, so |A|^2 and everything built from it does not move
    spec, rephased = specs
    blk, blk2 = solve(spec, times), solve(rephased, times)
    assert np.abs(blk2.p - blk.p).max() <= 1e-13
    assert np.abs(blk2.pdot - blk.pdot).max() <= 1e-13
    ok = ~(blk.singular | blk2.singular)
    err = np.abs(blk2.w - blk.w).max(axis=(-2, -1))
    assert np.all(err[ok] <= w_error_bound(1e-13, blk.w, blk.condition)[ok])


@PROPERTY
@given(arrowheads())
def test_eigenvalues_match_scipy_eigh(specs):
    for spec in specs:
        h = ob.build_hamiltonian(spec)
        alpha = ob.eigendecompose(h).eigenvalues
        reference = scipy.linalg.eigh(h, eigvals_only=True)
        tol = len(h) * np.finfo(float).eps * np.linalg.norm(h, 2)
        assert np.abs(alpha - reference).max() <= tol


@PROPERTY
@given(st.floats(0.5, 2.0), st.floats(0.01, 0.3), st.lists(unit, min_size=1, max_size=8))
def test_resonant_two_mode_closed_forms(omega, g, fractions):
    # Omega = omega_1: A00 = e^{-i Omega t} cos(gt), W = g tan(2gt) [[-1, 1],
    # [1, -1]] and Gamma = 2g tan(gt), on t <= 0.9 pi / (4g), short of the
    # pole of tan(2gt); tolerances as in validation.two_mode_oracle
    spec = ob.ModelSpec(omega=omega, bath_frequencies=[omega], couplings=[g])
    sd = ob.eigendecompose(ob.build_hamiltonian(spec))
    times = 0.9 * np.pi / (4 * g) * np.array(fractions)
    (blk,) = time_blocks(sd, times)
    assert not blk.singular.any()
    assert np.abs(blk.a[:, 0, 0] - np.exp(-1j * omega * times) * np.cos(g * times)).max() <= 1e-12
    w_exact = (g * np.tan(2 * g * times))[:, None, None] * np.array([[-1.0, 1.0], [1.0, -1.0]])
    assert np.abs(blk.w - w_exact).max() <= 1e-8
    series = langevin_series(sd, times)
    assert not series.singular.any()
    assert np.abs(series.gamma - 2 * g * np.tan(g * times)).max() <= 1e-8


# the largest error of the dim-2 amplitudes against their closed forms, in
# units of eps (1 + max|alpha| t), was 3.3 over 6,000 random parameter sets
# with t <= 100 or t <= 1000 (numpy 2.4, OpenBLAS 0.3.31): it does not grow
# with t beyond that unit.  The largest error of W, in units of
# eps (1 + max|alpha| t) (max|alpha| + |W00|) / |2p - 1|, was 1.8 over 12,000
# random sets of 8 times each, up to t = 10, 100 or 1000, and did not grow
# with t or as |2p - 1| fell to 1e-5.  Without the (1 + max|alpha| t) factor
# it grew with t (24 units at t <= 10, 1,800 at t <= 1000).  Without the
# |W00| term, which carries the rounding of P through 1 / (2p - 1), it grew
# as |2p - 1| fell (1,300 units below |2p - 1| = 1e-4)
DETUNED_C = 8.0


@PROPERTY
@given(st.floats(0.5, 2.0), st.floats(0.1, 2.0), st.floats(0.005, 0.3), unit,
       st.floats(-0.2, 0.2), st.booleans(), st.lists(st.floats(0.0, 100.0), min_size=1,
                                                     max_size=8))
def test_detuned_two_mode_closed_forms(omega, omega_1, g_abs, phase, v_self, resonant, times):
    # with Omega' = Omega + v_self, Sigma = (Omega' + omega_1) / 2,
    # delta = (Omega' - omega_1) / 2 and R = sqrt(delta^2 + |g|^2):
    # A00 = e^{-i Sigma t} (cos Rt - i (delta / R) sin Rt),
    # |A00|^2 = 1 - (|g| / R)^2 sin^2 Rt and A01 = -i (g / R) e^{-i Sigma t} sin Rt,
    # the amplitude from the system into the bath mode, and
    # W = pdot / (2p - 1) [[1, -1], [-1, 1]] with p = |A00|^2 and
    # pdot = -(|g|^2 / R) sin 2Rt, at every time not flagged singular.
    # Rounding of the phases alpha t grows with t, hence the unit
    # eps (1 + max|alpha| t)
    if resonant:
        omega_1 = omega + v_self
    g = g_abs * np.exp(2j * np.pi * phase)
    spec = ob.ModelSpec(omega=omega, bath_frequencies=[omega_1], couplings=[g],
                        self_shift=v_self)
    sd = ob.eigendecompose(ob.build_hamiltonian(spec))
    times = np.array(times)
    sigma, delta = (omega + v_self + omega_1) / 2, (omega + v_self - omega_1) / 2
    r = np.hypot(delta, g_abs)
    a00 = np.exp(-1j * sigma * times) * (np.cos(r * times) - 1j * (delta / r) * np.sin(r * times))
    p00 = 1 - (g_abs / r) ** 2 * np.sin(r * times) ** 2
    a01 = -1j * (g / r) * np.exp(-1j * sigma * times) * np.sin(r * times)
    w00 = -(g_abs ** 2 / r) * np.sin(2 * r * times) / (2 * p00 - 1)
    alpha_max = np.abs(sd.eigenvalues).max()
    tol = DETUNED_C * np.finfo(float).eps * (1 + alpha_max * times)
    (blk,) = time_blocks(sd, times)
    assert np.all(np.abs(survival_series(sd, times)[0] - a00) <= tol)
    assert np.all(np.abs(blk.a[:, 0, 0] - a00) <= tol)
    assert np.all(np.abs(blk.p[:, 0, 0] - p00) <= tol)
    assert np.all(np.abs(blk.a[:, 0, 1] - a01) <= tol)
    ok = ~blk.singular
    w_err = np.abs(blk.w - w00[:, None, None] * np.array([[1.0, -1.0], [-1.0, 1.0]]))
    w_tol = tol * (alpha_max + np.abs(w00)) / np.abs(2 * p00 - 1)
    assert np.all(w_err.max(axis=(-2, -1))[ok] <= w_tol[ok])
