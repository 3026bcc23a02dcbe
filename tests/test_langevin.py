import dataclasses
import os

import numpy as np
import pytest

import oscbath as ob
from conftest import uncoupled_sd
from oscbath.amplitudes import survival_series
from oscbath.langevin import (AMPLITUDE_NODE_TOL, WRONSKIAN_TOL, langevin_residual,
                              langevin_series, noise_covariance_grid)

G = 0.1
CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


class TestCoefficients:
    def test_uncoupled(self):
        series = langevin_series(uncoupled_sd(omega=1.3), [0.5, 2.0, 11.0])
        assert not series.singular.any()
        assert np.abs(series.omega_sq - 1.3 ** 2).max() <= 1e-12
        assert np.abs(series.gamma).max() <= 1e-12

    def test_initial_values(self, two_osc_sd):
        a00 = langevin_series(two_osc_sd, [0.7]).a00[0]
        assert a00.real == pytest.approx(np.cos(0.7) * np.cos(G * 0.7), abs=1e-12)
        assert a00.imag == pytest.approx(-np.sin(0.7) * np.cos(G * 0.7), abs=1e-12)
        a00 = langevin_series(two_osc_sd, [0.0, 0.1]).a00[0]
        assert a00.real == pytest.approx(1.0) and a00.imag == pytest.approx(0.0, abs=1e-15)

    def test_resonant_closed_forms(self, two_osc_sd):
        times = np.linspace(0.1, 0.9 * np.pi / (2 * G), 15)
        series = langevin_series(two_osc_sd, times)
        assert np.abs(series.gamma - 2 * G * np.tan(G * times)).max() <= 1e-8
        assert np.abs(series.omega_sq
                      - (1 + G ** 2 + 2 * G ** 2 * np.tan(G * times) ** 2)).max() <= 1e-8

    def test_wronskian_singularity_flagged(self, two_osc_sd):
        # cos(gt) node: a and b both vanish, the Wronskian is zero there
        t_sing = np.pi / (2 * G)
        series = langevin_series(two_osc_sd, [t_sing])
        assert series.singular[0]
        assert np.isnan(series.gamma[0]) and np.isnan(series.omega_sq[0])

    def test_exponential_regime_plateau(self, bath201_sd, bath201_spec):
        pred = ob.perturbative_prediction(bath201_spec)
        series = langevin_series(bath201_sd, np.arange(20.0, 80.0, 0.5))
        gammas = series.gamma[~series.singular]
        omegas = series.omega_sq[~series.singular]
        assert np.abs(gammas - pred.gamma).max() <= 0.15 * pred.gamma
        assert np.abs(np.sqrt(omegas) - (1.0 + pred.delta_omega)).max() <= 0.02


def residual(sd, times):
    return langevin_residual(langevin_series(sd, times))


class TestResidual:
    def test_uncoupled_zero(self):
        res = residual(uncoupled_sd(omega=1.3), np.linspace(0.5, 10, 20))
        assert np.nanmax(res) <= 1e-12

    def test_two_oscillator(self, two_osc_sd):
        res = residual(two_osc_sd, np.linspace(0.1, 0.9 * np.pi / (2 * G), 30))
        assert np.nanmax(res) <= 1e-8

    def test_linear_bath(self, bath51_sd):
        res = residual(bath51_sd, np.linspace(0.5, 50, 100))
        finite = res[np.isfinite(res)]
        assert finite.max() <= 1e-6

    def test_singular_point_is_nan(self, two_osc_sd):
        times = np.array([1.0, np.pi / (2 * G), 20.0])
        res = residual(two_osc_sd, times)
        assert np.isnan(res[1]) and np.isfinite(res[[0, 2]]).all()


class TestNoiseCovariance:
    def test_uncoupled_zero(self):
        sd = uncoupled_sd(omega=1.3)
        spec = ob.ModelSpec(omega=1.3, bath_frequencies=np.array([0.5]),
                            couplings=np.zeros(1))
        cov = noise_covariance_grid(sd, [2.0, 3.0], [1.0, 0.7], spec)
        assert np.abs(cov).max() <= 1e-25

    def test_vanishes_at_origin(self, two_osc_sd, two_osc_spec):
        cov = noise_covariance_grid(two_osc_sd, [0.0], [1.0, 0.3], two_osc_spec)
        assert abs(cov[0, 0]) <= 1e-30

    def test_resonant_equal_time(self, two_osc_sd, two_osc_spec):
        n1 = 0.3
        times = np.array([0.5, 2.0, 7.0])
        cov = noise_covariance_grid(two_osc_sd, times, [1.0, n1], two_osc_spec)
        expected = np.sin(G * times) ** 2 * (2 * n1 + 1) / 2.0
        assert np.abs(np.diag(cov) - expected).max() <= 1e-12

    def test_symmetry_and_positivity(self, bath51_sd, bath51_spec):
        init = ob.thermal_populations(bath51_spec, beta=1.0)
        times = np.linspace(0, 20, 11)
        cov = noise_covariance_grid(bath51_sd, times, init, bath51_spec)
        assert np.array_equal(cov, cov.T)
        assert np.diag(cov).min() >= 0.0
        # one entry from the dense amplitude rows and the docstring's sum
        (blk,) = ob.time_blocks(bath51_sd, times[[3, 7]], rows=0)
        a = blk.a
        c_pair = ((a[0, 0, 1:] * a[1, 0, 1:].conj()).real @ (2.0 * init[1:] + 1.0)
                  / (2.0 * bath51_spec.mass * bath51_spec.omega))
        assert cov[3, 7] == pytest.approx(c_pair, rel=1e-12)


def test_survival_row_unitarity(bath51_sd):
    """|A00|^2 + sum_m |A0m|^2 = 1: decay of the survival probability is
    exactly balanced by bath amplitudes."""
    times = np.linspace(0, 40, 17)
    rows = ob.system_row_series(bath51_sd, times)
    norms = (np.abs(rows) ** 2).sum(axis=1)
    assert np.abs(norms - 1.0).max() <= 1e-10


def complex_formula(a, adot, addot):
    """The complex ratios that ``langevin_series`` computes in real form,
    one time point at a time: (omega_sq, gamma, singular) and the largest
    imaginary part of any coefficient."""
    omega_sq, gamma, singular, imag = [], [], [], 0.0
    for z, zd, zdd in zip(a, adot, addot):
        d = z * np.conj(zd) - np.conj(z) * zd
        if (abs(d) <= 2.0 * WRONSKIAN_TOL * (abs(z) * abs(zd))
                or abs(z) <= AMPLITUDE_NODE_TOL):
            omega_sq.append(np.nan)
            gamma.append(np.nan)
            singular.append(True)
            continue
        om = (zd * np.conj(zdd) - np.conj(zd) * zdd) / d
        gm = -(z * np.conj(zdd) - np.conj(z) * zdd) / d
        omega_sq.append(om.real)
        gamma.append(gm.real)
        singular.append(False)
        imag = max(imag, abs(om.imag), abs(gm.imag))
    return np.array(omega_sq), np.array(gamma), np.array(singular), imag


def config_grid(name):
    cfg = ob.load_config(os.path.join(CONFIG_DIR, name))
    return ob.eigendecompose(ob.build_hamiltonian(cfg.spec)), cfg.time_grid()


def two_oscillator_singular_grid():
    # dt divides the Wronskian-zero spacing pi/(2g) into 100 steps, so the
    # grid lands on its zeros
    cfg = ob.load_config(os.path.join(CONFIG_DIR, "two_oscillator.json"))
    return (ob.eigendecompose(ob.build_hamiltonian(cfg.spec)),
            np.arange(2001) * (np.pi / (2 * G) / 100))


def random_phase_grid():
    cfg = ob.load_config(os.path.join(CONFIG_DIR, "linear_bath_n51.json"))
    rng = np.random.default_rng(11)
    phases = np.exp(2j * np.pi * rng.random(cfg.spec.n_bath))
    spec = dataclasses.replace(cfg.spec, couplings=cfg.spec.couplings * phases)
    return ob.eigendecompose(ob.build_hamiltonian(spec)), cfg.time_grid()


@pytest.mark.parametrize("grid, n_singular", [
    (lambda: config_grid("two_oscillator.json"), 0),
    (lambda: config_grid("linear_bath_n51.json"), None),
    (lambda: config_grid("linear_bath_n201.json"), None),
    (two_oscillator_singular_grid, 10),
    (random_phase_grid, None),
], ids=["two_oscillator", "n51", "n201", "two_oscillator_singular", "n51_random_phases"])
def test_real_form_equals_complex_formula(grid, n_singular):
    """The imaginary parts the complex formula creates are exactly zero,
    and the real form reproduces its real parts and flags bit for bit."""
    sd, times = grid()
    series = langevin_series(sd, times)
    omega_sq, gamma, singular, imag = complex_formula(*survival_series(sd, times, derivatives=2))
    assert imag == 0.0
    assert series.omega_sq.tobytes() == omega_sq.tobytes()
    assert series.gamma.tobytes() == gamma.tobytes()
    assert np.array_equal(series.singular, singular)
    if n_singular is not None:
        assert series.singular.sum() == n_singular
