import numpy as np
import pytest

import oscbath as ob
from oscbath.amplitudes import amplitudes_at, survival_series
from oscbath.langevin import langevin_residual, langevin_series, noise_covariance_grid

G = 0.1


def uncoupled_sd(omega=1.3):
    spec = ob.ModelSpec(omega=omega, bath_frequencies=np.array([0.5]),
                        couplings=np.zeros(1))
    return ob.eigendecompose(ob.build_hamiltonian(spec))


class TestCoefficients:
    def test_uncoupled(self):
        for lc in langevin_series(uncoupled_sd(), [0.5, 2.0, 11.0]):
            assert not lc.singular
            assert lc.omega_sq == pytest.approx(1.3 ** 2, abs=1e-12)
            assert lc.gamma == pytest.approx(0.0, abs=1e-12)

    def test_initial_values(self, two_osc_sd):
        lc = langevin_series(two_osc_sd, [0.7])[0]
        assert lc.a == pytest.approx(np.cos(0.7) * np.cos(G * 0.7), abs=1e-12)
        assert lc.b == pytest.approx(-np.sin(0.7) * np.cos(G * 0.7), abs=1e-12)
        lc0 = langevin_series(two_osc_sd, [0.0, 0.1])[0]
        assert lc0.a == pytest.approx(1.0) and lc0.b == pytest.approx(0.0, abs=1e-15)

    def test_resonant_closed_forms(self, two_osc_sd):
        times = np.linspace(0.1, 0.9 * np.pi / (2 * G), 15)
        for t, lc in zip(times, langevin_series(two_osc_sd, times)):
            assert abs(lc.gamma - 2 * G * np.tan(G * t)) <= 1e-8
            assert abs(lc.omega_sq - (1 + G ** 2 + 2 * G ** 2 * np.tan(G * t) ** 2)) <= 1e-8

    def test_wronskian_singularity_flagged(self, two_osc_sd):
        # cos(gt) node: a and b both vanish, the Wronskian is zero there
        t_sing = np.pi / (2 * G)
        lc = langevin_series(two_osc_sd, [t_sing])[0]
        assert lc.singular
        assert np.isnan(lc.gamma) and np.isnan(lc.omega_sq)

    def test_exponential_regime_plateau(self, bath201_sd, bath201_spec):
        pred = ob.perturbative_prediction(bath201_spec)
        coeffs = langevin_series(bath201_sd, np.arange(20.0, 80.0, 0.5))
        gammas = np.array([lc.gamma for lc in coeffs if not lc.singular])
        omegas = np.array([lc.omega_sq for lc in coeffs if not lc.singular])
        assert np.abs(gammas - pred.gamma).max() <= 0.15 * pred.gamma
        assert np.abs(np.sqrt(omegas) - (1.0 + pred.delta_omega)).max() <= 0.02


class TestResidual:
    def test_uncoupled_zero(self):
        res = langevin_residual(uncoupled_sd(), np.linspace(0.5, 10, 20))
        assert np.nanmax(res) <= 1e-12

    def test_two_oscillator(self, two_osc_sd):
        res = langevin_residual(two_osc_sd, np.linspace(0.1, 0.9 * np.pi / (2 * G), 30))
        assert np.nanmax(res) <= 1e-8

    def test_linear_bath(self, bath51_sd):
        res = langevin_residual(bath51_sd, np.linspace(0.5, 50, 100))
        finite = res[np.isfinite(res)]
        assert finite.max() <= 1e-6


class TestNoiseCovariance:
    def test_uncoupled_zero(self):
        sd = uncoupled_sd()
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
        a, _ = amplitudes_at(bath51_sd, times[[3, 7]])
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


def test_realness_residue(bath51_sd):
    # imaginary parts are algebraically zero; computed ones must be tiny
    a, adot, addot = survival_series(bath51_sd, [4.2])
    d = a[0] * np.conj(adot[0]) - np.conj(a[0]) * adot[0]
    om2 = (adot[0] * np.conj(addot[0]) - np.conj(adot[0]) * addot[0]) / d
    gam = -(a[0] * np.conj(addot[0]) - np.conj(a[0]) * addot[0]) / d
    scale = max(abs(om2), abs(gam), 1.0)
    assert abs(om2.imag) / scale <= 1e-10
    assert abs(gam.imag) / scale <= 1e-10
