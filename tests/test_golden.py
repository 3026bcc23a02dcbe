import os

import numpy as np
import pytest

import oscbath as ob
import oscbath.golden
from oscbath.amplitudes import survival_series
from oscbath.cli import main
from oscbath.golden import (compare_exact_vs_golden, delta_t, fit_exponential,
                            golden_rule_rate_00, perturbative_prediction)
from oscbath.linalg import NumericalError
from oscbath.master import master_coefficients, time_blocks


def golden_rule_rates(spec, t):
    """Dense reference for ``golden_rule_rate_00``: Gamma[n, m] =
    2 pi |v_nm|^2 delta_t(omega_n - omega_m) for n != m, as a real (dim, dim)
    array; diagonals fixed so every column (and row) sums to zero."""
    # built from the spec's fields, not build_hamiltonian; only |v_nm| enters
    v = np.zeros((spec.dim, spec.dim), dtype=complex)
    v[1:, 0] = v[0, 1:] = spec.couplings
    if spec.bath_bath is not None:
        v[1:, 1:] = spec.bath_bath
    freqs = np.concatenate(([spec.omega], spec.bath_frequencies))
    gaps = freqs[:, None] - freqs[None, :]
    gamma = 2.0 * np.pi * np.abs(v) ** 2 * delta_t(gaps, t)
    np.fill_diagonal(gamma, 0.0)
    np.fill_diagonal(gamma, -gamma.sum(axis=0))
    return gamma


def exact_w00(sd, times):
    return np.concatenate([master_coefficients(blk.p, blk.pdot)[0][:, 0, 0]
                           for blk in time_blocks(sd, times)])


class TestDeltaT:
    def test_peak_value(self):
        for t in (1.0, 10.0, 300.0):
            assert delta_t(0.0, t) == pytest.approx(t / (2 * np.pi))

    def test_envelope_decay(self):
        alpha = 0.3
        bound = 2 / (np.pi * alpha ** 2)
        for t in (10.0, 100.0, 1000.0):
            assert delta_t(alpha, t) <= bound / t

    def test_even(self):
        alphas = np.linspace(0.01, 5, 40)
        assert np.array_equal(delta_t(alphas, 3.0), delta_t(-alphas, 3.0))

    @pytest.mark.parametrize("t", [1.0, 5.0, 20.0])
    def test_normalization_quadrature(self, t):
        # independent quadrature oracle; the 1/alpha^2 tail beyond the
        # cutoff L contributes ~2/(pi L t), so L = 2000/t keeps it < 1e-3
        alphas = np.linspace(-2000 / t, 2000 / t, 800001)
        integral = np.trapezoid(delta_t(alphas, t), alphas)
        assert integral == pytest.approx(1.0, abs=1e-3)

    def test_zero_time_is_the_limit(self):
        # the t -> 0+ limit is 0 for every alpha, without a divide warning
        alphas = np.array([-1.0, 0.0, 0.1, 3.0])
        assert np.array_equal(delta_t(alphas, 0.0), np.zeros(4))
        assert delta_t(alphas[:, None], np.array([0.0, 1e-9]))[:, 1].max() <= 1e-9
        assert golden_rule_rate_00(ob.preset_linear_bath(5, 0.5, 1.5, 1.0, 0.01),
                                   [0.0]) == 0.0

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError, match="non-negative"):
            delta_t(0.1, -1e-3)


class TestGoldenRuleRates:
    def test_uncoupled(self):
        spec = ob.ModelSpec(omega=1.0, bath_frequencies=np.array([0.5]),
                            couplings=np.zeros(1))
        assert np.abs(golden_rule_rates(spec, 3.0)).max() == 0.0

    def test_resonant_two_level(self, two_osc_spec):
        g, t = 0.1, 7.0
        gamma = golden_rule_rates(two_osc_spec, t)
        assert gamma[0, 1] == pytest.approx(g ** 2 * t)
        assert gamma[1, 0] == pytest.approx(g ** 2 * t)
        assert gamma[0, 0] == pytest.approx(-g ** 2 * t)

    def test_symmetry_and_column_sums(self, bath51_spec):
        gamma = golden_rule_rates(bath51_spec, 5.0)
        off = gamma - np.diag(np.diag(gamma))
        assert np.abs(off - off.T).max() <= 1e-15
        assert np.all(off >= 0)
        assert np.abs(gamma.sum(axis=0)).max() <= 1e-12 * np.abs(gamma).max()

    def test_perturbative_w_reduces_to_rates(self, bath51_spec):
        # W = sum_k Gamma_nk (delta_km - Gamma_km t) = Gamma - Gamma^2 t,
        # second order in the weak coupling
        t = 5.0
        gamma = golden_rule_rates(bath51_spec, t)
        w_pert = gamma @ (np.eye(gamma.shape[0]) - gamma * t)
        assert np.abs(w_pert - gamma + (gamma @ gamma) * t).max() <= 1e-15
        assert np.abs(w_pert - gamma).max() <= 0.15 * np.abs(gamma).max()

    @pytest.mark.parametrize("which", ["bath51", "bath201", "complex", "bath_bath"])
    def test_closed_form_rate_00(self, which, bath51_spec, bath201_spec):
        rng = np.random.default_rng(5)
        n = 9
        freqs = np.linspace(0.5, 1.5, n)
        gs = 0.02 * rng.normal(size=n)
        mixing = 0.01 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        spec = {
            "bath51": bath51_spec,
            "bath201": bath201_spec,
            "complex": ob.ModelSpec(omega=1.02, bath_frequencies=freqs,
                                    couplings=gs * np.exp(2j * np.pi * rng.random(n))),
            # column 0 ignores the bath-bath block and the self shift
            "bath_bath": ob.ModelSpec(omega=1.02, bath_frequencies=freqs, couplings=gs,
                                      self_shift=0.03, bath_bath=mixing + mixing.conj().T),
        }[which]
        times = np.array([0.1, 1.0, 7.5, 40.0, 333.0])
        dense = np.array([golden_rule_rates(spec, t)[0, 0] for t in times])
        closed = golden_rule_rate_00(spec, times)
        assert np.all(dense < 0)
        assert np.abs(closed / dense - 1.0).max() <= 1e-14


class TestPerturbativePrediction:
    def test_symmetric_bath_cancels(self, bath201_spec):
        pred = perturbative_prediction(bath201_spec)
        assert pred.delta_omega == pytest.approx(0.0, abs=1e-15)

    def test_self_shift_passthrough(self):
        spec = ob.preset_linear_bath(201, 0.0, 2.0, 1.0, 0.01, self_shift=0.05)
        assert perturbative_prediction(spec).delta_omega == pytest.approx(0.05, abs=1e-15)

    def test_gamma_arithmetic(self, bath201_spec):
        pred = perturbative_prediction(bath201_spec)
        assert pred.density_of_states == pytest.approx(100.0)
        assert pred.gamma == pytest.approx(2 * np.pi * 1e-4 * 100)
        assert pred.gamma == pytest.approx(0.06283, abs=1e-5)

    def test_outside_band_warns(self):
        spec = ob.preset_linear_bath(11, 2.0, 3.0, 1.0, 0.01)
        with pytest.warns(UserWarning, match="outside the bath band"):
            pred = perturbative_prediction(spec)
        assert pred.gamma == 0.0

    @pytest.mark.parametrize("freqs", [[1.0], [1.0, 1.0], []])
    def test_no_level_spacing_warns(self, freqs):
        # Omega lies in the "band" of one resonant mode or of a degenerate
        # pair, but with no level spacing there is no density of states; a
        # bath-less system has neither, and takes the same branch
        spec = ob.ModelSpec(omega=1.0, bath_frequencies=np.array(freqs),
                            couplings=np.full(len(freqs), 0.1))
        with pytest.warns(UserWarning) as caught:
            pred = perturbative_prediction(spec)
        assert [str(w.message) for w in caught] == [
            "fewer than two distinct bath frequencies: no density of states, gamma = 0"]
        assert pred.gamma == 0.0 and pred.density_of_states == 0.0
        assert pred.delta_omega == 0.0

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(4)
        freqs = np.linspace(0.5, 1.5, 9)
        gs = rng.normal(size=9)
        perm = rng.permutation(9)
        a = ob.ModelSpec(omega=1.02, bath_frequencies=freqs, couplings=gs)
        b = ob.ModelSpec(omega=1.02, bath_frequencies=freqs[perm], couplings=gs[perm])
        assert (perturbative_prediction(a).delta_omega
                == pytest.approx(perturbative_prediction(b).delta_omega, rel=1e-12))


class TestFitExponential:
    def test_recovers_synthesized_exponential(self):
        times = np.linspace(5, 50, 400)
        survival = np.exp(-1j * 1.1 * times) * np.exp(-0.025 * times)
        fit = fit_exponential(times, survival)
        assert fit.gamma_fit == pytest.approx(0.05, abs=1e-10)
        assert fit.omega_fit == pytest.approx(1.1, abs=1e-10)
        assert fit.goodness <= 1e-10

    def test_uncoupled(self):
        spec = ob.ModelSpec(omega=1.3, bath_frequencies=np.zeros(0),
                            couplings=np.zeros(0))
        sd = ob.eigendecompose(ob.build_hamiltonian(spec))
        times = np.linspace(1, 10, 50)
        fit = fit_exponential(times, survival_series(sd, times)[0])
        assert fit.gamma_fit == pytest.approx(0.0, abs=1e-12)
        assert fit.omega_fit == pytest.approx(1.3, abs=1e-12)
        # the fitted drop is rounding, and a goodness relative to it noise
        assert np.isnan(fit.goodness)

    def test_linear_bath_anchor(self, bath201_sd, bath201_spec):
        times = np.arange(0, 100.0001, 0.1)
        times = times[(times >= 10) & (times <= 100)]
        fit = fit_exponential(times, survival_series(bath201_sd, times)[0])
        gamma_pred = perturbative_prediction(bath201_spec).gamma
        assert abs(fit.gamma_fit - gamma_pred) <= 0.10 * gamma_pred

    def test_underflow_rejected(self):
        times = np.linspace(0, 10, 50)
        with pytest.raises(NumericalError, match="1e-12"):
            fit_exponential(times, np.full(50, 1e-14 + 0j))

    def test_needs_two_samples(self):
        with pytest.raises(ValueError, match="needs 2 samples, got 1"):
            fit_exponential([1.0], [1.0 + 0j])


class TestCompareExactVsGolden:
    def test_uncoupled_zero_deviation(self):
        # W_00 and Gamma_00 both vanish, so there is no rate to compare;
        # the same holds when every point is singular
        spec = ob.ModelSpec(omega=1.0, bath_frequencies=np.array([1.0]),
                            couplings=np.zeros(1))
        sd = ob.eigendecompose(ob.build_hamiltonian(spec))
        times = np.array([1.0, 2.0])
        assert np.isnan(compare_exact_vs_golden(times, exact_w00(sd, times), spec))
        assert np.isnan(compare_exact_vs_golden(times, [np.nan, np.nan], spec))

    def test_two_oscillator_factor_two(self, two_osc_spec, two_osc_sd):
        # exact W_off = g tan(2gt) ~ 2 g^2 t vs golden-rule g^2 t: the
        # short-time ratio for a single discrete level is 2, reported as is
        times = np.linspace(0.05, 0.5, 10)
        dev = compare_exact_vs_golden(times, exact_w00(two_osc_sd, times), two_osc_spec)
        assert dev == pytest.approx(1.0, abs=0.05)

    def test_linear_bath_loss_rate(self, bath201_spec, bath201_sd):
        # golden-rule window: after the initial transient, before the
        # survival probability has decayed appreciably (1/gamma ~ 16)
        times = np.arange(5.0, 15.001, 0.5)
        dev = compare_exact_vs_golden(times, exact_w00(bath201_sd, times), bath201_spec)
        assert dev <= 0.25

    def test_cli_w00_matches_dense_reference(self, tmp_path, monkeypatch):
        # the golden command solves only row 0 of W; it must agree with the
        # row 0 of the full dense W at the times it compares
        seen = []

        def spy(times, w00, spec, compare=compare_exact_vs_golden):
            seen.append((times, w00))
            return compare(times, w00, spec)

        monkeypatch.setattr(oscbath.golden, "compare_exact_vs_golden", spy)
        config = os.path.join(os.path.dirname(__file__), "..", "configs",
                              "linear_bath_n51.json")
        assert main(["golden", "--config", config, "--out", str(tmp_path)]) == 0
        ((times, w00),) = seen
        sd = ob.eigendecompose(ob.build_hamiltonian(ob.load_config(config).spec))
        assert np.all(w00 < 0)
        assert np.abs(w00 / exact_w00(sd, times) - 1.0).max() <= 1e-13
