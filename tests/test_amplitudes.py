import numpy as np
import pytest

import oscbath as ob
from oscbath.amplitudes import amplitudes_at, survival_series, system_row_series

G = 0.1


class TestAmplitudesAt:
    def test_t_zero_series(self, two_osc_sd, two_osc_spec):
        h = ob.build_hamiltonian(two_osc_spec)
        a, adot = amplitudes_at(two_osc_sd, 0.0)
        assert np.abs(a - np.eye(2)).max() <= 1e-15
        assert np.abs(adot - (-1j) * h).max() <= 1e-15
        addot00 = survival_series(two_osc_sd, [0.0])[2][0]
        assert abs(addot00 - (-(h @ h))[0, 0]) <= 1e-14

    def test_uncoupled_is_diagonal_phases(self):
        spec = ob.ModelSpec(omega=1.0, bath_frequencies=np.array([0.5, 1.5]),
                            couplings=np.zeros(2))
        sd = ob.eigendecompose(ob.build_hamiltonian(spec))
        t = 2.7
        a, _ = amplitudes_at(sd, t)
        expected = np.diag(np.exp(-1j * np.array([1.0, 0.5, 1.5]) * t))
        assert np.abs(a - expected).max() <= 1e-14

    def test_resonant_closed_form(self, two_osc_sd):
        times = np.array([0.3, 1.7, 4.0])
        a, _ = amplitudes_at(two_osc_sd, times)
        phase = np.exp(-1j * times)
        assert np.abs(a[:, 0, 0] - phase * np.cos(G * times)).max() <= 1e-12
        assert np.abs(a[:, 0, 1] - (-1j) * phase * np.sin(G * times)).max() <= 1e-12

    def test_unitarity_and_bound(self, bath51_sd):
        a, _ = amplitudes_at(bath51_sd, [0.0, 1.0, 10.0, 50.0])
        gram = a @ a.conj().swapaxes(-1, -2)
        assert np.abs(gram - np.eye(bath51_sd.dim)).max() <= 1e-10
        assert np.abs(a).max() <= 1 + 1e-12

    def test_derivative_finite_difference(self, bath51_sd):
        t, step = 3.0, 1e-5
        (a_minus, _), (_, adot), (a_plus, _) = (
            amplitudes_at(bath51_sd, t + d) for d in (-step, 0.0, step))
        assert np.abs(adot - (a_plus - a_minus) / (2 * step)).max() <= 1e-6

    def test_stacked_equals_single_times(self, bath51_sd):
        # the block path must give the bytes of one call per time
        times = np.linspace(0, 40, 7)
        a, adot = amplitudes_at(bath51_sd, times)
        assert a.shape == adot.shape == (7, 52, 52)
        for i, t in enumerate(times):
            a_t, adot_t = amplitudes_at(bath51_sd, t)
            assert np.array_equal(a[i], a_t) and np.array_equal(adot[i], adot_t)

    @pytest.mark.parametrize("rows", [0, 1, 5, 52])
    def test_adot_rows_match_full(self, bath51_sd, bath201_sd, rows):
        # only the leading rows of Adot are formed; A stays whole
        for sd in (bath51_sd, bath201_sd):
            times = np.array([0.0, 3.0, 40.0])
            a, adot = amplitudes_at(sd, times)
            a_r, adot_r = amplitudes_at(sd, times, rows)
            assert np.array_equal(a_r, a)
            assert adot_r.shape == (3, rows, sd.dim)
            assert np.abs(adot_r - adot[:, :rows]).max(initial=0.0) <= 1e-15

    def test_group_property(self, bath51_sd):
        rng = np.random.default_rng(11)
        for t1, t2 in rng.uniform(0, 10, size=(4, 2)):
            a1, a2, a12 = amplitudes_at(bath51_sd, [t1, t2, t1 + t2])[0]
            # A[n, m](t) = <m|e^{-iht}|n>  =>  matrices compose transposed
            assert np.abs(a12 - (a2.T @ a1.T).T).max() <= 1e-9

    def test_rejects_nonfinite_time(self, two_osc_sd):
        with pytest.raises(ValueError, match="finite"):
            amplitudes_at(two_osc_sd, np.inf)


class TestSurvival:
    def test_t_zero(self, two_osc_sd):
        assert survival_series(two_osc_sd, [0.0])[0][0] == pytest.approx(1.0)

    def test_uncoupled_phase(self):
        spec = ob.ModelSpec(omega=1.3, bath_frequencies=np.zeros(0),
                            couplings=np.zeros(0))
        sd = ob.eigendecompose(ob.build_hamiltonian(spec))
        t = 5.0
        assert abs(survival_series(sd, [t])[0][0] - np.exp(-1.3j * t)) <= 1e-14

    def test_matches_matrix_entry(self, bath51_sd):
        t = 7.3
        a00 = survival_series(bath51_sd, [t])[0][0]
        assert abs(a00 - amplitudes_at(bath51_sd, t)[0][0, 0]) <= 1e-13
        assert abs(a00) <= 1 + 1e-12

    def test_series_matches_pointwise(self, bath51_sd):
        times = np.linspace(0, 20, 9)
        a00, adot00, addot00 = survival_series(bath51_sd, times)
        a, adot = amplitudes_at(bath51_sd, times)
        assert np.abs(a00 - a[:, 0, 0]).max() <= 1e-13
        assert np.abs(adot00 - adot[:, 0, 0]).max() <= 1e-12
        # the second derivative has no dense counterpart: difference Adot00
        step = 1e-5
        fd2 = (survival_series(bath51_sd, times + step)[1]
               - survival_series(bath51_sd, times - step)[1]) / (2 * step)
        assert np.abs(addot00 - fd2).max() <= 1e-6

    def test_system_row_series(self, bath51_sd):
        times = np.array([0.0, 4.2])
        rows = system_row_series(bath51_sd, times)
        full = amplitudes_at(bath51_sd, 4.2)[0][0, :]
        assert np.abs(rows[1] - full).max() <= 1e-13


def test_recurrence_revival(bath51_sd, bath51_spec):
    spacing = np.diff(bath51_spec.bath_frequencies)[0]
    t_rec = 2 * np.pi / spacing
    decayed = np.abs(survival_series(bath51_sd, np.arange(0.3 * t_rec, 0.7 * t_rec, 0.5))[0])
    revival = np.abs(survival_series(
        bath51_sd, np.arange(0.9 * t_rec, 1.1 * t_rec, 0.5))[0])
    assert revival.max() >= 5 * decayed.min()
