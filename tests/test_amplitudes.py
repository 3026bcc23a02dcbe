import tracemalloc

import numpy as np
import pytest

import oscbath as ob
from conftest import grid
from oscbath.amplitudes import BLOCK_ENTRIES, survival_series, system_row_series
from oscbath.master import time_blocks

G = 0.1
EPS = np.finfo(np.float64).eps
SHIPPED_SDS = ["two_osc_sd", "bath51_sd", "bath201_sd"]


class TestAmplitudesAt:
    """The dense A and Pdot of ``time_blocks``."""

    def test_t_zero_series(self, two_osc_sd, two_osc_spec, bath51_sd):
        h = ob.build_hamiltonian(two_osc_spec)
        a = grid(two_osc_sd, 0.0).a
        assert np.abs(a[0] - np.eye(2)).max() <= 1e-15
        for sd in (two_osc_sd, bath51_sd):
            # |A_nm|^2 has a double zero off the diagonal
            pdot = grid(sd, 0.0).pdot[0]
            assert np.abs(pdot - np.diag(np.diag(pdot))).max() <= 1e-15
        _, adot00, addot00 = survival_series(two_osc_sd, [0.0], derivatives=True)
        assert abs(adot00[0] - (-1j) * h[0, 0]) <= 1e-15
        assert abs(addot00[0] - (-(h @ h))[0, 0]) <= 1e-14

    def test_uncoupled_is_diagonal_phases(self):
        spec = ob.ModelSpec(omega=1.0, bath_frequencies=np.array([0.5, 1.5]),
                            couplings=np.zeros(2))
        sd = ob.eigendecompose(ob.build_hamiltonian(spec))
        t = 2.7
        a = grid(sd, t).a
        expected = np.diag(np.exp(-1j * np.array([1.0, 0.5, 1.5]) * t))
        assert np.abs(a[0] - expected).max() <= 1e-14

    def test_resonant_closed_form(self, two_osc_sd):
        times = np.array([0.3, 1.7, 4.0])
        a = grid(two_osc_sd, times).a
        phase = np.exp(-1j * times)
        assert np.abs(a[:, 0, 0] - phase * np.cos(G * times)).max() <= 1e-12
        assert np.abs(a[:, 0, 1] - (-1j) * phase * np.sin(G * times)).max() <= 1e-12

    def test_unitarity_and_bound(self, bath51_sd):
        a = grid(bath51_sd, [0.0, 1.0, 10.0, 50.0]).a
        gram = a @ a.conj().swapaxes(-1, -2)
        assert np.abs(gram - np.eye(bath51_sd.dim)).max() <= 1e-10
        assert np.abs(a).max() <= 1 + 1e-12

    def test_derivative_finite_difference(self, bath51_sd):
        # Pdot is formed from the analytic Adot; P's central difference checks both
        t, step = 3.0, 1e-5
        p = grid(bath51_sd, [t - step, t + step]).p
        pdot = grid(bath51_sd, t).pdot
        assert np.abs(pdot[0] - (p[1] - p[0]) / (2 * step)).max() <= 1e-6

    def test_stacked_equals_single_times(self, bath51_sd):
        # the stacked products must give the bytes of one time at a time
        times = np.linspace(0, 40, 7)
        stacked = grid(bath51_sd, times)
        fields = ("a", "p", "pdot")
        assert [getattr(stacked, f).shape for f in fields] == [(7, 52, 52)] * 3
        for i, t in enumerate(times):
            one = grid(bath51_sd, t)
            for f in fields:
                assert np.array_equal(getattr(stacked, f)[i], getattr(one, f)[0])

    @pytest.mark.parametrize("rows", [0, 1, 5, 52])
    def test_adot_rows_match_full(self, bath51_sd, bath201_sd, rows):
        # only the leading rows of Adot and Pdot are formed; A and P stay whole
        for sd in (bath51_sd, bath201_sd):
            times = np.array([0.0, 3.0, 40.0])
            full, part = grid(sd, times), grid(sd, times, rows)
            assert np.array_equal(part.a, full.a) and np.array_equal(part.p, full.p)
            assert part.pdot.shape == (3, rows, sd.dim)
            assert np.abs(part.pdot - full.pdot[:, :rows]).max(initial=0.0) <= 1e-15

    def test_group_property(self, bath51_sd):
        rng = np.random.default_rng(11)
        for t1, t2 in rng.uniform(0, 10, size=(4, 2)):
            a1, a2, a12 = grid(bath51_sd, [t1, t2, t1 + t2], rows=0).a
            # A[n, m](t) = <m|e^{-iht}|n>  =>  matrices compose transposed
            assert np.abs(a12 - (a2.T @ a1.T).T).max() <= 1e-9

    def test_rejects_nonfinite_time(self, two_osc_sd, bath51_sd):
        with pytest.raises(ValueError, match="finite"):
            next(time_blocks(two_osc_sd, [np.inf]))
        # the whole grid is checked before its first block is formed
        with pytest.raises(ValueError, match="finite"):
            next(time_blocks(bath51_sd, np.append(np.zeros(40), np.nan)))


class TestSurvival:
    def test_t_zero(self, two_osc_sd):
        assert survival_series(two_osc_sd, [0.0])[0][0] == pytest.approx(1.0)

    def test_uncoupled_phase(self):
        spec = ob.ModelSpec(omega=1.3, bath_frequencies=np.zeros(0),
                            couplings=np.zeros(0))
        sd = ob.eigendecompose(ob.build_hamiltonian(spec))
        t = 5.0
        assert abs(survival_series(sd, [t])[0][0] - np.exp(-1.3j * t)) <= 1e-14

    @pytest.mark.parametrize("sd", SHIPPED_SDS)
    def test_matches_matrix_entry(self, request, sd):
        # the scalar sums and the dense engine agree to rounding in A's dim terms
        sd = request.getfixturevalue(sd)
        times = np.linspace(0, 100, 41)
        a00 = survival_series(sd, times)[0]
        assert np.abs(a00 - grid(sd, times, rows=0).a[:, 0, 0]).max() <= sd.dim * EPS
        assert np.abs(a00).max() <= 1 + 1e-12

    def test_series_matches_pointwise(self, bath51_sd):
        times = np.linspace(0, 20, 9)
        a00, adot00, addot00 = survival_series(bath51_sd, times, derivatives=True)
        blk = grid(bath51_sd, times)
        assert np.abs(a00 - blk.a[:, 0, 0]).max() <= 1e-13
        # d|A00|^2/dt from the series is the engine's Pdot[0, 0]
        assert np.abs(2.0 * (a00.conj() * adot00).real - blk.pdot[:, 0, 0]).max() <= 1e-12
        # each derivative against a central difference of the one below it
        step = 1e-5
        plus, minus = (survival_series(bath51_sd, times + sign * step, derivatives=True)
                       for sign in (1, -1))
        assert np.abs(adot00 - (plus[0] - minus[0]) / (2 * step)).max() <= 1e-6
        assert np.abs(addot00 - (plus[1] - minus[1]) / (2 * step)).max() <= 1e-6

    def test_series_independent_of_the_block(self, bath51_sd, bath201_sd):
        # a time's sums have the same bytes on its own as on a grid of
        # several blocks
        times = np.linspace(0, 200, 401)
        for sd in (bath51_sd, bath201_sd):
            alone = [survival_series(sd, [t], derivatives=True) for t in times]
            for k, series in enumerate(survival_series(sd, times, derivatives=True)):
                assert np.array_equal(series, [s[k][0] for s in alone])

    def test_derivatives_only_on_request(self):
        # alpha ~ +-1e200: alpha**2 of the d2A00 weights overflows, and
        # A00 alone never forms it
        spec = ob.ModelSpec(omega=1.0, bath_frequencies=np.array([1.0]),
                            couplings=np.array([1e200]))
        sd = ob.eigendecompose(ob.build_hamiltonian(spec))
        assert np.abs(sd.eigenvalues).min() >= 1e199
        times = [0.0, 1e-201, 2e-201]
        with np.errstate(over="raise"):
            a00 = survival_series(sd, times)
            assert a00.shape == (1, 3) and np.all(np.isfinite(a00))
            with pytest.raises(FloatingPointError):
                survival_series(sd, times, derivatives=True)

    @pytest.mark.parametrize("sd", SHIPPED_SDS)
    def test_system_row_series(self, request, sd):
        sd = request.getfixturevalue(sd)
        times = np.linspace(0, 100, 41)
        rows = system_row_series(sd, times)
        assert np.abs(rows - grid(sd, times, rows=0).a[:, 0, :]).max() <= sd.dim * EPS


def test_survival_memory_is_one_block(bath201_sd):
    # the (times, dim) phase matrix is formed one block at a time: beyond the
    # three complex outputs the peak is a few block arrays, where the whole
    # 8,001 x 202 matrix alone would be 26 MB
    times = np.arange(8001) * 0.1
    tracemalloc.start()
    try:
        survival_series(bath201_sd, times, derivatives=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - 3 * 16 * len(times) <= 6 * 16 * BLOCK_ENTRIES, peak


def test_recurrence_revival(bath51_sd, bath51_spec):
    spacing = np.diff(bath51_spec.bath_frequencies)[0]
    t_rec = 2 * np.pi / spacing
    decayed = np.abs(survival_series(bath51_sd, np.arange(0.3 * t_rec, 0.7 * t_rec, 0.5))[0])
    revival = np.abs(survival_series(
        bath51_sd, np.arange(0.9 * t_rec, 1.1 * t_rec, 0.5))[0])
    assert revival.max() >= 5 * decayed.min()
