import dataclasses

import numpy as np
import pytest
import scipy.linalg

import oscbath as ob
from oscbath.amplitudes import BLOCK_ENTRIES
from oscbath.master import TimeBlock, master_coefficients, master_residual, time_blocks
from oscbath.validation import grid_invariants

G = 0.1


def grid(sd, times):
    """One TimeBlock over the whole grid, joined from the engine's blocks."""
    blocks = list(time_blocks(sd, times))
    return TimeBlock(*(np.concatenate([getattr(b, f.name) for b in blocks])
                       for f in dataclasses.fields(TimeBlock)))


def solved(sd, times):
    """The joined TimeBlock and its ``(w, condition, singular)``."""
    blk = grid(sd, times)
    return (blk, *master_coefficients(blk.p, blk.pdot))


def uncoupled_sd(bath=0.5):
    spec = ob.ModelSpec(omega=1.0, bath_frequencies=np.array([bath]),
                        couplings=np.zeros(1))
    return ob.eigendecompose(ob.build_hamiltonian(spec))


class TestTimeBlocks:
    def test_blocks_cover_grid_in_order(self, bath51_sd):
        times = np.linspace(0, 50, 101)
        blocks = list(time_blocks(bath51_sd, times))
        step = BLOCK_ENTRIES // bath51_sd.dim ** 2
        assert [len(b.times) for b in blocks[:-1]] == [step] * (len(blocks) - 1)
        assert np.array_equal(np.concatenate([b.times for b in blocks]), times)

    def test_large_dim_gets_one_time_per_block(self, bath201_sd):
        blocks = list(time_blocks(bath201_sd, [1.0, 2.0]))
        assert bath201_sd.dim ** 2 > BLOCK_ENTRIES
        assert [len(b.times) for b in blocks] == [1, 1]

    def test_blocked_equals_single_times(self, bath51_sd):
        # the stacked matmuls must give the bytes of one time at a time
        times = np.linspace(0, 50, 31)
        joined = solved(bath51_sd, times)
        for i, t in enumerate(times):
            one = solved(bath51_sd, [t])
            for f in dataclasses.fields(TimeBlock):
                assert np.array_equal(getattr(joined[0], f.name)[i],
                                      getattr(one[0], f.name)[0]), f.name
            for name, stacked, single in zip(("w", "condition", "singular"),
                                             joined[1:], one[1:]):
                assert np.array_equal(stacked[i], single[0], equal_nan=True), name


class TestTransitionProbabilities:
    def test_identity_at_t_zero(self, two_osc_sd):
        assert np.abs(grid(two_osc_sd, [0.0]).p[0] - np.eye(2)).max() <= 1e-15

    def test_uncoupled_stays_identity(self):
        assert np.abs(grid(uncoupled_sd(), [8.0]).p[0] - np.eye(2)).max() <= 1e-14

    def test_resonant_closed_form(self, two_osc_sd):
        t = 2.1
        c2, s2 = np.cos(G * t) ** 2, np.sin(G * t) ** 2
        expected = np.array([[c2, s2], [s2, c2]])
        assert np.abs(grid(two_osc_sd, [t]).p[0] - expected).max() <= 1e-12

    @pytest.mark.parametrize("t", [0.0, 1.0, 17.0, 60.0])
    def test_doubly_stochastic(self, bath51_sd, t):
        p = grid(bath51_sd, [t]).p[0]
        assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-10
        assert np.abs(p.sum(axis=0) - 1.0).max() <= 1e-10
        assert p.min() >= 0.0
        assert p.max() <= 1 + 1e-12


class TestMasterCoefficients:
    def test_uncoupled_w_vanishes(self):
        assert np.abs(solved(uncoupled_sd(), [3.0])[1]).max() <= 1e-12

    def test_resonant_closed_form(self, two_osc_sd):
        times = np.linspace(0.2, 0.9 * np.pi / (4 * G), 12)
        _, w, _, singular = solved(two_osc_sd, times)
        expected = (G * np.tan(2 * G * times))[:, None, None] * np.array(
            [[-1.0, 1.0], [1.0, -1.0]])
        assert not singular.any()
        assert np.abs(w - expected).max() <= 1e-8

    def test_singularity_flagged(self, two_osc_sd):
        t_sing = np.pi / (4 * G)
        blk, w, condition, singular = solved(two_osc_sd, [1.0, t_sing])
        assert singular.tolist() == [False, True]
        assert condition[1] > 1e10
        assert np.isnan(w[1]).all() and np.isfinite(w[0]).all()
        # P(pi/(4g)) is exactly singular, so even an infinite cap flags it
        assert master_coefficients(blk.p, blk.pdot, condition_cap=np.inf)[2].tolist() == [
            False, True]

    def test_singular_p_in_a_stack(self, two_osc_sd):
        # P(pi/(4g)) has every entry exactly 1/2, so numpy rejects the whole
        # stacked solve and the times are solved one at a time
        times = np.array([1.0, 2.0, np.pi / (4 * G), 9.0])
        blk, w, condition, singular = solved(two_osc_sd, times)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(blk.p, blk.pdot)
        assert singular.tolist() == [False, False, True, False]
        assert condition[2] == np.inf and np.isnan(w[2]).all()
        for i in (0, 1, 3):
            one = master_coefficients(blk.p[i:i + 1], blk.pdot[i:i + 1])
            for stacked, single in zip((w, condition, singular), one):
                assert np.array_equal(stacked[i], single[0])
        w_inf, condition_inf, singular_inf = master_coefficients(blk.p, blk.pdot,
                                                                 condition_cap=np.inf)
        assert np.array_equal(singular_inf, singular)
        assert np.array_equal(w_inf, w, equal_nan=True)
        assert np.array_equal(condition_inf, condition)
        # one row of Pdot in, the same row of W out, with the same
        # condition and mask; so also from a block that formed only row 0
        (row_blk,) = time_blocks(two_osc_sd, times, rows=1)
        assert row_blk.pdot.shape == (4, 1, 2)
        assert np.array_equal(row_blk.p, blk.p)
        for pdot in (blk.pdot[:, :1], row_blk.pdot):
            w_0, condition_0, singular_0 = master_coefficients(blk.p, pdot)
            assert w_0.shape == (4, 1, 2)
            assert np.allclose(w_0[:, 0], w[:, 0], rtol=1e-13, atol=0, equal_nan=True)
            assert np.array_equal(condition_0, condition)
            assert np.array_equal(singular_0, singular)

    def test_w_equals_pdot_at_t_zero(self, bath51_sd):
        blk, w, _, _ = solved(bath51_sd, [0.0])
        assert np.abs(w - blk.pdot).max() <= 1e-12
        # off-diagonal Pdot(0) vanishes: |A_nm|^2 has a double zero
        pdot = blk.pdot[0]
        assert np.abs(pdot - np.diag(np.diag(pdot))).max() <= 1e-14

    @pytest.mark.parametrize("t", [0.5, 5.0, 30.0])
    def test_column_sums_vanish(self, bath51_sd, t):
        assert np.abs(solved(bath51_sd, [t])[1].sum(axis=-2)).max() <= 1e-8


class TestEvolvePopulations:
    """N(t) = P(t) N(0), as the master command and the invariant suite form it."""

    def test_t_zero_unchanged(self, two_osc_sd):
        occ = grid(two_osc_sd, [0.0]).p @ [1.0, 0.0]
        assert np.abs(occ[0] - [1.0, 0.0]).max() <= 1e-15

    def test_resonant_exchange(self, two_osc_sd):
        times = np.linspace(0, 10, 21)
        occ = grid(two_osc_sd, times).p @ [1.0, 0.0]
        assert np.abs(occ[:, 0] - np.cos(G * times) ** 2).max() <= 1e-12

    def test_uncoupled_constant(self):
        occ = grid(uncoupled_sd(0.7), [0, 2, 9]).p @ [0.3, 1.2]
        assert np.abs(occ - [0.3, 1.2]).max() <= 1e-13

    def test_conservation(self, bath51_sd, bath51_spec):
        init = ob.thermal_populations(bath51_spec, beta=1.0)
        worst = grid_invariants(bath51_sd, np.linspace(0, 50, 26), init)
        assert worst["conservation"] <= 1e-10
        assert worst["positivity"] <= 1e-12

    def test_schrodinger_oracle(self, two_osc_spec, two_osc_sd):
        """One quantum in a 2-mode model: populations must match direct
        wavefunction evolution |psi(t)> = expm(-iht) |psi(0)|."""
        h = ob.build_hamiltonian(two_osc_spec)
        psi0 = np.array([1.0, 0.0], dtype=complex)
        times = (0.7, 3.3, 9.1)
        occ = grid(two_osc_sd, times).p @ [1.0, 0.0]
        for i, t in enumerate(times):
            psi = scipy.linalg.expm(-1j * h * t) @ psi0
            assert np.abs(occ[i] - np.abs(psi) ** 2).max() <= 1e-10


class TestMasterResidual:
    @staticmethod
    def residual(sd, times, initial):
        blk, w, _, _ = solved(sd, times)
        return master_residual(blk, w, initial)

    def test_uncoupled_zero(self):
        res, bal = self.residual(uncoupled_sd(), [1.0, 2.0], [1.0, 0.0])
        assert np.abs(res).max() <= 1e-13
        assert np.abs(bal).max() <= 1e-13

    def test_two_oscillator(self, two_osc_sd):
        times = np.linspace(0.1, 0.9 * np.pi / (4 * G), 20)
        res, bal = self.residual(two_osc_sd, times, [1.0, 0.0])
        assert res.max() <= 1e-10
        assert bal.max() <= 1e-10

    def test_weak_coupling_bath(self, bath51_sd, bath51_spec):
        times = np.linspace(0, 50, 101)
        init = ob.thermal_populations(bath51_spec, beta=1.0)
        res, bal = self.residual(bath51_sd, times, init)
        finite = res[np.isfinite(res)]
        assert finite.max() <= 1e-8
        # matrix and balance forms agree wherever W exists
        both = np.isfinite(res) & np.isfinite(bal)
        assert np.abs(res[both] - bal[both]).max() <= 1e-9

    def test_equals_per_time_reference(self, bath51_sd, bath51_spec):
        init = ob.thermal_populations(bath51_spec, beta=1.0)
        blk, w_all, _, _ = solved(bath51_sd, np.linspace(0, 50, 31))
        res, bal = master_residual(blk, w_all, init)
        for i, (p, pdot, w) in enumerate(zip(blk.p, blk.pdot, w_all)):
            occ = p @ init
            dndt = pdot @ init
            w_off = w - np.diag(np.diag(w))
            assert res[i] == np.abs(dndt - w @ occ).max()
            assert bal[i] == np.abs(dndt - (w_off @ occ - w_off.sum(axis=0) * occ)).max()

    def test_singular_point_is_nan(self, two_osc_sd):
        res, bal = self.residual(two_osc_sd, [1.0, np.pi / (4 * G)], [1.0, 0.0])
        assert np.isfinite(res[0]) and np.isfinite(bal[0])
        assert np.isnan(res[1]) and np.isnan(bal[1])
