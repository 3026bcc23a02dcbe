import contextlib
import dataclasses
import os
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import oscbath as ob
import oscbath.cli
from conftest import grid, uncoupled_sd
from oscbath.amplitudes import BLOCK_ENTRIES
from oscbath.master import DEFAULT_CONDITION_CAP, TimeBlock, master_residual, time_blocks
from oscbath.validation import grid_invariants

G = 0.1
CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
N51 = os.path.join(CONFIG_DIR, "linear_bath_n51.json")
N201 = os.path.join(CONFIG_DIR, "linear_bath_n201.json")
MIB = 2 ** 20


def traced_peak(run):
    """tracemalloc peak of ``run()``, after an untraced call has filled
    numpy's first-call caches."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
        # the stacked matmuls and solves must give the bytes of one time at
        # a time
        times = np.linspace(0, 50, 31)
        joined = grid(bath51_sd, times)
        for i, t in enumerate(times):
            one = grid(bath51_sd, [t])
            for f in dataclasses.fields(TimeBlock):
                assert np.array_equal(getattr(joined, f.name)[i],
                                      getattr(one, f.name)[0], equal_nan=True), f.name

    def test_no_rows_solves_nothing(self, two_osc_sd):
        (blk,) = time_blocks(two_osc_sd, [1.0, 2.0], rows=0)
        assert blk.pdot.shape == (2, 0, 2)
        assert blk.w is None and blk.condition is None and blk.singular is None


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
        assert np.abs(grid(uncoupled_sd(), [3.0]).w).max() <= 1e-12

    def test_resonant_closed_form(self, two_osc_sd):
        times = np.linspace(0.2, 0.9 * np.pi / (4 * G), 12)
        blk = grid(two_osc_sd, times)
        expected = (G * np.tan(2 * G * times))[:, None, None] * np.array(
            [[-1.0, 1.0], [1.0, -1.0]])
        assert not blk.singular.any()
        assert np.abs(blk.w - expected).max() <= 1e-8

    def test_singularity_flagged(self, two_osc_sd):
        t_sing = np.pi / (4 * G)
        blk = grid(two_osc_sd, [1.0, t_sing])
        assert blk.singular.tolist() == [False, True]
        assert blk.condition[1] > 1e10
        assert np.isnan(blk.w[1]).all() and np.isfinite(blk.w[0]).all()
        # P(pi/(4g)) is exactly singular, so even an infinite cap flags it
        assert grid(two_osc_sd, [1.0, t_sing], condition_cap=np.inf).singular.tolist() == [
            False, True]

    def test_singular_p_in_a_stack(self, two_osc_sd):
        # P(pi/(4g)) has every entry exactly 1/2, so numpy rejects the whole
        # stacked solve and the times are solved one at a time
        times = np.array([1.0, 2.0, np.pi / (4 * G), 9.0])
        (blk,) = time_blocks(two_osc_sd, times)
        w, condition, singular = blk.w, blk.condition, blk.singular
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(blk.p, blk.pdot)
        assert singular.tolist() == [False, False, True, False]
        assert condition[2] == np.inf and np.isnan(w[2]).all()
        # the other times have the bytes of a block of their own
        for i in (0, 1, 3):
            (one,) = time_blocks(two_osc_sd, times[i:i + 1])
            for stacked, single in zip((w, condition, singular),
                                       (one.w, one.condition, one.singular)):
                assert np.array_equal(stacked[i], single[0])
        (blk_inf,) = time_blocks(two_osc_sd, times, condition_cap=np.inf)
        assert np.array_equal(blk_inf.singular, singular)
        assert np.array_equal(blk_inf.w, w, equal_nan=True)
        assert np.array_equal(blk_inf.condition, condition)
        # a block that formed only row 0 of Pdot solves the same row of W,
        # with the same condition and mask
        (row_blk,) = time_blocks(two_osc_sd, times, rows=1)
        assert row_blk.pdot.shape == row_blk.w.shape == (4, 1, 2)
        assert np.array_equal(row_blk.p, blk.p)
        assert np.allclose(row_blk.w[:, 0], w[:, 0], rtol=1e-13, atol=0, equal_nan=True)
        assert np.array_equal(row_blk.condition, condition)
        assert np.array_equal(row_blk.singular, singular)

    @pytest.mark.parametrize("rows", [1, None])
    @pytest.mark.parametrize("stack", [
        ("two_osc_sd", [1.0, 2.0, np.pi / (4 * G), 9.0]),  # one P exactly singular
        ("bath51_sd", [0.0, 0.5, 7.0, 30.0]),
        ("bath201_sd", [0.0, 3.0, 40.0]),
    ])
    def test_matches_concatenated_rhs(self, request, stack, rows):
        # W has the bytes of numpy's solve with the right-hand side
        # [Pdot_r^T | I] built by concatenation, and P is singular where the
        # exact condition, ||P||_1 from |P| and ||P^{-1}||_1 from the P^{-T}
        # half of that solve, exceeds the cap
        name, times = stack
        blk = grid(request.getfixturevalue(name), times, rows)
        p, pdot = blk.p, blk.pdot
        r = pdot.shape[-2]
        rhs = np.concatenate([pdot.swapaxes(-1, -2),
                              np.broadcast_to(np.eye(p.shape[-1]), p.shape)], axis=-1)
        x = np.full(rhs.shape, np.inf)
        for k in range(len(p)):
            with contextlib.suppress(np.linalg.LinAlgError):  # exactly singular P
                x[k] = np.linalg.solve(p[k].T, rhs[k])
        condition = (np.abs(p).sum(axis=-2).max(axis=-1)
                     * np.abs(x[..., r:]).sum(axis=-1).max(axis=-1))
        singular = ~(condition <= DEFAULT_CONDITION_CAP) | ~np.isfinite(condition)
        w = x[..., :r].swapaxes(-1, -2).copy()
        w[singular] = np.nan
        assert np.array_equal(blk.w, w, equal_nan=True)
        assert np.array_equal(blk.singular, singular)
        assert singular.any() == (name == "two_osc_sd")

    def test_w_equals_pdot_at_t_zero(self, bath51_sd):
        blk = grid(bath51_sd, [0.0])
        assert np.abs(blk.w - blk.pdot).max() <= 1e-12
        # off-diagonal Pdot(0) vanishes: |A_nm|^2 has a double zero
        pdot = blk.pdot[0]
        assert np.abs(pdot - np.diag(np.diag(pdot))).max() <= 1e-14

    @pytest.mark.parametrize("t", [0.5, 5.0, 30.0])
    def test_column_sums_vanish(self, bath51_sd, t):
        assert np.abs(grid(bath51_sd, [t]).w.sum(axis=-2)).max() <= 1e-8


class TestCondition:
    """``TimeBlock.condition``, LAPACK's estimate of the 1-norm condition
    number of P."""

    @pytest.mark.parametrize("stack", [
        ("bath51_sd", np.linspace(0, 50, 26)),
        ("bath201_sd", [0.5, 3.0, 10.0, 40.0, 100.0]),
    ])
    def test_equals_norms_of_p_and_its_inverse(self, request, stack):
        name, times = stack
        blk = grid(request.getfixturevalue(name), times)
        exact = [np.linalg.norm(p, 1) * np.linalg.norm(np.linalg.inv(p), 1) for p in blk.p]
        assert np.allclose(blk.condition, exact, rtol=1e-14, atol=0)

    def test_same_for_row_0_and_every_row(self, bath51_sd, bath201_sd):
        for sd in (bath51_sd, bath201_sd):
            times = np.array([0.0, 3.0, 40.0])
            assert np.array_equal(grid(sd, times, 1).condition, grid(sd, times).condition)

    @pytest.mark.parametrize("config, overrides, flagged", [
        ("linear_bath_n51.json", {}, 0),
        ("linear_bath_n201.json", {"t_max": 20.0}, 0),
        # P is nearly singular at the four grid times next to (2j + 1) pi / (4g)
        ("two_oscillator.json", {"dt": np.pi / 200, "t_max": 70.0}, 4),
    ], ids=["n51", "n201-t20", "two-osc-singular-grid"])
    def test_estimate_is_a_lower_bound(self, config, overrides, flagged):
        # dgecon's estimate never exceeds ||P||_1 ||P^{-1}||_1 beyond
        # rounding, and it flags the times the exact condition flags.  It
        # equalled the exact condition to rounding at every n51 time, and
        # fell to 0.43 of it at 2 of the 201 n201 times
        cfg = dataclasses.replace(ob.load_config(os.path.join(CONFIG_DIR, config)), **overrides)
        cap = cfg.tolerances["condition_cap"]
        sd = ob.eigendecompose(ob.build_hamiltonian(cfg.spec))
        count = 0
        for blk in time_blocks(sd, cfg.time_grid(), 1, cap):
            exact = np.array([np.linalg.norm(p, 1) * np.linalg.norm(np.linalg.inv(p), 1)
                              for p in blk.p])
            below = exact <= cap  # far above it, both carry rounding errors of order one
            assert np.all(blk.condition[below]
                          <= exact[below] * (1 + sd.dim * np.finfo(float).eps))
            assert np.array_equal(blk.singular, ~below)
            count += blk.singular.sum()
        assert count == flagged

    def test_nan_condition_is_singular(self, bath51_sd, monkeypatch):
        (blk,) = time_blocks(bath51_sd, [1.0, 2.0])
        w0, condition0 = blk.w[0].copy(), blk.condition[0]
        solve = ob.lapack.solve_right

        def nan_at_1(*args):
            w, condition = solve(*args)
            condition[1] = np.nan
            return w, condition

        monkeypatch.setattr(ob.lapack, "solve_right", nan_at_1)
        (blk,) = time_blocks(bath51_sd, [1.0, 2.0])
        assert blk.singular.tolist() == [False, True] and np.isnan(blk.w[1]).all()
        assert np.array_equal(blk.w[0], w0) and blk.condition[0] == condition0


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
        occ = grid(uncoupled_sd(bath=0.7), [0, 2, 9]).p @ [0.3, 1.2]
        assert np.abs(occ - [0.3, 1.2]).max() <= 1e-13

    def test_conservation(self, bath51_sd, bath51_spec):
        init = ob.thermal_populations(bath51_spec, beta=1.0)
        worst = grid_invariants(time_blocks(bath51_sd, np.linspace(0, 50, 26), rows=0), init)
        assert worst["conservation"] <= 1e-10
        assert worst["positivity"] <= 1e-12

    def test_no_times(self, two_osc_sd):
        # a grid with no times has no defect, as an all-singular grid has
        # no master-equation residual
        worst = grid_invariants(time_blocks(two_osc_sd, []), [1.0, 0.0])
        assert worst == dict.fromkeys(
            ("unitarity", "rows", "cols", "positivity", "conservation"), 0.0)

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
        return master_residual(grid(sd, times), initial)

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
        blk = grid(bath51_sd, np.linspace(0, 50, 31))
        res, bal = master_residual(blk, init)
        for i, (p, pdot, w) in enumerate(zip(blk.p, blk.pdot, blk.w)):
            occ = p @ init
            dndt = pdot @ init
            w_off = w - np.diag(np.diag(w))
            assert res[i] == np.abs(dndt - w @ occ).max()
            assert bal[i] == np.abs(dndt - (w_off @ occ - w_off.sum(axis=0) * occ)).max()

    def test_singular_point_is_nan(self, two_osc_sd):
        res, bal = self.residual(two_osc_sd, [1.0, np.pi / (4 * G)], [1.0, 0.0])
        assert np.isfinite(res[0]) and np.isfinite(bal[0])
        assert np.isnan(res[1]) and np.isnan(bal[1])


class TestHeldMemory:
    # the engine writes every block into the arrays it allocated for the
    # first one.  Each bound is its peak plus less than 0.05 MiB, so a
    # generator that keeps conj(U), the phases or the solution of the W
    # solve alive across a yield fails: one dim-202 complex matrix is 0.62 MiB

    def test_w00_pass(self, bath201_sd):
        # golden's W[0, 0] pass on n201: 60 times, one per block, row 0
        cfg = ob.load_config(N201)
        times = cfg.w00_times(ob.perturbative_prediction(cfg.spec).gamma)
        assert len(times) == 60

        def w00_pass():
            return [w for blk in time_blocks(bath201_sd, times, 1) for w in blk.w[:, 0, 0]]

        alone = traced_peak(w00_pass)
        ob.survival_series(bath201_sd, cfg.fit_times()[1])  # as golden runs it first
        assert traced_peak(w00_pass) == alone
        assert alone <= 2.35 * MIB, alone

    def test_full_row_grid_invariants(self, bath51_sd, bath51_spec):
        # validate's dense pass on n51: 101 times, six per block, every row;
        # the unitarity defect names no Gram matrix that outlives it, and
        # takes the identity off the Gram matrix in place.  The engine forms
        # Pdot in its scratch and Adot: a block-sized conj(A) or product,
        # 0.25 MiB each at six dim-52 times, would not fit
        init = ob.thermal_populations(bath51_spec, beta=1.0)
        times = np.linspace(0, 50, 101)
        peak = traced_peak(lambda: grid_invariants(time_blocks(bath51_sd, times), init))
        assert peak <= 1.41 * MIB, peak

    def test_master_command(self, tmp_path):
        # the master command on n51: its dense blocks and the CSV text of one
        # formatter call at a time
        args = ["master", "--config", N51, "--out", str(tmp_path)]
        peak = traced_peak(lambda: oscbath.cli.main(args))
        assert peak <= 2.03 * MIB, peak
