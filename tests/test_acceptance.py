"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line with the measured value, then asserts.
The heavy N = 201 sweep (criteria 1 and 6) runs once in a session fixture.
"""

import json
import os

import numpy as np
import pytest

import oscbath as ob
from oscbath.cli import main
from oscbath.master import DEFAULT_CONDITION_CAP
from oscbath.validation import grid_invariants

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

G = 0.1  # two-oscillator coupling


def report(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}  acceptance {criterion}: {detail}")
    assert ok, f"acceptance {criterion}: {detail}"


@pytest.fixture(scope="module")
def big_sweep(bath201_sd):
    """One pass over t in [0, 200], dt = 0.1 for the N = 201 preset,
    collecting worst-case invariant defects with the validate suite's
    block-by-block reduction."""
    times = np.arange(0, 200.0001, 0.1)
    init = np.zeros(202)
    init[0] = 1.0
    return grid_invariants(bath201_sd, times, init)


def test_criterion_1_unitarity_and_stochasticity(big_sweep):
    worst = max(big_sweep["unitarity"], big_sweep["rows"], big_sweep["cols"])
    report("1 (unitarity / double stochasticity, N=201, t<=200)",
           worst <= 1e-10,
           f"max defect {worst:.3e} (tol 1e-10)")


def test_criterion_2_exact_master_equation(two_osc_sd, bath51_sd, bath51_spec):
    # (a) two-oscillator residual and closed-form W
    t_sing = np.pi / (4 * G)
    times = np.linspace(0.05, 0.9 * t_sing, 40)
    (blk,) = ob.time_blocks(two_osc_sd, times)
    w, _, _ = ob.master_coefficients(blk.p, blk.pdot)
    res, _ = ob.master_residual(blk, w, [1.0, 0.0])
    w_exact = (G * np.tan(2 * G * times))[:, None, None] * np.array([[-1.0, 1.0],
                                                                     [1.0, -1.0]])
    worst_closed = np.abs(w - w_exact).max()

    # (b) weak-coupling bath residual
    times51 = np.linspace(0, 50, 101)
    init = ob.thermal_populations(bath51_spec, beta=1.0)
    worst51 = grid_invariants(bath51_sd, times51, init,
                              DEFAULT_CONDITION_CAP)["master_residual"]

    # the singularity is flagged, not silently crossed
    (at_sing,) = ob.time_blocks(two_osc_sd, [t_sing])
    sing = bool(ob.master_coefficients(at_sing.p, at_sing.pdot)[2][0])

    ok = (res.max() <= 1e-8 and worst_closed <= 1e-8
          and worst51 <= 1e-8 and sing)
    report("2 (exact master equation)", ok,
           f"two-osc residual {res.max():.3e}, closed-form W defect "
           f"{worst_closed:.3e}, N=51 residual {worst51:.3e}, "
           f"singular flagged at t=pi/(4g): {sing}")


def test_criterion_3_exact_langevin_coefficients(two_osc_sd, bath51_sd):
    times = np.linspace(0.05, 0.9 * np.pi / (2 * G), 40)
    series = ob.langevin_series(two_osc_sd, times)
    tan = np.tan(G * times)
    worst_closed = max(np.abs(series.gamma - 2 * G * tan).max(),
                       np.abs(series.omega_sq - (1 + G ** 2 + 2 * G ** 2 * tan ** 2)).max())
    res = ob.langevin_residual(series)
    res51 = ob.langevin_residual(ob.langevin_series(bath51_sd, np.linspace(0.5, 50, 100)))
    worst_res = max(np.nanmax(res), np.nanmax(res51))
    ok = worst_closed <= 1e-8 and worst_res <= 1e-6
    report("3 (exact Langevin coefficients)", ok,
           f"closed-form defect {worst_closed:.3e} (tol 1e-8), "
           f"homogeneous residual {worst_res:.3e} (tol 1e-6)")


def test_criterion_4_golden_rule_regime(bath201_sd, bath201_spec):
    pred = ob.perturbative_prediction(bath201_spec)
    times = np.arange(0, 100.0001, 0.1)
    times = times[(times >= 10) & (times <= 100)]
    fit = ob.fit_exponential(times, ob.survival_series(bath201_sd, times)[0])
    gamma_ok = abs(fit.gamma_fit - pred.gamma) <= 0.10 * pred.gamma

    series = ob.langevin_series(bath201_sd, np.arange(20.0, 80.001, 0.5))
    gammas = series.gamma[~series.singular]
    plateau_ok = np.abs(gammas - pred.gamma).max() <= 0.15 * pred.gamma

    # shifted variant: v_self = 0.05, symmetric bath => delta_omega = 0.05
    spec_shift = ob.preset_linear_bath(201, 0.0, 2.0, 1.0, 0.01, self_shift=0.05)
    sd_shift = ob.eigendecompose(ob.build_hamiltonian(spec_shift))
    fit_shift = ob.fit_exponential(times, ob.survival_series(sd_shift, times)[0])
    freq_ok = abs(fit_shift.omega_fit - 1.05) <= 0.02 * 1.05

    ok = gamma_ok and plateau_ok and freq_ok
    report("4 (golden-rule regime)", ok,
           f"gamma_fit {fit.gamma_fit:.5f} vs pred {pred.gamma:.5f} (10%), "
           f"Langevin Gamma in [{gammas.min():.5f}, {gammas.max():.5f}] (15%), "
           f"omega_fit {fit_shift.omega_fit:.5f} vs 1.05 (2%)")


def test_criterion_5_recurrence(bath201_sd):
    t_rec = 2 * np.pi / 0.01
    decayed = np.abs(ob.survival_series(
        bath201_sd, np.arange(100.0, 500.0, 0.5))[0])
    revival = np.abs(ob.survival_series(
        bath201_sd, np.arange(0.9 * t_rec, 1.1 * t_rec, 0.5))[0])
    ok = revival.max() >= 5 * decayed.min()
    report("5 (Poincare recurrence)", ok,
           f"revival max {revival.max():.4f} vs 5 x decayed min "
           f"{5 * decayed.min():.2e} near t_rec ~ {t_rec:.0f}")


def test_criterion_6_conservation(big_sweep):
    report("6 (total quanta conservation)",
           big_sweep["conservation"] <= 1e-10,
           f"relative drift {big_sweep['conservation']:.3e} (tol 1e-10)")


def test_criterion_7_determinism_and_interfaces(tmp_path):
    rc_two = main(["validate", "--config",
                   os.path.join(CONFIG_DIR, "two_oscillator.json"),
                   "--out", str(tmp_path)])
    rc_51 = main(["validate", "--config",
                  os.path.join(CONFIG_DIR, "linear_bath_n51.json"),
                  "--out", str(tmp_path)])

    out1, out2 = tmp_path / "a", tmp_path / "b"
    cfg = os.path.join(CONFIG_DIR, "two_oscillator.json")
    for out in (out1, out2):
        main(["amplitudes", "--config", cfg, "--out", str(out)])
        main(["master", "--config", cfg, "--out", str(out)])
    repeat_ok = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in ("amplitudes.csv", "survival.csv", "populations.csv",
                     "w_coeffs.csv", "master_residual.csv"))
    golden_ok = all(
        (out1 / name).read_bytes() == open(os.path.join(GOLDEN_DIR, name), "rb").read()
        for name in ("survival.csv", "populations.csv", "w_coeffs.csv"))

    ok = rc_two == 0 and rc_51 == 0 and repeat_ok and golden_ok
    report("7 (determinism and interfaces)", ok,
           f"validate exit codes ({rc_two}, {rc_51}), repeated runs "
           f"byte-identical: {repeat_ok}, golden files match: {golden_ok}")
