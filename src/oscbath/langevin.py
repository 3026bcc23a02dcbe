"""Exact time-dependent Langevin coefficients from the survival amplitude.

Writing the survival amplitude as A(t) = a(t) + i b(t), both a and b solve
the homogeneous oscillator equation

    xddot + Gamma(t) xdot + Omega2(t) x = 0,

and solving that 2x2 linear system for the two coefficients gives

    Omega2 = (Adot conj(Addot) - conj(Adot) Addot) / D
    Gamma  = -(A conj(Addot) - conj(A) Addot) / D
    D      = A conj(Adot) - conj(A) Adot

All three ratios are purely real; D = -2i (a bdot - adot b) vanishes at
isolated Wronskian zeros, which are flagged and excluded, never
interpolated.
"""

from dataclasses import dataclass

import numpy as np

from .amplitudes import survival_series, system_row_series
from .linalg import NumericalError

# D is declared singular when |Im(conj(A) Adot)| <= WRONSKIAN_TOL * |A| |Adot|
WRONSKIAN_TOL = 1e-12
# |A00| is dimensionless with natural scale 1; below this it is a numerical
# node of both homogeneous solutions, i.e. a Wronskian zero
AMPLITUDE_NODE_TOL = 1e-12
REALNESS_TOL = 1e-10


@dataclass(frozen=True)
class LangevinCoefficients:
    t: float
    a: float              # Re A00
    b: float              # Im A00
    omega_sq: float       # nan when singular
    gamma: float          # nan when singular
    wronskian: float      # |D| = |2 Im(A conj(Adot))|
    singular: bool


def coefficients_from_survival(t, a00, adot00, addot00):
    """Langevin coefficients from the scalar survival amplitude triple."""
    d = a00 * np.conj(adot00) - np.conj(a00) * adot00
    scale = abs(a00) * abs(adot00)
    if abs(d) <= 2.0 * WRONSKIAN_TOL * scale or abs(a00) <= AMPLITUDE_NODE_TOL:
        return LangevinCoefficients(t=float(t), a=a00.real, b=a00.imag,
                                    omega_sq=np.nan, gamma=np.nan,
                                    wronskian=abs(d), singular=True)
    omega_sq = (adot00 * np.conj(addot00) - np.conj(adot00) * addot00) / d
    gamma = -(a00 * np.conj(addot00) - np.conj(a00) * addot00) / d
    rscale = max(abs(omega_sq), abs(gamma), 1.0)
    imag_residue = max(abs(omega_sq.imag), abs(gamma.imag)) / rscale
    if imag_residue > REALNESS_TOL:
        raise NumericalError(
            f"Langevin coefficients not real at t = {t:.6g}: "
            f"relative imaginary residue {imag_residue:.3e}")
    return LangevinCoefficients(t=float(t), a=a00.real, b=a00.imag,
                                omega_sq=omega_sq.real, gamma=gamma.real,
                                wronskian=abs(d), singular=False)


def langevin_series(sd, times):
    """Coefficients over a time grid via the scalar survival sums."""
    a, adot, addot = survival_series(sd, times)
    return [coefficients_from_survival(t, a[i], adot[i], addot[i])
            for i, t in enumerate(np.asarray(times, float))]


def langevin_residual(sd, times):
    """Normalized homogeneous-equation residual per grid point.

    For each t, the larger of |xddot + Gamma xdot + Omega2 x| over the two
    solutions x = a, b, divided by max(|addot|, |bddot|, Omega2).  Singular
    points give nan.
    """
    a00, adot00, addot00 = survival_series(sd, times)
    out = np.empty(len(a00))
    for i, t in enumerate(np.asarray(times, float)):
        lc = coefficients_from_survival(t, a00[i], adot00[i], addot00[i])
        if lc.singular:
            out[i] = np.nan
            continue
        res_a = addot00[i].real + lc.gamma * adot00[i].real + lc.omega_sq * a00[i].real
        res_b = addot00[i].imag + lc.gamma * adot00[i].imag + lc.omega_sq * a00[i].imag
        denom = max(abs(addot00[i].real), abs(addot00[i].imag), abs(lc.omega_sq))
        out[i] = max(abs(res_a), abs(res_b)) / denom
    return out


def noise_covariance_grid(sd, times, initial, spec):
    """Symmetrized second moment of the inhomogeneous drive f over a grid:
    C_ff(t_i, t_j) as a symmetric (K, K) array.

    f(t) = (2 M Omega)^{-1/2} sum_{m>=1} [A[0, m](t) b_m^dag(0) + h.c.],
    and with uncorrelated diagonal initial occupations N_m(0) the
    symmetrized moment <{f(t), f(t')}>/2 reduces to

        (2 M Omega)^{-1} sum_{m>=1} Re[A[0, m](t) conj(A[0, m](t'))]
                                     * (2 N_m(0) + 1)
    """
    occ = np.asarray(initial, dtype=np.float64)
    rows = system_row_series(sd, times)[:, 1:]
    weights = 2.0 * occ[1:] + 1.0
    cov = (rows * weights) @ rows.conj().T
    cov = cov.real / (2.0 * spec.mass * spec.omega)
    return 0.5 * (cov + cov.T)
