"""Exact time-dependent Langevin coefficients from the survival amplitude.

Writing the survival amplitude as A(t) = a(t) + i b(t), both a and b solve
the homogeneous oscillator equation

    xddot + Gamma(t) xdot + Omega2(t) x = 0.

Solving that 2x2 linear system for the two coefficients gives real ratios
of Wronskians,

    Omega2 = (adot bddot - bdot addot) / w
    Gamma  = -(a bddot - b addot) / w
    w      = a bdot - b adot

Each of them is the imaginary part of a product: with
q = Im(A conj(Adot)) = -w, Omega2 = Im(Adot conj(Addot)) / q and
Gamma = -Im(A conj(Addot)) / q.  So the coefficients are computed in real
arithmetic, over the whole time grid at once.  w vanishes at isolated
Wronskian zeros, which are flagged and excluded, never interpolated.
"""

from dataclasses import dataclass

import numpy as np

from .amplitudes import survival_series, system_row_series

# q is declared singular when |q| <= WRONSKIAN_TOL * |A| |Adot|
WRONSKIAN_TOL = 1e-12
# |A00| is dimensionless with natural scale 1; below this it is a numerical
# node of both homogeneous solutions, i.e. a Wronskian zero
AMPLITUDE_NODE_TOL = 1e-12


@dataclass(frozen=True)
class LangevinSeries:
    """The survival triple and the Langevin coefficients over a time grid;
    every array is indexed by time."""

    a00: np.ndarray         # A00 = a + i b, complex
    adot00: np.ndarray      # dA00/dt
    addot00: np.ndarray     # d2A00/dt2
    omega_sq: np.ndarray    # nan where singular
    gamma: np.ndarray       # nan where singular
    singular: np.ndarray    # bool


def _im_conj(x, y):
    """Im(x conj(y)), elementwise."""
    return x.imag * y.real - x.real * y.imag


def langevin_series(sd, times):
    """Langevin coefficients over a time grid from the survival sums.

    These real forms round exactly as the complex ratios with denominator
    A conj(Adot) - conj(A) Adot = 2i q, evaluated one time at a time with
    scalar complex arithmetic.  1 / q is formed only at the non-singular
    times; both coefficients are nan at the others."""
    a, adot, addot = survival_series(sd, times, derivatives=2)
    q = _im_conj(a, adot)
    # hypot, not np.abs: it rounds as the scalar abs() of complex numbers
    mag = np.hypot(a.real, a.imag)
    singular = ((np.abs(q) <= WRONSKIAN_TOL * (mag * np.hypot(adot.real, adot.imag)))
                | (mag <= AMPLITUDE_NODE_TOL))
    inv = np.divide(1.0, q, out=np.full_like(q, np.nan), where=~singular)
    omega_sq = np.where(singular, np.nan, _im_conj(adot, addot) * inv)
    gamma = np.where(singular, np.nan, -(_im_conj(a, addot) * inv))
    return LangevinSeries(a00=a, adot00=adot, addot00=addot, omega_sq=omega_sq,
                          gamma=gamma, singular=singular)


def langevin_residual(series):
    """Normalized homogeneous-equation residual per grid point of a
    ``langevin_series`` record.

    For each t, the larger of |xddot + Gamma xdot + Omega2 x| over the two
    solutions x = a, b, divided by max(|addot|, |bddot|, Omega2).  Singular
    points give nan, and a point whose scale is 0 gives 0.
    """
    s = series
    res_a = s.addot00.real + s.gamma * s.adot00.real + s.omega_sq * s.a00.real
    res_b = s.addot00.imag + s.gamma * s.adot00.imag + s.omega_sq * s.a00.imag
    denom = np.maximum(np.maximum(np.abs(s.addot00.real), np.abs(s.addot00.imag)),
                       np.abs(s.omega_sq))
    res = np.maximum(np.abs(res_a), np.abs(res_b))
    # a zero scale means addot = 0 and Omega2 = Gamma = 0, so the residual is
    # 0 too (both underflow at a tiny Omega): 0, not 0 / 0 = nan
    return np.divide(res, denom, out=np.zeros_like(res), where=denom != 0)


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
