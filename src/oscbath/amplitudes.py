"""Transition amplitudes from the spectral decomposition.

With ``U[n, k] = <basis_n | mode_k>`` and mode frequencies ``alpha_k``, the
propagator matrix elements are

    A[n, m](t) = sum_k exp(-i alpha_k t) conj(U[n, k]) U[m, k]

(the amplitude to reach state m at time t starting from state n), and each
time derivative carries an extra factor (-i alpha_k).  The dense path gives
A and dA/dt; the survival entry A[0, 0] and its first two derivatives come
from the scalar sums of ``survival_series``.  Everything is closed-form in
t; derivatives are never computed by differencing.
"""

import numpy as np


def amplitudes_at(sd, times, rows=None):
    """Dense A and dA/dt at a time or a 1-D array of times.

    Returns ``(a, adot)``, complex arrays of shape ``times.shape + (dim,
    dim)``: one matrix per time, stacked along the leading axis.  Given
    ``rows``, dA/dt holds only the leading ``rows`` rows (none for 0), so
    its shape ends in ``(rows, dim)``.
    """
    times = np.asarray(times, dtype=np.float64)
    bad = times[~np.isfinite(times)]
    if bad.size:
        raise ValueError(f"time must be finite, got {bad[0]}")
    alpha = sd.eigenvalues
    u = sd.vectors
    phases = np.exp(-1j * np.multiply.outer(times, alpha))[..., None, :]
    uc = u.conj()
    a = uc @ (u * phases).swapaxes(-1, -2)
    adot = uc[:rows] @ (u * (-1j * alpha * phases)).swapaxes(-1, -2)
    return a, adot


def survival_series(sd, times):
    """(A00, dA00, d2A00) over a time grid, as three complex arrays.

    Scalar spectral sums; O(len(times) * dim) instead of full matrices.
    """
    times = np.asarray(times, dtype=np.float64)
    alpha = sd.eigenvalues
    weights = np.abs(sd.vectors[0, :]) ** 2
    phases = np.exp(-1j * np.outer(times, alpha))
    a = phases @ weights
    adot = phases @ (-1j * alpha * weights)
    addot = phases @ (-(alpha ** 2) * weights)
    return a, adot, addot


def system_row_series(sd, times):
    """A[0, m](t) over a time grid: array of shape (len(times), dim)."""
    times = np.asarray(times, dtype=np.float64)
    alpha = sd.eigenvalues
    u = sd.vectors
    weighted = np.exp(-1j * np.outer(times, alpha)) * u[0, :].conj()
    return weighted @ u.T
