"""Transition amplitudes from the spectral decomposition.

With ``U[n, k] = <basis_n | mode_k>`` and mode frequencies ``alpha_k``, the
propagator matrix elements are

    A[n, m](t) = sum_k exp(-i alpha_k t) conj(U[n, k]) U[m, k]

(the amplitude to reach state m at time t starting from state n), and each
time derivative carries an extra factor (-i alpha_k).  The dense path gives
A and dA/dt; the survival entry A[0, 0] and its first two derivatives come
from the scalar sums of ``survival_series``.  Everything is closed-form in
t; derivatives are never computed by differencing.

The survival sums here, the dense engine ``master.time_blocks`` and the
CLI's CSV columns walk a time grid in blocks of consecutive times cut by
one rule, ``block_slices``, so their memory is bounded by one block however
long the grid is.
"""

import numpy as np

# Complex entries of one block array: 2**15 entries are 0.5 MiB, so a
# block's arrays stay a few MiB whatever the grid length.
BLOCK_ENTRIES = 2 ** 15


def block_slices(count, entries_per_time):
    """Slices that cut ``range(count)`` into blocks of consecutive times,
    ``BLOCK_ENTRIES // entries_per_time`` times each (at least one)."""
    step = max(1, BLOCK_ENTRIES // entries_per_time)
    return (slice(start, start + step) for start in range(0, count, step))


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

    Scalar spectral sums over the weights |U[0, k]|^2.  The (times, dim)
    phase matrix is formed one block of ``block_slices(len(times), dim)``
    at a time, so beyond the three outputs memory stays one block however
    long the grid is; each time's sums do not depend on the block length.
    """
    times = np.asarray(times, dtype=np.float64).ravel()
    alpha = sd.eigenvalues
    weights = np.abs(sd.vectors[0, :]) ** 2
    weights_dot = -1j * alpha * weights
    weights_ddot = -(alpha ** 2) * weights
    a, adot, addot = (np.empty(len(times), dtype=np.complex128) for _ in range(3))
    for s in block_slices(len(times), sd.dim):
        t = times[s]
        # numpy forms a one-row matrix-vector product as a dot product, which
        # rounds differently from a row of a longer block: a lone time is
        # repeated, so every time takes the matrix-vector path
        phases = np.exp(-1j * np.outer(np.resize(t, max(2, len(t))), alpha))
        a[s] = (phases @ weights)[:len(t)]
        adot[s] = (phases @ weights_dot)[:len(t)]
        addot[s] = (phases @ weights_ddot)[:len(t)]
    return a, adot, addot


def system_row_series(sd, times):
    """A[0, m](t) over a time grid: array of shape (len(times), dim)."""
    times = np.asarray(times, dtype=np.float64)
    alpha = sd.eigenvalues
    u = sd.vectors
    weighted = np.exp(-1j * np.outer(times, alpha)) * u[0, :].conj()
    return weighted @ u.T
