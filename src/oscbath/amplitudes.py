"""Survival and system-row amplitudes from the spectral decomposition.

With ``U[n, k] = <basis_n | mode_k>`` and mode frequencies ``alpha_k``, the
propagator matrix elements are

    A[n, m](t) = sum_k exp(-i alpha_k t) conj(U[n, k]) U[m, k]

(the amplitude to reach state m at time t starting from state n), and each
time derivative carries an extra factor (-i alpha_k).  This module gives
the survival entry A[0, 0] as scalar sums, its derivatives only on request
(``survival_series``), and the system's row A[0, :] (``system_row_series``);
the dense A, P, Pdot and W come from the one engine ``master.time_blocks``.
Everything is closed-form in t; derivatives are never computed by
differencing.

The survival sums here and the dense engine walk a time grid in blocks of
consecutive times cut by one rule, ``block_slices``, so their memory is
bounded by one block however long the grid is; the CSV text is cut by
``floatfmt``'s own call size.
"""

import numpy as np

# Complex entries of one block array: 2**14 entries are 0.25 MiB, so a
# block's arrays stay a few MiB whatever the grid length (6 times per block
# at dim 52, one at dim 202).
BLOCK_ENTRIES = 2 ** 14


def block_slices(count, entries_per_time):
    """Slices that cut ``range(count)`` into blocks of consecutive times,
    ``BLOCK_ENTRIES // entries_per_time`` times each (at least one)."""
    step = max(1, BLOCK_ENTRIES // entries_per_time)
    return (slice(start, start + step) for start in range(0, count, step))


def survival_series(sd, times, derivatives=0):
    """A00 and its first ``derivatives`` (0, 1 or 2) time derivatives over a
    time grid: the rows of one complex (derivatives + 1, len(times)) array.

    Scalar spectral sums over the weights |U[0, k]|^2, a derivative's formed
    only when asked for.  The (times, dim) phase matrix is formed one block
    of ``block_slices(len(times), dim)`` at a time, so beyond the output
    memory stays one block; each time's sums do not depend on the block.
    """
    times = np.asarray(times, dtype=np.float64).ravel()
    alpha = sd.eigenvalues
    weights = [np.abs(sd.vectors[0, :]) ** 2]
    if derivatives >= 1:
        weights.append(-1j * alpha * weights[0])
    if derivatives == 2:
        weights.append(-(alpha ** 2) * weights[0])
    sums = np.empty((len(weights), len(times)), dtype=np.complex128)
    for s in block_slices(len(times), sd.dim):
        t = times[s]
        # numpy forms a one-row matrix-vector product as a dot product, which
        # rounds differently from a row of a longer block: a lone time is
        # repeated, so every time takes the matrix-vector path
        phases = np.exp(-1j * np.outer(np.resize(t, max(2, len(t))), alpha))
        for row, w in zip(sums, weights):
            row[s] = (phases @ w)[:len(t)]
    return sums


def system_row_series(sd, times):
    """A[0, m](t) over a time grid: array of shape (len(times), dim)."""
    times = np.asarray(times, dtype=np.float64)
    alpha = sd.eigenvalues
    u = sd.vectors
    weighted = np.exp(-1j * np.outer(times, alpha)) * u[0, :].conj()
    return weighted @ u.T
