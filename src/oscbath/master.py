"""Exact population master equation with time-dependent coefficients.

P[n, m](t) = |A[n, m](t)|^2 is doubly stochastic because A is unitary.  The
occupations evolve as N(t) = P(t) N(0), and differentiating and eliminating
N(0) gives the time-local equation dN/dt = W(t) N(t) with
W(t) = Pdot(t) P(t)^{-1}.  W exists only where P is invertible; singular
times are flagged, never regularized.

Everything dense is computed by one engine, ``time_blocks``, which walks a
time grid in blocks of consecutive times and stacks each block's matrices
along a leading time axis.  A consumer names the leading rows of Pdot it
reads, and only those rows of Adot, Pdot and W are computed: ``golden``
reads row 0, ``amplitudes`` and a cap-less ``grid_invariants`` read none,
and ``master`` and ``validate`` read all of them.
"""

from dataclasses import dataclass

import numpy as np

from .amplitudes import amplitudes_at

DEFAULT_CONDITION_CAP = 1e10

# Complex entries of one (times, dim, dim) array in a block: 2**15 entries
# are 0.5 MiB, so a block's arrays stay a few MiB whatever the grid length.
BLOCK_ENTRIES = 2 ** 15


@dataclass(frozen=True)
class TimeBlock:
    """Consecutive grid times and the dense quantities at each of them;
    every array's leading axis indexes ``times``."""

    times: np.ndarray       # (K,)
    a: np.ndarray           # (K, dim, dim) complex, unitary
    p: np.ndarray           # (K, dim, dim) real, doubly stochastic
    pdot: np.ndarray        # (K, rows, dim) leading rows of d|A|^2/dt = 2 Re(conj(A) Adot)


def transition_probabilities(a, adot):
    """P = |A|^2 and Pdot = 2 Re(conj(A) Adot), elementwise on (stacks of)
    amplitude matrices; Pdot has the leading rows that ``adot`` has."""
    return np.abs(a) ** 2, 2.0 * (a[..., :adot.shape[-2], :].conj() * adot).real


def _solve(a, b):
    """``np.linalg.solve(a, b)`` over stacks.  numpy rejects the whole stack
    if one matrix of ``a`` is exactly singular; then solve one time at a
    time, with inf in place of each rejected solution."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        if len(a) == 1:
            return np.full(b.shape, np.inf)
        return np.concatenate([_solve(a[k:k + 1], b[k:k + 1]) for k in range(len(a))])


def master_coefficients(p, pdot, condition_cap=DEFAULT_CONDITION_CAP):
    """Rows of W = Pdot P^{-1} for a stack of P of shape (K, dim, dim).

    ``pdot`` holds the leading r rows of Pdot, shape (K, r, dim); the same r
    rows of W are returned.  Returns ``(w, condition, singular)``.
    ``condition`` is the exact 1-norm condition number ||P||_1 ||P^{-1}||_1,
    inf where P is exactly singular.  P counts as singular, and W is
    nan-filled, where the condition is not finite or exceeds
    ``condition_cap``.
    """
    dim, r = p.shape[-1], pdot.shape[-2]
    # one factorization of P^T per time solves P^T [W_r^T | P^{-T}] = [Pdot_r^T | I]
    rhs = np.concatenate([pdot.swapaxes(-1, -2), np.broadcast_to(np.eye(dim), p.shape)],
                         axis=-1)
    x = _solve(p.swapaxes(-1, -2), rhs)
    # ||P||_1 is the largest column sum of |P|, ||P^{-1}||_1 the largest row sum of |P^{-T}|
    condition = (np.abs(p).sum(axis=-2).max(axis=-1)
                 * np.abs(x[..., r:]).sum(axis=-1).max(axis=-1))
    singular = ~(condition <= condition_cap) | ~np.isfinite(condition)
    w = x[..., :r].swapaxes(-1, -2).copy()
    w[singular] = np.nan
    return w, condition, singular


def time_blocks(sd, times, rows=None):
    """Yield a TimeBlock for each run of consecutive ``times``.

    Each block's Pdot holds the leading ``rows`` rows (all if None, none for
    0), and only those rows of Adot are formed.  The block length is
    ``BLOCK_ENTRIES // dim**2`` (at least one time), so memory stays bounded
    however long the grid is.  No W is solved here: the consumers that need
    it call ``master_coefficients`` on a block.
    """
    times = np.asarray(times, dtype=np.float64)
    step = max(1, BLOCK_ENTRIES // sd.dim ** 2)
    for start in range(0, len(times), step):
        t = times[start:start + step]
        a, adot = amplitudes_at(sd, t, rows)
        p, pdot = transition_probabilities(a, adot)
        yield TimeBlock(times=t, a=a, p=p, pdot=pdot)


def master_residual(block, w, initial):
    """Residuals of the master equation at each time of a block, given the
    block's W from ``master_coefficients``.

    Returns ``(gain_loss, balance)``: max_n |dN_n/dt - sum_k W_nk N_k| for
    the matrix form, and the same for the explicit gain-minus-loss form
    built from the off-diagonals of W.  dN/dt comes from the analytic Pdot,
    never from differencing the trajectory.  Singular points give nan.
    """
    initial = np.asarray(initial, dtype=np.float64)
    occ = block.p @ initial
    dndt = block.pdot @ initial
    res_matrix = np.abs(dndt - (w @ occ[..., None])[..., 0]).max(axis=-1)
    w_off = w.copy()
    idx = np.arange(w_off.shape[-1])
    w_off[..., idx, idx] = 0.0
    gain = (w_off @ occ[..., None])[..., 0]
    loss = w_off.sum(axis=-2) * occ
    res_balance = np.abs(dndt - (gain - loss)).max(axis=-1)
    return res_matrix, res_balance
