"""Exact population master equation with time-dependent coefficients.

P[n, m](t) = |A[n, m](t)|^2 is doubly stochastic because A is unitary.  The
occupations evolve as N(t) = P(t) N(0), and differentiating and eliminating
N(0) gives the time-local equation dN/dt = W(t) N(t) with
W(t) = Pdot(t) P(t)^{-1}.  W exists only where P is invertible; singular
times are flagged, never regularized.

Everything dense is computed by one engine, ``time_blocks``, which walks a
time grid in blocks of consecutive times and stacks each block's matrices
along a leading time axis.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .amplitudes import amplitudes_at
from .linalg import lu_condition

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
    pdot: np.ndarray        # elementwise d|A|^2/dt = 2 Re(conj(A) Adot)


def transition_probabilities(a, adot):
    """P = |A|^2 and Pdot = 2 Re(conj(A) Adot), elementwise on (stacks of)
    amplitude matrices."""
    return np.abs(a) ** 2, 2.0 * (a.conj() * adot).real


def master_coefficients(p, pdot, condition_cap=DEFAULT_CONDITION_CAP):
    """W = Pdot P^{-1} for a stack of P of shape (K, dim, dim), via pivoted LU.

    Returns ``(w, condition, singular)``.  Where the pivot-ratio condition
    estimate exceeds ``condition_cap``, P counts as singular and that W is
    nan-filled.
    """
    w = np.full(p.shape, np.nan)
    condition = np.empty(len(p))
    with warnings.catch_warnings():
        # an exactly singular P is flagged via the condition cap just below
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        # one factorization per time: older SciPy releases take no stacks
        for k, (pk, pdotk) in enumerate(zip(p, pdot)):
            lu, piv = scipy.linalg.lu_factor(pk)
            condition[k] = lu_condition(lu)
            if not condition[k] > condition_cap:
                # solve P^T X^T = Pdot^T  =>  X = Pdot P^{-1}
                w[k] = scipy.linalg.lu_solve((lu, piv), pdotk.T, trans=1).T
    return w, condition, condition > condition_cap


def time_blocks(sd, times):
    """Yield a TimeBlock for each run of consecutive ``times``.

    The block length is ``BLOCK_ENTRIES // dim**2`` (at least one time), so
    memory stays bounded however long the grid is.  No W is solved here:
    the consumers that need it call ``master_coefficients`` on a block.
    """
    times = np.asarray(times, dtype=np.float64)
    step = max(1, BLOCK_ENTRIES // sd.dim ** 2)
    for start in range(0, len(times), step):
        t = times[start:start + step]
        a, adot = amplitudes_at(sd, t)
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
