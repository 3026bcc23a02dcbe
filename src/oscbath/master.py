"""Exact population master equation with time-dependent coefficients.

P[n, m](t) = |A[n, m](t)|^2 is doubly stochastic because A is unitary.  The
occupations evolve as N(t) = P(t) N(0), and differentiating and eliminating
N(0) gives the time-local equation dN/dt = W(t) N(t) with
W(t) = Pdot(t) P(t)^{-1}.  W exists only where P is invertible; singular
times are flagged, never regularized.  Each time's W comes from one LU of
P (LAPACK ``dgesv`` and ``dgecon``, through ``lapack.solve_right``, which
finds ||P||_1 itself), and P counts as singular where LAPACK's estimate of
its 1-norm condition number exceeds a cap or is not finite, as where the
LU meets an exactly zero pivot.

Everything dense is computed by one engine, ``time_blocks``, which walks a
time grid in blocks of consecutive times and stacks each block's matrices
along a leading time axis.  A consumer names the leading rows of Pdot it
reads, and only those rows of Adot, Pdot and W are computed: ``golden``
reads row 0, ``amplitudes`` none (so no W is solved), and ``master`` and
``validate`` all of them.  ``validation.grid_invariants`` reduces whatever
blocks its caller asks the engine for.

The engine owns its buffers: it writes every block's A and P into two
arrays it allocates once per grid, so a block's ``a`` and ``p`` hold its
values only until the next block is drawn, and a consumer that keeps them
longer copies them.  A third, the scratch, holds in turn the operands of A
and Adot, the conj(A) rows, and each time's LU; the rows of Adot, into
which their product conj(A) Adot is written, are the step's only
transient block.
"""

from dataclasses import dataclass

import numpy as np

from . import lapack
from .amplitudes import block_slices

DEFAULT_CONDITION_CAP = 1e10


@dataclass(frozen=True)
class TimeBlock:
    """Consecutive grid times and the dense quantities at each of them;
    every array's leading axis indexes ``times``.  ``a`` and ``p`` are
    views of buffers that ``time_blocks`` reuses: they are valid only until
    the next block is drawn.  ``condition`` is LAPACK ``dgecon``'s estimate
    of the 1-norm condition number of P, a lower bound on it."""

    times: np.ndarray       # (K,)
    a: np.ndarray           # (K, dim, dim) complex, unitary
    p: np.ndarray           # (K, dim, dim) real, doubly stochastic
    pdot: np.ndarray        # (K, rows, dim) leading rows of d|A|^2/dt = 2 Re(conj(A) Adot)
    w: np.ndarray | None    # (K, rows, dim) the same rows of W, nan where singular
    condition: np.ndarray | None  # (K,) <= ||P||_1 ||P^{-1}||_1, inf where P is exactly singular
    singular: np.ndarray | None  # (K,) bool, P singular to the condition cap


def time_blocks(sd, times, rows=None, condition_cap=DEFAULT_CONDITION_CAP):
    """Yield a TimeBlock for each run of consecutive ``times``, which must
    all be finite: a nan or infinite time raises ValueError before any
    block.

    A and Adot are the spectral sums of the ``amplitudes`` docstring.  Each
    block's Pdot and W hold the leading ``rows`` rows (all if None), and
    only those rows of Adot are formed; W, the condition of P and the
    singular mask come from one LU per time under ``condition_cap``.  For
    ``rows=0`` no W is solved, and ``w``, ``condition`` and ``singular``
    are None.  The blocks are ``amplitudes.block_slices(len(times),
    dim**2)``, so each (times, dim, dim) array is about ``BLOCK_ENTRIES``
    entries (6 times at dim 52, one at dim 202) however long the grid is.

    The engine owns its buffers: three (times, dim, dim) arrays allocated
    at the first block, which is the longest, hold A, P, and a complex
    scratch.  The scratch holds the operands of A and Adot, then the
    conj(A) rows, then the LU of each time's P (dim**2 float64).  Adot's
    rows are the step's only transient block: conj(A) Adot is formed in
    them, and they are freed before the solve.  Every block writes into the
    three buffers, so its ``a`` and ``p`` are valid only until the next
    block is drawn.
    """
    times = np.asarray(times, dtype=np.float64)
    bad = times[~np.isfinite(times)]
    if bad.size:
        raise ValueError(f"time must be finite, got {bad[0]}")
    alpha, u = sd.eigenvalues, sd.vectors
    buffers = None
    for s in block_slices(len(times), sd.dim ** 2):
        t = times[s]
        if buffers is None:
            shape = (len(t), sd.dim, sd.dim)
            buffers = (np.empty(shape, np.complex128), np.empty(shape),
                       np.empty(shape, np.complex128))
        a, p, scratch = (buf[:len(t)] for buf in buffers)
        phases = np.exp(-1j * np.multiply.outer(t, alpha))[..., None, :]
        uc = u.conj()
        np.multiply(u, phases, out=scratch)
        np.matmul(uc, scratch.swapaxes(-1, -2), out=a)
        np.multiply(u, -1j * alpha * phases, out=scratch)
        adot = uc[:rows] @ scratch.swapaxes(-1, -2)
        del phases, uc  # a generator's locals live across the yield
        np.square(np.abs(a, out=p), out=p)
        # the scratch is free until the LU: it takes conj(A)'s rows, and
        # their product with Adot goes into Adot, in this operand order,
        # which numpy's complex multiply need not round as the other
        ca = np.conjugate(a[:, :rows], out=scratch[:, :rows])
        pdot = np.multiply(2.0, np.multiply(ca, adot, out=adot).real)
        del adot  # freed before the solve: the caller still holds the previous block's pdot and w
        w = condition = singular = None
        if pdot.shape[-2]:
            w, condition = lapack.solve_right(p, pdot, scratch.reshape(-1).view(np.float64))
            singular = ~(condition <= condition_cap) | ~np.isfinite(condition)
            w[singular] = np.nan
        yield TimeBlock(times=t, a=a, p=p, pdot=pdot, w=w, condition=condition,
                        singular=singular)


def master_residual(block, initial):
    """Residuals of the master equation at each time of a block with every
    row of W.

    Returns ``(gain_loss, balance)``: max_n |dN_n/dt - sum_k W_nk N_k| for
    the matrix form, and the same for the explicit gain-minus-loss form
    built from the off-diagonals of W.  dN/dt comes from the analytic Pdot,
    never from differencing the trajectory.  Singular points give nan.
    """
    initial = np.asarray(initial, dtype=np.float64)
    occ = block.p @ initial
    dndt = block.pdot @ initial
    res_matrix = np.abs(dndt - (block.w @ occ[..., None])[..., 0]).max(axis=-1)
    w_off = block.w.copy()
    idx = np.arange(w_off.shape[-1])
    w_off[..., idx, idx] = 0.0
    gain = (w_off @ occ[..., None])[..., 0]
    loss = w_off.sum(axis=-2) * occ
    res_balance = np.abs(dndt - (gain - loss)).max(axis=-1)
    return res_matrix, res_balance
