"""Dense Hermitian eigendecomposition and the numerical-failure exception.

The eigensolver is numpy's ``linalg.eigh`` (LAPACK's divide-and-conquer
``syevd``/``heevd``), run in real arithmetic whenever the matrix has no
imaginary part, and a single closed-form Jacobi rotation for matrices of
dimension 2 or less.  Eigenvalues come out ascending: LAPACK returns them
in that order, and the rotation sorts its own pair.  Every eigenvector
carries a fixed phase convention, so identical input bytes give identical
output bytes at a fixed BLAS thread count.  LAPACK non-convergence raises
``numpy.linalg.LinAlgError``.
"""

from dataclasses import dataclass

import numpy as np


class NumericalError(ArithmeticError):
    """A computed quantity fails a numerical sanity check (the log underflow
    of the exponential fit), or numpy's BLAS lacks the LAPACK routines of
    the W solve; the CLI maps it to exit code 3."""


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and eigenvectors of a Hermitian matrix.

    ``vectors[:, k]`` is the eigenvector for ``eigenvalues[k]`` expressed in
    the input basis, i.e. ``vectors[n, k] = <basis_n | mode_k>``.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray

    @property
    def dim(self):
        return self.eigenvalues.shape[0]

    def reconstruct(self):
        """U diag(alpha) U^H, for residual checks."""
        return (self.vectors * self.eigenvalues) @ self.vectors.conj().T


def check_hermitian(h):
    h = np.ascontiguousarray(h, dtype=np.complex128)
    if h.ndim != 2 or h.shape[0] != h.shape[1] or h.shape[0] < 1:
        raise ValueError(f"expected a square matrix of dim >= 1, got shape {h.shape}")
    if not np.all(np.isfinite(h.view(np.float64))):
        raise ValueError("matrix has non-finite entries")
    if not np.array_equal(h, h.conj().T):
        raise ValueError("matrix not exactly Hermitian")
    return h


def _rotated(p, q, c, s, phase):
    """The pair (p, q) after one Jacobi rotation; both results are formed
    before the caller writes either."""
    return c * p - (s * phase) * q, s * p + (c * phase) * q


def _rotate_small(h):
    """Closed-form eigenpairs of a Hermitian matrix of dim 1 or 2, ascending.

    One complex Jacobi rotation zeroes the off-diagonal of a 2x2 matrix.
    The array operations are kept as a general sweep performs them: the
    two-oscillator golden outputs depend on their exact rounding, which
    differs from LAPACK's in the last bits (1 ulp on the two-oscillator
    eigenvalues).  The rotation may leave the pair descending, so it is
    sorted here.
    """
    a = h.copy()
    v = np.eye(a.shape[0], dtype=np.complex128)
    if a.shape[0] == 2 and a[0, 1] != 0.0:
        apq = a[0, 1]
        mag = abs(apq)
        # a complex division multiplies by 1 / mag, which overflows for a
        # subnormal mag; scaling by a power of two is exact
        unit = apq * 2.0 ** 64 if mag < np.finfo(np.float64).tiny else apq
        ph = unit / abs(unit)
        phc = ph.conjugate()
        # theta or theta**2 overflows to inf only where the exact angle t is
        # below rounding against 1; then t comes out 0
        with np.errstate(over="ignore"):
            theta = (a[1, 1].real - a[0, 0].real) / (2.0 * mag)
            if theta >= 0.0:
                t = 1.0 / (theta + np.sqrt(theta * theta + 1.0))
            else:
                t = 1.0 / (theta - np.sqrt(theta * theta + 1.0))
        c = 1.0 / np.sqrt(t * t + 1.0)
        s = t * c

        a[:, 0], a[:, 1] = _rotated(a[:, 0], a[:, 1], c, s, phc)
        a[0, :], a[1, :] = _rotated(a[0, :], a[1, :], c, s, ph)
        v[:, 0], v[:, 1] = _rotated(v[:, 0], v[:, 1], c, s, phc)
    eigenvalues = np.diag(a).real
    order = np.argsort(eigenvalues, kind="stable")
    return eigenvalues[order], v[:, order]


def eigendecompose(h):
    """Eigendecomposition of a Hermitian matrix.

    Deterministic: eigenvalues ascending, as LAPACK and ``_rotate_small``
    return them, and each eigenvector rephased so its largest-magnitude
    component is real and positive.

    Raises
    ------
    ValueError
        if ``h`` is not a finite, exactly Hermitian square matrix.
    numpy.linalg.LinAlgError
        if LAPACK fails to converge.
    """
    h = check_hermitian(h)
    n = h.shape[0]
    if n <= 2:
        eigenvalues, vectors = _rotate_small(h)
    elif np.any(h.imag):
        eigenvalues, vectors = np.linalg.eigh(h)
    else:
        # real arithmetic on a real matrix: the complex solver is measurably
        # less accurate on it
        eigenvalues, vectors = np.linalg.eigh(h.real)
        vectors = vectors.astype(np.complex128)

    # phase convention: largest-magnitude component real positive.  Each
    # column's phase divides by hypot, the exact |.| of a complex scalar:
    # np.abs of a complex array rounds differently
    lead = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(n)]
    vectors *= (lead / np.hypot(lead.real, lead.imag)).conj()

    return SpectralDecomposition(eigenvalues=eigenvalues, vectors=np.ascontiguousarray(vectors))

