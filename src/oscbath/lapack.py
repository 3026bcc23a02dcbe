"""LU solves and condition estimates from the LAPACK that numpy itself loaded.

numpy exposes no LU factors, so ``solve_right`` calls LAPACK's ``dlange``,
``dgesv`` and ``dgecon`` through ``ctypes`` in the OpenBLAS that numpy's
``linalg`` extension links.  numpy's wheels export them with 64-bit
integers as ``scipy_dlange_64_``, ``scipy_dgesv_64_`` and
``scipy_dgecon_64_``.  The library is opened at the first call, not at
import.  A numpy built against another BLAS lacks these names, and every
call then raises ``NumericalError``: there is no second solver path.
"""

import ctypes
import functools

import numpy as np

from .linalg import NumericalError

PREFIX = "scipy_"
_P, _C = ctypes.c_void_p, ctypes.c_char_p
_SIGNATURES = {  # symbol stem: (argtypes, restype)
    "dgesv_64_": ((_P,) * 8, None),
    "dgecon_64_": ((_C,) + (_P,) * 8, None),
    "dlange_64_": ((_C,) + (_P,) * 5, ctypes.c_double),
    "openblas_get_config64_": ((), _C),
    "openblas_get_num_threads64_": ((), ctypes.c_int),
}


@functools.cache
def _routines():
    """The functions of ``_SIGNATURES`` by stem, argtypes and restype set."""
    library = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    routines = {}
    for stem, (argtypes, restype) in _SIGNATURES.items():
        try:
            function = getattr(library, PREFIX + stem)
        except AttributeError:
            raise NumericalError(f"numpy's BLAS has no {PREFIX + stem}: the W solve needs "
                                 "the scipy-openblas64 build of numpy's wheels") from None
        function.argtypes, function.restype = argtypes, restype
        routines[stem] = function
    return routines


def build():
    """The build string of numpy's OpenBLAS."""
    return _routines()["openblas_get_config64_"]().decode()


def threads():
    """The number of threads numpy's OpenBLAS runs."""
    return _routines()["openblas_get_num_threads64_"]()


def _address(array):
    """The address of ``array``'s first byte.  ``ndarray.ctypes`` is not
    used: under ``tracemalloc`` the memory its helper objects leave traced
    varies from call to call by multiples of 56 bytes, so a traced peak
    would depend on what ran before."""
    return array.__array_interface__["data"][0]


def solve_right(a, b, lu):
    """``x[k] = b[k] a[k]^{-1}`` for each k, and the 1-norm condition of
    each ``a[k]``.  Returns ``(x, condition)``.

    ``a`` is a C-ordered float64 stack (K, n, n) and ``b`` a real stack
    (K, m, n); ``lu`` is C-ordered float64 scratch of at least n*n entries.
    Each time makes one ``dlange`` of ||a[k]||_1, the inf-norm of the
    Fortran-ordered a[k]^T, one ``dgesv`` of a[k]^T, which factors it and
    solves the rows, and one ``dgecon`` of the same factors.  The condition,
    1 / rcond, is ``dgecon``'s estimate of ||a[k]||_1 ||a[k]^{-1}||_1, a
    lower bound on it.  It is formed only where rcond is nonzero: it is inf
    where a[k] meets an exactly zero pivot, and x[k] is then b[k] as given.
    """
    routines = _routines()
    lange, gesv, gecon = (routines[stem] for stem in ("dlange_64_", "dgesv_64_", "dgecon_64_"))
    count, n = a.shape[:2]
    m = b.shape[-2]
    if (a.shape != (count, n, n) or b.shape != (count, m, n) or lu.size < n * n
            or not all(x.dtype == np.float64 and x.flags.c_contiguous for x in (a, lu))):
        raise ValueError(f"solve_right needs a C-ordered float64 stack (K, n, n), a "
                         f"stack (K, m, n) and n*n of scratch, got {a.shape}, "
                         f"{b.shape} and {lu.size}")
    # OpenBLAS solves one right-hand side on another path, with other
    # rounding; a zero second row keeps the bytes of several
    rows = max(m, 2)
    x = np.zeros((count, rows, n))
    x[:, :m] = b
    ints = np.array([n, rows, 0], np.int64)
    ipiv, iwork, work = np.empty(n, np.int64), np.empty(n, np.int64), np.empty(4 * n)
    anorm, rcond = np.zeros(1), np.zeros(count)
    a_, x_, lu_, ints_, ipiv_, iwork_, work_, anorm_, rcond_ = map(
        _address, (a, x, lu, ints, ipiv, iwork, work, anorm, rcond))
    n_, rows_, info = ints_, ints_ + 8, ints_ + 16
    for k in range(count):
        # C-ordered a[k] is the Fortran-ordered a[k]^T: a[k]^T x[k]^T = b[k]^T,
        # ||a||_1 = ||a^T||_inf and ||a^{-1}||_1 = ||a^{-T}||_inf
        anorm[0] = lange(b"I", n_, n_, a_ + 8 * n * n * k, n_, work_)
        ctypes.memmove(lu_, a_ + 8 * n * n * k, 8 * n * n)
        gesv(n_, rows_, lu_, n_, ipiv_, x_ + 8 * rows * n * k, n_, info)
        if ints.item(2):
            continue
        gecon(b"I", n_, lu_, n_, anorm_, rcond_ + 8 * k, work_, iwork_, info)
    return x[:, :m], np.divide(1.0, rcond, out=np.full(count, np.inf), where=rcond != 0)
