"""LU solves and condition estimates from the LAPACK that numpy itself loaded.

numpy exposes no LU factors, so ``solve_right`` calls LAPACK's ``dgetrf``,
``dgetrs`` and ``dgecon`` through ``ctypes`` in the OpenBLAS that numpy's
``linalg`` extension links.  numpy's wheels export them with 64-bit
integers as ``scipy_dgetrf_64_`` and so on.  The library is opened at the
first call, not at import.  A numpy built against another BLAS lacks these
names, and every call then raises ``NumericalError``: there is no second
solver path.
"""

import ctypes
import functools

import numpy as np

from .linalg import NumericalError

PREFIX = "scipy_"
_P, _C = ctypes.c_void_p, ctypes.c_char_p
_SIGNATURES = {  # symbol stem: (argtypes, restype)
    "dgetrf_64_": ((_P,) * 6, None),
    "dgetrs_64_": ((_C,) + (_P,) * 8, None),
    "dgecon_64_": ((_C,) + (_P,) * 8, None),
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


def solve_right(a, b, anorm, lu):
    """``b[k] <- b[k] a[k]^{-1}`` in place, for each k, and the reciprocal
    1-norm condition of each ``a[k]``.

    ``a`` and ``b`` are C-ordered float64 stacks, (K, n, n) and (K, m, n)
    with m >= 2: OpenBLAS's ``dgetrs`` rounds one right-hand side
    differently from several.  ``anorm`` holds the K 1-norms ||a[k]||_1,
    and ``lu`` is C-ordered float64 scratch of at least n*n entries.  Each
    time makes one ``dgetrf`` of the Fortran-ordered a[k]^T, one ``dgetrs``
    of its m columns and one ``dgecon``.  The condition, 1 / rcond, is
    ``dgecon``'s estimate of ||a[k]||_1 ||a[k]^{-1}||_1, a lower bound on
    it.  rcond is 0 where a[k] is exactly singular, and b[k] is then left
    as it was.
    """
    routines = _routines()
    getrf, getrs, gecon = (routines[f"dge{name}_64_"] for name in ("trf", "trs", "con"))
    count, m, n = b.shape
    anorm = np.ascontiguousarray(anorm, np.float64)
    if (a.shape != (count, n, n) or m < 2 or anorm.shape != (count,) or lu.size < n * n
            or not all(x.dtype == np.float64 and x.flags.c_contiguous for x in (a, b, lu))):
        raise ValueError(f"solve_right needs C-ordered float64 stacks (K, n, n) and "
                         f"(K, m >= 2, n), K norms and n*n of scratch, got {a.shape}, "
                         f"{b.shape}, {anorm.shape} and {lu.size}")
    ints = np.array([n, m, 0], np.int64)
    ipiv, iwork, work = np.empty(n, np.int64), np.empty(n, np.int64), np.empty(4 * n)
    rcond = np.zeros(count)
    a_, b_, lu_, ints_, ipiv_, iwork_, work_, anorm_, rcond_ = map(
        _address, (a, b, lu, ints, ipiv, iwork, work, anorm, rcond))
    n_, m_, info = ints_, ints_ + 8, ints_ + 16
    for k in range(count):
        # C-ordered a[k] is the Fortran-ordered a[k]^T
        ctypes.memmove(lu_, a_ + 8 * n * n * k, 8 * n * n)
        getrf(n_, n_, lu_, n_, ipiv_, info)
        if ints.item(2):
            continue
        # a[k]^T x = b[k]^T, so x^T = b[k] a[k]^{-1}; ||a^{-1}||_1 = ||a^{-T}||_inf
        getrs(b"N", n_, m_, lu_, n_, ipiv_, b_ + 8 * m * n * k, n_, info)
        gecon(b"I", n_, lu_, n_, anorm_ + 8 * k, rcond_ + 8 * k, work_, iwork_, info)
    return rcond
