"""Package outputs against a 40-digit reference that shares no code with
numpy's LAPACK: mpmath's ``eighe`` of H's exact doubles.

The models have complex couplings, a complex Hermitian ``bath_bath`` block
and a nonzero ``v_self``, so H is a full complex matrix.
"""

import numpy as np
import pytest
from mpmath import mp

import oscbath as ob
from conftest import random_hermitian

EPS = np.finfo(np.float64).eps
# survival_series' A00 error in units of eps (1 + max|alpha| t): the
# measured maximum over the models below, 3.0 at dim 21, rounded up past
# it.  It falls at t = 0, where the error is that of sum_k |U[0, k]|^2 = 1
# and moves in steps of eps / 2; for t > 0 it was at most 1.67
A00_UNITS = 4.0


def model(dim, seed):
    rng = np.random.default_rng(seed)
    n = dim - 1
    return ob.ModelSpec(omega=1.0, bath_frequencies=rng.uniform(0.0, 2.0, n),
                        couplings=0.1 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)),
                        self_shift=rng.uniform(-0.1, 0.1),
                        bath_bath=0.05 * random_hermitian(n, seed))


@pytest.mark.parametrize("dim", [4, 8, 13, 21])
def test_survival_amplitude(dim):
    h = ob.build_hamiltonian(model(dim, seed=dim))
    sd = ob.eigendecompose(h)
    times = np.linspace(0.0, 60.0, 120)
    got = ob.survival_series(sd, times)[0]
    with mp.workdps(40):
        alpha, u = mp.eighe(mp.matrix(h.tolist()))
        weights = [abs(u[0, k]) ** 2 for k in range(dim)]
        error = [abs(mp.mpc(g) - mp.fsum(w * mp.expj(-a * t) for w, a in zip(weights, alpha)))
                 for g, t in zip(got.tolist(), times.tolist())]
    unit = EPS * (1.0 + np.abs(sd.eigenvalues).max() * times)
    ratio = np.array(error, dtype=np.float64) / unit
    assert ratio.max() <= A00_UNITS, (ratio.max(), times[ratio.argmax()])
