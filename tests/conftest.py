import numpy as np
import pytest

import oscbath as ob

TWO_OSC_G = 0.1


def linear_bath(n, omega_min, omega_max, omega, g, **fields):
    """The model that a config's linear spectrum and uniform coupling spell:
    n bath frequencies evenly spaced over [omega_min, omega_max], each
    coupled with ``g``; ``fields`` are further ``ModelSpec`` fields."""
    return ob.ModelSpec(omega=omega, bath_frequencies=np.linspace(omega_min, omega_max, n),
                        couplings=np.full(n, g, dtype=np.complex128), **fields)


@pytest.fixture(scope="session")
def two_osc_spec():
    return ob.ModelSpec(omega=1.0, bath_frequencies=np.array([1.0]),
                        couplings=np.array([TWO_OSC_G]))


@pytest.fixture(scope="session")
def two_osc_sd(two_osc_spec):
    return ob.eigendecompose(ob.build_hamiltonian(two_osc_spec))


@pytest.fixture(scope="session")
def bath51_spec():
    return linear_bath(51, 0.5, 1.5, 1.0, 0.01)


@pytest.fixture(scope="session")
def bath51_sd(bath51_spec):
    return ob.eigendecompose(ob.build_hamiltonian(bath51_spec))


@pytest.fixture(scope="session")
def bath201_spec():
    return linear_bath(201, 0.0, 2.0, 1.0, 0.01)


@pytest.fixture(scope="session")
def bath201_sd(bath201_spec):
    return ob.eigendecompose(ob.build_hamiltonian(bath201_spec))


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2
