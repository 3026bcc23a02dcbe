import dataclasses
import importlib.util
import os
import subprocess
import sys

import numpy as np
import pytest

import oscbath as ob
from oscbath.master import DEFAULT_CONDITION_CAP, TimeBlock, time_blocks

TWO_OSC_G = 0.1
REPO_ROOT = os.path.realpath(os.path.join(os.path.dirname(__file__), ".."))
DIGEST_TOOL = os.path.join(REPO_ROOT, "tools", "output_digests.py")


def run_python(*args, **kwargs):
    """``python *args`` in a new process that imports this tree's package."""
    src = os.path.dirname(os.path.dirname(ob.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          **kwargs)


def load_digest_tool():
    """``tools/output_digests.py`` as a module: its matrix of runs and the
    configs it writes."""
    spec = importlib.util.spec_from_file_location("output_digests", DIGEST_TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def linear_bath(n, omega_min, omega_max, omega, g, **fields):
    """The model that a config's linear spectrum and uniform coupling spell:
    n bath frequencies evenly spaced over [omega_min, omega_max], each
    coupled with ``g``; ``fields`` are further ``ModelSpec`` fields."""
    return ob.ModelSpec(omega=omega, bath_frequencies=np.linspace(omega_min, omega_max, n),
                        couplings=np.full(n, g, dtype=np.complex128), **fields)


def uncoupled_sd(omega=1.0, bath=0.5):
    """The decomposition of a system at ``omega`` and one bath mode at
    ``bath``, with no coupling between them."""
    spec = ob.ModelSpec(omega=omega, bath_frequencies=np.array([bath]),
                        couplings=np.zeros(1))
    return ob.eigendecompose(ob.build_hamiltonian(spec))


def grid(sd, times, rows=None, condition_cap=DEFAULT_CONDITION_CAP):
    """One TimeBlock over ``times`` (a grid or one time), joined from the
    engine's blocks, with the leading ``rows`` rows of Pdot and W (all if
    None; for 0, ``w``, ``condition`` and ``singular`` are None).  Each
    block is copied before the next is drawn, which reuses the arrays of
    ``a`` and ``p``."""
    blocks = [dataclasses.replace(b, a=b.a.copy(), p=b.p.copy())
              for b in time_blocks(sd, np.atleast_1d(times), rows, condition_cap)]
    return TimeBlock(*(None if getattr(blocks[0], f.name) is None
                       else np.concatenate([getattr(b, f.name) for b in blocks])
                       for f in dataclasses.fields(TimeBlock)))


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


def complex_model(dim, seed):
    """A seeded dim-``dim`` model with complex couplings, a complex Hermitian
    ``bath_bath`` block and a nonzero ``v_self``, so H is a full complex
    matrix."""
    rng = np.random.default_rng(seed)
    n = dim - 1
    return ob.ModelSpec(omega=1.0, bath_frequencies=rng.uniform(0.0, 2.0, n),
                        couplings=0.1 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)),
                        self_shift=rng.uniform(-0.1, 0.1),
                        bath_bath=0.05 * random_hermitian(n, seed))
