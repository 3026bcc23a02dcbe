"""Exact master and Langevin equations for harmonic quantum Brownian motion
with a finite oscillator bath.

Everything reduces to the one-particle transition amplitudes A(t): the
population master equation has time-local coefficients W(t) = Pdot P^{-1}
with P = |A|^2, and the system oscillator obeys a local second-order
equation whose damping and frequency follow from the survival amplitude.
"""

from .amplitudes import survival_series, system_row_series
from .config import ConfigError, RunConfig, load_config, parse_config
from .golden import (ExponentialFit, PerturbativePrediction, compare_exact_vs_golden,
                     delta_t, fit_exponential, golden_rule_rate_00, perturbative_prediction)
from .langevin import langevin_residual, langevin_series, noise_covariance_grid
from .linalg import NumericalError, SpectralDecomposition, eigendecompose
from .master import TimeBlock, master_residual, time_blocks
from .model import ModelSpec, build_hamiltonian, explicit_populations, thermal_populations

__version__ = "0.1.0"
