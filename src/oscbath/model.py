"""Model construction: one system oscillator linearly coupled to a bath.

Index 0 is always the system oscillator; bath oscillators occupy indices
1..N.  The one-particle Hamiltonian is the bare frequencies on the diagonal
plus the coupling block (hbar = 1, frequencies in angular units).
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """System frequency, bath spectrum and couplings.

    ``mass`` only enters position/noise normalization 1/sqrt(2*M*Omega); it
    never affects amplitudes, transition probabilities or the master and
    Langevin coefficients.
    """

    omega: float                      # system frequency, > 0
    bath_frequencies: np.ndarray      # shape (N,), >= 0
    couplings: np.ndarray             # shape (N,), complex g_n = <omega_n|v|Omega>
    self_shift: float = 0.0           # <Omega|v|Omega>
    bath_bath: np.ndarray | None = None  # Hermitian (N, N) block, None = zero
    mass: float = 1.0
    density_of_states: float | None = None  # set by grid presets

    def __post_init__(self):
        object.__setattr__(self, "bath_frequencies",
                           np.asarray(self.bath_frequencies, dtype=np.float64))
        object.__setattr__(self, "couplings",
                           np.asarray(self.couplings, dtype=np.complex128))
        if self.bath_bath is not None:
            object.__setattr__(self, "bath_bath",
                               np.asarray(self.bath_bath, dtype=np.complex128))
        self._validate()

    def _validate(self):
        if not (self.omega > 0 and np.isfinite(self.omega)):
            raise ValueError(f"system frequency must be positive, got {self.omega}")
        if not (self.mass > 0 and np.isfinite(self.mass)):
            raise ValueError(f"mass must be positive, got {self.mass}")
        n = self.bath_frequencies.shape[0]
        if self.couplings.shape != (n,):
            raise ValueError(
                f"couplings length {self.couplings.shape} does not match bath size {n}")
        if np.any(self.bath_frequencies < 0) or not np.all(np.isfinite(self.bath_frequencies)):
            raise ValueError("bath frequencies must be finite and non-negative")
        if not np.all(np.isfinite(self.couplings)):
            raise ValueError("couplings must be finite")
        if self.bath_bath is not None:
            if self.bath_bath.shape != (n, n):
                raise ValueError(
                    f"bath_bath shape {self.bath_bath.shape} does not match bath size {n}")
            dev = np.abs(self.bath_bath - self.bath_bath.conj().T).max() if n else 0.0
            if dev > 0:
                raise ValueError(f"bath_bath block not Hermitian: max deviation {dev:.3e}")

    @property
    def n_bath(self):
        return self.bath_frequencies.shape[0]

    @property
    def dim(self):
        return self.n_bath + 1

    @property
    def level_spacing(self):
        """Smallest positive gap between bath frequencies, 0 if there is none."""
        gaps = np.diff(np.unique(self.bath_frequencies))
        return gaps.min() if gaps.size else 0.0

    def bare_frequencies(self):
        """Diagonal of the uncoupled Hamiltonian: (Omega, omega_1..omega_N)."""
        return np.concatenate(([self.omega], self.bath_frequencies))

    def coupling_matrix(self):
        """The interaction v as a dense Hermitian (N+1, N+1) matrix."""
        n = self.n_bath
        v = np.zeros((n + 1, n + 1), dtype=np.complex128)
        v[0, 0] = self.self_shift
        v[1:, 0] = self.couplings
        v[0, 1:] = self.couplings.conj()
        if self.bath_bath is not None:
            v[1:, 1:] = self.bath_bath
        return v


def build_hamiltonian(spec):
    """Dense one-particle Hamiltonian h = h0 + v, exactly Hermitian."""
    h = spec.coupling_matrix()
    h[np.diag_indices(spec.dim)] += spec.bare_frequencies()
    return h


def preset_linear_bath(n, omega_min, omega_max, omega, g, self_shift=0.0, mass=1.0,
                       bath_bath=None):
    """Uniform frequency grid on [omega_min, omega_max]; ``g`` is one coupling or n.

    Records the density of states rho = (n - 1) / (omega_max - omega_min)
    for golden-rule predictions.
    """
    if n < 1:
        raise ValueError(f"bath size must be >= 1, got {n}")
    if not omega_min < omega_max:
        raise ValueError(
            f"degenerate frequency grid: need omega_min < omega_max, "
            f"got [{omega_min}, {omega_max}]")
    freqs = np.linspace(omega_min, omega_max, n)
    rho = (n - 1) / (omega_max - omega_min) if n > 1 else None
    return ModelSpec(
        omega=omega,
        bath_frequencies=freqs,
        couplings=np.full(n, g, dtype=np.complex128),
        self_shift=self_shift,
        bath_bath=bath_bath,
        mass=mass,
        density_of_states=rho,
    )


def thermal_populations(spec, beta, system_occupation=1.0):
    """Bose-Einstein initial occupations 1/(e^{beta*omega} - 1) for the bath.

    The system occupation is user-supplied (default 1 quantum).
    """
    if not beta > 0:
        raise ValueError(f"inverse temperature must be positive, got {beta}")
    if system_occupation < 0:
        raise ValueError("system occupation must be non-negative")
    if np.any(spec.bath_frequencies == 0):
        raise ValueError("thermal occupation diverges for a zero-frequency bath mode")
    occ = np.empty(spec.dim)
    occ[0] = system_occupation
    with np.errstate(over="ignore"):
        occ[1:] = 1.0 / np.expm1(beta * spec.bath_frequencies)
    return occ


def explicit_populations(spec, occupations):
    """Validated explicit initial occupations, index 0 = system."""
    occ = np.asarray(occupations, dtype=np.float64)
    if occ.shape != (spec.dim,):
        raise ValueError(
            f"expected {spec.dim} occupations (system + {spec.n_bath} bath), "
            f"got {occ.shape}")
    if np.any(occ < 0) or not np.all(np.isfinite(occ)):
        raise ValueError("occupations must be finite and non-negative")
    return occ
