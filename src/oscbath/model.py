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
        # every field that enters H, checked as stored: H itself is dim^2
        for name, value in (("system frequency", self.omega), ("v_self", self.self_shift),
                            ("bath frequencies", self.bath_frequencies),
                            ("couplings", self.couplings), ("bath_bath", self.bath_bath)):
            if value is not None and not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite")
        if not self.omega > 0:
            raise ValueError(f"system frequency must be positive, got {self.omega}")
        if not (self.mass > 0 and np.isfinite(self.mass)):
            raise ValueError(f"mass must be positive, got {self.mass}")
        n = self.bath_frequencies.shape[0]
        if self.couplings.shape != (n,):
            raise ValueError(
                f"couplings length {self.couplings.shape} does not match bath size {n}")
        if np.any(self.bath_frequencies < 0):
            raise ValueError("bath frequencies must be non-negative")
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


def build_hamiltonian(spec):
    """Dense one-particle Hamiltonian h = h0 + v, exactly Hermitian: the
    coupling v plus the bare frequencies (Omega, omega_1..omega_N) on the
    diagonal."""
    h = np.zeros((spec.dim, spec.dim), dtype=np.complex128)
    h[0, 0] = spec.self_shift
    h[1:, 0] = spec.couplings
    h[0, 1:] = spec.couplings.conj()
    if spec.bath_bath is not None:
        h[1:, 1:] = spec.bath_bath
    h[np.diag_indices(spec.dim)] += np.concatenate(([spec.omega], spec.bath_frequencies))
    return h


def preset_linear_bath(n, omega_min, omega_max, omega, g, self_shift=0.0, mass=1.0,
                       bath_bath=None):
    """Uniform frequency grid on [omega_min, omega_max]; ``g`` is one coupling or n.

    Records the density of states rho = (n - 1) / (omega_max - omega_min)
    for golden-rule predictions.
    """
    if n < 1:
        raise ValueError(f"bath size must be >= 1, got {n}")
    if not (np.isfinite(omega_min) and np.isfinite(omega_max) and omega_min < omega_max):
        raise ValueError(
            f"degenerate frequency grid: need finite omega_min < omega_max, "
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
    if np.any(spec.bath_frequencies == 0):
        raise ValueError("thermal occupation diverges for a zero-frequency bath mode")
    with np.errstate(over="ignore"):
        bath = 1.0 / np.expm1(beta * spec.bath_frequencies)
    return explicit_populations(spec, np.concatenate(([system_occupation], bath)))


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
