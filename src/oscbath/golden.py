"""Perturbative (golden-rule) rates and the exponential-decay regime.

The finite-time delta surrogate is taken as

    delta_t(alpha) = 2 sin^2(alpha t / 2) / (pi alpha^2 t)

which integrates to 1 over alpha and peaks at t/(2 pi) as alpha -> 0.
The decay constant of the survival probability is the Wigner-Weisskopf
rate gamma = 2 pi |g(Omega)|^2 rho(Omega), and the level shift is the
principal-value sum delta_Omega = v_self + PV sum |g_k|^2 / (Omega - omega_k).
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import NumericalError


@dataclass(frozen=True)
class PerturbativePrediction:
    delta_omega: float
    gamma: float
    density_of_states: float


@dataclass(frozen=True)
class ExponentialFit:
    gamma_fit: float    # decay rate of |A00|^2 (twice the |A00| slope)
    omega_fit: float    # phase slope
    goodness: float     # max |log|A| - fit| / total fitted drop; nan if no drop


def delta_t(alpha, t):
    """Finite-time delta surrogate, normalized to unit integral over alpha.

    ``alpha`` and ``t`` broadcast against each other.  At t = 0 it takes
    its t -> 0+ limit, 0 for every alpha (the peak t / (2 pi) vanishes
    too), so a rate read at t = 0 is 0, as the exact W(0) = Pdot(0) = 0 is.
    Negative times are rejected."""
    t = np.asarray(t, dtype=np.float64)
    if not np.all(t >= 0):
        raise ValueError(f"time must be non-negative, got {t}")
    alpha = np.asarray(alpha, dtype=np.float64)
    peak = t / (2.0 * np.pi)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = 2.0 * np.sin(alpha * t / 2.0) ** 2 / (np.pi * alpha ** 2 * t)
    # both limits are the peak: alpha -> 0 at fixed t, and t -> 0+ (peak 0)
    val = np.where((alpha == 0.0) | (t == 0.0), peak, val)
    if val.ndim == 0:
        return float(val)
    return val


def golden_rule_rate_00(spec, times):
    """Golden-rule loss rate of the system level over a 1-D time grid,
    Gamma_00(t) = -2 pi sum_n |g_n|^2 delta_t(omega_n - Omega): minus the
    column-0 sum of the rates 2 pi |v_n0|^2 delta_t(omega_n - omega_0).

    Only the system-bath couplings enter; the bath-bath block and the self
    shift do not.
    """
    times = np.asarray(times, dtype=np.float64)
    gaps = spec.bath_frequencies - spec.omega
    # (bath, time) layout: the sum runs over the bath index in order, as a
    # column sum of the dense rate matrix does
    weights = 2.0 * np.pi * np.abs(spec.couplings) ** 2
    rates = weights[:, None] * delta_t(gaps[:, None], times)
    return -rates.sum(axis=0)


def perturbative_prediction(spec):
    """Level shift and decay rate for the system oscillator.

    The principal-value sum drops terms with |Omega - omega_k| below half
    the smallest level spacing.  The decay rate uses the coupling at the
    bath frequency nearest Omega and the local density of states; it is
    zero, with a warning, without a density of states (fewer than two
    distinct bath frequencies) or outside the bath band.
    """
    freqs = spec.bath_frequencies
    spacing = spec.level_spacing
    cutoff = 0.5 * spacing
    gaps = spec.omega - freqs
    keep = np.abs(gaps) >= cutoff if cutoff > 0 else np.abs(gaps) > 0
    delta_omega = spec.self_shift + float(
        (np.abs(spec.couplings[keep]) ** 2 / gaps[keep]).sum())

    if spacing == 0:
        reason = "fewer than two distinct bath frequencies: no density of states"
    elif not freqs.min() <= spec.omega <= freqs.max():
        reason = "system frequency outside the bath band: no resonant decay channel"
    else:
        nearest = int(np.argmin(np.abs(gaps)))
        rho = spec.density_of_states if spec.density_of_states is not None else 1.0 / spacing
        gamma = 2.0 * np.pi * abs(spec.couplings[nearest]) ** 2 * rho
        return PerturbativePrediction(delta_omega=delta_omega, gamma=gamma,
                                      density_of_states=rho)
    warnings.warn(f"{reason}, gamma = 0")
    return PerturbativePrediction(delta_omega=delta_omega, gamma=0.0, density_of_states=0.0)


def fit_exponential(times, survival):
    """Least-squares exponential fit of the survival amplitude at every
    given time (the fit window's samples, in increasing order).

    Fits a line to log|A00(t)| (slope = -gamma_fit/2) and to the unwrapped
    phase (slope = -omega_fit).  Goodness is the max deviation of log|A00|
    from the line, relative to the total fitted drop across the samples, or
    nan when that drop is at rounding level (<= 1e-12: no decay to measure).
    """
    t = np.asarray(times, dtype=np.float64)
    s = np.asarray(survival, dtype=np.complex128)
    if t.size < 2:
        raise ValueError(f"an exponential fit needs 2 samples, got {t.size}")
    mags = np.abs(s)
    if mags.min() < 1e-12:
        raise NumericalError("survival amplitude below 1e-12 in the fit window "
                             "(log underflow)")
    logmag = np.log(mags)
    slope, intercept = np.polyfit(t, logmag, 1)
    phase = np.unwrap(np.angle(s))
    pslope, _ = np.polyfit(t, phase, 1)
    fitline = slope * t + intercept
    drop = abs(slope) * (t[-1] - t[0])
    goodness = float(np.abs(logmag - fitline).max() / drop) if drop > 1e-12 else float("nan")
    return ExponentialFit(gamma_fit=float(-2.0 * slope),
                          omega_fit=float(-pslope),
                          goodness=goodness)


def compare_exact_vs_golden(times, w00, spec):
    """Relative deviation between the exact and golden-rule loss rates of
    the system level, time-averaged over the window.

    ``w00`` holds the exact W[0, 0] at each time, nan where P is singular.
    Individual off-diagonal W entries do not track individual rates: the
    exact dynamics spreads the outflow over the whole near-resonant group
    of bath levels, and only the summed rate -W[0, 0] is a golden-rule
    observable.  So the comparison is |<-W_00> - <-Gamma_00>| / <-Gamma_00>
    with both averages over the non-singular times.  Returns nan when the
    system is uncoupled or every point is singular.
    """
    times = np.asarray(times, dtype=np.float64)
    w00 = np.asarray(w00, dtype=np.float64)
    valid = ~np.isnan(w00)
    if not valid.any():
        return float("nan")
    w_loss = -np.mean(w00[valid])
    rate_loss = -np.mean(golden_rule_rate_00(spec, times[valid]))
    if rate_loss == 0.0:
        return float("nan")
    return float(abs(w_loss - rate_loss) / abs(rate_loss))
