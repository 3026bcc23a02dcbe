"""JSON run-configuration parsing.

Schema (all frequencies angular, hbar = 1)::

    {
      "system":  {"omega": 1.0, "mass": 1.0, "v_self": 0.0},
      "bath": {
        "n": 201,
        "spectrum": {"type": "linear", "omega_min": 0.0, "omega_max": 2.0}
                  | {"type": "explicit", "omegas": [...]},
        "coupling": {"type": "uniform", "g": 0.01}
                  | {"type": "explicit", "gs": [...]},
        "bath_bath": "zero" | [[...], ...]
      },
      "initial": {"type": "thermal", "beta": 1.0, "system_occupation": 1.0}
               | {"type": "explicit", "occupations": [...]},
      "time":   {"t_max": 200.0, "dt": 0.1}
    }

Complex numbers are written as a plain number or a two-element [re, im]
list.  Optional top-level keys: "tolerances" (name -> float overrides) and
"fit_window" ([t1, t2] for the exponential fit; both finite, t1 < t2).
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .master import DEFAULT_CONDITION_CAP
from .model import ModelSpec, explicit_populations, preset_linear_bath, thermal_populations


class ConfigError(ValueError):
    """Invalid configuration file; message carries the offending key path."""


DEFAULT_TOLERANCES = {
    "unitarity": 1e-10,
    "stochasticity": 1e-10,
    "conservation": 1e-10,
    "master_residual": 1e-8,
    "langevin_residual": 1e-6,
    "condition_cap": DEFAULT_CONDITION_CAP,
}


@dataclass
class RunConfig:
    spec: ModelSpec
    initial: np.ndarray
    t_max: float
    dt: float
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))
    fit_window: tuple | None = None

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ConfigError(f"time.dt must be finite and positive, got {self.dt}")
        if not (math.isfinite(self.t_max) and self.t_max >= self.dt):
            raise ConfigError(f"time.t_max must be finite and >= dt, got {self.t_max}")
        if self.fit_window is not None:
            t1, t2 = self.fit_window
            if not (math.isfinite(t1) and math.isfinite(t2) and t1 < t2):
                raise ConfigError(f"fit window must be finite with t1 < t2, got [{t1}, {t2}]")

    def time_grid(self):
        try:
            return np.arange(int(round(self.t_max / self.dt)) + 1) * self.dt
        except (ValueError, OverflowError, MemoryError) as exc:
            raise ConfigError(f"time.dt = {self.dt} gives a time grid too long "
                              f"for t_max = {self.t_max}: {exc}") from exc

    def fit_times(self):
        """The exponential-fit window and the grid times inside it: the
        configured window, or else the decay regime of the finite bath, from
        the transient 5 / bandwidth to half the recurrence time 2 pi / spacing."""
        if self.fit_window is not None:
            t1, t2 = self.fit_window
        else:
            freqs, spacing = self.spec.bath_frequencies, self.spec.level_spacing
            if spacing > 0:
                t1, t2 = 5.0 / np.ptp(freqs), min(self.t_max, 0.5 * 2.0 * np.pi / spacing)
            else:  # no spacing: one bath frequency, maybe repeated, or none
                t1, t2 = self.dt if freqs.size >= 2 else 0.1 * self.t_max, self.t_max
            if not t1 < t2:
                t1, t2 = 0.0, self.t_max
        grid = self.time_grid()
        times = grid[(grid >= t1) & (grid <= t2)]
        if times.size < 2:
            raise ConfigError(f"fit window [{t1:g}, {t2:g}] holds fewer than "
                              f"2 points of the time grid [0, {grid[-1]:g}]")
        return (t1, t2), times


def _get(d, key, path, expected=None):
    if not isinstance(d, dict) or key not in d:
        raise ConfigError(f"missing required key '{path}'")
    val = d[key]
    if expected is not None and not isinstance(val, expected):
        raise ConfigError(f"key '{path}' has wrong type: got {type(val).__name__}")
    return val


def _as_complex(value, path):
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, list) and len(value) == 2:
        return complex(value[0], value[1])
    raise ConfigError(f"key '{path}' must be a number or [re, im] pair")


def parse_config(data):
    """Build a RunConfig from a decoded JSON document."""
    try:
        return _parse(data)
    except ConfigError:
        raise
    except (ValueError, TypeError, OverflowError) as exc:
        # a value of the right key but unusable: wrong type, shape or range
        raise ConfigError(f"invalid value: {exc}") from exc


def _parse(data):
    system = _get(data, "system", "system", dict)
    omega = float(_get(system, "omega", "system.omega", (int, float)))
    mass = float(system.get("mass", 1.0))
    v_self = float(system.get("v_self", 0.0))

    bath = _get(data, "bath", "bath", dict)
    n = _get(bath, "n", "bath.n", int)
    if n < 0:
        raise ConfigError(f"bath.n must be >= 0, got {n}")

    if n == 0:
        spec = ModelSpec(omega=omega, bath_frequencies=np.zeros(0),
                         couplings=np.zeros(0), self_shift=v_self, mass=mass)
    else:
        spectrum = _get(bath, "spectrum", "bath.spectrum", dict)
        stype = _get(spectrum, "type", "bath.spectrum.type", str)
        coupling = _get(bath, "coupling", "bath.coupling", dict)
        ctype = _get(coupling, "type", "bath.coupling.type", str)

        if ctype == "uniform":
            gs = np.full(n, _as_complex(_get(coupling, "g", "bath.coupling.g"),
                                        "bath.coupling.g"))
        elif ctype == "explicit":
            raw_gs = _get(coupling, "gs", "bath.coupling.gs", list)
            if len(raw_gs) != n:
                raise ConfigError(
                    f"bath.coupling.gs has {len(raw_gs)} entries, expected {n}")
            gs = np.array([_as_complex(g, f"bath.coupling.gs[{i}]")
                           for i, g in enumerate(raw_gs)])
        else:
            raise ConfigError(f"unknown bath.coupling.type '{ctype}'")

        bath_bath_raw = bath.get("bath_bath", "zero")
        if bath_bath_raw == "zero":
            bath_bath = None
        elif isinstance(bath_bath_raw, list):
            bath_bath = np.array(
                [[_as_complex(x, f"bath.bath_bath[{i}][{j}]")
                  for j, x in enumerate(row)]
                 for i, row in enumerate(bath_bath_raw)])
        else:
            raise ConfigError("bath.bath_bath must be \"zero\" or a matrix")

        if stype == "linear":
            omega_min = float(_get(spectrum, "omega_min", "bath.spectrum.omega_min",
                                   (int, float)))
            omega_max = float(_get(spectrum, "omega_max", "bath.spectrum.omega_max",
                                   (int, float)))
            spec = preset_linear_bath(n, omega_min, omega_max, omega, gs,
                                      self_shift=v_self, mass=mass, bath_bath=bath_bath)
        elif stype == "explicit":
            raw_omegas = _get(spectrum, "omegas", "bath.spectrum.omegas", list)
            if len(raw_omegas) != n:
                raise ConfigError(
                    f"bath.spectrum.omegas has {len(raw_omegas)} entries, expected {n}")
            spec = ModelSpec(omega=omega, bath_frequencies=np.asarray(raw_omegas, float),
                             couplings=gs, self_shift=v_self, bath_bath=bath_bath,
                             mass=mass)
        else:
            raise ConfigError(f"unknown bath.spectrum.type '{stype}'")

    initial = _get(data, "initial", "initial", dict)
    itype = _get(initial, "type", "initial.type", str)
    if itype == "thermal":
        beta = float(_get(initial, "beta", "initial.beta", (int, float)))
        occ0 = float(initial.get("system_occupation", 1.0))
        init = thermal_populations(spec, beta, system_occupation=occ0)
    elif itype == "explicit":
        init = explicit_populations(
            spec, _get(initial, "occupations", "initial.occupations", list))
    else:
        raise ConfigError(f"unknown initial.type '{itype}'")

    time = _get(data, "time", "time", dict)
    t_max = float(_get(time, "t_max", "time.t_max", (int, float)))
    dt = float(_get(time, "dt", "time.dt", (int, float)))

    tolerances = dict(DEFAULT_TOLERANCES)
    for key, val in data.get("tolerances", {}).items():
        if key not in tolerances:
            raise ConfigError(f"unknown tolerance '{key}'")
        if not (isinstance(val, (int, float)) and val > 0):
            raise ConfigError(f"tolerances.{key} must be a positive number")
        tolerances[key] = float(val)

    fit_window = None
    if "fit_window" in data:
        fw = data["fit_window"]
        if not (isinstance(fw, list) and len(fw) == 2):
            raise ConfigError("fit_window must be a list [t1, t2]")
        fit_window = (float(fw[0]), float(fw[1]))

    return RunConfig(spec=spec, initial=init, t_max=t_max, dt=dt,
                     tolerances=tolerances, fit_window=fit_window)


def load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except ValueError as exc:
        # bad syntax, text that is not UTF-8, an integer past int's digit limit
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return parse_config(data)
