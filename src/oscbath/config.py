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

Every number is a JSON number: true, false and quoted numbers such as "2"
are rejected.  Complex numbers are written as a plain number or a
two-element [re, im] list.  Optional top-level keys: "tolerances" (name ->
number overrides) and "fit_window" ([t1, t2] for the exponential fit; both
finite, t1 < t2).
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


def _value(val, path, kind):
    """``val`` read as ``kind``: dict, list, str, int, float (any JSON
    number) or complex (a number or an [re, im] pair of numbers).  A JSON
    boolean is never a number, and a quoted number is a string."""
    if kind is complex and isinstance(val, list) and len(val) == 2:
        return complex(_value(val[0], f"{path}[0]", float), _value(val[1], f"{path}[1]", float))
    any_number = kind in (float, complex)  # int or float; kind int takes an int only
    if isinstance(val, bool) or not isinstance(val, (int, float) if any_number else kind):
        names = {dict: "an object", list: "an array", str: "a string", bool: "a boolean",
                 int: "an integer", float: "a number", complex: "a number or [re, im] pair",
                 type(None): "null"}
        raise ConfigError(f"key '{path}' must be {names[kind]}, "
                          f"got {names.get(type(val), type(val).__name__)}")
    return kind(val) if any_number else val


def _items(d, path, kind, length=None):
    """Every entry of the array at ``path`` read as ``kind``; exactly
    ``length`` of them where the schema fixes the count."""
    items = _get(d, path, list)
    if length is not None and len(items) != length:
        raise ConfigError(f"{path} has {len(items)} entries, expected {length}")
    return [_value(x, f"{path}[{i}]", kind) for i, x in enumerate(items)]


def _get(d, path, kind, default=None):
    """The value at ``path``, whose last part is its key in ``d``, read as
    ``kind``; ``default`` if the key is absent, and an error without one."""
    key = path.rpartition(".")[2]
    if not isinstance(d, dict) or key not in d:
        if default is None:
            raise ConfigError(f"missing required key '{path}'")
        return default
    return _value(d[key], path, kind)


def parse_config(data):
    """Build a RunConfig from a decoded JSON document."""
    try:
        return _parse(data)
    except ConfigError:
        raise
    except (ValueError, TypeError, OverflowError) as exc:
        # a value of the right type but unusable: out of range or of the wrong shape
        raise ConfigError(f"invalid value: {exc}") from exc


def _parse(data):
    system = _get(data, "system", dict)
    omega = _get(system, "system.omega", float)
    mass = _get(system, "system.mass", float, 1.0)
    v_self = _get(system, "system.v_self", float, 0.0)

    bath = _get(data, "bath", dict)
    n = _get(bath, "bath.n", int)
    if n < 0:
        raise ConfigError(f"bath.n must be >= 0, got {n}")

    if n == 0:
        spec = ModelSpec(omega=omega, bath_frequencies=np.zeros(0),
                         couplings=np.zeros(0), self_shift=v_self, mass=mass)
    else:
        spectrum = _get(bath, "bath.spectrum", dict)
        stype = _get(spectrum, "bath.spectrum.type", str)
        coupling = _get(bath, "bath.coupling", dict)
        ctype = _get(coupling, "bath.coupling.type", str)

        if ctype == "uniform":
            gs = np.full(n, _get(coupling, "bath.coupling.g", complex))
        elif ctype == "explicit":
            gs = np.array(_items(coupling, "bath.coupling.gs", complex, n))
        else:
            raise ConfigError(f"unknown bath.coupling.type '{ctype}'")

        bath_bath = bath.get("bath_bath", "zero")
        if isinstance(bath_bath, list):
            bath_bath = np.array(
                [[_value(x, f"bath.bath_bath[{i}][{j}]", complex) for j, x in enumerate(row)]
                 for i, row in enumerate(_items(bath, "bath.bath_bath", list))])
        elif bath_bath == "zero":
            bath_bath = None
        else:
            raise ConfigError("bath.bath_bath must be \"zero\" or a matrix")

        if stype == "linear":
            spec = preset_linear_bath(n, _get(spectrum, "bath.spectrum.omega_min", float),
                                      _get(spectrum, "bath.spectrum.omega_max", float),
                                      omega, gs, self_shift=v_self, mass=mass,
                                      bath_bath=bath_bath)
        elif stype == "explicit":
            omegas = _items(spectrum, "bath.spectrum.omegas", float, n)
            spec = ModelSpec(omega=omega, bath_frequencies=omegas, couplings=gs,
                             self_shift=v_self, bath_bath=bath_bath, mass=mass)
        else:
            raise ConfigError(f"unknown bath.spectrum.type '{stype}'")

    initial = _get(data, "initial", dict)
    itype = _get(initial, "initial.type", str)
    if itype == "thermal":
        init = thermal_populations(
            spec, _get(initial, "initial.beta", float),
            system_occupation=_get(initial, "initial.system_occupation", float, 1.0))
    elif itype == "explicit":
        init = explicit_populations(spec, _items(initial, "initial.occupations", float))
    else:
        raise ConfigError(f"unknown initial.type '{itype}'")

    time = _get(data, "time", dict)
    t_max = _get(time, "time.t_max", float)
    dt = _get(time, "time.dt", float)

    tolerances = dict(DEFAULT_TOLERANCES)
    for key, val in _get(data, "tolerances", dict, {}).items():
        if key not in tolerances:
            raise ConfigError(f"unknown tolerance '{key}'")
        tolerances[key] = _value(val, f"tolerances.{key}", float)
        if not tolerances[key] > 0:
            raise ConfigError(f"tolerances.{key} must be a positive number")

    fit_window = tuple(_items(data, "fit_window", float, 2)) if "fit_window" in data else None

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
