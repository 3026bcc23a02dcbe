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

A linear spectrum is n frequencies evenly spaced from omega_min to
omega_max, both included; it needs omega_min < omega_max and a finite
omega_max - omega_min.  The spectrum, coupling and bath_bath keys are read
only when n > 0.

Every number is a JSON number: true, false and quoted numbers such as "2"
are rejected.  An object may hold only the keys its type reads, each once:
a misspelled or repeated key is an error, not ignored.  Complex numbers
are written as a plain number or a two-element [re, im] list.  Optional
top-level keys: "tolerances" (name -> number overrides) and "fit_window"
([t1, t2] for the exponential fit; both finite, t1 < t2).  ``RunConfig``
resolves every time grid a command computes on: the output grid, the fit
window, and the noise-covariance and W00 grids.  It rejects a model whose
bound on ||H||_inf times the last time of its grid, from the file or an
override, is not below 2**52, where the phases alpha t are lost to rounding.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .master import DEFAULT_CONDITION_CAP
from .model import ModelSpec, explicit_populations, thermal_populations


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

MAX_COV_POINTS = 101  # per axis in noise_cov.csv
MAX_W00_POINTS = 201  # fit-window times at which golden solves W


def _subsample(times, points):
    """Every k-th time, k the smallest stride that keeps at most ``points``."""
    return times[::max(1, -(-(len(times) - 1) // (points - 1)))]


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
        # from 2**52 on, rounding alpha * t alone costs half a radian of phase;
        # the grid ends at dt * round(t_max / dt), up to dt / 2 past t_max
        phase = self.spec.norm_bound * (self.dt * self._steps())
        if not phase < 2.0 ** 52:
            raise ConfigError(f"||H||_inf * t = {phase:.3g} at the grid's last time is not "
                              "below 2**52: the phases exp(-i alpha t) would be lost to rounding")
        if self.fit_window is not None:
            t1, t2 = self.fit_window
            if not (math.isfinite(t1) and math.isfinite(t2) and t1 < t2):
                raise ConfigError(f"fit window must be finite with t1 < t2, got [{t1}, {t2}]")

    def _steps(self, grid=int):
        """``grid`` of round(t_max / dt), the time grid's number of steps; a
        config error if the ratio is too large to round or the grid to make."""
        try:
            return grid(round(self.t_max / self.dt))
        except (ValueError, OverflowError, MemoryError) as exc:
            raise ConfigError(f"time.dt = {self.dt} gives a time grid too long "
                              f"for t_max = {self.t_max}: {exc}") from exc

    def time_grid(self):
        return self._steps(lambda steps: np.arange(steps + 1) * self.dt)

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
        if not np.any(times * times):  # np.polyfit scales its columns by sqrt(sum t^2)
            raise ConfigError(f"fit window [{t1:g}, {t2:g}] is too close to t = 0: "
                              "the square of each of its times underflows to 0")
        return (t1, t2), times

    def cov_times(self):
        """The noise-covariance times: at most MAX_COV_POINTS of the time grid."""
        return _subsample(self.time_grid(), MAX_COV_POINTS)

    def w00_times(self, gamma):
        """The fit-window times t with t ``gamma`` <= 1, within the decay time
        of |A00|^2, at most MAX_W00_POINTS: where the perturbative regime
        lets W[0, 0] be compared with the golden rule."""
        times, gamma = self.fit_times()[1], float(gamma)  # a Python product overflows to inf
        return _subsample(times[[t * gamma <= 1.0 for t in times.tolist()]], MAX_W00_POINTS)


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


def _known(obj, path, *keys):
    """Reject a key of the object at ``path`` (the top level if empty) that
    the schema does not read there, as a misspelling would be."""
    for key in obj:
        if key not in keys:
            raise ConfigError(f"unknown key '{path + '.' if path else ''}{key}'")


def _unique(pairs):
    """A decoded JSON object; a key given twice in it is an error."""
    obj = {}
    for key, val in pairs:
        if key in obj:
            raise ValueError(f"duplicate key '{key}'")
        obj[key] = val
    return obj


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
    _known(data, "", "system", "bath", "initial", "time", "tolerances", "fit_window")
    _known(system, "system", "omega", "mass", "v_self")
    omega = _get(system, "system.omega", float)
    mass = _get(system, "system.mass", float, 1.0)
    v_self = _get(system, "system.v_self", float, 0.0)

    bath = _get(data, "bath", dict)
    n = _get(bath, "bath.n", int)
    _known(bath, "bath", "n", "spectrum", "coupling", "bath_bath")
    if n < 0:
        raise ConfigError(f"bath.n must be >= 0, got {n}")

    omegas = gs = np.zeros(0)
    bath_bath = None
    if n > 0:
        spectrum = _get(bath, "bath.spectrum", dict)
        stype = _get(spectrum, "bath.spectrum.type", str)
        coupling = _get(bath, "bath.coupling", dict)
        ctype = _get(coupling, "bath.coupling.type", str)

        if ctype == "uniform":
            _known(coupling, "bath.coupling", "type", "g")
            gs = np.full(n, _get(coupling, "bath.coupling.g", complex))
        elif ctype == "explicit":
            _known(coupling, "bath.coupling", "type", "gs")
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
            _known(spectrum, "bath.spectrum", "type", "omega_min", "omega_max")
            lo = _get(spectrum, "bath.spectrum.omega_min", float)
            hi = _get(spectrum, "bath.spectrum.omega_max", float)
            # a span that overflows a double would make np.linspace warn
            if not (lo < hi and math.isfinite(hi - lo)):
                raise ConfigError(f"bath.spectrum needs a finite omega_max - omega_min and "
                                  f"omega_min < omega_max, got [{lo}, {hi}]")
            omegas = np.linspace(lo, hi, n)
        elif stype == "explicit":
            _known(spectrum, "bath.spectrum", "type", "omegas")
            omegas = _items(spectrum, "bath.spectrum.omegas", float, n)
        else:
            raise ConfigError(f"unknown bath.spectrum.type '{stype}'")
    spec = ModelSpec(omega=omega, bath_frequencies=omegas, couplings=gs,
                     self_shift=v_self, bath_bath=bath_bath, mass=mass)

    initial = _get(data, "initial", dict)
    itype = _get(initial, "initial.type", str)
    if itype == "thermal":
        _known(initial, "initial", "type", "beta", "system_occupation")
        init = thermal_populations(
            spec, _get(initial, "initial.beta", float),
            system_occupation=_get(initial, "initial.system_occupation", float, 1.0))
    elif itype == "explicit":
        _known(initial, "initial", "type", "occupations")
        init = explicit_populations(spec, _items(initial, "initial.occupations", float))
    else:
        raise ConfigError(f"unknown initial.type '{itype}'")

    time = _get(data, "time", dict)
    _known(time, "time", "t_max", "dt")
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
            data = json.load(fh, object_pairs_hook=_unique)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except ValueError as exc:
        # bad syntax, text that is not UTF-8, an integer past int's digit limit,
        # a key given twice in one object
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return parse_config(data)
