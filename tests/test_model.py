import dataclasses
import itertools
import json
import os

import numpy as np
import pytest

import oscbath as ob
from oscbath.config import (MAX_COV_POINTS, MAX_W00_POINTS, ConfigError, load_config,
                            parse_config)
from oscbath.golden import perturbative_prediction
from oscbath.model import ModelSpec, build_hamiltonian, explicit_populations, thermal_populations

from conftest import linear_bath


class TestBuildHamiltonian:
    def test_bare_system(self):
        spec = ModelSpec(omega=1.0, bath_frequencies=np.zeros(0), couplings=np.zeros(0))
        h = build_hamiltonian(spec)
        assert h.shape == (1, 1)
        assert h[0, 0] == 1.0

    def test_single_bath_mode(self):
        spec = ModelSpec(omega=1.0, bath_frequencies=np.array([1.0]),
                         couplings=np.array([0.1]))
        assert np.array_equal(build_hamiltonian(spec),
                              np.array([[1.0, 0.1], [0.1, 1.0]]))

    def test_entries(self):
        spec = ModelSpec(omega=2.0, bath_frequencies=np.array([0.5, 1.5]),
                         couplings=np.array([0.1 + 0.2j, 0.3]),
                         self_shift=0.05,
                         bath_bath=np.array([[0.01, 0.02j], [-0.02j, 0.0]]))
        h = build_hamiltonian(spec)
        assert h[0, 0] == 2.05
        assert h[1, 0] == 0.1 + 0.2j
        assert h[0, 1] == 0.1 - 0.2j
        assert h[1, 1] == 0.51
        assert h[2, 1] == -0.02j
        assert np.abs(h - h.conj().T).max() == 0.0

    def test_linear_preset_spectral_count(self):
        spec = linear_bath(10, 0.5, 1.5, 1.0, 0.01)
        sd = ob.eigendecompose(build_hamiltonian(spec))
        assert sd.eigenvalues.shape == (11,)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="couplings"):
            ModelSpec(omega=1.0, bath_frequencies=np.array([1.0]),
                      couplings=np.array([0.1, 0.2]))

    @pytest.mark.parametrize("field, value, fragment", [
        ("omega", np.inf, "system frequency must be finite"),
        ("self_shift", np.nan, "v_self must be finite"),
        ("self_shift", -np.inf, "v_self must be finite"),
        ("bath_frequencies", [np.nan, 2.0], "bath frequencies must be finite"),
        ("bath_frequencies", [-1.0, 2.0], "bath frequencies must be non-negative"),
        ("couplings", [0.1, np.inf], "couplings must be finite"),
        # a Hermitian-looking non-finite diagonal: inf - inf is nan, not > 0
        ("bath_bath", [[np.inf, 0.0], [0.0, 0.0]], "bath_bath must be finite"),
        ("bath_bath", [[0.0, 0.0], [0.0, np.nan]], "bath_bath must be finite"),
        ("bath_bath", [[0.0, 0.1], [0.0, 0.0]], "bath_bath block not Hermitian"),
        # 1 / (2 M Omega) would overflow: once inf in most noise_cov.csv rows
        ("mass", 1e-320, r"mass \* system frequency 9.99989e-321 is too small"),
    ])
    def test_unbuildable_model_rejected(self, field, value, fragment):
        fields = dict(omega=1.0, bath_frequencies=[1.0, 2.0], couplings=[0.1, 0.1])
        fields[field] = value
        with pytest.raises(ValueError, match=fragment):
            ModelSpec(**fields)

    def test_mass_frequency_product_bound(self):
        # the bound is on 2 M Omega, which can underflow from two normal factors
        tiny = np.finfo(np.float64).tiny
        bare = dict(bath_frequencies=[], couplings=[])
        assert ModelSpec(omega=1.0, mass=tiny / 2, **bare).mass == tiny / 2
        with pytest.raises(ValueError, match=r"is too small: 1 / \(2 M Omega\) overflows"):
            ModelSpec(omega=1e-300, mass=1e-10, **bare)


class TestLinearPreset:
    """The config's linear spectrum: n bath frequencies evenly spaced over
    [omega_min, omega_max], each with the uniform coupling g."""

    @staticmethod
    def spec(n, omega_min, omega_max):
        return parse_config({
            "system": {"omega": 1.0},
            "bath": {"n": n,
                     "spectrum": {"type": "linear", "omega_min": omega_min,
                                  "omega_max": omega_max},
                     "coupling": {"type": "uniform", "g": 0.01}},
            "initial": {"type": "explicit", "occupations": [1.0] + [0.0] * n},
            "time": {"t_max": 1.0, "dt": 0.5},
        }).spec

    def test_grid(self):
        spec = self.spec(3, 0.5, 1.5)
        assert np.allclose(spec.bath_frequencies, [0.5, 1.0, 1.5], atol=0)
        assert np.all(spec.couplings == 0.01)
        assert spec.bath_bath is None

    def test_density_of_states(self):
        # golden's rho = 200 / (2 - 0) = 100, bit for bit: linspace pins both ends
        spec = self.spec(201, 0.0, 2.0)
        assert perturbative_prediction(spec).gamma == 2 * np.pi * 0.01 ** 2 * 100.0

    def test_degenerate_grid_rejected(self):
        with pytest.raises(ConfigError, match=r"^bath.spectrum needs a finite omega_max - "
                           r"omega_min and omega_min < omega_max, got \[1.0, 1.0\]$"):
            self.spec(1, 1.0, 1.0)

    @pytest.mark.parametrize("bounds", [("-Infinity", "1.5"), ("0.5", "Infinity"),
                                        ("NaN", "1.5"), ("-1e308", "1e308")])
    def test_non_finite_bounds_rejected(self, bounds):
        # before np.linspace, whose RuntimeWarning would fail this test; the
        # last span overflows a double
        with pytest.raises(ConfigError, match="^bath.spectrum needs a finite omega_max - "
                           "omega_min and omega_min < omega_max"):
            self.spec(5, *json.loads(f"[{bounds[0]}, {bounds[1]}]"))


class TestPopulations:
    def test_zero_temperature_limit(self, bath51_spec):
        occ = thermal_populations(bath51_spec, beta=1e4)
        assert np.all(occ[1:] < 1e-3)

    def test_bose_factor(self):
        spec = ModelSpec(omega=2.0, bath_frequencies=np.array([1.0]),
                         couplings=np.array([0.1]))
        occ = thermal_populations(spec, beta=1.0)
        assert occ[1] == pytest.approx(1 / (np.e - 1), abs=1e-12)
        assert occ[1] == pytest.approx(0.5819767, abs=1e-7)

    def test_system_default(self, bath51_spec):
        assert thermal_populations(bath51_spec, beta=1.0)[0] == 1.0

    def test_zero_frequency_mode_rejected(self):
        spec = linear_bath(3, 0.0, 1.0, 1.0, 0.1)
        with pytest.raises(ValueError, match="diverges"):
            thermal_populations(spec, beta=1.0)

    def test_explicit_validation(self, bath51_spec):
        with pytest.raises(ValueError, match="occupations"):
            explicit_populations(bath51_spec, [1.0, 2.0])
        with pytest.raises(ValueError, match="finite and non-negative"):
            explicit_populations(bath51_spec, [-1.0] + [0.0] * 51)

    @pytest.mark.parametrize("mass, occupations, fragment", [
        # (2 max_m N_m + 1) / (2 M Omega) bounds |C_ff|: 4.2e307 for an empty
        # bath mode, below max / 4 = 4.5e307, and 4.6e308 for 5 quanta
        (1.2e-308, [1.0, 0.0], None),
        (1.2e-308, [0.0, 5.0], r"up to 5 with mass \* system frequency 1.2e-308 "),
        # 2 N + 1 itself overflows, with no RuntimeWarning
        (1.0, [0.0, 1e308], r"up to 1e\+308 with mass \* system frequency 1 "),
    ])
    def test_noise_covariance_bound(self, mass, occupations, fragment):
        spec = ModelSpec(omega=1.0, bath_frequencies=[1.0], couplings=[0.1], mass=mass)
        if fragment is None:
            assert explicit_populations(spec, occupations).tolist() == occupations
        else:
            with pytest.raises(ValueError, match=f"bath occupations {fragment}overflow"):
                explicit_populations(spec, occupations)

    @pytest.mark.parametrize("beta, system_occupation, fragment", [
        (0.0, 1.0, "inverse temperature must be positive"),
        (-1.0, 1.0, "inverse temperature must be positive"),
        (np.nan, 1.0, "inverse temperature must be positive"),
        # beta * omega underflows to 0, or is subnormal: 1 / expm1 is inf
        (5e-324, 1.0, "inverse temperature 5e-324 is too small"),
        (1e-310, 1.0, "inverse temperature 1e-310 is too small"),
        (1.0, -1.0, "occupations must be finite and non-negative"),
        (1.0, np.nan, "occupations must be finite and non-negative"),
        (1.0, np.inf, "occupations must be finite and non-negative"),
    ])
    def test_thermal_rejected(self, bath51_spec, beta, system_occupation, fragment):
        with pytest.raises(ValueError, match=fragment):
            thermal_populations(bath51_spec, beta, system_occupation)


def test_level_spacing():
    def spacing(freqs):
        return ModelSpec(omega=1.0, bath_frequencies=np.array(freqs),
                         couplings=np.zeros(len(freqs))).level_spacing

    assert spacing([]) == spacing([1.0]) == spacing([1.0, 1.0]) == 0.0
    assert spacing([1.5, 0.5, 1.0, 0.5, 1.25]) == 0.25


@pytest.mark.parametrize("freqs", [
    [1.5, 0.5, 1.0, 0.5, 1.25],  # unsorted and repeated
    [0.7],
    [0.3, 0.3, 0.3],
    [-0.0, 0.0, 1.0],
    [0.0, 1.0, 0.1, 0.2, 0.30000000000000004, 0.3, 1.0],
    np.random.default_rng(7).permutation(np.linspace(0.5, 1.5, 51)),
])
def test_level_spacing_matches_unique(freqs):
    # the spacing numpy.unique gives, bit for bit, without numpy.unique
    freqs = np.array(freqs)
    gaps = np.diff(np.unique(freqs))
    expected = gaps.min() if gaps.size else 0.0
    spacing = ModelSpec(omega=1.0, bath_frequencies=freqs,
                        couplings=np.zeros(len(freqs))).level_spacing
    assert np.float64(spacing).tobytes() == np.float64(expected).tobytes()


@pytest.mark.parametrize("bath_bath", [None, np.array([[0.3, 0.1j, 0.0],
                                                       [-0.1j, -0.2, 0.05],
                                                       [0.0, 0.05, 0.0]])],
                         ids=["arrowhead", "bath_bath"])
def test_norm_bound(bath_bath):
    # the largest row sum of |H| for an arrowhead H, and above it here,
    # where bath_bath's diagonal lowers H's
    spec = ModelSpec(omega=1.0, bath_frequencies=np.array([0.5, 1.5, 2.0]),
                     couplings=np.array([0.1 + 0.2j, -0.3, 0.0]), self_shift=-0.05,
                     bath_bath=bath_bath)
    h = build_hamiltonian(spec)
    row_sums = np.abs(h).sum(axis=1)
    if bath_bath is None:
        assert spec.norm_bound == pytest.approx(row_sums.max(), rel=1e-15)
    else:
        assert spec.norm_bound > row_sums.max()
    assert np.abs(ob.eigendecompose(h).eigenvalues).max() <= spec.norm_bound


class TestConfig:
    def test_roundtrip_identical_matrix(self, tmp_path):
        # the linear grid's frequencies written out as an explicit spectrum
        path = tmp_path / "model.json"
        path.write_text("""{
          "system": {"omega": 1.0, "mass": 1.0, "v_self": 0.05},
          "bath": {
            "n": 7,
            "spectrum": {"type": "explicit",
                         "omegas": [0.5, 0.6666666666666666, 0.8333333333333333, 1.0,
                                    1.1666666666666665, 1.3333333333333333, 1.5]},
            "coupling": {"type": "explicit",
                         "gs": [0.01, 0.01, 0.01, 0.01, 0.01, 0.01, [0.01, 0.0]]},
            "bath_bath": "zero"
          },
          "initial": {"type": "thermal", "beta": 2.0},
          "time": {"t_max": 10.0, "dt": 0.1}
        }""")
        cfg = load_config(path)
        spec = linear_bath(7, 0.5, 1.5, 1.0, 0.01, self_shift=0.05)
        h1 = build_hamiltonian(spec)
        h2 = build_hamiltonian(cfg.spec)
        assert h1.tobytes() == h2.tobytes()
        assert cfg.t_max == 10.0 and cfg.dt == 0.1

    def test_linear_spectrum(self):
        cfg = parse_config({
            "system": {"omega": 1.0},
            "bath": {"n": 3,
                     "spectrum": {"type": "linear", "omega_min": 0.5, "omega_max": 1.5},
                     "coupling": {"type": "uniform", "g": 0.01}},
            "initial": {"type": "thermal", "beta": 1.0},
            "time": {"t_max": 1.0, "dt": 0.5},
        })
        assert np.allclose(cfg.spec.bath_frequencies, [0.5, 1.0, 1.5], atol=0)
        # rho = 2 / (1.5 - 0.5)
        assert perturbative_prediction(cfg.spec).gamma == 2 * np.pi * 0.01 ** 2 * 2.0

    def test_complex_couplings(self):
        cfg = parse_config({
            "system": {"omega": 1.0},
            "bath": {"n": 2,
                     "spectrum": {"type": "explicit", "omegas": [0.9, 1.1]},
                     "coupling": {"type": "explicit", "gs": [[0.1, 0.2], 0.3]}},
            "initial": {"type": "explicit", "occupations": [1, 0, 0]},
            "time": {"t_max": 1.0, "dt": 0.5},
        })
        assert cfg.spec.couplings[0] == 0.1 + 0.2j
        assert cfg.spec.couplings[1] == 0.3

    @pytest.mark.parametrize("mutation, fragment", [
        (lambda d: d.pop("system"), "system"),
        (lambda d: d["bath"].pop("coupling"), "bath.coupling"),
        (lambda d: d["time"].__setitem__("dt", -1.0), "dt"),
        (lambda d: d["initial"].__setitem__("type", "bogus"), "initial.type"),
        # values of the right key that cannot be used: one ConfigError each
        (lambda d: d.__setitem__("fit_window", ["a", "b"]),
         r"key 'fit_window\[0\]' must be a number, got a string"),
        (lambda d: d.__setitem__("fit_window", [1, "b"]),
         r"key 'fit_window\[1\]' must be a number, got a string"),
        (lambda d: d["system"].__setitem__("mass", "heavy"),
         "key 'system.mass' must be a number, got a string"),
        (lambda d: d["system"].__setitem__("mass", None),
         "key 'system.mass' must be a number, got null"),
        (lambda d: d["system"].__setitem__("mass", -1), "invalid value: mass"),
        (lambda d: d["system"].__setitem__("omega", -1), "invalid value: system frequency"),
        (lambda d: d["bath"]["spectrum"].__setitem__("omegas", ["x"]),
         r"key 'bath.spectrum.omegas\[0\]' must be a number, got a string"),
        (lambda d: d["system"].__setitem__("v_self", [1, 2]),
         "key 'system.v_self' must be a number, got an array"),
        (lambda d: d["bath"].__setitem__("bath_bath", [[1, 2]]),
         "invalid value: bath_bath shape"),
        (lambda d: d["system"].__setitem__("omega", "1"),
         "key 'system.omega' must be a number, got a string"),
        (lambda d: d["system"].__setitem__("omega", 10 ** 400),
         "invalid value: int too large to convert to float"),
        (lambda d: d["bath"]["coupling"].__setitem__("g", [1, 2, 3]),
         "key 'bath.coupling.g' must be a number or"),
        (lambda d: d["bath"].__setitem__("n", -1), "bath.n must be >= 0, got -1"),
        (lambda d: d["bath"].__setitem__("coupling", {"type": "explicit", "gs": [0.1, 0.2]}),
         "bath.coupling.gs has 2 entries, expected 1"),
        (lambda d: d["bath"]["spectrum"].__setitem__("omegas", [1.0, 2.0]),
         "bath.spectrum.omegas has 2 entries, expected 1"),
        (lambda d: d["bath"]["coupling"].__setitem__("type", "bogus"),
         "unknown bath.coupling.type 'bogus'"),
        (lambda d: d["bath"]["spectrum"].__setitem__("type", "bogus"),
         "unknown bath.spectrum.type 'bogus'"),
        (lambda d: d["bath"].__setitem__("bath_bath", "one"),
         'bath.bath_bath must be "zero" or a matrix'),
        (lambda d: d.__setitem__("tolerances", {"bogus": 1.0}), "unknown tolerance 'bogus'"),
        (lambda d: d.__setitem__("tolerances", {"unitarity": 0}),
         "tolerances.unitarity must be a positive number"),
        (lambda d: d.__setitem__("fit_window", [1.0]), "fit_window has 1 entries, expected 2"),
        # a JSON boolean is never a number, once read as 1 or 0
        pytest.param(lambda d: d["system"].__setitem__("omega", True),
                     "key 'system.omega' must be a number, got a boolean", id="omega true"),
        pytest.param(lambda d: d["system"].__setitem__("v_self", False),
                     "key 'system.v_self' must be a number, got a boolean", id="v_self false"),
        pytest.param(lambda d: d["bath"].update(n=True,
                                                coupling={"type": "explicit", "gs": [0.1]}),
                     "key 'bath.n' must be an integer, got a boolean", id="n true"),
        pytest.param(lambda d: d.__setitem__("initial", {"type": "thermal", "beta": True}),
                     "key 'initial.beta' must be a number, got a boolean", id="beta true"),
        pytest.param(lambda d: d["time"].__setitem__("t_max", True),
                     "key 'time.t_max' must be a number, got a boolean", id="t_max true"),
        pytest.param(lambda d: d["time"].__setitem__("dt", True),
                     "key 'time.dt' must be a number, got a boolean", id="dt true"),
        pytest.param(lambda d: d["bath"].__setitem__("coupling",
                                                     {"type": "explicit", "gs": [True]}),
                     r"key 'bath.coupling.gs\[0\]' must be a number or \[re, im\] pair, "
                     "got a boolean", id="gs entry true"),
        pytest.param(lambda d: d["initial"].__setitem__("occupations", [1, True]),
                     r"key 'initial.occupations\[1\]' must be a number, got a boolean",
                     id="occupation true"),
        pytest.param(lambda d: d.__setitem__("tolerances", {"unitarity": True}),
                     "key 'tolerances.unitarity' must be a number, got a boolean",
                     id="tolerance true"),
        # with an explicit initial state, omega_min false once built a 0.0 band edge
        pytest.param(lambda d: d["bath"].__setitem__(
                         "spectrum", {"type": "linear", "omega_min": False, "omega_max": 2.0}),
                     "key 'bath.spectrum.omega_min' must be a number, got a boolean",
                     id="omega_min false"),
        # ... and a quoted number is a string, once read as the number
        pytest.param(lambda d: d["system"].__setitem__("mass", "2"),
                     "key 'system.mass' must be a number, got a string", id="mass quoted"),
        pytest.param(lambda d: d["system"].__setitem__("v_self", "0.1"),
                     "key 'system.v_self' must be a number, got a string", id="v_self quoted"),
        pytest.param(lambda d: d.__setitem__("initial", {"type": "thermal", "beta": 1.0,
                                                         "system_occupation": "1"}),
                     "key 'initial.system_occupation' must be a number, got a string",
                     id="system_occupation quoted"),
        pytest.param(lambda d: d["bath"]["spectrum"].__setitem__("omegas", ["1.0"]),
                     r"key 'bath.spectrum.omegas\[0\]' must be a number, got a string",
                     id="omegas entry quoted"),
        pytest.param(lambda d: d["initial"].__setitem__("occupations", ["1", 0]),
                     r"key 'initial.occupations\[0\]' must be a number, got a string",
                     id="occupation quoted"),
        pytest.param(lambda d: d.__setitem__("fit_window", ["10", 20]),
                     r"key 'fit_window\[0\]' must be a number, got a string",
                     id="fit_window entry quoted"),
        # a key that the object's type does not read, once silently ignored
        pytest.param(lambda d: d["system"].__setitem__("v_slef", 0.5),
                     "unknown key 'system.v_slef'", id="system key misspelled"),
        pytest.param(lambda d: d.__setitem__("fit_windw", [1.0, 2.0]),
                     "unknown key 'fit_windw'", id="top-level key misspelled"),
        pytest.param(lambda d: d["bath"]["coupling"].__setitem__("gg", 0.5),
                     "unknown key 'bath.coupling.gg'", id="coupling key misspelled"),
        pytest.param(lambda d: d["bath"].__setitem__("nn", 2),
                     "unknown key 'bath.nn'", id="bath key misspelled"),
        pytest.param(lambda d: d["time"].__setitem__("t_mx", 2.0),
                     "unknown key 'time.t_mx'", id="time key misspelled"),
        pytest.param(lambda d: d["bath"]["coupling"].update(type="explicit", gs=[0.1]),
                     "unknown key 'bath.coupling.g'", id="uniform key in explicit coupling"),
        pytest.param(lambda d: d["bath"]["spectrum"].__setitem__("omega_min", 0.5),
                     "unknown key 'bath.spectrum.omega_min'",
                     id="linear key in explicit spectrum"),
        pytest.param(lambda d: d["initial"].__setitem__("beta", 1.0),
                     "unknown key 'initial.beta'", id="thermal key in explicit initial"),
    ])
    def test_schema_errors(self, mutation, fragment):
        doc = {
            "system": {"omega": 1.0},
            "bath": {"n": 1,
                     "spectrum": {"type": "explicit", "omegas": [1.0]},
                     "coupling": {"type": "uniform", "g": 0.1}},
            "initial": {"type": "explicit", "occupations": [1, 0]},
            "time": {"t_max": 1.0, "dt": 0.5},
        }
        mutation(doc)
        with pytest.raises(ConfigError, match=fragment):
            parse_config(doc)

    def test_objects_unread_without_a_bath_stay_unchecked(self):
        cfg = parse_config({
            "system": {"omega": 1.0},
            "bath": {"n": 0, "spectrum": {"typo": 1}, "coupling": {"gg": 0.5}},
            "initial": {"type": "explicit", "occupations": [1.0]},
            "time": {"t_max": 1.0, "dt": 0.5},
        })
        assert cfg.spec.dim == 1

    def test_one_model_spec_per_linear_config(self, monkeypatch):
        made = []
        post_init = ModelSpec.__post_init__
        monkeypatch.setattr(ModelSpec, "__post_init__",
                            lambda spec: made.append(spec) or post_init(spec))
        cfg = parse_config({
            "system": {"omega": 1.0},
            "bath": {"n": 2,
                     "spectrum": {"type": "linear", "omega_min": 0.5, "omega_max": 1.5},
                     "coupling": {"type": "explicit", "gs": [0.1, [0.0, 0.2]]},
                     "bath_bath": [[0.0, [0.0, 0.01]], [[0.0, -0.01], 0.0]]},
            "initial": {"type": "explicit", "occupations": [1, 0, 0]},
            "time": {"t_max": 1.0, "dt": 0.5},
        })
        assert made == [cfg.spec]
        # g = 0.1 at omega = 0.5, the first of the two nearest Omega, and
        # rho = 1 / (1.5 - 0.5)
        assert perturbative_prediction(cfg.spec).gamma == 2 * np.pi * 0.1 ** 2 * 1.0
        assert np.array_equal(cfg.spec.couplings, [0.1, 0.2j])
        assert np.array_equal(cfg.spec.bath_bath, [[0, 0.01j], [-0.01j, 0]])

    @pytest.mark.parametrize("bath, window", [
        # from 5 / bandwidth to half the recurrence time pi / spacing
        ({"n": 3, "spectrum": {"type": "linear", "omega_min": 0.0, "omega_max": 2.0}},
         (2.5, np.pi)),
        # ... at most t_max
        ({"n": 51, "spectrum": {"type": "linear", "omega_min": 0.5, "omega_max": 1.5}},
         (5.0, 10.0)),
        # ... or all of [0, t_max] when that is empty
        ({"n": 3, "spectrum": {"type": "linear", "omega_min": 0.0, "omega_max": 0.2}},
         (0.0, 10.0)),
        # no level spacing: [dt, t_max] for a degenerate bath, else [t_max / 10, t_max]
        ({"n": 2, "spectrum": {"type": "explicit", "omegas": [1.0, 1.0]}}, (0.5, 10.0)),
        ({"n": 1, "spectrum": {"type": "explicit", "omegas": [1.0]}}, (1.0, 10.0)),
        ({"n": 0}, (1.0, 10.0)),
    ])
    def test_default_fit_window(self, bath, window):
        bath["coupling"] = {"type": "uniform", "g": 0.01}
        cfg = parse_config({
            "system": {"omega": 1.0},
            "bath": bath,
            "initial": {"type": "explicit", "occupations": [1.0] + [0.0] * bath["n"]},
            "time": {"t_max": 10.0, "dt": 0.5},
        })
        got, times = cfg.fit_times()
        assert got == window
        grid = cfg.time_grid()
        assert np.array_equal(times, grid[(grid >= window[0]) & (grid <= window[1])])

    @pytest.mark.parametrize("window, fragment", [
        ((2.0, 1.0), "fit window must be finite with t1 < t2"),
        ((1.0, 1.0), "fit window must be finite with t1 < t2"),
        ((0.0, np.inf), "fit window must be finite"),
        ((np.nan, 1.0), "fit window must be finite"),
    ])
    def test_fit_window_checked_once(self, window, fragment):
        cfg = parse_config({
            "system": {"omega": 1.0}, "bath": {"n": 0},
            "initial": {"type": "explicit", "occupations": [1.0]},
            "time": {"t_max": 10.0, "dt": 0.5},
        })
        with pytest.raises(ConfigError, match=fragment):
            dataclasses.replace(cfg, fit_window=window)

    def test_phase_bound_on_every_t_max(self):
        # ||H||_inf = 1.1, so 2**52 / 1.1 = 4.09e15 is the largest t_max, and
        # replace() checks a t_max override as load_config checks the file
        cfg = parse_config({
            "system": {"omega": 1.0},
            "bath": {"n": 1, "spectrum": {"type": "explicit", "omegas": [1.0]},
                     "coupling": {"type": "explicit", "gs": [0.1]}},
            "initial": {"type": "explicit", "occupations": [1.0, 0.0]},
            "time": {"t_max": 10.0, "dt": 0.5},
        })
        assert dataclasses.replace(cfg, t_max=4.09e15).t_max == 4.09e15
        with pytest.raises(ConfigError, match=r"^\|\|H\|\|_inf \* t_max = 4\.51e\+15 is not "
                                              r"below 2\*\*52: "):
            dataclasses.replace(cfg, t_max=4.1e15)

    def test_fit_window_holds_two_grid_points(self):
        cfg = parse_config({
            "system": {"omega": 1.0}, "bath": {"n": 0},
            "initial": {"type": "explicit", "occupations": [1.0]},
            "time": {"t_max": 10.0, "dt": 0.5}, "fit_window": [9.9, 20.0],
        })
        with pytest.raises(ConfigError, match="holds fewer than 2 points"):
            cfg.fit_times()
        _, times = dataclasses.replace(cfg, fit_window=(9.5, 20.0)).fit_times()
        assert times.tolist() == [9.5, 10.0]

    @pytest.mark.parametrize("name", ["two_oscillator.json", "linear_bath_n51.json",
                                      "linear_bath_n201.json"])
    def test_subsampled_grids(self, name):
        # each is its full grid at the smallest stride that keeps at most
        # its cap of times, first time included
        cfg = load_config(os.path.join(os.path.dirname(__file__), "..", "configs", name))
        for times, grid, cap in ((cfg.cov_times(), cfg.time_grid(), MAX_COV_POINTS),
                                 (cfg.w00_times(0.0), cfg.fit_times()[1], MAX_W00_POINTS)):
            stride = next(k for k in itertools.count(1) if len(grid[::k]) <= cap)
            assert np.array_equal(times, grid[::stride])
            assert times[0] == grid[0] and len(times) <= cap

    def test_json_error_has_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\n  'bad': 1\n}")
        with pytest.raises(ConfigError, match="line 2"):
            load_config(path)

    @pytest.mark.parametrize("text, fragment", [
        (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff"),
        (b"[1" + b"0" * 5000 + b"]", "Exceeds the limit"),  # int's digit limit
    ])
    def test_unreadable_json(self, tmp_path, text, fragment):
        path = tmp_path / "bad.json"
        path.write_bytes(text)
        with pytest.raises(ConfigError, match=f"invalid JSON in .*{fragment}"):
            load_config(path)
