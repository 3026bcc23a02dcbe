import dataclasses

import numpy as np
import pytest

import oscbath as ob
from oscbath.config import ConfigError, load_config, parse_config
from oscbath.model import (ModelSpec, build_hamiltonian, explicit_populations,
                           preset_linear_bath, thermal_populations)


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
        spec = preset_linear_bath(10, 0.5, 1.5, 1.0, 0.01)
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
    ])
    def test_unbuildable_model_rejected(self, field, value, fragment):
        fields = dict(omega=1.0, bath_frequencies=[1.0, 2.0], couplings=[0.1, 0.1])
        fields[field] = value
        with pytest.raises(ValueError, match=fragment):
            ModelSpec(**fields)


class TestLinearPreset:
    def test_grid(self):
        spec = preset_linear_bath(3, 0.5, 1.5, 1.0, 0.01)
        assert np.allclose(spec.bath_frequencies, [0.5, 1.0, 1.5], atol=0)
        assert np.all(spec.couplings == 0.01)
        assert spec.bath_bath is None

    def test_density_of_states(self):
        spec = preset_linear_bath(201, 0.0, 2.0, 1.0, 0.01)
        assert spec.density_of_states == pytest.approx(100.0)

    def test_degenerate_grid_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            preset_linear_bath(1, 1.0, 1.0, 1.0, 0.01)

    @pytest.mark.parametrize("bounds", [(-np.inf, 1.5), (0.5, np.inf), (np.nan, 1.5)])
    def test_non_finite_bounds_rejected(self, bounds):
        # before np.linspace, whose RuntimeWarning would fail this test
        with pytest.raises(ValueError, match="need finite omega_min < omega_max"):
            preset_linear_bath(5, *bounds, 1.0, 0.01)


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
        spec = preset_linear_bath(3, 0.0, 1.0, 1.0, 0.1)
        with pytest.raises(ValueError, match="diverges"):
            thermal_populations(spec, beta=1.0)

    def test_explicit_validation(self, bath51_spec):
        with pytest.raises(ValueError, match="occupations"):
            explicit_populations(bath51_spec, [1.0, 2.0])
        with pytest.raises(ValueError, match="finite and non-negative"):
            explicit_populations(bath51_spec, [-1.0] + [0.0] * 51)

    @pytest.mark.parametrize("beta, system_occupation, fragment", [
        (0.0, 1.0, "inverse temperature must be positive"),
        (-1.0, 1.0, "inverse temperature must be positive"),
        (np.nan, 1.0, "inverse temperature must be positive"),
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


class TestConfig:
    def test_roundtrip_identical_matrix(self, tmp_path):
        # the preset's frequencies written out as an explicit spectrum
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
        spec = preset_linear_bath(7, 0.5, 1.5, 1.0, 0.01, self_shift=0.05)
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
        assert cfg.spec.density_of_states == pytest.approx(2.0)

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
        assert cfg.spec.density_of_states == 1.0
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
