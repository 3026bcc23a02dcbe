import csv
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import oscbath.amplitudes
import oscbath.cli
import oscbath.master
import oscbath.validation
from oscbath.cli import main

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
TWO_OSC = os.path.join(CONFIG_DIR, "two_oscillator.json")
N51 = os.path.join(CONFIG_DIR, "linear_bath_n51.json")
N201 = os.path.join(CONFIG_DIR, "linear_bath_n201.json")


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def write_bare_config(tmp_path, t_max=1.0, dt=0.5):
    path = tmp_path / "bare.json"
    path.write_text(json.dumps({
        "system": {"omega": 1.0},
        "bath": {"n": 0},
        "initial": {"type": "explicit", "occupations": [1.0]},
        "time": {"t_max": t_max, "dt": dt},
    }))
    return str(path)


def test_package_imports_without_scipy():
    # scipy is a test dependency only: the package's linear algebra is numpy's
    src = os.path.dirname(os.path.dirname(oscbath.cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = "import sys, oscbath, oscbath.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "False\n"


class TestAmplitudesCommand:
    def test_bare_system_survival(self, tmp_path):
        cfg = write_bare_config(tmp_path)
        assert main(["amplitudes", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "survival.csv")
        assert [float(r["t"]) for r in rows] == [0.0, 0.5, 1.0]
        assert all(float(r["abs"]) == pytest.approx(1.0) for r in rows)

    def test_deterministic_outputs(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["amplitudes", "--config", TWO_OSC, "--out", str(out)]) == 0
        for name in ("amplitudes.csv", "survival.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_two_oscillator_closed_form(self, tmp_path):
        assert main(["amplitudes", "--config", TWO_OSC, "--out", str(tmp_path)]) == 0
        for row in read_csv(tmp_path / "survival.csv"):
            t = float(row["t"])
            assert float(row["abs"]) == pytest.approx(abs(np.cos(0.1 * t)), abs=1e-12)

    def test_grid_overrides(self, tmp_path):
        cfg = write_bare_config(tmp_path)
        assert main(["amplitudes", "--config", cfg, "--out", str(tmp_path),
                     "--t-max", "2.0", "--dt", "1.0"]) == 0
        rows = read_csv(tmp_path / "survival.csv")
        assert [float(r["t"]) for r in rows] == [0.0, 1.0, 2.0]


class TestMasterCommand:
    def test_two_oscillator_populations(self, tmp_path):
        assert main(["master", "--config", TWO_OSC, "--out", str(tmp_path)]) == 0
        for row in read_csv(tmp_path / "populations.csv"):
            if row["n"] == "0":
                t = float(row["t"])
                assert (float(row["population"])
                        == pytest.approx(np.cos(0.1 * t) ** 2, abs=1e-12))
        residuals = [float(r["residual"]) for r in read_csv(tmp_path / "master_residual.csv")]
        assert max(residuals) <= 1e-8
        report = (tmp_path / "singular_points.txt").read_text()
        assert "no singular" in report

    def test_singularity_sidecar(self, tmp_path):
        # t = pi/(4 g) ~ 7.854 lies inside [0, 8] on a fine grid
        assert main(["master", "--config", TWO_OSC, "--out", str(tmp_path),
                     "--t-max", "8.0", "--dt", "0.019634954084936207"]) == 0
        report = (tmp_path / "singular_points.txt").read_text()
        assert "no singular" not in report
        w_rows = read_csv(tmp_path / "w_coeffs.csv")
        assert any(r["W"] == "nan" for r in w_rows)

    def test_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["master", "--config", N51, "--out", str(out)]) == 0
        for name in ("populations.csv", "w_coeffs.csv", "master_residual.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_memory_bounded_by_one_block(self, tmp_path):
        # four times the grid, the same peak: the files are written block by
        # block and no whole-grid array or per-row list is kept
        peaks = []
        for t_max in ("12", "48"):
            tracemalloc.start()
            try:
                assert main(["master", "--config", N51, "--out", str(tmp_path),
                             "--t-max", t_max]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], peaks


@pytest.mark.parametrize("command, names", [
    ("amplitudes", ("amplitudes.csv", "survival.csv")),
    ("master", ("populations.csv", "w_coeffs.csv", "master_residual.csv",
                "singular_points.txt")),
    ("langevin", ("langevin.csv", "noise_cov.csv", "langevin_residual.csv",
                  "singular_points.txt")),
])
def test_bytes_do_not_depend_on_block_size(tmp_path, monkeypatch, command, names):
    # one time (or CSV row) per block, a few per block with a short last
    # one, the default, and the whole grid in one block; the one block rule
    # cuts the dense engine, the survival sums and every CSV column
    outs = []
    for entries in (1, 2 ** 10, oscbath.amplitudes.BLOCK_ENTRIES, 2 ** 22):
        monkeypatch.setattr(oscbath.amplitudes, "BLOCK_ENTRIES", entries)
        outs.append(tmp_path / str(entries))
        assert main([command, "--config", N51, "--out", str(outs[-1])]) == 0
    for name in names:
        expected = (outs[0] / name).read_bytes()
        assert all((out / name).read_bytes() == expected for out in outs[1:]), name


def test_lines_are_converted_one_block_at_a_time():
    # 100,000 rows of three columns as Python floats would be 9.6 MB; one
    # block of BLOCK_ENTRIES values is about 1 MB
    columns = [np.arange(100_000.0) + k for k in range(3)]
    tracemalloc.start()
    try:
        count = sum(1 for _ in oscbath.cli._lines("%.17g,%.17g,%.17g\n", *columns))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 100_000
    assert peak <= 64 * oscbath.amplitudes.BLOCK_ENTRIES, peak


def singular_report_times(out):
    lines = (out / "singular_points.txt").read_text().splitlines()
    assert lines[0].startswith("# time points where P(t) or the Wronskian is singular")
    return lines[1:]


class TestSingularPoints:
    # dt = pi/(2 g)/100 with g = 0.1 puts the zeros of det P(t), at odd
    # multiples of pi/(4 g), and of A00 = cos(g t) on grid points of [0, 70]
    GRID = ["--config", TWO_OSC, "--dt", "0.015707963267948967", "--t-max", "70"]

    def test_master_lists_the_nan_rows(self, tmp_path):
        # with no condition cap, only the exactly singular P(pi/(4 g)) is
        # flagged; dt = pi/(4 g)/400 puts it on a grid point
        doc = json.loads(open(TWO_OSC).read())
        doc["tolerances"] = {"condition_cap": float("inf")}  # json writes Infinity
        cap_off = tmp_path / "cap_off.json"
        cap_off.write_text(json.dumps(doc))
        for argv, count in [
            (self.GRID, 4),
            (["--config", str(cap_off), "--dt", "0.019634954084936207", "--t-max", "8"], 1),
        ]:
            out = tmp_path / str(count)
            assert main(["master", *argv, "--out", str(out)]) == 0
            listed = singular_report_times(out)
            w_rows = read_csv(out / "w_coeffs.csv")
            nan_times = sorted({r["t"] for r in w_rows if r["W"] == "nan"}, key=float)
            assert listed == nan_times and len(listed) == count
            assert all(r["W"] == "nan" for r in w_rows if r["t"] in listed)

    def test_langevin_lists_the_singular_rows(self, tmp_path):
        assert main(["langevin", *self.GRID, "--out", str(tmp_path)]) == 0
        listed = singular_report_times(tmp_path)
        assert listed == ["15.707963267948967", "47.1238898038469"]
        rows = read_csv(tmp_path / "langevin.csv")
        assert [r["t"] for r in rows if r["singular"] == "1"] == listed
        for r in rows:
            singular = r["singular"] == "1"
            assert (r["omega_sq"] == "nan") == singular
            assert (r["gamma"] == "nan") == singular


class TestLangevinCommand:
    def test_two_oscillator_closed_forms(self, tmp_path):
        assert main(["langevin", "--config", TWO_OSC, "--out", str(tmp_path)]) == 0
        for row in read_csv(tmp_path / "langevin.csv"):
            t = float(row["t"])
            if t == 0.0 or row["singular"] == "1":
                continue
            assert float(row["gamma"]) == pytest.approx(0.2 * np.tan(0.1 * t), abs=1e-8)
        cov_rows = read_csv(tmp_path / "noise_cov.csv")
        cov = {(r["t"], r["t_prime"]): float(r["c_ff"]) for r in cov_rows}
        for (t, tp), val in cov.items():
            assert val == pytest.approx(cov[(tp, t)], rel=1e-12)

    def test_noise_cov_points_are_a_maximum(self, tmp_path):
        # 200 times: a stride of 2 keeps 100 per axis, where a stride of 1
        # wrote all 200 (40,000 pairs)
        assert main(["langevin", "--config", TWO_OSC, "--out", str(tmp_path),
                     "--t-max", "19.9"]) == 0
        rows = read_csv(tmp_path / "noise_cov.csv")
        assert len(rows) <= oscbath.cli.MAX_COV_POINTS ** 2
        times = [r["t"] for r in read_csv(tmp_path / "langevin.csv")]
        assert len(times) == 200
        assert list(dict.fromkeys(r["t"] for r in rows)) == times[::2]
        for n in range(1, 1000):
            kept = oscbath.cli._subsample(np.arange(n), oscbath.cli.MAX_COV_POINTS)
            assert kept[0] == 0
            assert min(n, 51) <= len(kept) <= oscbath.cli.MAX_COV_POINTS

    def test_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["langevin", "--config", TWO_OSC, "--out", str(out)]) == 0
        for name in ("langevin.csv", "noise_cov.csv", "langevin_residual.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_memory_grows_by_scalars_per_time(self, tmp_path):
        # n201 at 1,001 and 4,001 times, both with 101 noise_cov times per
        # axis: the survival sums stream by block and the CSV columns are
        # formatted by block, so the peak grows by a few per-time scalars
        # (here at most 32 float64), not by a dim-202 complex row (3.2 kB)
        peaks = []
        for t_max in ("100", "400"):
            tracemalloc.start()
            try:
                assert main(["langevin", "--config", N201, "--out", str(tmp_path),
                             "--t-max", t_max]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / 3000 <= 32 * 8, peaks


class TestGoldenCommand:
    def test_report_schema(self, tmp_path):
        assert main(["golden", "--config", N51, "--out", str(tmp_path),
                     "--window", "10,25"]) == 0
        report = json.loads((tmp_path / "golden_report.json").read_text())
        assert set(report) == {"gamma_pred", "gamma_fit", "delta_omega_pred",
                               "omega_fit", "window", "goodness", "w_deviation"}
        assert report["window"] == [10.0, 25.0]
        assert report["gamma_pred"] == pytest.approx(2 * np.pi * 1e-4 * 50)

    def test_window_from_t_zero(self, tmp_path):
        # W00(0) = 0, and the golden-rule rate at t = 0 is its t -> 0+ limit
        assert main(["golden", "--config", N51, "--out", str(tmp_path),
                     "--window", "0,10"]) == 0
        report = json.loads((tmp_path / "golden_report.json").read_text())
        assert report["window"] == [0.0, 10.0]
        assert 0 < report["w_deviation"] < 1

    def test_nan_is_written_as_null(self, tmp_path):
        # uncoupled modes at 0.5, 1.0, 1.5 with t_max 5: the default window
        # falls back to [0, t_max], and w_deviation is nan (no golden rate)
        cfg = tmp_path / "uncoupled.json"
        cfg.write_text(json.dumps({
            "system": {"omega": 1.0},
            "bath": {"n": 3, "spectrum": {"type": "explicit", "omegas": [0.5, 1.0, 1.5]},
                     "coupling": {"type": "uniform", "g": 0.0}},
            "initial": {"type": "explicit", "occupations": [1.0, 0.0, 0.0, 0.0]},
            "time": {"t_max": 5.0, "dt": 0.5},
        }))
        assert main(["golden", "--config", str(cfg), "--out", str(tmp_path)]) == 0

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        report = json.loads((tmp_path / "golden_report.json").read_text(),
                            parse_constant=reject)
        assert report["window"] == [0.0, 5.0]
        assert report["w_deviation"] is None
        # |A00| = 1 to rounding: no fitted drop to measure the goodness against
        assert report["goodness"] is None

    def test_survival_sums_only_in_the_window(self, tmp_path, monkeypatch):
        seen = []
        survival_series = oscbath.amplitudes.survival_series

        def spy(sd, times):
            seen.append(times)
            return survival_series(sd, times)

        monkeypatch.setattr(oscbath.amplitudes, "survival_series", spy)
        assert main(["golden", "--config", N51, "--out", str(tmp_path),
                     "--window", "10,25"]) == 0
        (times,) = seen
        assert np.array_equal(times, np.arange(20, 51) * 0.5)

    def test_outside_band_warning_is_one_line(self, tmp_path, capsys, recwarn):
        # one bath frequency: no level spacing and so no density of states,
        # so the prediction warns, and the run still succeeds
        assert main(["golden", "--config", TWO_OSC, "--out", str(tmp_path)]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("warning: fewer than two distinct bath frequencies: ")
        # a warning left to the warnings module would reach stderr as more lines
        assert not recwarn.list

    def test_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["golden", "--config", N51, "--out", str(out)]) == 0
        assert ((out1 / "golden_report.json").read_bytes()
                == (out2 / "golden_report.json").read_bytes())


class TestRowsRead:
    """Each consumer forms only the rows of Adot, Pdot and W it reads."""

    @staticmethod
    def spy(monkeypatch):
        """Lists that collect the (rows, dim) of Adot from every
        ``amplitudes_at`` call and the rows of Pdot given to every
        ``master_coefficients`` call."""
        adot_shapes, pdot_rows = [], []
        amplitudes_at = oscbath.master.amplitudes_at
        master_coefficients = oscbath.master.master_coefficients

        def amplitudes_spy(*args, **kwargs):
            a, adot = amplitudes_at(*args, **kwargs)
            adot_shapes.append(adot.shape[-2:])
            return a, adot

        def master_spy(p, pdot, *args, **kwargs):
            pdot_rows.append(pdot.shape[-2])
            return master_coefficients(p, pdot, *args, **kwargs)

        monkeypatch.setattr(oscbath.master, "amplitudes_at", amplitudes_spy)
        monkeypatch.setattr(oscbath.master, "master_coefficients", master_spy)
        return adot_shapes, pdot_rows

    def test_golden_reads_row_0(self, tmp_path, monkeypatch):
        adot_shapes, pdot_rows = self.spy(monkeypatch)
        assert main(["golden", "--config", N51, "--out", str(tmp_path)]) == 0
        assert pdot_rows and set(pdot_rows) == {1}
        assert set(adot_shapes) == {(1, 52)}

    def test_amplitudes_reads_no_row(self, tmp_path, monkeypatch):
        adot_shapes, pdot_rows = self.spy(monkeypatch)
        assert main(["amplitudes", "--config", N51, "--out", str(tmp_path)]) == 0
        assert adot_shapes and set(adot_shapes) == {(0, 52)}
        assert not pdot_rows

    def test_grid_invariants_reads_rows_only_for_w(self, bath51_sd, monkeypatch):
        adot_shapes, pdot_rows = self.spy(monkeypatch)
        times, init = np.linspace(0, 50, 26), np.full(52, 0.5)
        oscbath.validation.grid_invariants(bath51_sd, times, init, condition_cap=None)
        assert adot_shapes and set(adot_shapes) == {(0, 52)}
        assert not pdot_rows
        adot_shapes.clear()
        oscbath.validation.grid_invariants(bath51_sd, times, init, condition_cap=1e10)
        assert set(adot_shapes) == {(52, 52)} and set(pdot_rows) == {52}

    @pytest.mark.parametrize("command", ["master", "validate"])
    def test_master_and_validate_read_every_row(self, tmp_path, monkeypatch, command):
        adot_shapes, pdot_rows = self.spy(monkeypatch)
        assert main([command, "--config", N51, "--out", str(tmp_path)]) == 0
        # validate also runs the dim-2 two-mode oracle
        assert adot_shapes and all(rows == dim for rows, dim in adot_shapes)
        assert set(pdot_rows) == ({52} if command == "master" else {52, 2})


class TestValidateCommand:
    def test_two_oscillator_passes(self, capsys):
        assert main(["validate", "--config", TWO_OSC, "--out", "."]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_failure_exit_code(self, tmp_path, capsys):
        # unreachable tolerance forces a failing check and exit 1
        doc = json.loads(open(TWO_OSC).read())
        doc["tolerances"] = {"master_residual": 1e-300}
        cfg = tmp_path / "strict.json"
        cfg.write_text(json.dumps(doc))
        assert main(["validate", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_one_eigensolve_per_model(self, tmp_path, monkeypatch):
        # the configured model is decomposed once and the suite reuses it;
        # the second call is the two-mode oracle's own model
        dims = []
        for module in (oscbath.cli, oscbath.validation):
            def counted(h, solve=module.eigendecompose):
                dims.append(len(h))
                return solve(h)
            monkeypatch.setattr(module, "eigendecompose", counted)
        assert main(["validate", "--config", N51, "--out", str(tmp_path)]) == 0
        assert dims == [52, 2]


class TestErrorPaths:
    def test_missing_config(self, tmp_path, capsys):
        assert main(["master", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_schema(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"system": {"omega": 1.0}}))
        assert main(["amplitudes", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "bath" in capsys.readouterr().err

    def test_bad_window(self, tmp_path):
        cfg = write_bare_config(tmp_path)
        assert main(["golden", "--config", cfg, "--out", str(tmp_path),
                     "--window", "5,1"]) == 2

    def test_window_outside_grid(self, tmp_path, capsys):
        assert main(["golden", "--config", TWO_OSC, "--out", str(tmp_path),
                     "--window", "1000,2000"]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "fit window" in err

    @pytest.mark.parametrize("where", ["--window 0,inf", "--window=-inf,5", "config"])
    def test_non_finite_window(self, tmp_path, capsys, where):
        doc = json.loads(open(TWO_OSC).read())
        argv = ["golden", "--out", str(tmp_path)]
        if where == "config":
            doc["fit_window"] = [0, float("inf")]  # json writes and reads Infinity
        else:
            argv += where.split()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(argv + ["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "fit window" in err

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_nan_t_max(self, tmp_path, capsys, where):
        doc = json.loads(open(TWO_OSC).read())
        argv = ["master", "--out", str(tmp_path)]
        if where == "flag":
            argv += ["--t-max", "nan"]
        else:
            doc["time"]["t_max"] = float("nan")  # json writes and reads NaN
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(argv + ["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "t_max" in err

    def test_window_not_a_pair(self, tmp_path, capsys):
        assert main(["golden", "--config", TWO_OSC, "--out", str(tmp_path),
                     "--window", "1"]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["config error: bad --window '1': expected t1,t2"]

    def test_out_is_a_file(self, tmp_path, capsys):
        out = tmp_path / "file"
        out.write_text("")
        assert main(["master", "--config", TWO_OSC, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("i/o error: ")

    @pytest.mark.parametrize("bad", [
        "v_self nan", "v_self inf", "v_self -inf",
        # diagonal entries, which a Hermiticity test alone does not catch
        "bath_bath nan", "bath_bath inf", "bath_bath -inf",
        "system_occupation nan", "system_occupation inf",
        "omega_min -inf", "omega_max inf", "not utf-8",
    ])
    def test_unusable_model_input(self, tmp_path, capsys, bad):
        # each is one line on stderr and exit 2, as any other config error
        cfg = tmp_path / "cfg.json"
        if bad == "not utf-8":
            cfg.write_bytes(b"\xff\xfe" + open(N51).read().encode("utf-16-le"))
        else:
            doc = json.loads(open(N51).read())
            key, value = bad.split()
            value = float(value)  # json writes NaN and Infinity
            if key == "bath_bath":
                doc["bath"]["bath_bath"] = np.diag([value] + [0.0] * 50).tolist()
            elif key == "v_self":
                doc["system"]["v_self"] = value
            elif key == "system_occupation":
                doc["initial"]["system_occupation"] = value
            else:
                doc["bath"]["spectrum"][key] = value
            cfg.write_text(json.dumps(doc))
        assert main(["master", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("config error: ")

    @pytest.mark.parametrize("section, key, value", [("bath", "n", True),
                                                     ("system", "mass", "2")])
    def test_boolean_or_quoted_number(self, tmp_path, capsys, section, key, value):
        # once read as n = 1 and mass = 2.0, which built a model and exited 0
        doc = json.loads(open(TWO_OSC).read())
        doc[section][key] = value
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["amplitudes", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and f"key '{section}.{key}' must be" in err

    def test_time_grid_too_long(self, tmp_path, capsys):
        # t_max/dt ~ 5e300 points: numpy refuses the size before allocating
        assert main(["master", "--config", TWO_OSC, "--out", str(tmp_path),
                     "--dt", "1e-300"]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "time.dt" in err

    @pytest.mark.parametrize("command", ["amplitudes", "master", "langevin", "validate"])
    def test_window_only_on_golden(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", TWO_OSC, "--out", str(tmp_path),
                  "--window", "1,2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "--window" in err

    def test_unknown_flag(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["master", "--config", TWO_OSC, "--out", str(tmp_path), "--bogus", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["oscbath: error: unrecognized arguments: --bogus 1"]

    def test_eigensolver_failure(self, tmp_path, capsys, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("eigenvalue iteration did not converge")
        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        assert main(["master", "--config", N51, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "numerical failure" in err


    def test_survival_underflow_in_fit_window(self, tmp_path, capsys, recwarn):
        # |A00| = |cos(0.1 t)| is zero to rounding at t = 5 pi, a grid point
        assert main(["golden", "--config", TWO_OSC, "--out", str(tmp_path),
                     "--dt", repr(np.pi / (2 * 0.1) / 100), "--t-max", repr(10 * np.pi),
                     "--window", "15,16.5"]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "numerical failure" in err
        # a warning would reach stderr as more lines outside pytest
        assert not recwarn.list


class TestGoldenFiles:
    @pytest.mark.parametrize("command, names", [
        ("amplitudes", ("amplitudes.csv", "survival.csv")),
        ("master", ("populations.csv", "w_coeffs.csv", "master_residual.csv")),
        ("langevin", ("langevin.csv", "noise_cov.csv", "langevin_residual.csv")),
    ])
    def test_two_oscillator_outputs_frozen(self, tmp_path, command, names):
        assert main([command, "--config", TWO_OSC, "--out", str(tmp_path)]) == 0
        for name in names:
            expected = os.path.join(GOLDEN_DIR, name)
            assert (tmp_path / name).read_bytes() == open(expected, "rb").read(), name
