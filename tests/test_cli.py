import ast
import csv
import io
import json
import os
import resource
import shlex
import tracemalloc
import warnings

import numpy as np
import pytest

import oscbath.amplitudes
import oscbath.cli
import oscbath.config
import oscbath.floatfmt
import oscbath.lapack
import oscbath.langevin
import oscbath.master
import oscbath.model
import oscbath.validation
from conftest import run_python
from oscbath.cli import main
from oscbath.config import load_config
from oscbath.linalg import eigendecompose
from oscbath.model import build_hamiltonian

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..")
CONFIG_DIR = os.path.join(REPO_ROOT, "configs")
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
TWO_OSC = os.path.join(CONFIG_DIR, "two_oscillator.json")
N51 = os.path.join(CONFIG_DIR, "linear_bath_n51.json")
N201 = os.path.join(CONFIG_DIR, "linear_bath_n201.json")
# |A00| = |cos(0.1 t)| of two_oscillator.json is zero to rounding at t = 5 pi,
# a grid point of these flags, so a golden fit window around it underflows
UNDERFLOW_FLAGS = ["--dt", repr(np.pi / (2 * 0.1) / 100), "--t-max", repr(10 * np.pi),
                   "--window", "15,16.5"]


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


def write_strict_config(tmp_path):
    """two_oscillator.json with a master-equation tolerance no run meets."""
    doc = json.loads(open(TWO_OSC).read())
    doc["tolerances"] = {"master_residual": 1e-300}
    path = tmp_path / "strict.json"
    path.write_text(json.dumps(doc))
    return str(path)


def write_huge_bath_config(tmp_path):
    """linear_bath_n51.json with a million bath modes: H alone would take
    14.6 TiB."""
    doc = json.loads(open(N51).read())
    doc["bath"]["n"] = 1_000_000
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    return str(path)


def write_tiny_grid_config(tmp_path):
    """linear_bath_n51.json on a grid to t_max = 1e-190: every time of
    golden's fit window squares to 0, so np.polyfit's column scale would be 0."""
    doc = json.loads(open(N51).read())
    doc["time"] = {"t_max": 1e-190, "dt": 1e-191}
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    return str(path)


def limit_address_space():
    """Cap the calling process at 4 GiB of address space, so that a host which
    overcommits memory refuses a huge array at once instead of filling it."""
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    resource.setrlimit(resource.RLIMIT_AS, (4 * 2 ** 30, hard))


def test_package_imports_without_scipy():
    # scipy is a test dependency only: the package's linear algebra is numpy's
    code = "import sys, oscbath, oscbath.cli; print('scipy' in sys.modules)"
    proc = run_python("-c", code)
    assert proc.stdout == "False\n", proc.stderr


def test_golden_never_imports_numpy_ma(tmp_path):
    # numpy.ma costs about 1.3 MB of RSS, and nothing golden writes reads it
    code = ("import sys, oscbath.cli; "
            f"assert oscbath.cli.main(['golden', '--config', {N51!r}, '--out', {str(tmp_path)!r}]) "
            "== 0; print('numpy.ma' in sys.modules)")
    proc = run_python("-c", code)
    assert proc.stdout == "False\n", proc.stderr


# every np.errstate block of the package: where it is and what it sets.
# main's raising block turns any other floating-point error into exit 3;
# each "ignore" block lets an overflow or a division by zero give an inf
# that the code after it reads as documented
ERRSTATE_BLOCKS = sorted([
    ("cli", "main", (("divide", "raise"), ("invalid", "raise"), ("over", "raise"))),
    ("linalg", "_rotate_small", (("over", "ignore"),)),
    ("model", "ModelSpec.norm_bound", (("over", "ignore"),)),
    ("model", "explicit_populations", (("over", "ignore"),)),
    ("model", "thermal_populations", (("divide", "ignore"), ("over", "ignore"))),
])


def errstate_blocks(path, module):
    """(module, enclosing qualified name, sorted keywords) of each
    ``np.errstate(...)`` call in the file at ``path``."""
    found = []

    def visit(node, scope):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "errstate"):
            keywords = tuple(sorted((k.arg, ast.literal_eval(k.value)) for k in node.keywords))
            found.append((module, ".".join(scope), keywords))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = scope + [node.name]
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    with open(path) as fh:
        visit(ast.parse(fh.read()), [])
    return found


def test_silenced_regions_are_the_documented_ones():
    # a new errstate block fails here until it is listed above and in
    # ROADMAP item 10
    package = os.path.dirname(oscbath.cli.__file__)
    found = [block for name in sorted(os.listdir(package)) if name.endswith(".py")
             for block in errstate_blocks(os.path.join(package, name), name[:-3])]
    assert sorted(found) == ERRSTATE_BLOCKS


# every functools cache of the package: (module, function, parameters).  A
# cache keyed by its arguments grows without bound in a long-lived process,
# so each one decorates a function without parameters and holds one value
CACHED_FUNCTIONS = sorted([
    ("floatfmt", "_body_masks", ""),
    ("floatfmt", "_exponent_words", ""),
    ("floatfmt", "_powers", ""),
    ("lapack", "_routines", ""),
])


def cached_functions(path, module):
    """(module, function, parameters) of each use of the name ``cache`` or
    ``lru_cache`` in the file at ``path``; function and parameters are None
    for a use outside a function's decorators."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    owner = {id(node): f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
             for decorator in f.decorator_list for node in ast.walk(decorator)}
    found = []
    for node in ast.walk(tree):
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        if name in ("cache", "lru_cache"):
            f = owner.get(id(node))
            found.append((module, f and f.name, f and ast.unparse(f.args)))
    return found


def test_caches_take_no_arguments():
    # a new cache fails here until it is listed above and in ROADMAP item 10
    package = os.path.dirname(oscbath.cli.__file__)
    found = [cache for name in sorted(os.listdir(package)) if name.endswith(".py")
             for cache in cached_functions(os.path.join(package, name), name[:-3])]
    assert sorted(found) == CACHED_FUNCTIONS


class TestAmplitudesCommand:
    def test_bare_system_survival(self, tmp_path):
        cfg = write_bare_config(tmp_path)
        assert main(["amplitudes", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "survival.csv")
        assert [float(r["t"]) for r in rows] == [0.0, 0.5, 1.0]
        assert all(float(r["abs"]) == pytest.approx(1.0) for r in rows)

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


@pytest.mark.parametrize("command, config, names", [
    ("amplitudes", TWO_OSC, ("amplitudes.csv", "survival.csv")),
    ("master", N51, ("populations.csv", "w_coeffs.csv", "master_residual.csv")),
    ("langevin", TWO_OSC, ("langevin.csv", "noise_cov.csv", "langevin_residual.csv")),
    ("golden", N51, ("golden_report.json",)),
], ids=["amplitudes", "master", "langevin", "golden"])
def test_reruns_are_byte_identical(tmp_path, command, config, names):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main([command, "--config", config, "--out", str(out)]) == 0
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


@pytest.mark.parametrize("command, names", [
    ("amplitudes", ("amplitudes.csv", "survival.csv")),
    ("master", ("populations.csv", "w_coeffs.csv", "master_residual.csv",
                "singular_points.txt")),
    ("langevin", ("langevin.csv", "noise_cov.csv", "langevin_residual.csv",
                  "singular_points.txt")),
    ("golden", ("golden_report.json",)),
    ("validate", ("stdout",)),
])
def test_bytes_do_not_depend_on_block_size(tmp_path, monkeypatch, capsys, command, names):
    # one time (or CSV row) per block and per formatter call, a few with a
    # short last one, the defaults, and the whole grid in one; the one block
    # rule cuts the dense engine and the survival sums, the formatter's call
    # size every CSV column.  The engine reuses each block's arrays, so a
    # consumer that keeps them past the next block reads another block's
    # values at one time per block.  The CSVs of every dim-52 level pair
    # are written for 8 times, which the default blocks cut as 6 and 2: one
    # formatter call per line would take most of a minute on the full grid
    grid = ["--t-max", "3.5"] if command in ("amplitudes", "master") else []
    outs = []
    for entries, numbers in ((1, 1), (2 ** 10, 2 ** 8),
                             (oscbath.amplitudes.BLOCK_ENTRIES, oscbath.floatfmt.CALL_NUMBERS),
                             (2 ** 22, 2 ** 20)):
        monkeypatch.setattr(oscbath.amplitudes, "BLOCK_ENTRIES", entries)
        monkeypatch.setattr(oscbath.floatfmt, "CALL_NUMBERS", numbers)
        outs.append(tmp_path / str(entries))
        assert main([command, "--config", N51, "--out", str(outs[-1]), *grid]) == 0
        (outs[-1] / "stdout").write_text(capsys.readouterr().out)
    for name in names:
        expected = (outs[0] / name).read_bytes()
        assert all((out / name).read_bytes() == expected for out in outs[1:]), name


class LineCount:
    """A binary file that keeps only the number of lines written to it."""

    lines = 0

    def write(self, text):
        self.lines += text.count(b"\n")


@pytest.mark.parametrize("add, inputs, count", [
    # 100,000 rows of three columns, a (20, 100, 100) complex grid: 200,000
    # lines of 400,000 numbers, and a (2, 10,000) complex grid, whose last
    # axis alone holds 20,000 numbers
    ("rows", lambda: [np.arange(100_000.0) * np.pi + k for k in range(3)], 100_000),
    ("grid", lambda: [np.arange(20) * 0.1,
                      np.arange(200_000.0).reshape(20, 100, 100) * (np.e + 1j * np.pi)],
     200_000),
    ("grid", lambda: [np.arange(2) * 0.1,
                      np.arange(20_000.0).reshape(2, 10_000) * (np.e + 1j * np.pi)],
     20_000),
], ids=["columns", "complex grid", "long row"])
def test_text_is_formed_one_block_at_a_time(add, inputs, count):
    # as text the whole input would be 1 MB or more; a formatter call takes
    # at most CALL_NUMBERS numbers, and the writer's buffers, that call's
    # text and its temporaries peak near 90-130 bytes a number, however
    # long a grid's last axis is
    inputs = inputs()
    fh = LineCount()
    tracemalloc.start()
    try:
        csv = oscbath.floatfmt.CsvWriter(fh, "header")
        getattr(csv, add)(*inputs)
        csv.flush()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fh.lines == 1 + count
    assert peak <= 200 * oscbath.floatfmt.CALL_NUMBERS, peak


def test_master_formats_full_calls(tmp_path, monkeypatch):
    # the CSV writer keeps each file's lines across the engine's blocks, so
    # every formatter call of an n51 master run takes a full call's lines
    # (CALL_NUMBERS // numbers per line), except each file's last; block by
    # block, the residual file made calls of 6 numbers
    sizes = []
    format_floats = oscbath.floatfmt.format_floats
    monkeypatch.setattr(oscbath.floatfmt, "format_floats",
                        lambda x: sizes.append(np.size(x)) or format_floats(x))
    assert main(["master", "--config", N51, "--out", str(tmp_path)]) == 0

    def calls(lines, per_line):
        full = oscbath.floatfmt.CALL_NUMBERS // per_line
        return [full * per_line] * (lines // full) + [lines % full * per_line] * (lines % full > 0)

    # populations.csv dim lines of one number per time, w_coeffs.csv dim**2,
    # master_residual.csv one line of three: the grid files' calls take
    # exactly CALL_NUMBERS numbers
    times, dim = len(load_config(N51).time_grid()), 52
    expected = calls(times * dim, 1) + calls(times * dim ** 2, 1) + calls(times, 3)
    assert sorted(sizes) == sorted(expected)
    assert len(sizes) == 70
    # singular_points.txt has no lines to format
    assert (tmp_path / "singular_points.txt").read_text() == "# no singular time points\n"


def test_w_coeffs_lines_match_python_formatting(tmp_path):
    # n51's first and last blocks of W with their "t,n,k," prefixes, written
    # by Python's own %-formatting, are the first and last lines of the file,
    # and the lines that a floatfmt.CsvWriter makes of each block alone
    assert main(["master", "--config", N51, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "w_coeffs.csv").read_text().splitlines(keepends=True)
    cfg = load_config(N51)
    blocks = list(oscbath.master.time_blocks(eigendecompose(build_hamiltonian(cfg.spec)),
                                             cfg.time_grid(),
                                             condition_cap=cfg.tolerances["condition_cap"]))
    first, last = (["%.17g,%d,%d,%.17g\n" % (t, *nk, w)
                    for t, w_t in zip(blk.times.tolist(), blk.w)
                    for nk, w in np.ndenumerate(w_t)]
                   for blk in (blocks[0], blocks[-1]))
    assert lines[0] == "t,n,k,W\n"
    assert lines[1:1 + len(first)] == first
    assert lines[-len(last):] == last
    for blk, expected in ((blocks[0], first), (blocks[-1], last)):
        fh = io.BytesIO()
        csv = oscbath.floatfmt.CsvWriter(fh, "t,n,k,W")
        csv.grid(blk.times, blk.w)
        csv.flush()
        assert fh.getvalue().decode().splitlines(keepends=True)[1:] == expected


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
        assert len(rows) <= oscbath.config.MAX_COV_POINTS ** 2
        times = [r["t"] for r in read_csv(tmp_path / "langevin.csv")]
        assert len(times) == 200
        assert list(dict.fromkeys(r["t"] for r in rows)) == times[::2]
        for n in range(1, 1000):
            kept = oscbath.config._subsample(np.arange(n), oscbath.config.MAX_COV_POINTS)
            assert kept[0] == 0
            assert min(n, 51) <= len(kept) <= oscbath.config.MAX_COV_POINTS

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


    def test_residual_scale_underflow(self, tmp_path, capsys):
        # at Omega = 1e-300 the residual and its scale both underflow to 0:
        # 0 / 0 once wrote nan in every row, after a numpy warning
        cfg = tmp_path / "tiny.json"
        cfg.write_text(json.dumps({
            "system": {"omega": 1e-300}, "bath": {"n": 0},
            "initial": {"type": "explicit", "occupations": [1.0]},
            "time": {"t_max": 2.0, "dt": 0.5},
        }))
        for command in ("langevin", "validate"):
            assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 0
            assert capsys.readouterr().err == ""
        rows = read_csv(tmp_path / "langevin_residual.csv")
        assert [r["residual"] for r in rows] == ["0"] * 5


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

    def test_window_after_the_decay_time(self, tmp_path, capsys):
        # 1 / gamma_pred = 15.9 on n201: no W00 time is left to compare
        assert main(["golden", "--config", N201, "--out", str(tmp_path),
                     "--window", "20,100"]) == 0
        report = json.loads((tmp_path / "golden_report.json").read_text())
        assert report["window"] == [20.0, 100.0]
        assert report["w_deviation"] is None
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("g", [1e-158, 2e-162])
    def test_subnormal_decay_rate(self, tmp_path, capsys, g):
        # gamma_pred is subnormal: 1 / gamma overflowed once (exit 3); every
        # fit time t has t gamma <= 1
        doc = json.loads(open(N51).read())
        doc["bath"]["coupling"]["g"] = g
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["golden", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        report = json.loads((tmp_path / "golden_report.json").read_text())
        assert 0 < report["gamma_pred"] < 2.3e-308
        cfg = load_config(cfg)
        assert np.array_equal(cfg.w00_times(report["gamma_pred"]), cfg.fit_times()[1])

    def test_decay_rate_past_the_largest_product(self, tmp_path, capsys):
        # gamma_pred = 3.1e300 on a grid to 1e8: t gamma overflows a double
        # for t > 5.7e7, and only t = 0 has t gamma <= 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "system": {"omega": 1e-290},
            "bath": {"n": 2, "spectrum": {"type": "linear", "omega_min": 1e-300,
                                          "omega_max": 2e-290},
                     "coupling": {"type": "uniform", "g": 1e5}},
            "initial": {"type": "explicit", "occupations": [1.0, 0.0, 0.0]},
            "time": {"t_max": 1e8, "dt": 1e6},
        }))
        assert main(["golden", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        report = json.loads((tmp_path / "golden_report.json").read_text())
        assert report["gamma_pred"] == pytest.approx(np.pi * 1e300)
        assert load_config(cfg).w00_times(report["gamma_pred"]).tolist() == [0.0]

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


class TestRowsRead:
    """Each consumer forms only the rows of Adot, Pdot and W it reads."""

    @staticmethod
    def spy(monkeypatch):
        """Lists that collect the (rows, dim) of Pdot, and so of Adot, from
        every block that ``master.time_blocks`` yields, and the rows of the
        right-hand side of every ``lapack.solve_right`` call."""
        pdot_shapes, solve_rows = [], []
        time_blocks, solve = oscbath.master.time_blocks, oscbath.lapack.solve_right

        def blocks_spy(*args, **kwargs):
            for blk in time_blocks(*args, **kwargs):
                pdot_shapes.append(blk.pdot.shape[-2:])
                yield blk

        def solve_spy(a, b, lu):
            solve_rows.append(b.shape[-2])
            return solve(a, b, lu)

        monkeypatch.setattr(oscbath.master, "time_blocks", blocks_spy)
        monkeypatch.setattr(oscbath.lapack, "solve_right", solve_spy)
        return pdot_shapes, solve_rows

    def test_golden_reads_row_0(self, tmp_path, monkeypatch):
        pdot_shapes, solve_rows = self.spy(monkeypatch)
        assert main(["golden", "--config", N51, "--out", str(tmp_path)]) == 0
        assert solve_rows and set(solve_rows) == {1}
        assert set(pdot_shapes) == {(1, 52)}

    def test_amplitudes_reads_no_row(self, tmp_path, monkeypatch):
        pdot_shapes, solve_rows = self.spy(monkeypatch)
        assert main(["amplitudes", "--config", N51, "--out", str(tmp_path)]) == 0
        assert pdot_shapes and set(pdot_shapes) == {(0, 52)}
        assert not solve_rows

    def test_grid_invariants_reads_rows_only_for_w(self, bath51_sd, monkeypatch):
        pdot_shapes, solve_rows = self.spy(monkeypatch)
        times, init = np.linspace(0, 50, 26), np.full(52, 0.5)
        worst = oscbath.validation.grid_invariants(
            oscbath.master.time_blocks(bath51_sd, times, rows=0), init)
        assert pdot_shapes and set(pdot_shapes) == {(0, 52)}
        assert not solve_rows and "master_residual" not in worst
        pdot_shapes.clear()
        worst = oscbath.validation.grid_invariants(
            oscbath.master.time_blocks(bath51_sd, times, condition_cap=1e10), init)
        assert set(pdot_shapes) == {(52, 52)} and set(solve_rows) == {52}
        assert "master_residual" in worst

    @pytest.mark.parametrize("command", ["master", "validate"])
    def test_master_and_validate_read_every_row(self, tmp_path, monkeypatch, command):
        pdot_shapes, solve_rows = self.spy(monkeypatch)
        assert main([command, "--config", N51, "--out", str(tmp_path)]) == 0
        # validate also runs the dim-2 two-mode oracle
        assert pdot_shapes and all(rows == dim for rows, dim in pdot_shapes)
        assert set(solve_rows) == ({52} if command == "master" else {52, 2})


class TestValidateCommand:
    def test_two_oscillator_passes(self, capsys):
        assert main(["validate", "--config", TWO_OSC, "--out", "."]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_failure_exit_code(self, tmp_path, capsys):
        # unreachable tolerance forces a failing check and exit 1
        cfg = write_strict_config(tmp_path)
        assert main(["validate", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("initial", [
        {"type": "explicit", "occupations": [0.0, 0.0]},
        {"type": "thermal", "beta": 1e4, "system_occupation": 0.0},
    ], ids=["explicit", "cold thermal"])
    def test_vacuum_passes(self, tmp_path, capsys, initial):
        # no quanta at all: conservation is the absolute drift, 0
        doc = json.loads(open(TWO_OSC).read())
        doc["initial"] = initial
        cfg = tmp_path / "vacuum.json"
        cfg.write_text(json.dumps(doc))
        assert main(["validate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        out, err = capsys.readouterr()
        assert "PASS  total quanta conservation" in out and "value=0.000e+00" in out
        assert err == ""

    @pytest.mark.parametrize("omegas", [[1.0], [1.5]], ids=["degenerate", "detuned"])
    @pytest.mark.parametrize("g", [1e-320, [3e-321, 1e-320]], ids=["real", "complex"])
    @pytest.mark.parametrize("command", ["amplitudes", "validate"])
    def test_subnormal_coupling(self, tmp_path, capsys, command, omegas, g):
        # the closed-form rotation once divided by the subnormal |g|: nan in
        # every output, and validate failed
        doc = json.loads(open(TWO_OSC).read())
        doc["bath"]["spectrum"]["omegas"] = omegas
        doc["bath"]["coupling"]["gs"] = [g]
        cfg = tmp_path / "subnormal.json"
        cfg.write_text(json.dumps(doc))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        text = out + "".join(p.read_text() for p in tmp_path.glob("*.csv"))
        assert "nan" not in text and "inf" not in text and "FAIL" not in text

    def test_spectral_bound_scales_with_dim(self):
        # c dim eps, at no shipped size looser than the former absolute 1e-12
        c, eps = oscbath.validation.SPECTRAL_DIM_EPS, np.finfo(np.float64).eps
        for config in (TWO_OSC, N51, N201):
            assert c * len(build_hamiltonian(load_config(config).spec)) * eps <= 1e-12
        for config, dim in ((TWO_OSC, 2), (N51, 52)):
            cfg = load_config(config)
            rows = oscbath.validation.run_suite(cfg, eigendecompose(build_hamiltonian(cfg.spec)))
            tolerances = {name: tol for name, _, tol, _ in rows}
            assert (tolerances["spectral reconstruction"] == tolerances["eigenvector unitarity"]
                    == c * dim * eps)

    @pytest.mark.parametrize("module, name, row", [
        (oscbath.langevin, "langevin_residual", "Langevin ODE residual"),
        (oscbath.master, "master_residual", "master-equation residual"),
    ], ids=["langevin", "master"])
    def test_nan_at_a_regular_time_fails_the_row(self, monkeypatch, module, name, row):
        # only the times flagged singular may carry a nan residual
        residual = getattr(module, name)

        def nan_at_a_regular_time(flagged, *args):
            out = residual(flagged, *args)
            res = out[0] if isinstance(out, tuple) else out
            res[np.flatnonzero(~flagged.singular)[:1]] = np.nan
            return out

        monkeypatch.setattr(module, name, nan_at_a_regular_time)
        cfg = load_config(TWO_OSC)
        rows = oscbath.validation.run_suite(cfg, eigendecompose(build_hamiltonian(cfg.spec)))
        ((value, ok),) = [(value, ok) for label, value, _, ok in rows if label == row]
        assert np.isnan(value) and not ok

    def test_oracle_reduces_block_by_block(self, monkeypatch):
        # the oracle's rows do not depend on how its 40 times are cut into
        # blocks, and a nan at any block fails the survival and W rows
        whole = oscbath.validation.two_mode_oracle()
        monkeypatch.setattr(oscbath.amplitudes, "BLOCK_ENTRIES", 4 * 7)
        assert oscbath.validation.two_mode_oracle() == whole
        time_blocks = oscbath.master.time_blocks

        def nan_in_the_third_block(*args, **kwargs):
            for k, blk in enumerate(time_blocks(*args, **kwargs)):
                if k == 2:
                    blk.a[-1, 0, 0] = blk.w[0, 0, 0] = np.nan
                yield blk

        monkeypatch.setattr(oscbath.master, "time_blocks", nan_in_the_third_block)
        rows = oscbath.validation.two_mode_oracle()
        assert [name for name, value, _ in rows if np.isnan(value)] == [
            "two-mode survival closed form", "two-mode W closed form",
            "detuned survival closed form", "detuned W closed form"]

    def test_one_eigensolve_per_model(self, tmp_path, monkeypatch):
        # the configured model is decomposed once and the suite reuses it;
        # the second and third calls are the two-mode oracle's resonant and
        # detuned models
        dims = []
        for module in (oscbath.cli, oscbath.validation):
            def counted(h, solve=module.eigendecompose):
                dims.append(len(h))
                return solve(h)
            monkeypatch.setattr(module, "eigendecompose", counted)
        assert main(["validate", "--config", N51, "--out", str(tmp_path)]) == 0
        assert dims == [52, 2, 2]


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

    @pytest.mark.parametrize("system_key, line", [
        ('"v_slef": 0.5', "unknown key 'system.v_slef'"),
        ('"v_self": 0.0, "v_self": 0.5', "invalid JSON in <CFG>: duplicate key 'v_self'"),
    ], ids=["misspelled", "repeated"])
    def test_unknown_or_repeated_key(self, tmp_path, capsys, system_key, line):
        with open(N51) as fh:
            shipped = fh.read()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(shipped.replace('"v_self": 0.0', system_key))
        assert main(["master", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: " + line.replace("<CFG>", str(cfg))]

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

    @pytest.mark.parametrize("flags, line", [
        (["--dt", "-1e-3"], "time.dt must be finite and positive, got -0.001"),
        (["--dt=-1e-3"], "time.dt must be finite and positive, got -0.001"),
        (["--d", "-1e-3"], "time.dt must be finite and positive, got -0.001"),
        (["--t-max", "-inf"], "time.t_max must be finite and >= dt, got -inf"),
        (["--t-max", "-nan"], "time.t_max must be finite and >= dt, got nan"),
        (["--t-max", "-5"], "time.t_max must be finite and >= dt, got -5.0"),
    ], ids=["dt-exponent", "dt-joined", "dt-prefix", "t-max-inf", "t-max-nan",
            "t-max-integer"])
    def test_negative_value_after_a_space(self, tmp_path, capsys, flags, line):
        # argparse would read -1e-3 or -inf as an option and exit from
        # parse_args; the value reaches the run configuration's check instead
        assert main(["master", "--config", TWO_OSC, "--out", str(tmp_path), *flags]) == 2
        assert capsys.readouterr().err.splitlines() == [f"config error: {line}"]

    def test_negative_window_after_a_space(self, tmp_path, capsys):
        runs = []
        for flags in (["--window", "-5,10"], ["--window=-5,10"]):
            out = tmp_path / str(len(runs))
            code = main(["golden", "--config", TWO_OSC, "--out", str(out), *flags])
            runs.append((code, capsys.readouterr(), (out / "golden_report.json").read_bytes()))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0 and b"-5.0" in runs[0][2]

    def test_flag_without_value(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["master", "--config", TWO_OSC, "--out", str(tmp_path), "--dt"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines() == [
            "oscbath master: error: argument --dt: expected one argument"]

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
        # omega_max - omega_min overflows: once two numpy warnings before the error
        "omega_min -1e308 omega_max 1e308",
        # 1 / (2 M Omega) overflows: once inf in most noise_cov.csv rows
        "mass 1e-320",
        # beta * omega underflows to 0: once two numpy warnings before the error
        "beta 5e-324",
    ])
    def test_unusable_model_input(self, tmp_path, capsys, bad):
        # each is one line on stderr and exit 2, as any other config error
        cfg = tmp_path / "cfg.json"
        if bad == "not utf-8":
            cfg.write_bytes(b"\xff\xfe" + open(N51).read().encode("utf-16-le"))
        else:
            doc = json.loads(open(N51).read())
            words = bad.split()
            for key, value in zip(words[::2], words[1::2]):
                value = float(value)  # json writes NaN and Infinity
                if key == "bath_bath":
                    doc["bath"]["bath_bath"] = np.diag([value] + [0.0] * 50).tolist()
                elif key == "v_self":
                    doc["system"]["v_self"] = value
                elif key == "mass":
                    doc["system"]["mass"] = value
                elif key in ("system_occupation", "beta"):
                    doc["initial"][key] = value
                else:
                    doc["bath"]["spectrum"][key] = value
            cfg.write_text(json.dumps(doc))
        assert main(["master", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("config error: ")
        if bad.startswith("omega_"):
            assert err.startswith("config error: bath.spectrum needs a finite")

    @pytest.mark.parametrize("command", ["amplitudes", "master", "langevin", "golden",
                                         "validate"])
    def test_huge_non_hermitian_block(self, tmp_path, capsys, command):
        # b - b^H overflows here: once numpy's two warning lines before the error
        doc = json.loads(open(TWO_OSC).read())
        doc["bath"] = {"n": 2, "spectrum": {"type": "explicit", "omegas": [0.9, 1.1]},
                       "coupling": {"type": "explicit", "gs": [0.1, 0.1]},
                       "bath_bath": [[0.0, 1e308], [-1e308, 0.0]]}
        doc["initial"]["occupations"] = [1.0, 0.0, 0.0]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: invalid value: bath_bath block not Hermitian"]

    @pytest.mark.parametrize("command", ["amplitudes", "master", "langevin", "golden",
                                         "validate"])
    @pytest.mark.parametrize("section, key, value, product", [
        ("coupling", "gs", [1e200], "5e+200"),
        ("system", "omega", 1e20, "5e+20"),
        ("system", "omega", 1e308, "inf"),
    ], ids=["gs 1e200", "omega 1e20", "omega 1e308"])
    def test_phases_beyond_rounding(self, tmp_path, capsys, recwarn, command, section, key,
                                    value, product):
        # once exit 0 (validate 1) with up to 19 numpy warning lines, or, at
        # omega 1e20, silently with |alpha| t up to 5e20, past 2**53
        with open(TWO_OSC) as fh:
            doc = json.load(fh)
        (doc["system"] if section == "system" else doc["bath"][section])[key] = value
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"config error: ||H||_inf * t = {product} at the grid's last time is not below "
            "2**52: the phases exp(-i alpha t) would be lost to rounding"]
        assert not recwarn.list

    @pytest.mark.parametrize("command", ["amplitudes", "master", "langevin", "golden",
                                         "validate"])
    def test_phases_beyond_rounding_at_the_grid_end(self, tmp_path, capsys, command):
        # ||H||_inf * t_max = 0.75 * 2**52 passes, but t_max / dt = 1.5 rounds
        # up, so the grid [0, 2**51, 2**52] ends past t_max: once exit 0
        # (golden 2, on its fit window)
        cfg = write_bare_config(tmp_path)
        assert main([command, "--config", cfg, "--out", str(tmp_path),
                     "--t-max", str(0.75 * 2 ** 52), "--dt", str(0.5 * 2 ** 52)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: ||H||_inf * t = 4.5e+15 at the grid's last time is not below "
            "2**52: the phases exp(-i alpha t) would be lost to rounding"]

    @pytest.mark.parametrize("command, code", [
        ("amplitudes", 0), ("master", 0), ("langevin", 3), ("golden", 2), ("validate", 3)])
    def test_floating_point_overflow(self, tmp_path, capsys, recwarn, command, code):
        # ||H||_inf * t_max = 5e10 passes the 2**52 rule, but alpha**2 of the
        # d2A00 weights overflows: once exit 0 (validate 1, golden 3) with 4
        # to 8 numpy warning lines.  Only langevin (and validate, which runs
        # it) forms those weights, so amplitudes' and master's outputs stay
        # finite; every fit time squares to 0, so golden's window is refused
        with open(TWO_OSC) as fh:
            doc = json.load(fh)
        doc["bath"]["coupling"]["gs"] = [1e200]
        doc["time"] = {"t_max": 1e-190, "dt": 1e-191}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == code
        err = capsys.readouterr().err.splitlines()
        if code == 3:
            assert len(err) == 1 and err[0].startswith(
                "numerical failure: overflow encountered in ")
        elif code == 2:
            assert err == ["config error: fit window [1e-191, 1e-190] is too close to "
                           "t = 0: the square of each of its times underflows to 0"]
        else:
            assert err == []
            paths = sorted(tmp_path.glob("*.csv"))
            assert len(paths) == {"amplitudes": 2, "master": 3}[command]
            values = [float(x) for path in paths for row in read_csv(path) for x in row.values()]
            assert values and np.all(np.isfinite(values))
        assert not recwarn.list

    def test_noise_covariance_overflow(self, tmp_path, capsys):
        # at M Omega = 1.2e-308, (2 max_m N_m + 1) / (2 M Omega) is 4.2e307
        # for an empty bath mode, below the max / 4 bound, and 4.6e308 for 5
        # quanta, which wrote inf to noise_cov.csv
        doc = json.loads(open(TWO_OSC).read())
        doc["system"]["mass"] = 1.2e-308
        cfg = tmp_path / "cfg.json"
        argv = ["langevin", "--config", str(cfg), "--out", str(tmp_path)]
        doc["initial"]["occupations"] = [1.0, 0.0]
        cfg.write_text(json.dumps(doc))
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        assert all(np.isfinite(float(r["c_ff"])) for r in read_csv(tmp_path / "noise_cov.csv"))
        doc["initial"]["occupations"] = [0.0, 5.0]
        cfg.write_text(json.dumps(doc))
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: invalid value: bath occupations up to 5 with mass * system "
            "frequency 1.2e-308 overflow the noise covariance"]

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

    @pytest.mark.parametrize("error, line", [
        (MemoryError("Unable to allocate 14.6 TiB for an array"),
         "out of memory: Unable to allocate 14.6 TiB for an array"),
        (MemoryError(), "out of memory"),
    ], ids=["numpy", "bare"])
    def test_out_of_memory(self, tmp_path, capsys, monkeypatch, error, line):
        def no_memory(spec):
            raise error
        monkeypatch.setattr(oscbath.model, "build_hamiltonian", no_memory)
        assert main(["master", "--config", N51, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.splitlines() == [line]

    def test_eigensolver_failure(self, tmp_path, capsys, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("eigenvalue iteration did not converge")
        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        assert main(["master", "--config", N51, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "numerical failure" in err


    def test_blas_without_lapack_symbols(self, tmp_path, capsys, monkeypatch):
        # a numpy built against another BLAS exports no scipy_dgesv_64_:
        # each command that solves W fails with one line, and the others run
        monkeypatch.setattr(oscbath.lapack, "PREFIX", "missing_")
        oscbath.lapack._routines.cache_clear()
        for command, code in (("master", 3), ("golden", 3), ("amplitudes", 0)):
            assert main([command, "--config", N51, "--out", str(tmp_path)]) == code
            err = capsys.readouterr().err.splitlines()
            assert err == ([] if code == 0 else [
                "numerical failure: numpy's BLAS has no missing_dgesv_64_: the W solve "
                "needs the scipy-openblas64 build of numpy's wheels"])

    def test_warning_from_any_command_is_one_line(self, tmp_path, capsys, monkeypatch,
                                                   recwarn):
        langevin_series = oscbath.langevin.langevin_series

        def warns(*args):
            warnings.warn("a warning from langevin")
            return langevin_series(*args)

        monkeypatch.setattr(oscbath.langevin, "langevin_series", warns)
        assert main(["langevin", "--config", TWO_OSC, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err.splitlines() == ["warning: a warning from langevin"]
        assert not recwarn.list

    def test_other_warning_categories_pass_through(self, tmp_path, capsys, monkeypatch):
        # only a UserWarning becomes a "warning:" line; any other category
        # reaches the warnings module as raised, with its filters
        class Notice(Warning):
            pass

        langevin_series = oscbath.langevin.langevin_series

        def warns(*args):
            warnings.warn("a notice from langevin", Notice)
            return langevin_series(*args)

        monkeypatch.setattr(oscbath.langevin, "langevin_series", warns)
        with pytest.warns(Notice, match="^a notice from langevin$") as record:
            assert main(["langevin", "--config", TWO_OSC, "--out", str(tmp_path)]) == 0
        assert len(record) == 1 and record[0].filename == __file__
        assert capsys.readouterr().err == ""

    def test_warning_prints_before_the_error(self, tmp_path, capsys, monkeypatch):
        # golden warns before it solves W, and then runs out of memory
        def no_memory(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(oscbath.master, "time_blocks", no_memory)
        assert main(["golden", "--config", TWO_OSC, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "warning: fewer than two distinct bath frequencies: no density of states, "
            "gamma = 0",
            "out of memory"]

    def test_survival_underflow_in_fit_window(self, tmp_path, capsys, recwarn):
        assert main(["golden", "--config", TWO_OSC, "--out", str(tmp_path),
                     *UNDERFLOW_FLAGS]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "numerical failure" in err
        # a warning would reach stderr as more lines outside pytest
        assert not recwarn.list


@pytest.mark.parametrize("code, argv", [
    (0, lambda tmp: ["validate", "--config", TWO_OSC]),
    (1, lambda tmp: ["validate", "--config", write_strict_config(tmp)]),
    (2, lambda tmp: ["master", "--config", str(tmp / "nope.json")]),
    (2, lambda tmp: ["master", "--config", TWO_OSC, "--window", "1,2"]),
    (3, lambda tmp: ["golden", "--config", TWO_OSC, *UNDERFLOW_FLAGS]),
    (2, lambda tmp: ["master", "--config", write_huge_bath_config(tmp)]),
    # once six LAPACK DLASCL lines on stdout and four numpy warning lines,
    # then a numpy division by zero inside np.polyfit
    (2, lambda tmp: ["golden", "--config", write_tiny_grid_config(tmp)]),
], ids=["validate passes", "validate fails", "missing config", "usage error",
        "survival underflow", "out of memory", "fit window below rounding"])
def test_exit_code_of_the_process(tmp_path, code, argv):
    # the exit status and stderr a shell sees, interpreter start-up included;
    # a validation failure reports on stdout, every error in one stderr line.
    # Never run without the address-space cap: the huge bath asks for 14.6 TiB
    proc = run_python("-m", "oscbath.cli", *argv(tmp_path), "--out", str(tmp_path),
                      preexec_fn=limit_address_space)
    assert proc.returncode == code
    assert len(proc.stderr.splitlines()) == (code >= 2), proc.stderr
    assert ("FAIL" in proc.stdout) == (code == 1)
    assert (proc.stdout == "") == (code >= 2), proc.stdout


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

    @pytest.mark.parametrize("config, name, err", [
        (TWO_OSC, "golden_report.json",
         ["warning: fewer than two distinct bath frequencies: no density of states, "
          "gamma = 0"]),
        (N51, os.path.join("linear_bath_n51", "golden_report.json"), []),
    ], ids=["two_oscillator", "linear_bath_n51"])
    def test_golden_report_frozen(self, tmp_path, capsys, config, name, err):
        # two_oscillator.json has no density of states; n51 takes the
        # default decay window
        assert main(["golden", "--config", config, "--out", str(tmp_path)]) == 0
        expected = open(os.path.join(GOLDEN_DIR, name), "rb").read()
        assert (tmp_path / "golden_report.json").read_bytes() == expected
        assert capsys.readouterr().err.splitlines() == err

    def test_explicit_spelling_gives_one_report(self, tmp_path):
        # n51 with its grid and couplings written out: the same bath, so the
        # same report, density of states included
        doc = json.loads(open(N51).read())
        doc["bath"]["spectrum"] = {"type": "explicit",
                                   "omegas": np.linspace(0.5, 1.5, 51).tolist()}
        doc["bath"]["coupling"] = {"type": "explicit", "gs": [0.01] * 51}
        cfg = tmp_path / "explicit.json"
        cfg.write_text(json.dumps(doc))
        for config, out in ((N51, tmp_path / "linear"), (str(cfg), tmp_path / "explicit")):
            assert main(["golden", "--config", config, "--out", str(out)]) == 0
        assert ((tmp_path / "explicit" / "golden_report.json").read_bytes()
                == (tmp_path / "linear" / "golden_report.json").read_bytes())

    def test_validate_table_frozen(self, tmp_path, capsys):
        assert main(["validate", "--config", TWO_OSC, "--out", str(tmp_path)]) == 0
        expected = open(os.path.join(GOLDEN_DIR, "validate.txt")).read()
        assert capsys.readouterr().out == expected


def readme_cli_lines():
    """The ``oscbath ...`` lines of the sh block under README's ``## CLI``."""
    text = open(os.path.join(REPO_ROOT, "README.md"), encoding="utf-8").read()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("oscbath ")]


def test_readme_cli_block(tmp_path, capsys, monkeypatch):
    # every documented command runs as written, from the repository root its
    # config paths are relative to, with its output in a temporary directory
    lines = readme_cli_lines()
    assert lines
    monkeypatch.chdir(REPO_ROOT)
    for line in lines:
        argv = shlex.split(line)[1:]
        if "--out" in argv:
            del argv[argv.index("--out"):argv.index("--out") + 2]
        assert main([*argv, "--out", str(tmp_path / argv[0])]) == 0, line
        assert capsys.readouterr().err == "", line
