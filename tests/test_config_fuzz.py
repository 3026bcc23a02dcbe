"""A seeded, derandomized fuzz of the shipped configs through ``cli.main``.

Each example takes one shipped config, cuts a linear bath to at most 64
modes, sets up to two of its numbers to ordinary, tiny, huge or non-finite
values, gives it one of a few short time grids and runs every command on
it in process.  Whatever the input, a run ends with a documented exit
code and at most one error line, and its CSV files hold no inf and a nan
only at the times named in ``singular_points.txt``.
"""

import contextlib
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscbath.cli import main

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
COMMANDS = ("amplitudes", "master", "langevin", "golden", "validate")
# the numbers each shipped config has, by key path
MUTABLE = {
    "two_oscillator.json": [("system", "omega"), ("system", "mass"), ("system", "v_self"),
                            ("bath", "spectrum", "omegas", 0), ("bath", "coupling", "gs", 0),
                            ("initial", "occupations", 0), ("initial", "occupations", 1)],
    "linear_bath_n51.json": [("system", "omega"), ("system", "v_self"),
                             ("bath", "spectrum", "omega_min"),
                             ("bath", "spectrum", "omega_max"), ("bath", "coupling", "g"),
                             ("initial", "beta"), ("initial", "system_occupation")],
    "linear_bath_n201.json": [("system", "omega"), ("bath", "coupling", "g"),
                              ("bath", "spectrum", "omega_max"), ("fit_window", 0)],
}
NUMBERS = st.one_of(
    st.floats(0.0, 3.0),
    st.sampled_from([-1.0, 5e-324, 1e-300, 1e-12, 1e20, 1e200, 1e308,
                     math.inf, -math.inf, math.nan]))
# (t_max, dt): at most 101 times, two of them ending on the two-oscillator
# model's exactly singular P at pi / (4 g), and four that no run accepts
GRIDS = [(5.0, 0.1), (50.0, 0.5), (1e-190, 1e-191), (7.853981633974483, 7.853981633974483),
         (7.853981633974483, 0.07853981633974483), (0.0, 0.1), (1e300, 1e298),
         (math.nan, 0.1), (1.0, math.inf)]


@st.composite
def configs(draw):
    name = draw(st.sampled_from(sorted(MUTABLE)))
    with open(os.path.join(CONFIG_DIR, name)) as fh:
        doc = json.load(fh)
    if doc["bath"]["spectrum"]["type"] == "linear":
        doc["bath"]["n"] = n = draw(st.integers(0, 64))
        if doc["initial"]["type"] == "explicit":
            doc["initial"]["occupations"] = [1.0] + [0.0] * n
    for path in draw(st.lists(st.sampled_from(MUTABLE[name]), max_size=2, unique=True)):
        *parents, key = path
        target = doc
        for part in parents:
            target = target[part]
        target[key] = draw(NUMBERS)
    doc["time"] = dict(zip(("t_max", "dt"), draw(st.sampled_from(GRIDS))))
    return doc


def run(command, cfg, outputs):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--config", cfg, "--out", outputs])
    return code, out.getvalue(), err.getvalue().splitlines()


def csv_rows(path):
    with open(path) as fh:
        return [line.split(",") for line in fh.read().splitlines()[1:]]


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(configs())
@pytest.mark.parametrize("command", COMMANDS)
def test_any_mutation_ends_cleanly(command, doc):
    with tempfile.TemporaryDirectory() as tmp:
        cfg, outputs = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "out")
        with open(cfg, "w") as fh:
            json.dump(doc, fh)  # writes NaN and Infinity, which json reads back
        code, out, err = run(command, cfg, outputs)
        assert code in ({0, 1, 2, 3} if command == "validate" else {0, 2, 3})
        # zero or more warnings, then exactly one error line if the run failed
        assert all(line.startswith("warning: ") for line in err[:len(err) - (code >= 2)])
        if code >= 2:
            assert err and not err[-1].startswith("warning: ")
        assert ("FAIL" in out) == (code == 1)
        if code >= 2:
            return
        report = os.path.join(outputs, "singular_points.txt")
        singular = ({row[0] for row in csv_rows(report)} if os.path.exists(report)
                    else set())
        for name in os.listdir(outputs):
            if name.endswith(".csv"):
                for row in csv_rows(os.path.join(outputs, name)):
                    assert not {"inf", "-inf"} & set(row), (name, row)
                    if "nan" in row:
                        assert row[0] in singular, (name, row)
