"""A seeded, derandomized fuzz of the shipped configs through ``cli.main``.

Each example takes one of four base configs: the three shipped ones and
``tools/output_digests.py``'s ``complex_bath.json``, with complex couplings
and a complex Hermitian ``bath_bath`` block.  It cuts a linear bath to at
most 64 modes, sets up to two of its numbers to ordinary, tiny, huge or
non-finite values (an off-diagonal ``bath_bath`` entry together with its
conjugate partner or alone, so the block may stop being Hermitian; one
explicit example makes b - b^H overflow), gives it one of a few
short time grids and runs every command on it in process, with ``--t-max``
and ``--dt`` flags that may override the file's grid, their values written
after a space, some with a leading minus (``-1e-3``, ``-inf``, ``-nan``)
that argparse alone would read as an option.  A two-oscillator
grid may step onto the odd multiples of pi / (4 g) for the drawn coupling
g, where P is singular when the two modes are resonant.  Whatever the
input, a run ends with a documented exit code and at most one error line,
and its CSV files hold no inf and a nan only at the times named in
``singular_points.txt``.  One run per base in a fresh process also sees
what LAPACK prints from C, which an in-process run cannot capture.
"""

import contextlib
import copy
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import REPO_ROOT, load_digest_tool, run_python
from oscbath.cli import main

CONFIG_DIR = os.path.join(REPO_ROOT, "configs")
MADE = {"complex_bath.json": load_digest_tool().MADE["complex_bath.json"]}
COMMANDS = ("amplitudes", "master", "langevin", "golden", "validate")
# the numbers each base config has, by key path
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
    # a complex number is an [re, im] pair
    "complex_bath.json": [("system", "v_self"), ("bath", "coupling", "gs", 1, 0),
                          ("bath", "coupling", "gs", 1, 1), ("bath", "bath_bath", 0, 1, 0),
                          ("bath", "bath_bath", 0, 1, 1), ("bath", "bath_bath", 0, 2),
                          ("bath", "bath_bath", 1, 2)],
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
FLAGS = ("--t-max", "--dt")
# (t_max, dt) flag texts with a leading minus: the run configuration refuses
# each, so a run given one of them ends with a config error
NEGATIVE_FLAGS = [("-1e-3", "-2.5e+300"), ("-inf", "-nan")]


def base(name, n):
    """The base config ``name``, a linear bath given ``n`` modes."""
    if name in MADE:
        return copy.deepcopy(MADE[name])
    with open(os.path.join(CONFIG_DIR, name)) as fh:
        doc = json.load(fh)
    if doc["bath"]["spectrum"]["type"] == "linear":
        doc["bath"]["n"] = n
        if doc["initial"]["type"] == "explicit":
            doc["initial"]["occupations"] = [1.0] + [0.0] * n
    return doc


def put(doc, path, value):
    *parents, key = path
    for part in parents:
        doc = doc[part]
    doc[key] = value


def grids(g):
    """``GRIDS``, after, for a finite nonzero coupling ``g``, the grids whose
    step divides pi / (4 g) and which end on its first or third multiple."""
    quarter = math.pi / (4 * abs(g)) if math.isfinite(g) and g else math.inf
    steps = (1, 7, 33) if math.isfinite(quarter) else ()
    return [(ends * quarter, quarter / n) for n in steps for ends in (1, 3)] + GRIDS


def short_or_refused(t_max, dt):
    """Whether a run makes at most 101 times or refuses the grid at once:
    between those, ``RunConfig.time_grid`` would allocate the whole grid."""
    if not (dt > 0 and t_max >= dt and math.isfinite(t_max / dt)):
        return True
    return round(t_max / dt) <= 100 or t_max / dt >= 2.0 ** 63


@st.composite
def configs(draw):
    """A mutated base config and the ``--t-max`` and ``--dt`` flags of a
    run on it."""
    name = draw(st.sampled_from(sorted(MUTABLE)))
    doc = base(name, draw(st.integers(0, 64)))
    for path in draw(st.lists(st.sampled_from(MUTABLE[name]), max_size=2, unique=True)):
        value = draw(NUMBERS)
        put(doc, path, value)
        if path[:2] == ("bath", "bath_bath") and draw(st.booleans()):
            # the conjugate partner, if drawn: the same real part, the opposite
            # imaginary one
            i, j, *part = path[2:]
            put(doc, ("bath", "bath_bath", j, i, *part), -value if part == [1] else value)
    g = doc["bath"]["coupling"]["gs"][0] if name == "two_oscillator.json" else math.nan
    grid = draw(st.sampled_from(grids(g)))
    overrides = draw(st.sampled_from([tuple(map(repr, pair)) for pair in grids(g)]
                                     + NEGATIVE_FLAGS))
    doc["time"] = dict(zip(("t_max", "dt"), grid))
    # each flag drawn overrides the file's value with another grid's, or
    # with a negative text
    flagged = draw(st.lists(st.sampled_from([0, 1]), max_size=2, unique=True))
    flags = [text for i in flagged for text in (FLAGS[i], overrides[i])]
    assume(short_or_refused(*(float(overrides[i]) if i in flagged else grid[i]
                              for i in (0, 1))))
    return doc, flags


def run(command, cfg, outputs, flags=()):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--config", cfg, "--out", outputs, *flags])
    return code, out.getvalue(), err.getvalue().splitlines()


def csv_rows(path, words=("",)):
    """The rows after the header whose line holds one of ``words``."""
    with open(path) as fh:
        return [line.split(",") for line in fh.read().splitlines()[1:]
                if any(word in line for word in words)]


def huge_non_hermitian():
    """``complex_bath.json`` with both entries of one ``bath_bath`` conjugate
    pair given the imaginary part 1e308, so b - b^H overflows: ``configs``
    draws two huge values together too rarely to reach it."""
    doc = base("complex_bath.json", 0)
    for i, j in ((0, 1), (1, 0)):
        put(doc, ("bath", "bath_bath", i, j, 1), 1e308)
    return doc, []


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(configs())
@example(huge_non_hermitian())
@pytest.mark.parametrize("command", COMMANDS)
def test_any_mutation_ends_cleanly(command, case):
    doc, flags = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg, outputs = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "out")
        with open(cfg, "w") as fh:
            json.dump(doc, fh)  # writes NaN and Infinity, which json reads back
        code, out, err = run(command, cfg, outputs, flags)
        assert code in ({0, 1, 2, 3} if command == "validate" else {0, 2, 3})
        # zero or more warnings, then exactly one error line if the run failed
        assert all(line.startswith("warning: ") for line in err[:len(err) - (code >= 2)])
        if code >= 2:
            assert err and not err[-1].startswith("warning: ")
        assert ("FAIL" in out) == (code == 1)
        if any(text in flags for pair in NEGATIVE_FLAGS for text in pair):
            assert code == 2 and err[-1].startswith("config error: "), err
        if code >= 2:
            return
        report = os.path.join(outputs, "singular_points.txt")
        singular = ({row[0] for row in csv_rows(report)} if os.path.exists(report)
                    else set())
        for name in os.listdir(outputs):
            if name.endswith(".csv"):
                # only a line with "inf" or "nan" in it can hold either field
                for row in csv_rows(os.path.join(outputs, name), ("inf", "nan")):
                    assert not {"inf", "-inf"} & set(row), (name, row)
                    if "nan" in row:
                        assert row[0] in singular, (name, row)


# every command on one config in one process, each followed by its exit code
FRESH = """import sys
from oscbath.cli import main
cfg, outputs, *commands = sys.argv[1:]
for command in commands:
    print(command, main([command, "--config", cfg, "--out", outputs]), flush=True)
"""


@pytest.mark.parametrize("name", sorted(MUTABLE))
def test_fresh_process_prints_what_main_does(tmp_path, name):
    # each base on the grid [0, 1e-190] in steps of 1e-191, where golden's
    # fit once made LAPACK print DLASCL errors to the process's stdout
    doc = base(name, 64)
    doc["time"] = {"t_max": 1e-190, "dt": 1e-191}
    cfg, outputs = str(tmp_path / "cfg.json"), str(tmp_path / "out")
    with open(cfg, "w") as fh:
        json.dump(doc, fh)
    runs = [(command, *run(command, cfg, outputs)) for command in COMMANDS]
    proc = run_python("-c", FRESH, cfg, outputs, *COMMANDS, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "".join(f"{out}{command} {code}\n" for command, code, out, _ in runs)
    assert proc.stderr.splitlines() == [line for *_, err in runs for line in err]
