"""SHA-256 digests of every CLI output on a fixed matrix of runs.

Usage: python3 tools/output_digests.py ROOT

Imports oscbath from ``ROOT/src`` (never an installed copy), runs each
command of the matrix below in-process through ``oscbath.cli.main`` with
``--out`` in a fresh temporary directory, and prints one line
``<command> <config> <flags> <item> <sha256>`` per output file, and one
each for the run's stdout, stderr and exit code.  Three ``#`` lines come
first: the numpy version, and the build string and thread count that
numpy's OpenBLAS reports through ``oscbath.lapack``, since the n201
digests depend on all three.  The checkout and output paths in stderr are
replaced by placeholders before hashing, so two checkouts compare with
``diff`` of their two listings.
``tests/golden/output_digests.txt`` is this listing at two BLAS threads
(``OPENBLAS_NUM_THREADS=2``), and a test compares it with a fresh run.

Three configs are written into a temporary directory:
``linear_bath_n51.json:explicit`` is n51 with its frequency grid and
couplings written out as explicit lists, ``bare.json`` has no bath
(``n: 0``), and ``complex_bath.json`` has explicit couplings, one of them
complex, and a complex Hermitian ``bath_bath`` block.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np

TWO_OSC, N51, N201 = "two_oscillator.json", "linear_bath_n51.json", "linear_bath_n201.json"
N51_EXPLICIT = N51 + ":explicit"
MADE = {
    "bare.json": {
        "system": {"omega": 1.0},
        "bath": {"n": 0},
        "initial": {"type": "explicit", "occupations": [1.0]},
        "time": {"t_max": 5.0, "dt": 0.1},
    },
    "complex_bath.json": {
        "system": {"omega": 1.0, "v_self": 0.02},
        "bath": {"n": 3,
                 "spectrum": {"type": "explicit", "omegas": [0.8, 1.0, 1.2]},
                 "coupling": {"type": "explicit", "gs": [0.05, [0.02, 0.03], 0.04]},
                 "bath_bath": [[0.0, [0.01, 0.02], 0.0],
                               [[0.01, -0.02], 0.0, 0.005],
                               [0.0, 0.005, 0.0]]},
        "initial": {"type": "explicit", "occupations": [1.0, 0.5, 0.2, 0.0]},
        "time": {"t_max": 20.0, "dt": 0.1},
    },
}
COMMANDS = ("amplitudes", "master", "langevin", "golden", "validate")
SINGULAR_GRID = ("--dt", "0.015707963267948967", "--t-max", "70")  # hits t = pi / (4 g)
# the grid [0, pi / (4 g)], where P's LU meets an exactly zero pivot
EXACT_SINGULAR = ("--dt", "7.853981633974483", "--t-max", "7.853981633974483")
MATRIX = (
    [(command, config, ()) for config in (TWO_OSC, N51) for command in COMMANDS]
    + [("golden", N201, ("--window", "10,100")),
       ("golden", N201, ("--window", "20,100")),  # starts after 1 / gamma: no W00 time
       ("master", N201, ("--t-max", "20")),
       ("amplitudes", N201, ("--t-max", "2")),
       ("master", TWO_OSC, SINGULAR_GRID),
       ("langevin", TWO_OSC, SINGULAR_GRID),
       ("master", TWO_OSC, EXACT_SINGULAR),
       ("golden", N51_EXPLICIT, ())]
    + [(command, config, ()) for config in MADE for command in ("master", "langevin", "golden")]
)


def context():
    """The listing's ``#`` header lines."""
    from oscbath import lapack

    return [f"# numpy {np.__version__}",
            f"# blas {lapack.build()}",
            f"# blas threads {lapack.threads()}"]


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _file_sha256(path):
    with open(path, "rb") as fh:
        return _sha256(fh.read())


def _write(directory, name, doc):
    """Write ``doc`` as ``directory/name`` and return its path."""
    path = os.path.join(directory, name)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def _explicit_n51(root):
    """N51_EXPLICIT: n51 with its grid and couplings written out."""
    with open(os.path.join(root, "configs", N51)) as fh:
        doc = json.load(fh)
    bath = doc["bath"]
    spectrum = bath["spectrum"]
    bath["spectrum"] = {"type": "explicit", "omegas": np.linspace(
        spectrum["omega_min"], spectrum["omega_max"], bath["n"]).tolist()}
    bath["coupling"] = {"type": "explicit", "gs": [bath["coupling"]["g"]] * bath["n"]}
    return doc


def main(root):
    root = os.path.realpath(root)
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import oscbath.cli

    if not os.path.realpath(oscbath.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported oscbath from {oscbath.cli.__file__}, not from {src}")
    print("\n".join(context()))
    with tempfile.TemporaryDirectory() as made:
        paths = {name: _write(made, name, doc) for name, doc in MADE.items()}
        paths[N51_EXPLICIT] = _write(made, "linear_bath_n51_explicit.json", _explicit_n51(root))
        for command, config, flags in MATRIX:
            with tempfile.TemporaryDirectory() as out:
                stdout, stderr = io.StringIO(), io.StringIO()
                path = paths.get(config) or os.path.join(root, "configs", config)
                argv = [command, "--config", path, "--out", out]
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = oscbath.cli.main(argv + list(flags))
                err = stderr.getvalue().replace(out, "<OUT>").replace(root, "<ROOT>")
                items = [(name, _file_sha256(os.path.join(out, name)))
                         for name in sorted(os.listdir(out))]
                items += [("stdout", _sha256(stdout.getvalue().encode())),
                          ("stderr", _sha256(err.encode())),
                          ("exit", _sha256(str(code).encode()))]
            for item, digest in items:
                print(command, config, ",".join(flags) or "-", item, digest)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__.split("\n\n")[1])
    main(sys.argv[1])
