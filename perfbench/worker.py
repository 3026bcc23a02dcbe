"""One benchmark sample in a fresh process.

Usage: python3 perfbench/worker.py REQUEST.json RESULT.json

The request names the checkout root, the config, and, unless it is a
set-up-only sample, the ``oscbath.cli.main`` arguments, the file that
receives the command's standard output and whether to trace.  The worker
imports oscbath from the checkout's ``src`` directory (never an installed
copy), times import plus ``load_config`` as set-up, then times one
``cli.main`` call with imports excluded, and writes its result as JSON.
"""

import ctypes
import json
import os
import resource
import sys
import time

T0 = time.perf_counter()


def _is_blas(path):
    name = os.path.basename(path).lower()
    return name.startswith("lib") and "blas" in name and ".so" in name


def blas_context():
    """Every loaded BLAS library with the thread count and build string it
    reports itself (not what environment variables ask for)."""
    found = []
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if _is_blas(line.split()[-1])})
    except OSError:
        return found
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        entry = {"library": os.path.basename(path), "threads": None, "config": None}
        for suffix in ("", "64_"):
            for prefix in ("scipy_openblas", "openblas"):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and entry["threads"] is None:
                    threads.restype = ctypes.c_int
                    threads.argtypes = []
                    entry["threads"] = threads()
                if config is not None and entry["config"] is None:
                    config.restype = ctypes.c_char_p
                    config.argtypes = []
                    entry["config"] = config().decode()
        if entry["threads"] is not None or entry["config"] is not None:
            found.append(entry)
    return found


def main(request_path, result_path):
    with open(request_path) as fh:
        req = json.load(fh)
    src = os.path.join(req["root"], "src")
    sys.path.insert(0, src)
    import oscbath
    import oscbath.cli

    if not os.path.realpath(oscbath.__file__).startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"imported oscbath from {oscbath.__file__}, not from {src}")
    cfg = oscbath.load_config(req["config"])
    result = {"setup_s": time.perf_counter() - T0,
              "tolerances": dict(cfg.tolerances)}

    if req.get("argv") is not None:
        import numpy
        import scipy

        result["context"] = {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "oscbath": getattr(oscbath, "__version__", None),
            "eigensolver_backend": getattr(oscbath, "JACOBI_BACKEND", None),
            "blas": blas_context(),
        }
        tracer = None
        if req["trace"]:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        with open(req["stdout"], "w") as out:
            saved, sys.stdout = sys.stdout, out
            try:
                start = time.perf_counter()
                result["rc"] = oscbath.cli.main(req["argv"])
                result["wall_s"] = time.perf_counter() - start
            finally:
                sys.stdout = saved
        if tracer is not None:
            result["spans"] = tracer.spans
            result["traced"] = tracer.installed

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(*sys.argv[1:3])
