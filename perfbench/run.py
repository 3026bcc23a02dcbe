"""Benchmark of the oscbath command line: end to end, and per layer from a
traced run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload master-n51 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one summary each
    python3 perfbench/selftest.py                # harness self-test, a few seconds

Each sample runs one ``oscbath.cli.main([...])`` call on a shipped config in
a fresh worker process (``perfbench/worker.py``).  One driver process starts
one worker at a time, with the caller's environment: nothing is pinned, so
OpenBLAS runs at its default thread count, which the context line records
as the library reports it.  Before timing, ``WARMUP_WORKERS`` untimed
set-up-only workers compile bytecode and fill the page cache; then samples
start until ``--seconds`` have passed, each but the last followed by
``SETUPS_PER_SAMPLE`` set-up-only workers.

``--trace 0`` reports, as medians over the run's samples:
  wall_s       the ``cli.main`` call, imports excluded
  setup_s      fresh-process ``import oscbath`` (and its CLI module) plus
               ``load_config``, over every timed worker of the run
  peak_rss_mb  the worker's ``ru_maxrss``
``--trace 1`` alternates untraced and traced samples and reports the
per-layer metrics of ``spans.LAYER_UNITS``: every ``*_s`` metric is the
self time of the spans of that layer (duration minus child spans), and
``trace.overhead_frac`` is traced minus untraced wall_s over untraced.

A sample fails if its exit code is nonzero, if its outputs fail the
workload's check, or if its output bytes differ from the first sample's.
fail_rate (failed over attempted samples) is printed on the summary line;
the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.

Seed 0 runs the shipped config unchanged.  Any other seed runs a copy whose
couplings get seeded random phases with the same |g|: a diagonal phase
similarity maps it onto the shipped model, so the work and every physics
check stay the same while the complex-coupling path is exercised.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from spans import LAYER_UNITS, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORK_PARENT = ROOT / ".perfbench_work"
# The first workers of a run start slower than later ones, so a few untimed
# workers run first; set-up samples are then spread over the whole run.
WARMUP_WORKERS = 3
SETUPS_PER_SAMPLE = 2
RUN_LIMIT_S = 170.0  # workers still running then are killed, so a run ends within 180 s
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def _read_csv(path):
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        return header, [line.rstrip("\n").split(",") for line in fh]


def _finite_column(path, name):
    header, rows = _read_csv(path)
    col = header.index(name)
    return [v for v in (float(row[col]) for row in rows) if math.isfinite(v)]


def _at_most(label, values, limit):
    if not values:
        return [f"{label}: no finite values"]
    worst = max(values)
    return [] if worst <= limit else [f"{label}: {worst:.3e} > {limit:.1e}"]


def check_master(out, tol):
    problems = _at_most("master residual",
                        _finite_column(out / "master_residual.csv", "residual"),
                        tol["master_residual"])
    _, rows = _read_csv(out / "populations.csv")
    totals = {}
    for t, _, population in rows:
        totals[t] = totals.get(t, 0.0) + float(population)
    first = next(iter(totals.values()))
    drift = max(abs(v - first) for v in totals.values()) / abs(first)
    if not drift <= tol["conservation"]:
        problems.append(f"total population drift {drift:.3e} > {tol['conservation']:.1e}")
    return problems


def check_golden(out, tol):
    with open(out / "golden_report.json") as fh:
        report = json.load(fh)
    fit, pred = report["gamma_fit"], report["gamma_pred"]
    if pred > 0 and abs(fit - pred) <= 0.10 * pred:
        return []
    return [f"gamma_fit {fit:.6g} not within 10% of gamma_pred {pred:.6g}"]


def check_validate(out, tol):
    return []  # a failing check makes validate exit 1, which fails the sample


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: str
    extra: tuple
    check: Callable

    def argv(self, config, out):
        return [self.command, "--config", config, *self.extra, "--out", str(out)]


# why each workload exists is recorded next to its name in BENCHMARK.json
WORKLOADS = {w.name: w for w in (
    Workload("master-n51", "master", "configs/linear_bath_n51.json", (), check_master),
    Workload("golden-n201", "golden", "configs/linear_bath_n201.json",
             ("--window", "10,100"), check_golden),
    Workload("validate-n51", "validate", "configs/linear_bath_n51.json", (),
             check_validate),
)}


def prepare_config(workload, seed, workdir):
    """Config path for ``seed``: the shipped file for seed 0, otherwise a
    copy with seeded random coupling phases and unchanged |g|."""
    if seed == 0:
        return workload.config
    with open(ROOT / workload.config) as fh:
        doc = json.load(fh)
    bath = doc["bath"]
    coupling = bath["coupling"]
    if coupling["type"] == "uniform":
        gs = [coupling["g"]] * bath["n"]
    else:
        gs = coupling["gs"]
    rng = random.Random(seed)
    phased = []
    for g in gs:
        mag = abs(complex(*g) if isinstance(g, list) else complex(g))
        phi = 2.0 * math.pi * rng.random()
        phased.append([mag * math.cos(phi), mag * math.sin(phi)])
    bath["coupling"] = {"type": "explicit", "gs": phased}
    path = workdir / "config.json"
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


def run_worker(request, workdir, tag, deadline):
    """Run one worker to completion; returns (result, error)."""
    req_path = workdir / f"{tag}.request.json"
    res_path = workdir / f"{tag}.result.json"
    with open(req_path, "w") as fh:
        json.dump(request, fh)
    try:
        proc = subprocess.run([sys.executable, str(WORKER), str(req_path), str(res_path)],
                              cwd=ROOT, stdout=subprocess.DEVNULL,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return None, "worker timed out"
    if proc.returncode != 0:
        return None, f"worker exited with code {proc.returncode}"
    with open(res_path) as fh:
        return json.load(fh), None


def output_digest(out, stdout_path):
    """SHA-256 over every output file (sorted by path) and the captured stdout."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode() + b"\0")
        h.update(path.read_bytes())
    h.update(b"stdout\0" + Path(stdout_path).read_bytes())
    return h.hexdigest()


def judge(workload, result, out, stdout_path, reference):
    """Problems of one finished sample, and its output digest."""
    if result["rc"] != 0:
        return [f"exit code {result['rc']}"], None
    try:
        problems = workload.check(out, result["tolerances"])
    except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
        problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
    digest = output_digest(out, stdout_path)
    if reference is not None and digest != reference:
        problems.append("output bytes differ from the first sample's")
    return problems, digest


def run_sample(workload, config, workdir, tag, trace, deadline, reference):
    out = workdir / f"{tag}.out"
    stdout_path = workdir / f"{tag}.stdout"
    request = {"root": str(ROOT), "config": config, "argv": workload.argv(config, out),
               "stdout": str(stdout_path), "trace": trace}
    result, error = run_worker(request, workdir, tag, deadline)
    sample = {"result": result, "trace": trace, "digest": None}
    if error is not None:
        sample["problems"] = [error]
    else:
        sample["problems"], sample["digest"] = judge(workload, result, out, stdout_path,
                                                     reference)
        sample["bytes_written"] = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    shutil.rmtree(out, ignore_errors=True)
    return sample


def run_workload(workload, seed, seconds, trace):
    """All workers of one run: warm-up, set-up samples, then timed samples."""
    if not (ROOT / "src" / "oscbath" / "__init__.py").is_file():
        raise BenchError(f"no oscbath sources under {ROOT / 'src'}")
    if not (ROOT / workload.config).is_file():
        raise BenchError(f"missing config {workload.config}")
    deadline = time.monotonic() + RUN_LIMIT_S
    WORK_PARENT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK_PARENT))
    try:
        config = prepare_config(workload, seed, workdir)

        def setup_sample(tag):
            result, error = run_worker({"root": str(ROOT), "config": config},
                                       workdir, tag, deadline)
            if error is not None:
                raise BenchError(f"oscbath does not start: {error}")
            return result["setup_s"]

        for i in range(WARMUP_WORKERS):
            setup_sample(f"warmup{i}")
        setups = []
        samples = []
        reference = None
        begin = time.monotonic()
        while True:
            traced = trace and len(samples) % 2 == 1
            started = time.monotonic()
            sample = run_sample(workload, config, workdir, f"sample{len(samples)}",
                                traced, deadline, reference)
            samples.append(sample)
            reference = reference or sample["digest"]
            last = time.monotonic() - started
            if time.monotonic() + last > deadline:
                break
            if (not trace or len(samples) >= 2) and time.monotonic() - begin >= seconds:
                break
            setups += [setup_sample(f"setup{len(samples)}-{i}")
                       for i in range(SETUPS_PER_SAMPLE)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_PARENT.rmdir()
        except OSError:
            pass  # another run still uses it
    return setups, samples


def _median_of(samples, key):
    values = [s["result"][key] for s in samples if s["result"] and key in s["result"]]
    return (statistics.median(values) if values else None), len(values)


def summarize(samples, setups, trace):
    """(metrics, sample counts) of one run."""
    setups = setups + [s["result"]["setup_s"] for s in samples if s["result"]]
    plain = [s for s in samples if not s["trace"]]
    metrics, counts = {}, {}
    if not trace:
        for name in ("wall_s", "peak_rss_mb"):
            metrics[name], counts[name] = _median_of(plain, name)
        metrics["setup_s"], counts["setup_s"] = statistics.median(setups), len(setups)
        units = E2E_UNITS
    else:
        traced = [s for s in samples if s["trace"] and s["result"] and "spans" in s["result"]]
        per_sample = [layer_metrics(s["result"]["spans"], s["bytes_written"]) for s in traced]
        for name, unit in LAYER_UNITS.items():
            if name != "trace.overhead_frac" and per_sample:
                # counts repeat exactly, so take one of them rather than a mean
                pick = statistics.median if unit == "s" else statistics.median_low
                metrics[name] = pick(m[name] for m in per_sample)
                counts[name] = len(per_sample)
        with_trace, _ = _median_of(traced, "wall_s")
        without, _ = _median_of(plain, "wall_s")
        if with_trace is not None and without:
            metrics["trace.overhead_frac"] = (with_trace - without) / without
            counts["trace.overhead_frac"] = len(samples)
        units = LAYER_UNITS
    missing = [name for name in units if metrics.get(name) is None]
    if missing:
        raise BenchError(f"no completed sample gives {', '.join(missing)}")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}, counts


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None  # not a git checkout of its own
    return lines[1]


def machine_context(samples):
    context = next((s["result"]["context"] for s in samples if s["result"]), {})
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "git_commit": git_commit(), **context}


def summary_line(workload, seed, metrics, counts, failed, attempted):
    parts = [f"{name} {m['value']:.6g} {m['unit']} (n={counts[name]})"
             for name, m in metrics.items()]
    parts.append(f"fail_rate {failed / attempted:.6g} ({failed}/{attempted})")
    return f"# {workload.name} seed={seed}: " + " | ".join(parts)


def bench(workloads, seed, seconds, trace):
    """Run the workloads; returns the final JSON object."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        name = workload.name
        setups, samples = run_workload(workload, seed, seconds, trace)
        metrics, counts = summarize(samples, setups, trace)
        failed = sum(1 for s in samples if s["problems"])
        for s in samples:
            for problem in s["problems"]:
                print(f"perfbench: {name}: {problem}", file=sys.stderr)
        print("# context " + json.dumps(machine_context(samples), sort_keys=True))
        print(summary_line(workload, seed, metrics, counts, failed, len(samples)))
        result["correct"] = result["correct"] and failed == 0
        result["attempted"] += len(samples)
        result["failed"] += failed
        prefix = f"{name}." if len(workloads) > 1 else ""
        result["metrics"].update({prefix + k: v for k, v in metrics.items()})
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        result = bench([WORKLOADS[n] for n in names], args.seed, args.seconds,
                       bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
