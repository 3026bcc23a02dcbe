"""Self-test of the benchmark harness on configs/two_oscillator.json.

Usage, from the root of a checkout: python3 perfbench/selftest.py

Runs in seconds and exits 0 only if
  1. every metric of BENCHMARK.json is printed by name with its unit, on the
     untraced and on the traced path;
  2. every wrapped function is hit by at least one workload's command;
  3. a corrupted output file makes its sample fail (so it counts in
     fail_rate), both when a physics check breaks and when only the bytes
     differ from the first sample's.
"""

import contextlib
import dataclasses
import io
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import run
from spans import TARGETS, span_name

SMALL = "configs/two_oscillator.json"


def small(workload):
    # The two-oscillator model has t_max 5 and no bath band (gamma_pred = 0),
    # so here golden keeps its default fit window and only its exit code counts.
    check = run.check_validate if workload.command == "golden" else workload.check
    return dataclasses.replace(workload, config=SMALL, extra=(), check=check)


def check_metric_names(errors):
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    for trace, declared in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            result = run.bench([small(run.WORKLOADS["master-n51"])], 7, 0, trace)
        summary = printed.getvalue()
        for metric in declared:
            name, unit = metric["name"], metric["unit"]
            if result["metrics"].get(name, {}).get("unit") != unit:
                errors.append(f"trace={int(trace)}: {name} [{unit}] missing from the result")
            if f" {name} " not in summary or f" {unit} " not in summary:
                errors.append(f"trace={int(trace)}: {name} [{unit}] missing from the summary")
        if set(result["metrics"]) != {m["name"] for m in declared}:
            errors.append(f"trace={int(trace)}: result metrics differ from BENCHMARK.json")
        if not result["correct"]:
            errors.append(f"trace={int(trace)}: two-oscillator master run failed its checks")


def check_coverage(workdir, deadline, errors):
    hit, installed = set(), set()
    for workload in run.WORKLOADS.values():
        sample = run.run_sample(small(workload), SMALL, workdir, workload.name, True,
                                deadline, None)
        if sample["problems"]:
            errors.append(f"{workload.name}: {sample['problems']}")
            continue
        installed.update(sample["result"]["traced"])
        hit.update(span[0] for span in sample["result"]["spans"])
    wanted = {span_name(mod, fn) for mod, fn, _ in TARGETS}
    for name in sorted(wanted - installed):
        errors.append(f"{name} could not be wrapped")
    for name in sorted(installed - hit):
        errors.append(f"{name} is wrapped but no workload calls it")


def check_corruption(workdir, deadline, errors):
    workload = small(run.WORKLOADS["master-n51"])
    out, stdout = workdir / "master.out", workdir / "master.stdout"
    request = {"root": str(run.ROOT), "config": SMALL, "argv": workload.argv(SMALL, out),
               "stdout": str(stdout), "trace": False}
    result, error = run.run_worker(request, workdir, "master", deadline)
    if error is not None:
        errors.append(f"master sample: {error}")
        return
    problems, reference = run.judge(workload, result, out, stdout, None)
    if problems:
        errors.append(f"clean master sample failed: {problems}")

    populations = out / "populations.csv"
    populations.write_bytes(populations.read_bytes().replace(b"e-", b"E-", 1))
    problems, _ = run.judge(workload, result, out, stdout, reference)
    if not any("differ" in p for p in problems):
        errors.append("changed output bytes were not counted as a failure")

    residual = out / "master_residual.csv"
    lines = residual.read_text().splitlines()
    t, _, balance = lines[-1].split(",")
    residual.write_text("\n".join(lines[:-1] + [f"{t},1.0,{balance}"]) + "\n")
    problems, _ = run.judge(workload, result, out, stdout, None)
    if not any("master residual" in p for p in problems):
        errors.append("a master residual above tolerance was not counted as a failure")


def main():
    errors = []
    start = time.monotonic()
    deadline = start + run.RUN_LIMIT_S
    check_metric_names(errors)
    run.WORK_PARENT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=run.WORK_PARENT))
    try:
        check_coverage(workdir, deadline, errors)
        check_corruption(workdir, deadline, errors)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.WORK_PARENT.rmdir()
    for error in errors:
        print(f"FAIL {error}")
    print(f"selftest: {'FAIL' if errors else 'ok'} in {time.monotonic() - start:.1f} s")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
