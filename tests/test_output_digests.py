"""Every output of ``tools/output_digests.py``'s matrix of runs, compared
with the committed listing ``tests/golden/output_digests.txt``.

The listing was made at two OpenBLAS threads, and its header records the
numpy version and BLAS build: the n201 digests depend on all three, so a
failure prints the committed header next to the running one.  A second run
at one thread names the outputs whose bytes depend on the thread count.
Re-baselining the listing is recorded in CHANGES.md, as for any golden file.
"""

import os
import subprocess
import sys

from conftest import DIGEST_TOOL, REPO_ROOT, load_digest_tool

LISTING = os.path.join(REPO_ROOT, "tests", "golden", "output_digests.txt")


# the outputs whose bytes differ between one and two OpenBLAS threads: at
# dim 202 the eigensolve, the complex matmul of A and the LU of P all round
# differently, and at dim 52 or less none of them does
THREAD_DEPENDENT = {
    ("golden", "linear_bath_n201.json", "--window,10,100", "golden_report.json"),
    ("golden", "linear_bath_n201.json", "--window,20,100", "golden_report.json"),
    ("master", "linear_bath_n201.json", "--t-max,20", "master_residual.csv"),
    ("master", "linear_bath_n201.json", "--t-max,20", "populations.csv"),
    ("master", "linear_bath_n201.json", "--t-max,20", "w_coeffs.csv"),
    ("amplitudes", "linear_bath_n201.json", "--t-max,2", "amplitudes.csv"),
    ("amplitudes", "linear_bath_n201.json", "--t-max,2", "survival.csv"),
}


def committed():
    with open(LISTING) as fh:
        return fh.read().splitlines()


def run_tool(threads):
    """The tool's listing of this checkout at ``threads`` OpenBLAS threads."""
    proc = subprocess.run([sys.executable, DIGEST_TOOL, REPO_ROOT], capture_output=True, text=True,
                          env={**os.environ, "OPENBLAS_NUM_THREADS": str(threads)},
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_outputs_match_the_committed_listing():
    tool = load_digest_tool()
    expected = committed()
    # one matrix: every run of the tool's matrix has lines in the listing
    runs = {tuple(line.split()[:3]) for line in expected if not line.startswith("#")}
    assert runs == {(command, config, ",".join(flags) or "-")
                    for command, config, flags in tool.MATRIX}
    got = run_tool(2)
    differ = [f"line {i + 1}:\n  committed {old}\n  running   {new}"
              for i, (old, new) in enumerate(zip(expected, got)) if old != new]
    if len(got) != len(expected):
        differ.append(f"{len(expected)} lines committed, {len(got)} running")
    context = [line for line in expected if line.startswith("#")]
    running = [line for line in got if line.startswith("#")]
    assert not differ, "\n".join(["committed context:", *context, "running context:",
                                  *running, *differ])


def test_outputs_that_depend_on_the_thread_count():
    # every line but the digest, for each line of the listing that one
    # thread changes
    expected, got = committed(), run_tool(1)
    assert len(got) == len(expected)
    differ = {tuple(old.split()[:-1]) for old, new in zip(expected, got) if old != new}
    assert differ == {("#", "blas", "threads"), *THREAD_DEPENDENT}
