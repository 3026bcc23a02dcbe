"""Every output of ``tools/output_digests.py``'s matrix of runs, compared
with the committed listing ``tests/golden/output_digests.txt``.

The listing was made at two OpenBLAS threads, and its header records the
numpy version and BLAS build: the n201 digests depend on all three, so a
failure prints the committed header next to the running one.  Re-baselining
the listing is recorded in CHANGES.md, as for any golden file.
"""

import importlib.util
import os
import subprocess
import sys

REPO_ROOT = os.path.realpath(os.path.join(os.path.dirname(__file__), ".."))
TOOL = os.path.join(REPO_ROOT, "tools", "output_digests.py")
LISTING = os.path.join(REPO_ROOT, "tests", "golden", "output_digests.txt")


def load_tool():
    spec = importlib.util.spec_from_file_location("output_digests", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_outputs_match_the_committed_listing():
    tool = load_tool()
    with open(LISTING) as fh:
        expected = fh.read().splitlines()
    # one matrix: every run of the tool's matrix has lines in the listing
    runs = {tuple(line.split()[:3]) for line in expected if not line.startswith("#")}
    assert runs == {(command, config, ",".join(flags) or "-")
                    for command, config, flags in tool.MATRIX}
    proc = subprocess.run([sys.executable, TOOL, REPO_ROOT], capture_output=True, text=True,
                          env={**os.environ, "OPENBLAS_NUM_THREADS": "2"}, timeout=600)
    assert proc.returncode == 0, proc.stderr
    got = proc.stdout.splitlines()
    differ = [f"line {i + 1}:\n  committed {old}\n  running   {new}"
              for i, (old, new) in enumerate(zip(expected, got)) if old != new]
    if len(got) != len(expected):
        differ.append(f"{len(expected)} lines committed, {len(got)} running")
    context = [line for line in expected if line.startswith("#")]
    running = [line for line in got if line.startswith("#")]
    assert not differ, "\n".join(["committed context:", *context, "running context:",
                                  *running, *differ])
