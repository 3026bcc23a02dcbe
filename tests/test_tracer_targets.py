"""The functions that the benchmark's span tracer wraps still exist.

``perfbench/spans.py`` names each traced function in ``TARGETS``; a target
that no longer resolves is left untraced, and its per-layer metric reads 0
with no error.  The test is skipped once the tracer is gone.
"""

import importlib
import importlib.util
import os

import pytest

SPANS = os.path.join(os.path.dirname(__file__), "..", "perfbench", "spans.py")
# deleted when the dense engine became master.time_blocks; the tracer
# still lists them, and their metrics are known to read 0
DEAD = {
    ("oscbath.amplitudes", "amplitudes_at"),
    ("oscbath.master", "transition_probabilities"),
    ("oscbath.master", "master_coefficients"),
    ("oscbath.master", "master_coefficients_flagged"),
    ("oscbath.master", "evolve_populations"),
    ("oscbath.golden", "golden_rule_rates"),
}


def test_every_live_target_resolves():
    if not os.path.exists(SPANS):
        pytest.skip("perfbench/spans.py is gone, and with it the wrapped targets")
    spec = importlib.util.spec_from_file_location("spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = {(module, name) for module, name, _ in spans.TARGETS
               if not callable(getattr(importlib.import_module(module), name, None))}
    assert missing <= DEAD, sorted(missing - DEAD)
