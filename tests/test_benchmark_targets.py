"""The benchmark's traced run wraps ``qkdlab`` functions by name and counts
work through hooks that read their arguments (``perfbench/spans.py``).
The suite does not collect ``perfbench/``, so these checks keep those
names and hooks working from here; they read the file and change nothing."""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np

from qkdlab.quantum_core import CqState, cq_measure, product_qubit_povm

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_qkdlab():
    missing = []
    for qualname in _spans().TARGETS:
        module_name, *outer, attr = qualname.split(".")
        owner = importlib.import_module(f"qkdlab.{module_name}")
        for part in [*outer, attr]:
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(qualname)
    assert missing == []


def test_born_hook_counts_a_cq_state_built_from_a_stack():
    cq = CqState.from_stack(2, ["00", "01", "11"], [0.5, 0.25, 0.25], np.stack([np.eye(2) / 2] * 3))
    povm = product_qubit_povm([0.3])
    hook = _spans().TARGETS["quantum_core.cq_measure"]
    for args, kwargs in (((cq, povm), {}), ((), {"cq": cq, "povm": povm})):
        counters = Counter()
        hook(counters, args, kwargs, cq_measure(cq, povm))
        assert counters["quantum_core.born_evals"] == 3 * 2  # one per (branch, outcome)
