"""The benchmark's traced run wraps ``qkdlab`` functions by name and counts
work through hooks that read their arguments (``perfbench/spans.py``), and
it checks every command's output (``perfbench/validate.py``).  The suite
does not collect ``perfbench/``, so these checks keep those names, hooks
and output fields working from here; they read the files and change nothing."""

import contextlib
import functools
import importlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from qkdlab import cli
from qkdlab.quantum_core import CqState, cq_measure, product_qubit_povm

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@functools.cache
def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_qkdlab():
    missing = []
    for qualname in _load("spans").TARGETS:
        module_name, *outer, attr = qualname.split(".")
        owner = importlib.import_module(f"qkdlab.{module_name}")
        for part in [*outer, attr]:
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(qualname)
    assert missing == []


def test_a_bare_import_of_the_cli_loads_every_traced_module():
    # Tracer.install looks each traced module up in sys.modules right after `import qkdlab.cli`,
    # so a module imported later, inside a command, would go untraced
    modules = sorted({f"qkdlab.{qualname.split('.')[0]}" for qualname in _load("spans").TARGETS})
    probe = "import json, sys; import qkdlab.cli; print(json.dumps([m for m in sys.argv[1:] if m not in sys.modules]))"
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", probe, *modules],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    ).stdout
    assert len(modules) == 6 and json.loads(out) == []


def test_born_hook_counts_a_cq_state_built_from_a_stack():
    cq = CqState.from_stack(2, ["00", "01", "11"], [0.5, 0.25, 0.25], np.stack([np.eye(2) / 2] * 3))
    povm = product_qubit_povm([0.3])
    hook = _load("spans").TARGETS["quantum_core.cq_measure"]
    for args, kwargs in (((cq, povm), {}), ((), {"cq": cq, "povm": povm})):
        counters = Counter()
        hook(counters, args, kwargs, cq_measure(cq, povm))
        assert counters["quantum_core.born_evals"] == 3 * 2  # one per (branch, outcome)


@pytest.mark.parametrize("seed", [1, 9973])
@pytest.mark.parametrize("workload", sorted(_load("workloads").WORKLOADS))
def test_benchmark_smoke_commands_pass_the_output_checks(workload, seed):
    validate = _load("validate")
    for argv in _load("workloads").WORKLOADS[workload].pass_commands(seed, 0, smoke=True):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert validate.problems(argv, code, out.getvalue(), err.getvalue()) == [], argv
