"""The benchmark's reference outputs, checked once per op.

`perfbench/workloads.py` holds the benchmark's ops, inputs and output
checks, and `perfbench/reference.json` the outputs each op must give. This
runs every referenced op once, as a `python -m fracdyn.cli` process in a
fresh directory, so a change of output that the benchmark would count as
a failed op fails here first. Nothing under `perfbench/` is written.
"""

import subprocess
import sys
import types
from pathlib import Path

import pytest

from conftest import CHILD_ENV

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_workloads():
    """perfbench/workloads.py as a module, without a bytecode cache beside it."""
    path = PERFBENCH / "workloads.py"
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module  # dataclasses look their module up
    exec(compile(path.read_text(encoding="utf-8"), path, "exec"), module.__dict__)
    return module


wl = _load_workloads()
REFERENCE = wl.load_reference()
SCAN = wl.build("gain-scan", 0, REFERENCE)


def _cases():
    """(id, inputs, op, expected) for every op the reference covers."""
    paper = wl.build("paper-cli", 0, REFERENCE)
    for op in wl.paper_ops():
        yield f"paper-cli:{op.key}", paper.inputs, op, paper.expected[op.key]
    for epsilon in wl.LONG_EPSILONS:
        op = wl.Op("simulate", wl.simulate_argv(wl.LONG_STEPS, epsilon))
        yield f"long-horizon:{epsilon}", {}, op, REFERENCE["long-horizon"][epsilon]
    for x0 in wl.ORACLE_X0:
        op = wl.Op("convergence", wl.ORACLE_ARGS + ("--x0", x0))
        yield f"oracle-convergence:{x0}", {}, op, REFERENCE["oracle-convergence"][x0]
    (op,) = SCAN.cycles()
    yield "gain-scan:seed0", SCAN.inputs, op, SCAN.expected[op.key]


CASES = list(_cases())


@pytest.mark.parametrize("inputs, op, expected", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_op_reproduces_the_reference(tmp_path, inputs, op, expected):
    for rel, text in inputs.items():
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text(text, encoding="utf-8")
    env = dict(CHILD_ENV)
    env.pop("FRACDYN_SEED", None)  # the benchmark's ops run without it
    proc = subprocess.run([sys.executable, "-m", "fracdyn.cli", *op.argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert wl.check_outputs(expected, proc.stdout, tmp_path) == []


def test_scan_verdicts_match_the_reference():
    scan = REFERENCE["gain-scan"]
    picks = SCAN.notes["pool_indices"]
    assert wl.scan_verdicts([scan["gains"][i] for i in picks]) == [
        scan["verdict"][i] for i in picks]
