"""Seeded workloads of the fracdyn benchmark and the checks on their outputs.

A workload is a closed loop of ops, one caller starting the next op when
the previous one has ended. Each op is one `fracdyn.cli` command line,
run with its working directory set to the run's work directory; commands
that write artifacts write them under `out/`, which is emptied before
every op. The seed picks the command order (paper-cli) or which entries
of a committed input pool the run uses; the program itself only ever sees
the generated argv and config files.

Outputs are compared with `reference.json`, produced by
`make_reference.py` from the seed commit. Numbers are compared within a
stated tolerance (see `text_mismatch`), everything else exactly, and the
artifacts of repeated ops must be byte-identical within a run.
"""

import hashlib
import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

WORKLOADS = ("paper-cli", "long-horizon", "gain-scan", "oracle-convergence")

OUT = "out"
INPUTS = "inputs"
STDOUT = "-"  # key of the op's standard output in a reference entry

CONTROLLED = "maxwell-bloch-5d-controlled"
ALPHA = "0.65"
H = "0.01"
TARGET_E1 = ("0.4330127018922193", "0.25")
PAPER_GAINS = ("1.2", "1.2", "0.5", "0.5", "0")
E2_GAINS = ("0.25", "1.5", "0.25", "0.6666666666666666", "1")

PAPER_STEPS = 500
LONG_STEPS = 20000
SCAN_STEPS = 2000
SCAN_CONFIGS = 64
SCAN_JOBS = 2
SCAN_EPSILON = "0.01"

# Pools the seed draws from; make_reference.py commits one reference per entry.
LONG_EPSILONS = ("0.01", "0.02", "-0.01", "0.005")
ORACLE_X0 = ("1", "0.5", "2", "0.25")
SCAN_POOL_SIZE = 128
SCAN_POOL_SEED = 20180220
SCAN_GAIN_RANGE = (0.5, 2.0)

ORACLE_ARGS = ("convergence", "--alpha", ALPHA, "--h-list", "0.1", "0.05", "0.025",
               "--tau", "20", "--t-min", "0.1")

# A reported number may differ from its reference by 1e-9 of max(1, |ref|),
# or by one unit in the reference's last printed digit when that unit is
# below 1e-4 of |ref| (a rounding flip of a short fixed-precision print).
# That is loose enough for reordered floating-point sums (the project's
# refactoring gates are 1e-13 and 1e-12 relative) and far tighter than any
# real change in a trajectory. Integers therefore match exactly.
REL_TOL = 1e-9


@dataclass(frozen=True)
class Op:
    """One fracdyn.cli command: `key` names its reference entry and its
    determinism group, `argv` is what follows `python -m fracdyn.cli`."""

    key: str
    argv: tuple


@dataclass
class Workload:
    """Generated inputs of one run: input files, a cycle generator and the
    reference outputs each op key must reproduce."""

    name: str
    inputs: dict            # relative path -> file text, written before the first op
    expected: dict          # op key -> {relative path or STDOUT: reference text}
    cycles: object          # callable() -> list of Op for the next cycle
    notes: dict = field(default_factory=dict)


def load_reference(path=REFERENCE_PATH):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def config_text(gains, steps, output_dir, epsilon=SCAN_EPSILON):
    """Experiment config for the controlled model pinned at the paper's e1 target.

    Written here rather than with fracdyn's own serializer, so that a change
    to the program cannot change the benchmark's inputs.
    """
    return "\n".join([
        "[run]",
        f"system = {CONTROLLED}",
        f"alpha = {ALPHA}",
        f"h = {H}",
        f"steps = {steps}",
        "seed = 0",
        f"output_dir = {output_dir}",
        "",
        "[initial]",
        f"epsilon = {epsilon}",
        "",
        "[control]",
        "gains = " + " ".join(gains),
        "target = e1 " + " ".join(TARGET_E1),
    ]) + "\n"


def simulate_argv(steps, epsilon, gains=PAPER_GAINS):
    return ("simulate", "--system", CONTROLLED, "--alpha", ALPHA, "--h", H,
            "--steps", str(steps), "--epsilon", epsilon, "--gains", *gains,
            "--target-e1", *TARGET_E1, "--output", OUT)


def paper_ops():
    """The README's paper-scale commands, keyed by reference entry."""
    return (
        Op("simulate", simulate_argv(PAPER_STEPS, "0.01")),
        Op("simulate-config", ("simulate", "--config", f"{INPUTS}/experiment.cfg")),
        Op("stability", ("stability", "maxwell-bloch-5d", "--alpha", ALPHA, "--e2", "-0.125")),
        Op("stability-gains", ("stability", "maxwell-bloch-5d", "--alpha", ALPHA,
                               "--e2", "-0.125", "--gains", *E2_GAINS, "--format", "kv")),
        Op("gains-check-e2", ("gains-check", "--gains", *E2_GAINS, "--e2", "-0.125")),
        Op("gains-check-e1", ("gains-check", "--gains", *PAPER_GAINS, "--e1", "0.5", "0",
                              "--alpha", ALPHA)),
    )


def paper_inputs():
    return {f"{INPUTS}/experiment.cfg": config_text(PAPER_GAINS, PAPER_STEPS, OUT)}


def scan_pool(size=SCAN_POOL_SIZE, seed=SCAN_POOL_SEED):
    """Gain vectors from the positive orthant, so every point has a
    closed-form verdict at the e1 target."""
    rng = random.Random(seed)
    lo, hi = SCAN_GAIN_RANGE
    return [tuple(f"{rng.uniform(lo, hi):.3f}" for _ in range(5)) for _ in range(size)]


def scan_config_path(slot):
    return f"{INPUTS}/c{slot:02d}.cfg"


def scan_output_dir(slot):
    return f"{OUT}/c{slot:02d}"


def build(name, seed, reference):
    """The workload `name` for `seed`, with its expected outputs."""
    rng = random.Random(f"{name}:{seed}")
    refs = reference[name]
    if name == "paper-cli":
        ops = paper_ops()

        def cycle():
            order = list(ops)
            rng.shuffle(order)
            return order

        return Workload(name, paper_inputs(), {op.key: refs[op.key] for op in ops}, cycle)

    if name == "long-horizon":
        epsilon = rng.choice(LONG_EPSILONS)
        op = Op("simulate", simulate_argv(LONG_STEPS, epsilon))
        return Workload(name, {}, {op.key: refs[epsilon]}, lambda: [op],
                        {"epsilon": epsilon})

    if name == "gain-scan":
        picks = rng.sample(range(len(refs["gains"])), SCAN_CONFIGS)
        inputs, expected = {}, {}
        for slot, index in enumerate(picks):
            gains = refs["gains"][index]
            inputs[scan_config_path(slot)] = config_text(gains, SCAN_STEPS, scan_output_dir(slot))
            expected[f"{scan_output_dir(slot)}/report.kv"] = refs["report"][index]
        argv = ("sweep", *(scan_config_path(s) for s in range(SCAN_CONFIGS)),
                "--jobs", str(SCAN_JOBS))
        op = Op("sweep", argv)
        return Workload(name, inputs, {op.key: expected}, lambda: [op],
                        {"pool_indices": picks})

    if name == "oracle-convergence":
        x0 = rng.choice(ORACLE_X0)
        op = Op("convergence", ORACLE_ARGS + ("--x0", x0))
        return Workload(name, {}, {op.key: refs[x0]}, lambda: [op], {"x0": x0})

    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def scan_verdicts(gain_rows, alpha=float(ALPHA)):
    """Closed-form verdict at the e1 target for each gain vector, computed
    through fracdyn's public stability functions (imported from the tree
    under test by the caller)."""
    from fracdyn.numkit import poly_roots
    from fracdyn.stability import cubic_from_gains, matignon_classify

    m, n = (float(v) for v in TARGET_E1)
    verdicts = []
    for row in gain_rows:
        k = [float(v) for v in row]
        cubic = cubic_from_gains(k[2], k[3], k[4], m, n)
        eigs = [complex(-k[0]), complex(-k[1])] + list(poly_roots(cubic.polynomial()))
        verdicts.append(str(matignon_classify(eigs, alpha)))
    return verdicts


# Numbers as fracdyn prints them; the text between them must match exactly.
_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|\b(?:inf|nan)\b")


def _last_digit_unit(token):
    mantissa, marker, exponent = token.lower().partition("e")
    if "." not in mantissa and not marker:
        return 0.0
    decimals = len(mantissa.partition(".")[2])
    return 10.0 ** (int(exponent or 0) - decimals)


def _close(actual, expected):
    a, e = float(actual), float(expected)
    if a == e:
        return True
    unit = _last_digit_unit(expected)
    tol = max(REL_TOL * max(1.0, abs(e)), unit if unit <= 1e-4 * abs(e) else 0.0)
    return abs(a - e) <= tol


def text_mismatch(actual, expected):
    """None when `actual` matches the reference text, else a short reason."""
    if _NUMBER.split(actual) != _NUMBER.split(expected):
        return "text differs from the reference"
    for a, e in zip(_NUMBER.findall(actual), _NUMBER.findall(expected)):
        if not _close(a, e):
            return f"value {a} differs from the reference {e}"
    return None


def check_outputs(expected, stdout, workdir):
    """Problems found comparing an op's stdout and files with its reference."""
    problems = []
    for name, reference in expected.items():
        if name == STDOUT:
            actual = stdout
        else:
            path = Path(workdir) / name
            if not path.is_file():
                problems.append(f"{name}: missing")
                continue
            actual = path.read_text(encoding="utf-8")
        reason = text_mismatch(actual, reference)
        if reason:
            problems.append(f"{'stdout' if name == STDOUT else name}: {reason}")
    return problems


def artifact_digests(workdir):
    """SHA-256 of every file under out/, keyed by relative path."""
    root = Path(workdir) / OUT
    if not root.is_dir():
        return {}
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def artifact_bytes(workdir):
    root = Path(workdir) / OUT
    if not root.is_dir():
        return 0
    return sum(path.stat().st_size for path in root.rglob("*") if path.is_file())
