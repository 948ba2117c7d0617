"""Integrity of the public API: each module's __all__, the names the
package imports, the layers its modules import each other in and the one
gate through which numbers from outside become floats. There is no linter
in this project; these checks stand in for one."""

import ast
import collections
import importlib
import inspect
import math
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fracdyn
from conftest import CHILD_ENV
from fracdyn import maxbloch, numkit, registry, solver, stability, systems

# the command line front end exports `main` and `run` (the `fracdyn` script), no __all__
MODULES = [f"fracdyn.{info.name}" for info in pkgutil.iter_modules(fracdyn.__path__)
           if info.name != "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_lazy_export_table_matches_the_modules():
    # the package's table of exports is kept by hand: each name it lists is
    # exported by its module, and each module it lists is one of the package
    for module, names in fracdyn._EXPORTS.items():
        missing = set(names) - set(importlib.import_module(f"fracdyn.{module}").__all__)
        assert missing == set(), module
    package = {info.name for info in pkgutil.iter_modules(fracdyn.__path__)}
    assert set(fracdyn._EXPORTS) | set(fracdyn._MODULES) <= package


@pytest.mark.parametrize("name", MODULES)
def test_public_definitions_are_listed(name):
    # every public function or class defined here is in __all__
    module = importlib.import_module(name)
    unlisted = [attr for attr, obj in vars(module).items()
                if (inspect.isfunction(obj) or inspect.isclass(obj))
                and obj.__module__ == name and not attr.startswith("_")
                and attr not in module.__all__]
    assert unlisted == []


def test_package_imports_exist():
    # every exported name resolves to the object of the module that defines it
    assert len(set(fracdyn.__all__)) == len(fracdyn.__all__)
    for name in fracdyn.__all__:
        value = getattr(fracdyn, name)
        if inspect.ismodule(value):
            assert value is importlib.import_module(f"fracdyn.{name}")
            continue
        source = importlib.import_module(f"fracdyn.{fracdyn._HOME[name]}")
        assert value is getattr(source, name), f"{source.__name__}.{name}"
        assert value.__module__ == source.__name__, f"{name} is defined elsewhere"
    assert set(fracdyn.__all__) <= set(dir(fracdyn))
    namespace = {}
    exec("from fracdyn import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(fracdyn.__all__)
    with pytest.raises(AttributeError):
        fracdyn.no_such_name


def loaded_after(statements):
    """The fracdyn modules a fresh interpreter has loaded after `statements`."""
    script = (f"import contextlib, io, sys\n{statements}\n"
              "print(' '.join(sorted(m for m in sys.modules if m.startswith('fracdyn.'))))")
    proc = subprocess.run([sys.executable, "-c", script], env=CHILD_ENV, capture_output=True,
                          text=True, check=True)
    return {name.partition(".")[2] for name in proc.stdout.split()}


def test_package_import_loads_no_module():
    assert loaded_after("import fracdyn; from fracdyn import __version__") == set()


GAINS = ["--gains", "1.2", "1.2", "0.5", "0.5", "0"]


# each command loads the modules it runs, and none of these
@pytest.mark.parametrize("argv, unloaded", [
    (["gains-check", *GAINS, "--e1", "0.5", "0", "--alpha", "0.65"],
     {"solver", "artifacts", "svgplot", "expconfig"}),
    (["stability", "maxwell-bloch-5d", "--alpha", "0.65", "--e2", "-0.125", *GAINS],
     {"solver", "artifacts", "svgplot", "expconfig"}),
    (["convergence", "--alpha", "0.65", "--h-list", "0.1", "0.05", "0.025"],
     {"artifacts", "svgplot", "expconfig", "stability"}),
], ids=["gains-check", "stability", "convergence"])
def test_commands_load_only_what_they_run(argv, unloaded):
    loaded = loaded_after("from fracdyn.cli import main\n"
                          "with contextlib.redirect_stdout(io.StringIO()):\n"
                          f"    assert main({argv!r}) == 0")
    assert "cli" in loaded and not loaded & unloaded, sorted(loaded & unloaded)


@pytest.mark.parametrize("path", sorted(Path(fracdyn.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_module_reads_the_environment(path):
    # identical inputs give identical bytes: no hidden input through os.environ
    hidden = {"environ", "environb", "getenv", "getenvb"}
    tree = ast.parse(path.read_text(encoding="utf-8"))
    reads = [node.lineno for node in ast.walk(tree)
             if (isinstance(node, ast.Attribute) and node.attr in hidden
                 and isinstance(node.value, ast.Name) and node.value.id == "os")
             or (isinstance(node, ast.ImportFrom) and node.module == "os"
                 and hidden & {alias.name for alias in node.names})]
    assert reads == []


def _overflow_guards(tree):
    """The innermost function around each `except` that names OverflowError
    (or its base ArithmeticError); None for one outside any function."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    guards = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None and any(
                isinstance(name, ast.Name) and name.id in {"OverflowError", "ArithmeticError"}
                for name in ast.walk(node.type)):
            while node in parents and not isinstance(node, ast.FunctionDef):
                node = parents[node]
            guards.append(getattr(node, "name", None))
    return guards


def test_one_gate_turns_numbers_from_outside_into_floats():
    # `numkit.as_floats` is the only conversion that may meet an int or
    # Fraction beyond the float range; the other guards catch arithmetic
    # past it (the Mittag-Leffler series and the float `**` of e2)
    gates, guards = [], []
    for path in sorted(Path(fracdyn.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        gates += [path.stem for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == "as_floats"]
        guards += [(path.stem, name) for name in _overflow_guards(tree)]
    assert gates == ["numkit"]
    assert sorted(guards) == [("numkit", "_ml_series"), ("numkit", "as_floats"),
                              ("stability", "e2_gain_condition")]


def test_three_exception_classes():
    # cli.main maps exceptions by type alone: a ValueError exits 2 and a
    # NumericalError 3, so it covers every class here; a new one changes this
    # test on purpose
    defined, nested = {}, []
    for path in sorted(Path(fracdyn.__file__).parent.glob("*.py")):
        name = "fracdyn" if path.stem == "__init__" else f"fracdyn.{path.stem}"
        module = importlib.import_module(name)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top = {node for node in tree.body if isinstance(node, ast.ClassDef)}
        nested += [node.name for node in ast.walk(tree)
                   if isinstance(node, ast.ClassDef) and node not in top]
        for node in top:
            cls = getattr(module, node.name)
            if issubclass(cls, BaseException):
                defined[cls.__name__] = (path.stem, cls.__bases__)
    assert nested == []  # a class inside a function would escape this check
    assert defined == {"ConfigError": ("expconfig", (ValueError,)),
                       "DomainError": ("numkit", (ValueError,)),
                       "NumericalError": ("solver", (RuntimeError,))}


def _linear_decay_study(alpha, h, tau, x0, t_min):
    # an oracle that stops at t = 1 refuses a long horizon before any run
    exact = registry.oracle_for(registry.LINEAR_DECAY, 0.5, [1.0])
    oracle = lambda t: exact(t) if t <= 1.0 else math.nan
    return solver.convergence_order(registry.build_system(registry.LINEAR_DECAY), alpha,
                                    oracle, [h], tau, [x0], t_min)


def _rendered(alpha):
    rep = stability.e1_gain_condition((1, 1, 0.5, 0.5, 0), 0.5, 0)
    return rep.to_text(alpha), rep.to_kv(alpha)


# every public entry point that takes numbers, with the numbers of one valid call
NUMERIC_ENTRY_POINTS = {
    "as_floats": (lambda x: numkit.as_floats(x, "bad"), (1.0,)),
    "mittag_leffler": (numkit.mittag_leffler, (0.5, -1.0)),
    "eigenvalues": (lambda a: numkit.eigenvalues([[a]]), (-1.0,)),
    "poly_roots": (lambda *c: numkit.poly_roots(c), (1.0, 1.0)),
    "geometric_multiplicity": (
        lambda a, lam: numkit.geometric_multiplicity([[a, 0.0], [0.0, 1.0]], lam), (1.0, 1.0)),
    "validate_alpha": (systems.validate_alpha, (0.5,)),
    "as_state": (lambda *x: systems.as_state(x), (1.0, -2.0)),
    "as_gains": (lambda *k: systems.as_gains(k, 5), (1.0, 1.0, 0.5, 0.5, 0.0)),
    "SolverConfig": (lambda alpha, h, n, x: solver.SolverConfig(alpha, h, n, [x]),
                     (0.5, 0.1, 1, 1.0)),
    "convergence_order": (_linear_decay_study, (0.5, 0.5, 1.0, 1.0, 0.0)),
    "e1": (maxbloch.e1, (1.0, 0)),
    "e2": (maxbloch.e2, (0.5,)),
    "lipschitz_bound": (lambda *a: maxbloch.lipschitz_bound(a[:5], a[5]), (0,) * 5 + (1.0,)),
    "matignon_margins": (lambda lam, alpha: stability.matignon_margins([lam], alpha),
                         (complex(-1.0, 1.0), 0.5)),
    "CubicCoeffs": (stability.CubicCoeffs, (1.0, 0.5, 0.125)),
    "cubic_from_gains": (stability.cubic_from_gains, (0.5, 0.5, 0.0, 0.5, 0.0)),
    "e1_gain_condition": (lambda *a: stability.e1_gain_condition(a[:5], a[5], a[6]),
                          (1, 1, 0.5, 0.5, 0, 0.5, 0)),
    "gain_report": (_rendered, (0.65,)),
    "e2_gain_condition": (lambda *a: stability.e2_gain_condition(a[:5], a[5]), (1,) * 5 + (0,)),
    "oracle_for": (lambda alpha, x: registry.oracle_for(registry.LINEAR_DECAY, alpha, [x])(0.5),
                   (0.5, 1.0)),
}

# entry points whose every returned value is finite
FINITE_RESULTS = {"e1", "e2", "lipschitz_bound"}

POWER_OF_TWO = st.builds(lambda sign, e: sign * 2**e, st.sampled_from([1, -1]),
                         st.integers(0, 1100))
OUTSIDE_NUMBER = st.one_of(POWER_OF_TWO, POWER_OF_TWO.map(Fraction),
                           st.sampled_from([math.inf, -math.inf, math.nan]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(NUMERIC_ENTRY_POINTS)), st.integers(0, 6), OUTSIDE_NUMBER)
@example("mittag_leffler", 1, 10**400)
@example("mittag_leffler", 0, 10**400)
@example("eigenvalues", 0, 10**400)
@example("poly_roots", 0, 10**400)
@example("geometric_multiplicity", 1, 10**400)
@example("e1", 0, 10**400)
@example("e2", 0, 10**400)
@example("lipschitz_bound", 5, 10**400)
@example("e1", 0, math.nan)
@example("e2", 0, math.inf)
@example("lipschitz_bound", 5, math.nan)
@example("lipschitz_bound", 0, 2**1023)
@example("e2_gain_condition", 0, 10**400)
@example("matignon_margins", 0, 10**400)
@example("gain_report", 0, 10**400)
@example("SolverConfig", 1, 10**400)
@example("convergence_order", 1, 10**400)
@example("convergence_order", 2, 10**400)
@example("oracle_for", 1, 10**400)
def test_numbers_from_outside_raise_only_value_errors(name, position, value):
    # a valid call with one number replaced by an int or Fraction of any
    # size, inf or nan returns or raises ValueError, never OverflowError;
    # the maxbloch points and bound it returns are finite
    call, args = NUMERIC_ENTRY_POINTS[name]
    args = list(args)
    args[position % len(args)] = value
    try:
        result = call(*args)
    except ValueError:
        return
    if name in FINITE_RESULTS:
        assert np.isfinite(result).all(), result


def _fracdyn_reads(tree):
    """(module, name) for every name the code reads from a fracdyn module:
    `from .x import name`, or `x.name` after `from . import x` or
    `import fracdyn.x [as x]`; imports inside functions count too."""
    modules, reads = {}, []  # modules: local dotted name -> fracdyn module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = ".".join(filter(None, ["fracdyn" if node.level else "", node.module]))
            for alias in node.names:
                if source == "fracdyn":
                    modules[alias.asname or alias.name] = alias.name
                elif source.startswith("fracdyn."):
                    reads.append((source.split(".")[1], alias.name))
        elif isinstance(node, ast.Import):
            modules.update((alias.asname or alias.name, alias.name.split(".")[1])
                           for alias in node.names if alias.name.startswith("fracdyn."))
    reads += [(modules[ast.unparse(node.value)], node.attr) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and ast.unparse(node.value) in modules]
    return reads


# the float format every report shares: the only private names that cross modules
SHARED_PRIVATE = {("numkit", "_fmt"), ("numkit", "_kv_join")}


@pytest.mark.parametrize("path", sorted(Path(fracdyn.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_module_reads_another_modules_private_names(path):
    reads = _fracdyn_reads(ast.parse(path.read_text(encoding="utf-8")))
    foreign = [f"{module}.{name}" for module, name in reads
               if _private(name) and module != path.stem and (module, name) not in SHARED_PRIVATE]
    assert foreign == []


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _references(node):
    """Names that `node` reads, as a variable, an attribute or an import."""
    names = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.append(sub.attr)
        elif isinstance(sub, ast.alias):
            names.append(sub.name)
    return names


def test_every_private_definition_is_referenced():
    # a module-level private function, class or constant that nothing else
    # in the package reads is dead code
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(fracdyn.__file__).parent.glob("*.py"))]
    read = collections.Counter(name for tree in trees for name in _references(tree))
    dead = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names, own = [node.name], collections.Counter(_references(node))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [sub.id for target in targets for sub in ast.walk(target)
                         if isinstance(sub, ast.Name)]
                own = collections.Counter()
            else:
                continue
            dead += [name for name in names if _private(name) and read[name] <= own[name]]
    assert dead == []


# each module may import only the modules before it; `solver` takes systems
# from its callers, so it stays free of `registry` and `maxbloch`
LAYERS = ["numkit", "systems", "solver", "maxbloch", "stability", "registry",
          "expconfig", "svgplot", "artifacts", "cli"]


def test_layers_name_every_module():
    assert sorted(LAYERS) == sorted(info.name for info in pkgutil.iter_modules(fracdyn.__path__))


@pytest.mark.parametrize("name", LAYERS)
def test_modules_import_only_earlier_layers(name):
    tree = ast.parse((Path(fracdyn.__file__).parent / f"{name}.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):  # imports inside functions count too
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):  # from . import x, from .x import y
            base = ".".join(filter(None, ["fracdyn" if node.level else "", node.module]))
            names = [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        imported.update(name.split(".")[1] for name in names if name.startswith("fracdyn."))
    assert imported <= set(LAYERS[: LAYERS.index(name)])
