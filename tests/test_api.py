"""Integrity of the public API: each module's __all__, the names the
package imports and the layers its modules import each other in. There is
no linter in this project; these checks stand in for one."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import fracdyn

# the command line front end exports `main` (the `fracdyn` script), no __all__
MODULES = [f"fracdyn.{info.name}" for info in pkgutil.iter_modules(fracdyn.__path__)
           if info.name != "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


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
    tree = ast.parse(Path(fracdyn.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        source = importlib.import_module("." * node.level + (node.module or ""), "fracdyn")
        for alias in node.names:
            assert hasattr(source, alias.name), f"{source.__name__}.{alias.name}"
            assert getattr(fracdyn, alias.asname or alias.name) is getattr(source, alias.name)


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
