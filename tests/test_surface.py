"""The library's public surface: what the benchmark wraps and what it exports."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import nicolai

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(nicolai.__file__).resolve().parent


def _layers():
    spec = importlib.util.spec_from_file_location("clibench_layers", ROOT / "clibench" / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize("prefix,module_name,attribute", [row[:3] for row in _layers()])
def test_every_benchmark_layer_resolves(prefix, module_name, attribute):
    # a span the traced benchmark run installs must find its function
    owner = importlib.import_module(module_name)
    for part in attribute.split("."):
        owner = getattr(owner, part)
    assert callable(owner), prefix


MODULES = sorted(m.name for m in pkgutil.iter_modules([str(PACKAGE)]))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"nicolai.{name}")
    for symbol in getattr(module, "__all__", ()):
        assert hasattr(module, symbol), f"nicolai.{name}.__all__ names missing {symbol}"


def test_package_reexports_are_exported_by_their_home_modules():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        home = importlib.import_module(f"nicolai.{node.module}")
        for alias in node.names:
            assert alias.name in home.__all__, f"{alias.name} is not in nicolai.{node.module}.__all__"
            assert getattr(nicolai, alias.asname or alias.name) is getattr(home, alias.name)
