"""The library's public surface: what the benchmark wraps and what it exports."""

import ast
import importlib
import importlib.util
import pkgutil
import re
from collections import Counter
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


def test_readme_private_names_exist():
    # every private name the README quotes is defined in the package
    source = "\n".join(path.read_text() for path in PACKAGE.glob("*.py"))
    quoted = set(re.findall(r"`(_[A-Za-z]\w*)", (ROOT / "README.md").read_text()))
    assert quoted
    for name in sorted(quoted):
        assert re.search(rf"^\s*(def|class) {name}\b|^{name} =", source, re.M), name


@pytest.mark.parametrize("name", ["charges", "verify"])
def test_only_the_stack_builders_cross_the_fock_boundary(name):
    # the wide stack is an ordinary operator, so the checks need no private
    # product, transpose or comparison from fock; ``_CHUNK`` is the one
    # memory bound, which also sizes the word chunks of charges
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "fock"
        for alias in node.names
    }
    allowed = {"_build_stack", "_max_blocks", "_CHUNK"}
    assert imported and {x for x in imported if x.startswith("_")} <= allowed


def test_every_definition_is_named_outside_it():
    # a function, method or class that no source, test or benchmark file
    # names besides its own definition is dead code; dunders are named by
    # Python itself
    definitions = Counter(
        node.name
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    )
    folders = (PACKAGE, ROOT / "tests", ROOT / "clibench")
    text = "\n".join(path.read_text() for folder in folders for path in folder.glob("*.py"))
    named = Counter(re.findall(r"\w+", text))
    assert [name for name, count in definitions.items() if named[name] <= count] == []


def test_the_library_keeps_no_state_between_calls():
    # no memoizing decorator in the package: every call builds what it
    # answers from, so no caller sees arrays another caller has written
    banned = {"lru_cache", "cache", "cached_property"}
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                assert not banned & {alias.name for alias in node.names}, path.name
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                assert not (node.value.id == "functools" and node.attr in banned), path.name


def test_the_forbidden_triplet_rule_is_stated_once():
    # ``charges._rule_masks`` is the rule: no module tests a triplet with the
    # chained ``a != b != c`` of a scan, or defines a per-triplet predicate
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare) and len(node.ops) > 1:
                assert not any(isinstance(op, ast.NotEq) for op in node.ops), (
                    f"{path.name}:{node.lineno}"
                )
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                assert node.name != "_alternates", path.name
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                assert node.id != "_alternates", path.name


def test_every_size_limit_is_a_row_of_the_table():
    # a limit restated as a module constant, or a resource refusal raised
    # outside ``cli._check``, escapes the one table of limits
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                for name in ast.walk(node):
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                        assert not name.id.endswith("_CAP"), f"{path.name}:{node.lineno}"

    def label(node):
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            return node.targets[0].id
        return getattr(node, "name", f"line {node.lineno}")

    users = {
        label(node)
        for node in ast.parse((PACKAGE / "cli.py").read_text()).body
        if any(isinstance(n, ast.Name) and n.id == "_EXIT_RESOURCE" for n in ast.walk(node))
    }
    # besides its definition and its reason code, only the check and the
    # exception mapping of ``_run`` name the exit code
    assert users == {"_EXIT_RESOURCE", "_REASON_CODES", "_check", "_run"}


def test_readme_names_every_limit_row():
    # the README's limits paragraph gives one sentence per row of the table
    from nicolai.cli import _LIMITS

    readme = (ROOT / "README.md").read_text()
    paragraph = next(p for p in readme.split("\n\n") if "`_LIMITS`" in p)
    assert re.findall(r"\*\*([a-z ]+)\*\*", paragraph) == list(_LIMITS)
