import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import fibresum

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(fibresum.__path__) if not m.name.startswith("_"))


def test_package_exports_resolve():
    assert len(set(fibresum.__all__)) == len(fibresum.__all__)
    for name in fibresum.__all__:
        home = importlib.import_module(f"fibresum.{fibresum._HOMES[name]}")
        value = getattr(fibresum, name)
        assert value is vars(home)[name], name
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == home.__name__, name


def test_package_lists_every_export():
    assert set(fibresum.__all__) <= set(dir(fibresum))
    namespace = {}
    exec("from fibresum import *", namespace)
    for name in fibresum.__all__:
        assert namespace[name] is getattr(fibresum, name), name


def test_unknown_package_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        fibresum.no_such_name


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"fibresum.{name}")
    exported = getattr(module, "__all__", ())
    for attr in exported:
        assert hasattr(module, attr), f"fibresum.{name}.{attr}"
    assert len(set(exported)) == len(exported)


def _loaded_names() -> set[str]:
    """Every name or attribute read anywhere in the package source. The
    export lists hold strings, so they do not count as reads."""
    loaded = set()
    for path in Path(fibresum.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return loaded


def test_every_export_is_used_in_the_package():
    # An exported name that nothing in the package reads is a test
    # fixture or dead code; fixtures belong in tests/fixtures.py.
    exported = set(fibresum.__all__)
    for name in SUBMODULES:
        exported |= set(getattr(importlib.import_module(f"fibresum.{name}"), "__all__", ()))
    assert sorted(exported - _loaded_names()) == []
