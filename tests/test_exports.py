import importlib
import pkgutil

import pytest

import fibresum

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(fibresum.__path__) if not m.name.startswith("_"))


def test_package_exports_resolve():
    # The geometry names resolve lazily, through the package's __getattr__.
    for name in fibresum.__all__:
        getattr(fibresum, name)
    assert len(set(fibresum.__all__)) == len(fibresum.__all__)


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"fibresum.{name}")
    exported = getattr(module, "__all__", ())
    for attr in exported:
        assert hasattr(module, attr), f"fibresum.{name}.{attr}"
    assert len(set(exported)) == len(exported)
