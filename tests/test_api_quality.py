"""Library-wide API hygiene checks.

Walks every module under ``repro`` and asserts the public surface is
documented and coherent: every module, public class and public function
carries a docstring, and every name exported via ``__all__`` actually
resolves.  These checks keep the "production-quality" bar enforced as the
codebase grows.
"""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys

import pytest

import repro

MODULES = sorted(
    name
    for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if not name.endswith("__main__")
)


@pytest.mark.parametrize("module_name", MODULES)
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), module_name


@pytest.mark.parametrize("module_name", MODULES)
def test_public_objects_documented(module_name):
    module = importlib.import_module(module_name)
    undocumented = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module_name:
            continue  # re-export; documented at its home
        if not (obj.__doc__ and obj.__doc__.strip()):
            undocumented.append(name)
        if inspect.isclass(obj):
            for method_name, method in vars(obj).items():
                if method_name.startswith("_"):
                    continue
                if not inspect.isfunction(method):
                    continue
                if method.__doc__ and method.__doc__.strip():
                    continue
                # An override inherits its contract's documentation.
                inherited = any(
                    getattr(getattr(base, method_name, None), "__doc__", None)
                    for base in obj.__mro__[1:]
                )
                if not inherited:
                    undocumented.append(f"{name}.{method_name}")
    assert not undocumented, (
        f"{module_name}: missing docstrings on {undocumented}"
    )


@pytest.mark.parametrize("module_name", MODULES)
def test_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", None)
    if exported is None:
        return
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module_name}: __all__ names missing: {missing}"


def test_top_level_api_surface():
    """The headline API stays importable from the package root."""
    for name in repro.__all__:
        assert hasattr(repro, name)
    assert repro.FLIT_BITS == 128
    assert repro.PACKET_FLITS == 4


def test_import_leaves_scipy_unloaded():
    """``import repro`` does not import scipy; its two users do, lazily.

    scipy.stats alone costs over a second to import, which every CLI
    call would otherwise pay.  Run in a fresh interpreter: this test
    process has imported everything already.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    code = (
        "import sys, repro; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    loaded = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True,
        capture_output=True, text=True,
    ).stdout.strip()
    assert loaded == "[]"
