"""API hygiene: docstrings everywhere, importable __all__, no cycles."""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys

import pytest

import repro

MODULES = [
    name
    for _finder, name, _ispkg in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    # __main__ executes the CLI on import; it is an entry point, not API.
    if not name.endswith("__main__")
]


def _public_members(module):
    for attr_name in getattr(module, "__all__", []):
        yield attr_name, getattr(module, attr_name)


class TestImportability:
    @pytest.mark.parametrize("module_name", MODULES)
    def test_module_imports(self, module_name):
        importlib.import_module(module_name)

    @pytest.mark.parametrize("module_name", MODULES)
    def test_all_entries_exist(self, module_name):
        module = importlib.import_module(module_name)
        for attr_name in getattr(module, "__all__", []):
            assert hasattr(module, attr_name), f"{module_name}.__all__ lists {attr_name}"


class TestDocstrings:
    @pytest.mark.parametrize("module_name", MODULES)
    def test_module_docstring(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and module.__doc__.strip(), module_name

    @pytest.mark.parametrize("module_name", MODULES)
    def test_public_callables_documented(self, module_name):
        module = importlib.import_module(module_name)
        undocumented = []
        for attr_name, obj in _public_members(module):
            if inspect.isfunction(obj) or inspect.isclass(obj):
                if not (obj.__doc__ and obj.__doc__.strip()):
                    undocumented.append(attr_name)
        assert not undocumented, f"{module_name}: {undocumented}"

    @pytest.mark.parametrize("module_name", MODULES)
    def test_public_methods_documented(self, module_name):
        module = importlib.import_module(module_name)
        undocumented = []
        for attr_name, obj in _public_members(module):
            if inspect.isclass(obj) and obj.__module__.startswith("repro"):
                for meth_name, meth in inspect.getmembers(obj, inspect.isfunction):
                    if meth_name.startswith("_"):
                        continue
                    if meth.__qualname__.split(".")[0] != obj.__name__:
                        continue  # inherited
                    # getdoc walks the MRO: an override of a documented
                    # base method counts as documented.
                    doc = inspect.getdoc(getattr(obj, meth_name))
                    if not (doc and doc.strip()):
                        undocumented.append(f"{attr_name}.{meth_name}")
        assert not undocumented, f"{module_name}: {undocumented}"


class TestTopLevelSurface:
    def test_top_level_all_resolves(self):
        listed = dir(repro)
        for name in repro.__all__:
            assert hasattr(repro, name)
            assert name in listed, name

    def test_unknown_top_level_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_subpackage"):
            repro.no_such_subpackage  # noqa: B018 - the access is the test

    def test_version_is_pep440ish(self):
        parts = repro.__version__.split(".")
        assert len(parts) >= 2 and all(p.isdigit() for p in parts[:2])


def _fresh_interpreter(code: str) -> str:
    """Run ``code`` in a new interpreter on this checkout; its stdout."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return out.stdout.strip()


#: Entry points whose cold import must not load SciPy or networkx.
_LIGHT_ENTRY_POINTS = ["repro", "repro.cli", "repro.service", "repro.engine", "repro.aco.tsp"]


class TestColdStart:
    """Subpackages resolve lazily and SciPy / networkx load only at their
    call sites, so the serving, engine and colony paths never pay for them."""

    @pytest.mark.parametrize("module_name", _LIGHT_ENTRY_POINTS)
    def test_import_leaves_out_scipy_and_networkx(self, module_name):
        loaded = _fresh_interpreter(
            f"import sys, {module_name}; "
            "print(sorted(m for m in ('scipy', 'networkx') if m in sys.modules))"
        )
        assert loaded == "[]", f"{module_name} loaded {loaded}"

    def test_lazy_names_resolve_in_a_fresh_interpreter(self):
        # An unresolvable name raises AttributeError, failing the child.
        unlisted = _fresh_interpreter(
            "import repro; [getattr(repro, n) for n in repro.__all__]; "
            "print([n for n in repro.__all__ if n not in dir(repro)])"
        )
        assert unlisted == "[]"
