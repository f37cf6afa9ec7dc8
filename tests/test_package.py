import importlib
import inspect
import pkgutil
import tomllib
from pathlib import Path

import pytest

import pitcorr


def test_version_matches_pyproject():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert pitcorr.__version__ == tomllib.load(fh)["project"]["version"]


MODULES = ("pitcorr",) + tuple(f"pitcorr.{m.name}" for m in pkgutil.iter_modules(pitcorr.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_package_namespace_holds_only_the_version():
    assert pitcorr.__all__ == ["__version__"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_function_and_class_is_defined_in_its_module(name):
    module = importlib.import_module(name)
    foreign = [
        attr for attr in getattr(module, "__all__", ())
        if (inspect.isfunction(obj := getattr(module, attr)) or inspect.isclass(obj))
        and obj.__module__ != name
    ]
    assert foreign == []
