"""The package's exports, which resolve lazily from their submodules."""

import importlib

import pytest

import freemoments


def test_every_export_is_its_submodule_attribute():
    assert len(freemoments.__all__) == len(set(freemoments.__all__)) == 69
    for name in freemoments.__all__:
        module = importlib.import_module(f"freemoments.{freemoments._SOURCE[name]}")
        assert getattr(freemoments, name) is getattr(module, name), name


def test_dir_lists_every_export():
    assert set(freemoments.__all__) <= set(dir(freemoments))
    assert "__version__" in dir(freemoments)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from freemoments import *", namespace)
    for name in freemoments.__all__:
        assert namespace[name] is getattr(freemoments, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        freemoments.no_such_name
    assert not hasattr(freemoments, "mpmath")
    with pytest.raises(ImportError):
        exec("from freemoments import no_such_name", {})


def test_submodules_read_as_attributes():
    # after a bare `import freemoments`, freemoments.rays still reads the
    # submodule, as it did when the package imported every submodule;
    # the hook is called directly since other tests imported them already
    for module in set(freemoments._SOURCE.values()):
        assert freemoments.__getattr__(module) is importlib.import_module(f"freemoments.{module}")
