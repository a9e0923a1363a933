"""Every example in an nsopt docstring runs and prints what it shows."""

import doctest
import importlib
import pkgutil

import pytest

import nsopt

MODULES = sorted(m.name for m in pkgutil.iter_modules(nsopt.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(f"nsopt.{name}"))
    assert result.failed == 0
    if name == "algebra":
        # the module that documents by example must keep its examples
        assert result.attempted > 0
