"""README.md cites package functions and constants as `module.name`; each
citation must name something the module has."""

import importlib
import os
import re

import pytest

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
MODULES = ("data", "neural", "nn", "cli", "metrics", "baselines", "errors")
# `module.name` or `module.name(arguments)`.
CITATION = re.compile(r"`(%s)\.(\w+)[`(]" % "|".join(MODULES))


def _citations():
    with open(README) as fh:
        return sorted(set(CITATION.findall(fh.read())))


def test_the_readme_cites_the_package():
    assert len(_citations()) >= 10


@pytest.mark.parametrize("module, name", _citations(),
                         ids=[f"{module}.{name}" for module, name in _citations()])
def test_a_readme_citation_names_an_attribute(module, name):
    assert hasattr(importlib.import_module(f"ensemblekit.{module}"), name)
