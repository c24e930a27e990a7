"""Every name a module exports resolves, so ``from ... import *`` works.

Deleting a function without dropping it from ``__all__`` fails here
instead of breaking the star import.
"""

import importlib

import pytest

MODULES = (
    "trendcomp",
    "trendcomp.chains",
    "trendcomp.cli",
    "trendcomp.contrasts",
    "trendcomp.ctp",
    "trendcomp.data",
    "trendcomp.model",
    "trendcomp.mvn",
    "trendcomp.simulate",
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
