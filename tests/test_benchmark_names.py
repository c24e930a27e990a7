"""The library names that the benchmark under ``layerbench/`` looks up.

Its tracer wraps every ``(layer, module, name)`` of ``spans.LAYERS``, a
module of None meaning the kernel module ``trendcomp.mvn._kernel``, and
its run record reads ``trendcomp.BACKEND``.  Deleting one of these names
would crash ``layerbench/run.py`` instead of failing a test.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import trendcomp

SPANS = Path(__file__).resolve().parents[1] / "layerbench" / "spans.py"


def _layers():
    spec = importlib.util.spec_from_file_location("layerbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.LAYERS


LAYERS = _layers()


@pytest.mark.parametrize(
    "defined_in, attr",
    [(defined_in, attr) for _, defined_in, attr in LAYERS],
    ids=[f"{defined_in or 'trendcomp.mvn._kernel'}.{attr}" for _, defined_in, attr in LAYERS],
)
def test_traced_name_exists(defined_in, attr):
    if defined_in is None:
        home = importlib.import_module("trendcomp.mvn")._kernel
    else:
        home = importlib.import_module(defined_in)
    assert callable(getattr(home, attr, None))


def test_backend_constant_exists():
    assert isinstance(trendcomp.BACKEND, str)
