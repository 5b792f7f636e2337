"""Every call the benchmark's traced repeat times still exists.

``bench/layers.py`` wraps each ``TIMED_CALLS`` entry by module and
attribute path.  A deleted or renamed target would only fail inside the
traced bench child; resolving them here fails the test suite instead.
The bench package is only read here.
"""

import importlib

import pytest

from bench.layers import TIMED_CALLS


@pytest.mark.parametrize("module_name, path",
                         [(module, path) for module, path, _, _ in TIMED_CALLS])
def test_timed_call_resolves(module_name, path):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
