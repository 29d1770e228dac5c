"""Run the public-API doctests as part of tier-1.

The examples in the module docstrings of :mod:`repro.core.prague` and the
observability layer are executable documentation — this keeps them true.
"""

import doctest

import pytest

import repro.core.prague
import repro.datasets.scale
import repro.obs
import repro.obs.metrics
import repro.obs.srt
import repro.obs.tracer

MODULES = [
    repro.core.prague,
    repro.datasets.scale,
    repro.obs,
    repro.obs.tracer,
    repro.obs.metrics,
    repro.obs.srt,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, f"{module.__name__} has no doctests"
    assert results.failed == 0
