"""The names the benchmark harness in perfbench/ calls or wraps still exist.

perfbench/ drives linkfold from outside the package and is not changed with
it, so a rename inside linkfold would only show when the benchmark runs.
This test loads the harness's tracing table (stdlib only) by path and checks
every name in it against the package.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

import linkfold
from linkfold import morse
from linkfold.report import RunConfig
from linkfold.singular_set import AugmentedSystem

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist(tracing):
    for layer, names in tracing.TRACED.items():
        module = getattr(linkfold, layer)
        for name in names:
            assert callable(getattr(module, name, None)), f"linkfold.{layer}.{name}"


def test_traced_augmented_methods_exist(tracing):
    for method in tracing.AUGMENTED_METHODS:
        assert callable(getattr(AugmentedSystem, method, None)), method


def test_workload_keywords_still_bind():
    # perfbench/workloads.py reads config.hessian_step and passes it on
    assert hasattr(RunConfig(), "hessian_step")
    for func in (morse.slice_morse_index, morse.composed_morse):
        inspect.signature(func).bind_partial(hessian_step=None, dead_band=1e-5)
