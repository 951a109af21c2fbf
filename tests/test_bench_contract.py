"""The names the benchmark harness in perfbench/ calls or wraps still exist.

perfbench/ drives linkfold from outside the package and is not changed with
it, so a rename inside linkfold would only show when the benchmark runs.
These tests load the harness's tracing table (stdlib only) and workloads by
path, check every name in the table against the package, and check that
each workload calls every name its traced run requires.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

import linkfold
from linkfold import morse, report, singular_set
from linkfold.report import RunConfig
from linkfold.singular_set import AugmentedSystem

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, path, mp):
    """Run ``path`` as module ``name``, in sys.modules until ``mp`` undoes it."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    mp.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    with pytest.MonkeyPatch.context() as mp:
        return _load("perfbench_tracing", _PERFBENCH / "tracing.py", mp)


@pytest.fixture(scope="module")
def workloads():
    # workloads.py imports the harness's oracles module by its plain name,
    # which the tests' own oracles.py answers outside this block
    with pytest.MonkeyPatch.context() as mp:
        _load("oracles", _PERFBENCH / "oracles.py", mp)
        return _load("perfbench_workloads", _PERFBENCH / "workloads.py", mp)


def test_traced_functions_exist(tracing):
    for layer, names in tracing.TRACED.items():
        module = getattr(linkfold, layer)
        for name in names:
            assert callable(getattr(module, name, None)), f"linkfold.{layer}.{name}"


def test_traced_augmented_methods_exist(tracing):
    for method in tracing.AUGMENTED_METHODS:
        assert callable(getattr(AugmentedSystem, method, None)), method


def test_workload_keywords_still_bind():
    # perfbench/workloads.py reads config.hessian_step and config.dead_band
    # and passes them on
    assert hasattr(RunConfig(), "hessian_step")
    assert hasattr(RunConfig(), "dead_band")
    for func in (morse.slice_morse_index, morse.composed_morse):
        inspect.signature(func).bind_partial(hessian_step=None, dead_band=1e-5)


def test_report_results_keep_their_shape(a1_n2, tmp_path, monkeypatch):
    # workloads.py unpacks four values from compute_components and
    # (report, exit code) from run_verify_a1
    spec, g = a1_n2
    monkeypatch.setattr(singular_set, "_SEED_SAMPLES", 24)
    config = RunConfig(n=2)
    result = report.compute_components(config, spec, g)
    assert len(result) == 4
    assert result[0] is spec and result[1] is g
    verified = report.run_verify_a1(RunConfig(n=1, out_dir=str(tmp_path)))
    assert isinstance(verified, tuple) and len(verified) == 2
    assert isinstance(verified[0], dict) and isinstance(verified[1], int)


def test_traced_results_keep_their_shape(a1_n2, traces_n2):
    # FAILED_IF reads corrector(...)[2] and newton_least_norm(...)[1];
    # COUNTS reads len(trace.points)
    spec, g = a1_n2
    system = AugmentedSystem(spec, g)
    trace = traces_n2[0]
    node, tangent = trace.nodes[1], trace.tangents[1]
    w_pred = node + 0.01 * tangent

    def hyperplane(w):
        return np.dot(tangent, w - w_pred), tangent

    w, iterations, converged = system.corrector(w_pred, hyperplane)
    assert isinstance(w, np.ndarray) and w.shape == node.shape
    assert isinstance(iterations, int) and isinstance(converged, bool)
    assert converged and iterations >= 1
    w, converged = system.newton_least_norm(node)
    assert isinstance(w, np.ndarray) and w.shape == node.shape
    assert isinstance(converged, bool) and converged
    assert len(trace.points) == len(trace.nodes)


def test_verify_a1_calls_every_traced_name(tracing, tmp_path, monkeypatch):
    # a traced a1_verify run reports correct: false if a required name
    # records no call, e.g. when a batched path bypasses a public function
    monkeypatch.setattr(singular_set, "_SEED_SAMPLES", 24)
    tracer = tracing.Tracer("contract")
    tracer.install()
    try:
        for n in (1, 2):
            config = RunConfig(n=n, out_dir=str(tmp_path / f"n{n}"))
            with tracer.span(f"run_verify_a1.n{n}"):
                report.run_verify_a1(config)
    finally:
        tracer.uninstall()
    # the bench's own spans for n = 3 and 4 are the only names not called
    missing = set(tracer.missing("a1_verify"))
    assert missing == {"run_verify_a1.n3", "run_verify_a1.n4"}


@pytest.mark.parametrize("workload", ["morse_sweep", "singular_trace"])
def test_workload_calls_every_traced_name(tracing, workloads, workload, tmp_path,
                                          monkeypatch):
    # as above, for the workloads that run no verify-a1 pass
    monkeypatch.setattr(singular_set, "_SEED_SAMPLES", 24)
    run_pass = workloads.WORKLOADS[workload][0]
    tracer = tracing.Tracer("contract")
    tracer.install()
    try:
        run_pass(linkfold, 42, tmp_path, span=tracer.span)
    finally:
        tracer.uninstall()
    assert tracer.missing(workload) == []
