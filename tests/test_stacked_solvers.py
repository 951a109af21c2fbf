"""The lockstep augmented-system solvers against one-row calls and serial references."""

import functools

import numpy as np
import pytest

import linkfold as lf
from linkfold.singular_set import AugmentedSystem, _hyperplane, _null_vectors, _solve_rows

from conftest import BRIESKORN_F, build_a1
from oracles import collect_components_serial, newton_least_norm_lstsq

A2_F = "z1^2 + z2^2 + z3^3"
# (n, f) of the systems the solvers are checked on; f None is A1
SYSTEMS = [(2, None), (3, None), (4, None), (2, BRIESKORN_F)]


def _spec_g(n, f_text):
    spec, g = build_a1(n)
    if f_text is not None:
        spec = lf.LinkSpec(f=lf.parse_poly(f_text, n + 1), n=n)
    return spec, g


@functools.cache
def _seeds_and_traces(n, f_text, seed):
    spec, g = _spec_g(n, f_text)
    seeds = lf.seed_singular_points(spec, g, rng_seed=seed)
    return seeds, lf.collect_components(seeds, spec, g)


def _predictions(n, f_text):
    """Predictor points off every node of the first trace, at steps of 0.005 to 0.6.

    The steps cycle from row to row, so rows converge after different
    iteration counts, and some may not converge at all.
    """
    trace = _seeds_and_traces(n, f_text, 42)[1][0]
    steps = 0.6 * 0.5 ** (np.arange(len(trace.nodes)) % 8)[:, None]
    return trace.nodes + steps * trace.tangents, trace.tangents


@pytest.mark.parametrize("n, f_text", SYSTEMS)
@pytest.mark.parametrize("rows", [7, None])
def test_stacked_corrector_rows_equal_one_row_calls(n, f_text, rows):
    # a stack of 7 rows evaluates its polynomials point by point, a whole
    # trace's (35 or more) vectorised
    spec, g = _spec_g(n, f_text)
    preds, tangents = (a[:rows] for a in _predictions(n, f_text))
    w, iters, ok = AugmentedSystem(spec, g)._correct_rows(preds, _hyperplane(tangents, preds))
    assert len(set(iters.tolist())) >= 2
    for k in range(len(preds)):
        expected = AugmentedSystem(spec, g).corrector(preds[k], _hyperplane(tangents[k], preds[k]))
        assert np.array_equal(w[k], expected[0])
        assert (iters[k], ok[k]) == expected[1:]


@pytest.mark.parametrize("n, f_text", SYSTEMS)
@pytest.mark.parametrize("rows", [7, None])
def test_stacked_newton_rows_equal_one_row_calls(n, f_text, rows):
    spec, g = _spec_g(n, f_text)
    preds = _predictions(n, f_text)[0][:rows]
    w, _, converged = AugmentedSystem(spec, g)._correct_rows(preds, None)
    assert converged.any()
    for k in range(len(preds)):
        expected = AugmentedSystem(spec, g).newton_least_norm(preds[k])
        assert np.array_equal(w[k], expected[0])
        assert converged[k] == expected[1]


@pytest.mark.parametrize("n, f_text", SYSTEMS)
def test_stacked_tangent_rows_equal_one_row_calls(n, f_text):
    # on the curve at a trace's nodes and off it at predictor points
    spec, g = _spec_g(n, f_text)
    rows = np.concatenate([_seeds_and_traces(n, f_text, 42)[1][0].nodes, _predictions(n, f_text)[0]])
    vectors, sigmas = AugmentedSystem(spec, g).tangent(rows)
    assert vectors.shape == rows.shape and sigmas.shape == (len(rows),)
    for row, vector, sigma in zip(rows, vectors, sigmas):
        expected = AugmentedSystem(spec, g).tangent(row)
        assert isinstance(expected[1], float)
        assert np.array_equal(vector, expected[0]) and sigma == expected[1]


def test_failing_rows_fail_alone(a1_n2):
    # a zero border row makes its bordered matrix singular, so the stacked
    # solve raises for the whole stack and each row is solved alone
    spec, g = a1_n2
    preds, tangents = (a[:6].copy() for a in _predictions(2, None))
    tangents[2] = 0.0
    preds[4] = np.nan
    system = AugmentedSystem(spec, g)
    bordered = np.concatenate([system.jacobian(preds), tangents[:, None]], axis=1)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(bordered, np.ones((len(preds), bordered.shape[1], 1)))
    w, iters, ok = system._correct_rows(preds, _hyperplane(tangents, preds))
    assert ok.tolist() == [True, True, False, True, False, True]
    for k in range(len(preds)):
        expected = AugmentedSystem(spec, g).corrector(preds[k], _hyperplane(tangents[k], preds[k]))
        assert np.array_equal(w[k], expected[0], equal_nan=True)
        assert (iters[k], ok[k]) == expected[1:]
    w, _, converged = system._correct_rows(preds, None)
    assert converged.tolist() == [True, True, True, True, False, True]
    for k in range(len(preds)):
        expected = AugmentedSystem(spec, g).newton_least_norm(preds[k])
        assert np.array_equal(w[k], expected[0], equal_nan=True)
        assert converged[k] == expected[1]


@pytest.mark.parametrize("n, f_text", SYSTEMS)
def test_least_norm_step_matches_lstsq(n, f_text):
    # one step of the Jacobian bordered by its unit null vector at the value 0
    spec, g = _spec_g(n, f_text)
    system = AugmentedSystem(spec, g)
    preds = _predictions(n, f_text)[0]
    rng = np.random.default_rng(n)
    rows = np.concatenate([preds, preds + 0.1 * rng.standard_normal(preds.shape)])
    jac, rhs = system.jacobian(rows), -system.residual(rows)
    # near rank loss: the last row of J moved to within 1e-7 of the first
    near = jac.copy()
    near[:, -1] = jac[:, 0] + 1e-7 * jac[:, -1]
    eps = np.finfo(float).eps
    for stack in (jac, near):
        bordered = np.concatenate([stack, _null_vectors(stack)[:, None]], axis=1)
        steps = _solve_rows(bordered, np.concatenate([rhs, np.zeros((len(rhs), 1))], axis=1))
        for j, r, step in zip(stack, rhs, steps):
            expected = np.linalg.lstsq(j, r, rcond=None)[0]
            s = np.linalg.svd(j, compute_uv=False)
            bound = 64 * eps * (s[0] / s[-1]) * np.linalg.norm(expected)
            assert np.linalg.norm(step - expected) <= bound
    assert np.max(np.linalg.svd(near, compute_uv=False)[:, 0]
                  / np.linalg.svd(near, compute_uv=False)[:, -1]) > 1e6


@pytest.mark.parametrize("n, f_text", SYSTEMS)
def test_stacked_span_coefficients(n, f_text):
    # rows equal one-point calls bit for bit and the least-squares solution
    # to rounding, on and off the singular set
    spec, g = _spec_g(n, f_text)
    system = AugmentedSystem(spec, g)
    seeds = _seeds_and_traces(n, f_text, 42)[0]
    z = np.concatenate([lf.complexify(seeds[:, :-4]),
                        lf.sample_link_points(spec, 40, np.random.default_rng(3))])
    coeffs = system.span_coefficients(z)
    assert coeffs.shape == (len(z), 2)
    for point, row in zip(z, coeffs):
        assert np.array_equal(row, system.span_coefficients(point))
        matrix = np.column_stack(system.grads(point))
        expected = np.linalg.lstsq(matrix, point, rcond=None)[0]
        cond = np.linalg.cond(matrix)
        assert np.linalg.norm(row - expected) <= 64 * np.finfo(float).eps * cond**2 * np.linalg.norm(expected)
    np.testing.assert_allclose(coeffs[: len(seeds)], lf.complexify(seeds[:, -4:]), atol=1e-12)


@pytest.mark.parametrize("n, f_text, seed", [
    (2, None, 42), (3, None, 42), (4, None, 42), (2, A2_F, 7), (2, BRIESKORN_F, 42),
])
def test_collect_components_matches_serial_reference(n, f_text, seed):
    spec, g = _spec_g(n, f_text)
    seeds, traces = _seeds_and_traces(n, f_text, seed)
    expected = collect_components_serial(seeds, spec, g)
    assert len(traces) == len(expected) >= 2
    for trace, reference in zip(traces, expected):
        assert np.array_equal(trace.nodes, reference.nodes)


def test_seeding_and_collection_call_no_lstsq(monkeypatch):
    def no_lstsq(*args, **kwargs):
        raise AssertionError("np.linalg.lstsq called")

    monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
    for n, f_text in [(2, None), (2, BRIESKORN_F)]:
        spec, g = _spec_g(n, f_text)
        seeds = lf.seed_singular_points(spec, g, rng_seed=5)
        assert len(lf.collect_components(seeds, spec, g)) == 2


def test_lockstep_newton_matches_lstsq_reference():
    # the null-bordered steps, undamped and held to 1e-12, end within
    # 1e-12 of the damped serial lstsq solver held to 1e-13
    spec, g = build_a1(3)
    system = AugmentedSystem(spec, g)
    preds = _predictions(3, None)[0][::8]
    w, _, converged = system._correct_rows(preds, None)
    for k, pred in enumerate(preds):
        expected, ok = newton_least_norm_lstsq(AugmentedSystem(spec, g), pred)
        assert converged[k] == ok
        if ok:
            np.testing.assert_allclose(w[k], expected, rtol=0, atol=1e-12)
