"""The batched kernels against their scalar calls and the plain loops they replace.

The batched paths promise the scalar results bit for bit, and the scalar
polynomial paths the results of the term loop in ``oracles.py``: those
comparisons are exact (``np.array_equal``). The link projection takes its
steps in closed form, so it meets its SVD reference in ``oracles.py`` to
rounding, with every convergence flag and error class exact.
"""

from collections import Counter

import numpy as np
import pytest

import linkfold as lf
from linkfold import geometry, polynomial
from linkfold.errors import NonConvergence, RankDeficient
from linkfold.geometry import _project_rows, link_residual
from linkfold.polynomial import _VECTOR_MIN_ROWS, gradient, hessian, wirtinger_partial

from conftest import build_a1
from oracles import (
    eval_poly_loop,
    link_residual_jacobian,
    project_to_link_point,
    sample_link_points_serial,
)

BRIESKORN = "z1^2 + z2^3 + z3^5"
# second partials with several terms each, sharing powers of z1, z2 and z3
MIXED = "(0.3+0.7i)*z1^3*z2 - 2*z2^4 + 1.5i*z1*z3^2 + z3^7"
# three terms in four Hessian entries: a sum of two terms does not depend
# on their order, a sum of three does
QUARTIC = "z1^4 + 0.5i*z1^3*z2 - z1^2*z2^2 + (0.2+0.9i)*z1*z2^3 + z2^4 + z3^3"


def _poly_cases():
    cases = [(f"a1_n{n}", build_a1(n)[0].f) for n in (1, 2, 3, 4)]
    cases.append(("brieskorn", lf.parse_poly(BRIESKORN, 3)))
    cases.append(("mixed", lf.parse_poly(MIXED, 3)))
    cases.append(("quartic", lf.parse_poly(QUARTIC, 3)))
    return cases


def _random_points(rng, count, m):
    z = rng.standard_normal((count, m)) + 1j * rng.standard_normal((count, m))
    z *= rng.choice([1e-3, 1.0, 3.0], size=(count, 1))
    # zero bases, including a signed one, take numpy's zero-power rule
    z[::97, 0] = 0.0
    z[1::97, -1] = complex(-0.0, -0.0)
    return z


@pytest.mark.parametrize("name, p", _poly_cases(), ids=[c[0] for c in _poly_cases()])
def test_eval_paths_match_term_loop(name, p):
    rng = np.random.default_rng(11)
    z = _random_points(rng, 2000, p.n_vars)
    firsts = [wirtinger_partial(p, j) for j in range(1, p.n_vars + 1)]
    seconds = [wirtinger_partial(q, k) for q in firsts for k in range(1, p.n_vars + 1)]
    for q in [p, *firsts, *seconds]:
        expected = np.array([eval_poly_loop(q, row) for row in z])
        assert np.array_equal(lf.eval_poly(q, z), expected), str(q)
        scalar = np.array([lf.eval_poly(q, row) for row in z])
        assert np.array_equal(scalar, expected), str(q)
    grads = gradient(p, z)
    assert grads.shape == z.shape
    assert np.array_equal(grads, np.array([gradient(p, row) for row in z]))
    assert np.array_equal(lf.conj_gradient(p, z), np.conj(grads))
    hess = hessian(p, z[:200])
    assert hess.shape == (200, p.n_vars, p.n_vars)
    assert np.array_equal(hess, np.array([hessian(p, row) for row in z[:200]]))
    # stacks on both sides of the row count where the vectorised path starts
    m = p.n_vars
    for size in (0, 1, 2, _VECTOR_MIN_ROWS - 1, _VECTOR_MIN_ROWS):
        stack = z[:size]
        for value, polys, shape in (
            (lf.eval_poly(p, stack), [p], (size,)),
            (gradient(p, stack), firsts, (size, m)),
            (hessian(p, stack), seconds, (size, m, m)),
        ):
            loop = [[eval_poly_loop(q, row) for q in polys] for row in stack]
            assert value.shape == shape
            assert np.array_equal(value, np.array(loop, dtype=complex).reshape(shape))


def test_hessian_of_nonfinite_rows_is_nonfinite_without_warning():
    # the suite turns warnings into errors, so a warning fails this test
    p = lf.parse_poly(MIXED, 3)
    z = _random_points(np.random.default_rng(5), _VECTOR_MIN_ROWS + 8, 3)
    z[3] = [np.inf, 1.0, 0.5j]
    z[4] = [0.2, np.nan, 1.0]
    z[5] = [1e200, 1e200, 1e200]
    for size in (6, len(z)):
        stack = z[:size]
        value, grad, hess = lf.eval_poly(p, stack), gradient(p, stack), hessian(p, stack)
        firsts = p.partials()
        partials = np.stack([lf.eval_poly(dp, stack) for dp in firsts], axis=-1)
        assert np.array_equal(grad, partials, equal_nan=True)
        partials = np.stack([gradient(dp, stack) for dp in firsts], axis=-2)
        assert np.array_equal(hess, partials, equal_nan=True)
        for call, out in ((lf.eval_poly, value), (gradient, grad), (hessian, hess)):
            rows = out.reshape(size, -1)
            assert np.isfinite(rows[:3]).all()
            assert not np.isfinite(rows[3:6]).all(axis=1).any()
            for k in (3, 4, 5):
                assert np.array_equal(call(p, z[k]), out[k], equal_nan=True)


@pytest.mark.parametrize(
    "text, orders",
    [
        ("z1^2 + z2^2 + z3^2", (2,)),
        ("z1 + 0.5i*z2", (1, 2)),
        ("(0.3+0.7i)*z1 - 2*z3 + 1.5i", (1, 2)),
    ],
    ids=["a1", "linear", "affine"],
)
def test_constant_partials_match_term_loop(text, orders):
    # partials of an order at least the degree are constants, summed once;
    # the suite turns warnings into errors, so a warning fails this test
    p = lf.parse_poly(text, 3)
    z = _random_points(np.random.default_rng(3), _VECTOR_MIN_ROWS + 1, 3)
    z[1] = [np.inf, 1.0, 0.5j]
    z[2] = [0.2, np.nan, 1.0]
    z[3] = [1e200, 1e200, 1e200]
    for order in orders:
        evaluate = (gradient, hessian)[order - 1]
        polys = [p]
        for _ in range(order):
            polys = [wirtinger_partial(q, k) for q in polys for k in (1, 2, 3)]
        shape = (3,) * order
        for size in (0, 1, 2, _VECTOR_MIN_ROWS - 1, _VECTOR_MIN_ROWS, _VECTOR_MIN_ROWS + 1):
            stack = z[:size]
            loop = np.array([[eval_poly_loop(q, row) for q in polys] for row in stack],
                            dtype=complex).reshape((size,) + shape)
            out = evaluate(p, stack)
            assert np.array_equal(out, loop)
            # a fresh array: writing into it leaves the next call's result alone
            out[...] = 7.0
            assert np.array_equal(evaluate(p, stack), loop)
        # one point at a time, the rows of the largest stack
        for row, expected in zip(z[:4], loop):
            out = evaluate(p, row)
            assert np.array_equal(out, expected)
            out[...] = 7.0
            assert np.array_equal(evaluate(p, row), expected)


def test_each_power_is_taken_once_per_call(monkeypatch):
    # a call takes one power per row of its arguments: count the rows, so
    # that grouping powers of one exponent into one call counts each power
    p = lf.parse_poly(QUARTIC, 3)
    z = _random_points(np.random.default_rng(5), _VECTOR_MIN_ROWS + 8, 3)
    taken = Counter()
    power_rows = polynomial._power_rows

    def counting(xr, xi, e):
        taken[e] += len(xr)
        return power_rows(xr, xi, e)

    monkeypatch.setattr(polynomial, "_power_rows", counting)
    polys = [p]
    for evaluate in (lf.eval_poly, gradient, hessian):
        distinct = {(j, e) for q in polys for exps in q.terms for j, e in enumerate(exps) if e}
        taken.clear()
        evaluate(p, z)
        assert taken == Counter(e for _, e in distinct)
        polys = [wirtinger_partial(q, k) for q in polys for k in (1, 2, 3)]


def test_eval_rejects_other_shapes():
    p = lf.parse_poly("z1 + z2", 2)
    for bad in (np.zeros(3), np.zeros((4, 3)), np.zeros((2, 2, 2)), np.zeros(())):
        with pytest.raises(ValueError):
            lf.eval_poly(p, bad)


def _scalar_projection(z, spec, **kwargs):
    """The reference projection's point, or the class of the error it raises."""
    try:
        return project_to_link_point(z, spec, **kwargs)
    except (NonConvergence, RankDeficient) as exc:
        return type(exc)


def _assert_within_reference_rounding(points, starts, expected, spec, **kwargs):
    """Each point is the SVD reference's point ``expected`` from its start, to rounding.

    A point more than 1e-14 from the reference's must lie within ten times
    as far as the reference's own point moves when its start moves by about
    an ulp: there the map from start to link point amplifies rounding, and
    the two steps, which round apart, may end at different link points.
    """
    rng = np.random.default_rng(0)
    for z, point, reference in zip(starts, points, expected):
        gap = np.max(np.abs(point - reference))
        if gap <= 1e-14:
            continue
        spread = max(
            np.max(np.abs(project_to_link_point(nudged, spec, **kwargs) - reference))
            for nudged in z * (1.0 + 2.2e-16 * rng.standard_normal((8, len(z))))
        )
        assert gap <= 10.0 * spread, (z, gap, spread)


@pytest.mark.parametrize("f_text", [None, BRIESKORN], ids=["a1", "brieskorn"])
@pytest.mark.parametrize("max_iter", [50, 8])
def test_projection_rows_match_scalar_calls(f_text, max_iter, monkeypatch):
    # the iteration budget is the module's constant
    monkeypatch.setattr(geometry, "_PROJECT_MAX_ITER", max_iter)
    spec = build_a1(2)[0]
    if f_text is not None:
        spec = lf.LinkSpec(f=lf.parse_poly(f_text, 3), n=2)
    rng = np.random.default_rng(7)
    z0 = rng.standard_normal((300, 3)) + 1j * rng.standard_normal((300, 3))
    z0 *= rng.choice([0.05, 1.0, 4.0], size=(300, 1))
    z0[5] = 0.0  # rank deficient
    z0[6] = [np.nan, 0.0, 0.0]
    z0[7] = [1e200, 1e200, 0.0]
    points, converged, sigma = _project_rows(z0, spec)
    expected = [_scalar_projection(z, spec, max_iter=max_iter) for z in z0]
    failed = [isinstance(e, type) for e in expected]
    assert converged.tolist() == [not f for f in failed]
    assert 0 < converged.sum() <= len(z0) - 3
    assert (sigma < 1e-10).tolist() == [e is RankDeficient for e in expected]
    assert expected[5:8] == [RankDeficient, NonConvergence, NonConvergence]
    # converged A1 rows lie within 3.6e-14 of the reference. Four Brieskorn
    # rows at max_iter = 50 (starts 0.05 and 4 epsilon out) end 6e-9 to 3e-7
    # from it, on the link on both sides; the reference itself moves up to
    # 6e-5 there when its start moves by an ulp
    _assert_within_reference_rounding(
        points[converged],
        z0[converged],
        [e for e, f in zip(expected, failed) if not f],
        spec,
        max_iter=max_iter,
    )
    for k, point in enumerate(points):
        # the public call on one point: the stacked row, or the reference's error
        if failed[k]:
            with pytest.raises(expected[k]):
                lf.project_to_link(z0[k], spec)
        else:
            single = lf.project_to_link(z0[k], spec)
            assert np.array_equal(single, point)
    # the public call on a stack: NaN rows where the single call raises
    stacked = lf.project_to_link(z0, spec)
    nan_row = np.full(3, np.nan, dtype=complex)
    assert np.array_equal(
        stacked, np.where(converged[:, None], points, nan_row), equal_nan=True
    )
    # charts of a stack of link points, with a zero step and steps of up
    # to the largest radius
    base = points[converged][:40]
    frame = lf.tangent_frame(base, spec)
    u = rng.standard_normal((len(base), 3))
    u *= (rng.uniform(0.0, 0.1, len(base)) / np.linalg.norm(u, axis=1))[:, None]
    u[0] = 0.0
    u[1] *= 0.0999 / np.linalg.norm(u[1])
    moved = lf.chart(base, frame, u, spec)
    assert np.array_equal(moved[0], base[0])
    for k, row in enumerate(moved):
        one_frame = lf.tangent_frame(base[k], spec)
        try:
            expected_row = lf.chart(base[k], one_frame, u[k], spec)
        except (NonConvergence, RankDeficient):
            expected_row = nan_row
        assert np.array_equal(row, expected_row, equal_nan=True)
    u[2] *= 1.01 * 0.1 / np.linalg.norm(u[2])
    with pytest.raises(ValueError, match="exceeds radius"):
        lf.chart(base, frame, u, spec)


def _serial_draws(spec, count, rng):
    """Serial draws through the public one-point ``project_to_link``, and their starts."""
    starts = []

    def project(z, spec):
        point = lf.project_to_link(z, spec)
        starts.append(z)
        return point

    return sample_link_points_serial(spec, count, rng, project), starts


def _assert_draws_near_reference(points, starts, spec):
    expected = [project_to_link_point(z, spec) for z in starts]
    _assert_within_reference_rounding(points, starts, expected, spec)


@pytest.mark.parametrize("seed", [42, 3])
@pytest.mark.parametrize("count", [100, 1500])
def test_sample_link_points_matches_serial_draws(seed, count):
    spec = build_a1(2)[0]
    rng, rng_serial = np.random.default_rng(seed), np.random.default_rng(seed)
    points = lf.sample_link_points(spec, count, rng)
    expected, starts = _serial_draws(spec, count, rng_serial)
    assert points.shape == (count, 3)
    assert np.array_equal(points, expected)
    assert rng.standard_normal() == rng_serial.standard_normal()
    _assert_draws_near_reference(points, starts, spec)


def test_sample_link_points_redraws_failures_like_serial_draws():
    # on this link a few projections from random draws fail and are redrawn
    spec = lf.LinkSpec(f=lf.parse_poly("z1^2 + z2^7 + z3^11", 3), n=2)
    rng, rng_serial = np.random.default_rng(4), np.random.default_rng(4)
    points = lf.sample_link_points(spec, 400, rng)
    expected, starts = _serial_draws(spec, 400, rng_serial)
    assert np.array_equal(points, expected)
    next_draw = rng.standard_normal()
    assert next_draw == rng_serial.standard_normal()
    # the SVD reference fails on the same draws
    reference = np.random.default_rng(4)
    sample_link_points_serial(spec, 400, reference)
    assert next_draw == reference.standard_normal()
    _assert_draws_near_reference(points, starts, spec)
    no_redraws = np.random.default_rng(4)
    no_redraws.standard_normal((400, 6))
    assert next_draw != no_redraws.standard_normal()


def test_nonfinite_projection_fails_by_name(a1_n2):
    spec, _ = a1_n2
    for z0 in ([np.nan, 0.0, 0.0], [1e200, 1e200, 0.0]):
        value = lf.eval_poly(spec.f, z0)
        assert not np.isfinite(value)
        assert not np.all(np.isfinite(lf.eval_poly(spec.f, np.array([z0]))))
        with pytest.raises(NonConvergence):
            lf.project_to_link(np.array(z0, dtype=complex), spec)
    stack = np.array([[np.nan, 0, 0], [1.0, 0.2, 1j], [1e200, 1e200, 0]], dtype=complex)
    points, converged, _ = _project_rows(stack, spec)
    assert converged.tolist() == [False, True, False]
    assert np.array_equal(points[1], lf.project_to_link(stack[1], spec))


def _svd_step(z, spec):
    """The SVD reference's least-norm step and Jacobian singular values at each row."""
    res = link_residual(z, spec)
    u, s, vt = np.linalg.svd(link_residual_jacobian(z, spec), full_matrices=False)
    with np.errstate(all="ignore"):  # the zero row has s = 0
        coeffs = np.matmul(np.swapaxes(u, 1, 2), -res[:, :, None]) / s[:, :, None]
        return lf.complexify(np.matmul(np.swapaxes(vt, 1, 2), coeffs)[:, :, 0]), s


def _first_steps(z, spec, monkeypatch):
    """The first projection step from each row of z, and J's least singular value there.

    A step shows as the point of the projection's second residual call; every
    row must take one.
    """
    calls = []
    monkeypatch.setattr(
        geometry, "link_residual", lambda zl, spec: calls.append(zl) or link_residual(zl, spec)
    )
    monkeypatch.setattr(geometry, "_PROJECT_MAX_ITER", 2)
    _project_rows(z, spec)
    monkeypatch.undo()
    assert calls[1].shape == z.shape
    return calls[1], _one_step_sigma(z, spec, monkeypatch)


def _one_step_sigma(z, spec, monkeypatch):
    """J's least singular value at each row of z, from a one-iteration projection."""
    monkeypatch.setattr(geometry, "_PROJECT_MAX_ITER", 1)
    sigma = _project_rows(z, spec)[2]
    monkeypatch.undo()
    return sigma


def test_step_and_sigma_match_the_svd_reference(monkeypatch):
    eps = np.finfo(float).eps
    rng = np.random.default_rng(12)
    specs = [build_a1(n)[0] for n in (1, 2, 3, 4)]
    specs.append(lf.LinkSpec(f=lf.parse_poly(BRIESKORN, 3), n=2))
    for spec in specs:
        z = rng.standard_normal((40, spec.ambient_dim))
        z = z + 1j * rng.standard_normal(z.shape)
        stepped, sigma = _first_steps(z, spec, monkeypatch)
        delta, s = _svd_step(z, spec)
        # the Gram solve's rounding error grows with the square of J's condition
        kappa = s[:, 0] / s[:, -1]
        bound = 64 * eps * kappa**2 * np.max(np.abs(delta), axis=1)
        bound += 2 * eps * np.max(np.abs(stepped), axis=1)
        assert np.all(np.max(np.abs(stepped - (z + delta)), axis=1) <= bound)
        assert np.all(np.abs(sigma - s[:, -1]) <= 8 * eps * s[:, 0])
        # each row of a stack is its one-row call, to convergence
        points, converged, sigma = _project_rows(z, spec)
        for k in range(len(z)):
            one = _project_rows(z[k : k + 1], spec)
            assert np.array_equal(one[0][0], points[k]) and one[1][0] == converged[k]
            assert np.array_equal(one[2][0], sigma[k], equal_nan=True)
    # A1 rows 1e-2 ... 1e-14 off z parallel to conj(grad f), where J loses
    # rank, and the zero row; s t - |c|^2 cancels here, and gives 2e-8 at
    # 1e-12 off and 0 at 1e-10 off
    spec = build_a1(3)[0]
    x = rng.standard_normal(4)
    x /= np.linalg.norm(x)
    y = rng.standard_normal(4)
    y -= (y @ x) * x
    y /= np.linalg.norm(y)
    offsets = 10.0 ** -np.arange(2, 15)
    z = np.exp(0.7j) * (x + 1j * offsets[:, None] * y)
    z = np.vstack([z, np.zeros(4)])
    sigma = _one_step_sigma(z, spec, monkeypatch)
    _, s = _svd_step(z, spec)
    expected = s[:, -1]
    assert np.all(np.abs(sigma - expected) <= 8 * eps * s[:, 0])
    above = expected > 1e-13
    assert above[:-2].all() and not above[-2:].any()
    np.testing.assert_allclose(sigma[above], expected[above], rtol=1e-2)
    away = (expected < 1e-11) | (expected > 1e-9)
    assert np.array_equal((sigma < 1e-10)[away], (expected < 1e-10)[away])
    assert sigma[-1] == 0.0


def test_projection_takes_no_svd(a1_n2, monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    spec, _ = a1_n2
    points = lf.sample_link_points(spec, 200, np.random.default_rng(1))
    assert np.all(np.abs(lf.eval_poly(spec.f, points)) <= 1e-12)
    point = lf.project_to_link(np.array([1.0, 0.3j, 0.2 - 0.1j]), spec)
    assert np.linalg.norm(lf.link_residual(point, spec)) <= 1e-12
    with pytest.raises(RankDeficient):
        lf.project_to_link(np.zeros(3, dtype=complex), spec)


def test_singularity_tests_accept_stacks(a1_n2, perturbed_n2):
    for spec, g in (a1_n2, perturbed_n2):
        z = lf.sample_link_points(spec, 300, np.random.default_rng(8))
        defects = lf.criterion_rank_defect(z, spec.f, g)
        expected = [lf.criterion_rank_defect(p, spec.f, g) for p in z]
        assert np.array_equal(defects, expected)
        direct = lf.direct_singularity_test(z, spec, g)
        expected = [lf.direct_singularity_test(p, spec, g) for p in z]
        assert np.array_equal(direct, expected)
    # an empty stack, as from a run configured with no oracle samples
    empty = np.zeros((0, 3), dtype=complex)
    assert lf.criterion_rank_defect(empty, spec.f, g).shape == (0,)
    assert lf.direct_singularity_test(empty, spec, g).shape == (0,)


def test_equivariance_error_matches_pointwise_loop(a1_n3):
    spec, g = a1_n3
    rng = np.random.default_rng(4)
    points = sample_link_points_serial(spec, 300, rng, lf.project_to_link)
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=300))
    expected = max(
        abs(lf.eval_poly(g, alpha * z) - alpha * lf.eval_poly(g, z))
        for z, alpha in zip(points, phases)
    )
    assert lf.equivariance_error(spec, g, points, phases) == expected


def test_trace_image_and_defects_are_pointwise(a1_n2, traces_n2):
    spec, g = a1_n2
    for trace in traces_n2:
        values = [lf.eval_poly(g, z) for z in trace.points]
        assert np.array_equal(trace.image, [[v.real, v.imag] for v in values])
        defects = [lf.criterion_rank_defect(z, spec.f, g) for z in trace.points]
        assert np.array_equal(trace.defects, defects)
