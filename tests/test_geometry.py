import numpy as np
import pytest

import linkfold as lf
from linkfold.errors import DimensionCollapse, RankDeficient
from linkfold.geometry import critical_hessian, orthonormal_complement

from conftest import build_a1, definite_point
from oracles import chart_hessian, hermitian_inner, real_inner

SQRT2 = np.sqrt(2.0)


# ---------------------------------------------------------------------------
# inner products
# ---------------------------------------------------------------------------


def test_hermitian_inner_unit_point():
    q = definite_point(2)
    assert hermitian_inner(q, q) == pytest.approx(1.0)


def test_hermitian_inner_positive_definite():
    rng = np.random.default_rng(0)
    for _ in range(200):
        u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        val = hermitian_inner(u, u)
        assert abs(val.imag) < 1e-14
        assert val.real >= 0


def test_hermitian_inner_hand_expansion():
    # oracle by hand: u1*conj(v1) + u2*conj(v2) with u=(1,i), v=(i,1)
    # gives 1*(-i) + i*1 = 0
    by_hand = 1.0 * np.conj(1j) + 1j * np.conj(1.0)
    assert by_hand == 0
    assert hermitian_inner([1.0, 1j], [1j, 1.0]) == by_hand
    # and with u=(1,-i): 1*(-i) + (-i)*1 = -2i
    by_hand = 1.0 * np.conj(1j) + (-1j) * np.conj(1.0)
    assert by_hand == -2j
    assert hermitian_inner([1.0, -1j], [1j, 1.0]) == by_hand


def test_real_inner_matches_real_part_of_hermitian():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        u = rng.uniform(-10, 10, 3) + 1j * rng.uniform(-10, 10, 3)
        v = rng.uniform(-10, 10, 3) + 1j * rng.uniform(-10, 10, 3)
        assert abs(real_inner(u, v) - hermitian_inner(u, v).real) <= 1e-12


def test_real_inner_orthogonal_to_rotation_by_i():
    rng = np.random.default_rng(2)
    for _ in range(100):
        u = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        assert abs(real_inner(u, 1j * u)) <= 1e-12 * np.linalg.norm(u) ** 2


def test_real_inner_coordinate_expansion():
    # realified u = (1,0,0,1), v = (0,1,1,0): dot = 0
    assert real_inner([1.0, 1j], [1j, 1.0]) == 0.0


def test_inner_product_identity_large_sample():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(10_000):
        u = rng.uniform(-10, 10, 3) + 1j * rng.uniform(-10, 10, 3)
        v = rng.uniform(-10, 10, 3) + 1j * rng.uniform(-10, 10, 3)
        worst = max(worst, abs(real_inner(u, v) - hermitian_inner(u, v).real))
    assert worst <= 1e-12


def test_inner_dimension_mismatch():
    with pytest.raises(ValueError):
        hermitian_inner([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        real_inner([1.0], [1.0, 2.0])


# ---------------------------------------------------------------------------
# link residual and projection
# ---------------------------------------------------------------------------


def test_link_residual_at_link_point(a1_n2):
    spec, _ = a1_n2
    assert np.allclose(lf.link_residual(definite_point(2), spec), 0.0, atol=1e-15)


def test_link_residual_at_origin(a1_n2):
    spec, _ = a1_n2
    res = lf.link_residual(np.zeros(3, dtype=complex), spec)
    assert np.allclose(res, [0.0, 0.0, -spec.epsilon**2])


def test_link_residual_direct_substitution_oracle(a1_n2):
    spec, _ = a1_n2
    z = np.array([1.0, 0.0, 1j]) / SQRT2
    # oracle: f(z) = (1 + 0 - 1)/2 = 0 and |z|^2 = (1 + 0 + 1)/2 = 1
    assert np.allclose(lf.link_residual(z, spec), 0.0, atol=1e-15)


def test_project_converges_near_link(a1_n2):
    spec, _ = a1_n2
    rng = np.random.default_rng(4)
    for _ in range(20):
        noise = rng.standard_normal(6)
        noise /= np.linalg.norm(noise)
        z0 = definite_point(2) + 0.01 * lf.complexify(noise)
        z = lf.project_to_link(z0, spec, tol=1e-12, max_iter=10)
        assert np.linalg.norm(lf.link_residual(z, spec)) <= 1e-12


def test_project_rank_deficient_at_origin(a1_n2):
    spec, _ = a1_n2
    with pytest.raises(RankDeficient):
        lf.project_to_link(np.zeros(3, dtype=complex), spec)


def test_project_radial_point_against_bisection_oracle(a1_n2):
    spec, _ = a1_n2
    q = definite_point(2)
    z0 = 1.1 * q
    z = lf.project_to_link(z0, spec)
    assert np.linalg.norm(lf.link_residual(z, spec)) <= 1e-12
    assert np.linalg.norm(z - q) <= 0.11

    # bisection along the ray t * z0: the A1 cone contains the whole ray, so
    # the link point on it is where the norm hits epsilon
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if np.linalg.norm(mid * z0) ** 2 < spec.epsilon**2:
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi) * z0
    assert np.linalg.norm(oracle - q) <= 1e-10
    assert np.linalg.norm(z - oracle) <= 1e-9


def test_projection_idempotent(a1_n2):
    spec, _ = a1_n2
    rng = np.random.default_rng(5)
    for _ in range(20):
        raw = rng.standard_normal(6)
        z = lf.project_to_link(lf.complexify(raw / np.linalg.norm(raw)), spec)
        again = lf.project_to_link(z, spec)
        assert np.linalg.norm(again - z) <= 1e-11


# ---------------------------------------------------------------------------
# tangent frames
# ---------------------------------------------------------------------------


def _orthogonality_residuals(frame, spec):
    grad = lf.conj_gradient(spec.f, frame.base_point)
    out = []
    for row in frame.basis:
        v = lf.complexify(row)
        out.append(abs(real_inner(v, grad)))
        out.append(abs(real_inner(v, 1j * grad)))
        out.append(abs(real_inner(v, frame.base_point)))
    return np.array(out)


def test_tangent_frame_at_definite_point(a1_n2):
    spec, _ = a1_n2
    frame = lf.tangent_frame(definite_point(2), spec)
    assert frame.dim == 3
    gram = frame.basis @ frame.basis.T
    assert np.allclose(gram, np.eye(3), atol=1e-10)
    assert np.all(_orthogonality_residuals(frame, spec) <= 1e-10)


def test_tangent_frame_dimension_on_random_points(a1_n2, a1_n3):
    for spec, _ in (a1_n2, a1_n3):
        rng = np.random.default_rng(6)
        for z in lf.sample_link_points(spec, 100, rng):
            assert lf.tangent_frame(z, spec).dim == 2 * spec.n - 1
    # a well-conditioned point (spanning singular values 2, 2, 1) at which
    # Gram-Schmidt with an absolute cut once kept a sixth basis row
    spec, _ = a1_n3
    z = lf.sample_link_points(spec, 657, np.random.default_rng(5))[656]
    frame = lf.tangent_frame(z, spec)
    assert frame.dim == 2 * spec.n - 1
    assert np.allclose(frame.basis @ frame.basis.T, np.eye(frame.dim), atol=1e-12)
    assert np.all(_orthogonality_residuals(frame, spec) <= 1e-12)


def test_complex_kernel_contains_higher_coordinates(a1_n2):
    # gradbar f at the definite point has zero third entry, so the z3
    # coordinate plane is hermitian-orthogonal to it
    spec, _ = a1_n2
    grad = lf.conj_gradient(spec.f, definite_point(2))
    for v in (np.array([0, 0, 1.0]), np.array([0, 0, 1j])):
        assert abs(hermitian_inner(v, grad)) <= 1e-15


def test_orthonormal_complement_detects_collapse():
    spanning = [np.array([1.0, 0, 0, 0]), np.array([1.0, 1e-13, 0, 0])]
    with pytest.raises(DimensionCollapse):
        orthonormal_complement(spanning)


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------


def test_chart_identity_at_origin(a1_n2):
    spec, _ = a1_n2
    q = definite_point(2)
    frame = lf.tangent_frame(q, spec)
    out = lf.chart(q, frame, np.zeros(3), spec)
    assert np.array_equal(out, q)


def test_chart_second_order_contact(a1_n2):
    spec, _ = a1_n2
    rng = np.random.default_rng(7)
    q = lf.project_to_link(definite_point(2), spec)
    frame = lf.tangent_frame(q, spec)
    for _ in range(20):
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        def deviation(t):
            moved = q + lf.complexify(frame.basis.T @ (t * direction))
            return np.linalg.norm(lf.chart(q, frame, t * direction, spec) - moved)
        t = 1e-2
        ratio = deviation(t) / t**2
        ratio_half = deviation(t / 2) / (t / 2) ** 2
        # quadratic deviation: the t^2-normalised ratio stays bounded
        assert ratio_half <= 4.0 * ratio + 1e-6


def test_chart_stays_in_real_slice_to_first_order(a1_n2):
    # moving from the definite point along the z3-real kernel direction, the
    # imaginary part of h grows at most quadratically
    spec, g = a1_n2
    q = lf.project_to_link(definite_point(2), spec)
    frame = lf.tangent_frame(q, spec)
    ambient = np.zeros(6)
    ambient[4] = 1.0  # realified z3-real direction
    u = frame.basis @ ambient
    assert np.linalg.norm(frame.basis.T @ u - ambient) <= 1e-12
    t = 1e-3
    im_at_t = lf.eval_poly(g, lf.chart(q, frame, t * u, spec)).imag
    im_at_0 = lf.eval_poly(g, q).imag
    assert abs((im_at_t - im_at_0) / t) <= 1e-6


def test_chart_rejects_large_steps(a1_n2):
    spec, _ = a1_n2
    q = definite_point(2)
    frame = lf.tangent_frame(q, spec)
    with pytest.raises(ValueError):
        lf.chart(q, frame, np.array([1.0, 0, 0]), spec)


# ---------------------------------------------------------------------------
# analytic link Hessian
# ---------------------------------------------------------------------------


def _critical_pairs(kind, spec, g, traces):
    """(point, weight) pairs at which Re(weight * g) is critical on the link."""
    if kind == "fold":
        pairs = []
        for trace in traces:
            data = lf.local_fold_data(trace.points[len(trace) // 3], spec, g)
            nu = np.array([-data.image_dir[1], data.image_dir[0]])
            pairs.append((data.base_point, complex(nu[0], -nu[1])))
        return pairs
    if kind == "slice":
        theta = 0.7
        points = lf.slice_critical_points(lf.SliceSpec(theta), traces, spec, g)
        return [(z, np.exp(-1j * theta)) for z in points]
    angle = 1.1
    eta = np.array([np.cos(angle), np.sin(angle)])
    records = lf.composed_morse(eta, traces, spec, g)
    return [(r.point, np.exp(-1j * angle)) for r in records]


@pytest.mark.parametrize("kind", ["fold", "slice", "composed"])
@pytest.mark.parametrize("n", [2, 3])
def test_critical_hessian_matches_chart_differences(request, n, kind):
    spec, g = request.getfixturevalue(f"a1_n{n}")
    traces = request.getfixturevalue(f"traces_n{n}")
    pairs = _critical_pairs(kind, spec, g, traces)
    assert len(pairs) >= 2
    for point, weight in pairs:
        # chart(z, frame, 0) is z itself, so z must be on the link to round-off
        z = lf.project_to_link(point, spec)
        frame = lf.tangent_frame(z, spec)

        def height(u):
            return float((weight * lf.eval_poly(g, lf.chart(z, frame, u, spec))).real)

        reference = chart_hessian(height, frame.dim, 1e-4 * spec.epsilon)
        hess = critical_hessian(frame, spec, g, weight)
        err = np.linalg.norm(hess - reference)
        assert err <= 1e-6 * np.linalg.norm(reference)
