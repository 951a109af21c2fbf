import numpy as np
import pytest

import linkfold as lf
from linkfold.errors import EmptyResult, WrongDimension
from linkfold.singular_set import AugmentedSystem, _ratio_gradient

from conftest import build_a1, definite_point, indefinite_point
from oracles import criterion_det, gradient_pair_defect

SQRT2 = np.sqrt(2.0)


# ---------------------------------------------------------------------------
# criterion matrix and determinant
# ---------------------------------------------------------------------------


def test_criterion_matrix_at_definite_point(a1_n2):
    spec, g = a1_n2
    q = definite_point(2)
    m = lf.criterion_matrix(q, spec.f, g)
    expected = np.column_stack(
        [
            [SQRT2, 1j * SQRT2, 0.0],
            [1.0, -0.5j, 0.0],
            q,
        ]
    )
    assert np.allclose(m, expected, atol=1e-15)


def test_criterion_matrix_second_column_constant(a1_n2):
    spec, g = a1_n2
    rng = np.random.default_rng(0)
    col = None
    for _ in range(5):
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        m = lf.criterion_matrix(z, spec.f, g)
        if col is None:
            col = m[:, 1]
        assert np.array_equal(m[:, 1], col)


def test_criterion_matrix_at_basis_point(a1_n2):
    # conj-gradient oracle: gradbar f(e3) = 2 conj(e3) = (0, 0, 2)
    spec, g = a1_n2
    e3 = np.array([0.0, 0.0, 1.0], dtype=complex)
    oracle_first = 2.0 * np.conj(e3)
    m = lf.criterion_matrix(e3, spec.f, g)
    assert np.array_equal(m[:, 0], oracle_first)
    assert np.array_equal(m[:, 1], np.array([1.0, -0.5j, 0.0]))
    assert np.array_equal(m[:, 2], e3)


def test_criterion_det_zero_at_singular_point(a1_n2):
    spec, g = a1_n2
    assert abs(criterion_det(definite_point(2), spec.f, g)) <= 1e-15


def test_criterion_det_against_lapack_oracle(a1_n2):
    spec, g = a1_n2
    z = np.array([1.0, 0.0, 1j])
    det = criterion_det(z, spec.f, g)
    oracle = np.linalg.det(lf.criterion_matrix(z, spec.f, g))
    assert det == pytest.approx(2.0 + 0.0j, abs=1e-14)
    assert det == pytest.approx(oracle, abs=1e-12)


def test_criterion_det_nonzero_off_singular_set(a1_n2):
    spec, g = a1_n2
    z = np.array([0.0, 1.0, 1j]) / SQRT2
    assert abs(criterion_det(z, spec.f, g)) > 1e-2


def test_criterion_det_requires_n2(a1_n3):
    spec, g = a1_n3
    with pytest.raises(WrongDimension):
        criterion_det(np.zeros(4, dtype=complex), spec.f, g)


# ---------------------------------------------------------------------------
# rank defect and the direct differential test
# ---------------------------------------------------------------------------


def test_rank_defect_at_singular_point(a1_n2):
    spec, g = a1_n2
    assert lf.criterion_rank_defect(definite_point(2), spec.f, g) <= 1e-12


def test_rank_defect_at_regular_point_with_svd_oracle(a1_n2):
    spec, g = a1_n2
    z = np.array([0.0, 1.0, 1j]) / SQRT2
    defect = lf.criterion_rank_defect(z, spec.f, g)
    s = np.linalg.svd(lf.criterion_matrix(z, spec.f, g), compute_uv=False)
    assert defect == pytest.approx(s[2] / s[0], abs=1e-12)
    assert defect >= 1e-2


def test_rank_defect_phase_invariance(a1_n2):
    spec, g = a1_n2
    rng = np.random.default_rng(2)
    points = lf.sample_link_points(spec, 20, rng)
    points = np.vstack([points, definite_point(2), indefinite_point(2)])
    for z in points:
        base = lf.criterion_rank_defect(z, spec.f, g)
        alpha = np.exp(1j * rng.uniform(0, 2 * np.pi))
        rotated = lf.criterion_rank_defect(alpha * z, spec.f, g)
        assert abs(rotated - base) <= 1e-10


def test_direct_test_at_singular_and_regular_points(a1_n2):
    spec, g = a1_n2
    assert lf.direct_singularity_test(definite_point(2), spec, g) <= 1e-10
    z = np.array([0.0, 1.0, 1j]) / SQRT2
    sigma = lf.direct_singularity_test(z, spec, g)
    assert sigma >= 1e-2


def test_oracle_agreement_outside_margin_band(a1_n2, perturbed_n2):
    band = (1e-10, 1e-6)
    threshold = 1e-8
    for spec, g in (a1_n2, perturbed_n2):
        rng = np.random.default_rng(3)
        for z in lf.sample_link_points(spec, 400, rng):
            defect = lf.criterion_rank_defect(z, spec.f, g)
            direct = lf.direct_singularity_test(z, spec, g)
            if band[0] <= defect <= band[1] or band[0] <= direct <= band[1]:
                continue
            assert (defect <= threshold) == (direct <= threshold)


def test_det_and_defect_agree_at_n2(a1_n2, traces_n2):
    spec, g = a1_n2
    rng = np.random.default_rng(4)
    points = list(lf.sample_link_points(spec, 200, rng))
    points += [t.points[k].z for t in traces_n2 for k in (0, len(t) // 2)]
    for z in points:
        det = abs(criterion_det(z, spec.f, g))
        defect = lf.criterion_rank_defect(z, spec.f, g)
        if 1e-10 <= defect <= 1e-6:
            continue
        assert (det <= 1e-10) == (defect <= 1e-8)


# ---------------------------------------------------------------------------
# displayed 3x3 minors of the criterion matrix
# ---------------------------------------------------------------------------


def _minor(matrix, rows):
    sub = matrix[np.array(rows), :]
    return (
        sub[0, 0] * (sub[1, 1] * sub[2, 2] - sub[1, 2] * sub[2, 1])
        - sub[0, 1] * (sub[1, 0] * sub[2, 2] - sub[1, 2] * sub[2, 0])
        + sub[0, 2] * (sub[1, 0] * sub[2, 1] - sub[1, 1] * sub[2, 0])
    )


def test_minor_identity_rows_12j(a1_n3):
    spec, g = a1_n3
    rng = np.random.default_rng(5)
    for _ in range(1000):
        z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        m = lf.criterion_matrix(z, spec.f, g)
        for j in (2, 3):
            lhs = _minor(m, [0, 1, j])
            rhs = 4j * np.imag(z[1] * np.conj(z[j])) - 2.0 * np.imag(
                z[0] * np.conj(z[j])
            )
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_minor_identity_rows_13j():
    spec, g = build_a1(3)
    rng = np.random.default_rng(6)
    for _ in range(1000):
        z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        m = lf.criterion_matrix(z, spec.f, g)
        lhs = _minor(m, [0, 2, 3])
        rhs = 4j * np.imag(z[2] * np.conj(z[3]))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


# ---------------------------------------------------------------------------
# augmented system
# ---------------------------------------------------------------------------


def test_augmented_jacobian_matches_finite_differences(perturbed_n2):
    spec, g = perturbed_n2
    system = AugmentedSystem(spec, g)
    rng = np.random.default_rng(7)
    w = rng.standard_normal(10)
    jac = system.jacobian(w)
    h = 1e-6
    fd = np.empty_like(jac)
    for k in range(w.size):
        e = np.zeros(w.size)
        e[k] = h
        fd[:, k] = (system.residual(w + e) - system.residual(w - e)) / (2 * h)
    assert np.allclose(jac, fd, atol=1e-7)


def test_augmented_point_round_trip():
    pt = lf.AugmentedPoint(
        z=np.array([1.0 + 2j, -0.5j, 0.25]), a=0.5 - 1j, b=2.0 + 0.125j
    )
    again = lf.AugmentedPoint.from_vector(pt.as_vector())
    assert np.array_equal(again.z, pt.z)
    assert again.a == pt.a and again.b == pt.b


def test_augmented_span_invariant_on_seeds(a1_n2):
    spec, g = a1_n2
    seeds = lf.seed_singular_points(spec, g, n_samples=32, rng_seed=1)
    system = AugmentedSystem(spec, g)
    for seed in seeds:
        gf, gg = system.grads(seed.z)
        span_residual = np.linalg.norm(seed.z - seed.a * gf - seed.b * gg)
        assert span_residual <= 1e-10
        assert np.linalg.norm(lf.link_residual(seed.z, spec)) <= 1e-10


# ---------------------------------------------------------------------------
# seeding
# ---------------------------------------------------------------------------


def test_seeds_land_on_both_circles(a1_n2):
    spec, g = a1_n2
    seeds = lf.seed_singular_points(spec, g, n_samples=200, rng_seed=42)
    zs = np.array([s.z for s in seeds])
    plus = np.abs(zs[:, 0] - 1j * zs[:, 1]) <= 1e-8
    minus = np.abs(zs[:, 0] + 1j * zs[:, 1]) <= 1e-8
    assert np.all(plus | minus)
    assert np.any(plus) and np.any(minus)


def test_seeds_have_vanishing_higher_coordinates(a1_n3):
    spec, g = a1_n3
    seeds = lf.seed_singular_points(spec, g, n_samples=64, rng_seed=42)
    for seed in seeds:
        assert np.max(np.abs(seed.z[2:])) <= 1e-8


def test_seeding_is_deterministic(a1_n2):
    spec, g = a1_n2
    first = lf.seed_singular_points(spec, g, n_samples=48, rng_seed=9)
    second = lf.seed_singular_points(spec, g, n_samples=48, rng_seed=9)
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert np.array_equal(a.z, b.z)
        assert a.a == b.a and a.b == b.b


@pytest.mark.parametrize("cols", [2, 3])
def test_ratio_gradient_matches_svd_and_finite_differences(perturbed_n2, cols):
    # cols = 3: rank defect sigma3/sigma1; cols = 2: pair defect sigma2/sigma1
    spec, g = perturbed_n2
    system = AugmentedSystem(spec, g)
    rng = np.random.default_rng(8)
    z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    value, grad = _ratio_gradient(system, z, cols)
    s = np.linalg.svd(lf.criterion_matrix(z, spec.f, g)[:, :cols], compute_uv=False)
    assert value == pytest.approx(s[-1] / s[0], rel=1e-12)
    h = 1e-6
    fd = np.empty(6)
    for k in range(6):
        e = np.zeros(6)
        e[k] = h
        plus, _ = _ratio_gradient(system, z + lf.complexify(e), cols)
        minus, _ = _ratio_gradient(system, z - lf.complexify(e), cols)
        fd[k] = (plus - minus) / (2 * h)
    assert np.allclose(grad, fd, rtol=1e-6, atol=1e-8)


def test_seeding_empty_result():
    spec, g = build_a1(2)
    with pytest.raises(EmptyResult):
        lf.seed_singular_points(spec, g, n_samples=0, rng_seed=0)


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


def _seed_near(spec, g, z):
    system = AugmentedSystem(spec, g)
    gf, gg = system.grads(z)
    coeffs, *_ = np.linalg.lstsq(np.column_stack([gf, gg]), z, rcond=None)
    return lf.AugmentedPoint(z=z, a=complex(coeffs[0]), b=complex(coeffs[1]))


def test_trace_through_definite_point(a1_n2):
    spec, g = a1_n2
    trace = lf.trace_singular_curve(_seed_near(spec, g, definite_point(2)), spec, g)
    assert trace.closed
    zs = np.array([p.z for p in trace.points])
    assert np.max(np.abs(zs[:, 0] - 1j * zs[:, 1])) <= 1e-8
    # exact parametrization oracle: (i e^{i t}, e^{i t}, 0)/sqrt(2)
    theta = np.linspace(0, 2 * np.pi, 20000, endpoint=False)
    oracle = np.stack(
        [1j * np.exp(1j * theta), np.exp(1j * theta), np.zeros_like(theta)],
        axis=1,
    ) / SQRT2
    for z in zs:
        dist = np.min(np.linalg.norm(oracle - z, axis=1))
        assert dist <= 2e-4  # oracle grid spacing dominates
    assert abs(trace.arc_length - 2 * np.pi) <= 1e-3


def test_trace_image_is_outer_circle(a1_n2):
    spec, g = a1_n2
    trace = lf.trace_singular_curve(_seed_near(spec, g, definite_point(2)), spec, g)
    radii = np.linalg.norm(trace.image, axis=1)
    assert np.max(np.abs(radii - 3 * SQRT2 / 4)) <= 1e-8


def test_trace_image_is_inner_circle(a1_n2):
    spec, g = a1_n2
    trace = lf.trace_singular_curve(
        _seed_near(spec, g, indefinite_point(2)), spec, g
    )
    radii = np.linalg.norm(trace.image, axis=1)
    assert np.max(np.abs(radii - SQRT2 / 4)) <= 1e-8


def test_trace_nodes_satisfy_system(a1_n2):
    spec, g = a1_n2
    system = AugmentedSystem(spec, g)
    trace = lf.trace_singular_curve(_seed_near(spec, g, definite_point(2)), spec, g)
    for node in trace.nodes:
        assert np.linalg.norm(system.residual(node)) <= 1e-11
    assert np.all(trace.defects <= 1e-8)


# ---------------------------------------------------------------------------
# component collection
# ---------------------------------------------------------------------------


def test_collect_components_two_circles(traces_n2, traces_n3):
    for traces in (traces_n2, traces_n3):
        assert len(traces) == 2
        assert all(t.closed for t in traces)


def test_collect_components_empty_seed_list(a1_n2):
    spec, g = a1_n2
    assert lf.collect_components([], spec, g) == []


def test_collect_components_duplicate_seeds(a1_n2, traces_n2):
    spec, g = a1_n2
    seeds = lf.seed_singular_points(spec, g, n_samples=24, rng_seed=13)
    doubled = lf.collect_components(seeds + seeds, spec, g, step=0.05)
    assert len(doubled) == len(traces_n2) == 2
    # the two components are identified by their image radii
    radii = sorted(np.mean(np.linalg.norm(t.image, axis=1)) for t in doubled)
    assert radii == pytest.approx([SQRT2 / 4, 3 * SQRT2 / 4], abs=1e-8)


# ---------------------------------------------------------------------------
# degenerate gradient branch
# ---------------------------------------------------------------------------


def test_gradient_pair_defect_scale(a1_n2):
    spec, g = a1_n2
    # a point whose conjugate z is parallel to gradbar g lies off the cone
    z = np.conj(np.array([1.0, -0.5j, 0.0]))
    z /= np.linalg.norm(z)
    assert gradient_pair_defect(z, spec.f, g) <= 1e-12
    assert abs(lf.eval_poly(spec.f, z)) > 0.1


def test_gradient_dependence_locus_empty_on_link(a1_n2):
    spec, g = a1_n2
    scan = lf.scan_gradient_dependence(spec, g, n_samples=48, rng_seed=42)
    assert scan.points == []
    assert scan.min_defect > 1e-3
