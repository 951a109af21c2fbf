import numpy as np
import pytest

import linkfold as lf
from linkfold import FoldKind
from linkfold.errors import NotApplicable, RankTwo
from linkfold.fold_classify import fold_counts, min_nonadjacent_image_distance
from linkfold.singular_set import CurveTrace

from conftest import definite_point, indefinite_point

SQRT2 = np.sqrt(2.0)


# ---------------------------------------------------------------------------
# local fold data
# ---------------------------------------------------------------------------


def test_local_fold_data_at_definite_point(a1_n2):
    spec, g = a1_n2
    data = lf.local_fold_data(definite_point(2), spec, g)
    assert data.rank == 1
    assert data.kernel_basis.shape == (2, 3)
    assert data.singular_values[1] / data.singular_values[0] <= 1e-6


def test_image_direction_tangent_to_image_circle(a1_n2, traces_n2):
    # oracle: differentiate h along the traced curve through the point
    spec, g = a1_n2
    outer = max(traces_n2, key=lambda t: np.mean(np.linalg.norm(t.image, axis=1)))
    k = len(outer) // 4
    data = lf.local_fold_data(outer.points[k], spec, g)
    curve_dir = outer.image[k + 1] - outer.image[k - 1]
    curve_dir /= np.linalg.norm(curve_dir)
    assert abs(abs(np.dot(data.image_dir, curve_dir)) - 1.0) <= 1e-5


def test_image_direction_at_definite_point_is_vertical(a1_n2):
    spec, g = a1_n2
    data = lf.local_fold_data(definite_point(2), spec, g)
    assert abs(data.image_dir[0]) <= 1e-7
    assert abs(abs(data.image_dir[1]) - 1.0) <= 1e-7


def test_regular_point_raises_rank_two(a1_n2):
    spec, g = a1_n2
    z = np.array([0.0, 1.0, 1j]) / SQRT2
    with pytest.raises(RankTwo):
        lf.local_fold_data(z, spec, g)


# ---------------------------------------------------------------------------
# intrinsic Hessians
# ---------------------------------------------------------------------------


def _outward_hessian(spec, g, z):
    data = lf.local_fold_data(z, spec, g)
    nu = np.array([-data.image_dir[1], data.image_dir[0]])
    hval = lf.eval_poly(g, data.base_point)
    if np.dot([hval.real, hval.imag], nu) < 0:
        nu = -nu
    hess = lf.intrinsic_hessian(data.kernel_basis, data.frame, spec, g, nu)
    return np.linalg.eigvalsh(hess)


def test_hessian_at_definite_point_signs_and_ratio(a1_n2):
    spec, g = a1_n2
    eigs = _outward_hessian(spec, g, definite_point(2))
    assert np.all(eigs < 0)
    ratio = np.max(np.abs(eigs)) / np.min(np.abs(eigs))
    assert abs(ratio - 2.0) <= 1e-3


def test_hessian_at_indefinite_point_mixed_signs(a1_n2):
    spec, g = a1_n2
    eigs = _outward_hessian(spec, g, indefinite_point(2))
    assert np.sum(eigs < 0) == 1
    assert np.sum(eigs > 0) == 1


def test_hessian_cross_check_two_difference_schemes(perturbed_n2, perturbed_traces):
    # scheme A: the analytic link Hessian (intrinsic_hessian);
    # scheme B: central differences of the central-difference gradient
    spec, g = perturbed_n2
    trace = perturbed_traces[0]
    for k in (0, len(trace) // 2):
        point = trace.points[k]
        data = lf.local_fold_data(point, spec, g)
        nu = np.array([-data.image_dir[1], data.image_dir[0]])
        hess_a = lf.intrinsic_hessian(data.kernel_basis, data.frame, spec, g, nu)
        z = data.base_point
        frame = data.frame
        kernel = data.kernel_basis

        def psi(svec):
            val = lf.eval_poly(g, lf.chart(z, frame, kernel.T @ svec, spec))
            return nu[0] * val.real + nu[1] * val.imag

        h = 1e-4
        dim = kernel.shape[0]

        def grad(svec):
            out = np.empty(dim)
            for i in range(dim):
                e = np.zeros(dim)
                e[i] = h
                out[i] = (psi(svec + e) - psi(svec - e)) / (2 * h)
            return out

        hess_b = np.empty((dim, dim))
        for i in range(dim):
            e = np.zeros(dim)
            e[i] = h
            hess_b[:, i] = (grad(e) - grad(-e)) / (2 * h)
        hess_b = (hess_b + hess_b.T) / 2
        rel = np.linalg.norm(hess_a - hess_b) / np.linalg.norm(hess_a)
        assert rel <= 1e-4


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_classify_definite_point(a1_n2):
    spec, g = a1_n2
    record = lf.classify_fold(definite_point(2), spec, g)
    assert record.kind == FoldKind.DEFINITE
    assert record.absolute_index == 0
    assert record.negative_eigenvalues == 2 * spec.n - 2


def test_classify_indefinite_point(a1_n2):
    spec, g = a1_n2
    record = lf.classify_fold(indefinite_point(2), spec, g)
    assert record.kind == FoldKind.INDEFINITE
    assert record.absolute_index == spec.n - 1


def test_classify_definite_point_n3(a1_n3):
    spec, g = a1_n3
    record = lf.classify_fold(definite_point(3), spec, g)
    assert record.kind == FoldKind.DEFINITE
    assert record.negative_eigenvalues == 4


def test_dead_band_flags_exact_zero_eigenvalue():
    neg, pos, degenerate = fold_counts(np.array([-2.0, 0.0, 1.0]))
    assert degenerate
    assert (neg, pos) == (1, 1)
    neg, pos, degenerate = fold_counts(np.array([-2.0, -1.0]))
    assert not degenerate and neg == 2


def test_absolute_index_formula_on_components(a1_n2, traces_n2):
    spec, g = a1_n2
    for comp_id, trace in enumerate(traces_n2):
        cls = lf.classify_component(trace, spec, g, comp_id, max_samples=6)
        record = cls.record
        lam = record.negative_eigenvalues
        assert 0 <= lam <= 2 * spec.n - 2
        assert record.absolute_index == min(lam, 2 * spec.n - 2 - lam)


def test_classification_constant_along_components(a1_n2, traces_n2):
    spec, g = a1_n2
    for comp_id, trace in enumerate(traces_n2):
        cls = lf.classify_component(trace, spec, g, comp_id, max_samples=12)
        assert cls.consistent


def test_image_radius_constant_along_components(a1_n2, traces_n2):
    spec, g = a1_n2
    for comp_id, trace in enumerate(traces_n2):
        record = lf.classify_component(trace, spec, g, comp_id, max_samples=4).record
        assert record.image_radius_deviation <= 1e-8 * record.image_radius_mean


# ---------------------------------------------------------------------------
# round verdict
# ---------------------------------------------------------------------------


def _records_for(traces, spec, g):
    return [
        lf.classify_component(t, spec, g, i, max_samples=4).record
        for i, t in enumerate(traces)
    ]


def test_verify_round_on_a1(a1_n2, traces_n2):
    spec, g = a1_n2
    verdict = lf.verify_round(traces_n2, _records_for(traces_n2, spec, g))
    assert verdict.is_round
    assert verdict.radii == pytest.approx([SQRT2 / 4, 3 * SQRT2 / 4], abs=1e-6)
    assert np.linalg.norm(verdict.center) <= 1e-2


def _synthetic_trace(center, radius, count=120):
    theta = np.linspace(0, 2 * np.pi, count, endpoint=False)
    image = np.column_stack(
        [center[0] + radius * np.cos(theta), center[1] + radius * np.sin(theta)]
    )
    return CurveTrace(
        points=[None] * count,
        closed=True,
        arc_length=2 * np.pi * radius,
        image=image,
        arc_params=np.linspace(0, 2 * np.pi * radius, count),
        defects=np.zeros(count),
    )


def _synthetic_record(comp_id, center, radius):
    return lf.FoldRecord(
        component_id=comp_id,
        kind=FoldKind.DEFINITE,
        absolute_index=0,
        negative_eigenvalues=2,
        image_center=np.asarray(center, dtype=float),
        image_radius_mean=radius,
        image_radius_deviation=0.0,
        embedding_ok=True,
    )


def test_verify_round_single_circle_trivially_round():
    trace = _synthetic_trace((0.0, 0.0), 1.0)
    verdict = lf.verify_round([trace], [_synthetic_record(0, (0, 0), 1.0)])
    assert verdict.is_round
    assert verdict.radii == pytest.approx([1.0], abs=1e-9)


def test_verify_round_rejects_overlapping_circles():
    # two unit-ish circles with centres far apart: radial intervals about the
    # common centroid overlap
    t1 = _synthetic_trace((-0.8, 0.0), 1.0)
    t2 = _synthetic_trace((0.8, 0.0), 1.0)
    records = [_synthetic_record(0, (-0.8, 0), 1.0), _synthetic_record(1, (0.8, 0), 1.0)]
    verdict = lf.verify_round([t1, t2], records)
    assert not verdict.is_round
    assert verdict.failed_check in {"radial_overlap", "injectivity", "winding"}
    assert verdict.failed_check == "radial_overlap"


def test_verify_round_rejects_open_component():
    trace = _synthetic_trace((0.0, 0.0), 1.0)
    trace.closed = False
    verdict = lf.verify_round([trace], [_synthetic_record(0, (0, 0), 1.0)])
    assert verdict.failed_check == "open_component"


def test_min_nonadjacent_distance_on_synthetic_circle():
    trace = _synthetic_trace((0.0, 0.0), 1.0, count=100)
    spacing = 2 * np.pi / 100
    expected = 2 * np.sin(spacing)  # chord across two steps
    assert min_nonadjacent_image_distance(trace) == pytest.approx(expected, rel=1e-6)


# ---------------------------------------------------------------------------
# equivariance
# ---------------------------------------------------------------------------


def test_equivariance_error_tiny_for_a1(a1_n2):
    spec, g = a1_n2
    assert lf.equivariance_error(spec, g, n_samples=200, rng_seed=0) <= 1e-12


def test_equivariance_identity_phase(a1_n2):
    spec, g = a1_n2
    q = definite_point(2)
    assert lf.eval_poly(g, 1.0 * q) == lf.eval_poly(g, q)


def test_equivariance_quarter_turn_at_definite_point(a1_n2):
    # direct evaluation oracle: h(q) = 3 sqrt(2)/4, so h(i q) = 3 sqrt(2) i / 4
    spec, g = a1_n2
    q = definite_point(2)
    assert lf.eval_poly(g, q) == pytest.approx(3 * SQRT2 / 4, abs=1e-15)
    assert lf.eval_poly(g, 1j * q) == pytest.approx(3j * SQRT2 / 4, abs=1e-15)


def test_equivariance_not_applicable_for_inhomogeneous():
    f = lf.parse_poly("z1^2 + z2^2 + z3^3", 3)
    g = lf.parse_poly("z1 + 0.5i*z2", 3)
    spec = lf.LinkSpec(f=f, n=2, epsilon=0.4)
    with pytest.raises(NotApplicable):
        lf.equivariance_error(spec, g, n_samples=10, rng_seed=0)
    g2 = lf.parse_poly("z1^2", 3)
    spec2 = lf.LinkSpec(f=lf.parse_poly("z1^2 + z2^2 + z3^2", 3), n=2)
    with pytest.raises(NotApplicable):
        lf.equivariance_error(spec2, g2, n_samples=10, rng_seed=0)
