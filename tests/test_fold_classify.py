import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import linkfold as lf
from linkfold import FoldKind, fold_classify
from linkfold.errors import NotApplicable, RankTwo
from linkfold.fold_classify import fold_counts, min_nonadjacent_image_distance
from linkfold.singular_set import CurveTrace

from conftest import BRIESKORN_F, definite_point, indefinite_point, pipeline_traces
from oracles import (
    classify_fold,
    dense_min_nonadjacent_distance,
    transverse_eigenvalues,
)

SQRT2 = np.sqrt(2.0)


# ---------------------------------------------------------------------------
# local fold data
# ---------------------------------------------------------------------------


def test_local_fold_data_at_definite_point(a1_n2):
    spec, g = a1_n2
    data = lf.local_fold_data(definite_point(2), spec, g)
    assert data.kernel_basis.shape == (2, 3)
    # dh vanishes on the kernel rows
    derivs = data.frame.complex_basis @ lf.polynomial.gradient(g, data.frame.base_point)
    assert np.max(np.abs(data.kernel_basis @ derivs)) <= 1e-12


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


def test_hessian_at_definite_point_signs_and_ratio(a1_n2):
    spec, g = a1_n2
    eigs = transverse_eigenvalues(definite_point(2), spec, g, (0.0, 0.0))
    assert np.all(eigs < 0)
    ratio = np.max(np.abs(eigs)) / np.min(np.abs(eigs))
    assert abs(ratio - 2.0) <= 1e-3


def test_hessian_at_indefinite_point_mixed_signs(a1_n2):
    spec, g = a1_n2
    eigs = transverse_eigenvalues(indefinite_point(2), spec, g, (0.0, 0.0))
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
        z = data.frame.base_point
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
    kind, absolute, neg = classify_fold(definite_point(2), spec, g, (0.0, 0.0))
    assert kind == FoldKind.DEFINITE
    assert absolute == 0
    assert neg == 2 * spec.n - 2


def test_classify_indefinite_point(a1_n2):
    spec, g = a1_n2
    kind, absolute, _ = classify_fold(indefinite_point(2), spec, g, (0.0, 0.0))
    assert kind == FoldKind.INDEFINITE
    assert absolute == spec.n - 1


def test_classify_definite_point_n3(a1_n3):
    spec, g = a1_n3
    kind, _, neg = classify_fold(definite_point(3), spec, g, (0.0, 0.0))
    assert kind == FoldKind.DEFINITE
    assert neg == 4


def test_dead_band_flags_exact_zero_eigenvalue():
    neg, pos, degenerate = fold_counts(np.array([-2.0, 0.0, 1.0]))
    assert degenerate
    assert (neg, pos) == (1, 1)
    neg, pos, degenerate = fold_counts(np.array([-2.0, -1.0]))
    assert not degenerate and neg == 2
    # a stack of rows: each row's counts are its 1-D call's
    rows = np.array([[-2.0, 0.0, 1.0], [-2.0, -1.0, -1.5]])
    stacked = fold_counts(rows)
    assert [tuple(c[k] for c in stacked) for k in range(2)] == [
        fold_counts(row) for row in rows
    ]


def test_absolute_index_formula_on_components(a1_n2, traces_n2):
    spec, g = a1_n2
    for comp_id, trace in enumerate(traces_n2):
        record = lf.classify_component(trace, spec, g, comp_id)
        lam = record.negative_eigenvalues
        assert 0 <= lam <= 2 * spec.n - 2
        assert record.absolute_index == min(lam, 2 * spec.n - 2 - lam)


def test_classification_constant_along_components(a1_n2, traces_n2):
    spec, g = a1_n2
    for comp_id, trace in enumerate(traces_n2):
        assert lf.classify_component(trace, spec, g, comp_id).consistent


def test_image_radius_constant_along_components(a1_n2, traces_n2):
    spec, g = a1_n2
    for comp_id, trace in enumerate(traces_n2):
        record = lf.classify_component(trace, spec, g, comp_id)
        assert record.image_radius_deviation <= 1e-8 * record.image_radius_mean


def _pipeline_records(n, seed, f_text=None):
    spec, g = lf.RunConfig(f_text=f_text, n=n, rng_seed=seed).build()
    traces = pipeline_traces(n, seed, f_text)
    return [lf.classify_component(t, spec, g, i) for i, t in enumerate(traces)]


@pytest.mark.parametrize("seed", [42, 4, 5, 9])
def test_brieskorn_long_component_has_cusps(seed):
    # the long component's image reverses direction 10 times: there ker dh
    # contains the curve's tangent, so it is no fold, whatever the Hessian;
    # its fold type changes there too, so it has none, at every seed
    short, long = sorted(_pipeline_records(2, seed, BRIESKORN_F), key=lambda r: r.cusps)
    assert (short.cusps, long.cusps) == (0, 10)
    assert short.consistent and not long.consistent
    assert (short.kind, short.absolute_index) == (FoldKind.DEFINITE, 0)
    assert long.kind == FoldKind.DEGENERATE
    assert long.absolute_index is None and long.negative_eigenvalues is None
    # plain Python values, which the JSON report writer accepts
    for record in (short, long):
        values = (record.absolute_index, record.negative_eigenvalues,
                  record.cusps, record.consistent, record.embedding_ok)
        assert {type(v) for v in values} <= {int, bool, type(None)}


@pytest.mark.parametrize("seed", [42, 4, 5, 9])
def test_brieskorn_fold_count_changes_exactly_at_cusps(seed):
    # Whitney's cusp normal form: across a cusp the transverse count moves by
    # one; along the fold arcs between cusps it stays put
    spec, g = lf.RunConfig(f_text=BRIESKORN_F, n=2, rng_seed=seed).build()
    long = max(pipeline_traces(2, seed, BRIESKORN_F), key=len)
    neg, degenerate, reversal = fold_classify._node_folds(long, spec, g)
    step = np.roll(neg, -1) - neg
    assert not degenerate.any()
    assert np.flatnonzero(step).tolist() == np.flatnonzero(reversal).tolist()
    assert len(np.flatnonzero(step)) == 10
    assert set(step[reversal].tolist()) <= {-1, 1}


@pytest.mark.parametrize(
    "n, seed, f_text",
    [(2, 42, None), (3, 42, None), (4, 42, None), (2, 7, "z1^2 + z2^2 + z3^3"),
     (2, 42, BRIESKORN_F)],
    ids=["a1_n2", "a1_n3", "a1_n4", "a2_n2_s7", "brieskorn_n2"],
)
def test_closed_form_fold_counts_match_per_point_oracle(n, seed, f_text):
    # the oracle projects each point and fits its multipliers in a chart,
    # with the normal pointing away from the circle-fit centre
    spec, g = lf.RunConfig(f_text=f_text, n=n, rng_seed=seed).build()
    for trace in pipeline_traces(n, seed, f_text):
        neg, degenerate, _ = fold_classify._node_folds(trace, spec, g)
        center = lf.circle_fit(trace.image)[0]
        for k in range(0, len(trace), max(1, len(trace) // 24)):
            kind, _, oracle_neg = classify_fold(trace.points[k], spec, g, center)
            assert (neg[k], degenerate[k]) == (oracle_neg, kind == FoldKind.DEGENERATE)


@pytest.mark.parametrize(
    "n, seed, f_text",
    [(2, 42, None), (2, 3, None), (3, 42, None), (3, 3, None), (4, 42, None),
     (4, 3, None), (2, 7, "z1^2 + z2^2 + z3^3")],
    ids=["a1_n2_s42", "a1_n2_s3", "a1_n3_s42", "a1_n3_s3", "a1_n4_s42",
         "a1_n4_s3", "a2_n2_s7"],
)
def test_fold_components_have_no_cusps(n, seed, f_text):
    records = _pipeline_records(n, seed, f_text)
    assert len(records) == (3 if f_text else 2)
    assert all(r.cusps == 0 and r.consistent for r in records)


# ---------------------------------------------------------------------------
# round verdict
# ---------------------------------------------------------------------------


def _records_for(traces, spec, g):
    return [lf.classify_component(t, spec, g, i) for i, t in enumerate(traces)]


def test_verify_round_on_a1(a1_n2, traces_n2):
    spec, g = a1_n2
    verdict = lf.verify_round(traces_n2, _records_for(traces_n2, spec, g))
    assert verdict.is_round
    assert verdict.radii == pytest.approx([SQRT2 / 4, 3 * SQRT2 / 4], abs=1e-6)
    assert np.linalg.norm(verdict.center) <= 1e-12


def _synthetic_trace(center, radius, count=120):
    theta = np.linspace(0, 2 * np.pi, count, endpoint=False)
    image = np.column_stack(
        [center[0] + radius * np.cos(theta), center[1] + radius * np.sin(theta)]
    )
    return CurveTrace(
        arc_length=2 * np.pi * radius,
        image=image,
        arc_params=np.linspace(0, 2 * np.pi * radius, count),
        defects=np.zeros(count),
        nodes=np.zeros((count, 10)),
        tangents=np.zeros((count, 10)),
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
        cusps=0,
        consistent=True,
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


def test_verify_round_rejects_no_components():
    verdict = lf.verify_round([], [])
    assert not verdict.is_round
    assert verdict.failed_check == "no_components"


def test_verify_round_rejects_degenerate_fold():
    trace = _synthetic_trace((0.0, 0.0), 1.0)
    record = replace(_synthetic_record(0, (0, 0), 1.0), kind=FoldKind.DEGENERATE,
                     absolute_index=None)
    verdict = lf.verify_round([trace], [record])
    assert not verdict.is_round
    assert verdict.failed_check == "degenerate_fold"


def test_verify_round_rejects_non_embedded_component():
    trace = _synthetic_trace((0.0, 0.0), 1.0)
    record = replace(_synthetic_record(0, (0, 0), 1.0), embedding_ok=False)
    verdict = lf.verify_round([trace], [record])
    assert not verdict.is_round
    assert verdict.failed_check == "injectivity"


def test_verify_round_rejects_circles_that_do_not_wind_about_the_centre():
    # side by side, neither circle encloses the common centre (2.5, 0); its
    # radial intervals about that centre would also overlap
    t1 = _synthetic_trace((0.0, 0.0), 1.0)
    t2 = _synthetic_trace((5.0, 0.0), 1.0)
    records = [_synthetic_record(0, (0, 0), 1.0), _synthetic_record(1, (5, 0), 1.0)]
    verdict = lf.verify_round([t1, t2], records)
    assert not verdict.is_round
    assert verdict.failed_check == "winding"


def test_min_nonadjacent_distance_on_synthetic_circle():
    trace = _synthetic_trace((0.0, 0.0), 1.0, count=100)
    spacing = 2 * np.pi / 100
    expected = 2 * np.sin(spacing)  # chord across two steps
    assert min_nonadjacent_image_distance(trace) == pytest.approx(expected, rel=1e-6)


def test_min_nonadjacent_distance_equals_dense_formula():
    rng = np.random.default_rng(11)
    for count in (4, 5, 37, 300):
        trace = _synthetic_trace((0.0, 0.0), 1.0, count=count)
        trace.image = trace.image + 0.3 * rng.standard_normal(trace.image.shape)
        assert min_nonadjacent_image_distance(trace) == (
            dense_min_nonadjacent_distance(trace)
        )


def test_min_nonadjacent_distance_memory_is_linear():
    # a trace as long as the 5,000-node budget allows: the all-pairs
    # formula would need about 1 GB here
    trace = _synthetic_trace((0.0, 0.0), 1.0, count=5000)
    tracemalloc.start()
    try:
        value = min_nonadjacent_image_distance(trace)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**20
    # closed, the nearest non-adjacent samples are two steps apart
    assert value == pytest.approx(2 * np.sin(2 * np.pi / 5000), rel=1e-6)


# ---------------------------------------------------------------------------
# equivariance
# ---------------------------------------------------------------------------


def test_equivariance_error_tiny_for_a1(a1_n2):
    spec, g = a1_n2
    rng = np.random.default_rng(0)
    points = lf.sample_link_points(spec, 200, rng)
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=200))
    assert lf.equivariance_error(spec, g, points, phases) <= 1e-12


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
    points = np.array([[0.4, 0.0, 0.0]], dtype=complex)
    phases = np.array([1j])
    with pytest.raises(NotApplicable):
        lf.equivariance_error(spec, g, points, phases)
    g2 = lf.parse_poly("z1^2", 3)
    spec2 = lf.LinkSpec(f=lf.parse_poly("z1^2 + z2^2 + z3^2", 3), n=2)
    with pytest.raises(NotApplicable):
        lf.equivariance_error(spec2, g2, points, phases)
