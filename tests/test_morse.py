import numpy as np
import pytest

import linkfold as lf
from linkfold import SliceSpec
from linkfold.errors import RankTwo, WrongDimension
from linkfold.polynomial import gradient

from conftest import build_a1, definite_point, indefinite_point
from oracles import chart_hessian, classify_fold

SQRT2 = np.sqrt(2.0)


# ---------------------------------------------------------------------------
# slice critical points
# ---------------------------------------------------------------------------


def test_slice_theta0_finds_the_two_points(a1_n2, traces_n2):
    spec, g = a1_n2
    points = lf.slice_critical_points(SliceSpec(0.0), traces_n2, spec, g)
    assert len(points) == 2
    expected = [definite_point(2), indefinite_point(2)]
    for z, target in zip(points, expected):
        assert np.linalg.norm(z - target) <= 1e-8


def test_slice_rotation_equivariance(a1_n2, traces_n2):
    # rotating the ray by theta rotates the critical points by e^{i theta}
    spec, g = a1_n2
    theta = np.pi / 2
    rotated = lf.slice_critical_points(SliceSpec(theta), traces_n2, spec, g)
    base = lf.slice_critical_points(SliceSpec(0.0), traces_n2, spec, g)
    assert len(rotated) == len(base) == 2
    alpha = np.exp(1j * theta)
    for z_rot, z in zip(rotated, base):
        assert np.linalg.norm(z_rot - alpha * z) <= 1e-9


def test_slice_arbitrary_angle_equivariance(a1_n2, traces_n2):
    spec, g = a1_n2
    theta = 0.735
    rotated = lf.slice_critical_points(SliceSpec(theta), traces_n2, spec, g)
    base = lf.slice_critical_points(SliceSpec(0.0), traces_n2, spec, g)
    alpha = np.exp(1j * theta)
    for z_rot, z in zip(rotated, base):
        assert np.linalg.norm(z_rot - alpha * z) <= 1e-9


def test_slice_empty_traces(a1_n2):
    spec, g = a1_n2
    assert lf.slice_critical_points(SliceSpec(0.0), [], spec, g) == []


def test_a_component_listed_twice_adds_no_critical_point(a1_n2, traces_n2):
    # slices and composed heights share one search and its dedupe
    spec, g = a1_n2
    doubled = list(traces_n2) * 2
    assert len(lf.slice_critical_points(SliceSpec(0.3), doubled, spec, g)) == 2
    composed = lf.composed_morse((1.0, 0.0), doubled, spec, g)
    assert len(composed) == len(lf.composed_morse((1.0, 0.0), traces_n2, spec, g)) == 4


def test_slice_points_lie_on_singular_set(a1_n2, traces_n2):
    spec, g = a1_n2
    for z in lf.slice_critical_points(SliceSpec(0.3), traces_n2, spec, g):
        assert lf.criterion_rank_defect(z, spec.f, g) <= 1e-8


# ---------------------------------------------------------------------------
# slice Morse indices
# ---------------------------------------------------------------------------


def test_slice_index_at_definite_point(a1_n2):
    spec, g = a1_n2
    record = lf.slice_morse_index(definite_point(2), SliceSpec(0.0), spec, g)
    assert record.morse_index == 2
    assert np.all(record.hessian_eigenvalues < 0)
    eigs = np.abs(record.hessian_eigenvalues)
    assert abs(np.max(eigs) / np.min(eigs) - 2.0) <= 1e-3
    assert record.value == pytest.approx(3 * SQRT2 / 4, abs=1e-12)
    assert record.gradient_norm <= 1e-10


def test_slice_index_at_indefinite_point(a1_n2):
    spec, g = a1_n2
    record = lf.slice_morse_index(indefinite_point(2), SliceSpec(0.0), spec, g)
    assert record.morse_index == 1
    assert record.value == pytest.approx(SQRT2 / 4, abs=1e-12)


def test_slice_hessian_ratio_exact_at_rotated_ray(a1_n2):
    # h is linear, so e^{i theta} times the definite point is the definite
    # point of the ray at theta; the analytic Hessian gives the ratio 2
    # to round-off
    spec, g = a1_n2
    theta = 0.7
    point = np.exp(1j * theta) * definite_point(2)
    record = lf.slice_morse_index(point, SliceSpec(theta), spec, g)
    assert np.all(record.hessian_eigenvalues < 0)
    eigs = np.abs(record.hessian_eigenvalues)
    assert abs(np.max(eigs) / np.min(eigs) - 2.0) <= 1e-12


def test_slice_index_n4_definite_point():
    # three identical 2x2 blocks, each contributing two negative eigenvalues
    spec, g = build_a1(4)
    record = lf.slice_morse_index(definite_point(4), SliceSpec(0.0), spec, g)
    assert record.morse_index == 6
    assert record.hessian_eigenvalues.shape == (6,)
    assert np.all(record.hessian_eigenvalues < 0)
    eigs = np.sort(np.abs(record.hessian_eigenvalues))
    assert np.allclose(eigs[3:] / eigs[:3], 2.0, atol=1e-3)


def test_slice_index_matches_fold_negative_count(a1_n2):
    # at theta = 0 the slice transverse direction is the outward fold normal
    spec, g = a1_n2
    for point in (definite_point(2), indefinite_point(2)):
        record = lf.slice_morse_index(point, SliceSpec(0.0), spec, g)
        _, _, fold_negative = classify_fold(point, spec, g, (0.0, 0.0))
        assert record.morse_index == fold_negative


def test_slice_index_at_regular_point_raises_rank_two(a1_n2):
    # the slice data is the fold model's: a regular link point has no
    # kernel of dh to restrict to, so it is refused rather than indexed
    spec, g = a1_n2
    z = np.array([0.0, 1.0, 1j]) / SQRT2
    with pytest.raises(RankTwo):
        lf.slice_morse_index(z, SliceSpec(0.0), spec, g)


def _slice_difference_hessian(z, theta, spec, g, step=1e-4):
    """Central-difference Hessian of the slice function at z, on the slice.

    A chart step in the kernel of d Im(e^{-i theta} h) is pulled back onto
    Q_theta by Newton along the tangential gradient of Im(e^{-i theta} h).
    """
    rotation = np.exp(-1j * theta)
    frame = lf.tangent_frame(z, spec)
    im_row = (rotation * (frame.complex_basis @ gradient(g, z))).imag
    kernel = np.linalg.svd(im_row[None, :], full_matrices=True)[2][1:]

    def height(s):
        y = lf.chart(z, frame, kernel.T @ s, spec)
        for _ in range(8):
            off = (rotation * lf.eval_poly(g, y)).imag
            if abs(off) <= 1e-15:
                break
            frame_y = lf.tangent_frame(y, spec)
            d_im = (rotation * (frame_y.complex_basis @ gradient(g, y))).imag
            y = lf.chart(y, frame_y, -off * d_im / np.dot(d_im, d_im), spec)
        return float((rotation * lf.eval_poly(g, y)).real)

    return chart_hessian(height, kernel.shape[0], step)


def test_slice_hessian_off_normal_ray_matches_differences(a1_n2):
    # with a constant term in g the image circles are off-centre, so the ray
    # at theta = pi/2 meets them off the normal and the slice Hessian needs
    # the multiplier term of Im(e^{-i theta} h)
    spec, _ = a1_n2
    g = lf.parse_poly("z1 + 0.5i*z2 + 0.3", 3)
    seeds = lf.seed_singular_points(spec, g, rng_seed=42)
    traces = lf.collect_components(seeds, spec, g)
    theta = np.pi / 2
    points = lf.slice_critical_points(SliceSpec(theta), traces, spec, g)
    assert len(points) == 2
    for z in points:
        record = lf.slice_morse_index(z, SliceSpec(theta), spec, g)
        assert record.gradient_norm <= 1e-9
        expected = np.linalg.eigvalsh(
            _slice_difference_hessian(record.point, theta, spec, g)
        )
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(record.hessian_eigenvalues - expected)) <= 1e-5 * scale


# ---------------------------------------------------------------------------
# composed Morse functions
# ---------------------------------------------------------------------------


def _assert_composed_n2(spec, g, traces):
    records = lf.composed_morse(np.array([1.0, 0.0]), traces, spec, g)
    assert len(records) == 4
    assert [r.morse_index for r in records] == [0, 1, 2, 3]
    values = [r.value for r in records]
    targets = [-3 * SQRT2 / 4, -SQRT2 / 4, SQRT2 / 4, 3 * SQRT2 / 4]
    assert values == pytest.approx(targets, abs=1e-6)
    for r in records:
        assert r.gradient_norm <= 1e-10


def test_composed_morse_n2(a1_n2, traces_n2):
    _assert_composed_n2(*a1_n2, traces_n2)


def test_composed_morse_n2_second_seed(a1_n2, traces_n2_seed3):
    # a different seeding traces the same curves from other start nodes
    _assert_composed_n2(*a1_n2, traces_n2_seed3)


def test_composed_morse_negated_height_reverses_indices(a1_n2, traces_n2):
    spec, g = a1_n2
    forward = lf.composed_morse(np.array([1.0, 0.0]), traces_n2, spec, g)
    backward = lf.composed_morse(np.array([-1.0, 0.0]), traces_n2, spec, g)
    dim = 2 * spec.n - 1
    # match points pairwise and compare indices
    for rec in forward:
        partner = min(
            backward, key=lambda r: np.linalg.norm(r.point - rec.point)
        )
        assert np.linalg.norm(partner.point - rec.point) <= 1e-8
        assert partner.morse_index == dim - rec.morse_index


def test_composed_morse_index_sum(a1_n2, traces_n2):
    spec, g = a1_n2
    records = lf.composed_morse(np.array([0.0, 1.0]), traces_n2, spec, g)
    assert len(records) == 4
    assert sum(r.morse_index for r in records) == 2 * (2 * spec.n - 1)


def test_composed_morse_critical_points_on_singular_set(a1_n2, traces_n2):
    spec, g = a1_n2
    for r in lf.composed_morse(np.array([1.0, 0.0]), traces_n2, spec, g):
        assert lf.criterion_rank_defect(r.point, spec.f, g) <= 1e-8


def test_composed_morse_rejects_zero_eta(a1_n2, traces_n2):
    spec, g = a1_n2
    with pytest.raises(ValueError):
        lf.composed_morse(np.zeros(2), traces_n2, spec, g)


def test_composed_morse_n3(a1_n3, traces_n3):
    spec, g = a1_n3
    records = lf.composed_morse(np.array([1.0, 0.0]), traces_n3, spec, g)
    assert [r.morse_index for r in records] == [0, 2, 3, 5]


# ---------------------------------------------------------------------------
# n = 1 image tracing
# ---------------------------------------------------------------------------


def test_trace_image_n1_two_circles():
    spec, g = build_a1(1)
    result = lf.trace_image_n1(spec, g, rng_seed=42)
    assert len(result.components) == 2
    assert result.radii == pytest.approx([SQRT2 / 4, 3 * SQRT2 / 4], abs=1e-6)
    for center in result.centers:
        assert np.linalg.norm(center) <= 1e-6


def test_trace_image_n1_injectivity_gap():
    # the exact circles are separated by 3 sqrt2/4 - sqrt2/4 = sqrt2/2
    spec, g = build_a1(1)
    result = lf.trace_image_n1(spec, g, rng_seed=42)
    assert result.min_intercomponent_distance >= SQRT2 / 4


@pytest.mark.parametrize("epsilon", [1.0, 1e-3])
def test_trace_image_n1_polylines_follow_the_circles(epsilon):
    # in sampling order each closed polyline was about 200 circumferences long
    spec, g = lf.RunConfig(n=1, epsilon=epsilon).build()
    result = lf.trace_image_n1(spec, g, rng_seed=42)
    for pts, radius in zip(result.components, result.radii):
        length = np.sum(np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1))
        assert length == pytest.approx(2 * np.pi * radius, rel=0.01)


def test_trace_image_n1_wrong_dimension(a1_n2):
    spec, g = a1_n2
    with pytest.raises(WrongDimension):
        lf.trace_image_n1(spec, g)
