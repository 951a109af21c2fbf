import functools

import numpy as np
import pytest

import linkfold as lf
from linkfold import SliceSpec
from linkfold import fold_classify
from linkfold.errors import DegenerateHessian, RankTwo, WrongDimension
from linkfold.polynomial import gradient
from linkfold.singular_set import AugmentedSystem, _hyperplane

from conftest import (
    BRIESKORN_F,
    build_a1,
    definite_point,
    indefinite_point,
    pipeline_traces,
)
from oracles import chart_hessian, classify_fold, composed_morse_loop, critical_hessian

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


@functools.cache
def _off_centre_a1():
    """A1 at n = 2 with g = z1 + 0.5i*z2 + 0.3, and its components at seed 42."""
    spec, _ = build_a1(2)
    g = lf.parse_poly("z1 + 0.5i*z2 + 0.3", 3)
    seeds = lf.seed_singular_points(spec, g, rng_seed=42)
    return spec, g, lf.collect_components(seeds, spec, g)


def test_slice_hessian_off_normal_ray_matches_differences():
    # with a constant term in g the image circles are off-centre, so the ray
    # at theta = pi/2 meets them off the normal and the slice Hessian needs
    # the multiplier term of Im(e^{-i theta} h)
    spec, g, traces = _off_centre_a1()
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


def test_critical_points_are_told_apart_in_units_of_epsilon():
    # at epsilon = 1e-7 distinct critical points lie about 1.4e-7 apart: an
    # absolute 1e-6 merged the composed height's four into one, and the
    # slice's two into one of index 1
    spec, g = lf.RunConfig(n=2, epsilon=1e-7).build()
    traces = lf.collect_components(lf.seed_singular_points(spec, g, rng_seed=42), spec, g)
    records = lf.composed_morse(np.array([1.0, 0.0]), traces, spec, g)
    assert [r.morse_index for r in records] == [0, 1, 2, 3]
    targets = [-3 * SQRT2 / 4, -SQRT2 / 4, SQRT2 / 4, 3 * SQRT2 / 4]
    assert [r.value / spec.epsilon for r in records] == pytest.approx(targets, rel=1e-6)
    ray = SliceSpec(theta=0.0)
    points = lf.slice_critical_points(ray, traces, spec, g)
    assert [lf.slice_morse_index(z, ray, spec, g).morse_index for z in points] == [2, 1]


def test_composed_morse_n3(a1_n3, traces_n3):
    spec, g = a1_n3
    records = lf.composed_morse(np.array([1.0, 0.0]), traces_n3, spec, g)
    assert [r.morse_index for r in records] == [0, 2, 3, 5]


def _bracket_solves(traces, spec, g, monkeypatch):
    """Iteration counts and converged flags of every bracket solve over 8 angles."""
    counts, converged = [], []
    correct_rows = AugmentedSystem._correct_rows

    def counted(self, w0, extra):
        w, iters, ok = correct_rows(self, w0, extra)
        counts.extend(iters)
        converged.extend(ok)
        return w, iters, ok

    monkeypatch.setattr(AugmentedSystem, "_correct_rows", counted)
    for theta in 2 * np.pi * np.arange(8) / 8:
        lf.slice_critical_points(SliceSpec(theta), traces, spec, g)
        lf.composed_morse(np.array([np.cos(theta), np.sin(theta)]), traces, spec, g)
    return counts, converged


def test_morse_zeros_take_at_most_two_iterations(monkeypatch):
    # each bracket starts from the cubic Hermite interpolant of its two nodes
    # and tangents; from the chord, half of the zeros took 3 iterations
    spec, g = lf.RunConfig(n=4).build()
    counts, _ = _bracket_solves(pipeline_traces(4, 42), spec, g, monkeypatch)
    # per angle, each of the two circles crosses the ray's line and the
    # height's criticality equation twice
    assert len(counts) == 8 * (4 + 4)
    assert max(counts) <= 2


@pytest.mark.parametrize(
    "f_text, g_text, seed",
    [
        ("z1^2 + z2^2 + z3^3", lf.RunConfig.g_text, 7),
        (BRIESKORN_F, lf.RunConfig.g_text, 42),
        (None, "z1 + 0.5i*z2 + 0.8*z2^2", 42),
        (None, "z1 + 0.5i*z2 + 0.8*z2^2", 5),
    ],
    ids=["a2_s7", "brieskorn_s42", "quadratic_g_s42", "quadratic_g_s5"],
)
def test_morse_zeros_converge_within_four_iterations_off_a1(f_text, g_text, seed, monkeypatch):
    # the brackets share the continuation corrector's budget of 12; off A1
    # the most any took is 2, 3, 3 and 4 iterations on these cases
    spec, g = lf.RunConfig(f_text=f_text, g_text=g_text, rng_seed=seed).build()
    traces = pipeline_traces(2, seed, f_text, g_text)
    counts, converged = _bracket_solves(traces, spec, g, monkeypatch)
    assert counts and all(converged)
    assert max(counts) <= 4


# ---------------------------------------------------------------------------
# n = 1 image tracing
# ---------------------------------------------------------------------------


def test_trace_image_n1_two_circles():
    spec, g = build_a1(1)
    traces = lf.trace_image_n1(spec, g, rng_seed=42)
    assert len(traces) == 2
    fits = sorted((lf.circle_fit(trace.image) for trace in traces), key=lambda fit: fit[1])
    assert [radius for _, radius, _ in fits] == pytest.approx(
        [SQRT2 / 4, 3 * SQRT2 / 4], abs=1e-6)
    for center, _, _ in fits:
        assert np.linalg.norm(center) <= 1e-6


def test_trace_image_n1_injectivity_gap():
    # the exact circles are separated by 3 sqrt2/4 - sqrt2/4 = sqrt2/2
    spec, g = build_a1(1)
    inner, outer = lf.trace_image_n1(spec, g, rng_seed=42)
    gap = min(np.min(np.linalg.norm(outer.image - point, axis=1)) for point in inner.image)
    assert gap >= SQRT2 / 4


@pytest.mark.parametrize("epsilon", [1.0, 1e-3, 0.1, 10.0])
def test_trace_image_n1_polylines_follow_the_circles(epsilon):
    # each image polyline is one lap of its circle in node order; image
    # points taken in sampling order made polylines about 200 laps long
    spec, g = lf.RunConfig(n=1, epsilon=epsilon).build()
    for seed in (42, 3, 5):
        traces = lf.trace_image_n1(spec, g, rng_seed=seed)
        assert len(traces) == 2
        for trace in traces:
            pts = trace.image
            radius = lf.circle_fit(pts)[1]
            length = np.sum(np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1))
            assert length == pytest.approx(2 * np.pi * radius, rel=0.01)


def test_trace_image_n1_wrong_dimension(a1_n2):
    spec, g = a1_n2
    with pytest.raises(WrongDimension):
        lf.trace_image_n1(spec, g, 42)


# ---------------------------------------------------------------------------
# one second-order model: closed form, fitted multipliers, fold model
# ---------------------------------------------------------------------------

# eight height angles, in mirror pairs k and k + 4
_ANGLES = np.arange(8) * np.pi / 4


def _pair(name):
    """(spec, g, traces) of a named configuration, traced once per test run."""
    if name == "a1_off_centre":
        return _off_centre_a1()
    n, seed, f_text, g_text = {
        "a1_n2": (2, 42, None, lf.RunConfig.g_text),
        "a1_n3": (3, 42, None, lf.RunConfig.g_text),
        "a1_n4": (4, 42, None, lf.RunConfig.g_text),
        "quadratic_g_s42": (2, 42, None, "z1 + 0.5i*z2 + 0.8*z2^2"),
        "brieskorn_s42": (2, 42, BRIESKORN_F, lf.RunConfig.g_text),
        "brieskorn_s4": (2, 4, BRIESKORN_F, lf.RunConfig.g_text),
    }[name]
    spec, g = lf.RunConfig(f_text=f_text, g_text=g_text, n=n, rng_seed=seed).build()
    return spec, g, pipeline_traces(n, seed, f_text, g_text)


@functools.cache
def _composed(name, angle):
    spec, g, traces = _pair(name)
    return lf.composed_morse((np.cos(angle), np.sin(angle)), traces, spec, g)


def _slice_weight(z, theta, spec, g):
    """e^{-i theta} (1 + i lam): the slice Lagrangian's weight at a slice point."""
    rotation = np.exp(-1j * theta)
    derivs = rotation * (lf.tangent_frame(z, spec).complex_basis @ gradient(g, z))
    lam = np.dot(derivs.real, derivs.imag) / np.dot(derivs.imag, derivs.imag)
    return rotation * (1.0 + 1j * lam)


def _critical_heights(name):
    """(point, weight, kernel) triples where Re(weight h) is critical on the link.

    Fold points at about 24 nodes per component, with the kernel of dh;
    slice points at three rays, with the kernel of dh; composed critical
    points at the eight angles, on the whole frame (kernel None).
    """
    spec, g, traces = _pair(name)
    triples = []
    for trace in traces:
        for k in range(0, len(trace), max(1, len(trace) // 24)):
            data = lf.local_fold_data(trace.points[k], spec, g)
            normal = complex(-data.image_dir[1], -data.image_dir[0])
            triples.append((data.frame.base_point, normal, data.kernel_basis))
    for theta in (0.0, 0.7, np.pi / 2):
        for z in lf.slice_critical_points(SliceSpec(theta), traces, spec, g):
            data = lf.local_fold_data(z, spec, g)
            weight = _slice_weight(data.frame.base_point, theta, spec, g)
            triples.append((data.frame.base_point, weight, data.kernel_basis))
    for angle in _ANGLES:
        weight = np.exp(-1j * angle)
        triples += [(r.point, weight, None) for r in _composed(name, angle)]
    return triples


@pytest.mark.parametrize(
    "name", ["a1_n2", "a1_n3", "a1_off_centre", "brieskorn_s42"]
)
def test_closed_form_hessian_matches_fitted_multipliers(name):
    # intrinsic_hessian reads its multipliers from the span coefficients
    # (a, b); the oracle fits them to the gradient by least squares
    spec, g, _ = _pair(name)
    triples = _critical_heights(name)
    assert len(triples) >= 40
    for point, weight, kernel in triples:
        frame = lf.tangent_frame(point, spec)
        kernel = np.eye(frame.dim) if kernel is None else kernel
        nu = (weight.real, -weight.imag)
        closed = lf.intrinsic_hessian(kernel, frame, spec, g, nu)
        fitted = kernel @ critical_hessian(frame, spec, g, weight) @ kernel.T
        assert np.linalg.norm(closed - fitted) <= 1e-12 * np.linalg.norm(fitted)


def _curve_neighbours(z, spec, g):
    """The singular-curve points 1e-3 epsilon before and after z, by the corrector."""
    system = AugmentedSystem(spec, g)
    w = np.concatenate([lf.realify(z), lf.realify(system.span_coefficients(z))])
    tangent, _ = system.tangent(w)
    points = []
    for step in (-1e-3 * spec.epsilon, 1e-3 * spec.epsilon):
        w_pred = w + step * tangent
        w_new, _, ok = system.corrector(w_pred, _hyperplane(tangent, w_pred))
        assert ok
        points.append(lf.complexify(w_new[:-4]))
    return points


@pytest.mark.parametrize(
    "name", ["a1_n2", "a1_n3", "a1_n4", "brieskorn_s42", "brieskorn_s4"]
)
def test_composed_index_is_fold_index_plus_curve_index(name):
    # T K = ker dh + (curve tangent): the index of eta . h is the transverse
    # negative count lambda_eta of the fitted fold Hessian with normal eta,
    # plus kappa = 1 at a maximum of eta . h along the singular curve, 0 at
    # a minimum
    spec, g, _ = _pair(name)
    checked = 0
    for angle in _ANGLES:
        weight = np.exp(-1j * angle)
        for record in _composed(name, angle):
            data = lf.local_fold_data(record.point, spec, g)
            kernel = data.kernel_basis
            fitted = critical_hessian(data.frame, spec, g, weight)
            transverse = kernel @ fitted @ kernel.T
            lambda_eta = int(np.sum(np.linalg.eigvalsh(transverse) < 0))
            along = [(weight * lf.eval_poly(g, y)).real - record.value
                     for y in _curve_neighbours(record.point, spec, g)]
            assert all(d < 0 for d in along) or all(d > 0 for d in along)
            kappa = 1 if along[0] < 0 else 0
            assert record.morse_index == lambda_eta + kappa
            checked += 1
    assert checked >= 8 * 4


@pytest.mark.parametrize("name", ["brieskorn_s42", "brieskorn_s4"])
def test_brieskorn_composed_morse_topology(name):
    # the Brieskorn link of (2, 3, 5) is the Poincare homology sphere, with
    # Betti numbers (1, 0, 0, 1); -eta . h has the critical points of eta . h
    # with index 3 - i
    betti = np.array([1, 0, 0, 1])
    counts = []
    for angle in _ANGLES:
        indices = [r.morse_index for r in _composed(name, angle)]
        c = np.bincount(indices, minlength=4)
        assert len(c) == 4
        assert np.dot(c, [1, -1, 1, -1]) == 0
        for k in range(4):
            signs = (-1) ** (k - np.arange(k + 1))
            assert np.dot(signs, c[: k + 1]) >= np.dot(signs, betti[: k + 1])
        counts.append(c)
    for k in range(4):
        assert counts[k + 4].tolist() == counts[k][::-1].tolist()


@pytest.mark.parametrize("name", ["a1_n2", "a1_n3", "a1_n4", "quadratic_g_s42", "brieskorn_s42"])
def test_composed_morse_matches_the_point_loop(name):
    # the stacked classification gives the one-point loop's records bit for bit
    spec, g, traces = _pair(name)
    for angle in _ANGLES:
        eta = (np.cos(angle), np.sin(angle))
        records = _composed(name, angle)
        expected = composed_morse_loop(eta, traces, spec, g)
        assert len(records) == len(expected) >= 2
        for record, reference in zip(records, expected):
            assert np.array_equal(record.point, reference.point)
            assert record.value == reference.value
            assert record.morse_index == reference.morse_index
            assert np.array_equal(record.hessian_eigenvalues, reference.hessian_eigenvalues)
            assert record.gradient_norm == reference.gradient_norm


def test_composed_morse_raises_at_the_loops_first_degenerate_point(monkeypatch):
    # a dead band of 0.3 takes in 10 of the 26 points, of two spectra: both
    # raise DegenerateHessian naming the same one
    spec, g, traces = _pair("brieskorn_s42")
    eta = (np.cos(_ANGLES[1]), np.sin(_ANGLES[1]))
    records = _composed("brieskorn_s42", _ANGLES[1])
    monkeypatch.setattr(fold_classify, "_DEAD_BAND", 0.3)
    inside = [r for r in records if lf.fold_counts(r.hessian_eigenvalues)[2]]
    assert 0 < len(inside) < len(records)
    assert len({str(r.hessian_eigenvalues) for r in inside}) == 2
    with pytest.raises(DegenerateHessian) as expected:
        composed_morse_loop(eta, traces, spec, g)
    with pytest.raises(DegenerateHessian) as raised:
        lf.composed_morse(eta, traces, spec, g)
    assert str(raised.value) == str(expected.value)
