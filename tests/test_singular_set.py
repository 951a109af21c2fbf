import functools

import numpy as np
import pytest

import linkfold as lf
import linkfold.singular_set as singular_set
from linkfold.cli import main
from linkfold.errors import EmptyResult, NonConvergence, NotApplicable, WrongDimension
from linkfold.report import RunConfig
from linkfold.singular_set import AugmentedSystem, _ratio_gradient

from conftest import (
    BRIESKORN_F,
    build_a1,
    definite_point,
    indefinite_point,
    pipeline_traces,
)
from oracles import (
    a1_linear_min_pair_defect,
    arc_segments_loop,
    criterion_det,
    gradient_dependence_scan,
    gradient_pair_defect,
    link_residual_jacobian,
    pair_ratio_gradient,
    projected_descent_serial,
    ratio_gradient_point,
    winding_number,
)

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
    points += [t.points[k] for t in traces_n2 for k in (0, len(t) // 2)]
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


def test_augmented_point_cache_cannot_go_stale(perturbed_n2):
    spec, g = perturbed_n2
    system = AugmentedSystem(spec, g)
    w1, w2 = np.random.default_rng(3).standard_normal((2, 10))

    def check(w):
        for method in ("residual", "jacobian", "tangent"):
            got = getattr(system, method)(w)
            want = getattr(AugmentedSystem(spec, g), method)(w.copy())
            if method == "tangent":
                assert np.array_equal(got[0], want[0]) and got[1] == want[1]
            else:
                assert np.array_equal(got, want)

    for w in (w1, w2, w1):
        check(w)
    # one caller's array, changed in place between calls
    caller = w1.copy()
    check(caller)
    caller[3] += 0.25
    check(caller)
    caller[:] = w2
    check(caller)
    rows = system.jacobian(w1)[6:9, :6]
    assert np.array_equal(rows, link_residual_jacobian(lf.complexify(w1[:-4]), spec))


def test_trace_evaluates_each_augmented_point_once(monkeypatch):
    spec, g = build_a1(4)
    seed = lf.seed_singular_points(spec, g, rng_seed=42)[0]
    # distinct augmented rows passed in, and rows whose gradients were taken:
    # one row and the one-row stack with its bytes are one augmented row
    points, evaluated = set(), []
    for name in ("residual", "jacobian"):
        def recording(self, w, _method=getattr(AugmentedSystem, name)):
            w = np.asarray(w, dtype=float)
            points.update(row.tobytes() for row in w.reshape(-1, w.shape[-1]))
            return _method(self, w)

        monkeypatch.setattr(AugmentedSystem, name, recording)

    def counting(self, z, _grads=AugmentedSystem.grads):
        evaluated.append(len(np.atleast_2d(z)))
        return _grads(self, z)

    monkeypatch.setattr(AugmentedSystem, "grads", counting)
    trace = lf.trace_singular_curve(seed, spec, g)
    assert len(trace) > 30
    assert sum(evaluated) == len(points)


@pytest.mark.parametrize("c", [0.5, 1])
def test_augmented_span_invariant_on_seeds(c, monkeypatch):
    # at g = z1 + i z2 the gradients are dependent on a circle of the link,
    # where the criterion kernel's z part nearly vanishes: seeding still
    # returns only converged seeds
    spec, _ = build_a1(2)
    g = lf.parse_poly(f"z1 + {c}i*z2", 3)
    monkeypatch.setattr(singular_set, "_SEED_SAMPLES", 32)
    seeds = lf.seed_singular_points(spec, g, rng_seed=1)
    system = AugmentedSystem(spec, g)
    for seed in seeds:
        z, (a, b) = lf.complexify(seed[:-4]), lf.complexify(seed[-4:])
        gf, gg = system.grads(z)
        span_residual = np.linalg.norm(z - a * gf - b * gg)
        assert span_residual <= 1e-10
        assert np.linalg.norm(lf.link_residual(z, spec)) <= 1e-10


# ---------------------------------------------------------------------------
# seeding
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n, seed", [(2, 42), (4, 1101), (4, 1107)])
def test_seeds_land_on_both_circles(n, seed):
    # at both n = 4 seeds, Gauss-Newton from a least-squares (a, b) start
    # without descent finds only one circle
    spec, g = build_a1(n)
    seeds = lf.seed_singular_points(spec, g, rng_seed=seed)
    zs = lf.complexify(seeds[:, :-4])
    plus = np.abs(zs[:, 0] - 1j * zs[:, 1]) <= 1e-8
    minus = np.abs(zs[:, 0] + 1j * zs[:, 1]) <= 1e-8
    assert np.all(plus | minus)
    assert np.any(plus) and np.any(minus)


def test_seeds_have_vanishing_higher_coordinates(a1_n3):
    spec, g = a1_n3
    seeds = lf.seed_singular_points(spec, g, rng_seed=42)
    for z in lf.complexify(seeds[:, :-4]):
        assert np.max(np.abs(z[2:])) <= 1e-8


def test_seeding_is_deterministic(a1_n2, monkeypatch):
    spec, g = a1_n2
    monkeypatch.setattr(singular_set, "_SEED_SAMPLES", 48)
    first = lf.seed_singular_points(spec, g, rng_seed=9)
    second = lf.seed_singular_points(spec, g, rng_seed=9)
    assert first.shape == second.shape == (len(first), 10)
    assert np.array_equal(first, second)


def test_seeding_converges_at_epsilon_100():
    # b is O(epsilon) and a is O(1) there: a damped least-norm solver held
    # to an absolute 1e-13 seeded from 6 of these 64 starts
    spec, g = build_a1(2)
    spec = lf.LinkSpec(f=spec.f, n=2, epsilon=100.0)
    seeds = lf.seed_singular_points(spec, g, rng_seed=42)
    assert len(seeds) >= 48
    newton = RunConfig(n=2, epsilon=100.0).echo()["tolerances"]["newton"]
    assert newton == singular_set._CORRECTOR_TOL
    residuals = np.linalg.norm(AugmentedSystem(spec, g).residual(seeds), axis=1)
    assert np.all(residuals <= newton * max(1.0, spec.epsilon**2))


@pytest.mark.parametrize("cols", [3])
def test_ratio_gradient_matches_svd_and_finite_differences(perturbed_n2, cols):
    # the rank defect sigma3/sigma1 of all cols = 3 criterion columns
    spec, g = perturbed_n2
    system = AugmentedSystem(spec, g)
    rng = np.random.default_rng(8)
    z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    values, grads = _ratio_gradient(system, z[None])
    value, grad = ratio_gradient_point(system, z, cols)
    assert values[0] == value and np.array_equal(grads[0], grad)
    s = np.linalg.svd(lf.criterion_matrix(z, spec.f, g), compute_uv=False)
    assert value == pytest.approx(s[-1] / s[0], rel=1e-12)
    h = 1e-6
    fd = np.empty(6)
    for k in range(6):
        e = np.zeros(6)
        e[k] = h
        plus, _ = _ratio_gradient(system, (z + lf.complexify(e))[None])
        minus, _ = _ratio_gradient(system, (z - lf.complexify(e))[None])
        fd[k] = (plus[0] - minus[0]) / (2 * h)
    assert np.allclose(grad, fd, rtol=1e-6, atol=1e-8)


# the descents on the rank defect (seeding) and on the gradient-pair defect
_DESCENTS = {
    "rank": dict(objective=_ratio_gradient, cols=3, max_steps=25, target=2e-2, samples=64),
    "pair": dict(objective=pair_ratio_gradient, cols=2, max_steps=40, target=1e-8, samples=48),
}


def _descent_on(monkeypatch, objective, max_steps, target):
    """Make projected_descent descend ``objective`` for ``max_steps`` steps down to ``target``."""
    monkeypatch.setattr(singular_set, "_ratio_gradient", objective)
    monkeypatch.setattr(singular_set, "_SEED_DESCENT_STEPS", max_steps)
    monkeypatch.setattr(singular_set, "_SEED_DESCENT_TARGET", target)


@pytest.mark.parametrize("kind", sorted(_DESCENTS))
@pytest.mark.parametrize("n, seed", [(2, 42), (4, 3)])
def test_stacked_descent_matches_serial_starts(kind, n, seed, monkeypatch):
    # n = 2, seed 42 reaches a sigma_1 whose scalar square rounds apart
    # from an array's
    objective, cols, max_steps, target, samples = _DESCENTS[kind].values()
    spec, g = build_a1(n)
    system = AugmentedSystem(spec, g)
    starts = lf.sample_link_points(spec, samples, np.random.default_rng(seed))
    _descent_on(monkeypatch, objective, max_steps, target)
    ends, values = singular_set.projected_descent(system, starts)
    assert ends.shape == starts.shape and values.shape == (samples,)
    ratio = functools.partial(ratio_gradient_point, system, cols=cols)
    for start, end, value in zip(starts, ends, values):
        expected_end, expected_value = projected_descent_serial(
            ratio, start, spec, max_steps, target
        )
        assert np.array_equal(end, expected_end)
        assert value == expected_value


def test_descent_stops_only_the_rows_whose_frame_fails(a1_n2, monkeypatch):
    # at eps * (1, 0, 0), off the link, z is parallel to gradbar f and the
    # tangent frame raises; the pair defect there is not small
    spec, g = a1_n2
    system = AugmentedSystem(spec, g)
    starts = lf.sample_link_points(spec, 6, np.random.default_rng(5))
    starts[0] = [spec.epsilon, 0.0, 0.0]
    with pytest.raises(lf.LinkFoldError):
        lf.tangent_frame(starts, spec)
    _descent_on(monkeypatch, pair_ratio_gradient, 40, 1e-8)
    ends, values = singular_set.projected_descent(system, starts)
    ratio = functools.partial(ratio_gradient_point, system, cols=2)
    assert np.array_equal(ends[0], starts[0])
    assert values[0] == ratio(starts[0])[0] > 1e-8
    for start, end, value in zip(starts[1:], ends[1:], values[1:]):
        expected_end, expected_value = projected_descent_serial(
            ratio, start, spec, 40, 1e-8
        )
        assert np.array_equal(end, expected_end)
        assert value == expected_value


def test_seeding_empty_result(monkeypatch):
    spec, g = build_a1(2)
    monkeypatch.setattr(singular_set, "_SEED_SAMPLES", 0)
    with pytest.raises(EmptyResult):
        lf.seed_singular_points(spec, g, rng_seed=0)


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


def _seed_near(spec, g, z):
    system = AugmentedSystem(spec, g)
    gf, gg = system.grads(z)
    coeffs, *_ = np.linalg.lstsq(np.column_stack([gf, gg]), z, rcond=None)
    return np.concatenate([lf.realify(z), lf.realify(coeffs)])


def test_trace_through_definite_point(a1_n2):
    spec, g = a1_n2
    trace = lf.trace_singular_curve(_seed_near(spec, g, definite_point(2)), spec, g)
    zs = trace.points
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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_arc_segments_match_loop_reference(n):
    # each A1 component is a great circle of the unit sphere, on which the
    # chord correction is exact
    spec, g = build_a1(n)
    for trace in lf.collect_components(lf.seed_singular_points(spec, g, rng_seed=42), spec, g):
        dim = 2 * n + 2
        tangents = trace.tangents[:, :dim]
        tangents = tangents / np.linalg.norm(tangents, axis=1, keepdims=True)
        segments = singular_set._arc_segments(trace.nodes[:, :dim], tangents)
        assert np.array_equal(segments, arc_segments_loop(trace.nodes[:, :dim], tangents))
        assert abs(trace.arc_length - 2 * np.pi) <= 1e-14


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


@pytest.mark.parametrize("seed", [42, 4, 5, 9, 13, 23, 26, 32])
def test_brieskorn_trace_is_one_lap(seed):
    # without the distance test the corrector jumps to a later lap of the
    # curve: 4,927 nodes at seeds 42 and 4, 5,000 nodes without closing at
    # seeds 5 and 9. Closing only when the node before the crossing lies
    # near the start ran a second lap at seeds 26 and 32 with steps in
    # augmented arclength, and at 13 and 23 with steps in z-arc length
    traces = pipeline_traces(2, seed, BRIESKORN_F)
    assert len(traces) == 2
    longest = max(traces, key=len)
    assert len(longest) < 2000
    # one lap turns the image 10 times about 0; oriented by the start
    # direction alone it turned -10 times at seeds 42, 4 and 5
    assert winding_number(longest.image) == pytest.approx(10.0, abs=1e-9)


def test_trace_out_of_node_budget_is_named_failure(a1_n2, tmp_path, capsys, monkeypatch):
    spec, g = a1_n2
    # an A1 component takes 35 nodes
    monkeypatch.setattr(singular_set, "_MAX_NODES", 10)
    with pytest.raises(NonConvergence, match="within 10 nodes"):
        lf.trace_singular_curve(_seed_near(spec, g, definite_point(2)), spec, g)
    assert main(["singular-set", "--n", "2", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "trace did not close within 10 nodes (gap to start" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("seed", [42, 3, 5])
@pytest.mark.parametrize("n", [2, 3])
def test_a1_images_turn_counterclockwise(n, seed):
    traces = pipeline_traces(n, seed)
    assert len(traces) == 2
    for trace in traces:
        assert winding_number(trace.image) == pytest.approx(1.0, abs=1e-9)


def test_trace_direction_ignores_seed_round_off(a1_n2):
    # a relative 1e-15 move of the seed flips the sign of the SVD's null
    # vector for some of these draws; the trace must not follow it
    spec, g = a1_n2
    seed = lf.seed_singular_points(spec, g, rng_seed=42)[0]
    reference = lf.trace_singular_curve(seed, spec, g)
    for draw in range(4):
        rng = np.random.default_rng(draw)
        moved = seed * (1.0 + 1e-15 * rng.standard_normal(seed.size))
        trace = lf.trace_singular_curve(moved, spec, g)
        assert len(trace) == len(reference)
        assert np.allclose(trace.nodes, reference.nodes, rtol=0.0, atol=1e-12)


def _trace_corrector_iterations(monkeypatch):
    """Record the corrector iterations of every trace step, one list per trace."""
    runs = []
    trace, corrector = singular_set.trace_singular_curve, AugmentedSystem.corrector

    def counted_trace(*args):
        runs.append([])
        return trace(*args)

    def counted_corrector(self, w0, extra):
        w, iters, ok = corrector(self, w0, extra)
        runs[-1].append(iters)
        return w, iters, ok

    monkeypatch.setattr(singular_set, "trace_singular_curve", counted_trace)
    monkeypatch.setattr(AugmentedSystem, "corrector", counted_corrector)
    return runs


@pytest.mark.parametrize("seed", [42, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_trace_node_and_iteration_counts_stay_bounded(n, seed, monkeypatch):
    # steps sized by the prediction's distance to the node: each A1 component
    # takes 35 nodes, and every step after the first 2 or 3 corrector
    # iterations from its second-order start. Grown to a cap of 0.1 epsilon
    # whenever it converged in 3 iterations, the step gave 64 nodes and 129
    # iterations per trace, whatever the curve's shape
    spec, g = build_a1(n)
    runs = _trace_corrector_iterations(monkeypatch)
    traces = lf.collect_components(lf.seed_singular_points(spec, g, rng_seed=seed), spec, g)
    assert len(traces) == len(runs) == 2
    assert all(len(trace) <= 35 for trace in traces)
    assert all(len(steps) > 1 and max(steps[1:]) <= 3 for steps in runs)
    assert all(sum(steps) < 129 for steps in runs)


@pytest.mark.parametrize("n, epsilon", [(1, 1.0), (2, 1.0), (3, 1.0), (4, 1.0), (2, 1e-3)])
def test_corrector_start_moves_no_node_beyond_tolerance(n, epsilon, monkeypatch):
    # the hyperplane's equation pins each node; correctors started at its
    # anchor, the Euler prediction, must find the same nodes. Compared in the
    # units (z / epsilon, a, b / epsilon), in which A1 nodes do not depend on
    # epsilon: there the corrector's absolute 1e-12 on the |z|^2 - epsilon^2
    # row is 1e-12 / epsilon^2 when epsilon < 1 (the Euler starts' nodes lay
    # 1.4e-10 of epsilon off the sphere at epsilon = 1e-3)
    spec, g = build_a1(n)
    spec = lf.LinkSpec(f=spec.f, n=n, epsilon=epsilon)
    units = np.r_[np.full(2 * n + 2, epsilon), 1.0, 1.0, epsilon, epsilon]
    seeds = lf.seed_singular_points(spec, g, rng_seed=42)
    reference = lf.collect_components(seeds, spec, g)
    trace, hyperplane = singular_set.trace_singular_curve, singular_set._hyperplane
    corrector = AugmentedSystem.corrector
    calls = []  # per trace: (tangent, anchor, corrected point) of each step

    def traced(*args):
        calls.append([])
        return trace(*args)

    def anchored(t, w_pred):
        extra = hyperplane(t, w_pred)
        extra.tangent, extra.anchor = t, w_pred
        return extra

    def from_anchor(self, w0, extra):
        w, iters, ok = corrector(self, extra.anchor, extra)
        calls[-1].append((extra.tangent, extra.anchor, w))
        return w, iters, ok

    monkeypatch.setattr(singular_set, "trace_singular_curve", traced)
    monkeypatch.setattr(singular_set, "_hyperplane", anchored)
    monkeypatch.setattr(AugmentedSystem, "corrector", from_anchor)
    euler = lf.collect_components(seeds, spec, g)
    assert len(euler) == len(reference) == 2
    for mine, theirs in zip(reference, euler):
        assert len(mine) == len(theirs)
        moved = np.max(np.abs(mine.nodes - theirs.nodes) / units)
        assert moved <= 1e-12 / min(1.0, epsilon) ** 2
    # the anchor stays the Euler prediction: a step with a new tangent leaves
    # the point the step before it accepted, along that tangent
    for steps in calls:
        for (t_before, _, node), (t, anchor, _) in zip(steps, steps[1:]):
            if not np.array_equal(t, t_before):
                ahead = anchor - node
                assert np.linalg.norm(ahead - (ahead @ t) * t) <= 1e-12 * np.linalg.norm(ahead)


# ---------------------------------------------------------------------------
# component collection
# ---------------------------------------------------------------------------


def test_collect_components_two_circles(traces_n2, traces_n3):
    for traces in (traces_n2, traces_n3):
        assert len(traces) == 2


@pytest.mark.parametrize(
    "n, f_text, seeds",
    [(2, None, (42, 3, 5)), (3, None, (42, 3, 5)), (2, BRIESKORN_F, (42, 4))],
    ids=["a1_n2", "a1_n3", "brieskorn"],
)
def test_component_order_does_not_depend_on_the_seed(n, f_text, seeds):
    # ordered by the first node, A1 at n = 2 listed the inner circle first at
    # seed 42 and second at seed 3, and the Brieskorn link its long component
    # first at seed 42 and second at seed 4
    counts = np.array([[len(t) for t in pipeline_traces(n, s, f_text)] for s in seeds])
    assert counts.shape == (len(seeds), 2)
    # the k-th component has about the same node count at every seed
    assert np.all(np.abs(counts - counts[0]) <= 0.01 * counts[0])


@pytest.mark.parametrize("seed", [1103, 1113])
def test_a2_seeding_finds_all_three_components(seed):
    # seeding's descent must stop short of the curve: run down to a rank
    # defect of 2e-2, it left every converged seed here on two of A2's
    # three components
    assert len(pipeline_traces(2, seed, "z1^2 + z2^2 + z3^3")) == 3


def test_component_peak_does_not_depend_on_the_seed():
    # the largest node |h| of the short Brieskorn component spanned 18
    # rounding units over these seeds; the interpolated peak must agree. The
    # key's z part only breaks ties: the long component reaches its peak at
    # symmetric cusps, and the seed decides which one the nodes sample best
    spec, g = lf.RunConfig(f_text=BRIESKORN_F, n=2).build()
    peaks = [
        [singular_set._component_key(t, spec, g)[0] for t in traces]
        for traces in (pipeline_traces(2, s, BRIESKORN_F) for s in (42, 4, 5, 9))
    ]
    assert len(peaks[0]) == 2
    assert peaks[0][0] < peaks[0][1]
    assert all(p == peaks[0] for p in peaks)


def test_collect_components_steps_scale_with_epsilon(monkeypatch):
    # a direct call follows the same epsilon-scaled policy as the pipeline
    monkeypatch.setattr(singular_set, "_SEED_SAMPLES", 24)
    config = lf.RunConfig(n=2, epsilon=10.0)
    spec, g, seeds, traces = lf.report.compute_components(config, *config.build())
    direct = lf.collect_components(seeds, spec, g)
    assert len(direct) == len(traces) == 2
    for mine, theirs in zip(direct, traces):
        assert np.array_equal(mine.nodes, theirs.nodes)


def test_collect_components_empty_seed_list(a1_n2):
    spec, g = a1_n2
    assert lf.collect_components([], spec, g) == []


def test_collect_components_duplicate_seeds(a1_n2, traces_n2, monkeypatch):
    spec, g = a1_n2
    monkeypatch.setattr(singular_set, "_SEED_SAMPLES", 24)
    seeds = lf.seed_singular_points(spec, g, rng_seed=13)
    doubled = lf.collect_components(np.vstack([seeds, seeds]), spec, g)
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
    _, hits = gradient_dependence_scan(spec, g, 42)
    assert len(hits) == 0
    assert lf.scan_gradient_dependence(spec, g) > 1e-3


@pytest.mark.parametrize("n", [2, 3])
def test_gradient_dependence_scan_finds_dependent_circle(n):
    # with g = z1 + i z2, gradbar g = (1, -i, 0, ...) is parallel to
    # gradbar f = 2 conj(z) on the link circle z = t (1, i, 0, ...)/sqrt(2)
    spec, _ = build_a1(n)
    g = lf.parse_poly("z1 + 1i*z2", n + 1)
    _, hits = gradient_dependence_scan(spec, g, 42)
    assert len(hits)
    for z in hits:
        assert abs(lf.eval_poly(spec.f, z)) <= 1e-12
        assert abs(np.linalg.norm(z) - spec.epsilon) <= 1e-12
        assert gradient_pair_defect(z, spec.f, g) <= 1e-8
    assert lf.scan_gradient_dependence(spec, g) <= 1e-15


def test_dependence_closed_form_needs_a1_and_affine_g(a1_n2):
    spec, g = a1_n2
    # a constant term moves no gradient
    assert lf.scan_gradient_dependence(spec, g + 1.0) == lf.scan_gradient_dependence(spec, g)
    with pytest.raises(NotApplicable, match="affine"):
        lf.scan_gradient_dependence(spec, g * g)
    a2 = lf.LinkSpec(f=lf.parse_poly("z1^2 + z2^2 + z3^3", 3), n=2)
    with pytest.raises(NotApplicable, match="f = z1"):
        lf.scan_gradient_dependence(a2, g)


# the linear g of the repository's examples: the paper's, the perturbed one and
# the Fermat pairs'; their least pair defects on the A1 link are 0.098 to 0.138
_LINEAR_G = {
    "paper": [1.0, 0.5j],
    "perturbed": [1.0, 0.5j, 0.1],
    "mixed": [0.3 + 0.7j, 0.45, -0.2 + 0.1j],
}


def _g_of(u):
    """g = u . z."""
    return lf.ComplexPoly(len(u), {tuple(np.eye(len(u), dtype=int)[j]): c
                                   for j, c in enumerate(u)})


def _linear_g(n, which):
    """g = u . z in n + 1 variables, with u padded by zeros, and u."""
    u = np.zeros(n + 1, dtype=complex)
    u[: len(_LINEAR_G[which])] = _LINEAR_G[which]
    return _g_of(u), u


def test_a1_closed_form_at_the_paper_g():
    assert a1_linear_min_pair_defect([1.0, 0.5j, 0.0], 1.0) == pytest.approx(
        0.1372231897106016, rel=1e-15
    )


@pytest.mark.parametrize("which", sorted(_LINEAR_G))
@pytest.mark.parametrize("n", [2, 3, 4])
def test_scan_min_defect_meets_a1_closed_form(n, which):
    # |gradbar f| = 2 epsilon on the A1 link, so the sampled scan's
    # endpoints, which minimise |gradbar g - c gradbar f|, also minimise the
    # pair defect. Gauss-Newton converges linearly, the slower the larger
    # that residual: where the least defect is above about 0.19, fifteen
    # rounds can stop short of 1e-11 (by up to 1e-6 relative at 0.27)
    for epsilon in (0.5, 0.7, 1.0):
        spec = lf.LinkSpec(f=build_a1(n)[0].f, n=n, epsilon=epsilon)
        g, u = _linear_g(n, which)
        closed = lf.scan_gradient_dependence(spec, g)
        assert closed == pytest.approx(a1_linear_min_pair_defect(u, epsilon), rel=1e-14)
        for seed in (42, 3):
            min_defect, hits = gradient_dependence_scan(spec, g, seed)
            assert len(hits) == 0
            assert closed == pytest.approx(min_defect, rel=1e-11, abs=0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_dependence_closed_form_is_exact_invariant_and_seed_free(n, tmp_path):
    rng = np.random.default_rng(n)
    spec, _ = build_a1(n)
    # u = x + i y with x, y orthogonal and of one length: sum u_j^2 = 0
    x, y = rng.standard_normal((2, n + 1))
    y -= (x @ y) / (x @ x) * x
    y *= np.linalg.norm(x) / np.linalg.norm(y)
    assert lf.scan_gradient_dependence(spec, _g_of(x + 1j * y)) <= 1e-15
    # the geometry does not change under a phase of g or a permutation of z
    u = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    defect = lf.scan_gradient_dependence(spec, _g_of(u))
    assert defect > 1e-3
    for moved in (np.exp(0.7j) * u, rng.permutation(u)):
        assert lf.scan_gradient_dependence(spec, _g_of(moved)) == pytest.approx(defect, rel=1e-14)
    # the report's section does not depend on the seed
    branches = []
    for seed in (42, 3, 5):
        config = RunConfig(n=n, rng_seed=seed, out_dir=str(tmp_path / str(seed)))
        branches.append(lf.run_verify_a1(config)[0]["degenerate_branch"])
    assert branches[0] == branches[1] == branches[2]
