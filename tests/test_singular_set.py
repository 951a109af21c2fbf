import functools

import numpy as np
import pytest

import linkfold as lf
import linkfold.singular_set as singular_set
from linkfold.cli import main
from linkfold.errors import EmptyResult, NonConvergence, WrongDimension
from linkfold.singular_set import AugmentedSystem, _ratio_gradient

from conftest import build_a1, definite_point, indefinite_point
from oracles import criterion_det, gradient_pair_defect, winding_number

SQRT2 = np.sqrt(2.0)
BRIESKORN_F = "z1^2 + z2^3 + z3^5"


@functools.cache
def _pipeline_traces(n, seed, f_text=None):
    """The pipeline's components at the default g, computed once per test run."""
    config = lf.RunConfig(f_text=f_text, n=n, rng_seed=seed)
    return lf.report.compute_components(config)[3]


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


@pytest.mark.parametrize("seed", [42, 4, 5, 9])
def test_brieskorn_trace_is_one_lap(seed):
    # without the distance test the corrector jumps to a later lap of the
    # 1,650-node curve: 4,927 nodes at seeds 42 and 4, 5,000 nodes without
    # closing at seeds 5 and 9
    traces = _pipeline_traces(2, seed, BRIESKORN_F)
    assert len(traces) == 2
    longest = max(traces, key=len)
    assert len(longest) < 2000
    # one lap turns the image 10 times about 0; oriented by the start
    # direction alone it turned -10 times at seeds 42, 4 and 5
    assert winding_number(longest.image) == pytest.approx(10.0, abs=1e-9)


def test_trace_out_of_node_budget_is_named_failure(a1_n2, tmp_path, capsys, monkeypatch):
    spec, g = a1_n2
    monkeypatch.setattr(singular_set, "_MAX_NODES", 30)
    with pytest.raises(NonConvergence, match="within 30 nodes"):
        lf.trace_singular_curve(_seed_near(spec, g, definite_point(2)), spec, g)
    assert main(["singular-set", "--n", "2", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "trace did not close within 30 nodes (gap to start" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("seed", [42, 3, 5])
@pytest.mark.parametrize("n", [2, 3])
def test_a1_images_turn_counterclockwise(n, seed):
    traces = _pipeline_traces(n, seed)
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
    counts = np.array([[len(t) for t in _pipeline_traces(n, s, f_text)] for s in seeds])
    assert counts.shape == (len(seeds), 2)
    # the k-th component has about the same node count at every seed
    assert np.all(np.abs(counts - counts[0]) <= 0.01 * counts[0])


def test_collect_components_steps_scale_with_epsilon(monkeypatch):
    # a direct call follows the same epsilon-scaled policy as the pipeline
    monkeypatch.setattr(singular_set, "_SEED_SAMPLES", 24)
    config = lf.RunConfig(n=2, epsilon=10.0)
    spec, g, seeds, traces = lf.report.compute_components(config)
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
    scan = lf.scan_gradient_dependence(spec, g, rng_seed=42)
    assert scan.points == []
    assert scan.min_defect > 1e-3


@pytest.mark.parametrize("n", [2, 3])
def test_gradient_dependence_scan_finds_dependent_circle(n):
    # with g = z1 + i z2, gradbar g = (1, -i, 0, ...) is parallel to
    # gradbar f = 2 conj(z) on the link circle z = t (1, i, 0, ...)/sqrt(2)
    spec, _ = build_a1(n)
    g = lf.parse_poly("z1 + 1i*z2", n + 1)
    scan = lf.scan_gradient_dependence(spec, g, rng_seed=42)
    assert scan.points
    for z in scan.points:
        assert abs(lf.eval_poly(spec.f, z)) <= 1e-12
        assert abs(np.linalg.norm(z) - spec.epsilon) <= 1e-12
        assert gradient_pair_defect(z, spec.f, g) <= 1e-8
