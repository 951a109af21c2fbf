import contextlib
import json
import re
import tempfile
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linkfold as lf
from linkfold.cli import main
from linkfold.polynomial import gradient
from linkfold.report import (
    ConfigError,
    RunConfig,
    load_config_file,
    make_config,
    run_morse,
    run_singular_set,
    validate_report,
    write_image_svg,
    write_singular_csv,
)

from oracles import a1_paper_locus_deviations

SQRT2 = np.sqrt(2.0)


@contextlib.contextmanager
def _fast_samples():
    """Fewer seeds than a run draws, for speed."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lf.singular_set, "_SEED_SAMPLES", 24)
        yield


@pytest.fixture
def fast_samples():
    with _fast_samples():
        yield


def _config(out_dir, **kwargs):
    return RunConfig(**{"n": 2, "out_dir": str(out_dir), **kwargs})


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        """
        # A1 example
        f = z1^2 + z2^2 + z3^2
        g = z1 + 0.5i*z2
        n = 2
        epsilon = 1.0
        seed = 7
        out = results
        """
    )
    values = load_config_file(cfg)
    config = make_config(values, {})
    assert config.rng_seed == 7
    assert config.out_dir == "results"
    assert config.f_text == "z1^2 + z2^2 + z3^2"


def test_config_flags_override_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 2\nseed = 7\n")
    config = make_config(load_config_file(cfg), {"rng_seed": 11, "n": None})
    assert config.rng_seed == 11
    assert config.n == 2


# the continuation policy, the solver tolerances and the sample sizes are
# constants, not keys
@pytest.mark.parametrize(
    "key",
    [
        "bogus", "tol_newton", "tol_singular", "step_init", "step_min", "step_max",
        "seed_samples", "equivariance_samples", "oracle_samples",
    ],
)
def test_config_unknown_key(tmp_path, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = 1\n")
    with pytest.raises(ConfigError):
        load_config_file(cfg)
    assert main(["verify-a1", "--config", str(cfg)]) == 2


def test_config_bad_polynomial():
    config = RunConfig(f_text="z1^2 +", n=2)
    with pytest.raises(ConfigError):
        config.build()


def test_config_defaults_to_a1():
    config = RunConfig(n=3)
    spec, g = config.build()
    assert spec.f.terms == lf.parse_poly("z1^2+z2^2+z3^2+z4^2", 4).terms
    assert g.terms == lf.parse_poly("z1 + 0.5i*z2", 4).terms


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def csv_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("csv_run")
    config = _config(out)
    with _fast_samples():
        path, traces = run_singular_set(config)
    return config, path, traces


def test_csv_structure(csv_run):
    _, path, traces = csv_run
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    assert header == [
        "component_id", "arc_param", "re_z1", "im_z1", "re_z2", "im_z2",
        "re_z3", "im_z3", "re_h", "im_h", "defect",
    ]
    assert len(lines) - 1 == sum(len(t) for t in traces)
    component_ids = {row.split(",")[0] for row in lines[1:]}
    assert component_ids == {"0", "1"}


def test_csv_defect_column_small(csv_run):
    _, path, _ = csv_run
    for row in path.read_text().splitlines()[1:]:
        assert float(row.split(",")[-1]) <= 1e-8


@pytest.mark.usefixtures("fast_samples")
def test_csv_rerun_byte_identical(csv_run, tmp_path):
    config, path, _ = csv_run
    rerun_config = _config(tmp_path / "again")
    rerun_path, _ = run_singular_set(rerun_config)
    assert rerun_path.read_bytes() == path.read_bytes()


# ---------------------------------------------------------------------------
# SVG output
# ---------------------------------------------------------------------------


def _svg_path_point_counts(svg_text):
    counts = []
    for d in re.findall(r'<path d="([^"]+)"', svg_text):
        counts.append(len(re.findall(r"[ML] [-0-9.]+ [-0-9.]+", d)))
    return counts


def test_svg_matches_csv_point_counts(csv_run, tmp_path):
    _, path, traces = csv_run
    svg_path = tmp_path / "image.svg"
    write_image_svg(svg_path, [t.image for t in traces], [0.35, 1.06])
    text = svg_path.read_text()
    counts = _svg_path_point_counts(text)
    assert counts == [len(t) for t in traces]


def test_svg_radius_annotations(csv_run, tmp_path):
    _, _, traces = csv_run
    svg_path = tmp_path / "image.svg"
    radii = sorted(
        float(np.mean(np.linalg.norm(t.image, axis=1))) for t in traces
    )
    write_image_svg(svg_path, [t.image for t in traces], radii)
    text = svg_path.read_text()
    assert "0.3536" in text
    assert "1.0607" in text


def test_svg_empty_trace_set(tmp_path):
    svg_path = tmp_path / "empty.svg"
    write_image_svg(svg_path, [], [])
    text = svg_path.read_text()
    assert "<path" not in text
    assert text.count("<line") == 2  # the two axes
    assert "<circle" in text  # origin marker


# ---------------------------------------------------------------------------
# morse.json
# ---------------------------------------------------------------------------


@pytest.mark.usefixtures("fast_samples")
def test_morse_json_n2(tmp_path):
    config = _config(tmp_path)
    path, payload = run_morse(config, theta=0.0, eta_angle=0.0)
    data = json.loads(path.read_text())
    slice_indices = sorted(r["morse_index"] for r in data["slice"]["records"])
    assert slice_indices == [1, 2]
    composed_indices = [r["morse_index"] for r in data["composed"]["records"]]
    assert sorted(composed_indices) == [0, 1, 2, 3]
    assert data["config"]["tolerances"]["dead_band"] == config.dead_band


# ---------------------------------------------------------------------------
# report schema
# ---------------------------------------------------------------------------


@pytest.mark.usefixtures("fast_samples")
def test_report_validates_against_schema(tmp_path):
    config = _config(tmp_path)
    report, code = lf.run_verify_a1(config)
    assert code == 0
    validate_report(report)
    on_disk = json.loads((tmp_path / "report.json").read_text())
    validate_report(on_disk)
    assert on_disk["config"]["tolerances"] == {
        "newton": 1e-12,
        "singular": 1e-8,
        "dead_band": 1e-5,
    }


_N1_LAYOUT = (
    ["n1_two_components", "n1_image_radii", "n1_injectivity_gap", "component_arc_lengths"],
    ["trace_image", "total"],
)
_FOLD_LAYOUT = (
    [
        "two_closed_components",
        "locus_higher_coordinates_vanish",
        "locus_on_diagonal_circles",
        "locus_moduli",
        "component_arc_lengths",
        "classification_consistent",
        "round_verdict",
        "image_radii",
        "outer_component_definite",
        "inner_component_indefinite",
        "slice_morse_indices",
        "slice_hessian_ratio_two_to_one",
        "composed_morse_indices",
        "composed_morse_values",
        "equivariance",
        "rotation_invariance_of_singular_set",
        "gradient_dependence_locus_empty",
        "oracle_agreement",
    ],
    ["seed_and_trace", "classification", "morse", "statistics", "total"],
)


@pytest.mark.usefixtures("fast_samples")
@pytest.mark.parametrize("n, layout", [(1, _N1_LAYOUT), (2, _FOLD_LAYOUT)])
def test_verify_a1_report_layout(tmp_path, n, layout):
    report, code = lf.run_verify_a1(_config(tmp_path, n=n))
    assert code == 0
    check_names, timing_keys = layout
    assert [c["name"] for c in report["checks"]] == check_names
    assert list(report["timings"]) == timing_keys


def _assert_radii_scale_with_epsilon(tmp_path, n, epsilon, atol=1e-12):
    # f is homogeneous and g linear: the image circles have radii
    # epsilon * sqrt(2)/4 and epsilon * 3 sqrt(2)/4
    report, code = lf.run_verify_a1(_config(tmp_path, n=n, epsilon=epsilon))
    assert code == 0, report["first_failed_check"]
    radii = report["n1_image" if n == 1 else "round"]["radii"]
    scaled = np.array(radii) / epsilon
    assert np.allclose(scaled, [SQRT2 / 4, 3 * SQRT2 / 4], rtol=0, atol=atol)


@pytest.mark.usefixtures("fast_samples")
@pytest.mark.parametrize("n, epsilon", [
    (2, 0.1), (2, 10.0), (1, 0.1), (2, 1.0), (1, 1.0), (1, 10.0),
])
def test_verify_a1_scales_with_epsilon(tmp_path, n, epsilon):
    _assert_radii_scale_with_epsilon(tmp_path, n, epsilon)


@pytest.mark.usefixtures("fast_samples")
@pytest.mark.parametrize(
    "n, epsilon", [(1, 1e-3), (2, 1e-3), (2, 1e-4)], ids=["1", "2", "2-1e-4"]
)
def test_verify_a1_scales_to_epsilon_1e_3(tmp_path, n, epsilon):
    # steps in z-arc length close the traces, and the slice ray floor scales
    # with epsilon, so the inner circle's slice points (|h| = 3.5e-4) stay.
    # The corrector holds the |z|^2 - epsilon^2 row to 1e-12 absolute, which
    # bounds |z| / epsilon - 1, and so radii / epsilon, by 1e-12 / (2 epsilon^2)
    # at epsilon = 1e-3. The branch-point test scales with epsilon^2: on A1
    # the seed's Jacobian singular value is 0.5 epsilon^2, 5e-9 at 1e-4,
    # which an absolute 1e-8 took for a branch point (exit 4)
    _assert_radii_scale_with_epsilon(tmp_path, n, epsilon, atol=5e-7)


@pytest.mark.parametrize(
    "n, epsilon", [(2, 100.0), (3, 100.0), (4, 100.0), (2, 1000.0), (3, 1000.0)]
)
def test_verify_a1_scales_to_epsilon_100(tmp_path, n, epsilon):
    # every Newton solve, seeding's included, is held to 1e-12 times
    # epsilon^2, above the rounding floor of the |z|^2 - epsilon^2 row; a
    # seeding solver held to an absolute 1e-13 found no seed at n = 3 here,
    # nor at epsilon = 1000. At n = 3 and epsilon = 1000 the corrector's
    # step cap must grow with epsilon too: seeding's first steps are about
    # 1.3 epsilon long, and under an absolute cap of 1e3 one circle went
    # unseeded
    _assert_radii_scale_with_epsilon(tmp_path, n, epsilon)


def test_verify_a1_injectivity_scales_with_epsilon(tmp_path):
    # at epsilon = 1e-5 the inner circle's closest non-adjacent image samples
    # lie 4.3e-7 apart, 0.04 epsilon, near the short first steps of the ramp:
    # an absolute 1e-6 read that as a crossing and failed round_verdict
    assert main(["verify-a1", "--n", "2", "--epsilon", "1e-5", "--out", str(tmp_path)]) == 0


def test_schema_rejects_malformed_report():
    import jsonschema

    report = {"config": {}, "mode": "fold_pipeline"}
    schema = json.loads(
        resources.files("linkfold.schemas").joinpath("report.schema.json").read_text("utf-8")
    )
    with pytest.raises(jsonschema.ValidationError) as reference:
        jsonschema.validate(instance=report, schema=schema)
    # repeated calls reuse one validator and raise the same error
    for _ in range(2):
        with pytest.raises(jsonschema.ValidationError) as raised:
            validate_report(report)
        assert str(raised.value) == str(reference.value)


# ---------------------------------------------------------------------------
# CLI entry point
# ---------------------------------------------------------------------------


def test_cli_config_error_exit_code(tmp_path):
    code = main(["singular-set", "--f", "z1^2 +", "--n", "2",
                 "--out", str(tmp_path)])
    assert code == 2


def test_cli_zero_f_is_configuration_error(tmp_path, capsys):
    # the zero polynomial cuts out no hypersurface, so there is no link
    code = main(["singular-set", "--f", "0", "--n", "2", "--out", str(tmp_path)])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("g_text", ["1", "0"])
def test_cli_constant_g_is_configuration_error(tmp_path, capsys, g_text):
    # a constant g has no singular curve: every link point is singular
    code = main(["singular-set", "--g", g_text, "--n", "2", "--out", str(tmp_path)])
    assert code == 2
    assert "g must be nonconstant" in capsys.readouterr().err


def test_cli_unwritable_out_is_configuration_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = main(["verify-a1", "--n", "1", "--out", str(blocker / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "Traceback" not in err
    # an artifact that cannot be written, here a report.json that is a
    # directory, once ended in an IsADirectoryError traceback and exit 1
    out = tmp_path / "out"
    (out / "report.json").mkdir(parents=True)
    code = main(["verify-a1", "--n", "1", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "report.json" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-a1", "--epsilon", "nan"],
        ["verify-a1", "--epsilon", "inf"],
        ["singular-set", "--epsilon", "nan"],
        ["morse", "--theta", "nan"],
        ["morse", "--eta-angle", "inf"],
    ],
    ids=["verify-a1-epsilon-nan", "verify-a1-epsilon-inf", "singular-set-epsilon-nan",
         "morse-theta-nan", "morse-eta-angle-inf"],
)
def test_cli_nonfinite_number_is_configuration_error(tmp_path, capsys, argv):
    _assert_configuration_error(tmp_path, capsys, argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-a1", "--seed", "-1"],
        ["verify-a1", "--epsilon", "1e300"],
        ["singular-set", "--epsilon", "1e200"],
        ["singular-set", "--g", "(" * 250 + "z1" + ")" * 250],
        ["verify-a1", "--epsilon", "1e-300"],
    ],
    ids=["verify-a1-negative-seed", "verify-a1-epsilon-square-overflows",
         "singular-set-epsilon-square-overflows", "singular-set-g-nested-too-deeply",
         "verify-a1-epsilon-square-underflows"],
)
def test_cli_invalid_input_is_configuration_error(tmp_path, capsys, argv):
    # each once ended in a traceback and exit 1: numpy's ValueError for the
    # seed, OverflowError from epsilon**2, RecursionError from the parser;
    # the square of 1e-300 is 0.0, which once exited 4 as degenerate geometry
    _assert_configuration_error(tmp_path, capsys, argv)


def _assert_configuration_error(tmp_path, capsys, argv):
    code = main([*argv, "--n", "2", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "configuration error" in err and "Traceback" not in err
    assert not any(tmp_path.iterdir())


def test_single_image_component_report_is_strict_json(tmp_path, capsys):
    # g = z1 maps both circles of the n = 1 A1 link onto one image circle:
    # two traced components whose image polylines lie on one circle. The
    # closed-form radii are epsilon/sqrt(2) twice, which the traced image
    # has, and no positive gap separates them
    code = main(["verify-a1", "--n", "1", "--g", "z1", "--out", str(tmp_path)])
    assert code == 3
    assert "n1_injectivity_gap" in capsys.readouterr().err

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    text = (tmp_path / "report.json").read_text(encoding="utf-8")
    report = json.loads(text, parse_constant=reject)
    assert report["first_failed_check"] == "n1_injectivity_gap"
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["n1_two_components"]["passed"]
    assert checks["n1_image_radii"]["passed"]
    assert not checks["n1_injectivity_gap"]["passed"]
    image = report["n1_image"]
    (r0, r1), (c0, c1) = image["radii"], image["centers"]
    assert abs(r0 - r1) <= 1e-9
    assert np.linalg.norm(np.subtract(c0, c1)) <= 1e-9
    # a node of one polyline on the circle lies within about half a chord of
    # the other's nodes, wherever the nodes fall
    rows = np.genfromtxt(tmp_path / "singular_set.csv", delimiter=",", names=True)
    chords = []
    for k in np.unique(rows["component_id"]):
        h = rows[rows["component_id"] == k]
        h = np.column_stack([h["re_h"], h["im_h"]])
        chords.append(np.max(np.linalg.norm(np.roll(h, -1, axis=0) - h, axis=1)))
    assert len(chords) == 2
    assert 0 < image["min_intercomponent_distance"] <= 0.5 * max(chords)


def test_cli_fold_type_changing_along_components_is_degenerate(tmp_path, capsys):
    # with a quadratic term in g the fold type changes along three of the
    # components (test_quadratic_g_components_are_degenerate), and no closed
    # form of verify-a1 holds: it rejects the g as a configuration error
    out = tmp_path / "out"
    code = main(["verify-a1", "--n", "2", "--g", "z1 + 0.5i*z2 + 0.8*z2^2",
                 "--seed", "42", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "needs a linear g" in err and "Traceback" not in err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_arc_lengths_accept_what_the_locus_checks_accept(n):
    # at epsilon = 1e-4 the corrector's absolute residual floor leaves nodes
    # up to about 4e-9 epsilon off the sphere; a trace whose nodes pass the
    # locus checks must pass component_arc_lengths too
    for seed in range(10):
        config = RunConfig(n=n, rng_seed=seed, epsilon=1e-4)
        spec, g = config.build()
        traces = (lf.morse.trace_image_n1(spec, g, seed) if n == 1
                  else lf.report.compute_components(config, spec, g)[3])
        _, _, _, p, q = lf.singular_set._a1_linear_form(spec, g)
        nodes = np.concatenate([trace.points for trace in traces])
        checks = [*lf.report._locus_checks(nodes, spec.epsilon, p, q),
                  lf.report._arc_length_check(traces, spec.epsilon)]
        assert all(c["passed"] for c in checks), (seed, checks)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("epsilon", [1.0, 1e4])
def test_locus_checks_match_the_coordinate_loop_at_the_paper_g(n, epsilon):
    # at the paper's g the plane's p and q are e1 and e2 exactly, so the array
    # code must give the node loop's values bit for bit
    config = RunConfig(n=n, epsilon=epsilon)
    spec, g = config.build()
    traces = (lf.morse.trace_image_n1(spec, g, 42) if n == 1
              else lf.report.compute_components(config, spec, g)[3])
    _, _, _, p, q = lf.singular_set._a1_linear_form(spec, g)
    nodes = np.concatenate([trace.points for trace in traces])
    checks = lf.report._locus_checks(nodes, epsilon, p, q)
    assert [c["achieved"] for c in checks] == list(a1_paper_locus_deviations(traces, epsilon))


def _assert_a1_closed_forms(config):
    """verify-a1 exits 0 on A1 with g = u . z, and its radii and slice ratio are the closed forms.

    With s1 >= s2 the singular values of [Re u; Im u], the image circles have
    radii epsilon (s1 -+ s2)/sqrt(2), and the definite slice Hessian has
    eigenvalue ratio s1/s2. Returns (s1, s2).
    """
    u = gradient(config.build()[1], np.zeros(config.n + 1))
    s1, s2 = np.linalg.svd(np.vstack([u.real, u.imag]), compute_uv=False)
    report, code = lf.run_verify_a1(config)
    assert code == 0, (config.g_text, config.rng_seed, report["first_failed_check"])
    radii = report["n1_image" if config.n == 1 else "round"]["radii"]
    assert np.allclose(radii, [(s1 - s2) / SQRT2, (s1 + s2) / SQRT2], rtol=0, atol=1e-6)
    if config.n > 1:
        (ratio,) = [c["achieved"] for c in report["checks"]
                    if c["name"] == "slice_hessian_ratio_two_to_one"]
        assert abs(ratio - s1 / s2) <= 1e-3
    return s1, s2


# the 0.999i and 0.9995i g have inner circles of radius 7.1e-4 and 3.5e-4
# epsilon, whose slice points a cut at ray parameter 1e-3 epsilon dropped;
# the last g, found among random u, has s1 > 3 s2: the n = 1 gap between
# the image circles is then below the inner radius
_LINEAR_G = [
    (2, "z1 + 0.8i*z2"),
    (2, "z1 + 0.5i*z3"),
    (3, "0.5i*z2 + z4"),
    (3, "(0.9-0.2i)*z1 + (0.1+0.6i)*z2 + 0.3i*z3 + 0.2*z4"),
    (4, "z1 + 0.3i*z2"),
    (2, "z1 + 0.999i*z2"),
    (3, "z1 + 0.999i*z2"),
    (2, "z1 + 0.9995i*z2"),
    (3, "z1 + 0.9995i*z2"),
    (1, "(0.7252-0.2512i)*z1 + (-1.1753+1.1585i)*z2"),
]


@pytest.mark.parametrize("n, g_text", _LINEAR_G)
def test_verify_a1_closed_forms_hold_for_every_linear_g(tmp_path, n, g_text):
    s1, s2 = _assert_a1_closed_forms(_config(tmp_path, n=n, g_text=g_text))
    if n == 1:
        assert s1 > 3.0 * s2


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(n=st.sampled_from([2, 3]), ratio=st.floats(1e-3, 0.9995),
       phase=st.floats(0.0, 2.0 * np.pi), scale=st.floats(0.5, 2.0),
       plane=st.integers(0, 2**32 - 1), seed=st.integers(0, 999))
def test_verify_a1_closed_forms_hold_across_the_parameter_space(n, ratio, phase, scale,
                                                                plane, seed):
    # u = scale e^{i phase} (p + i ratio q), with (p, q) an orthonormal real
    # pair, has s2/s1 = ratio; up to 0.9995, short of where seeding misses
    # the inner circle (z1 + 0.9999i*z2 below)
    p, q = np.linalg.qr(np.random.default_rng(plane).normal(size=(n + 1, 2)))[0].T
    u = scale * np.exp(1j * phase) * (p + 1j * ratio * q)
    unit = np.eye(n + 1, dtype=int)
    g = lf.ComplexPoly(n + 1, {tuple(unit[j]): c for j, c in enumerate(u)})
    with tempfile.TemporaryDirectory() as out:
        config = RunConfig(n=n, g_text=lf.poly_to_string(g), rng_seed=seed, out_dir=out)
        s1, s2 = _assert_a1_closed_forms(config)
    assert s2 / s1 == pytest.approx(ratio, rel=1e-9)


@pytest.mark.parametrize("n", [2, 3])
def test_seeding_misses_the_inner_circle_next_to_equal_singular_values(tmp_path, n):
    # at s2/s1 = 0.9999 the inner circle has radius 7.1e-5 epsilon, and no
    # converged seed lands on it: the run names the missing component
    report, code = lf.run_verify_a1(_config(tmp_path, n=n, g_text="z1 + 0.9999i*z2"))
    assert code == 3
    assert report["first_failed_check"] == "two_closed_components"


# A1 with g = u . z, where a lane's two fronts landed side by side, closer
# than the facing test can judge, and ran on for 2 to 22 laps
_LAPPING_G = [
    (3, "(-0.6425+1.5372i)*z1 + (-1.2631+0.0914i)*z2 + (-0.7296-0.8475i)*z3"
        " + (-0.0022+1.8706i)*z4", 42),
    (3, "(-0.6425+1.5372i)*z1 + (-1.2631+0.0914i)*z2 + (-0.7296-0.8475i)*z3"
        " + (-0.0022+1.8706i)*z4", 5),
    (4, "(-1.0278+0.0869i)*z1 + (0.1020+1.0260i)*z2 + (-0.5323-0.2597i)*z3"
        " + (-1.6747-0.7166i)*z4 + (0.2242-0.8608i)*z5", 42),
    (4, "(-1.0278+0.0869i)*z1 + (0.1020+1.0260i)*z2 + (-0.5323-0.2597i)*z3"
        " + (-1.6747-0.7166i)*z4 + (0.2242-0.8608i)*z5", 3),
    (2, "(-0.7931+1.3958i)*z1 + (0.2406+0.6383i)*z2 + (-1.8963-0.2920i)*z3", 42),
    (2, "(0.6418+1.3482i)*z1 + (1.8246-1.2300i)*z2 + (-0.7132+0.1750i)*z3", 42),
    (2, "(-0.8258+0.7197i)*z1 + (1.4443+2.1835i)*z2 + (0.5939-0.8159i)*z3", 42),
    (2, "(-0.5933+0.1697i)*z1 + (0.2571-1.7408i)*z2 + (-1.2169-0.6988i)*z3", 42),
    (2, "(1.1185+1.0390i)*z1 + (-0.4584+0.7203i)*z2 + (-0.6815+1.3904i)*z3", 42),
    (2, "(0.9398-0.9203i)*z1 + (-0.9420+0.7887i)*z2 + (2.6635+0.7431i)*z3", 42),
    (3, "(-3.7474+0.7781i)*z1 + (0.5573+0.2657i)*z2 + (0.1149+0.2040i)*z3"
        " + (-0.3696-1.4836i)*z4", 42),
]


@pytest.mark.parametrize("n, g_text, seed", _LAPPING_G)
def test_fronts_that_land_side_by_side_join(tmp_path, n, g_text, seed):
    # each A1 component is one great circle, 2 pi epsilon long: a lap more
    # shows as a length of 4 pi or more
    report, code = lf.run_verify_a1(_config(tmp_path, n=n, g_text=g_text, rng_seed=seed))
    assert code == 0, report["first_failed_check"]
    lengths = [c["arc_length"] for c in report["components"]]
    assert len(lengths) == 2
    for length in lengths:
        assert abs(length - 2.0 * np.pi) <= 2.0 * np.pi * lf.report._LOCUS_TOL


@pytest.mark.usefixtures("fast_samples")
def test_degenerate_classification_exits_4(tmp_path, monkeypatch):
    # a component whose fold type changes between nodes is degenerate
    # geometry: the run exits 4, not 3, though checks fail
    classify = lf.report.classify_component

    def degenerate(trace, spec, g, component_id):
        return replace(classify(trace, spec, g, component_id), kind=lf.FoldKind.DEGENERATE,
                       absolute_index=None, negative_eigenvalues=None, consistent=False)

    monkeypatch.setattr(lf.report, "classify_component", degenerate)
    assert main(["verify-a1", "--n", "2", "--out", str(tmp_path)]) == 4
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert report["round"]["failed_check"] == "degenerate_fold"


def _verify(tmp_path, n, g_text=RunConfig.g_text, seed=42, epsilon=1.0):
    """A verify-a1 run that exits 0: its report, and its nodes' z and h from singular_set.csv."""
    out = tmp_path / str(len(list(tmp_path.iterdir())))
    config = RunConfig(n=n, g_text=g_text, rng_seed=seed, epsilon=epsilon, out_dir=str(out))
    report, code = lf.run_verify_a1(config)
    assert code == 0, (g_text, seed, epsilon, report["first_failed_check"])
    rows = np.genfromtxt(out / "singular_set.csv", delimiter=",", names=True)
    z = np.column_stack([rows[f"re_z{j}"] + 1j * rows[f"im_z{j}"] for j in range(1, n + 2)])
    return report, z, rows["re_h"] + 1j * rows["im_h"]


def _morse_values(report):
    """Radii, composed values, slice eigenvalues, Morse indices and slice ratio of a report."""
    composed = sorted(report["morse"]["composed_records"], key=lambda r: r["value"])
    slices = sorted(report["morse"]["slice_records"],
                    key=lambda r: (r["morse_index"], r["value"]))
    (ratio,) = [c["achieved"] for c in report["checks"]
                if c["name"] == "slice_hessian_ratio_two_to_one"]
    return {
        "radii": np.array(report["round"]["radii"]),
        "composed": np.array([r["value"] for r in composed]),
        "slice_eigenvalues": np.array([r["hessian_eigenvalues"] for r in slices]),
        "indices": [r["morse_index"] for r in composed + slices],
        "ratio": ratio,
    }


@pytest.mark.parametrize("n", [2, 3])
def test_verify_a1_metamorphic_matrix(tmp_path, n):
    # relations of the A1 problem at the paper's g, seed 42 and epsilon = 1
    # (Segura et al., "A survey on metamorphic testing", IEEE TSE 42(9), 2016)
    base, z, h = _verify(tmp_path, n)
    values = _morse_values(base)
    # g times a unit phase c: the singular set is the same, and so are the
    # nodes; the image turns by c
    for phase, g_text in [(0.6 + 0.8j, "(0.6+0.8i)*z1 + (-0.4+0.3i)*z2"),
                          (-1.0, "-z1 - 0.5i*z2"), (1j, "1i*z1 - 0.5*z2")]:
        _, z_c, h_c = _verify(tmp_path, n, g_text)
        assert z_c.shape == z.shape and np.max(np.abs(z_c - z)) <= 1e-12
        assert np.max(np.abs(h_c - phase * h)) <= 1e-12
    # the variables of g permuted: f is symmetric in them, so no value moves
    permuted = _morse_values(_verify(tmp_path, n, f"z{n + 1} + 0.5i*z{n}")[0])
    assert permuted["indices"] == values["indices"]
    for key in ("radii", "composed", "slice_eigenvalues", "ratio"):
        assert np.max(np.abs(permuted[key] - values[key])) <= 1e-9, key
    # epsilon rescaled: radii and composed values scale with epsilon, to the
    # 1e-12 / (2 epsilon^2) that the corrector's floor allows at 1e-3; the
    # Morse indices and the slice ratio stay
    for epsilon in (1e-3, 1e3):
        scaled = _morse_values(_verify(tmp_path, n, epsilon=epsilon)[0])
        assert scaled["indices"] == values["indices"]
        assert abs(scaled["ratio"] - values["ratio"]) <= 1e-9
        for key in ("radii", "composed"):
            assert np.max(np.abs(scaled[key] / epsilon - values[key])) <= 5e-7, (epsilon, key)
    # another seed: the same verdicts, and radii within 1e-9 epsilon
    for seed in (3, 5):
        other = _verify(tmp_path, n, seed=seed)[0]
        assert [c["passed"] for c in other["checks"]] == [c["passed"] for c in base["checks"]]
        assert np.max(np.abs(_morse_values(other)["radii"] - values["radii"])) <= 1e-9


def test_cli_dependent_gradients_fail_the_scan(tmp_path, capsys):
    # g = z1 + i z2 has gradbar g parallel to gradbar f on the A1 link circle
    # z = t (1, i, 0)/sqrt(2), so the degenerate branch meets the link
    code = main(["verify-a1", "--n", "2", "--g", "z1 + 1i*z2", "--out", str(tmp_path)])
    assert code == 3
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    validate_report(report)
    (check,) = [c for c in report["checks"]
                if c["name"] == "gradient_dependence_locus_empty"]
    assert not check["passed"]
    assert check["achieved"] == report["degenerate_branch"]["min_pair_defect"] <= 1e-15


def test_cli_unknown_config_key_exit_code(tmp_path, capsys):
    # a file that is not UTF-8 cannot be read as a config file: it once ended
    # in a UnicodeDecodeError traceback and exit 1
    cfg = tmp_path / "bad.cfg"
    for content in (b"nope = 3\n", bytes(range(128, 228))):
        cfg.write_bytes(content)
        code = main(["verify-a1", "--config", str(cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "Traceback" not in err


@pytest.mark.parametrize("key", ["hessian_step", "dead_band"])
def test_cli_hessian_step_key_is_rejected(tmp_path, key):
    # Hessians are analytic and the dead band is a constant: neither is a
    # setting any more
    cfg = tmp_path / "old.cfg"
    cfg.write_text(f"{key} = 1e-4\n")
    code = main(["verify-a1", "--config", str(cfg)])
    assert code == 2


def test_cli_singular_set_runs(tmp_path, capsys):
    code = main(["singular-set", "--n", "2", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "singular_set.csv").exists()
    assert "2 components" in capsys.readouterr().out


def test_cli_image_svg_runs(tmp_path):
    # the image is drawn by singular-set, next to the CSV it writes
    code = main(["singular-set", "--n", "2", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "singular_set.csv").exists()
    assert (tmp_path / "image.svg").exists()


def test_cli_verify_a1_at_epsilon_100(tmp_path, capsys):
    # exited 3 when seeding, held to an absolute 1e-13, found no seed
    code = main(["verify-a1", "--n", "3", "--epsilon", "100", "--out", str(tmp_path)])
    assert code == 0, capsys.readouterr().err
    assert (tmp_path / "report.json").exists()


def test_cli_verify_a1_at_epsilon_1e4(tmp_path, capsys):
    # exited 3 on equivariance alone: |h(alpha z) - alpha h(z)| rounds to
    # about 2e-12 at |z| = 1e4, against a tolerance that did not scale with epsilon
    code = main(["verify-a1", "--n", "2", "--epsilon", "1e4", "--out", str(tmp_path)])
    assert code == 0, capsys.readouterr().err


@pytest.mark.parametrize("stuck_at", [1.0, 0.0], ids=["never-singular", "always-singular"])
def test_oracle_agreement_fails_a_stuck_direct_test(tmp_path, monkeypatch, stuck_at):
    # the check reads the direct test on the traced curve and beside it, so
    # a test stuck at either verdict fails it; read at random link points
    # only, none near the curve, one stuck at "never singular" passed
    monkeypatch.setattr(lf.report, "direct_singularity_test",
                        lambda z, spec, g: np.full(len(z), stuck_at))
    code = main(["verify-a1", "--n", "2", "--out", str(tmp_path)])
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert code == 3
    assert report["first_failed_check"] == "oracle_agreement"


def _shifted(record, shift):
    # an index below 0 would fail the report schema before any check is read
    return replace(record, morse_index=max(record.morse_index + shift, 0))


def _one_more_fold(node_folds):
    negative, degenerate, reversal = node_folds
    return negative + 1, degenerate, reversal


# each mutant wraps the real function; a report blind to it would exit 0
_MUTANTS = [
    pytest.param(lf.report, "collect_components",
                 lambda real: lambda *args: real(*args)[:-1],
                 "two_closed_components", id="lost-component"),
    pytest.param(lf.morse, "slice_morse_index",
                 lambda real: lambda *args: _shifted(real(*args), 1),
                 "slice_morse_indices", id="slice-index-plus-1"),
    pytest.param(lf.morse, "composed_morse",
                 lambda real: lambda *args: [_shifted(r, -1) for r in real(*args)],
                 "composed_morse_indices", id="composed-indices-minus-1"),
    pytest.param(lf.fold_classify, "_node_folds",
                 lambda real: lambda *args: _one_more_fold(real(*args)),
                 "outer_component_definite", id="fold-count-plus-1"),
    # every tangent the first one's: no turn, so the chords go uncorrected
    pytest.param(lf.singular_set, "_arc_segments",
                 lambda real: lambda nodes, tangents:
                     real(nodes, np.broadcast_to(tangents[0], tangents.shape)),
                 "component_arc_lengths", id="arc-chords-uncorrected"),
]


@pytest.mark.parametrize("module, name, mutate, check", _MUTANTS)
def test_verify_a1_names_the_check_a_mutant_fails(tmp_path, monkeypatch, module,
                                                  name, mutate, check):
    # a wrong component count, Morse index, fold count or arc length must
    # fail verify-a1 with a named check, not pass it
    monkeypatch.setattr(module, name, mutate(getattr(module, name)))
    code = main(["verify-a1", "--n", "2", "--out", str(tmp_path)])
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert code == 3
    assert report["first_failed_check"] == check


def test_verify_a1_report_that_breaks_its_schema_exits_3(tmp_path, monkeypatch, capsys):
    # the composed-index mutant without the floor at 0: its index-0 record
    # reads -1, which the schema forbids. It raised jsonschema's
    # ValidationError out of main, a traceback with no exit code
    real = lf.morse.composed_morse
    monkeypatch.setattr(lf.morse, "composed_morse",
                        lambda *args: [replace(r, morse_index=r.morse_index - 1)
                                       for r in real(*args)])
    code = main(["verify-a1", "--n", "2", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 3
    assert ("report breaks its schema at $.morse.composed_records[0].morse_index: "
            "-1 is less than the minimum of 0") in err
    assert "Traceback" not in err
    assert not (tmp_path / "report.json").exists()


def test_cli_verify_a1_rejects_other_f(tmp_path, capsys):
    # verify-a1 holds the run to the A1 closed forms, so it must not trace
    # the A1 polynomial in place of the f it was given
    code = main(["verify-a1", "--n", "2", "--f", "z1^2 + z2^3 + z3^5",
                 "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "configuration error" in err
    assert not (tmp_path / "report.json").exists()


def test_cli_morse_runs(tmp_path):
    code = main(["morse", "--n", "2", "--out", str(tmp_path), "--theta", "0.0"])
    assert code == 0
    assert (tmp_path / "morse.json").exists()


@pytest.mark.parametrize("theta, seed", [
    ("0.7853981633974483", "3"), ("3.9269908169872414", "42"),
])
def test_cli_morse_at_epsilon_100(tmp_path, capsys, theta, seed):
    # held to an absolute 1e-12, a link projection stopped at 1.819e-12, one
    # rounding unit of epsilon^2 = 1e4, and these runs exited 3
    code = main(["morse", "--n", "2", "--epsilon", "100", "--theta", theta,
                 "--seed", seed, "--out", str(tmp_path)])
    assert code == 0, capsys.readouterr().err
    assert (tmp_path / "morse.json").exists()


@pytest.mark.parametrize("command", ["singular-set", "morse"])
def test_cli_n1_is_configuration_error(tmp_path, capsys, command):
    # the singular set is only traced for n >= 2; n = 1 must not crash
    code = main([command, "--n", "1", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "configuration error" in err
    assert "Traceback" not in err


def test_cli_warns_on_large_epsilon_inhomogeneous(tmp_path, capsys):
    # no positive weights make z1^2 and z1^3 both of weighted degree 1
    code = main([
        "singular-set", "--f", "z1^2 + z2^2 + z3^2 + z1^3", "--g", "z1 + 0.5i*z2",
        "--n", "2", "--epsilon", "0.9", "--seed", "3",
        "--out", str(tmp_path),
    ])
    err = capsys.readouterr().err
    assert "not homogeneous" in err
    assert code in (0, 3, 4)


def test_cli_no_warning_for_weighted_homogeneous_f(tmp_path, capsys):
    # z1^2 + z2^3 + z3^5 has weights (1/2, 1/3, 1/5): its link is the same
    # at every epsilon
    code = main([
        "singular-set", "--f", "z1^2 + z2^3 + z3^5", "--n", "2",
        "--epsilon", "1", "--out", str(tmp_path),
    ])
    assert code == 0
    assert "warning" not in capsys.readouterr().err
