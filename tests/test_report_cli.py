import json
import re

import numpy as np
import pytest

import linkfold as lf
from linkfold.cli import main
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

SQRT2 = np.sqrt(2.0)


def _fast_config(out_dir, **kwargs):
    values = dict(
        n=2, seed_samples=24, oracle_samples=200, equivariance_samples=100,
        out_dir=str(out_dir),
    )
    values.update(kwargs)
    return RunConfig(**values)


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
    config = make_config(values)
    assert config.rng_seed == 7
    assert config.out_dir == "results"
    assert config.f_text == "z1^2 + z2^2 + z3^2"


def test_config_flags_override_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 2\nseed = 7\n")
    config = make_config(load_config_file(cfg), {"rng_seed": 11, "n": None})
    assert config.rng_seed == 11
    assert config.n == 2


def test_config_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus = 1\n")
    with pytest.raises(ConfigError):
        load_config_file(cfg)


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
    config = _fast_config(out)
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


def test_csv_rerun_byte_identical(csv_run, tmp_path):
    config, path, _ = csv_run
    rerun_config = _fast_config(tmp_path / "again")
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


def test_morse_json_n2(tmp_path):
    config = _fast_config(tmp_path)
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


def test_report_validates_against_schema(tmp_path):
    config = _fast_config(tmp_path)
    report, code = lf.run_verify_a1(config)
    assert code == 0
    validate_report(report)
    on_disk = json.loads((tmp_path / "report.json").read_text())
    validate_report(on_disk)
    assert on_disk["config"]["tolerances"] == {
        "newton": config.tol_newton,
        "singular": config.tol_singular,
        "dead_band": config.dead_band,
    }


def test_schema_rejects_malformed_report():
    import jsonschema

    with pytest.raises(jsonschema.ValidationError):
        validate_report({"config": {}, "mode": "fold_pipeline"})


# ---------------------------------------------------------------------------
# CLI entry point
# ---------------------------------------------------------------------------


def test_cli_config_error_exit_code(tmp_path):
    code = main(["singular-set", "--f", "z1^2 +", "--n", "2",
                 "--out", str(tmp_path)])
    assert code == 2


def test_cli_unknown_config_key_exit_code(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nope = 3\n")
    code = main(["verify-a1", "--config", str(cfg)])
    assert code == 2


def test_cli_hessian_step_key_is_rejected(tmp_path):
    # Hessians are analytic; the old finite-difference step is no setting
    cfg = tmp_path / "old.cfg"
    cfg.write_text("hessian_step = 1e-4\n")
    code = main(["verify-a1", "--config", str(cfg)])
    assert code == 2


def test_cli_singular_set_runs(tmp_path, capsys):
    code = main(["singular-set", "--n", "2", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "singular_set.csv").exists()
    assert "2 components" in capsys.readouterr().out


def test_cli_image_svg_runs(tmp_path):
    code = main(["image-svg", "--n", "2", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "image.svg").exists()


def test_cli_morse_runs(tmp_path):
    code = main(["morse", "--n", "2", "--out", str(tmp_path), "--theta", "0.0"])
    assert code == 0
    assert (tmp_path / "morse.json").exists()


@pytest.mark.parametrize("command", ["singular-set", "image-svg", "morse"])
def test_cli_n1_is_configuration_error(tmp_path, capsys, command):
    # the singular set is only traced for n >= 2; n = 1 must not crash
    code = main([command, "--n", "1", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "configuration error" in err
    assert "Traceback" not in err


def test_cli_warns_on_large_epsilon_inhomogeneous(tmp_path, capsys):
    code = main([
        "singular-set", "--f", "z1^2 + z2^2 + z3^3", "--g", "z1 + 0.5i*z2",
        "--n", "2", "--epsilon", "0.9", "--seed", "3",
        "--out", str(tmp_path),
    ])
    err = capsys.readouterr().err
    assert "not homogeneous" in err
    assert code in (0, 3, 4)
