"""Run configuration, verification pipelines, and artifact writers.

The pipeline entry points mirror the CLI commands: compute the singular
components, classify them, run the round / Morse / equivariance checks and
emit report.json, singular_set.csv, image.svg and morse.json. Every check
in the report carries the achieved value and the tolerance it was held to.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path

import numpy as np

from . import morse as morse_mod
from .errors import LinkFoldError, NotApplicable
from .fold_classify import (
    FoldKind,
    circle_fit,
    classify_component,
    equivariance_error,
    verify_round,
)
from .geometry import LinkSpec, sample_link_points
from .polynomial import parse_poly
from .singular_set import (
    collect_components,
    criterion_rank_defect,
    direct_singularity_test,
    scan_gradient_dependence,
    seed_singular_points,
)

__all__ = [
    "RunConfig",
    "ConfigError",
    "load_config_file",
    "compute_components",
    "run_verify_a1",
    "run_singular_set",
    "run_image_svg",
    "run_morse",
    "write_singular_csv",
    "write_image_svg",
    "write_report_json",
    "validate_report",
    "SQRT2_OVER_4",
    "THREE_SQRT2_OVER_4",
]

SQRT2_OVER_4 = np.sqrt(2.0) / 4.0
THREE_SQRT2_OVER_4 = 3.0 * np.sqrt(2.0) / 4.0


class ConfigError(LinkFoldError):
    """Invalid run configuration (bad polynomial text, bad key, bad value)."""


def _a1_f_text(n):
    return " + ".join(f"z{j}^2" for j in range(1, n + 2))


@dataclass
class RunConfig:
    """Everything a pipeline run depends on, echoed verbatim into reports."""

    f_text: str | None = None  # None: sum of squares in n + 1 variables
    g_text: str = "z1 + 0.5i*z2"
    n: int = 2
    epsilon: float = 1.0
    rng_seed: int = 42
    tol_newton: float = 1e-12
    tol_singular: float = 1e-8
    dead_band: float = 1e-5
    step_init: float = 0.05
    step_min: float = 1e-4
    step_max: float = 1e-1
    seed_samples: int = 64
    equivariance_samples: int = 1000
    oracle_samples: int = 1500
    out_dir: str = "out"
    # no longer a setting; perfbench/workloads.py still passes it on
    hessian_step = None

    def resolved_f_text(self):
        return self.f_text if self.f_text is not None else _a1_f_text(self.n)

    def build(self):
        """Parse the polynomials and return (LinkSpec, g)."""
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        if self.epsilon <= 0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")
        try:
            f = parse_poly(self.resolved_f_text(), self.n + 1)
            g = parse_poly(self.g_text, self.n + 1)
        except LinkFoldError as exc:
            raise ConfigError(f"polynomial parse failure: {exc}") from exc
        try:
            spec = LinkSpec(f=f, n=self.n, epsilon=self.epsilon)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return spec, g

    def echo(self):
        """JSON-friendly snapshot of the configuration, tolerances included."""
        return {
            "f": self.resolved_f_text(),
            "g": self.g_text,
            "n": self.n,
            "epsilon": self.epsilon,
            "rng_seed": self.rng_seed,
            "tolerances": {
                "newton": self.tol_newton,
                "singular": self.tol_singular,
                "dead_band": self.dead_band,
            },
            "continuation": {
                "step_init": self.step_init,
                "step_min": self.step_min,
                "step_max": self.step_max,
            },
            "samples": {
                "seeds": self.seed_samples,
                "equivariance": self.equivariance_samples,
                "oracle": self.oracle_samples,
            },
            "out_dir": self.out_dir,
        }


_CONFIG_KEYS = {
    "f": ("f_text", str),
    "g": ("g_text", str),
    "n": ("n", int),
    "epsilon": ("epsilon", float),
    "seed": ("rng_seed", int),
    "rng_seed": ("rng_seed", int),
    "tol_newton": ("tol_newton", float),
    "tol_singular": ("tol_singular", float),
    "dead_band": ("dead_band", float),
    "step_init": ("step_init", float),
    "step_min": ("step_min", float),
    "step_max": ("step_max", float),
    "seed_samples": ("seed_samples", int),
    "equivariance_samples": ("equivariance_samples", int),
    "oracle_samples": ("oracle_samples", int),
    "out": ("out_dir", str),
    "out_dir": ("out_dir", str),
}


def load_config_file(path):
    """Read a flat key = value config file into a dict of RunConfig fields."""
    values = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        attr, cast = _CONFIG_KEYS[key]
        try:
            values[attr] = cast(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    return values


def make_config(file_values=None, overrides=None):
    values = {}
    values.update(file_values or {})
    values.update({k: v for k, v in (overrides or {}).items() if v is not None})
    valid = {f.name for f in fields(RunConfig)}
    unknown = set(values) - valid
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    return RunConfig(**values)


# ---------------------------------------------------------------------------
# shared computation
# ---------------------------------------------------------------------------


def compute_components(config, spec=None, g=None):
    """Seed and trace the singular components for the configured problem."""
    if spec is None or g is None:
        spec, g = config.build()
    seeds = seed_singular_points(
        spec,
        g,
        n_samples=config.seed_samples,
        rng_seed=config.rng_seed,
    )
    traces = collect_components(
        seeds,
        spec,
        g,
        step=config.step_init * spec.epsilon,
        step_min=config.step_min * spec.epsilon,
        step_max=config.step_max * spec.epsilon,
        tol=config.tol_newton,
    )
    return spec, g, seeds, traces


class _CheckList:
    def __init__(self):
        self.entries = []

    def add(self, name, passed, achieved=None, tolerance=None):
        entry = {"name": name, "passed": bool(passed)}
        if achieved is not None:
            if isinstance(achieved, (int, float, np.integer, np.floating)):
                achieved = float(achieved)
            entry["achieved"] = achieved
        if tolerance is not None:
            entry["tolerance"] = tolerance
        self.entries.append(entry)
        return bool(passed)

    @property
    def all_passed(self):
        return all(e["passed"] for e in self.entries)

    def first_failed(self):
        for e in self.entries:
            if not e["passed"]:
                return e["name"]
        return None


def _component_summary(trace, classification):
    rec = classification.record
    return {
        "component_id": rec.component_id,
        "n_points": len(trace.points),
        "closed": trace.closed,
        "arc_length": trace.arc_length,
        "kind": rec.kind.value,
        "absolute_index": rec.absolute_index,
        "negative_eigenvalues": rec.negative_eigenvalues,
        "image_center": [float(x) for x in rec.image_center],
        "image_radius_mean": rec.image_radius_mean,
        "image_radius_deviation": rec.image_radius_deviation,
        "embedding_ok": rec.embedding_ok,
        "classification_consistent": classification.consistent,
        "max_defect": float(np.max(trace.defects)),
    }


def _out_dir(config):
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _morse_stage(config, traces, spec, g, theta, eta_angle):
    """Slice Morse records at ray angle theta, composed ones at eta_angle."""
    slice_spec = morse_mod.SliceSpec(theta=theta)
    slice_points = morse_mod.slice_critical_points(slice_spec, traces, spec, g)
    slice_records = [
        morse_mod.slice_morse_index(
            z, slice_spec, spec, g, dead_band=config.dead_band
        )
        for z in slice_points
    ]
    eta = np.array([np.cos(eta_angle), np.sin(eta_angle)])
    composed = morse_mod.composed_morse(
        eta, traces, spec, g, dead_band=config.dead_band
    )
    return slice_records, composed


def _morse_record_dict(record):
    return {
        "point": [[float(z.real), float(z.imag)] for z in record.point],
        "value": record.value,
        "morse_index": record.morse_index,
        "hessian_eigenvalues": [float(e) for e in record.hessian_eigenvalues],
        "gradient_norm": record.gradient_norm,
    }


# ---------------------------------------------------------------------------
# verify-a1 pipeline
# ---------------------------------------------------------------------------


def _verify_a1_locus_checks(checks, traces, tol):
    """The A1 singular locus: z1 = +-i z2, |z1| = |z2| = 1/sqrt(2), rest 0."""
    off_plane = 0.0
    circle_dev = 0.0
    modulus_dev = 0.0
    target = 1.0 / np.sqrt(2.0)
    for trace in traces:
        for p in trace.points:
            z = p.z
            if z.size > 2:
                off_plane = max(off_plane, float(np.max(np.abs(z[2:]))))
            branch = min(abs(z[0] - 1j * z[1]), abs(z[0] + 1j * z[1]))
            circle_dev = max(circle_dev, branch)
            modulus_dev = max(
                modulus_dev, abs(abs(z[0]) - target), abs(abs(z[1]) - target)
            )
    checks.add("locus_higher_coordinates_vanish", off_plane <= tol, off_plane, tol)
    checks.add("locus_on_diagonal_circles", circle_dev <= tol, circle_dev, tol)
    checks.add("locus_moduli", modulus_dev <= tol, modulus_dev, tol)


def _rotation_invariance(traces, spec, g, rng_seed, tol):
    rng = np.random.default_rng(rng_seed + 1)
    worst = 0.0
    for trace in traces:
        idx = rng.integers(0, len(trace.points), size=min(8, len(trace.points)))
        for k in idx:
            alpha = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            worst = max(
                worst, criterion_rank_defect(alpha * trace.points[k].z, spec.f, g)
            )
    return worst


def _oracle_agreement(spec, g, n_points, rng_seed, threshold, band=(1e-10, 1e-6)):
    """Cross-check the rank-defect and direct-differential singularity tests.

    Points where either statistic lands inside the margin band are excluded
    from the comparison (threshold flapping), and counted separately.
    """
    rng = np.random.default_rng(rng_seed + 2)
    points = sample_link_points(spec, n_points, rng)
    disagreements = 0
    excluded = 0
    for z in points:
        defect = criterion_rank_defect(z, spec.f, g)
        direct = direct_singularity_test(z, spec, g)
        in_band = (band[0] <= defect <= band[1]) or (band[0] <= direct <= band[1])
        if in_band:
            excluded += 1
            continue
        if (defect <= threshold) != (direct <= threshold):
            disagreements += 1
    return {
        "n_points": int(n_points),
        "disagreements": int(disagreements),
        "band_excluded": int(excluded),
        "threshold": threshold,
        "margin_band": list(band),
    }


_A1_RADII = [SQRT2_OVER_4, THREE_SQRT2_OVER_4]


def _closed_form_check(checks, name, values, targets):
    """Pass when ``values`` match the closed-form ``targets`` to 1e-6 each."""
    if len(values) != len(targets):
        return checks.add(name, False, None, 1e-6)
    err = max(abs(v - t) for v, t in zip(values, targets))
    return checks.add(name, err <= 1e-6, err, 1e-6)


def run_verify_a1(config):
    """Full verification pipeline for the A1 example; returns (report, exit_code).

    Builds f = z1^2 + ... + z_{n+1}^2 and g = z1 + (i/2) z2 for the
    configured n, runs seed -> trace -> classify -> round verdict -> slice
    Morse -> composed Morse -> equivariance, and writes report.json,
    singular_set.csv and image.svg into the output directory.
    """
    config = RunConfig(**{**config.__dict__, "f_text": _a1_f_text(config.n)})
    spec, g = config.build()
    out_dir = _out_dir(config)
    checks = _CheckList()
    timings = {}
    report = {
        "config": config.echo(),
        "checks": checks.entries,
        "timings": timings,
    }
    degenerate_seen = False
    started = time.perf_counter()

    if config.n == 1:
        report["mode"] = "embedding_n1"
        t0 = time.perf_counter()
        result = morse_mod.trace_image_n1(
            spec, g, n_samples=2000, rng_seed=config.rng_seed
        )
        timings["trace_image"] = time.perf_counter() - t0
        radii = sorted(result.radii)
        report["n1_image"] = {
            "n_components": len(result.components),
            "radii": radii,
            "centers": [[float(x) for x in c] for c in result.centers],
            "min_intercomponent_distance": result.min_intercomponent_distance,
        }
        checks.add("n1_two_components", len(result.components) == 2,
                   len(result.components), 2)
        _closed_form_check(checks, "n1_image_radii", radii, _A1_RADII)
        checks.add(
            "n1_injectivity_gap",
            result.min_intercomponent_distance >= SQRT2_OVER_4,
            result.min_intercomponent_distance,
            SQRT2_OVER_4,
        )
        components_xy = result.components
        radii_for_svg = radii
        write_singular_csv(out_dir / "singular_set.csv", [], spec)
    else:
        report["mode"] = "fold_pipeline"
        t0 = time.perf_counter()
        spec, g, seeds, traces = compute_components(config, spec, g)
        timings["seed_and_trace"] = time.perf_counter() - t0
        checks.add("two_closed_components",
                   len(traces) == 2 and all(t.closed for t in traces),
                   len(traces), 2)

        _verify_a1_locus_checks(checks, traces, 1e-8)

        t0 = time.perf_counter()
        classifications = [
            classify_component(trace, spec, g, idx, dead_band=config.dead_band)
            for idx, trace in enumerate(traces)
        ]
        timings["classification"] = time.perf_counter() - t0
        records = [c.record for c in classifications]
        degenerate_seen = any(r.kind == FoldKind.DEGENERATE for r in records)
        report["components"] = [
            _component_summary(trace, cls)
            for trace, cls in zip(traces, classifications)
        ]
        checks.add(
            "classification_consistent",
            all(c.consistent for c in classifications),
            None,
            None,
        )

        verdict = verify_round(traces, records)
        report["round"] = {
            "status": verdict.status,
            "radii": [float(r) for r in verdict.radii],
            "center": [float(x) for x in verdict.center],
            "failed_check": verdict.failed_check,
            "note": verdict.note,
        }
        checks.add("round_verdict", verdict.is_round, verdict.status, "ROUND")

        _closed_form_check(checks, "image_radii", verdict.radii, _A1_RADII)

        by_radius = sorted(
            zip(records, classifications),
            key=lambda rc: rc[0].image_radius_mean,
        )
        inner, outer = by_radius[0][0], by_radius[-1][0]
        checks.add(
            "outer_component_definite", outer.kind == FoldKind.DEFINITE,
            outer.kind.value, "DEFINITE",
        )
        checks.add(
            "inner_component_indefinite",
            inner.kind == FoldKind.INDEFINITE
            and inner.absolute_index == config.n - 1,
            inner.absolute_index,
            config.n - 1,
        )

        t0 = time.perf_counter()
        slice_records, composed = _morse_stage(config, traces, spec, g, 0.0, 0.0)
        timings["morse"] = time.perf_counter() - t0
        report["morse"] = {
            "slice_theta": 0.0,
            "slice_records": [_morse_record_dict(r) for r in slice_records],
            "composed_eta_angle": 0.0,
            "composed_records": [_morse_record_dict(r) for r in composed],
        }

        slice_indices = sorted(r.morse_index for r in slice_records)
        checks.add(
            "slice_morse_indices",
            slice_indices == sorted([2 * config.n - 2, config.n - 1]),
            slice_indices,
            sorted([2 * config.n - 2, config.n - 1]),
        )
        definite_records = [
            r for r in slice_records if r.morse_index == 2 * config.n - 2
        ]
        if definite_records:
            eigs = np.abs(definite_records[0].hessian_eigenvalues)
            ratio = float(np.max(eigs) / np.min(eigs))
            ratio_err = abs(ratio - 2.0)
            all_negative = bool(
                np.all(definite_records[0].hessian_eigenvalues < 0)
            )
            checks.add(
                "slice_hessian_ratio_two_to_one",
                all_negative and ratio_err <= 1e-3,
                ratio,
                2.0,
            )
        else:
            checks.add("slice_hessian_ratio_two_to_one", False, None, 2.0)

        composed_indices = sorted(r.morse_index for r in composed)
        expected_indices = sorted([0, config.n - 1, config.n, 2 * config.n - 1])
        checks.add(
            "composed_morse_indices",
            len(composed) == 4 and composed_indices == expected_indices,
            composed_indices,
            expected_indices,
        )
        _closed_form_check(
            checks, "composed_morse_values", [r.value for r in composed],
            [-THREE_SQRT2_OVER_4, -SQRT2_OVER_4, SQRT2_OVER_4, THREE_SQRT2_OVER_4],
        )

        t0 = time.perf_counter()
        try:
            equiv = equivariance_error(
                spec, g, n_samples=config.equivariance_samples,
                rng_seed=config.rng_seed,
            )
            checks.add("equivariance", equiv <= 1e-12, equiv, 1e-12)
            report["equivariance"] = {
                "max_error": equiv, "n_samples": config.equivariance_samples,
            }
        except NotApplicable as exc:
            checks.add("equivariance", False, str(exc), 1e-12)

        rotation_defect = _rotation_invariance(
            traces, spec, g, config.rng_seed, config.tol_singular
        )
        checks.add(
            "rotation_invariance_of_singular_set",
            rotation_defect <= config.tol_singular,
            rotation_defect,
            config.tol_singular,
        )

        scan = scan_gradient_dependence(
            spec, g, n_samples=48, rng_seed=config.rng_seed
        )
        report["degenerate_branch"] = {
            "solutions_found": len(scan.points),
            "min_pair_defect": scan.min_defect,
            "n_samples": scan.n_samples,
        }
        checks.add(
            "gradient_dependence_locus_empty",
            len(scan.points) == 0,
            scan.min_defect,
            "no points with pair defect <= 1e-8",
        )

        agreement = _oracle_agreement(
            spec, g, config.oracle_samples, config.rng_seed, config.tol_singular
        )
        report["oracle_agreement"] = agreement
        checks.add(
            "oracle_agreement", agreement["disagreements"] == 0,
            agreement["disagreements"], 0,
        )
        timings["statistics"] = time.perf_counter() - t0

        write_singular_csv(out_dir / "singular_set.csv", traces, spec)
        components_xy = [trace.image for trace in traces]
        radii_for_svg = [float(r) for r in verdict.radii]

    write_image_svg(out_dir / "image.svg", components_xy, radii_for_svg)
    timings["total"] = time.perf_counter() - started
    report["all_passed"] = checks.all_passed
    report["first_failed_check"] = checks.first_failed()
    write_report_json(out_dir / "report.json", report)

    if checks.all_passed:
        exit_code = 0
    elif degenerate_seen:
        exit_code = 4
    else:
        exit_code = 3
    return report, exit_code


# ---------------------------------------------------------------------------
# other commands
# ---------------------------------------------------------------------------


def run_singular_set(config):
    """Trace the singular set and write singular_set.csv; returns the path."""
    spec, _, _, traces = compute_components(config)
    path = _out_dir(config) / "singular_set.csv"
    write_singular_csv(path, traces, spec)
    return path, traces


def run_image_svg(config):
    """Trace the singular set and render its image curves as SVG."""
    _, _, _, traces = compute_components(config)
    path = _out_dir(config) / "image.svg"
    radii = [circle_fit(trace.image)[1] for trace in traces]
    write_image_svg(path, [t.image for t in traces], sorted(radii))
    return path, traces


def run_morse(config, theta=0.0, eta_angle=0.0):
    """Slice and composed Morse data; writes morse.json and returns the dict."""
    spec, g, _, traces = compute_components(config)
    slice_records, composed = _morse_stage(
        config, traces, spec, g, theta, eta_angle
    )
    payload = {
        "config": config.echo(),
        "slice": {
            "theta": theta,
            "records": [_morse_record_dict(r) for r in slice_records],
        },
        "composed": {
            "eta_angle": eta_angle,
            "records": [_morse_record_dict(r) for r in composed],
        },
    }
    path = _out_dir(config) / "morse.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path, payload


# ---------------------------------------------------------------------------
# writers
# ---------------------------------------------------------------------------


def _fmt(x):
    return f"{float(x):.17g}"


def write_singular_csv(path, traces, spec):
    """CSV of traced singular points: one row per node, 17 significant digits."""
    m = spec.ambient_dim
    header = ["component_id", "arc_param"]
    for j in range(1, m + 1):
        header += [f"re_z{j}", f"im_z{j}"]
    header += ["re_h", "im_h", "defect"]
    lines = [",".join(header)]
    for comp_id, trace in enumerate(traces):
        for k, point in enumerate(trace.points):
            row = [str(comp_id), _fmt(trace.arc_params[k])]
            for zj in point.z:
                row += [_fmt(zj.real), _fmt(zj.imag)]
            re_h, im_h = trace.image[k]
            row += [_fmt(re_h), _fmt(im_h), _fmt(trace.defects[k])]
            lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path


_SVG_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]


def write_image_svg(path, components_xy, radii=None, size=640):
    """SVG rendering of image curves: axes, origin, one closed path each.

    The viewBox fits every curve with a 10 percent margin; radius labels are
    placed on the 45 degree diagonal.
    """
    pts = (
        np.vstack([np.asarray(c) for c in components_xy])
        if components_xy
        else np.zeros((1, 2))
    )
    span = max(np.max(np.abs(pts)), 1e-6)
    lim = 1.1 * span

    def to_px(x, y):
        px = (x + lim) / (2 * lim) * size
        py = (lim - y) / (2 * lim) * size
        return px, py

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    ox, oy = to_px(0.0, 0.0)
    parts.append(
        f'<line x1="0" y1="{oy:.2f}" x2="{size}" y2="{oy:.2f}" '
        f'stroke="#999" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{ox:.2f}" y1="0" x2="{ox:.2f}" y2="{size}" '
        f'stroke="#999" stroke-width="1"/>'
    )
    parts.append(f'<circle cx="{ox:.2f}" cy="{oy:.2f}" r="3" fill="#333"/>')
    for idx, comp in enumerate(components_xy):
        comp = np.asarray(comp)
        color = _SVG_PALETTE[idx % len(_SVG_PALETTE)]
        coords = [to_px(x, y) for x, y in comp]
        d = "M " + " L ".join(f"{x:.3f} {y:.3f}" for x, y in coords) + " Z"
        parts.append(
            f'<path d="{d}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
    if radii:
        for idx, r in enumerate(radii):
            lx, ly = to_px(r / np.sqrt(2.0), r / np.sqrt(2.0))
            parts.append(
                f'<text x="{lx:.2f}" y="{ly:.2f}" font-size="14" '
                f'fill="#333">{r:.4f}</text>'
            )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8", newline="\n")
    return path


def _load_schema():
    with resources.files("linkfold.schemas").joinpath("report.schema.json").open(
        "r", encoding="utf-8"
    ) as handle:
        return json.load(handle)


def validate_report(report):
    """Validate a report dict against the shipped JSON schema."""
    import jsonschema

    jsonschema.validate(instance=report, schema=_load_schema())


def write_report_json(path, report):
    """Validate ``report`` against the schema and write it as sorted JSON."""
    validate_report(report)
    Path(path).write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path
