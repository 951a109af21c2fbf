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
    _DEAD_BAND,
    _EQUIVARIANCE_SAMPLES,
    FoldKind,
    circle_fit,
    classify_component,
    equivariance_error,
    verify_round,
)
from .geometry import LinkSpec, sample_link_points
from .polynomial import parse_poly
from .singular_set import (
    _CORRECTOR_TOL,
    _SCAN_SAMPLES,
    _SEED_SAMPLES,
    _STEP_INIT,
    _STEP_MAX,
    _STEP_MIN,
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

# a rank defect at or below this marks a singular point
_SINGULAR_TOL = 1e-8
# link points at which the two singularity tests are compared, and the band
# of either statistic inside which a point is not compared
_ORACLE_SAMPLES = 1500
_ORACLE_BAND = (1e-10, 1e-6)
# side of the square image.svg, in pixels
_SVG_SIZE = 640


class ConfigError(LinkFoldError):
    """Invalid run configuration (bad polynomial text, bad key, bad value)."""


def _a1_f_text(n):
    return " + ".join(f"z{j}^2" for j in range(1, n + 2))


@dataclass
class RunConfig:
    """Everything a pipeline run depends on, echoed verbatim into reports.

    Continuation steps, solver tolerances, the Hessian dead band and sample
    sizes are constants, echoed alongside.
    """

    f_text: str | None = None  # None: sum of squares in n + 1 variables
    g_text: str = "z1 + 0.5i*z2"
    n: int = 2
    epsilon: float = 1.0
    rng_seed: int = 42
    out_dir: str = "out"
    # no longer settings; perfbench/workloads.py still passes them on
    hessian_step = None
    dead_band = _DEAD_BAND

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
        if not any(any(e) for e in g.terms):
            # a constant h is singular on the whole link
            raise ConfigError("g must be nonconstant")
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
                "newton": _CORRECTOR_TOL,
                "singular": _SINGULAR_TOL,
                "dead_band": _DEAD_BAND,
            },
            "continuation": {
                "step_init": _STEP_INIT,
                "step_min": _STEP_MIN,
                "step_max": _STEP_MAX,
            },
            "samples": {
                "seeds": _SEED_SAMPLES,
                "equivariance": _EQUIVARIANCE_SAMPLES,
                "oracle": _ORACLE_SAMPLES,
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
    """Seed and trace the singular components; returns (spec, g, seeds, traces).

    Tracing follows the epsilon-scaled continuation policy of collect_components.
    """
    if spec is None or g is None:
        spec, g = config.build()
    seeds = seed_singular_points(spec, g, rng_seed=config.rng_seed)
    return spec, g, seeds, collect_components(seeds, spec, g)


def _component_summary(trace, classification):
    rec = classification.record
    return {
        "component_id": rec.component_id,
        "n_points": len(trace.points),
        "closed": True,  # an unclosed trace raises NonConvergence
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


def _morse_stage(traces, spec, g, theta, eta_angle):
    """Slice Morse records at ray angle theta, composed ones at eta_angle."""
    slice_spec = morse_mod.SliceSpec(theta=theta)
    slice_points = morse_mod.slice_critical_points(slice_spec, traces, spec, g)
    slice_records = [
        morse_mod.slice_morse_index(z, slice_spec, spec, g)
        for z in slice_points
    ]
    eta = np.array([np.cos(eta_angle), np.sin(eta_angle)])
    composed = morse_mod.composed_morse(eta, traces, spec, g)
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


def _check(name, passed, achieved=None, tolerance=None):
    """One report check: its verdict, the value achieved and its tolerance."""
    entry = {"name": name, "passed": bool(passed)}
    if achieved is not None:
        if isinstance(achieved, (int, float, np.integer, np.floating)):
            achieved = float(achieved)
        entry["achieved"] = achieved
    if tolerance is not None:
        entry["tolerance"] = tolerance
    return entry


def _closed_form(name, values, targets, tol):
    """Pass when ``values`` match the closed-form ``targets`` to ``tol`` each."""
    if len(values) != len(targets):
        return _check(name, False, None, tol)
    err = max(abs(v - t) for v, t in zip(values, targets))
    return _check(name, err <= tol, err, tol)


def _locus_checks(traces, epsilon, tol):
    """The A1 singular locus: z1 = +-i z2, |z1| = |z2| = epsilon/sqrt(2), rest 0."""
    off_plane = 0.0
    circle_dev = 0.0
    modulus_dev = 0.0
    target = epsilon / np.sqrt(2.0)
    for trace in traces:
        for z in trace.points:
            if z.size > 2:
                off_plane = max(off_plane, float(np.max(np.abs(z[2:]))))
            branch = min(abs(z[0] - 1j * z[1]), abs(z[0] + 1j * z[1]))
            circle_dev = max(circle_dev, branch)
            modulus_dev = max(
                modulus_dev, abs(abs(z[0]) - target), abs(abs(z[1]) - target)
            )
    return [
        _check("locus_higher_coordinates_vanish", off_plane <= tol, off_plane, tol),
        _check("locus_on_diagonal_circles", circle_dev <= tol, circle_dev, tol),
        _check("locus_moduli", modulus_dev <= tol, modulus_dev, tol),
    ]


def _rotation_invariance(traces, spec, g, rng_seed):
    rng = np.random.default_rng(rng_seed + 1)
    rotated = []
    for trace in traces:
        idx = rng.integers(0, len(trace), size=min(8, len(trace)))
        for k in idx:
            alpha = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            rotated.append(alpha * trace.points[k])
    return float(np.max(criterion_rank_defect(np.array(rotated), spec.f, g)))


def _oracle_agreement(spec, g, rng_seed, threshold):
    """Cross-check the rank-defect and direct-differential singularity tests.

    They are compared at ``_ORACLE_SAMPLES`` link points. Points where either
    statistic lands inside the margin band ``_ORACLE_BAND`` are excluded
    from the comparison (threshold flapping), and counted separately.
    """
    low, high = _ORACLE_BAND
    rng = np.random.default_rng(rng_seed + 2)
    points = sample_link_points(spec, _ORACLE_SAMPLES, rng)
    defect = criterion_rank_defect(points, spec.f, g)
    direct = direct_singularity_test(points, spec, g)
    in_band = (low <= defect) & (defect <= high) | (low <= direct) & (direct <= high)
    differ = (defect <= threshold) != (direct <= threshold)
    return {
        "n_points": _ORACLE_SAMPLES,
        "disagreements": int(np.count_nonzero(differ & ~in_band)),
        "band_excluded": int(np.count_nonzero(in_band)),
        "threshold": threshold,
        "margin_band": [low, high],
    }


def _verify_n1(config, spec, g, radii, tol, timings):
    """n = 1: h embeds the link, and its image is the two A1 circles."""
    t0 = time.perf_counter()
    result = morse_mod.trace_image_n1(spec, g, rng_seed=config.rng_seed)
    timings["trace_image"] = time.perf_counter() - t0
    image_radii = sorted(result.radii)
    count = len(result.components)
    gap = result.min_intercomponent_distance
    sections = {
        "n1_image": {
            "n_components": count,
            "radii": image_radii,
            "centers": [[float(x) for x in c] for c in result.centers],
            "min_intercomponent_distance": gap,
        }
    }
    checks = [
        _check("n1_two_components", count == 2, count, 2),
        _closed_form("n1_image_radii", image_radii, radii, tol),
        _check("n1_injectivity_gap", gap >= radii[0], gap, radii[0]),
    ]
    return "embedding_n1", sections, checks, [], result.components, image_radii


def _verify_folds(config, spec, g, radii, tol, timings):
    """n >= 2: trace, classify and Morse-check the two A1 fold circles."""
    n = config.n
    t0 = time.perf_counter()
    spec, g, _, traces = compute_components(config, spec, g)
    timings["seed_and_trace"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    classifications = [
        classify_component(trace, spec, g, idx)
        for idx, trace in enumerate(traces)
    ]
    timings["classification"] = time.perf_counter() - t0
    records = [c.record for c in classifications]
    verdict = verify_round(traces, records)
    by_radius = sorted(records, key=lambda r: r.image_radius_mean)
    inner, outer = by_radius[0], by_radius[-1]

    t0 = time.perf_counter()
    slice_records, composed = _morse_stage(traces, spec, g, 0.0, 0.0)
    timings["morse"] = time.perf_counter() - t0
    slice_indices = sorted(r.morse_index for r in slice_records)
    slice_expected = sorted([2 * n - 2, n - 1])
    definite = [
        r.hessian_eigenvalues for r in slice_records if r.morse_index == 2 * n - 2
    ]
    ratio, ratio_ok = None, False
    if definite:
        eigs = np.abs(definite[0])
        ratio = float(np.max(eigs) / np.min(eigs))
        ratio_ok = bool(np.all(definite[0] < 0)) and abs(ratio - 2.0) <= 1e-3
    composed_indices = sorted(r.morse_index for r in composed)
    composed_expected = sorted([0, n - 1, n, 2 * n - 1])

    sections = {
        "components": [
            _component_summary(trace, cls)
            for trace, cls in zip(traces, classifications)
        ],
        "round": {
            "status": verdict.status,
            "radii": [float(r) for r in verdict.radii],
            "center": [float(x) for x in verdict.center],
            "failed_check": verdict.failed_check,
            "note": verdict.note,
        },
        "morse": {
            "slice_theta": 0.0,
            "slice_records": [_morse_record_dict(r) for r in slice_records],
            "composed_eta_angle": 0.0,
            "composed_records": [_morse_record_dict(r) for r in composed],
        },
    }
    checks = [
        _check("two_closed_components", len(traces) == 2, len(traces), 2),
        *_locus_checks(traces, spec.epsilon, 1e-8 * spec.epsilon),
        _check("classification_consistent",
               all(c.consistent for c in classifications)),
        _check("round_verdict", verdict.is_round, verdict.status, "ROUND"),
        _closed_form("image_radii", verdict.radii, radii, tol),
        _check("outer_component_definite", outer.kind == FoldKind.DEFINITE,
               outer.kind.value, "DEFINITE"),
        _check("inner_component_indefinite",
               inner.kind == FoldKind.INDEFINITE and inner.absolute_index == n - 1,
               inner.absolute_index, n - 1),
        _check("slice_morse_indices", slice_indices == slice_expected,
               slice_indices, slice_expected),
        _check("slice_hessian_ratio_two_to_one", ratio_ok, ratio, 2.0),
        _check("composed_morse_indices",
               len(composed) == 4 and composed_indices == composed_expected,
               composed_indices, composed_expected),
        _closed_form("composed_morse_values", [r.value for r in composed],
                     [-radii[1], -radii[0], radii[0], radii[1]], tol),
    ]

    t0 = time.perf_counter()
    try:
        equiv = equivariance_error(spec, g, rng_seed=config.rng_seed)
        checks.append(_check("equivariance", equiv <= 1e-12, equiv, 1e-12))
        sections["equivariance"] = {
            "max_error": equiv, "n_samples": _EQUIVARIANCE_SAMPLES,
        }
    except NotApplicable as exc:
        checks.append(_check("equivariance", False, str(exc), 1e-12))

    rotation_defect = _rotation_invariance(traces, spec, g, config.rng_seed)
    checks.append(_check(
        "rotation_invariance_of_singular_set",
        rotation_defect <= _SINGULAR_TOL, rotation_defect, _SINGULAR_TOL,
    ))

    scan = scan_gradient_dependence(spec, g, rng_seed=config.rng_seed)
    sections["degenerate_branch"] = {
        "solutions_found": len(scan.points),
        "min_pair_defect": scan.min_defect,
        "n_samples": _SCAN_SAMPLES,
    }
    checks.append(_check(
        "gradient_dependence_locus_empty", len(scan.points) == 0,
        scan.min_defect, "no points with pair defect <= 1e-8",
    ))

    agreement = _oracle_agreement(spec, g, config.rng_seed, _SINGULAR_TOL)
    sections["oracle_agreement"] = agreement
    checks.append(_check(
        "oracle_agreement", agreement["disagreements"] == 0,
        agreement["disagreements"], 0,
    ))
    timings["statistics"] = time.perf_counter() - t0

    curves = [trace.image for trace in traces]
    svg_radii = [float(r) for r in verdict.radii]
    return "fold_pipeline", sections, checks, traces, curves, svg_radii


def run_verify_a1(config):
    """Full verification pipeline for the A1 example; returns (report, exit_code).

    Builds f = z1^2 + ... + z_{n+1}^2 and g = z1 + (i/2) z2 for the
    configured n, runs seed -> trace -> classify -> round verdict -> slice
    Morse -> composed Morse -> equivariance, and writes report.json,
    singular_set.csv and image.svg into the output directory. The closed
    forms (image radii eps sqrt(2)/4 and 3 eps sqrt(2)/4) scale with eps.
    Raises ConfigError when ``f_text`` is set to any other polynomial.
    """
    spec, g = config.build()
    if spec.f != parse_poly(_a1_f_text(config.n), config.n + 1):
        raise ConfigError(f"verify-a1 needs the A1 polynomial f, got {spec.f}")
    out_dir = _out_dir(config)
    eps = config.epsilon
    radii = [SQRT2_OVER_4 * eps, THREE_SQRT2_OVER_4 * eps]
    timings = {}
    started = time.perf_counter()
    stage = _verify_n1 if config.n == 1 else _verify_folds
    mode, sections, checks, traces, curves, svg_radii = stage(
        config, spec, g, radii, 1e-6 * eps, timings
    )
    write_singular_csv(out_dir / "singular_set.csv", traces, spec)
    write_image_svg(out_dir / "image.svg", curves, svg_radii)
    timings["total"] = time.perf_counter() - started

    failed = [c["name"] for c in checks if not c["passed"]]
    report = {
        "config": config.echo(),
        "mode": mode,
        **sections,
        "checks": checks,
        "timings": timings,
        "all_passed": not failed,
        "first_failed_check": failed[0] if failed else None,
    }
    write_report_json(out_dir / "report.json", report)
    kinds = {c["kind"] for c in sections.get("components", [])}
    degenerate = FoldKind.DEGENERATE.value in kinds
    return report, 0 if not failed else 4 if degenerate else 3


# ---------------------------------------------------------------------------
# other commands
# ---------------------------------------------------------------------------


def run_singular_set(config):
    """Trace the singular set, write singular_set.csv and image.svg.

    The SVG labels the image curves with their circle-fit radii. Returns
    (path of the CSV, traces).
    """
    spec, _, _, traces = compute_components(config)
    out_dir = _out_dir(config)
    path = write_singular_csv(out_dir / "singular_set.csv", traces, spec)
    radii = sorted(circle_fit(trace.image)[1] for trace in traces)
    write_image_svg(out_dir / "image.svg", [t.image for t in traces], radii)
    return path, traces


def run_morse(config, theta=0.0, eta_angle=0.0):
    """Slice and composed Morse data; writes morse.json and returns the dict."""
    spec, g, _, traces = compute_components(config)
    slice_records, composed = _morse_stage(traces, spec, g, theta, eta_angle)
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
            for zj in point:
                row += [_fmt(zj.real), _fmt(zj.imag)]
            re_h, im_h = trace.image[k]
            row += [_fmt(re_h), _fmt(im_h), _fmt(trace.defects[k])]
            lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path


_SVG_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]


def write_image_svg(path, components_xy, radii=None):
    """SVG rendering of image curves: axes, origin, one closed path each.

    The viewBox fits every curve with a 10 percent margin; radius labels are
    placed on the 45 degree diagonal.
    """
    pts = (
        np.vstack([np.asarray(c) for c in components_xy])
        if components_xy
        else np.zeros((1, 2))
    )
    size = _SVG_SIZE
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
