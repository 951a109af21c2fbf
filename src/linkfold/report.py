"""Run configuration, verification pipelines, and artifact writers.

The pipeline entry points mirror the CLI commands: compute the singular
components, classify them, run the round / Morse / equivariance checks and
emit report.json, singular_set.csv, image.svg and morse.json. Every check
in the report carries the achieved value and the tolerance it was held to.
No check samples the link: the circle-action checks and oracle_agreement
read the traced nodes, and gradient_dependence_locus_empty is decided in
closed form.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path

import numpy as np

from . import morse as morse_mod
from .errors import LinkFoldError, NotApplicable, WrongDimension
from .fold_classify import (
    _DEAD_BAND,
    FoldKind,
    circle_fit,
    classify_component,
    equivariance_error,
    verify_round,
)
from .geometry import LinkSpec, _RESIDUAL_TOL, chart, tangent_frame
from .polynomial import parse_poly
from .singular_set import (
    _SEED_SAMPLES,
    _STEP_DISTANCE,
    _STEP_INIT,
    _STEP_MAX,
    _STEP_MIN,
    _require_affine,
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
# |h(alpha z) - alpha h(z)| at or below this, times max(1, epsilon), passes
# the equivariance check: |h| <= |u| epsilon for a linear g = u . z
_EQUIVARIANCE_TOL = 1e-12
# oracle_agreement's step off the traced curve over epsilon, and the range
# of the direct test's growth from one such step to ten: linear growth
_ORACLE_STEP = 1e-3
_ORACLE_GROWTH = (9.0, 11.0)
# a traced A1 node within this, times epsilon, of the locus passes the
# locus checks; each component's arc length within 2 pi times as much of
# 2 pi epsilon, since a radial offset d of the nodes lengthens it by 2 pi d
_LOCUS_TOL = 1e-8
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
        if self.rng_seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.rng_seed}")
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
                "newton": _RESIDUAL_TOL,
                "singular": _SINGULAR_TOL,
                "dead_band": _DEAD_BAND,
            },
            "continuation": {
                "step_init": _STEP_INIT,
                "step_min": _STEP_MIN,
                "step_max": _STEP_MAX,
                "step_distance": _STEP_DISTANCE,
            },
            "samples": {"seeds": _SEED_SAMPLES},
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
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
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


def make_config(file_values, overrides):
    """RunConfig from config-file values, then the overrides that are not None."""
    values = {**file_values, **{k: v for k, v in overrides.items() if v is not None}}
    valid = {f.name for f in fields(RunConfig)}
    unknown = set(values) - valid
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    return RunConfig(**values)


# ---------------------------------------------------------------------------
# shared computation
# ---------------------------------------------------------------------------


def compute_components(config, spec, g):
    """Seed and trace the singular components of (spec, g); returns (spec, g, seeds, traces).

    Tracing follows the epsilon-scaled continuation policy of collect_components.
    Raises WrongDimension for n < 2, where the whole link is singular.
    """
    if spec.n < 2:
        raise WrongDimension(f"fold analysis needs n >= 2, got n = {spec.n}")
    seeds = seed_singular_points(spec, g, rng_seed=config.rng_seed)
    return spec, g, seeds, collect_components(seeds, spec, g)


def _component_summary(trace, rec):
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
        "cusps": rec.cusps,
        "classification_consistent": rec.consistent,
        "max_defect": float(np.max(trace.defects)),
    }


def _out_dir(config):
    out_dir = Path(config.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory: {exc}") from exc
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


def _check(name, passed, achieved, tolerance):
    """One report check: its verdict, the value achieved and its tolerance, each None to omit."""
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


def _locus_checks(traces, epsilon):
    """A1 locus to ``_LOCUS_TOL`` epsilon: z1 = +-i z2, |z1| = |z2| = epsilon/sqrt(2), rest 0."""
    tol = _LOCUS_TOL * epsilon
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


def _arc_length_check(traces, g, epsilon):
    """component_arc_lengths: on A1 with an affine g, each component is 2 pi epsilon long.

    The singular set is then invariant under z -> alpha z, |alpha| = 1, so
    each component is one orbit, a great circle of the sphere of radius
    epsilon. The tolerance is the length that nodes the locus checks accept
    can add: the corrector's absolute residual floor leaves nodes up to
    about 4e-9 epsilon off the sphere at epsilon = 1e-4. This shares no code
    with the tracer's arc-length sum. Fails with the NotApplicable message
    for any other g.
    """
    tol = 2.0 * np.pi * _LOCUS_TOL * epsilon
    try:
        _require_affine(g)
    except NotApplicable as exc:
        return _check("component_arc_lengths", False, str(exc), tol)
    err = max((abs(t.arc_length - 2.0 * np.pi * epsilon) for t in traces), default=0.0)
    return _check("component_arc_lengths", err <= tol, err, tol)


def _oracle_agreement(traces, spec, g):
    """Read the direct differential test at the traced nodes and beside them.

    The direct test shares no code with the span criterion that the tracer
    solves. At every node it must be at or below ``_SINGULAR_TOL``. Each node
    is then moved by delta = ``_ORACLE_STEP`` epsilon and by 10 delta
    through :func:`chart`, along the unit vector of its link tangent frame
    that is orthogonal to the curve's tangent there: the frame vector least
    aligned with that tangent, less its tangent component. At delta the test
    must be above ``_SINGULAR_TOL``; from delta to 10 delta it must grow by a
    factor within ``_ORACLE_GROWTH``, since it measures the differential's
    distance to rank one, which grows linearly off a fold curve. A node that
    breaks any of the three disagrees, so nodes off the singular set, or a
    test stuck at either verdict, make disagreements.
    """
    nodes = np.concatenate([trace.points for trace in traces])
    tangents = np.concatenate([trace.tangents[:, :-4] for trace in traces])
    frame = tangent_frame(nodes, spec)
    along = np.matmul(frame.basis, tangents[..., None])[..., 0]
    along /= np.linalg.norm(along, axis=1, keepdims=True)
    rows = np.arange(len(nodes))
    least = np.argmin(np.abs(along), axis=1)
    normal = -along[rows, least, None] * along
    normal[rows, least] += 1.0
    normal /= np.linalg.norm(normal, axis=1, keepdims=True)
    step = _ORACLE_STEP * spec.epsilon
    on_curve = direct_singularity_test(nodes, spec, g)
    near, far = (
        direct_singularity_test(chart(nodes, frame, scale * normal, spec), spec, g)
        for scale in (step, 10.0 * step)
    )
    growth = np.divide(far, near, out=np.zeros_like(far), where=near > 0.0)
    low, high = _ORACLE_GROWTH
    agree = (on_curve <= _SINGULAR_TOL) & (near > _SINGULAR_TOL)
    agree &= (low <= growth) & (growth <= high)
    return {
        "n_points": len(nodes),
        "disagreements": int(np.count_nonzero(~agree)),
        "threshold": _SINGULAR_TOL,
        "step": step,
        "max_on_curve": float(np.max(on_curve)),
        "min_off_curve": float(np.min(near)),
        "growth_range": [float(np.min(growth)), float(np.max(growth))],
    }


def _verify_n1(config, spec, g, radii, tol, timings):
    """n = 1: h embeds the link, and its image is the two A1 circles.

    Radii and centres are circle fits of the traced images; the gap is the
    least node-to-node distance between two image polylines (None for one).
    """
    t0 = time.perf_counter()
    traces = morse_mod.trace_image_n1(spec, g, config.rng_seed)
    timings["trace_image"] = time.perf_counter() - t0
    fits = sorted((circle_fit(trace.image)[:2] for trace in traces), key=lambda fit: fit[1])
    image_radii = [radius for _, radius in fits]
    count = len(traces)
    gap = min((
        float(np.min(np.linalg.norm(other.image - point, axis=1)))
        for i, trace in enumerate(traces) for other in traces[i + 1:]
        for point in trace.image
    ), default=None)
    sections = {
        "n1_image": {
            "n_components": count,
            "radii": image_radii,
            "centers": [[float(x) for x in center] for center, _ in fits],
            "min_intercomponent_distance": gap,
        }
    }
    checks = [
        _check("n1_two_components", count == 2, count, 2),
        _closed_form("n1_image_radii", image_radii, radii, tol),
        _check("n1_injectivity_gap", gap is None or gap >= radii[0], gap, radii[0]),
        _arc_length_check(traces, g, spec.epsilon),
    ]
    return "embedding_n1", sections, checks, traces, image_radii


def _verify_folds(config, spec, g, radii, tol, timings):
    """n >= 2: trace, classify and Morse-check the two A1 fold circles.

    A check that does not apply to (f, g), equivariance,
    component_arc_lengths or gradient_dependence_locus_empty, fails with the
    NotApplicable message as ``achieved``, so the exit code still comes from
    the verdicts.
    """
    n = config.n
    t0 = time.perf_counter()
    spec, g, _, traces = compute_components(config, spec, g)
    timings["seed_and_trace"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    records = [
        classify_component(trace, spec, g, idx)
        for idx, trace in enumerate(traces)
    ]
    timings["classification"] = time.perf_counter() - t0
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
            _component_summary(trace, rec) for trace, rec in zip(traces, records)
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
        *_locus_checks(traces, spec.epsilon),
        _arc_length_check(traces, g, spec.epsilon),
        _check("classification_consistent",
               all(r.consistent for r in records), None, None),
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
    # every traced node z with its own unit alpha: alpha z is singular too
    nodes = np.concatenate([trace.points for trace in traces])
    rng = np.random.default_rng(config.rng_seed + 1)
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=len(nodes)))
    equiv_tol = _EQUIVARIANCE_TOL * max(1.0, spec.epsilon)
    try:
        equiv = equivariance_error(spec, g, nodes, phases)
        checks.append(_check("equivariance", equiv <= equiv_tol, equiv, equiv_tol))
        sections["equivariance"] = {"max_error": equiv, "n_samples": len(nodes)}
    except NotApplicable as exc:
        checks.append(_check("equivariance", False, str(exc), equiv_tol))

    rotation_defect = criterion_rank_defect(phases[:, None] * nodes, spec.f, g).max()
    checks.append(_check(
        "rotation_invariance_of_singular_set",
        rotation_defect <= _SINGULAR_TOL, rotation_defect, _SINGULAR_TOL,
    ))

    try:
        defect = scan_gradient_dependence(spec, g)
        sections["degenerate_branch"] = {"min_pair_defect": defect}
        independent = defect > 1e-8
    except NotApplicable as exc:
        defect, independent = str(exc), False
    checks.append(_check(
        "gradient_dependence_locus_empty", independent,
        defect, "no points with pair defect <= 1e-8",
    ))

    agreement = _oracle_agreement(traces, spec, g)
    sections["oracle_agreement"] = agreement
    checks.append(_check(
        "oracle_agreement", agreement["disagreements"] == 0,
        agreement["disagreements"], 0,
    ))
    timings["statistics"] = time.perf_counter() - t0

    return "fold_pipeline", sections, checks, traces, [float(r) for r in verdict.radii]


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
    mode, sections, checks, traces, svg_radii = stage(config, spec, g, radii, 1e-6 * eps, timings)
    write_singular_csv(out_dir / "singular_set.csv", traces, spec)
    write_image_svg(out_dir / "image.svg", [t.image for t in traces], svg_radii)
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
    spec, _, _, traces = compute_components(config, *config.build())
    out_dir = _out_dir(config)
    path = write_singular_csv(out_dir / "singular_set.csv", traces, spec)
    radii = sorted(circle_fit(trace.image)[1] for trace in traces)
    write_image_svg(out_dir / "image.svg", [t.image for t in traces], radii)
    return path, traces


def run_morse(config, theta, eta_angle):
    """Slice Morse data at theta and composed at eta_angle; returns morse.json's (path, dict)."""
    if not np.isfinite([theta, eta_angle]).all():
        raise ConfigError(f"angles must be finite, got {theta} and {eta_angle}")
    spec, g, _, traces = compute_components(config, *config.build())
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
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")
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


def write_image_svg(path, components_xy, radii):
    """SVG rendering of image curves: axes, origin, one closed path each.

    The viewBox fits every curve with a 10 percent margin; one label per
    entry of ``radii`` sits on the 45 degree diagonal at that radius.
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
    for r in radii:
        lx, ly = to_px(r / np.sqrt(2.0), r / np.sqrt(2.0))
        parts.append(
            f'<text x="{lx:.2f}" y="{ly:.2f}" font-size="14" '
            f'fill="#333">{r:.4f}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8", newline="\n")
    return path


@functools.cache
def _validator():
    """The shipped schema's validator, built on first use; SchemaError if the schema is broken."""
    import jsonschema

    with resources.files("linkfold.schemas").joinpath("report.schema.json").open(
        "r", encoding="utf-8"
    ) as handle:
        schema = json.load(handle)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def validate_report(report):
    """Validate a report dict against the shipped JSON schema.

    Raises the error that ``jsonschema.validate`` would, from one validator
    built on the first call.
    """
    import jsonschema

    error = jsonschema.exceptions.best_match(_validator().iter_errors(report))
    if error is not None:
        raise error


def write_report_json(path, report):
    """Validate ``report`` against the schema and write it as strict, sorted JSON.

    A report that breaks the schema is not written: LinkFoldError names the
    first failing path, so the CLI exits 3.
    """
    import jsonschema

    try:
        validate_report(report)
    except jsonschema.ValidationError as error:
        raise LinkFoldError(
            f"report breaks its schema at {error.json_path}: {error.message}"
        ) from error
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="utf-8")
    return path
