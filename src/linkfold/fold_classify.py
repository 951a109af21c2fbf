"""Fold classification of singular points and the round-map verdict.

At a fold point the differential of h has rank 1; the transverse Hessian of
the normal component of h on the kernel directions is nondegenerate and its
negative-eigenvalue count lambda fixes the absolute index
min(lambda, (2n-2) - lambda). A map whose singular components are embedded
onto disjoint nested circles around a common centre is reported ROUND; that
operational test stands in for isotopy to concentric circles and is noted as
such in the verdict.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import NotApplicable, RankTwo, RankZero
from .geometry import (
    critical_hessian,
    project_to_link,
    sample_link_points,
    tangent_frame,
)
from .polynomial import eval_poly, gradient, homogeneous_degree

__all__ = [
    "FoldKind",
    "FoldRecord",
    "LocalFoldData",
    "ComponentClassification",
    "RoundVerdict",
    "local_fold_data",
    "intrinsic_hessian",
    "fold_counts",
    "classify_fold",
    "classify_component",
    "verify_round",
    "equivariance_error",
    "circle_fit",
    "min_nonadjacent_image_distance",
]

# points classified per component, evenly strided along the trace
_MAX_SAMPLES = 24
# link points at which equivariance_error compares h(alpha z) and alpha h(z)
_EQUIVARIANCE_SAMPLES = 1000
# eigenvalues within this fraction of the spectral norm cannot be signed
_DEAD_BAND = 1e-5


class FoldKind(enum.Enum):
    DEFINITE = "DEFINITE"
    INDEFINITE = "INDEFINITE"
    DEGENERATE = "DEGENERATE"


@dataclass(eq=False)
class FoldRecord:
    """Classification summary for one singular point or component."""

    component_id: int
    kind: FoldKind
    absolute_index: int | None
    negative_eigenvalues: int | None
    image_center: np.ndarray
    image_radius_mean: float
    image_radius_deviation: float
    embedding_ok: bool


@dataclass(eq=False)
class LocalFoldData:
    """First-order data of h in a tangent chart at a singular point."""

    rank: int
    kernel_basis: np.ndarray  # (2n-2, 2n-1) rows, chart coordinates
    image_dir: np.ndarray  # unit vector in R^2, sign arbitrary
    frame: object
    singular_values: tuple
    base_point: np.ndarray


def local_fold_data(point, spec, g):
    """Rank-1 check of dh at a singular point, with kernel and image direction.

    The 2 x (2n-1) chart Jacobian is the (Re, Im) pair of the exact
    directional derivatives of g along the tangent frame. Raises RankZero
    when the differential vanishes and RankTwo when the point is actually
    regular (sigma2/sigma1 > 1e-6).
    """
    z = project_to_link(np.asarray(point, complex), spec)
    frame = tangent_frame(z, spec)
    derivs = frame.complex_basis @ gradient(g, z)
    jac = np.vstack([derivs.real, derivs.imag])
    u, s, vt = np.linalg.svd(jac, full_matrices=True)
    if s[0] <= 1e-10:
        raise RankZero(f"differential of h vanished (sigma1 = {s[0]:.3e})")
    if s[1] / s[0] > 1e-6:
        raise RankTwo(
            f"differential has rank 2 (sigma2/sigma1 = {s[1] / s[0]:.3e}); "
            "point is regular"
        )
    return LocalFoldData(
        rank=1,
        kernel_basis=vt[1:],
        image_dir=u[:, 0],
        frame=frame,
        singular_values=(float(s[0]), float(s[1])),
        base_point=z,
    )


def intrinsic_hessian(kernel_basis, frame, spec, g, nu):
    """Transverse Hessian of the normal component nu . h on the kernel directions.

    ``nu`` is the oriented unit normal in R^2; nu . h = Re((nu1 - i nu2) h),
    whose Hessian on the link comes from :func:`critical_hessian`.
    """
    weight = complex(nu[0], -nu[1])
    return kernel_basis @ critical_hessian(frame, spec, g, weight) @ kernel_basis.T


def fold_counts(eigenvalues):
    """(negative, positive, degenerate) eigenvalue counts with a dead band.

    The band is ``_DEAD_BAND`` times the spectral norm; an eigenvalue inside
    it cannot be signed, which makes the point degenerate.
    """
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    scale = float(np.max(np.abs(eigenvalues))) if eigenvalues.size else 0.0
    if scale == 0.0:
        return 0, 0, True
    tau = _DEAD_BAND * scale
    neg = int(np.sum(eigenvalues < -tau))
    pos = int(np.sum(eigenvalues > tau))
    return neg, pos, bool(neg + pos < eigenvalues.size)


def classify_fold(point, spec, g, component_id=-1, image_center=(0.0, 0.0)):
    """Classify one singular point as a definite/indefinite/degenerate fold.

    The transverse normal is oriented away from ``image_center`` so the
    negative-eigenvalue count is consistent along a traced component whose
    image winds around that centre. The image radius is the distance of
    h(point) from ``image_center``.
    """
    center = np.asarray(image_center, dtype=float)
    data = local_fold_data(point, spec, g)
    nu = np.array([-data.image_dir[1], data.image_dir[0]])
    hval = eval_poly(g, data.base_point)
    offset = np.array([hval.real, hval.imag]) - center
    if np.dot(offset, nu) < 0:
        nu = -nu
    hess = intrinsic_hessian(data.kernel_basis, data.frame, spec, g, nu)
    eigs = np.linalg.eigvalsh(hess)
    neg, _, degenerate = fold_counts(eigs)
    if degenerate:
        kind = FoldKind.DEGENERATE
        absolute = None
    else:
        absolute = min(neg, data.kernel_basis.shape[0] - neg)
        kind = FoldKind.DEFINITE if absolute == 0 else FoldKind.INDEFINITE
    return FoldRecord(
        component_id=component_id,
        kind=kind,
        absolute_index=absolute,
        negative_eigenvalues=neg,
        image_center=center,
        image_radius_mean=float(np.linalg.norm(offset)),
        image_radius_deviation=0.0,
        embedding_ok=True,
    )


# ---------------------------------------------------------------------------
# component-level classification
# ---------------------------------------------------------------------------


def circle_fit(points):
    """Least-squares circle fit; returns (center, radius, rms_residual)."""
    pts = np.asarray(points, dtype=float)
    a = np.column_stack([pts[:, 0], pts[:, 1], np.ones(len(pts))])
    b = -(pts[:, 0] ** 2 + pts[:, 1] ** 2)
    (d, e, f), *_ = np.linalg.lstsq(a, b, rcond=None)
    center = np.array([-d / 2.0, -e / 2.0])
    radius = float(np.sqrt(max(np.dot(center, center) - f, 0.0)))
    dist = np.linalg.norm(pts - center, axis=1)
    rms = float(np.sqrt(np.mean((dist - radius) ** 2)))
    return center, radius, rms


def min_nonadjacent_image_distance(trace):
    """Smallest image distance between circularly non-adjacent trace samples.

    One row of distances at a time, from sample k to the samples after k + 1
    (the last sample is adjacent to the first), so memory stays linear in
    the trace length.
    """
    pts = trace.image
    count = len(pts)
    if count < 4:
        return np.inf
    best = np.inf
    for k in range(count - 2):
        stop = count - 1 if k == 0 else count
        if stop > k + 2:
            dist = np.linalg.norm(pts[k] - pts[k + 2 : stop], axis=1)
            best = min(best, float(dist.min()))
    return best


@dataclass(eq=False)
class ComponentClassification:
    """Aggregate classification of one traced component."""

    record: FoldRecord
    consistent: bool


def classify_component(trace, spec, g, component_id):
    """Classify sampled points along a traced component and aggregate.

    About ``_MAX_SAMPLES`` points, evenly strided, must all agree in (kind,
    absolute index) for the component to be consistently classified;
    ``consistent`` reports that. Image geometry comes from a least-squares
    circle fit of the full trace image, and ``embedding_ok`` is the
    injectivity verdict that :func:`verify_round` reads.
    """
    center = circle_fit(trace.image)[0]
    count = len(trace.points)
    stride = max(1, count // _MAX_SAMPLES)
    records = [
        classify_fold(trace.points[idx], spec, g, component_id, center)
        for idx in range(0, count, stride)
    ]
    kinds = {(r.kind, r.absolute_index, r.negative_eigenvalues) for r in records}
    consistent = len(kinds) == 1
    radii = np.linalg.norm(trace.image - center, axis=1)
    base = records[0]
    record = FoldRecord(
        component_id=component_id,
        kind=base.kind,
        absolute_index=base.absolute_index,
        negative_eigenvalues=base.negative_eigenvalues,
        image_center=center,
        image_radius_mean=float(np.mean(radii)),
        image_radius_deviation=float(np.max(np.abs(radii - np.mean(radii)))),
        embedding_ok=min_nonadjacent_image_distance(trace) > 1e-6,
    )
    return ComponentClassification(record=record, consistent=consistent)


# ---------------------------------------------------------------------------
# round verdict
# ---------------------------------------------------------------------------

_ROUND_NOTE = (
    "concentricity is checked operationally: embedded closed image curves "
    "with winding number +-1 about the common centre and pairwise disjoint "
    "radial annuli"
)


@dataclass(eq=False)
class RoundVerdict:
    status: str  # "ROUND" or "NOT_ROUND"
    radii: list
    center: np.ndarray
    failed_check: str | None
    note: str = _ROUND_NOTE

    @property
    def is_round(self):
        return self.status == "ROUND"


def _winding_number(image, center):
    rel = image - center
    angles = np.arctan2(rel[:, 1], rel[:, 0])
    steps = np.diff(np.concatenate([angles, angles[:1]]))
    increments = (steps + np.pi) % (2.0 * np.pi) - np.pi
    return float(np.sum(increments) / (2.0 * np.pi))


def verify_round(traces, records):
    """Decide whether classified singular components form a round structure.

    Checks, in order: every component non-degenerate; h injective on each
    component, as ``embedding_ok`` of its record says (set by
    :func:`classify_component`: non-adjacent image samples separated by more
    than 1e-6); winding number +-1 about the common centre; and pairwise
    disjoint radial annuli. The common centre is the mean of the records'
    circle-fit centres, so it does not depend on how the trace nodes are
    spaced. Returns a RoundVerdict with per-component fitted radii.
    """
    if not traces:
        return RoundVerdict("NOT_ROUND", [], np.zeros(2), "no_components")
    if any(r.kind == FoldKind.DEGENERATE for r in records):
        return RoundVerdict("NOT_ROUND", [], np.zeros(2), "degenerate_fold")

    if any(not r.embedding_ok for r in records):
        return RoundVerdict("NOT_ROUND", [], np.zeros(2), "injectivity")

    center = np.mean([r.image_center for r in records], axis=0)
    for trace in traces:
        w = _winding_number(trace.image, center)
        if abs(abs(w) - 1.0) > 0.05:
            return RoundVerdict("NOT_ROUND", [], center, "winding")

    intervals = []
    fitted = []
    for trace in traces:
        dist = np.linalg.norm(trace.image - center, axis=1)
        intervals.append((float(dist.min()), float(dist.max())))
        fitted.append(circle_fit(trace.image)[1])
    order = np.argsort([iv[0] for iv in intervals])
    for a, b in zip(order[:-1], order[1:]):
        if intervals[a][1] >= intervals[b][0]:
            return RoundVerdict("NOT_ROUND", sorted(fitted), center, "radial_overlap")

    return RoundVerdict("ROUND", sorted(fitted), center, None)


def equivariance_error(spec, g, rng_seed=42):
    """Max of |h(alpha z) - alpha h(z)| over random unit alpha and link points.

    ``_EQUIVARIANCE_SAMPLES`` pairs are drawn. Only meaningful when f is
    homogeneous (so the circle action preserves the link) and g is
    homogeneous of degree 1; otherwise NotApplicable.
    """
    if homogeneous_degree(spec.f) is None:
        raise NotApplicable("f is not homogeneous; the circle action does not act")
    if homogeneous_degree(g) != 1:
        raise NotApplicable("g is not homogeneous of degree 1")
    rng = np.random.default_rng(rng_seed)
    points = sample_link_points(spec, _EQUIVARIANCE_SAMPLES, rng)
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=_EQUIVARIANCE_SAMPLES))
    lhs = eval_poly(g, phases[:, None] * points)
    values = eval_poly(g, points)
    # alpha * h(z) in real arithmetic, rounded as the scalar complex product
    rhs_re = phases.real * values.real - phases.imag * values.imag
    rhs_im = phases.real * values.imag + phases.imag * values.real
    errors = np.hypot(lhs.real - rhs_re, lhs.imag - rhs_im)
    return float(np.max(errors, initial=0.0))
