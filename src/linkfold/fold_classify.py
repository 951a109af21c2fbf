"""Fold classification of singular points and the round-map verdict.

A singular point of h is a fold when three conditions hold (Whitney 1955),
each checked by one function:

1. dh has rank 1: :func:`local_fold_data`, which raises RankZero or RankTwo.
2. ker dh is transverse to the singular curve, so the image velocity
   dh(t) along the curve does not vanish: :func:`classify_component` counts
   the nodes where it reverses as cusps.
3. The transverse Hessian of the normal component of h on ker dh is
   nondegenerate: :func:`classify_component`, in closed form at every trace
   node w = (z, a, b). There z = a gradbar f + b gradbar g, so the image
   normal is b/|b|, ker dh is the complex complement C of (gradbar f,
   gradbar g), and by :func:`~linkfold.singular_set.span_hessian` the
   Hessian's eigenvalues are mu (+-sigma_k - 1), with mu = 1/|b| and
   sigma_k the singular values of C P C^T, P = conj(a) Hf + conj(b) Hg;
   :func:`fold_counts` signs +-sigma_k - 1.

The Hessian's negative-eigenvalue count lambda fixes the absolute index
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
    TangentFrame,
    complexify,
    orthonormal_complement,
    project_to_link,
    tangent_frame,
)
from .polynomial import _cmul, conj_gradient, eval_poly, gradient, homogeneous_degree
from .singular_set import AugmentedSystem, span_hessian

__all__ = [
    "FoldKind",
    "FoldRecord",
    "LocalFoldData",
    "RoundVerdict",
    "local_fold_data",
    "intrinsic_hessian",
    "fold_counts",
    "classify_component",
    "verify_round",
    "equivariance_error",
    "circle_fit",
    "min_nonadjacent_image_distance",
]

# eigenvalues within this fraction of the spectral norm cannot be signed
_DEAD_BAND = 1e-5


class FoldKind(enum.Enum):
    DEFINITE = "DEFINITE"
    INDEFINITE = "INDEFINITE"
    DEGENERATE = "DEGENERATE"


@dataclass(eq=False)
class FoldRecord:
    """Classification of one traced component; see :func:`classify_component`."""

    component_id: int
    kind: FoldKind
    absolute_index: int | None
    negative_eigenvalues: int | None
    image_center: np.ndarray
    image_radius_mean: float
    image_radius_deviation: float
    embedding_ok: bool
    cusps: int
    consistent: bool


@dataclass(eq=False)
class LocalFoldData:
    """First-order data of h in a tangent chart at a singular point."""

    kernel_basis: np.ndarray  # (2n-2, 2n-1) rows, chart coordinates
    image_dir: np.ndarray  # unit vector in R^2, sign arbitrary
    frame: TangentFrame


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
    return LocalFoldData(kernel_basis=vt[1:], image_dir=u[:, 0], frame=frame)


def intrinsic_hessian(kernel_basis, frame, spec, g, nu):
    """Transverse Hessian of the normal component nu . h on the kernel directions.

    ``nu`` is a covector on R^2, the oriented unit normal for a fold; it need
    not be a unit vector (the slice weight is not). nu . h = Re(w h),
    w = nu1 - i nu2, must be critical at the frame's base point. Its Hessian
    is mu (Re(V P V^T) - I) with V the kernel rows as ambient vectors and P
    from :func:`span_hessian` at the point's span coefficients (a, b), and
    mu = w / conj(b). The identity kernel gives the whole tangent space. A
    stacked frame gives the stacked Hessians, each its one-point call's bit
    for bit, with ``kernel_basis`` broadcast against the frames' bases.
    """
    z = frame.base_point
    a, b = np.moveaxis(AugmentedSystem(spec, g).span_coefficients(z), -1, 0)[..., None, None]
    mu = (complex(nu[0], -nu[1]) / np.conj(b)).real
    vectors = kernel_basis @ frame.complex_basis
    second = np.real(vectors @ span_hessian(z, a, b, spec, g) @ np.swapaxes(vectors, -1, -2))
    return mu * (second - np.eye(vectors.shape[-2]))


def fold_counts(eigenvalues):
    """(negative, positive, degenerate) eigenvalue counts with a dead band.

    The band is ``_DEAD_BAND`` times the spectral norm; an eigenvalue inside
    it cannot be signed, which makes the point degenerate. A stack of rows
    gives one array per count, each row's entry equal to its 1-D call.
    """
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    scale = np.max(np.abs(eigenvalues), axis=-1, initial=0.0)
    tau = (_DEAD_BAND * scale)[..., None]
    neg = np.sum(eigenvalues < -tau, axis=-1)
    pos = np.sum(eigenvalues > tau, axis=-1)
    degenerate = (scale == 0.0) | (neg + pos < eigenvalues.shape[-1])
    if eigenvalues.ndim == 1:
        return int(neg), int(pos), bool(degenerate)
    return neg, pos, degenerate


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


def _node_folds(trace, spec, g):
    """Fold data of a traced component at every node, in closed form.

    Returns three arrays with one entry per node: the negative-eigenvalue
    count of the transverse Hessian of (b/|b|) . h on ker dh (see the module
    docstring), whether one of its eigenvalues falls in the dead band, and
    whether the image velocity v = dh(t) reverses from the node to the next,
    Re(conj(v_k) v_{k+1}) < 0 with the last node wrapping to the first.
    """
    z = trace.points
    a, b = complexify(trace.nodes[:, -4:]).T[..., None, None]
    grad_g = gradient(g, z)
    # image velocity dh(t) at each node, from the trace's z-tangents
    velocity = np.sum(grad_g * complexify(trace.tangents[:, :-4]), axis=1)
    reversal = (np.conj(velocity) * np.roll(velocity, -1)).real < 0
    kernel = orthonormal_complement([conj_gradient(spec.f, z), np.conj(grad_g)])
    second = kernel @ span_hessian(z, a, b, spec, g) @ np.swapaxes(kernel, 1, 2)
    sigma = np.linalg.svd(second, compute_uv=False)
    # the Hessian's eigenvalues over mu = 1/|b| > 0: same signs, same band
    neg, _, degenerate = fold_counts(np.hstack([sigma, -sigma]) - 1.0)
    return neg, degenerate, reversal


def classify_component(trace, spec, g, component_id):
    """Classify a traced component from the fold data at all of its nodes.

    Returns the component's FoldRecord. Its kind, absolute index and
    negative-eigenvalue count are those of every node when the nodes agree
    on the count and none falls in the dead band. Otherwise the kind is
    DEGENERATE with no index or count: a count that changes between nodes
    takes an eigenvalue through zero, at a degenerate fold point. ``cusps``
    counts the nodes where the image velocity v = dh(t) reverses; there
    ker dh contains the curve's tangent, so the fold condition fails.
    ``consistent`` says that the kind is not DEGENERATE and that there is
    no cusp. Image geometry comes from a least-squares circle fit of the
    full trace image, and ``embedding_ok`` is the injectivity verdict that
    :func:`verify_round` reads.
    """
    neg, degenerate, reversal = _node_folds(trace, spec, g)
    kind, absolute, count = FoldKind.DEGENERATE, None, None
    if not degenerate.any() and np.all(neg == neg[0]):
        count = int(neg[0])
        absolute = min(count, 2 * spec.n - 2 - count)
        kind = FoldKind.DEFINITE if absolute == 0 else FoldKind.INDEFINITE
    center = circle_fit(trace.image)[0]
    radii = np.linalg.norm(trace.image - center, axis=1)
    cusps = int(np.count_nonzero(reversal))
    return FoldRecord(
        component_id=component_id,
        kind=kind,
        absolute_index=absolute,
        negative_eigenvalues=count,
        image_center=center,
        image_radius_mean=float(np.mean(radii)),
        image_radius_deviation=float(np.max(np.abs(radii - np.mean(radii)))),
        embedding_ok=min_nonadjacent_image_distance(trace) > 1e-6 * spec.epsilon,
        cusps=cusps,
        consistent=kind is not FoldKind.DEGENERATE and cusps == 0,
    )


# ---------------------------------------------------------------------------
# round verdict
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class RoundVerdict:
    status: str  # "ROUND" or "NOT_ROUND"
    radii: list
    center: np.ndarray
    failed_check: str | None
    note = (
        "concentricity is checked operationally: embedded closed image curves "
        "with winding number +-1 about the common centre and pairwise disjoint "
        "radial annuli"
    )

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
    than 1e-6 epsilon); winding number +-1 about the common centre; and
    pairwise disjoint radial annuli. The common centre is the mean of the
    records' circle-fit centres, so it does not depend on how the trace
    nodes are spaced. Returns a RoundVerdict with per-component fitted radii.
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


def equivariance_error(spec, g, points, phases):
    """Max of |h(alpha z) - alpha h(z)| over link points z and unit phases alpha.

    One phase per row of ``points``. Only meaningful when f is homogeneous
    (so the circle action preserves the link) and g is homogeneous of degree
    1, where the identity is exact and the value measures rounding alone;
    otherwise NotApplicable.
    """
    if homogeneous_degree(spec.f) is None:
        raise NotApplicable("f is not homogeneous; the circle action does not act")
    if homogeneous_degree(g) != 1:
        raise NotApplicable("g is not homogeneous of degree 1")
    lhs = eval_poly(g, phases[:, None] * points)
    values = eval_poly(g, points)
    # alpha * h(z) in real arithmetic, rounded as the scalar complex product
    rhs_re, rhs_im = _cmul(phases.real, phases.imag, values.real, values.imag)
    errors = np.hypot(lhs.real - rhs_re, lhs.imag - rhs_im)
    return float(np.max(errors, initial=0.0))
