"""Morse data of ray slices and of composed height functions.

For a ray direction theta, the slice Q_theta is the preimage under h of the
ray {t e^{i theta} : t >= 0}; the function Re(e^{-i theta} h) restricted to
Q_theta has its critical points exactly on the singular set. Composing h
with a nonzero linear height eta gives a Morse function on the whole link
whose critical points sit on the traced singular curves. Both kinds of
critical point are bracketed by sign changes over the trace nodes and
solved by :meth:`AugmentedSystem.corrector`, the one bordered Newton solve
of the singular set, whose ``extra(w)`` returns the added equation's value
and its real gradient row in (z, a, b): the ray equation for slices, the
criticality equation Im(w b) = 0 for composed heights. Their Morse indices
come from the analytic Hessian :func:`critical_hessian`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateHessian, RankZero, WrongDimension
from .fold_classify import _DEAD_BAND, circle_fit, fold_counts
from .geometry import (
    complexify,
    critical_hessian,
    project_to_link,
    sample_link_points,
    tangent_frame,
)
from .polynomial import eval_poly, gradient
from .singular_set import AugmentedSystem

__all__ = [
    "SliceSpec",
    "CriticalPointRecord",
    "N1ImageResult",
    "slice_critical_points",
    "slice_morse_index",
    "composed_morse",
    "trace_image_n1",
]

# image points closer than this (times epsilon) join one n = 1 component
_CLUSTER_GAP = 0.08
# link samples whose image is clustered at n = 1
_N1_SAMPLES = 2000
# iteration budget of the bordered Newton solve for slice and composed points
_SOLVE_MAX_ITER = 20
# critical points closer than this are one
_DEDUPE_TOL = 1e-6
# slice points with a smaller ray parameter sit at the slice boundary
_MIN_RAY_PARAM = 1e-3


@dataclass(frozen=True)
class SliceSpec:
    """Ray direction angle theta; the ray is {t e^{i theta} : t >= 0}."""

    theta: float = 0.0

    @property
    def rotation(self):
        """Unit complex number e^{-i theta} that maps the ray onto [0, inf)."""
        return np.exp(-1j * self.theta)


@dataclass(eq=False)
class CriticalPointRecord:
    """A nondegenerate critical point with its value, index and spectrum."""

    point: np.ndarray
    value: float
    morse_index: int
    hessian_eigenvalues: np.ndarray
    gradient_norm: float = 0.0


def _brackets(trace, vals):
    """Start vectors at the sign changes of ``vals``, one value per trace node.

    Yields (k, next, w0) for each segment from node k to the next node on
    which ``vals`` vanishes or changes sign, with w0 the augmented vector
    interpolated linearly to the zero; the last node's segment wraps around
    to the first.
    """
    count = len(vals)
    for k in range(count):
        nxt = (k + 1) % count
        va, vb = vals[k], vals[nxt]
        if va == 0.0:
            frac = 0.0
        elif va * vb < 0.0:
            frac = va / (va - vb)
        else:
            continue
        yield k, nxt, trace.nodes[k] + frac * (trace.nodes[nxt] - trace.nodes[k])


def slice_critical_points(slice_spec, traces, spec, g):
    """Points of the traced singular set whose image lies on the ray.

    Sign changes of Im(e^{-i theta} h) along each trace (on the Re > 0 side)
    are refined by the bordered corrector with the ray equation. Points whose
    ray parameter ends up below ``_MIN_RAY_PARAM`` are discarded to stay
    away from the slice boundary at the origin.
    """
    system = AugmentedSystem(spec, g)
    rotation = slice_spec.rotation
    dim = 2 * system.m

    def ray_equation(w):
        """Im(rotation * h) and its real gradient row, zero in (a, b)."""
        zc = complexify(w[:dim])
        rotated = rotation * gradient(g, zc)
        row = np.zeros(dim + 4)
        row[0:dim:2] = rotated.imag
        row[1:dim:2] = rotated.real
        return (rotation * eval_poly(g, zc)).imag, row

    found = []
    for trace in traces:
        rotated = rotation * (trace.image[:, 0] + 1j * trace.image[:, 1])
        for k, nxt, w0 in _brackets(trace, rotated.imag):
            if max(rotated.real[k], rotated.real[nxt]) <= 0:
                continue
            w, _, ok = system.corrector(w0, ray_equation, max_iter=_SOLVE_MAX_ITER)
            if not ok:
                continue
            z = complexify(w[:dim])
            ray_param = (rotation * eval_poly(g, z)).real
            if ray_param < _MIN_RAY_PARAM:
                continue
            if all(np.linalg.norm(z - other) > _DEDUPE_TOL for other in found):
                found.append(z)
    found.sort(key=lambda z: -(rotation * eval_poly(g, z)).real)
    return found


def _morse_index(eigs):
    """Negative-eigenvalue count; DegenerateHessian inside the dead band."""
    neg, _, degenerate = fold_counts(eigs)
    if degenerate:
        raise DegenerateHessian(
            f"Hessian eigenvalue inside dead band {_DEAD_BAND:g} x spectral "
            f"norm: {eigs}"
        )
    return neg


# hessian_step and dead_band are ignored: perfbench/workloads.py passes them
def slice_morse_index(point, slice_spec, spec, g, hessian_step=None,
                      dead_band=None):
    """Morse index of the slice function Re(e^{-i theta} h) at a critical point.

    The chart of the slice at the point is the kernel of the differential of
    Im(e^{-i theta} h) inside the link tangent space (dimension 2n-2). The
    Hessian is the analytic link Hessian of the slice's Lagrangian
    Re(e^{-i theta} h) - lam Im(e^{-i theta} h) restricted there, with lam
    the multiplier that makes its differential vanish on the link; the
    record's ``gradient_norm`` is the largest entry of that differential.
    Raises DegenerateHessian when an eigenvalue falls in the dead band.
    """
    rotation = slice_spec.rotation
    z = project_to_link(np.asarray(point, dtype=complex), spec)
    frame = tangent_frame(z, spec)
    derivs = rotation * (frame.complex_basis @ gradient(g, z))
    im_row = derivs.imag
    if np.linalg.norm(im_row) <= 1e-10:
        raise RankZero("slice normal degenerated: d Im(e^{-i theta} h) = 0")
    # the slice's multiplier: d Re = lam d Im on the link at a critical point
    lam = float(np.dot(derivs.real, im_row) / np.dot(im_row, im_row))
    grad_norm = float(np.max(np.abs(derivs.real - lam * im_row)))
    _, _, vt = np.linalg.svd(im_row[None, :], full_matrices=True)
    kernel = vt[1:]
    # Re((1 + i lam) rotation h) = Re(rotation h) - lam Im(rotation h)
    weight = rotation * (1.0 + 1j * lam)
    hess = kernel @ critical_hessian(frame, spec, g, weight) @ kernel.T
    eigs = np.linalg.eigvalsh(hess)
    index = _morse_index(eigs)
    value = float((rotation * eval_poly(g, z)).real)
    return CriticalPointRecord(
        point=z,
        value=value,
        morse_index=index,
        hessian_eigenvalues=eigs,
        gradient_norm=grad_norm,
    )


# ---------------------------------------------------------------------------
# composed Morse functions eta . h
# ---------------------------------------------------------------------------


# hessian_step and dead_band are ignored: perfbench/workloads.py passes them
def composed_morse(eta, traces, spec, g, hessian_step=None, dead_band=None):
    """Critical points of the height eta . h on the link, with Morse data.

    ``eta`` is a nonzero covector on R^2 (normalised internally), and
    eta . h = Re(w h) with w = eta1 - i eta2. On the singular set
    z = a gradbar f + b gradbar g, and Re(w h) is critical on the link
    exactly where Im(w b) = 0. Sign changes of Im(w b) over each trace's
    nodes are refined by the bordered corrector with that equation, then
    classified by the full (2n-1)-dimensional link Hessian. Records are
    sorted by critical value.
    """
    eta = np.asarray(eta, dtype=float)
    norm = np.linalg.norm(eta)
    if norm == 0.0:
        raise ValueError("eta must be nonzero")
    eta = eta / norm
    weight = complex(eta[0], -eta[1])
    system = AugmentedSystem(spec, g)
    # Im(weight * b) is linear in the last two unknowns (Re b, Im b)
    row = np.zeros(2 * system.m + 4)
    row[-2:] = weight.imag, weight.real

    def critical_equation(w):
        return (weight * complex(w[-2], w[-1])).imag, row

    records = []
    for trace in traces:
        b = trace.nodes[:, -2] + 1j * trace.nodes[:, -1]
        for _, _, w0 in _brackets(trace, (weight * b).imag):
            w, _, ok = system.corrector(
                w0, critical_equation, max_iter=_SOLVE_MAX_ITER
            )
            if not ok:
                continue
            z = complexify(w[: 2 * system.m])
            if any(np.linalg.norm(z - r.point) <= _DEDUPE_TOL for r in records):
                continue
            frame = tangent_frame(z, spec)
            derivs = weight * (frame.complex_basis @ gradient(g, z))
            eigs = np.linalg.eigvalsh(critical_hessian(frame, spec, g, weight))
            records.append(
                CriticalPointRecord(
                    point=z,
                    value=float((weight * eval_poly(g, z)).real),
                    morse_index=_morse_index(eigs),
                    hessian_eigenvalues=eigs,
                    gradient_norm=float(np.max(np.abs(derivs.real))),
                )
            )
    records.sort(key=lambda r: r.value)
    return records


# ---------------------------------------------------------------------------
# n = 1: the restriction is an embedding; trace its image
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class N1ImageResult:
    """Image components of h for a 1-dimensional link."""

    components: list  # list of (M, 2) arrays
    centers: list
    radii: list
    min_intercomponent_distance: float


def trace_image_n1(spec, g, rng_seed=42):
    """Sample the 1-dimensional link and group the image points by proximity.

    Only valid for n = 1. Components of the images of ``_N1_SAMPLES`` link
    points are reported with least-squares circle fits, sorted by radius;
    image points within ``_CLUSTER_GAP`` (times epsilon) of each other join
    one connected component. Each component's points come in order of their
    angle about its fitted centre, so they form a closed polyline along the
    curve; this assumes each image component is star-shaped about that
    centre, as the A1 circles are.
    """
    if spec.n != 1:
        raise WrongDimension(f"n = 1 required, got n = {spec.n}")
    rng = np.random.default_rng(rng_seed)
    points = sample_link_points(spec, _N1_SAMPLES, rng)
    values = eval_poly(g, points)
    image = np.column_stack([values.real, values.imag])

    gap = _CLUSTER_GAP * spec.epsilon
    unassigned = np.ones(len(image), dtype=bool)
    groups = []
    while unassigned.any():
        start = int(np.argmax(unassigned))
        unassigned[start] = False
        stack = [start]
        members = []
        while stack:
            k = stack.pop()
            members.append(k)
            near = np.linalg.norm(image - image[k], axis=1) <= gap
            fresh = np.nonzero(near & unassigned)[0]
            unassigned[fresh] = False
            stack.extend(fresh.tolist())
        groups.append(np.array(sorted(members)))

    fits = []
    for members in groups:
        pts = image[members]
        center, radius, _ = circle_fit(pts)
        rel = pts - center
        order = np.argsort(np.arctan2(rel[:, 1], rel[:, 0]))
        fits.append((radius, center, pts[order]))
    fits.sort(key=lambda item: item[0])

    min_gap = np.inf
    for i in range(len(fits)):
        for j in range(i + 1, len(fits)):
            for point in fits[i][2]:
                d = np.linalg.norm(fits[j][2] - point, axis=1).min()
                min_gap = min(min_gap, float(d))

    return N1ImageResult(
        components=[pts for _, _, pts in fits],
        centers=[center for _, center, _ in fits],
        radii=[radius for radius, _, _ in fits],
        min_intercomponent_distance=float(min_gap),
    )
