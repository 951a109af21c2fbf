"""Morse data of ray slices and of composed height functions.

For a ray direction theta, the slice Q_theta is the preimage under h of the
ray {t e^{i theta} : t >= 0}; the function Re(e^{-i theta} h) restricted to
Q_theta has its critical points exactly on the singular set, and their Morse
indices are computed from finite-difference Hessians in retraction charts.
Composing h with a nonzero linear height eta gives a Morse function on the
whole link whose critical points sit on the traced singular curves; they are
located along the traces and refined to high accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateHessian, RankZero, WrongDimension
from .fold_classify import circle_fit, fold_counts
from .geometry import (
    chart,
    chart_hessian,
    complexify,
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

# composed-Morse extremum search stops when a parabolic move is this small
_PARAM_TOL = 1e-10
# image points closer than this (times epsilon) join one n = 1 component
_CLUSTER_GAP = 0.08


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


def _slice_newton(system, w0, rotation, tol=1e-12, max_iter=20):
    """Square Newton on {augmented system, Im(rotation * h) = 0}."""
    w = np.asarray(w0, dtype=float).copy()
    for _ in range(max_iter):
        zc = complexify(w[: 2 * system.m])
        res_aug = system.residual(w)
        hval = rotation * eval_poly(system.g, zc)
        res = np.concatenate([res_aug, [hval.imag]])
        if np.linalg.norm(res) <= tol:
            return w, True
        jac_aug = system.jacobian(w)
        # real Jacobian row of Im(rotation * h), zero in the (a, b) unknowns
        rotated = rotation * gradient(system.g, zc)
        row = np.zeros(2 * system.m + 4)
        row[0 : 2 * system.m : 2] = rotated.imag
        row[1 : 2 * system.m : 2] = rotated.real
        jac = np.vstack([jac_aug, row])
        try:
            delta = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError:
            return w, False
        if not np.all(np.isfinite(delta)):
            return w, False
        w = w + delta
    return w, False


def slice_critical_points(slice_spec, traces, spec, g, min_ray_param=1e-3,
                          dedupe_tol=1e-6):
    """Points of the traced singular set whose image lies on the ray.

    Sign changes of Im(e^{-i theta} h) along each trace (on the Re > 0 side)
    are refined by Newton on the augmented system plus the ray equation.
    Points whose ray parameter ends up below ``min_ray_param`` are discarded
    to stay away from the slice boundary at the origin.
    """
    system = AugmentedSystem(spec, g)
    rotation = slice_spec.rotation
    found = []
    for trace in traces:
        hc = trace.image[:, 0] + 1j * trace.image[:, 1]
        rotated = rotation * hc
        vals = rotated.imag
        rays = rotated.real
        count = len(vals)
        segments = range(count if trace.closed else count - 1)
        for k in segments:
            nxt = (k + 1) % count
            va, vb = vals[k], vals[nxt]
            if va == 0.0:
                crossing = va == 0.0 and rays[k] > 0
                frac = 0.0
            elif va * vb < 0.0:
                crossing = True
                frac = va / (va - vb)
            else:
                crossing = False
            if not crossing or max(rays[k], rays[nxt]) <= 0:
                continue
            w0 = trace.nodes[k] + frac * (trace.nodes[nxt] - trace.nodes[k])
            w, ok = _slice_newton(system, w0, rotation)
            if not ok:
                continue
            z = complexify(w[: 2 * system.m])
            ray_param = (rotation * eval_poly(g, z)).real
            if ray_param < min_ray_param:
                continue
            if all(np.linalg.norm(z - other) > dedupe_tol for other in found):
                found.append(z)
    found.sort(key=lambda z: -(rotation * eval_poly(g, z)).real)
    return found


def _morse_index(eigs, dead_band):
    """Negative-eigenvalue count; DegenerateHessian inside the dead band."""
    neg, _, degenerate = fold_counts(eigs, dead_band=dead_band)
    if degenerate:
        raise DegenerateHessian(
            f"Hessian eigenvalue inside dead band {dead_band:g} x spectral "
            f"norm: {eigs}"
        )
    return neg


def slice_morse_index(point, slice_spec, spec, g, hessian_step=1e-4,
                      dead_band=1e-5):
    """Morse index of the slice function Re(e^{-i theta} h) at a critical point.

    The chart of the slice at the point is the kernel of the differential of
    Im(e^{-i theta} h) inside the link tangent space (dimension 2n-2); the
    Hessian is computed there by central differences. Raises
    DegenerateHessian when an eigenvalue falls in the dead band.
    """
    rotation = slice_spec.rotation
    z = project_to_link(np.asarray(point, dtype=complex), spec, tol=1e-12)
    frame = tangent_frame(z, spec)
    derivs = frame.complex_basis @ gradient(g, z)
    im_row = (rotation * derivs).imag
    grad_norm = float(np.max(np.abs((rotation * derivs).real)))
    norm_row = np.linalg.norm(im_row)
    if norm_row <= 1e-10:
        raise RankZero("slice normal degenerated: d Im(e^{-i theta} h) = 0")
    _, _, vt = np.linalg.svd(im_row[None, :], full_matrices=True)
    kernel = vt[1:]

    def psi(svec):
        u = kernel.T @ svec
        val = rotation * eval_poly(g, chart(z, frame, u, spec))
        return float(val.real)

    hess = chart_hessian(psi, kernel.shape[0], hessian_step * spec.epsilon)
    eigs = np.linalg.eigvalsh(hess)
    index = _morse_index(eigs, dead_band)
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


def _point_at(system, trace, node_index, delta):
    """Curve point at signed arc offset ``delta`` from a trace node."""
    w_node = trace.nodes[node_index]
    t_node = trace.tangents[node_index]
    w, _, ok = system.corrector(w_node + delta * t_node, t_node)
    return w, ok


def _refine_extremum(system, trace, height, node_index, bracket):
    """Locate the 1-D extremum of ``height`` near a node of the trace.

    Bisection on the finite-difference derivative narrows the bracket, then
    three-point parabolic refinement polishes the offset to ``_PARAM_TOL``.
    Returns the corrected augmented vector, or None if the bracket fails.
    """

    def phi(delta):
        w, ok = _point_at(system, trace, node_index, delta)
        if not ok:
            raise ArithmeticError("corrector failed during refinement")
        return height(complexify(w[: 2 * system.m]))

    fd_step = 1e-6

    def dphi(delta):
        return (phi(delta + fd_step) - phi(delta - fd_step)) / (2.0 * fd_step)

    lo, hi = bracket
    dlo, dhi = dphi(lo), dphi(hi)
    for _ in range(2):
        if dlo * dhi <= 0:
            break
        lo, hi = 1.5 * lo, 1.5 * hi
        dlo, dhi = dphi(lo), dphi(hi)
    if dlo * dhi > 0:
        return None
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        dmid = dphi(mid)
        if dlo * dmid <= 0:
            hi, dhi = mid, dmid
        else:
            lo, dlo = mid, dmid
    delta = 0.5 * (lo + hi)
    h = 1e-5
    for _ in range(10):
        f0, fp, fm = phi(delta), phi(delta + h), phi(delta - h)
        denom = fp - 2.0 * f0 + fm
        if denom == 0.0:
            break
        move = -0.5 * h * (fp - fm) / denom
        move = float(np.clip(move, -2.0 * h, 2.0 * h))
        delta += move
        if abs(move) <= _PARAM_TOL:
            break
        h = max(h / 2.0, 1e-6)
    w, ok = _point_at(system, trace, node_index, delta)
    return w if ok else None


def composed_morse(eta, traces, spec, g, hessian_step=1e-4, dead_band=1e-5,
                   dedupe_tol=1e-6):
    """Critical points of the height eta . h on the link, with Morse data.

    ``eta`` is a nonzero covector on R^2 (normalised internally). Critical
    points are bracketed by sign changes of the discrete arclength
    derivative along each traced singular component, refined along the
    curve, then classified by the full (2n-1)-dimensional chart Hessian.
    Records are sorted by critical value.
    """
    eta = np.asarray(eta, dtype=float)
    norm = np.linalg.norm(eta)
    if norm == 0.0:
        raise ValueError("eta must be nonzero")
    eta = eta / norm
    system = AugmentedSystem(spec, g)
    eta_c = complex(eta[0], eta[1])

    def height(z):
        val = eval_poly(g, z)
        return eta[0] * val.real + eta[1] * val.imag

    def chart_data(z):
        """Tangent frame, chart Hessian and chart gradient of eta . h at z."""
        frame = tangent_frame(z, spec)
        hess = chart_hessian(
            lambda u: height(chart(z, frame, u, spec)),
            frame.dim, hessian_step * spec.epsilon,
        )
        grad = np.real(np.conj(eta_c) * (frame.complex_basis @ gradient(g, z)))
        return frame, hess, grad

    records = []
    seen = []
    for trace in traces:
        vals = trace.image @ eta
        count = len(vals)
        if count < 3:
            continue
        diffs = np.array([vals[(k + 1) % count] - vals[k] for k in range(count)])
        chords = np.array(
            [
                np.linalg.norm(
                    trace.nodes[(k + 1) % count][: 2 * system.m]
                    - trace.nodes[k][: 2 * system.m]
                )
                for k in range(count)
            ]
        )
        segments = range(count) if trace.closed else range(count - 1)
        for k in segments:
            prev = (k - 1) % count
            if not trace.closed and k == 0:
                continue
            if diffs[prev] == 0.0 or diffs[k] == 0.0:
                continue
            if np.sign(diffs[prev]) == np.sign(diffs[k]):
                continue
            bracket = (-0.9 * chords[prev], 0.9 * chords[k])
            try:
                w = _refine_extremum(system, trace, height, k, bracket)
            except ArithmeticError:
                w = None
            if w is None:
                continue
            z = complexify(w[: 2 * system.m])
            if any(np.linalg.norm(z - other) <= dedupe_tol for other in seen):
                continue

            z = project_to_link(z, spec, tol=1e-12)
            frame, hess, grad = chart_data(z)
            # one chart-Newton polish step pulls the gradient to solver level
            try:
                correction = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:
                correction = None
            if correction is not None and np.linalg.norm(correction) < 1e-5:
                z = project_to_link(
                    chart(z, frame, correction, spec), spec, tol=1e-12
                )
                frame, hess, grad = chart_data(z)
            eigs = np.linalg.eigvalsh(hess)
            index = _morse_index(eigs, dead_band)
            records.append(
                CriticalPointRecord(
                    point=z,
                    value=float(height(z)),
                    morse_index=index,
                    hessian_eigenvalues=eigs,
                    gradient_norm=float(np.max(np.abs(grad))),
                )
            )
            seen.append(z)
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


def trace_image_n1(spec, g, n_samples=2000, rng_seed=42):
    """Sample the 1-dimensional link and group the image points by proximity.

    Only valid for n = 1. Components are reported with least-squares circle
    fits, sorted by radius; image points within ``_CLUSTER_GAP`` (times
    epsilon) of each other join one connected component.
    """
    if spec.n != 1:
        raise WrongDimension(f"n = 1 required, got n = {spec.n}")
    rng = np.random.default_rng(rng_seed)
    points = sample_link_points(spec, n_samples, rng)
    values = np.array([eval_poly(g, z) for z in points])
    image = np.column_stack([values.real, values.imag])

    gap = _CLUSTER_GAP * spec.epsilon
    dist = np.linalg.norm(image[:, None, :] - image[None, :, :], axis=2)
    adjacency = dist <= gap
    unassigned = set(range(len(image)))
    groups = []
    while unassigned:
        stack = [min(unassigned)]
        unassigned.discard(stack[0])
        members = []
        while stack:
            k = stack.pop()
            members.append(k)
            neighbours = np.nonzero(adjacency[k])[0]
            fresh = [int(j) for j in neighbours if j in unassigned]
            for j in fresh:
                unassigned.discard(j)
            stack.extend(fresh)
        groups.append(np.array(sorted(members)))

    fits = []
    for members in groups:
        pts = image[members]
        center, radius, _ = circle_fit(pts)
        fits.append((radius, center, pts))
    fits.sort(key=lambda item: item[0])

    min_gap = np.inf
    for i in range(len(fits)):
        for j in range(i + 1, len(fits)):
            d = np.linalg.norm(
                fits[i][2][:, None, :] - fits[j][2][None, :, :], axis=2
            ).min()
            min_gap = min(min_gap, float(d))

    return N1ImageResult(
        components=[pts for _, _, pts in fits],
        centers=[center for _, center, _ in fits],
        radii=[radius for radius, _, _ in fits],
        min_intercomponent_distance=float(min_gap),
    )
