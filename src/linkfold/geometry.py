"""Geometry of the link K = f^{-1}(0) ∩ S_epsilon and retraction charts.

Real coordinates interleave as (x1, y1, x2, y2, ...) with z_j = x_j + i*y_j,
matching the convention used by :func:`realify` / :func:`complexify`. All
constraint work happens on the 3 real residuals (Re f, Im f, |z|^2 - eps^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionCollapse, NonConvergence, RankDeficient
from .polynomial import ComplexPoly, conj_gradient, eval_poly, gradient, hessian

__all__ = [
    "LinkSpec",
    "TangentFrame",
    "realify",
    "complexify",
    "link_residual",
    "link_residual_jacobian",
    "project_to_link",
    "sample_link_points",
    "tangent_frame",
    "orthonormal_complement",
    "chart",
    "critical_hessian",
]

# rank threshold for QR pivots of spanning sets and constraint Jacobians
_RANK_TOL = 1e-10
# residual target and iteration budget of a link projection
_PROJECT_TOL = 1e-12
_PROJECT_MAX_ITER = 50
# link samples give up after this many projection attempts per point
_MAX_ATTEMPTS_FACTOR = 20
# chart steps longer than this (times epsilon) are refused
_CHART_MAX_RADIUS = 0.1


def realify(z):
    """Interleave a complex vector into reals: (Re z1, Im z1, Re z2, ...).

    Works on the last axis, so a stack of vectors gives a stack of rows.
    """
    z = np.asarray(z, dtype=complex)
    out = np.empty(z.shape[:-1] + (2 * z.shape[-1],))
    out[..., 0::2] = z.real
    out[..., 1::2] = z.imag
    return out


def complexify(v):
    """Inverse of :func:`realify`."""
    v = np.asarray(v, dtype=float)
    return v[..., 0::2] + 1j * v[..., 1::2]


def _row_dot(a, b):
    """Dot products of the last-axis rows of ``a`` and ``b``.

    Each entry equals the 1-D ``a @ b`` of its rows bit for bit (a stacked
    matmul of a row by a column), which ``einsum`` and ``norm(axis=...)``
    do not guarantee.
    """
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


@dataclass(frozen=True)
class LinkSpec:
    """The link of ``f`` at radius ``epsilon``: f^{-1}(0) ∩ S^{2n+1}_epsilon.

    ``f`` must vanish at the origin and have ``n + 1`` variables; the link is
    a closed (2n-1)-manifold when epsilon is small enough (epsilon is left to
    the caller; for homogeneous f any radius gives the same geometry up to
    scale).
    """

    f: ComplexPoly
    n: int
    epsilon: float = 1.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.f.n_vars != self.n + 1:
            raise ValueError(
                f"f has {self.f.n_vars} variables, expected n + 1 = {self.n + 1}"
            )
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if not self.f.terms:
            raise ValueError("f must be a nonzero polynomial")
        origin = (0,) * self.f.n_vars
        if origin in self.f.terms:
            raise ValueError("f must vanish at the origin")

    @property
    def ambient_dim(self):
        return self.n + 1


def link_residual(z, spec):
    """Constraint residual (Re f(z), Im f(z), |z|^2 - epsilon^2).

    Shape (3,) for one point, (N, 3) for a stack of N points.
    """
    z = np.asarray(z, dtype=complex)
    fval = eval_poly(spec.f, z)
    norm_sq = np.sum(z.real**2 + z.imag**2, axis=-1)
    res = np.array([fval.real, fval.imag, norm_sq - spec.epsilon**2])
    # contiguous rows: a strided row would take another BLAS dot kernel
    return np.ascontiguousarray(res.T)


def link_residual_jacobian(z, spec):
    """3 x (2n+2) real Jacobian of :func:`link_residual` (stacked for a stack).

    For holomorphic f the derivative along x_k is f_k := df/dz_k and along
    y_k it is i*f_k, which gives the rows below.
    """
    z = np.asarray(z, dtype=complex)
    fk = gradient(spec.f, z)
    jac = np.zeros(z.shape[:-1] + (3, 2 * z.shape[-1]))
    jac[..., 0, 0::2] = fk.real
    jac[..., 0, 1::2] = -fk.imag
    jac[..., 1, 0::2] = fk.imag
    jac[..., 1, 1::2] = fk.real
    jac[..., 2, :] = 2.0 * realify(z)
    return jac


def project_to_link(z0, spec, tol=_PROJECT_TOL, max_iter=_PROJECT_MAX_ITER):
    """Gauss-Newton least-norm projection of ``z0`` onto the link.

    Each step solves J * delta = -residual for the minimum-norm delta, which
    keeps the correction orthogonal to the constraint level sets. After the
    tolerance is met the iteration keeps polishing while the residual still
    drops sharply, so well-conditioned points land near machine precision.

    Raises RankDeficient if the constraint Jacobian has a singular value
    below 1e-10 (e.g. at the origin), and NonConvergence when a residual or
    Jacobian is not finite or after ``max_iter`` iterations.
    :func:`_project_rows` applies the same rules to independent rows.
    """
    z = np.asarray(z0, dtype=complex).copy()
    if z.shape != (spec.ambient_dim,):
        raise ValueError(f"point has shape {z.shape}, expected ({spec.ambient_dim},)")
    best = z
    best_norm = np.inf
    hit_tol = False
    with np.errstate(all="ignore"):
        for _ in range(max_iter):
            res = link_residual(z, spec)
            res_norm = float(np.linalg.norm(res))
            if res_norm < best_norm:
                best, best_norm = z, res_norm
            if hit_tol and res_norm > 0.25 * best_norm:
                return best
            if not math.isfinite(res_norm):
                raise NonConvergence(f"projection residual is {res_norm}")
            if res_norm <= tol:
                hit_tol = True
                if res_norm == 0.0:
                    return z
            jac = link_residual_jacobian(z, spec)
            if not np.all(np.isfinite(jac)):
                raise NonConvergence("projection Jacobian is not finite")
            u, s, vt = np.linalg.svd(jac, full_matrices=False)
            if s[-1] < _RANK_TOL:
                raise RankDeficient(
                    f"constraint Jacobian singular value {s[-1]:.3e} below {_RANK_TOL}"
                )
            delta = vt.T @ ((u.T @ -res) / s)
            z = z + complexify(delta)
    if hit_tol or best_norm <= tol:
        return best
    raise NonConvergence(
        f"projection residual {best_norm:.3e} > {tol:.1e} after {max_iter} iterations"
    )


def _project_rows(z0, spec, tol, max_iter):
    """:func:`project_to_link` applied to each row of the (N, m) array ``z0``.

    Returns (points, converged): row k of ``points`` equals
    ``project_to_link(z0[k])`` bit for bit where ``converged[k]``, and
    ``converged[k]`` is False exactly where that call raises. Every row
    keeps its own best residual, polishing flag and iteration count; the
    residuals, norms and least-norm steps of all live rows are computed
    together, with stacked products that round as the 1-D ones do.
    """
    z = np.array(z0, dtype=complex)
    best = z.copy()
    best_norm = np.full(len(z), np.inf)
    hit_tol = np.zeros(len(z), dtype=bool)
    converged = np.zeros(len(z), dtype=bool)
    live = np.arange(len(z))
    with np.errstate(all="ignore"):
        for _ in range(max_iter):
            if not live.size:
                break
            zl = z[live]
            res = link_residual(zl, spec)
            res_norm = np.sqrt(_row_dot(res, res))
            better = res_norm < best_norm[live]
            best[live[better]] = zl[better]
            best_norm[live[better]] = res_norm[better]
            polished = hit_tol[live] & (res_norm > 0.25 * best_norm[live])
            broken = ~polished & ~np.isfinite(res_norm)
            hit_tol[live[res_norm <= tol]] = True
            exact = ~polished & (res_norm == 0.0)
            converged[live[polished | exact]] = True
            jac = link_residual_jacobian(zl, spec)
            step = ~(polished | broken | exact) & np.all(np.isfinite(jac), axis=(1, 2))
            live, zl, res, jac = live[step], zl[step], res[step], jac[step]
            u, s, vt = np.linalg.svd(jac, full_matrices=False)
            coeffs = np.matmul(np.swapaxes(u, 1, 2), -res[:, :, None])[:, :, 0] / s
            delta = np.matmul(np.swapaxes(vt, 1, 2), coeffs[:, :, None])[:, :, 0]
            full_rank = s[:, -1] >= _RANK_TOL
            live = live[full_rank]
            z[live] = (zl + complexify(delta))[full_rank]
    converged[live] = hit_tol[live] | (best_norm[live] <= tol)
    return best, converged


def sample_link_points(spec, count, rng):
    """Project ``count`` Gaussian ambient points onto the link, deterministically.

    Returns an array of shape (count, n + 1). Draws are scaled to the sphere
    radius; failed projections are skipped and redrawn, so the output
    depends only on the generator state. The draws are independent, so
    each round projects all of its draws at once with :func:`_project_rows`.
    A round draws as many points as are still missing, which consumes the
    generator exactly as one draw per attempt would, leaves it in the same
    state, and gives the same points. Raises NonConvergence after
    ``_MAX_ATTEMPTS_FACTOR * count`` attempts.
    """
    found = [np.empty((0, spec.ambient_dim), dtype=complex)]
    have = attempts = 0
    budget = _MAX_ATTEMPTS_FACTOR * count
    while have < count:
        draws = min(count - have, budget - attempts)
        if draws == 0:
            raise NonConvergence(
                f"only {have}/{count} link samples converged "
                f"after {attempts} attempts"
            )
        attempts += draws
        raw = rng.standard_normal((draws, 2 * spec.ambient_dim))
        raw *= (spec.epsilon / np.maximum(np.sqrt(_row_dot(raw, raw)), 1e-12))[:, None]
        points, converged = _project_rows(
            complexify(raw), spec, _PROJECT_TOL, _PROJECT_MAX_ITER
        )
        found.append(points[converged])
        have += int(np.count_nonzero(converged))
    return np.concatenate(found)


@dataclass
class TangentFrame:
    """Orthonormal basis of the tangent space of the link at ``base_point``.

    ``basis`` has shape (2n-1, 2n+2); each row is a realified ambient vector
    orthogonal to realify(conj-gradient of f), realify(i * conj-gradient),
    and realify(base_point).
    """

    base_point: np.ndarray
    basis: np.ndarray

    @property
    def dim(self):
        return self.basis.shape[-2]

    @property
    def complex_basis(self):
        """Rows of ``basis`` reassembled as complex ambient vectors."""
        return complexify(self.basis)


def orthonormal_complement(spanning):
    """Orthonormal basis of the complement of the span of ``spanning`` vectors.

    The trailing columns of a complete QR factorisation of the spanning
    vectors, returned as rows; a stack of spanning vectors gives a stack of
    bases. Raises DimensionCollapse if a spanning set is dependent (a
    diagonal entry of R at or below 1e-10).
    """
    q, r = np.linalg.qr(np.stack(spanning, axis=-1), mode="complete")
    pivots = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    if np.any(pivots <= _RANK_TOL):
        raise DimensionCollapse(
            f"spanning vectors dependent (|R_kk| = {np.min(pivots):.3e})"
        )
    return np.swapaxes(q[..., len(spanning):], -1, -2)


def tangent_frame(point, spec):
    """Tangent frame of the link at ``point`` (which must lie on the link).

    The tangent space is the real orthogonal complement of the span of
    realify(gradbar f), realify(i * gradbar f) and realify(point); its
    dimension is 2n - 1 at every regular link point. A stack of N points
    gives stacked ``base_point`` (N, n + 1) and ``basis`` (N, 2n - 1, 2n + 2).
    """
    z = np.asarray(point, dtype=complex)
    grad = conj_gradient(spec.f, z)
    if np.any(np.linalg.norm(grad, axis=-1) <= _RANK_TOL):
        raise DimensionCollapse("conjugate gradient of f vanishes at the base point")
    spanning = [realify(grad), realify(1j * grad), realify(z)]
    basis = orthonormal_complement(spanning)
    return TangentFrame(base_point=z, basis=basis)


def chart(point, frame, u, spec, tol=1e-12):
    """Retraction chart: project point + sum(u_i * basis_i) back onto the link.

    chart(p, frame, 0) returns p exactly; for small u the result has
    second-order contact with the tangent plane because the Gauss-Newton
    correction is normal to the link. Steps longer than
    ``_CHART_MAX_RADIUS`` times epsilon raise ValueError.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (frame.dim,):
        raise ValueError(f"chart coordinates have shape {u.shape}, expected ({frame.dim},)")
    max_radius = _CHART_MAX_RADIUS * spec.epsilon
    norm_u = np.linalg.norm(u)
    if norm_u == 0.0:
        return np.asarray(point, dtype=complex).copy()
    if norm_u > max_radius:
        raise ValueError(f"chart step {norm_u:.3e} exceeds radius {max_radius:.3e}")
    moved = np.asarray(point, dtype=complex) + complexify(frame.basis.T @ u)
    return project_to_link(moved, spec, tol=tol)


def critical_hessian(frame, spec, g, weight):
    """Hessian of phi = Re(weight * g) on the link, in the coordinates of ``frame``.

    This is the Hessian of the Lagrangian phi - Re(conj(alpha) f) -
    (mu / 2) (|z|^2 - epsilon^2) on the tangent space, with the multipliers
    fitted to the gradient of phi by least squares. It is the Riemannian
    Hessian of phi on the link, which the Hessian of phi composed with
    :func:`chart` at 0 equals because the chart corrects along the normal
    space; at a critical point no chart changes it. The second partials of f
    and g are exact.
    """
    z = frame.base_point
    df = conj_gradient(spec.f, z)
    normals = np.column_stack([realify(df), realify(1j * df), realify(z)])
    target = realify(np.conj(weight * gradient(g, z)))
    (re_alpha, im_alpha, mu), *_ = np.linalg.lstsq(normals, target, rcond=None)
    alpha_bar = complex(re_alpha, -im_alpha)
    second = weight * hessian(g, z) - alpha_bar * hessian(spec.f, z)
    basis = frame.complex_basis
    return np.real(basis @ second @ basis.T) - mu * np.eye(frame.dim)
