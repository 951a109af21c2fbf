"""Geometry of the link K = f^{-1}(0) ∩ S_epsilon and retraction charts.

Real coordinates interleave as (x1, y1, x2, y2, ...) with z_j = x_j + i*y_j,
matching the convention used by :func:`realify` / :func:`complexify`. All
constraint work happens on the 3 real residuals (Re f, Im f, |z|^2 - eps^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import DimensionCollapse, NonConvergence, RankDeficient
from .polynomial import ComplexPoly, _cmul, conj_gradient, eval_poly, gradient

__all__ = [
    "LinkSpec",
    "TangentFrame",
    "realify",
    "complexify",
    "link_residual",
    "link_jacobian_rows",
    "project_to_link",
    "sample_link_points",
    "tangent_frame",
    "orthonormal_complement",
    "chart",
]

# rank threshold for QR pivots of spanning sets and constraint Jacobians
_RANK_TOL = 1e-10
# residual at which a link projection or a Newton solve on the singular curve
# converges, times max(1, epsilon^2) (:func:`_residual_tol`)
_RESIDUAL_TOL = 1e-12
# a residual at or below this, times epsilon^2, is the rounding of the
# |z|^2 - epsilon^2 row: a projection there converges without another step
_ROUNDING_FLOOR = 64 * np.finfo(float).eps
# iteration budget of a link projection
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


@cache
def _index_pairs(m):
    """The index pairs j < k of range(m), as ``np.triu_indices(m, 1)``, built once per m."""
    pairs = np.triu_indices(m, 1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


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
        # a product of Python floats overflows to inf or underflows to 0.0,
        # with no numpy warning
        eps = float(self.epsilon)
        if not (eps > 0 and 0 < eps * eps < np.inf):
            raise ValueError(
                "epsilon must be positive with a finite nonzero square, "
                f"got {self.epsilon}"
            )
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
    # contiguous rows: a strided row would take another BLAS dot kernel
    res = np.empty(z.shape[:-1] + (3,))
    res[..., 0] = fval.real
    res[..., 1] = fval.imag
    res[..., 2] = np.add.reduce(z.real**2 + z.imag**2, axis=-1) - spec.epsilon**2
    return res


def link_jacobian_rows(z, fk):
    """Real 3 x (2n+2) Jacobian of :func:`link_residual` at ``z``, from f's gradient ``fk``."""
    jac = np.zeros(z.shape[:-1] + (3, 2 * z.shape[-1]))
    jac[..., 0, 0::2] = fk.real
    jac[..., 0, 1::2] = -fk.imag
    jac[..., 1, 0::2] = fk.imag
    jac[..., 1, 1::2] = fk.real
    jac[..., 2, :] = 2.0 * realify(z)
    return jac


def project_to_link(z0, spec):
    """Gauss-Newton least-norm projection of ``z0`` onto the link.

    One point is a one-row stack of :func:`_project_rows`, whose closed-form
    steps the tests check against an SVD solve. A residual at the rounding
    floor (``_ROUNDING_FLOOR`` epsilon^2) converges at once, so a point
    already on the link costs one residual and no step; a residual that
    first reaches :func:`_residual_tol` above that floor takes one polishing
    step and converges on the better of its last two points. It raises
    RankDeficient if the constraint Jacobian has a singular value below
    1e-10 (e.g. at the origin), and NonConvergence when a residual or
    gradient is not finite or after ``_PROJECT_MAX_ITER`` iterations. Each
    row of an (N, n+1) stack is its single call's point, or NaN where that
    raises.
    """
    z = np.asarray(z0, dtype=complex)
    if z.ndim == 2:
        points, converged, _ = _project_rows(z, spec)
        return np.where(converged[:, None], points, np.nan)
    if z.shape != (spec.ambient_dim,):
        raise ValueError(f"point has shape {z.shape}, expected ({spec.ambient_dim},)")
    (point,), (converged,), (sigma,) = _project_rows(z[None], spec)
    if converged:
        return point
    if sigma < _RANK_TOL:
        raise RankDeficient(f"Jacobian singular value {sigma:.3e} below {_RANK_TOL}")
    with np.errstate(all="ignore"):
        residual = np.linalg.norm(link_residual(point, spec))
    raise NonConvergence(
        f"projection stopped at residual {residual:.3e} > {_residual_tol(spec):.1e}"
    )


def _rows_where(mask, *arrays):
    """The rows of each array where ``mask`` holds; the arrays themselves where it always does."""
    if mask.all():
        return arrays
    return tuple(a[mask] for a in arrays)


def _residual_tol(spec):
    """``_RESIDUAL_TOL`` times max(1, epsilon^2), where the |z|^2 - epsilon^2 row rounds."""
    return _RESIDUAL_TOL * max(1.0, spec.epsilon**2)


def _rounding_floor(spec):
    """``_ROUNDING_FLOOR`` times epsilon^2: the rounding of the |z|^2 - epsilon^2 row."""
    return _ROUNDING_FLOOR * spec.epsilon**2


def _project_rows(z0, spec):
    """Gauss-Newton least-norm projection of each row of the (N, m) array ``z0``.

    Steps solve J * delta = -residual for the minimum-norm delta in closed
    form: J's rows realify(conj fk), realify(i conj fk), 2 realify(z) have the
    Gram matrix [[s, 0, Re c], [0, s, Im c], [Re c, Im c, t]], s = |fk|^2,
    c = 2 sum_k fk_k z_k, t = 4 |z|^2. For r = -residual and D = s t - |c|^2,
    delta = conj(fk) (y1 + i y2) + 2 y3 z with y3 = (s r3 - Re c r1 - Im c r2) / D
    and y1,2 = (r1,2 - (Re c, Im c) y3) / s; J's least singular value is
    sqrt(D / lam), lam = (s + t)/2 + sqrt(((s - t)/2)^2 + |c|^2), 0 on a zero
    row. D is the Lagrange sum 4 sum_{j<k} |conj(fk_j) z_k - conj(fk_k) z_j|^2,
    as s t - |c|^2 cancels near rank loss. A row is held to
    :func:`_residual_tol`, for at most ``_PROJECT_MAX_ITER`` iterations. A
    residual at or below :func:`_rounding_floor` converges at once, on that
    point: another step there moves the point by rounding alone. The first
    time a residual is at most the tolerance but above that floor, the row
    takes exactly one more step and converges at the next residual
    evaluation, returning whichever of its points had the smaller residual.
    A non-finite residual stops the row. Only rows that step evaluate f's
    gradient. Rows keep their own state and sum by :func:`_row_dot` over
    contiguous rows, so each equals the one-point call bit for bit. Returns
    (points, converged, sigma), ``sigma`` each row's last least singular
    value: below 1e-10 exactly where the row stopped on rank loss.
    """
    tol, floor = _residual_tol(spec), _rounding_floor(spec)
    z = np.array(z0, dtype=complex)
    best = z.copy()
    best_norm = np.full(len(z), np.inf)
    sigma = np.full(len(z), np.nan)
    converged = np.zeros(len(z), dtype=bool)
    live = np.arange(len(z))
    j, k = _index_pairs(z.shape[1])
    with np.errstate(all="ignore"):
        for _ in range(_PROJECT_MAX_ITER):
            if not live.size:
                break
            zl = z[live]
            res = link_residual(zl, spec)
            res_norm = np.sqrt(_row_dot(res, res))
            # converged: at the rounding floor, or one polishing step past the tolerance
            done = ((best_norm[live] <= tol) & (res_norm > 0.0)) | (res_norm <= floor)
            converged[live[done]] = True
            better = res_norm < best_norm[live]
            best[live[better]] = zl[better]
            best_norm[live[better]] = res_norm[better]
            live, zl, res = _rows_where(~done & np.isfinite(res_norm), live, zl, res)
            if not live.size:
                break
            fk = gradient(spec.f, zl)
            # a finite residual bounds |z|, so J is finite where fk is
            live, zl, res, fk = _rows_where(np.all(np.isfinite(fk), axis=1), live, zl, res, fk)
            fk_bar = np.conj(fk)
            a, b, w = fk_bar.view(float), (1j * fk_bar).view(float), 2.0 * zl.view(float)
            s, t, cr, ci = _row_dot(a, a), _row_dot(w, w), _row_dot(a, w), _row_dot(b, w)
            # take, unlike [:, j], keeps rows contiguous, as _row_dot needs
            uj, uk, zj, zk = fk_bar.take(j, 1), fk_bar.take(k, 1), zl.take(j, 1), zl.take(k, 1)
            pr, pi = _cmul(uj.real, uj.imag, zk.real, zk.imag)
            qr, qi = _cmul(uk.real, uk.imag, zj.real, zj.imag)
            minors = np.concatenate([pr - qr, pi - qi], axis=1)
            det = 4.0 * _row_dot(minors, minors)
            lam = 0.5 * (s + t) + np.hypot(0.5 * (s - t), np.hypot(cr, ci))
            sigma[live] = np.where(lam > 0.0, np.sqrt(det / lam), 0.0)
            r1, r2, r3 = -res.T
            y3 = (s * r3 - cr * r1 - ci * r2) / det
            y1, y2 = (r1 - cr * y3) / s, (r2 - ci * y3) / s
            delta = (y1[:, None] * a + y2[:, None] * b + y3[:, None] * w).view(complex)
            live, zl, delta = _rows_where(sigma[live] >= _RANK_TOL, live, zl, delta)
            z[live] = zl + delta
    converged[live] = best_norm[live] <= tol
    return best, converged, sigma


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
        points, converged, _ = _project_rows(complexify(raw), spec)
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


def chart(point, frame, u, spec):
    """Retraction chart: project point + sum(u_i * basis_i) back onto the link.

    chart(p, frame, 0) returns p exactly; for small u the result has
    second-order contact with the tangent plane because the Gauss-Newton
    correction is normal to the link: :func:`project_to_link`'s, held to
    :func:`_residual_tol`, which stops at the first residual at the rounding
    floor and otherwise polishes once past the tolerance. Steps longer than
    ``_CHART_MAX_RADIUS`` times epsilon raise ValueError. A stack of points,
    frames and coordinates gives the single calls' rows, NaN where one
    raises.
    """
    point = np.asarray(point, dtype=complex)
    u = np.asarray(u, dtype=float)
    expected = point.shape[:-1] + (frame.dim,)
    if u.shape != expected:
        raise ValueError(f"chart coordinates have shape {u.shape}, expected {expected}")
    max_radius = _CHART_MAX_RADIUS * spec.epsilon
    norm_u = np.sqrt(_row_dot(u, u))
    if np.any(norm_u > max_radius):
        raise ValueError(
            f"chart step {np.max(norm_u):.3e} exceeds radius {max_radius:.3e}"
        )
    if point.ndim == 1:
        if norm_u == 0.0:
            return point.copy()
        return project_to_link(point + complexify(frame.basis.T @ u), spec)
    step = norm_u != 0.0
    moved = point.copy()
    # a stacked matmul over the frames as given: each product's matrix keeps
    # its one-point layout, so it rounds as the one-point product does
    shift = np.matmul(np.swapaxes(frame.basis, -1, -2), u[..., None])[..., 0]
    moved[step] += complexify(shift[step])
    moved[step] = project_to_link(moved[step], spec)
    return moved

