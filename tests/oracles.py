"""Reference computations used only by the tests.

Each oracle computes a quantity the package also reaches by another route,
so a test can compare the two.
"""

import math

import numpy as np

from linkfold.errors import LinkFoldError, NonConvergence, RankDeficient, WrongDimension
from linkfold.fold_classify import FoldKind, fold_counts, local_fold_data
from linkfold.geometry import (
    chart,
    complexify,
    link_residual,
    project_to_link,
    realify,
    sample_link_points,
    tangent_frame,
)
from linkfold.polynomial import conj_gradient, eval_poly, gradient, hessian
from linkfold.singular_set import (
    _SAME_POINT_TOL,
    AugmentedSystem,
    _component_key,
    _hyperplane,
    criterion_matrix,
    trace_singular_curve,
)


def hermitian_inner(u, v):
    """Hermitian inner product sum_j u_j * conj(v_j)."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch {u.shape} vs {v.shape}")
    return complex(np.sum(u * np.conj(v)))


def real_inner(u, v):
    """Euclidean inner product of the realified vectors."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch {u.shape} vs {v.shape}")
    return float(np.dot(realify(u), realify(v)))


def criterion_det(z, f, g):
    """Determinant of the 3 x 3 criterion matrix (ambient dimension 3 only).

    Cofactor expansion along the first column, in fixed order, so the
    floating-point value is reproducible.
    """
    m = criterion_matrix(z, f, g)
    if m.shape != (3, 3):
        raise WrongDimension(f"criterion determinant needs n = 2, matrix is {m.shape}")
    minor0 = m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1]
    minor1 = m[0, 1] * m[2, 2] - m[0, 2] * m[2, 1]
    minor2 = m[0, 1] * m[1, 2] - m[0, 2] * m[1, 1]
    return m[0, 0] * minor0 - m[1, 0] * minor1 + m[2, 0] * minor2


def gradient_pair_defect(z, f, g):
    """sigma2/sigma1 of the (n+1) x 2 matrix [gradbar f(z), gradbar g(z)].

    Small values mean the two conjugate gradients are complex-linearly
    dependent, the branch of the singularity criterion that does not
    constrain z itself.
    """
    z = np.asarray(z, dtype=complex)
    m = np.column_stack([conj_gradient(f, z), conj_gradient(g, z)])
    s = np.linalg.svd(m, compute_uv=False)
    if s[0] == 0.0:
        return 0.0
    return float(s[1] / s[0])


def a1_linear_min_pair_defect(u, epsilon):
    """Least sigma2/sigma1 of [gradbar f, gradbar g] on the A1 link, for g = u . z.

    The A1 link at radius epsilon is z = epsilon (x + i y)/sqrt(2) with x, y
    orthonormal real vectors. So |gradbar f| = |2 conj(z)| = 2 epsilon, and
    |<gradbar g, gradbar f>| = 2|u . z| is at most sqrt(2) epsilon (s1 + s2),
    with s1 >= s2 the singular values of [Re u; Im u]. The ratio of the
    Gram matrix's eigenvalues falls as that inner product grows, which gives
    sqrt((S - D)/(S + D)) with a^2 = 4 epsilon^2, b^2 = |u|^2,
    c^2 = (s1 + s2)^2/(2 |u|^2), S = a^2 + b^2, D^2 = (a^2 - b^2)^2 + 4 a^2 b^2 c^2.
    """
    u = np.asarray(u, dtype=complex)
    s1, s2 = np.linalg.svd(np.vstack([u.real, u.imag]), compute_uv=False)
    a2, b2 = 4.0 * epsilon**2, float(np.sum(np.abs(u) ** 2))
    c2 = (s1 + s2) ** 2 / (2.0 * b2)
    total = a2 + b2
    root = math.sqrt((a2 - b2) ** 2 + 4.0 * a2 * b2 * c2)
    return math.sqrt((total - root) / (total + root))


def gradient_dependence_scan(spec, g, rng_seed):
    """Search the link for points where gradbar g lies in C gradbar f; returns (least defect, hits).

    The sampled search that the closed form ``scan_gradient_dependence``
    replaced: Riemannian Gauss-Newton on gradbar g(z) - c gradbar f(z) = 0,
    z on the link, from 48 link points in lockstep, each starting at the
    least-squares c. A round steps z in its tangent frame and c in C by the
    row's pseudo-inverse (rcond 1e-12: the Jacobian, with z-block
    conj(Hess g) - c conj(Hess f), loses rank along a dependent circle), then
    projects z onto the link. A row stops after a step of at most 1e-12
    epsilon, when its projection fails (keeping its last point), or after 15
    rounds. The least defect is the least sigma2/sigma1 of
    [gradbar f, gradbar g] at the endpoints: the least on the link where
    |gradbar f| is constant there (A1), else maybe a bit above. The hits are
    the endpoints with defect at most 1e-8, as an (N, n+1) array.
    """
    z = sample_link_points(spec, 48, np.random.default_rng(rng_seed))
    gf, gg = conj_gradient(spec.f, z), conj_gradient(g, z)
    c = np.sum(np.conj(gf) * gg, axis=-1) / np.sum(np.abs(gf) ** 2, axis=-1)
    live = np.arange(len(z))
    for _ in range(15):
        if not live.size:
            break
        zl, cl = z[live], c[live, None]
        basis = tangent_frame(zl, spec).complex_basis
        gf, gg = conj_gradient(spec.f, zl), conj_gradient(g, zl)
        mix = np.conj(hessian(g, zl)) - cl[..., None] * np.conj(hessian(spec.f, zl))
        # columns: mix conj(v) for each frame vector v, Re c, Im c; rows (Re, Im)
        cols = np.concatenate([mix @ np.conj(np.swapaxes(basis, 1, 2)),
                               -gf[..., None], -1j * gf[..., None]], axis=-1)
        jac = np.swapaxes(realify(np.swapaxes(cols, 1, 2)), 1, 2)
        step = -(np.linalg.pinv(jac, rcond=1e-12) @ realify(gg - cl * gf)[..., None])[..., 0]
        moved = project_to_link(zl + (step[:, None, :-2] @ basis)[:, 0], spec)
        ok = ~np.isnan(moved[:, 0])
        z[live[ok]], c[live[ok]] = moved[ok], c[live[ok]] + complexify(step[ok, -2:])[:, 0]
        live = live[ok & (np.linalg.norm(step[:, :-2], axis=1) > 1e-12 * spec.epsilon)]
    pair = np.stack([conj_gradient(spec.f, z), conj_gradient(g, z)], axis=-1)
    s = np.linalg.svd(pair, compute_uv=False)
    values = np.divide(s[:, 1], s[:, 0], out=np.zeros(len(s)), where=s[:, 0] != 0.0)
    return float(values.min()), z[values <= 1e-8]


def chart_hessian(func, dim, step):
    """Symmetrised central-difference Hessian of ``func`` on R^dim at 0.

    ``func`` is a scalar function of chart coordinates, typically a height
    composed with :func:`linkfold.chart`; ``step`` is the absolute difference
    step.
    """
    center = func(np.zeros(dim))
    hess = np.empty((dim, dim))
    for i in range(dim):
        ei = np.zeros(dim)
        ei[i] = step
        hess[i, i] = (func(ei) - 2.0 * center + func(-ei)) / step**2
    for i in range(dim):
        for j in range(i + 1, dim):
            ei = np.zeros(dim)
            ej = np.zeros(dim)
            ei[i] = step
            ej[j] = step
            val = (
                func(ei + ej) - func(ei - ej) - func(-ei + ej) + func(-ei - ej)
            ) / (4.0 * step**2)
            hess[i, j] = val
            hess[j, i] = val
    return (hess + hess.T) / 2.0


def critical_hessian(frame, spec, g, weight):
    """Hessian of phi = Re(weight * g) on the link, in the coordinates of ``frame``.

    The fitted-multiplier reference for the closed form of
    ``intrinsic_hessian``: the Hessian of the Lagrangian
    phi - Re(conj(alpha) f) - (mu / 2) (|z|^2 - epsilon^2) on the tangent
    space, with the multipliers fitted to the gradient of phi by least
    squares, so it needs no span coefficients (a, b). It is the Riemannian
    Hessian of phi on the link, which the Hessian of phi composed with
    ``chart`` at 0 equals because the chart corrects along the normal space;
    at a critical point no chart changes it.
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


def transverse_eigenvalues(point, spec, g, image_center):
    """Transverse Hessian eigenvalues at one singular point, from its own chart.

    The per-point route that the closed form at trace nodes replaced: project
    the point, take a tangent frame, the kernel and image direction of dh by
    SVD, and the Hessian of the normal component of h on the kernel with
    least-squares multipliers (:func:`critical_hessian`). The normal points
    away from ``image_center``.
    """
    data = local_fold_data(point, spec, g)
    nu = np.array([-data.image_dir[1], data.image_dir[0]])
    hval = eval_poly(g, data.base_point)
    if np.dot(np.array([hval.real, hval.imag]) - image_center, nu) < 0:
        nu = -nu
    kernel = data.kernel_basis
    weight = complex(nu[0], -nu[1])
    hess = kernel @ critical_hessian(data.frame, spec, g, weight) @ kernel.T
    return np.linalg.eigvalsh(hess)


def classify_fold(point, spec, g, image_center):
    """Fold type of one singular point: (kind, absolute index, negative count).

    From :func:`transverse_eigenvalues`; the absolute index is None when an
    eigenvalue falls in the dead band and the kind is DEGENERATE.
    """
    eigs = transverse_eigenvalues(point, spec, g, image_center)
    neg, _, degenerate = fold_counts(eigs)
    if degenerate:
        return FoldKind.DEGENERATE, None, neg
    absolute = min(neg, len(eigs) - neg)
    return FoldKind.DEFINITE if absolute == 0 else FoldKind.INDEFINITE, absolute, neg


def dense_min_nonadjacent_distance(trace):
    """Smallest image distance between circularly non-adjacent samples.

    The all-pairs formula: a full distance matrix with the diagonal and the
    circular neighbours masked out.
    """
    pts = trace.image
    count = len(pts)
    if count < 4:
        return np.inf
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    idx = np.arange(count)
    gap = np.abs(idx[:, None] - idx[None, :])
    gap = np.minimum(gap, count - gap)
    dist[gap <= 1] = np.inf
    return float(dist.min())


def eval_poly_loop(p, z):
    """``p`` at one point by the plain term loop: numpy scalar powers, graded order.

    The reference for the package's slot-table walk: its one-point and
    vectorised paths must both reproduce it bit for bit.
    """
    z = np.asarray(z, dtype=complex)
    total = 0.0 + 0.0j
    for exps, coeff in p.sorted_terms():
        term = coeff
        for zj, e in zip(z, exps):
            if e:
                term *= zj ** e
        total += term
    return total


def link_residual_jacobian(z, spec):
    """3 x (2n+2) real Jacobian of ``link_residual`` at z (stacked for a stack).

    From its definition: along x_k, f changes at the rate f_k := df/dz_k and
    |z|^2 at 2 x_k; along y_k, at i f_k and 2 y_k.
    """
    z = np.asarray(z, dtype=complex)
    fk_bar = np.conj(gradient(spec.f, z))
    return np.stack([realify(fk_bar), realify(1j * fk_bar), 2.0 * realify(z)], axis=-2)


def project_to_link_point(z0, spec, tol=1e-12, max_iter=50):
    """Gauss-Newton least-norm projection of the one point ``z0`` onto the link.

    The SVD reference for the package's projection, which takes the same
    step and smallest singular value in closed form from the Jacobian's
    3 x 3 Gram matrix: each step here is the minimum-norm solution of
    J * delta = -residual from LAPACK's SVD of J, with 1-D residuals and
    norms, and after the tolerance is met it keeps polishing while the
    residual still drops sharply. Raises RankDeficient on a Jacobian
    singular value below 1e-10 and NonConvergence on a non-finite residual
    or Jacobian, or after ``max_iter`` iterations.
    """
    z = np.asarray(z0, dtype=complex).copy()
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
            if s[-1] < 1e-10:
                raise RankDeficient(f"constraint Jacobian singular value {s[-1]:.3e}")
            delta = vt.T @ ((u.T @ -res) / s)
            z = z + complexify(delta)
    if hit_tol or best_norm <= tol:
        return best
    raise NonConvergence(f"projection residual {best_norm:.3e} after {max_iter} steps")


def sample_link_points_serial(
    spec, count, rng, project=project_to_link_point, max_attempts_factor=20
):
    """Link samples drawn and projected one at a time.

    ``project(z, spec)`` projects one draw, raising NonConvergence or
    RankDeficient where it fails: the SVD reference by default, or the
    package's one-point ``project_to_link``.
    """
    points = []
    attempts = 0
    budget = max_attempts_factor * count
    while len(points) < count:
        if attempts >= budget:
            raise NonConvergence(
                f"only {len(points)}/{count} link samples converged "
                f"after {attempts} attempts"
            )
        attempts += 1
        raw = rng.standard_normal(2 * spec.ambient_dim)
        raw *= spec.epsilon / max(np.linalg.norm(raw), 1e-12)
        try:
            points.append(project(complexify(raw), spec))
        except (NonConvergence, RankDeficient):
            continue
    return np.array(points)


def ratio_gradient_point(system, z, cols):
    """sigma_cols/sigma_1 of the first ``cols`` criterion columns at one point z.

    The one-point objective the stacked ``_ratio_gradient`` replaced for
    ``cols = 3``: the ratio and its ambient real gradient by first-order
    perturbation of the singular values, with NumPy scalar arithmetic for
    sigma_1. ``cols = 2`` gives the gradient-pair defect.
    """
    m = criterion_matrix(z, system.spec.f, system.g)[:, :cols]
    u, s, vt = np.linalg.svd(m)
    if s[0] == 0.0:
        return 0.0, np.zeros(2 * system.m)
    last = cols - 1
    uh = u[:, [0, last]].conj().T
    v = vt[[0, last]].conj()
    cf, cg = np.conj(hessian(system.spec.f, z)), np.conj(hessian(system.g, z))
    h = v[:, :1] * (uh @ cf) + v[:, 1:2] * (uh @ cg)
    low = v[:, 2:] * uh if cols == 3 else 0.0
    dsigma = np.empty((2, 2 * system.m))
    dsigma[:, 0::2] = np.real(h + low)
    dsigma[:, 1::2] = np.imag(h - low)
    grad = (s[0] * dsigma[1] - s[last] * dsigma[0]) / s[0] ** 2
    return float(s[last] / s[0]), grad


def pair_ratio_gradient(system, z):
    """The gradient-pair defect of :func:`ratio_gradient_point` at each row of z.

    A stacked objective for projected descent: (N,) values and (N, 2n+2)
    ambient real gradients, each row the one-point call's.
    """
    rows = [ratio_gradient_point(system, point, 2) for point in z]
    values = np.array([value for value, _ in rows])
    return values, np.array([grad for _, grad in rows]).reshape(len(z), 2 * system.m)


def projected_descent_serial(objective, z, spec, max_steps, target):
    """Projected descent from one start, with one-point frames and charts.

    The routine the stacked ``projected_descent`` replaced: ``objective(z)``
    returns (value, ambient real gradient) at one point. Each step moves
    along the negative tangential gradient in a retraction chart and tries
    up to six steps, each a third of the last, until the value drops.
    Stops at ``target``, after ``max_steps`` steps, or when no step helps.
    Returns the final point and its value.
    """
    value, grad = objective(z)
    for _ in range(max_steps):
        if value <= target:
            break
        try:
            frame = tangent_frame(z, spec)
        except (LinkFoldError, ValueError):
            break
        tang_grad = frame.basis @ grad
        slope = np.linalg.norm(tang_grad)
        if slope < 1e-14:
            break
        direction = -tang_grad / slope
        step = min(0.09 * spec.epsilon, value / slope)
        improved = False
        for _ in range(6):
            try:
                trial = chart(z, frame, step * direction, spec, tol=1e-10)
            except (LinkFoldError, ValueError):
                step /= 3.0
                continue
            trial_value, trial_grad = objective(trial)
            if trial_value < value:
                z, value, grad = trial, trial_value, trial_grad
                improved = True
                break
            step /= 3.0
        if not improved:
            break
    return z, value


def winding_number(image):
    """Winding number about 0 of the closed polyline through the (Re, Im) rows.

    Sums the signed turns of consecutive points, the closing segment
    included; every step must turn by less than half a revolution.
    """
    w = image[:, 0] + 1j * image[:, 1]
    turns = np.angle(np.roll(w, -1) / w)
    return turns.sum() / (2 * np.pi)


def newton_least_norm_lstsq(system, w, tol=1e-13, max_iter=30):
    """Damped Gauss-Newton from the one augmented row ``w``, with LAPACK least-norm steps.

    The serial damped solver that the null-bordered Newton of
    ``AugmentedSystem._correct_rows`` replaced: each step is
    ``np.linalg.lstsq``'s minimum-norm solution of J delta = -residual, and
    up to 8 halvings look for a drop in the residual norm. Stops at the
    norm ``tol``, when no trial helps, or after ``max_iter`` steps.
    Returns (w, converged), converged at a norm of at most 10 ``tol``.
    """
    w = np.asarray(w, dtype=float).copy()
    res = system.residual(w)
    norm = np.linalg.norm(res)
    for _ in range(max_iter):
        if norm <= tol:
            break
        delta, *_ = np.linalg.lstsq(system.jacobian(w), -res, rcond=None)
        scale = 1.0
        for _ in range(8):
            trial = w + scale * delta
            trial_res = system.residual(trial)
            trial_norm = np.linalg.norm(trial_res)
            if trial_norm < norm:
                w, res, norm = trial, trial_res, trial_norm
                break
            scale *= 0.5
        else:
            break
    return w, bool(norm <= 10 * tol)


def arc_segments_loop(nodes_z, tangents_z):
    """Curvature-corrected chord lengths of a closed polyline, one node pair at a time.

    The per-node loop the vectorised ``_arc_segments`` replaced: the chord
    from node k to the next (the last to the first), times
    (phi/2)/sin(phi/2) for the tangent turn phi, or 1 below phi = 1e-9.
    """
    count = len(nodes_z)
    lengths = []
    for i in range(count):
        j = (i + 1) % count
        chord = np.linalg.norm(nodes_z[j] - nodes_z[i])
        phi = np.arccos(np.clip(np.dot(tangents_z[i], tangents_z[j]), -1.0, 1.0))
        lengths.append(chord * (1.0 if phi < 1e-9 else (phi / 2.0) / np.sin(phi / 2.0)))
    return np.array(lengths)


def point_on_trace_serial(system, trace, w_probe):
    """Whether the one augmented row ``w_probe`` lies on the traced curve.

    The per-probe test the stacked ``point_on_trace`` replaced: a gate on
    node distance, then the one-row corrector from the probe's station on
    the nearest node's tangent line (a first-order start, where the stacked
    test starts on the cubic Hermite interpolant), held to the hyperplane
    through it.
    """
    dim = 2 * system.m
    dz = np.linalg.norm(trace.nodes[:, :dim] - w_probe[:dim], axis=1)
    k = int(np.argmin(dz))
    seg = np.diff(trace.arc_params)
    max_chord = float(seg.max()) if seg.size else 0.1
    if dz[k] > max(4.0 * max_chord, 0.05):
        return False
    w_k, t_k = trace.nodes[k], trace.tangents[k]
    w_pred = w_k + float(np.dot(t_k, w_probe - w_k)) * t_k
    w_star, _, ok = system.corrector(w_pred, _hyperplane(t_k, w_pred))
    return ok and bool(np.linalg.norm(w_star - w_probe) <= _SAME_POINT_TOL)


def collect_components_serial(seeds, spec, g):
    """The distinct components of ``seeds``, checking one seed at a time.

    The loop the stacked ``collect_components`` replaced: each seed is
    probed against every component kept so far with
    :func:`point_on_trace_serial`, and a new trace against them at three
    of its nodes. Sorted as the package sorts them.
    """
    system = AugmentedSystem(spec, g)
    components = []
    for w in seeds:
        if any(point_on_trace_serial(system, c, w) for c in components):
            continue
        trace = trace_singular_curve(w, spec, g)
        count = len(trace.nodes)
        probes = [trace.nodes[i] for i in sorted({0, count // 3, (2 * count) // 3})]
        if any(all(point_on_trace_serial(system, c, p) for p in probes) for c in components):
            continue
        components.append(trace)
    return sorted(components, key=lambda trace: _component_key(trace, spec, g))
