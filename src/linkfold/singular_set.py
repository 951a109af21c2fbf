"""Detection and tracing of the singular set of h = g restricted to the link.

A link point z is singular for h exactly when z lies in the complex span of
the two conjugate gradients of f and g. Numerically this module offers two
independent tests:

* :func:`criterion_rank_defect` - scale-free rank test (sigma3/sigma1) of the
  (n+1) x 3 matrix with columns (gradbar f, gradbar g, z);
* :func:`direct_singularity_test` - smallest singular value of the actual
  2 x (2n-1) differential of h on a tangent frame, with no reference to the
  span condition.

The singular set itself is a curve cut out by the augmented system

    z - a * gradbar f(z) - b * gradbar g(z) = 0     (2n+2 real equations)
    link residual(z) = 0                            (3 real equations)

in the 2n+6 real unknowns (z, a, b), which is smooth and exactly one short of
square. Seeding runs descent on the rank defect followed by Gauss-Newton on
this system; tracing is pseudo-arclength predictor-corrector continuation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BifurcationSuspected,
    EmptyResult,
    LinkFoldError,
    StepCollapse,
    WrongDimension,
)
from .geometry import (
    chart,
    complexify,
    link_residual,
    link_residual_jacobian,
    realify,
    sample_link_points,
    tangent_frame,
)
from .polynomial import conj_gradient, eval_poly, gradient, hessian

__all__ = [
    "AugmentedPoint",
    "CurveTrace",
    "AugmentedSystem",
    "criterion_matrix",
    "criterion_rank_defect",
    "direct_singularity_test",
    "projected_descent",
    "scan_gradient_dependence",
    "seed_singular_points",
    "trace_singular_curve",
    "collect_components",
    "GradientDependenceScan",
]

# a traced curve may close only after this many nodes
_MIN_NODES_BEFORE_CLOSURE = 5


def criterion_matrix(z, f, g):
    """(n+1) x 3 complex matrix with columns gradbar f(z), gradbar g(z), z."""
    z = np.asarray(z, dtype=complex)
    if f.n_vars != z.size or g.n_vars != z.size:
        raise ValueError("dimension mismatch between point and polynomials")
    return np.column_stack([conj_gradient(f, z), conj_gradient(g, z), z])


def criterion_rank_defect(z, f, g):
    """Scale-normalised rank defect sigma3/sigma1 of the criterion matrix.

    Returns 0 when the matrix vanishes entirely. Values at or below about
    1e-8 indicate a singular point of h.
    """
    m = criterion_matrix(z, f, g)
    if m.shape[0] < 3:
        raise WrongDimension("rank defect needs ambient dimension >= 3 (n >= 2)")
    s = np.linalg.svd(m, compute_uv=False)
    if s[0] == 0.0:
        return 0.0
    return float(s[2] / s[0])


def direct_singularity_test(z, spec, g):
    """Smallest singular value of the differential of h on a tangent frame.

    Builds the 2 x (2n-1) real matrix whose columns are the (Re, Im) parts of
    the complex directional derivatives of g along an orthonormal tangent
    frame; rank below 2 (sigma_min near zero) marks a singular point. This
    tests the differential directly and is independent of the span criterion.
    """
    z = np.asarray(z, dtype=complex)
    frame = tangent_frame(z, spec)
    derivs = frame.complex_basis @ gradient(g, z)
    matrix = np.vstack([derivs.real, derivs.imag])
    s = np.linalg.svd(matrix, compute_uv=False)
    return float(s[-1])


# ---------------------------------------------------------------------------
# augmented system
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class AugmentedPoint:
    """A singular-set point together with its span coefficients.

    Satisfies z = a * gradbar f(z) + b * gradbar g(z) and the link
    constraints, up to the trace tolerance.
    """

    z: np.ndarray
    a: complex
    b: complex

    def as_vector(self):
        return np.concatenate(
            [realify(self.z), [self.a.real, self.a.imag, self.b.real, self.b.imag]]
        )

    @classmethod
    def from_vector(cls, w):
        w = np.asarray(w, dtype=float)
        return cls(
            z=complexify(w[:-4]),
            a=complex(w[-4], w[-3]),
            b=complex(w[-2], w[-1]),
        )


@dataclass(eq=False)
class CurveTrace:
    """An ordered polyline on the singular set with its image in the plane.

    ``image`` holds h(z) as (Re, Im) rows, one per point; ``arc_params`` is
    the cumulative curvature-corrected arc length; ``defects`` the rank
    defect at each node. ``nodes`` and ``tangents`` keep the raw augmented
    vectors for continuation-based post-processing.
    """

    points: list
    closed: bool
    arc_length: float
    image: np.ndarray
    arc_params: np.ndarray
    defects: np.ndarray
    nodes: np.ndarray = field(repr=False, default=None)
    tangents: np.ndarray = field(repr=False, default=None)

    def __len__(self):
        return len(self.points)


class AugmentedSystem:
    """Residual and Jacobian of the singular-curve equations in (z, a, b)."""

    def __init__(self, spec, g):
        if g.n_vars != spec.ambient_dim:
            raise ValueError("g must have n + 1 variables")
        self.spec = spec
        self.g = g
        self.m = spec.ambient_dim

    # -- evaluation helpers --------------------------------------------------

    def grads(self, z):
        """(gradbar f(z), gradbar g(z)) as complex vectors."""
        return conj_gradient(self.spec.f, z), conj_gradient(self.g, z)

    def _second_conj(self, z):
        return np.conj(hessian(self.spec.f, z)), np.conj(hessian(self.g, z))

    # -- residual / jacobian ---------------------------------------------------

    def residual(self, w):
        pt = AugmentedPoint.from_vector(w)
        gf, gg = self.grads(pt.z)
        span = pt.z - pt.a * gf - pt.b * gg
        return np.concatenate([realify(span), link_residual(pt.z, self.spec)])

    def jacobian(self, w):
        pt = AugmentedPoint.from_vector(w)
        m = self.m
        gf, gg = self.grads(pt.z)
        cf, cg = self._second_conj(pt.z)
        eye = np.eye(m)
        # d(span)/dx_k and d(span)/dy_k as complex (m, m) blocks
        mix = pt.a * cf + pt.b * cg
        dx = eye - mix
        dy = 1j * (eye + mix)
        jc = np.zeros((m, 2 * m + 4), dtype=complex)
        jc[:, 0 : 2 * m : 2] = dx
        jc[:, 1 : 2 * m : 2] = dy
        jc[:, 2 * m] = -gf
        jc[:, 2 * m + 1] = -1j * gf
        jc[:, 2 * m + 2] = -gg
        jc[:, 2 * m + 3] = -1j * gg
        jac = np.zeros((2 * m + 3, 2 * m + 4))
        jac[0 : 2 * m : 2, :] = jc.real
        jac[1 : 2 * m : 2, :] = jc.imag
        jac[2 * m : 2 * m + 3, 0 : 2 * m] = link_residual_jacobian(pt.z, self.spec)
        return jac

    # -- solvers -----------------------------------------------------------

    def tangent(self, w):
        """Unit null vector of the Jacobian and its smallest singular value.

        A smallest singular value near zero means the solution set is not a
        regular curve at w (possible branch point).
        """
        jac = self.jacobian(w)
        _, s, vt = np.linalg.svd(jac, full_matrices=True)
        return vt[-1], float(s[-1])

    def newton_least_norm(self, w, tol=1e-12, max_iter=30):
        """Damped Gauss-Newton with minimum-norm steps; returns (w, converged)."""
        w = np.asarray(w, dtype=float).copy()
        res = self.residual(w)
        norm = np.linalg.norm(res)
        for _ in range(max_iter):
            if norm <= tol:
                break
            jac = self.jacobian(w)
            delta, *_ = np.linalg.lstsq(jac, -res, rcond=None)
            scale = 1.0
            for _ in range(8):
                trial = w + scale * delta
                trial_res = self.residual(trial)
                trial_norm = np.linalg.norm(trial_res)
                if trial_norm < norm:
                    w, res, norm = trial, trial_res, trial_norm
                    break
                scale *= 0.5
            else:
                break
        return w, bool(norm <= 10 * tol)

    def corrector(self, w_pred, tangent_dir, tol=1e-12, max_iter=12):
        """Newton on the system bordered by the pseudo-arclength hyperplane.

        Keeps the iterate in the plane through ``w_pred`` orthogonal to
        ``tangent_dir``. Returns (w, iterations, converged).
        """
        w = np.asarray(w_pred, dtype=float).copy()
        for it in range(max_iter):
            res = self.residual(w)
            res_norm = np.linalg.norm(res)
            if res_norm <= tol:
                return w, it, True
            jac = self.jacobian(w)
            bordered = np.vstack([jac, tangent_dir])
            rhs = np.concatenate([-res, [-np.dot(tangent_dir, w - w_pred)]])
            try:
                delta = np.linalg.solve(bordered, rhs)
            except np.linalg.LinAlgError:
                return w, it, False
            if not np.all(np.isfinite(delta)) or np.linalg.norm(delta) > 1e3:
                return w, it, False
            w = w + delta
        res_norm = np.linalg.norm(self.residual(w))
        return w, max_iter, bool(res_norm <= tol)


# ---------------------------------------------------------------------------
# seeding
# ---------------------------------------------------------------------------


def _ratio_gradient(system, z, cols):
    """sigma_cols/sigma_1 of the first ``cols`` columns of the criterion matrix.

    The columns are (gradbar f, gradbar g, z): ``cols = 3`` gives the rank
    defect, ``cols = 2`` the gradient-pair defect. Returns the ratio and its
    ambient real gradient at z, from first-order perturbation of the
    singular values: d sigma = Re(u* dM v) for the singular pair (u, v).
    """
    gf, gg = system.grads(z)
    m = np.column_stack([gf, gg, z][:cols])
    u, s, vt = np.linalg.svd(m)
    if s[0] == 0.0:
        return 0.0, np.zeros(2 * system.m)
    v = vt.conj().T
    cf, cg = system._second_conj(z)
    dim = system.m
    last = cols - 1
    grad = np.zeros(2 * dim)
    u1, v1 = u[:, 0], v[:, 0]
    ul, vl = u[:, last], v[:, last]
    for k in range(dim):
        ek = np.zeros(dim, dtype=complex)
        ek[k] = 1.0
        dmx = np.column_stack([cf[:, k], cg[:, k], ek][:cols])
        dmy = np.column_stack([-1j * cf[:, k], -1j * cg[:, k], 1j * ek][:cols])
        for idx, dm in ((2 * k, dmx), (2 * k + 1, dmy)):
            ds1 = np.real(u1.conj() @ dm @ v1)
            dsl = np.real(ul.conj() @ dm @ vl)
            grad[idx] = (s[0] * dsl - s[last] * ds1) / s[0] ** 2
    return float(s[last] / s[0]), grad


def projected_descent(objective, z, spec, max_steps, target):
    """Projected gradient descent with backtracking over the link.

    ``objective(z)`` returns (value, ambient real gradient). Each step moves
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


def seed_singular_points(
    spec,
    g,
    n_samples=200,
    rng_seed=42,
    descent_steps=25,
    newton_steps=30,
    residual_tol=1e-11,
    dedupe_tol=1e-4,
):
    """Find points of the singular set by multi-start descent plus Newton.

    Random link points are pushed downhill on the squared rank defect, the
    span coefficients (a, b) are initialised by least squares, and Gauss-
    Newton on the augmented system finishes the job. Converged seeds are
    deduplicated by pairwise distance. Raises WrongDimension for n < 2,
    where the criterion matrix has fewer rows than columns, and EmptyResult
    if nothing converges.
    """
    if spec.n < 2:
        raise WrongDimension(f"singular-set seeding needs n >= 2, got n = {spec.n}")
    system = AugmentedSystem(spec, g)
    rng = np.random.default_rng(rng_seed)
    samples = sample_link_points(spec, n_samples, rng)
    seeds = []
    tried = converged = 0
    for z0 in samples:
        tried += 1
        z, defect = projected_descent(
            lambda z: _ratio_gradient(system, z, 3), z0, spec,
            max_steps=descent_steps, target=2e-2,
        )
        if defect > 0.3:
            continue
        gf, gg = system.grads(z)
        coeffs, *_ = np.linalg.lstsq(np.column_stack([gf, gg]), z, rcond=None)
        w0 = AugmentedPoint(z=z, a=complex(coeffs[0]), b=complex(coeffs[1])).as_vector()
        w, ok = system.newton_least_norm(w0, tol=1e-13, max_iter=newton_steps)
        if not ok or np.linalg.norm(system.residual(w)) > residual_tol:
            continue
        converged += 1
        candidate = AugmentedPoint.from_vector(w)
        if all(
            np.linalg.norm(candidate.z - s.z) > dedupe_tol for s in seeds
        ):
            seeds.append(candidate)
    if not seeds:
        raise EmptyResult(
            f"no singular seeds converged ({tried} samples, {converged} solved)"
        )
    return seeds


# ---------------------------------------------------------------------------
# condition (1) detector: mutually dependent gradients
# ---------------------------------------------------------------------------


@dataclass
class GradientDependenceScan:
    """Result of searching the link for points with dependent gradients."""

    points: list
    min_defect: float
    n_samples: int


def scan_gradient_dependence(spec, g, n_samples=64, rng_seed=42, threshold=1e-8):
    """Search the link for points where gradbar g lies in C * gradbar f.

    Multi-start projected descent of sigma2/sigma1 of the two-column gradient
    matrix. Points driven below ``threshold`` are returned; an empty list
    certifies (numerically) that this degenerate branch does not meet the
    link.
    """
    system = AugmentedSystem(spec, g)
    rng = np.random.default_rng(rng_seed)
    samples = sample_link_points(spec, n_samples, rng)
    hits = []
    min_defect = np.inf
    for z0 in samples:
        z, value = projected_descent(
            lambda z: _ratio_gradient(system, z, 2), z0, spec,
            max_steps=40, target=threshold,
        )
        min_defect = min(min_defect, value)
        if value <= threshold and all(
            np.linalg.norm(z - p) > 1e-4 for p in hits
        ):
            hits.append(z)
    return GradientDependenceScan(
        points=hits, min_defect=float(min_defect), n_samples=n_samples
    )


# ---------------------------------------------------------------------------
# continuation
# ---------------------------------------------------------------------------


def _arc_segments(nodes_z, tangents_z, pairs):
    """Curvature-corrected chord lengths for the given index pairs.

    A chord subtending a tangent turn of angle phi underestimates the arc by
    the factor sin(phi/2)/(phi/2); the correction is exact on circles.
    """
    lengths = []
    for i, j in pairs:
        chord = np.linalg.norm(nodes_z[j] - nodes_z[i])
        ti, tj = tangents_z[i], tangents_z[j]
        cosphi = np.clip(np.dot(ti, tj), -1.0, 1.0)
        phi = np.arccos(cosphi)
        factor = 1.0 if phi < 1e-9 else (phi / 2.0) / np.sin(phi / 2.0)
        lengths.append(chord * factor)
    return np.array(lengths)


def trace_singular_curve(
    seed,
    spec,
    g,
    step=0.05,
    step_min=None,
    step_max=None,
    max_steps=5000,
    tol=1e-12,
    bifurcation_tol=1e-8,
):
    """Pseudo-arclength continuation of the singular curve through ``seed``.

    Steps along the one-dimensional null space of the augmented Jacobian
    with an adaptive step, correcting back onto the curve after each
    prediction. The trace closes when it returns within half a step of the
    start with an aligned tangent; otherwise it stops open at the step
    budget. Raises BifurcationSuspected when the Jacobian loses rank along
    the way and StepCollapse when adaptation falls below the minimum step.
    """
    if step_min is None:
        step_min = 1e-4 * spec.epsilon
    if step_max is None:
        step_max = 1e-1 * spec.epsilon
    system = AugmentedSystem(spec, g)
    w, ok = system.newton_least_norm(seed.as_vector(), tol=1e-13)
    if not ok:
        raise StepCollapse("seed does not satisfy the augmented system")
    t, smin = system.tangent(w)
    if smin < bifurcation_tol:
        raise BifurcationSuspected(
            f"Jacobian second-smallest singular value {smin:.3e} at the seed"
        )
    start_w, start_t = w, t
    nodes = [w]
    tangents = [t]
    s = float(np.clip(step, step_min, step_max))
    closed = False
    while len(nodes) < max_steps:
        w_pred = w + s * t
        w_new, iters, ok = system.corrector(w_pred, t, tol=tol)
        if ok:
            t_new, smin = system.tangent(w_new)
            if smin < bifurcation_tol:
                raise BifurcationSuspected(
                    f"second-smallest singular value {smin:.3e} during trace"
                )
            if np.dot(t_new, t) < 0:
                t_new = -t_new
            if np.dot(t_new, t) < 0.5:
                ok = False  # sharp turn: the step jumped too far
        if not ok:
            s *= 0.5
            if s < step_min:
                raise StepCollapse(f"continuation step collapsed below {step_min:.1e}")
            continue
        nodes.append(w_new)
        tangents.append(t_new)
        w, t = w_new, t_new
        if len(nodes) > _MIN_NODES_BEFORE_CLOSURE:
            dist_start = np.linalg.norm(w - start_w)
            aligned = np.dot(t, start_t) > 0.9
            if aligned and dist_start <= 0.5 * s:
                closed = True
                break
            if aligned and dist_start <= 2.0 * s:
                # approach mode: aim to land right next to the start
                s = float(np.clip(0.9 * dist_start, step_min, step_max))
                continue
        if iters <= 3:
            s = min(s * 1.4, step_max)
        elif iters >= 6:
            s = max(s * 0.6, step_min)

    nodes = np.array(nodes)
    tangents = np.array(tangents)
    dim = 2 * system.m
    nodes_z = nodes[:, :dim]
    tangents_z = tangents[:, :dim]
    norms = np.linalg.norm(tangents_z, axis=1, keepdims=True)
    tangents_z = tangents_z / np.maximum(norms, 1e-15)

    count = len(nodes)
    pairs = [(k, k + 1) for k in range(count - 1)]
    seg = _arc_segments(nodes_z, tangents_z, pairs)
    arc_params = np.concatenate([[0.0], np.cumsum(seg)])
    arc_length = float(arc_params[-1])
    if closed:
        closing = _arc_segments(nodes_z, tangents_z, [(count - 1, 0)])
        arc_length += float(closing[0])

    points = [AugmentedPoint.from_vector(node) for node in nodes]
    values = [eval_poly(g, p.z) for p in points]
    image = np.array([[v.real, v.imag] for v in values])
    defects = np.array(
        [criterion_rank_defect(p.z, spec.f, g) for p in points]
    )
    return CurveTrace(
        points=points,
        closed=closed,
        arc_length=arc_length,
        image=image,
        arc_params=arc_params,
        defects=defects,
        nodes=nodes,
        tangents=tangents,
    )


def point_on_trace(system, trace, w_probe, tol=1e-4):
    """Whether the augmented vector ``w_probe`` lies on the traced curve.

    Coarse gate on node distance first, then a corrector solve from the
    nearest node's tangent station; the probe is on the curve when the
    corrected point reproduces it to ``tol``. This measures distance to the
    curve itself rather than to the discrete node set.
    """
    dim = 2 * system.m
    dz = np.linalg.norm(trace.nodes[:, :dim] - w_probe[:dim], axis=1)
    k = int(np.argmin(dz))
    seg = np.diff(trace.arc_params)
    max_chord = float(seg.max()) if seg.size else 0.1
    if dz[k] > max(4.0 * max_chord, 0.05):
        return False
    w_k = trace.nodes[k]
    t_k = trace.tangents[k]
    delta = float(np.dot(t_k, w_probe - w_k))
    w_star, _, ok = system.corrector(w_k + delta * t_k, t_k)
    if not ok:
        return False
    return bool(np.linalg.norm(w_star - w_probe) <= tol)


def _same_component(system, trace_a, trace_b, tol=1e-4):
    """Two traces describe the same closed component if probe nodes coincide."""
    count = len(trace_a.nodes)
    probe_idx = sorted({0, count // 3, (2 * count) // 3})
    return all(
        point_on_trace(system, trace_b, trace_a.nodes[i], tol=tol)
        for i in probe_idx
    )


def collect_components(seeds, spec, g, dedupe_tol=1e-4, **trace_kwargs):
    """Trace every novel seed and return the distinct singular components.

    Seeds already lying on a kept component are skipped (the trace would be
    a resampling of the same curve); remaining traces are deduplicated by
    curve distance at ``dedupe_tol`` and sorted by a canonical key so the
    output order is independent of seed order.
    """
    system = AugmentedSystem(spec, g)
    components = []
    for seed in seeds:
        w = seed.as_vector()
        if any(point_on_trace(system, c, w, tol=dedupe_tol) for c in components):
            continue
        trace = trace_singular_curve(seed, spec, g, **trace_kwargs)
        if any(_same_component(system, trace, c, tol=dedupe_tol) for c in components):
            continue
        components.append(trace)
    components.sort(key=lambda tr: tuple(np.round(realify(tr.points[0].z), 12)))
    return components
