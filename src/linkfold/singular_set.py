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
square. Seeds, trace nodes and tangents are all augmented vectors
w = (realify(z), Re a, Im a, Re b, Im b), one per row. Seeding runs descent
on the rank defect followed by Gauss-Newton on this system. Every other
point of the curve comes from one solver,
:meth:`AugmentedSystem.corrector`: square Newton on the system bordered by
one scalar equation. Tracing borders it by the pseudo-arclength hyperplane
(predictor-corrector continuation), and :mod:`linkfold.morse` by the ray
equation or the composed critical-point equation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    BifurcationSuspected,
    EmptyResult,
    LinkFoldError,
    NonConvergence,
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

# the continuation policy, in units of epsilon: first step and step limits
_STEP_INIT = 0.05
_STEP_MIN = 1e-4
_STEP_MAX = 0.1
# a corrector converges when its bordered residual is at most this
_CORRECTOR_TOL = 1e-12
# a trace that has not closed at this many nodes raises NonConvergence
_MAX_NODES = 5000
# an augmented-Jacobian singular value below this suspects a branch point
_BIFURCATION_TOL = 1e-8
# residual target and iteration budget of the least-norm Gauss-Newton solve
_NEWTON_TOL = 1e-13
_NEWTON_MAX_ITER = 30
# link points that seeding starts from, and the projected-descent steps on
# the rank defect before each one's Newton solve
_SEED_SAMPLES = 64
_SEED_DESCENT_STEPS = 25
# singular-set points (or augmented vectors) closer than this are the same
_SAME_POINT_TOL = 1e-4
# starts of the gradient-dependence scan, and the pair defect of a hit
_SCAN_SAMPLES = 48
_SCAN_THRESHOLD = 1e-8


def criterion_matrix(z, f, g):
    """(n+1) x 3 complex matrix with columns gradbar f(z), gradbar g(z), z.

    A stack of N points gives N stacked matrices.
    """
    z = np.asarray(z, dtype=complex)
    if f.n_vars != z.shape[-1] or g.n_vars != z.shape[-1]:
        raise ValueError("dimension mismatch between point and polynomials")
    return np.stack([conj_gradient(f, z), conj_gradient(g, z), z], axis=-1)


def criterion_rank_defect(z, f, g):
    """Scale-normalised rank defect sigma3/sigma1 of the criterion matrix.

    Returns 0 when the matrix vanishes entirely. Values at or below about
    1e-8 indicate a singular point of h. A stack of N points gives an (N,)
    array equal to the N single-point calls.
    """
    m = criterion_matrix(z, f, g)
    if m.shape[-2] < 3:
        raise WrongDimension("rank defect needs ambient dimension >= 3 (n >= 2)")
    s = np.linalg.svd(m, compute_uv=False)
    if m.ndim == 2:
        return 0.0 if s[0] == 0.0 else float(s[2] / s[0])
    return np.divide(s[:, 2], s[:, 0], out=np.zeros(len(s)), where=s[:, 0] != 0.0)


def direct_singularity_test(z, spec, g):
    """Smallest singular value of the differential of h on a tangent frame.

    Builds the 2 x (2n-1) real matrix whose columns are the (Re, Im) parts of
    the complex directional derivatives of g along an orthonormal tangent
    frame; rank below 2 (sigma_min near zero) marks a singular point. This
    tests the differential directly and is independent of the span criterion.
    A stack of N points gives an (N,) array equal to the N single-point
    calls: the derivatives are summed in real arithmetic over contiguous
    rows, which rounds the same for one point as for a stack.
    """
    z = np.asarray(z, dtype=complex)
    basis = np.ascontiguousarray(tangent_frame(z, spec).basis)
    dx, dy = basis[..., 0::2], basis[..., 1::2]
    grad = gradient(g, z)[..., None, :]
    d_re = np.sum(dx * grad.real - dy * grad.imag, axis=-1)
    d_im = np.sum(dx * grad.imag + dy * grad.real, axis=-1)
    s = np.linalg.svd(np.stack([d_re, d_im], axis=-2), compute_uv=False)
    return float(s[-1]) if z.ndim == 1 else s[:, -1]


# ---------------------------------------------------------------------------
# augmented system
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class CurveTrace:
    """An ordered polyline on the singular set with its image in the plane.

    ``nodes`` and ``tangents`` hold the augmented vectors (z, a, b) of the
    continuation, one row per node; ``image`` holds h(z) as (Re, Im) rows;
    ``arc_params`` is the cumulative curvature-corrected arc length;
    ``defects`` the rank defect at each node. The polyline is closed: the
    first node is the start, the last node joins it in place of the step
    that crossed the start's tangent hyperplane, and ``arc_length``
    includes that segment. The image polygon has positive signed area.
    """

    arc_length: float
    image: np.ndarray
    arc_params: np.ndarray
    defects: np.ndarray
    nodes: np.ndarray = field(repr=False)
    tangents: np.ndarray = field(repr=False)

    @cached_property
    def points(self):
        """The nodes' singular-set points z, as an (N, n+1) complex array."""
        return complexify(self.nodes[:, :-4])

    def __len__(self):
        return len(self.nodes)


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
        z, (a, b) = complexify(w[:-4]), complexify(w[-4:])
        gf, gg = self.grads(z)
        span = z - a * gf - b * gg
        return np.concatenate([realify(span), link_residual(z, self.spec)])

    def jacobian(self, w):
        z, (a, b) = complexify(w[:-4]), complexify(w[-4:])
        m = self.m
        gf, gg = self.grads(z)
        cf, cg = self._second_conj(z)
        eye = np.eye(m)
        # d(span)/dx_k and d(span)/dy_k as complex (m, m) blocks
        mix = a * cf + b * cg
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
        jac[2 * m : 2 * m + 3, 0 : 2 * m] = link_residual_jacobian(z, self.spec)
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

    def newton_least_norm(self, w):
        """Damped Gauss-Newton with minimum-norm steps; returns (w, converged)."""
        w = np.asarray(w, dtype=float).copy()
        res = self.residual(w)
        norm = np.linalg.norm(res)
        for _ in range(_NEWTON_MAX_ITER):
            if norm <= _NEWTON_TOL:
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
        return w, bool(norm <= 10 * _NEWTON_TOL)

    def corrector(self, w0, extra, max_iter=12):
        """Square Newton on the system bordered by one scalar equation.

        The one solver for points of the singular curve: continuation nodes
        and duplicate probes (the pseudo-arclength hyperplane of
        :func:`_hyperplane`), ray-slice points and composed critical points.
        ``extra(w)`` returns the added equation's value and its real gradient
        row in the unknowns (z, a, b). Converged means the norm of the
        residual with that value appended is at most ``_CORRECTOR_TOL``,
        tested before every step and after the last. Returns
        (w, iterations, converged).
        """
        w = np.asarray(w0, dtype=float).copy()
        for it in range(max_iter + 1):
            value, row = extra(w)
            res = np.concatenate([self.residual(w), [value]])
            if np.linalg.norm(res) <= _CORRECTOR_TOL:
                return w, it, True
            if it == max_iter:
                break
            try:
                delta = np.linalg.solve(np.vstack([self.jacobian(w), row]), -res)
            except np.linalg.LinAlgError:
                return w, it, False
            if not np.all(np.isfinite(delta)) or np.linalg.norm(delta) > 1e3:
                return w, it, False
            w = w + delta
        return w, max_iter, False


def _hyperplane(t, w_pred):
    """The pseudo-arclength equation t . (w - w_pred) = 0, as a corrector ``extra``."""
    return lambda w: (np.dot(t, w - w_pred), t)


# ---------------------------------------------------------------------------
# seeding
# ---------------------------------------------------------------------------


def _ratio_gradient(system, z, cols):
    """sigma_cols/sigma_1 of the first ``cols`` columns of the criterion matrix.

    The columns are (gradbar f, gradbar g, z): ``cols = 3`` gives the rank
    defect, ``cols = 2`` the gradient-pair defect. Returns the ratio and its
    ambient real gradient at z, from first-order perturbation of the
    singular values: d sigma = Re(u* dM v) for the singular pair (u, v).
    With H = v0 u* conj(Hess f) + v1 u* conj(Hess g) and L = v2 conj(u)
    (zero for two columns), d sigma/dx = Re(H + L) and d sigma/dy = Im(H - L).
    """
    m = criterion_matrix(z, system.spec.f, system.g)[:, :cols]
    u, s, vt = np.linalg.svd(m)
    if s[0] == 0.0:
        return 0.0, np.zeros(2 * system.m)
    last = cols - 1
    # rows: the pairs of sigma_1 and sigma_cols
    uh = u[:, [0, last]].conj().T
    v = vt[[0, last]].conj()
    cf, cg = system._second_conj(z)
    h = v[:, :1] * (uh @ cf) + v[:, 1:2] * (uh @ cg)
    low = v[:, 2:] * uh if cols == 3 else 0.0
    dsigma = np.empty((2, 2 * system.m))
    dsigma[:, 0::2] = np.real(h + low)
    dsigma[:, 1::2] = np.imag(h - low)
    grad = (s[0] * dsigma[1] - s[last] * dsigma[0]) / s[0] ** 2
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


def seed_singular_points(spec, g, rng_seed=42):
    """Find points of the singular set by multi-start descent plus Newton.

    ``_SEED_SAMPLES`` random link points are pushed downhill on the rank
    defect. Gauss-Newton on the augmented system starts from each endpoint z
    with the span coefficients (a, b) of the least-squares fit of z on
    (gradbar f, gradbar g). Each start that converges is a seed;
    :func:`collect_components` skips seeds on a traced component.
    Returns a (k, 2n+6) array of augmented vectors (realify(z), Re a, Im a,
    Re b, Im b), the layout of trace nodes. Raises WrongDimension for n < 2,
    where the criterion matrix has fewer rows than columns, and EmptyResult
    if nothing converges.
    """
    if spec.n < 2:
        raise WrongDimension(f"singular-set seeding needs n >= 2, got n = {spec.n}")
    system = AugmentedSystem(spec, g)
    rng = np.random.default_rng(rng_seed)
    samples = sample_link_points(spec, _SEED_SAMPLES, rng)
    seeds = []
    for z0 in samples:
        z, _ = projected_descent(
            lambda z: _ratio_gradient(system, z, 3), z0, spec,
            max_steps=_SEED_DESCENT_STEPS, target=2e-2,
        )
        gf, gg = system.grads(z)
        coeffs, *_ = np.linalg.lstsq(np.column_stack([gf, gg]), z, rcond=None)
        w, ok = system.newton_least_norm(np.concatenate([realify(z), realify(coeffs)]))
        if ok:
            seeds.append(w)
    if not seeds:
        raise EmptyResult(f"no singular seeds converged ({len(samples)} samples)")
    return np.array(seeds)


# ---------------------------------------------------------------------------
# condition (1) detector: mutually dependent gradients
# ---------------------------------------------------------------------------


@dataclass
class GradientDependenceScan:
    """Result of searching the link for points with dependent gradients."""

    points: list
    min_defect: float


def scan_gradient_dependence(spec, g, rng_seed=42):
    """Search the link for points where gradbar g lies in C * gradbar f.

    Multi-start projected descent of sigma2/sigma1 of the two-column gradient
    matrix from ``_SCAN_SAMPLES`` link points. Points driven below
    ``_SCAN_THRESHOLD`` are returned; an empty list certifies (numerically)
    that this degenerate branch does not meet the link.
    """
    system = AugmentedSystem(spec, g)
    rng = np.random.default_rng(rng_seed)
    samples = sample_link_points(spec, _SCAN_SAMPLES, rng)
    hits = []
    min_defect = np.inf
    for z0 in samples:
        z, value = projected_descent(
            lambda z: _ratio_gradient(system, z, 2), z0, spec,
            max_steps=40, target=_SCAN_THRESHOLD,
        )
        min_defect = min(min_defect, value)
        if value <= _SCAN_THRESHOLD and all(
            np.linalg.norm(z - p) > _SAME_POINT_TOL for p in hits
        ):
            hits.append(z)
    return GradientDependenceScan(points=hits, min_defect=float(min_defect))


# ---------------------------------------------------------------------------
# continuation
# ---------------------------------------------------------------------------


def _arc_segments(nodes_z, tangents_z):
    """Curvature-corrected chord lengths of a closed polyline, node k to k + 1.

    The last length closes the polyline from the last node to the first.
    A chord subtending a tangent turn of angle phi underestimates the arc by
    the factor sin(phi/2)/(phi/2); the correction is exact on circles.
    """
    count = len(nodes_z)
    lengths = []
    for i in range(count):
        j = (i + 1) % count
        chord = np.linalg.norm(nodes_z[j] - nodes_z[i])
        ti, tj = tangents_z[i], tangents_z[j]
        cosphi = np.clip(np.dot(ti, tj), -1.0, 1.0)
        phi = np.arccos(cosphi)
        factor = 1.0 if phi < 1e-9 else (phi / 2.0) / np.sin(phi / 2.0)
        lengths.append(chord * factor)
    return np.array(lengths)


def trace_singular_curve(seed, spec, g):
    """Pseudo-arclength continuation of the singular curve through ``seed``.

    ``seed`` is an augmented vector (z, a, b), a row of
    :func:`seed_singular_points`. Steps along the one-dimensional null space
    of the augmented Jacobian with an adaptive step, correcting back onto
    the curve after each prediction. The step starts at ``_STEP_INIT`` and
    stays within [``_STEP_MIN``, ``_STEP_MAX``], all times epsilon, and each
    corrector is held to ``_CORRECTOR_TOL``. A corrected point farther than
    half a step from its prediction is rejected like a failed corrector
    (the distance test of Allgower & Georg, section 6.1), so the trace
    cannot jump to another part of the curve. The trace closes when a step
    from a node within one step of the start crosses the start's tangent
    hyperplane t0 . (w - w0) = 0 from behind; that step's point is not
    stored, and the polyline closes from the last node back to the start. It
    starts in the direction in which the image turns counterclockwise about
    0, so node placement does not depend on round-off in the seed. A
    finished polyline whose image polygon has negative signed area is then
    reversed with the start kept first, so every image turns counterclockwise
    as a whole, whichever seed the trace began at. Raises NonConvergence when
    it has not closed after ``_MAX_NODES`` nodes, BifurcationSuspected when
    the Jacobian loses rank along the way and StepCollapse when adaptation
    falls below the minimum step.
    """
    step_min = _STEP_MIN * spec.epsilon
    step_max = _STEP_MAX * spec.epsilon
    system = AugmentedSystem(spec, g)
    w, ok = system.newton_least_norm(seed)
    if not ok:
        raise StepCollapse("seed does not satisfy the augmented system")
    t, smin = system.tangent(w)
    if smin < _BIFURCATION_TOL:
        raise BifurcationSuspected(
            f"Jacobian second-smallest singular value {smin:.3e} at the seed"
        )
    # start so that the image h(z) turns counterclockwise about 0, whatever
    # sign the SVD gave the null vector
    z0 = complexify(w[:-4])
    if np.imag(np.conj(eval_poly(g, z0)) * (gradient(g, z0) @ complexify(t[:-4]))) < 0:
        t = -t
    start_w, start_t = w, t
    nodes = [w]
    tangents = [t]
    s = float(np.clip(_STEP_INIT * spec.epsilon, step_min, step_max))
    while True:
        if len(nodes) >= _MAX_NODES:
            raise NonConvergence(
                f"trace did not close within {_MAX_NODES} nodes "
                f"(gap to start {np.linalg.norm(w - start_w):.1e})"
            )
        w_pred = w + s * t
        w_new, iters, ok = system.corrector(w_pred, _hyperplane(t, w_pred))
        if ok and np.linalg.norm(w_new - w_pred) > 0.5 * s:
            ok = False  # the corrector jumped: the distance test fails
        if ok:
            t_new, smin = system.tangent(w_new)
            if smin < _BIFURCATION_TOL:
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
        if (
            np.dot(start_t, w - start_w) < 0 <= np.dot(start_t, w_new - start_w)
            and np.linalg.norm(w - start_w) <= s
        ):
            break  # the step crosses the start's tangent hyperplane: closed
        nodes.append(w_new)
        tangents.append(t_new)
        w, t = w_new, t_new
        if iters <= 3:
            s = min(s * 1.4, step_max)
        elif iters >= 6:
            s = max(s * 0.6, step_min)

    nodes = np.array(nodes)
    tangents = np.array(tangents)
    dim = 2 * system.m
    values = eval_poly(g, complexify(nodes[:, :dim]))
    # orient by the whole image: a polyline whose image polygon has negative
    # signed area is reversed, keeping the start first
    if np.sum(np.imag(np.conj(values) * np.roll(values, -1))) < 0:
        order = np.r_[0, len(nodes) - 1 : 0 : -1]
        nodes, tangents, values = nodes[order], -tangents[order], values[order]
    nodes_z = nodes[:, :dim]
    tangents_z = tangents[:, :dim]
    norms = np.linalg.norm(tangents_z, axis=1, keepdims=True)
    tangents_z = tangents_z / np.maximum(norms, 1e-15)

    seg = _arc_segments(nodes_z, tangents_z)
    arc_params = np.concatenate([[0.0], np.cumsum(seg[:-1])])
    arc_length = float(arc_params[-1] + seg[-1])

    image = np.column_stack([values.real, values.imag])
    defects = criterion_rank_defect(complexify(nodes_z), spec.f, g)
    return CurveTrace(
        arc_length=arc_length,
        image=image,
        arc_params=arc_params,
        defects=defects,
        nodes=nodes,
        tangents=tangents,
    )


def point_on_trace(system, trace, w_probe):
    """Whether the augmented vector ``w_probe`` lies on the traced curve.

    Coarse gate on node distance first, then the bordered corrector from the
    probe's station on the nearest node's tangent line, held to the
    pseudo-arclength hyperplane through it; the probe is on the curve when
    the corrected point reproduces it to ``_SAME_POINT_TOL``. This measures
    distance to the curve itself rather than to the discrete node set.
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
    w_pred = w_k + float(np.dot(t_k, w_probe - w_k)) * t_k
    w_star, _, ok = system.corrector(w_pred, _hyperplane(t_k, w_pred))
    if not ok:
        return False
    return bool(np.linalg.norm(w_star - w_probe) <= _SAME_POINT_TOL)


def _same_component(system, trace_a, trace_b):
    """Two traces describe the same closed component if probe nodes coincide."""
    count = len(trace_a.nodes)
    probe_idx = sorted({0, count // 3, (2 * count) // 3})
    return all(point_on_trace(system, trace_b, trace_a.nodes[i]) for i in probe_idx)


def collect_components(seeds, spec, g):
    """Trace every novel seed and return the distinct singular components.

    ``seeds`` holds augmented vectors, one per row. Seeds already lying on a
    kept component are skipped (the trace would be a resampling of the same
    curve); the rest are traced with the policy of
    :func:`trace_singular_curve` and deduplicated by curve distance at
    ``_SAME_POINT_TOL``. Components come in increasing order of their
    largest |h| over the nodes, rounded to 1e-6 epsilon, which does not
    depend on where the seeds fell; ties fall back to the first node.
    """
    system = AugmentedSystem(spec, g)
    components = []
    for w in seeds:
        if any(point_on_trace(system, c, w) for c in components):
            continue
        trace = trace_singular_curve(w, spec, g)
        if any(_same_component(system, trace, c) for c in components):
            continue
        components.append(trace)

    def order(trace):
        peak = float(np.max(np.hypot(trace.image[:, 0], trace.image[:, 1])))
        first = tuple(np.round(trace.nodes[0, :-4], 12))
        return round(peak / (1e-6 * spec.epsilon)), first

    return sorted(components, key=order)
