"""Detection and tracing of the singular set of h = g restricted to the link.

A link point z is singular for h exactly when z lies in the complex span of
the two conjugate gradients of f and g. Numerically this module offers two
independent tests:

* :func:`criterion_rank_defect` - scale-free rank test (sigma3/sigma1) of the
  (n+1) x 3 matrix with columns (gradbar f, gradbar g, z);
* :func:`direct_singularity_test` - smallest singular value of the actual
  2 x (2n-1) differential of h on a tangent frame, with no reference to the
  span condition; verify-a1 reads it at the traced nodes and beside them.

The paper's hypothesis that gradbar f and gradbar g stay independent on the
link is decided in closed form for A1 and affine g: :func:`scan_gradient_dependence`.

The singular set itself is a curve cut out by the augmented system

    z - a * gradbar f(z) - b * gradbar g(z) = 0     (2n+2 real equations)
    link residual(z) = 0                            (3 real equations)

in the 2n+6 real unknowns (z, a, b), which is smooth and exactly one short of
square. Seeds, trace nodes and tangents are all augmented vectors
w = (realify(z), Re a, Im a, Re b, Im b), one per row, and
:class:`AugmentedSystem` evaluates one row or a stack of rows alike. One
lockstep Newton solver works on stacks, each row keeping its own state and
ending as its one-row call would, bit for bit: square Newton on the system
bordered by one scalar equation per row (:meth:`AugmentedSystem.corrector`
for one row). Seeding runs one lockstep descent of all its starts on the
rank defect (none at n = 1, where the whole link is singular), one capped
chart step per start and round, kept whether or not it helps, only down
into the basin of the solve that follows, then one solve of all of them
bordered by each Jacobian's null vector, which makes every step the
least-norm Gauss-Newton step. Tracing borders the system by the
pseudo-arclength hyperplane (predictor-corrector continuation) with two
fronts that leave each seed in opposite directions, one row per front and
one solve per round, each step started from a second-order point and sized
by how far the corrector moved the Euler prediction; the probes by which
:func:`collect_components` skips seeds on a kept trace, for a pair that is
not homogeneous, by the hyperplanes through them, all in one solve; and
:mod:`linkfold.morse` by the ray equation or the composed critical-point
equation, all brackets in one solve. Probes and brackets start on the
cubic Hermite interpolant of the trace's nodes and tangents. A start only
moves where Newton begins: the bordered equation pins the point, and the
step control measures from the prediction that anchors the hyperplane, not
from the start.

Each trace is a lane of one lockstep driver, :func:`_trace_lanes`, whose
rounds stack the rows of every lane's stepping fronts into that one solve.
The lead lane ramps its step up from a small first one until the step
settles, and every other lane starts from the step it settled at, so the
step ramps up once per call, not once per lane. Where f and g are both
homogeneous (the homogeneity gate), z -> alpha z (|alpha| = 1) maps the
singular set to itself, so each component is one orbit of that circle
action: :func:`collect_components` then groups the seeds by orbit, gives
the first seed of each orbit a lane, all in one call, and returns their
traces. Every other pair traces one seed at a time and skips the seeds that
:func:`point_on_trace` finds on a kept trace.
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
    NotApplicable,
    StepCollapse,
)
from .geometry import (
    TangentFrame,
    _index_pairs,
    _residual_tol,
    _row_dot,
    chart,
    complexify,
    link_jacobian_rows,
    link_residual,
    realify,
    sample_link_points,
    tangent_frame,
)
from .polynomial import ComplexPoly, conj_gradient, eval_poly, gradient, hessian, homogeneous_degree

__all__ = [
    "CurveTrace",
    "AugmentedSystem",
    "criterion_matrix",
    "criterion_rank_defect",
    "direct_singularity_test",
    "projected_descent",
    "scan_gradient_dependence",
    "seed_singular_points",
    "span_hessian",
    "collect_components",
]

# the continuation policy, in z-arc length over epsilon: first step and limits
_STEP_INIT = 0.05
_STEP_MIN = 1e-4
_STEP_MAX = 0.5
# the distance from the Euler prediction to the corrected node, over epsilon,
# that the step control aims for
_STEP_DISTANCE = 0.02
# two trace fronts join only where the gap between their tips lies within
# this cosine of each one's direction, so that they face each other along
# the curve: not at the start, where the backward tip is the seed right
# behind the forward one, nor across two nearby strands of one component
_JOIN_COSINE = 0.9
# two fronts that both take a step and land closer than this, times the
# smaller of their next steps, have met: a gap that short has no direction,
# so the _JOIN_COSINE facing test cannot judge it, and the fronts would run
# another lap. The backward tip, which sits behind the forward one, is dropped
_SIDE_BY_SIDE = 0.25
# iteration budget of a Newton solve with an added equation: continuation
# nodes, on-trace probes and Morse brackets
_CORRECTOR_MAX_ITER = 12
# a trace that has not closed at this many nodes raises NonConvergence
_MAX_NODES = 5000
# an augmented-Jacobian singular value below this, times min(1, epsilon)^2,
# suspects a branch point: on A1 the seed's is 0.5 epsilon^2 at small epsilon
_BIFURCATION_TOL = 1e-8
# iteration budget of the least-norm Gauss-Newton solve (no added equation)
_NEWTON_MAX_ITER = 30
# link points that seeding starts from, and the most lockstep descent rounds
# before their Newton solve, one chart step per row and round; the slowest
# start sets the rounds. In tools/seed_coverage.py's sweep, budgets of 2, 4, 6
# and 8 miss no A1, A2 or Brieskorn component and 4 or 5 of 21 Fermat-quartic
# runs, but 2 misses at seed 1, which tier-1 holds, so 6 is kept for the margin
_SEED_SAMPLES = 64
_SEED_DESCENT_STEPS = 6
# the rank defect at which descent stops: the bordered Newton solve that
# follows has a wide basin (it converges from 95-99 % of raw link samples on
# A1, A2 and Brieskorn), so descent only has to bring starts into it
_SEED_DESCENT_TARGET = 0.15
# singular-set points whose z lie closer than this, times epsilon, are the same
_SAME_POINT_TOL = 1e-4


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

    Returns 0 when the matrix vanishes or has two rows (n = 1: sigma3 = 0).
    Values at or below about 1e-8 indicate a singular point of h. A stack of
    N points gives an (N,) array equal to the N single-point calls.
    """
    m = criterion_matrix(z, f, g)
    if m.shape[-2] < 3:
        return 0.0 if m.ndim == 2 else np.zeros(len(m))
    s = np.linalg.svd(m, compute_uv=False)
    if m.ndim == 2:
        return 0.0 if s[0] == 0.0 else float(s[2] / s[0])
    return np.divide(s[:, 2], s[:, 0], out=np.zeros(len(s)), where=s[:, 0] != 0.0)


def span_hessian(z, a, b, spec, g):
    """P = conj(a) Hess f(z) + conj(b) Hess g(z), the second-order data of h.

    Precondition: z lies on the singular set, z = a gradbar f + b gradbar g
    on the link. There Re(w h) is critical on the link exactly when
    mu = w / conj(b) is real, and its link Hessian in orthonormal tangent
    directions V (complex rows) is mu (Re(V P V^T) - I), with multipliers mu
    and -mu a. The augmented Jacobian uses conj(P). For a stack of points,
    a and b broadcast against the (N, n+1, n+1) Hessians.
    """
    return np.conj(a) * hessian(spec.f, z) + np.conj(b) * hessian(g, z)


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
    first node is the seed, the last node joins it, and ``arc_length``
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
    """Residual and Jacobian of the singular-curve equations in (z, a, b).

    :meth:`residual` and :meth:`jacobian` take one augmented vector w of
    shape (2n+6,) or a stack of N rows (N, 2n+6), and return one result or
    N stacked ones, each row its one-row call bit for bit. The system keeps
    (z, a, b, gradbar f, gradbar g) for the last w that :meth:`residual`,
    :meth:`jacobian` or :meth:`tangent` evaluated, keyed by the bytes of w,
    so one row and the one-row stack with its bytes share an evaluation. A
    Newton step's residual and Jacobian, and a converged corrector's point
    and its tangent, so share one evaluation. The key is the value of w,
    never its identity, so a caller's array changed in place, or a new array
    at a reused address, misses the cache.
    """

    def __init__(self, spec, g):
        if g.n_vars != spec.ambient_dim:
            raise ValueError("g must have n + 1 variables")
        self.spec = spec
        self.g = g
        self.m = spec.ambient_dim
        self._eye = np.eye(self.m)
        self._key = None
        self._last = None

    # -- evaluation helpers --------------------------------------------------

    def grads(self, z):
        """(gradbar f(z), gradbar g(z)) as complex vectors (stacked for a stack)."""
        return conj_gradient(self.spec.f, z), conj_gradient(self.g, z)

    def _evaluate(self, w):
        """(z, a, b, gradbar f(z), gradbar g(z)) at the rows of w, from the one-entry cache.

        Always stacked: z and the gradients (N, n+1), a and b (N, 1), as
        complex views of copies of w's blocks.
        """
        w = np.asarray(w, dtype=float)
        key = w.tobytes()
        if key != self._key:
            w = w.reshape(-1, 2 * self.m + 4)
            z, ab = w[:, :-4].copy().view(complex), w[:, -4:].copy().view(complex)
            self._last = (z, ab[:, :1], ab[:, 1:], *self.grads(z))
            self._key = key
        return self._last

    # -- residual / jacobian ---------------------------------------------------

    def residual(self, w):
        z, a, b, gf, gg = self._evaluate(w)
        dim = 2 * self.m
        res = np.empty((len(z), dim + 3))
        res[:, :dim] = (z - a * gf - b * gg).view(float)
        res[:, dim:] = link_residual(z, self.spec)
        return res if np.ndim(w) == 2 else res[0]

    def jacobian(self, w):
        z, a, b, gf, gg = self._evaluate(w)
        m = self.m
        mix = np.conj(span_hessian(z, a[..., None], b[..., None], self.spec, self.g))
        # d(span)/dx_k and d(span)/dy_k as complex (m, m) blocks
        jc = np.empty((len(z), m, 2 * m + 4), dtype=complex)
        jc[:, :, 0 : 2 * m : 2] = self._eye - mix
        jc[:, :, 1 : 2 * m : 2] = 1j * (self._eye + mix)
        jc[:, :, 2 * m] = -gf
        jc[:, :, 2 * m + 1] = -1j * gf
        jc[:, :, 2 * m + 2] = -gg
        jc[:, :, 2 * m + 3] = -1j * gg
        jac = np.zeros((len(z), 2 * m + 3, 2 * m + 4))
        jac[:, 0 : 2 * m : 2] = jc.real
        jac[:, 1 : 2 * m : 2] = jc.imag
        jac[:, 2 * m :, : 2 * m] = link_jacobian_rows(z, np.conj(gf))
        return jac if np.ndim(w) == 2 else jac[0]

    def span_coefficients(self, z):
        """Least-squares (a, b) with z = a gradbar f + b gradbar g on the curve.

        By Cramer's rule on wedge products: with P = gradbar f ^ gradbar g,
        a = <P, z ^ gradbar g> / <P, P> and b = <P, gradbar f ^ z> / <P, P>,
        summed over coordinate pairs j < k, which is exact where z lies in
        the span and is the least-squares solution elsewhere. One point
        gives the pair (a, b); a stack of N points gives (N, 2), each row
        its one-point call bit for bit; a row whose gradients are dependent
        gives non-finite values.
        """
        z = np.asarray(z, dtype=complex)
        j, k = _index_pairs(self.m)
        # take, unlike [..., j], keeps rows contiguous
        (uj, vj, zj), (uk, vk, zk) = ([x.take(i, -1) for x in (*self.grads(z), z)] for i in (j, k))
        pair = uj * vk - uk * vj
        wedges = np.stack([zj * vk - zk * vj, uj * zk - uk * zj], axis=-1)
        # row products by matmul: a sum over the last axis rounds apart for a stack
        dots = np.matmul(np.conj(pair)[..., None, :], wedges)[..., 0, :]
        with np.errstate(all="ignore"):
            return dots / _row_dot(pair.view(float), pair.view(float))[..., None]

    # -- solvers -----------------------------------------------------------

    def tangent(self, w):
        """Unit null vector of the Jacobian and its smallest singular value.

        A smallest singular value near zero means the solution set is not a
        regular curve at w (possible branch point). One row gives (vector,
        float); a stack of N rows gives (N, 2n+6) vectors and (N,) values
        from one stacked SVD, each row its one-row call bit for bit.
        """
        _, s, vt = np.linalg.svd(self.jacobian(w), full_matrices=True)
        if np.ndim(w) == 2:
            return vt[:, -1], s[:, -1]
        return vt[-1], float(s[-1])

    def newton_least_norm(self, w):
        """Gauss-Newton with minimum-norm steps from one row; returns (w, converged).

        The one-row call of :meth:`_correct_rows` with no added equation.
        """
        (w,), _, (ok,) = self._correct_rows(np.asarray(w, float)[None], None)
        return w, bool(ok)

    def corrector(self, w0, extra):
        """Square Newton on the system bordered by one scalar equation.

        The one-row call of :meth:`_correct_rows` for continuation nodes, with
        ``_CORRECTOR_MAX_ITER`` iterations: ``extra(w)`` returns the added
        equation's value at the one row w and its real gradient row in the
        unknowns (z, a, b). Returns (w, iterations, converged).
        """
        def stacked(w):
            value, row = extra(w[0])
            return np.asarray(value).reshape(1), row[None]

        (w,), (iters,), (ok,) = self._correct_rows(np.asarray(w0, dtype=float)[None], stacked)
        return w, int(iters), bool(ok)

    def _correct_rows(self, w0, extra):
        """Square Newton on each row of ``w0``, bordered by one scalar equation.

        The one Newton solver for points of the singular curve: seeds and
        trace starts (no added equation), continuation nodes and on-trace
        probes (the pseudo-arclength hyperplane of :func:`_hyperplane`),
        ray-slice points and composed critical points. ``extra(W)`` returns
        the added equation's (N,) values at all N rows of W and its
        (N, 2n+6) real gradient rows in the unknowns (z, a, b). ``extra``
        None borders each step by its Jacobian's unit null vector at the
        value 0, which is the least-norm Gauss-Newton step. The budget is
        ``_NEWTON_MAX_ITER`` steps without an added equation and
        ``_CORRECTOR_MAX_ITER`` with one. Rows run in lockstep, each step of
        every live row from one stacked solve. A row converges when the norm
        of its residual with that value appended is at most
        :func:`~linkfold.geometry._residual_tol`, the link projection's
        floor, tested before every step and after the last. A row stops
        unconverged, keeping its last point, where its bordered matrix is
        singular or its step is not finite or longer than 1e3 max(1,
        epsilon) (seeding's first steps: median 0.6-1.8 max(1, epsilon)).
        Returns the (N, 2n+6) points, (N,) iteration counts and (N,)
        converged flags.
        """
        w = np.array(w0, dtype=float)
        count = len(w)
        max_iter = _NEWTON_MAX_ITER if extra is None else _CORRECTOR_MAX_ITER
        iters = np.full(count, max_iter)
        converged = np.zeros(count, dtype=bool)
        tol = _residual_tol(self.spec)
        cap = 1e6 * max(1.0, self.spec.epsilon**2)
        live = np.arange(count)
        value = np.zeros(count)
        for it in range(max_iter + 1):
            # views of w's rows while every row is live
            rows = slice(None) if len(live) == count else live
            if extra is not None:
                value, row = extra(w)
            wl = w[rows]
            res = np.concatenate([self.residual(wl), value[rows, None]], axis=1)
            done = np.sqrt(_row_dot(res, res)) <= tol
            if np.count_nonzero(done):
                finished = live[done]
                converged[finished], iters[finished] = True, it
                if len(finished) == len(live):
                    break
                rows = live = live[~done]
                wl, res = wl[~done], res[~done]
            if it == max_iter:
                break
            jac = self.jacobian(wl)
            border = _null_vectors(jac) if extra is None else row[rows]
            delta = _solve_rows(np.concatenate([jac, border[:, None]], axis=1), -res)
            # a step that is not finite or too long stops its row
            good = _row_dot(delta, delta) <= cap
            if np.count_nonzero(good) < len(good):
                iters[live[~good]] = it
                rows = live = live[good]
                wl, delta = wl[good], delta[good]
            w[rows] = wl + delta
        return w, iters, converged


def _solve_rows(a, b):
    """x with a x = b for each (square matrix, vector) row of the stacks ``a`` and ``b``.

    One stacked solve; where that raises on a singular matrix, each row
    alone, with NaN in the rows whose matrix is singular.
    """
    try:
        return np.linalg.solve(a, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        x = np.full(b.shape, np.nan)
        for k in range(len(a)):
            try:
                x[k] = np.linalg.solve(a[k], b[k])
            except np.linalg.LinAlgError:
                pass
        return x


def _null_vectors(jac):
    """Unit null vector of each full-rank (r, r + 1) matrix of the stack ``jac``.

    The last column of Q in one stacked complete QR of jac^T. Bordered by it
    at the value 0, jac x = rhs has its minimum-norm solution as its one
    solution (Allgower & Georg, *Numerical Continuation Methods*, ch. 3).
    """
    return np.linalg.qr(np.swapaxes(jac, 1, 2), mode="complete")[0][..., -1]


def _hyperplane(t, w_pred):
    """The pseudo-arclength equation t . (w - w_pred) = 0, as a corrector ``extra``.

    One row t and w_pred border one row w; stacks of rows border stacks.
    """
    return lambda w: (_row_dot(t, w - w_pred), t)


# ---------------------------------------------------------------------------
# seeding
# ---------------------------------------------------------------------------


def _ratio_gradient(system, z):
    """Rank defect sigma_3/sigma_1 of the criterion matrix and its gradient.

    Returns, for each row of the (N, n+1) stack z, the ratio (0 where
    sigma_1 = 0) and its ambient real gradient, from first-order
    perturbation of the singular values: d sigma = Re(u* dM v) for the
    singular pair (u, v) of the columns (gradbar f, gradbar g, z). With
    H = v0 u* conj(Hess f) + v1 u* conj(Hess g) and L = v2 conj(u),
    d sigma/dx = Re(H + L) and d sigma/dy = Im(H - L).
    """
    u, s, vt = np.linalg.svd(criterion_matrix(z, system.spec.f, system.g), full_matrices=False)
    # rows: the pairs of sigma_1 and sigma_3
    uh = np.swapaxes(u[..., [0, 2]].conj(), -1, -2)
    v = vt[:, [0, 2]].conj()
    cf, cg = np.conj(hessian(system.spec.f, z)), np.conj(hessian(system.g, z))
    h = v[..., :1] * (uh @ cf) + v[..., 1:2] * (uh @ cg)
    low = v[..., 2:] * uh
    dsigma = np.empty((len(z), 2, 2 * system.m))
    dsigma[..., 0::2] = np.real(h + low)
    dsigma[..., 1::2] = np.imag(h - low)
    top, bottom = s[:, :1], s[:, 2:3]
    # square each sigma_1 as a NumPy scalar, as one point did: a scalar
    # squares through pow, which can round apart from an array's square
    top_sq = np.array([x**2 for x in s[:, 0]]).reshape(-1, 1)
    grad = np.divide(top * dsigma[:, 1] - bottom * dsigma[:, 0], top_sq,
                     out=np.zeros_like(dsigma[:, 0]), where=top != 0.0)
    return np.divide(bottom, top, out=np.zeros_like(top), where=top != 0.0)[:, 0], grad


def _has_frame(z, spec):
    try:
        tangent_frame(z, spec)
    except (LinkFoldError, ValueError):
        return False
    return True


def projected_descent(system, z):
    """Projected gradient descent on the rank defect, one chart step per round, from each row of ``z``.

    The objective is :func:`_ratio_gradient`, sigma_3/sigma_1 of the
    criterion matrix. Each round, each row takes one step of length
    min(0.09 epsilon, value/slope) along its negative tangential gradient in
    a retraction chart, and keeps it whether or not its value dropped: the
    descent only brings starts into the basin of the Newton solve that
    follows. A row stops at ``_SEED_DESCENT_TARGET``, after
    ``_SEED_DESCENT_STEPS`` rounds, at a slope below 1e-14, or where its frame
    fails or its chart step does. Rows run in lockstep, one stacked
    :func:`tangent_frame`, :func:`chart` and objective call per round, and
    end bit for bit as lone starts would. Returns the (N, n+1) endpoints and
    their (N,) values.
    """
    spec = system.spec
    z = np.array(z, dtype=complex)
    value, grad = _ratio_gradient(system, z)
    live = np.arange(len(z))
    for _ in range(_SEED_DESCENT_STEPS):
        live = live[value[live] > _SEED_DESCENT_TARGET]
        try:
            frame = tangent_frame(z[live], spec)
        except (LinkFoldError, ValueError):  # stop only the rows that raise
            live = live[[_has_frame(p, spec) for p in z[live]]]
            frame = tangent_frame(z[live], spec)
        if not live.size:
            break
        # stacked products on bases in one-start layout, and norms as 1-D dots:
        # each row rounds as a lone start
        tang_grad = np.matmul(frame.basis, grad[live][..., None])[..., 0]
        slope = np.sqrt(_row_dot(tang_grad, tang_grad))
        steep = np.flatnonzero(~(slope < 1e-14))
        live, slope = live[steep], slope[steep]
        direction = -tang_grad[steep] / slope[:, None]
        step = np.minimum(0.09 * spec.epsilon, value[live] / slope)
        frames = TangentFrame(z[live], np.swapaxes(np.swapaxes(frame.basis, 1, 2)[steep], 1, 2))
        moved = chart(z[live], frames, step[:, None] * direction, spec)
        ok = ~np.isnan(moved[:, 0])
        live = live[ok]
        z[live] = moved[ok]
        value[live], grad[live] = _ratio_gradient(system, moved[ok])
    return z, value


def seed_singular_points(spec, g, rng_seed):
    """Find points of the singular set by multi-start descent plus Newton.

    ``_SEED_SAMPLES`` random link points go downhill on the rank defect in
    one stacked :func:`projected_descent`, one chart step per round, for at
    most ``_SEED_DESCENT_STEPS`` rounds or until it is at most
    ``_SEED_DESCENT_TARGET``: into the Newton solve's basin, not onto the
    curve (descent down to 2e-2 left one of A2's three components unseeded
    at 10 of 44 seeds). At n = 1, where every link point is singular, the
    samples are the endpoints. One lockstep least-norm
    Newton solve (:meth:`AugmentedSystem._correct_rows` with no added
    equation) starts from all endpoints z at once, each with the span
    coefficients (a, b) of one stacked :meth:`AugmentedSystem.span_coefficients`
    call. Each start that converges is a seed, in start order;
    :func:`collect_components` skips seeds on a traced component. Returns a
    (k, 2n+6) array of augmented vectors (realify(z), Re a, Im a, Re b,
    Im b), the layout of trace nodes. Raises EmptyResult if nothing
    converges.
    """
    system = AugmentedSystem(spec, g)
    rng = np.random.default_rng(rng_seed)
    ends = samples = sample_link_points(spec, _SEED_SAMPLES, rng)
    if spec.n > 1:
        ends, _ = projected_descent(system, samples)
    starts = np.concatenate([realify(ends), realify(system.span_coefficients(ends))], axis=1)
    seeds, _, converged = system._correct_rows(starts, None)
    if not converged.any():
        raise EmptyResult(f"no singular seeds converged ({len(samples)} samples)")
    return seeds[converged]


# ---------------------------------------------------------------------------
# condition (1), independent gradients on the link: closed form on A1
# ---------------------------------------------------------------------------


def _a1_linear_form(spec, g):
    """(u, s1, s2, p, q) of an affine g = u . z + c on A1: the SVD of [Re u; Im u].

    s1 >= s2 are its singular values and p, q its first right singular
    vectors. The singular set of h is {alpha (p +- i q) : |alpha| = epsilon/sqrt(2)},
    two circles of image radii epsilon (s1 -+ s2)/sqrt(2). Raises
    NotApplicable unless f = z1^2 + ... + z_{n+1}^2 and g is affine and nonconstant.
    """
    m = spec.ambient_dim
    if spec.f != ComplexPoly(m, {tuple(2 * e): 1 for e in np.eye(m, dtype=int)}):
        raise NotApplicable("the closed form needs f = z1^2 + ... + z_{n+1}^2")
    if max((sum(e) for e in g.terms), default=0) != 1:
        raise NotApplicable("the closed form needs an affine, nonconstant g")
    u = gradient(g, np.zeros(m))
    _, (s1, s2), (p, q) = np.linalg.svd(np.vstack([u.real, u.imag]), full_matrices=False)
    return u, s1, s2, p, q


def scan_gradient_dependence(spec, g):
    """Least pair defect sigma2/sigma1 of [gradbar f, gradbar g] on the link, in closed form.

    For A1, f = z1^2 + ... + z_{n+1}^2, and an affine g = u . z + c it is
    sqrt(2) a (s1 - s2)/(a^2 + b^2 + D), with a = 2 epsilon, b = |u|, s1 >= s2
    from :func:`_a1_linear_form` and D^2 = (a^2 - b^2)^2 + 2 a^2 (s1 + s2)^2
    (derived at ``tests/oracles.py::a1_linear_min_pair_defect``). s1 - s2 is
    taken as |sum u_j^2|/(s1 + s2): exactly 0 where the dependent locus
    {z = lambda u} meets the link. Raises NotApplicable for any other (f, g).
    The name is that of the sampled search this replaced, which perfbench
    traces and requires by name.
    """
    u, s1, s2, _, _ = _a1_linear_form(spec, g)
    a2, b2 = 4.0 * spec.epsilon**2, s1**2 + s2**2
    root = np.sqrt((a2 - b2) ** 2 + 2.0 * a2 * (s1 + s2) ** 2)
    gap = abs(np.sum(u * u)) / (s1 + s2)
    return float(2.0 * np.sqrt(2.0) * spec.epsilon * gap / (a2 + b2 + root))


# ---------------------------------------------------------------------------
# continuation
# ---------------------------------------------------------------------------


def _arc_segments(nodes_z, tangents_z):
    """Curvature-corrected chord lengths of a closed polyline, node k to k + 1.

    The last length closes the polyline from the last node to the first.
    A chord subtending a tangent turn of angle phi underestimates the arc by
    the factor sin(phi/2)/(phi/2); the correction is exact on circles.
    """
    step = np.roll(nodes_z, -1, axis=0) - nodes_z
    chord = np.sqrt(_row_dot(step, step))
    cosphi = _row_dot(tangents_z, np.roll(tangents_z, -1, axis=0))
    half = 0.5 * np.arccos(np.clip(cosphi, -1.0, 1.0))
    return chord * np.divide(half, np.sin(half), out=np.ones_like(half), where=half >= 5e-10)


@dataclass(eq=False)
class _Front:
    """One of a trace's two fronts: its nodes and tangents from the seed out.

    ``s`` is its next step and ``curvature`` that of its last accepted step,
    None before its first.
    """

    nodes: list
    tangents: list
    s: float
    curvature: np.ndarray | None


def _corrector_start(w_pred, h, curvature):
    """Where the corrector starts a step whose prediction is w_pred = w + h t.

    The second-order point w_pred + (h^2/2) kappa, with kappa the curvature of
    the front's last accepted step, or w_pred on the front's first step.
    """
    return w_pred if curvature is None else w_pred + (0.5 * h * h) * curvature


def _correct_steps(system, starts, t, w_pred):
    """Correct one round's steps, one row per stepping front, lane by lane and forward front first.

    Row k starts at starts[k] and is held to the pseudo-arclength hyperplane
    t[k] . (w - w_pred[k]) = 0. One row goes through
    :meth:`AugmentedSystem.corrector`, more through one
    :meth:`AugmentedSystem._correct_rows` call, which ends each row as its
    one-row call would. Returns the stacked (points, iterations, converged).
    """
    if len(starts) == 1:
        w, iters, ok = system.corrector(starts[0], _hyperplane(t[0], w_pred[0]))
        return w[None], np.array([iters]), np.array([ok])
    return system._correct_rows(starts, _hyperplane(t, w_pred))


def _facing_gap(forward, backward, dim):
    """The z-gap between the fronts' tips, or inf unless they face each other.

    The gap from the forward tip to the backward one must lie within cosine
    ``_JOIN_COSINE`` of the forward tip's z-tangent, and its reverse within
    that of the backward tip's.
    """
    gap = backward.nodes[-1][:dim] - forward.nodes[-1][:dim]
    length = np.sqrt(gap @ gap)
    ends = ((gap, forward.tangents[-1][:dim]), (-gap, backward.tangents[-1][:dim]))
    facing = all(d @ t >= _JOIN_COSINE * length * np.sqrt(t @ t) for d, t in ends)
    return length if facing else np.inf


class _Lane:
    """One trace of :func:`_trace_lanes`: the two fronts that leave one seed, and their state.

    Made from a seed, a lane solves it and takes the curve's tangent there,
    raising as :func:`_trace_lanes` describes. Given no step, it
    ramps: its forward front steps alone from ``_STEP_INIT`` epsilon, and
    ``started`` turns true when the backward front starts. Given a step, both
    fronts start from it. ``closing`` holds while the forward front alone
    halves the gap between the tips, and ``joined`` once the fronts have met,
    facing each other or side by side (``_SIDE_BY_SIDE``).
    """

    def __init__(self, system, seed, step):
        spec, g = system.spec, system.g
        self.step_min = _STEP_MIN * spec.epsilon
        self.step_max = _STEP_MAX * spec.epsilon
        self.target = _STEP_DISTANCE * spec.epsilon
        self.branch_tol = _BIFURCATION_TOL * min(1.0, spec.epsilon) ** 2
        w, ok = system.newton_least_norm(seed)
        if not ok:
            raise StepCollapse("seed does not satisfy the augmented system")
        t, smin = system.tangent(w)
        if smin < self.branch_tol:
            raise BifurcationSuspected(
                f"Jacobian second-smallest singular value {smin:.3e} at the seed"
            )
        # start so that the image h(z) turns counterclockwise about 0, whatever
        # sign the SVD gave the null vector
        z0 = complexify(w[:-4])
        if np.imag(np.conj(eval_poly(g, z0)) * (gradient(g, z0) @ complexify(t[:-4]))) < 0:
            t = -t
        self.started = step is not None
        if step is None:
            step = float(np.clip(_STEP_INIT * spec.epsilon, self.step_min, self.step_max))
        self.forward = _Front([w], [t], step, None)
        self.backward = _Front([w], [-t], step, None)
        self.closing = self.joined = False
        self.last_step = 0.0  # the forward front's step in the round before

    @property
    def stepping(self):
        """The fronts that step this round, forward first."""
        return [self.forward, self.backward] if self.started and not self.closing else [self.forward]

    def advance(self, w, t, w_new, t_new, iters, ok, distance, smin):
        """Take this lane's steps of one round, then join, close or ramp its fronts.

        Each argument holds one row per stepping front, forward first: its tip
        and tangent, the corrected point and its tangent, the corrector's
        iterations, whether the step is accepted, the z-distance from the
        prediction to the corrected point, and the Jacobian's smallest
        singular value there (inf where no tangent was taken).
        """
        if np.min(smin) < self.branch_tol:
            raise BifurcationSuspected(
                f"second-smallest singular value {np.min(smin):.3e} during trace"
            )
        forward, backward = self.forward, self.backward
        forward_step = forward.s
        for k, front in enumerate(self.stepping):
            if not ok[k]:
                front.s *= 0.5
                if front.s < self.step_min:
                    raise StepCollapse(f"continuation step collapsed below {self.step_min:.1e}")
                continue
            front.nodes.append(w_new[k])
            front.tangents.append(t_new[k])
            front.curvature = (t_new[k] - t[k]) / np.dot(t_new[k], w_new[k] - w[k])
            if distance[k] <= 0.5 * self.target and iters[k] <= 3:
                front.s = min(front.s * 1.4, self.step_max)
            elif distance[k] > self.target or iters[k] >= 6:
                front.s = max(front.s * 0.7, self.step_min)
        dim = w.shape[1] - 4
        gap = _facing_gap(forward, backward, dim) if len(forward.nodes) > 1 else np.inf
        if gap <= max(forward.s, backward.s):
            self.joined = True  # the gap is the last segment
            return
        if len(ok) == 2 and ok.all():
            tips = forward.nodes[-1][:dim] - backward.nodes[-1][:dim]
            if np.sqrt(tips @ tips) <= _SIDE_BY_SIDE * min(forward.s, backward.s):
                del backward.nodes[-1], backward.tangents[-1]
                self.joined = True  # the fronts landed side by side
                return
        self.closing = gap <= forward.s + backward.s
        if self.closing:  # the forward front alone halves the gap
            forward.s = min(forward.s, 0.5 * gap)
        if not self.started and forward_step <= self.last_step:
            self.started, backward.s = True, forward.s
        self.last_step = forward_step
        if len(forward.nodes) + len(backward.nodes) - 1 >= _MAX_NODES:
            gap = np.linalg.norm(backward.nodes[-1] - forward.nodes[-1])
            raise NonConvergence(
                f"trace did not close within {_MAX_NODES} nodes (gap to start {gap:.1e})"
            )

    def curve(self, system):
        """The joined fronts as a closed :class:`CurveTrace`, its image counterclockwise."""
        spec, g = system.spec, system.g
        dim = 2 * system.m
        forward, backward = self.forward, self.backward
        nodes = np.array(forward.nodes + backward.nodes[:0:-1])
        tangents = np.array(forward.tangents + [-x for x in backward.tangents[:0:-1]])
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


def _trace_lanes(system, seeds):
    """Pseudo-arclength continuation through each row of ``seeds``, one lane per row, in lockstep.

    Each row is an augmented vector (z, a, b), a row of
    :func:`seed_singular_points`, on which
    :meth:`AugmentedSystem.newton_least_norm` takes no step, and makes one
    :class:`_Lane`. Two fronts leave each seed, forward along the unit null
    vector t of the augmented Jacobian and backward along -t, each stepping
    with an adaptive step and correcting back onto the curve after each
    prediction. Steps s are z-arc lengths, as (a, b) are O(1) at every
    epsilon: the predictor moves h = s / |t_z| along the front's unit tangent
    t (Allgower & Georg, *Introduction to Numerical Continuation Methods*,
    section 6.1). s starts at ``_STEP_INIT`` and stays within
    [``_STEP_MIN``, ``_STEP_MAX``], all times epsilon, and every Newton
    solve is held to :func:`~linkfold.geometry._residual_tol`.

    Each round advances every stepping front of every lane at once: one
    corrector solve for all their rows (:func:`_correct_steps`) and one
    stacked :meth:`AugmentedSystem.tangent`, each row ending as it would in
    its lane alone. The lead lane, from seeds[0], starts alone, and its
    forward front steps alone until it takes a step no longer than its last
    one: there the step has settled, and the backward front starts from the
    seed with the forward front's next step, so the step ramps up once, not
    twice. Every other lane starts both fronts from that settled step, or
    from the forward front's step where the lead lane joins before that, so
    the step ramps up once per call, not once per seed. The prediction
    w_pred = w + h t anchors the pseudo-arclength hyperplane
    t . (w' - w_pred) = 0, the distance test and the step control. The
    corrector starts from :func:`_corrector_start`: the second-order point
    w_pred + (h^2/2) kappa, with kappa = (t - t_prev) / (t . (w - w_prev))
    the curvature of the front's last accepted step (ch. 6 of the same
    book), or w_pred on its first step; the hyperplane's equation pins the
    node. A corrected point farther than h/2 from its prediction is rejected
    like a failed corrector (the distance test of section 6.1), so a front
    cannot jump to another part of the curve, and so is one whose tangent
    turns by more than 60 degrees. A rejected step halves that front's step
    for the next round. After each accepted step, the z-distance delta from
    w_pred to the node, which grows as s^2 times the curve's bending, sets
    the front's next step against the target d = ``_STEP_DISTANCE`` epsilon
    (Den Heijer & Rheinboldt, SIAM J. Numer. Anal. 18, 1981): s grows by
    1.4 when delta <= d/2 and the corrector took at most 3 iterations,
    shrinks by 0.7 when delta > d or it took 6 or more, and stays otherwise.
    So the curve's bending, not the cap, sets the node count: 35 for an A1
    component traced by the lead lane, from 7 one-row and 14 two-row solves
    when it runs alone, and 33 for a lane that starts from the settled step.
    delta is measured from the anchor, not from the second-order start: the
    anchor and the node do not depend on where Newton began, while the
    start-to-node distance carries the corrector's rounding. With discrete
    factors, round-off in the seed moves no node.

    After each round a lane's tips are compared in z (:func:`_facing_gap`).
    Where they face each other within the larger of their steps, the fronts
    join, and the gap between them is a segment of the polyline. Where both
    fronts took a step and landed within ``_SIDE_BY_SIDE`` times the smaller
    of their next steps, a gap too short for the facing test to judge, they
    have met side by side: the backward tip is dropped and the fronts join.
    Where they
    face each other within the sum of their steps, the forward front steps
    alone, by at most half the gap, so that neither front passes the other.
    The backward tip is the seed until that front starts, so a curve shorter
    than the forward ramp closes on it. The polyline is the seed, the
    forward nodes, then the backward nodes reversed with their tangents
    negated, and closes from the last of them back to the seed. The forward
    front leaves in the direction in which the image turns counterclockwise
    about 0, so node placement does not depend on round-off in the seed. A
    finished polyline whose image polygon has negative signed area is then
    reversed with the start kept first, so every image turns
    counterclockwise as a whole, whichever seed the trace began at.

    Returns the list of traces, one per seed. A lane raises StepCollapse at
    a seed that does not solve the augmented system, NonConvergence when its
    fronts hold ``_MAX_NODES`` nodes between them without having joined (the
    message gives the gap between their tips), BifurcationSuspected when the
    Jacobian loses rank at the seed or along the way (below
    ``_BIFURCATION_TOL`` min(1, epsilon)^2) and StepCollapse when a front's
    step falls below the minimum step; the first lane to raise ends the
    call, as :func:`collect_components` keeps every lane's trace.
    """
    dim = 2 * system.m
    lead = _Lane(system, seeds[0], None)
    results = [None] * len(seeds)
    live, settled = [(0, lead)], None
    while True:
        if settled is None and (lead.started or lead.joined):
            settled = lead.forward.s
            live += [(i, _Lane(system, seeds[i], settled)) for i in range(1, len(seeds))]
        if not live:
            return results
        groups = [lane.stepping for _, lane in live]
        stepping = [front for group in groups for front in group]
        w = np.array([front.nodes[-1] for front in stepping])
        t = np.array([front.tangents[-1] for front in stepping])
        h = np.array([front.s for front in stepping]) / np.sqrt(_row_dot(t[:, :dim], t[:, :dim]))
        w_pred = w + h[:, None] * t
        starts = np.array([_corrector_start(p, hk, front.curvature)
                           for p, hk, front in zip(w_pred, h, stepping)])
        w_new, iters, ok = _correct_steps(system, starts, t, w_pred)
        miss = w_new - w_pred
        ok &= np.sqrt(_row_dot(miss, miss)) <= 0.5 * h  # else the corrector jumped
        distance = np.sqrt(_row_dot(miss[:, :dim], miss[:, :dim]))
        t_new, smin = np.zeros_like(t), np.full(len(t), np.inf)
        if ok.any():
            t_new[ok], smin[ok] = system.tangent(w_new[ok])
            turn = _row_dot(t_new, t)
            t_new[turn < 0] *= -1.0
            ok &= np.abs(turn) >= 0.5  # else a sharp turn: the step jumped too far
        steps = (w, t, w_new, t_new, iters, ok, distance, smin)
        begin, still = 0, []
        for (i, lane), group in zip(live, groups):
            rows = slice(begin, begin + len(group))
            begin = rows.stop
            lane.advance(*(x[rows] for x in steps))
            if lane.joined:
                results[i] = lane.curve(system)
            else:
                still.append((i, lane))
        live = still


def point_on_trace(system, trace, probes):
    """Which rows of the (N, 2n+6) stack ``probes`` lie on the traced curve.

    A coarse gate first: a probe farther from every node than four times the
    trace's longest segment (in arc length) is off the curve. Each probe
    that passes starts the bordered corrector on the cubic Hermite
    interpolant of the segment from its nearest node toward it
    (:func:`_spline_points`), at the fraction where the probe projects onto
    the segment's chord, held to the pseudo-arclength hyperplane through
    the probe normal to the nearest node's tangent, all such probes in one
    :meth:`AugmentedSystem._correct_rows` call. A probe is on the curve when
    its corrected point's z lies within ``_SAME_POINT_TOL`` epsilon of the
    probe's. This measures distance to the curve itself rather than to the
    discrete node set.
    Returns an (N,) boolean array.
    """
    dim = 2 * system.m
    # |node - probe| for every pair, squared in place: one (N, K, 2n+2) block
    diff = trace.nodes[:, :dim] - probes[:, None, :dim]
    dz = np.sqrt(np.add.reduce(np.square(diff, out=diff), axis=2))
    k = np.argmin(dz, axis=1)
    near = np.flatnonzero(dz[np.arange(len(probes)), k] <= 4.0 * np.diff(trace.arc_params).max())
    on = np.zeros(len(probes), dtype=bool)
    if near.size:
        k, probe = k[near], probes[near]
        t_k = trace.tangents[k]
        # the segment that starts at node k if the probe lies ahead of it, else the one before
        k0 = np.where(_row_dot(t_k, probe - trace.nodes[k]) >= 0.0, k, k - 1) % len(trace)
        w0 = trace.nodes[k0]
        chord = trace.nodes[(k0 + 1) % len(trace)] - w0
        u = np.clip(_row_dot(probe - w0, chord) / _row_dot(chord, chord), 0.0, 1.0)
        w_star, _, ok = system._correct_rows(_spline_points(trace, k0, u), _hyperplane(t_k, probe))
        miss = w_star[:, :dim] - probe[:, :dim]
        on[near] = ok & (np.sqrt(_row_dot(miss, miss)) <= _SAME_POINT_TOL * system.spec.epsilon)
    return on


def _hermite_basis(u):
    """The cubic Hermite basis (h00, h10, h01, h11) at each of the (N,) fractions u, as (N, 4).

    A segment with ends p0, p1 and end slopes m0, m1 in its own parameter
    u in [0, 1] is h00 p0 + h10 m0 + h01 p1 + h11 m1.
    """
    u = np.asarray(u, dtype=float)[:, None]
    return np.hstack([2 * u**3 - 3 * u**2 + 1, u**3 - 2 * u**2 + u,
                      3 * u**2 - 2 * u**3, u**3 - u**2])


def _spline_points(trace, k, u):
    """The cubic Hermite interpolant of ``trace`` at fraction u[i] of segment k[i], as rows.

    Segment k runs from node w_k to the next node (the last wraps to the
    first), with the unit tangents scaled by the chord L = |w_{k+1} - w_k|:
    H(u) = h00 w_k + h10 L t_k + h01 w_{k+1} + h11 L t_{k+1}.
    """
    k1 = (k + 1) % len(trace)
    w0, w1 = trace.nodes[k], trace.nodes[k1]
    chord = np.linalg.norm(w1 - w0, axis=1)[:, None]
    ends = np.stack([w0, chord * trace.tangents[k], w1, chord * trace.tangents[k1]], axis=1)
    return (_hermite_basis(u)[:, None, :] @ ends)[:, 0]


def _component_key(trace, spec, g):
    """Sort key of a component: its peak |h|, then its z there.

    Both are rounded to 1e-6 epsilon. The peak comes from the largest value
    of the cubic Hermite interpolant of |h|^2 in augmented arclength on the
    two segments at the node of largest |h|, with the slopes
    d|h|^2/ds = 2 Re(conj(h) dh(t)) from the unit node tangents t; the same
    interpolant of the nodes gives z. The largest node value alone moves with
    node placement: by 18 rounding units across seeds on the short Brieskorn
    component, and a parabola through the three nodes by 0.5 on the long
    one, whose peaks are sharp image cusps.
    """
    count = len(trace.nodes)
    dim = trace.nodes.shape[1] - 4
    h = trace.image[:, 0] + 1j * trace.image[:, 1]
    k = int(np.argmax(np.abs(h)))
    idx = [(k - 1) % count, k, (k + 1) % count]
    w, t, h = trace.nodes[idx], trace.tangents[idx], h[idx]
    dh = np.sum(gradient(g, complexify(w[:, :dim])) * complexify(t[:, :dim]), axis=1)
    # |h|^2 and its slope in front of each node's augmented vector and tangent
    points = np.column_stack([np.abs(h) ** 2, w])
    slopes = np.column_stack([2.0 * (np.conj(h) * dh).real, t])
    # cubic Hermite basis at 1001 points of a segment, u in [0, 1]
    basis = _hermite_basis(np.linspace(0.0, 1.0, 1001))
    peak = None
    for i in (0, 1):
        step = np.linalg.norm(w[i + 1] - w[i])
        ends = np.array([points[i], step * slopes[i],
                         points[i + 1], step * slopes[i + 1]])
        row = basis[np.argmax(basis @ ends[:, 0])] @ ends
        if peak is None or row[0] > peak[0]:
            peak = row
    unit = 1e-6 * spec.epsilon
    z_at_peak = np.rint(peak[1 : 1 + dim] / unit).astype(int)
    return round(float(np.sqrt(peak[0])) / unit), tuple(z_at_peak.tolist())


def _orbit_leads(seeds, spec):
    """The first seed of each S^1-orbit among ``seeds``, as ascending indices.

    The orbit of z under z -> alpha z (|alpha| = 1) passes within
    sqrt(|z|^2 + |z'|^2 - 2 |<z, z'>|) of z'. A seed leads unless the orbit
    of an earlier seed passes within ``_SAME_POINT_TOL`` epsilon of it; one
    Gram product gives every pair.
    """
    z = complexify(seeds[:, :-4])
    norms = _row_dot(seeds[:, :-4], seeds[:, :-4])
    gaps = norms[:, None] + norms[None, :] - 2.0 * np.abs(np.conj(z) @ z.T)
    same = gaps <= (_SAME_POINT_TOL * spec.epsilon) ** 2
    return np.flatnonzero(~np.tril(same, -1).any(axis=1))


def collect_components(seeds, spec, g):
    """Trace the seeds and return the distinct singular components.

    ``seeds`` holds augmented vectors, one per row, taken in order. Where f
    and g are both homogeneous, z -> alpha z (|alpha| = 1) maps the singular
    set to itself, so each component is one orbit of that circle action
    (Milnor, *Singular Points of Complex Hypersurfaces*, 1968). There the
    seeds are grouped by orbit (:func:`_orbit_leads`), and the components
    are the traces of the first seed of each orbit, all in one call of
    :func:`_trace_lanes`, whose lead lane ramps the step for every lane.

    For any other pair, each kept seed is traced alone, ramping its own
    step, and a seed already lying on a kept component is skipped (the
    trace would be a resampling of the same curve): after each trace, every
    later seed not yet skipped is probed against it in one
    :func:`point_on_trace` call, which makes the probes that a seed-by-seed
    check against the components kept before it would make.

    Components come in increasing order of their peak |h|, ties broken by z
    at the peak (see :func:`_component_key`), which does not depend on where
    the seeds fell.
    """
    system = AugmentedSystem(spec, g)
    seeds = np.asarray(seeds, dtype=float)
    if len(seeds) and homogeneous_degree(spec.f) is not None and homogeneous_degree(g) is not None:
        components = _trace_lanes(system, seeds[_orbit_leads(seeds, spec)])
    else:
        skipped = np.zeros(len(seeds), dtype=bool)
        components = []
        for i in range(len(seeds)):
            if skipped[i]:
                continue
            components += _trace_lanes(system, seeds[i : i + 1])
            later = i + 1 + np.flatnonzero(~skipped[i + 1 :])
            skipped[later] = point_on_trace(system, components[-1], seeds[later])
    return sorted(components, key=lambda trace: _component_key(trace, spec, g))
