"""Morse data of ray slices and of composed height functions.

For a ray direction theta, the slice Q_theta is the preimage under h of the
ray {t e^{i theta} : t >= 0}; the critical points of Re(e^{-i theta} h) on
Q_theta are the fold points of h on the ray, and the slice Hessian there is
the fold's transverse Hessian :func:`intrinsic_hessian` on ker dh, weighted
by the slice multiplier. Composing h with a nonzero linear height eta gives
a Morse function on the whole link whose critical points sit on the traced
singular curves; its Morse indices come from :func:`intrinsic_hessian` on
the whole tangent space. Both rest on one closed-form second-order model,
P = conj(a) Hess f + conj(b) Hess g of
:func:`~linkfold.singular_set.span_hessian`. Both kinds of critical point
are found by one search: sign changes over the trace nodes, each bracket
started on the cubic Hermite interpolant of its two nodes and tangents,
and every start of every trace solved in one call of the lockstep
bordered Newton solver of the singular set
(:meth:`AugmentedSystem._correct_rows`). Its ``extra(W)`` returns the added
equation's values and real gradient rows in (z, a, b) at a stack of
augmented rows: the ray equation for slices, the criticality equation
Im(w b) = 0 for composed heights. At n = 1 the whole link is singular, and
:func:`trace_image_n1` traces it the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateHessian, RankZero, WrongDimension
from .fold_classify import (
    _DEAD_BAND,
    fold_counts,
    intrinsic_hessian,
    local_fold_data,
)
from .geometry import complexify, tangent_frame
from .polynomial import _cmul, eval_poly, gradient
from .singular_set import (
    AugmentedSystem,
    _spline_points,
    collect_components,
    seed_singular_points,
)

__all__ = [
    "SliceSpec",
    "CriticalPointRecord",
    "slice_critical_points",
    "slice_morse_index",
    "composed_morse",
    "trace_image_n1",
]

# iteration budget of the bordered Newton solve for slice and composed points
_SOLVE_MAX_ITER = 20
# critical points closer than this are one
_DEDUPE_TOL = 1e-6
# slice points with a ray parameter below this times epsilon sit at the origin
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
    gradient_norm: float


def _distinct(points, tol):
    """The points, in order, that lie farther than ``tol`` from every point kept before."""
    kept = []
    for point in points:
        if all(np.linalg.norm(point - other) > tol for other in kept):
            kept.append(point)
    return kept


def _equation_zeros(traces, system, node_values, equation):
    """Points of the traced singular set where ``equation`` vanishes.

    Where ``node_values(trace)``, one value per node, vanishes at node k or
    changes sign from k to the next node (the last wraps to the first), the
    bordered corrector solves ``equation`` from the cubic Hermite
    interpolant of that segment (:func:`_spline_points`) at the values'
    linear zero fraction u. Every bracket of every trace goes in one
    :meth:`AugmentedSystem._correct_rows` call, whose ``extra(W)`` is
    ``equation``; on A1 each takes at most 2 Newton
    iterations, where the chord's start took 2 or 3. Converged points
    within ``_DEDUPE_TOL`` of an earlier one, in trace and node order, are
    dropped.
    """
    starts = [np.empty((0, 2 * system.m + 4))]
    for trace in traces:
        va = node_values(trace)
        vb = np.roll(va, -1)
        k = np.flatnonzero((va == 0.0) | (va * vb < 0.0))
        u = np.divide(va[k], va[k] - vb[k], out=np.zeros(len(k)), where=va[k] != 0.0)
        starts.append(_spline_points(trace, k, u))
    w, _, ok = system._correct_rows(np.concatenate(starts), equation, _SOLVE_MAX_ITER)
    return _distinct(complexify(w[ok, : 2 * system.m]), _DEDUPE_TOL)


def slice_critical_points(slice_spec, traces, spec, g):
    """Points of the traced singular set whose image lies on the ray.

    Sign changes of Im(e^{-i theta} h) along each trace are refined by the
    bordered corrector with the ray equation. Points whose ray parameter
    Re(e^{-i theta} h) ends up below ``_MIN_RAY_PARAM`` epsilon are discarded:
    they lie on the opposite ray or at the slice boundary at the origin.
    """
    system = AugmentedSystem(spec, g)
    rotation = slice_spec.rotation
    dim = 2 * system.m

    def ray_equation(w):
        """Im(rotation * h) and its real gradient rows, zero in (a, b), at each row of w."""
        zc = complexify(w[:, :dim])
        grad, value = gradient(g, zc), eval_poly(g, zc)
        re, im = _cmul(rotation.real, rotation.imag, grad.real, grad.imag)
        rows = np.zeros((len(w), dim + 4))
        rows[:, 0:dim:2], rows[:, 1:dim:2] = im, re
        return _cmul(rotation.real, rotation.imag, value.real, value.imag)[1], rows

    def node_values(trace):
        return (rotation * (trace.image[:, 0] + 1j * trace.image[:, 1])).imag

    found = [
        z for z in _equation_zeros(traces, system, node_values, ray_equation)
        if (rotation * eval_poly(g, z)).real >= _MIN_RAY_PARAM * spec.epsilon
    ]
    found.sort(key=lambda z: -(rotation * eval_poly(g, z)).real)
    return found


def _critical_record(point, value, hess, gradient_norm):
    """Record with Morse index from ``hess``; DegenerateHessian in the dead band."""
    eigs = np.linalg.eigvalsh(hess)
    neg, _, degenerate = fold_counts(eigs)
    if degenerate:
        raise DegenerateHessian(
            f"Hessian eigenvalue inside dead band {_DEAD_BAND:g} x spectral "
            f"norm: {eigs}"
        )
    return CriticalPointRecord(point, float(value), neg, eigs, float(gradient_norm))


# hessian_step and dead_band are ignored: perfbench/workloads.py passes them
def slice_morse_index(point, slice_spec, spec, g, hessian_step=None,
                      dead_band=None):
    """Morse index of the slice function Re(e^{-i theta} h) at a critical point.

    Slice critical points are fold points of h on the ray: the point, frame
    and slice chart ker dh (dimension 2n-2) come from :func:`local_fold_data`,
    which raises RankTwo at a regular point. The Hessian is the fold's
    :func:`intrinsic_hessian` with the slice weight w = e^{-i theta}(1 + i lam)
    as covector (Re w, -Im w): Re(w h) is the slice's Lagrangian, with lam
    the multiplier that makes its differential vanish on the link, whose
    largest entry is ``gradient_norm``. DegenerateHessian inside the dead band.
    """
    rotation = slice_spec.rotation
    data = local_fold_data(point, spec, g)
    z = data.base_point
    derivs = rotation * (data.frame.complex_basis @ gradient(g, z))
    im_row = derivs.imag
    if np.linalg.norm(im_row) <= 1e-10:
        raise RankZero("slice normal degenerated: d Im(e^{-i theta} h) = 0")
    # the slice's multiplier: d Re = lam d Im on the link at a critical point
    lam = float(np.dot(derivs.real, im_row) / np.dot(im_row, im_row))
    weight = rotation * (1.0 + 1j * lam)
    nu = (weight.real, -weight.imag)
    hess = intrinsic_hessian(data.kernel_basis, data.frame, spec, g, nu)
    return _critical_record(
        z, (rotation * eval_poly(g, z)).real, hess,
        np.max(np.abs(derivs.real - lam * im_row)),
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
    classified by the full (2n-1)-dimensional link Hessian, eta's
    :func:`intrinsic_hessian` on the whole frame. Records are sorted by value.
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
        """Im(weight * b) and its real gradient rows at each row of w."""
        return weight.real * w[:, -1] + weight.imag * w[:, -2], np.broadcast_to(row, w.shape)

    def node_values(trace):
        return (weight * (trace.nodes[:, -2] + 1j * trace.nodes[:, -1])).imag

    records = []
    for z in _equation_zeros(traces, system, node_values, critical_equation):
        frame = tangent_frame(z, spec)
        derivs = weight * (frame.complex_basis @ gradient(g, z))
        hess = intrinsic_hessian(np.eye(frame.dim), frame, spec, g, eta)
        records.append(_critical_record(
            z, (weight * eval_poly(g, z)).real, hess, np.max(np.abs(derivs.real))
        ))
    records.sort(key=lambda r: r.value)
    return records


# ---------------------------------------------------------------------------
# n = 1: the whole link is singular; trace it
# ---------------------------------------------------------------------------


def trace_image_n1(spec, g, rng_seed):
    """The traced components of a 1-dimensional link, each with its image.

    Only valid for n = 1, where every link point is singular for h: the
    link is seeded from ``rng_seed`` and traced as the singular set is at
    n >= 2.
    """
    if spec.n != 1:
        raise WrongDimension(f"n = 1 required, got n = {spec.n}")
    return collect_components(seed_singular_points(spec, g, rng_seed), spec, g)
