"""Reference computations used only by the tests.

Each oracle computes a quantity the package also reaches by another route,
so a test can compare the two.
"""

import numpy as np

from linkfold.errors import WrongDimension
from linkfold.geometry import realify
from linkfold.polynomial import conj_gradient
from linkfold.singular_set import criterion_matrix


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
