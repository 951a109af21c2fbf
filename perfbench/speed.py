"""Machine-speed reference: fixed work in linkfold's style, sharing no code.

The host this benchmark was built on is shared. The speed of one vCPU swings
by up to half within seconds and drifts for minutes, for set-up and passes
alike, so raw times of the same pass at the same seed spread by about a
quarter from run to run. :func:`reference_seconds` times a fixed, tiny piece
of work of the same kind as linkfold's hot path: Gauss-Newton steps toward
{f = 0, |z| = 1} for the Brieskorn polynomial, with f evaluated term by term
in a Python loop over numpy scalars and the step taken from a small SVD. Its
inputs are fixed, so its time changes only with the machine.

:class:`Sampler` runs the reference every :data:`INTERVAL_S` seconds of a
pass, from a timer signal in the benchmark's own thread, so it samples the
same vCPU at the same moments as the pass. :func:`at_nominal_speed` divides
a time by the median reference time over :data:`NOMINAL_S`: it states the
time on a machine where the reference takes exactly :data:`NOMINAL_S`.
Over five minutes of the same passes at a fixed seed, the reference time
during a pass correlated with the pass time at 0.90 to 0.97, and the
quartile distance over median of the pass times fell from 0.11 to 0.28 raw
to 0.07 to 0.12 this way.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# f = z1^2 + z2^3 + z3^5 as (exponents, coefficient) terms
TERMS = (((2, 0, 0), 1.0), ((0, 3, 0), 1.0), ((0, 0, 5), 1.0))
STEPS = 8
START = np.random.default_rng(0).standard_normal((2, 6))
# roughly the reference's time on a 2-vCPU Xeon VM in its fast state
NOMINAL_S = 1e-3
INTERVAL_S = 0.1


def _eval(terms, z):
    total = 0.0 + 0.0j
    for exps, coeff in terms:
        term = coeff
        for zj, e in zip(z, exps):
            if e:
                term *= zj ** e
        total += term
    return total


def _gradient_terms():
    out = []
    for j in range(3):
        terms = []
        for exps, coeff in TERMS:
            if exps[j]:
                lowered = list(exps)
                lowered[j] -= 1
                terms.append((tuple(lowered), coeff * exps[j]))
        out.append(tuple(terms))
    return tuple(out)


GRADIENT = _gradient_terms()


def _work():
    """Newton steps toward f = 0, |z| = 1 from fixed starting points."""
    acc = 0.0
    for row in START:
        z = row[:3] + 1j * row[3:]
        z = z / np.linalg.norm(z)
        for _ in range(STEPS):
            grad = np.array([_eval(g, z) for g in GRADIENT])
            value = _eval(TERMS, z)
            res = np.array([value.real, value.imag, float(np.vdot(z, z).real) - 1.0])
            jac = np.stack([
                np.concatenate([grad.real, -grad.imag]),
                np.concatenate([-grad.imag, -grad.real]),
                np.concatenate([2.0 * z.real, 2.0 * z.imag]),
            ])
            u, s, vt = np.linalg.svd(jac, full_matrices=False)
            delta = vt.T @ ((u.T @ -res) / np.maximum(s, 1e-12))
            z = z + delta[:3] + 1j * delta[3:]
        acc += float(np.abs(z).sum())
    return acc


def reference_seconds():
    """Seconds taken by the fixed reference work, once."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def at_nominal_speed(seconds, references):
    """``seconds`` measured while the reference took ``references``."""
    return seconds * NOMINAL_S / statistics.median(references)


class Sampler:
    """Reference times taken every INTERVAL_S during a timed block.

    Use as ``with sampler: ...``; afterwards ``samples`` holds the reference
    times taken inside the block (at least one) and ``busy_s`` their sum,
    which the caller subtracts from the block's wall time.
    """

    def __init__(self):
        self.samples = []
        self.busy_s = 0.0

    def _sample(self, signum=None, frame=None):
        t = reference_seconds()
        self.samples.append(t)
        self.busy_s += t

    def __enter__(self):
        self.samples, self.busy_s = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self.samples.append(reference_seconds())
        return False
