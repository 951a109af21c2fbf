"""Kernel micro-benchmark: ns per call of linkfold's hot kernels.

Inputs are drawn once from the workload seed and are the same on every
call to :func:`ns_per_call`; only the kernel calls are timed. Each kernel
runs in batches over its inputs, and the figure is the median batch time
divided by the calls in a batch.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

BATCH_INPUTS = 64
BATCHES = 7


def _cases(lf, rng):
    a1_spec, _ = lf.report.RunConfig(n=4).build()
    br_spec, br_g = lf.report.RunConfig(
        f_text="z1^2 + z2^3 + z3^5", g_text="z1 + 0.5i*z2", n=2).build()
    poly = lf.polynomial
    second = poly.wirtinger_partial(poly.wirtinger_partial(br_spec.f, 3), 3)

    def ambient(m, count=BATCH_INPUTS):
        z = rng.standard_normal((count, m)) + 1j * rng.standard_normal((count, m))
        return z / np.linalg.norm(z, axis=1, keepdims=True)

    geo = lf.geometry
    near_link, on_link = [], []
    for z in ambient(a1_spec.ambient_dim, 2 * BATCH_INPUTS):
        try:
            on_link.append(geo.project_to_link(z, a1_spec))
        except lf.LinkFoldError:
            continue
        near_link.append(z)
    near_link, on_link = near_link[:BATCH_INPUTS], on_link[:BATCH_INPUTS]
    system = lf.singular_set.AugmentedSystem(br_spec, br_g)
    w = rng.standard_normal((BATCH_INPUTS, 2 * br_spec.ambient_dim + 4))
    z5, z3 = ambient(5), ambient(3)
    return {
        "eval_poly": (poly.eval_poly, [(a1_spec.f, z) for z in z5]),
        "eval_poly.brieskorn": (poly.eval_poly, [(br_spec.f, z) for z in z3]),
        "eval_poly.second_partial": (poly.eval_poly, [(second, z) for z in z3]),
        "project_to_link": (geo.project_to_link, [(z, a1_spec) for z in near_link]),
        "tangent_frame": (geo.tangent_frame, [(z, a1_spec) for z in on_link]),
        "AugmentedSystem.residual": (system.residual, [(v,) for v in w]),
        "AugmentedSystem.jacobian": (system.jacobian, [(v,) for v in w]),
    }


def _batch_seconds(fn, inputs, repeats):
    start = time.perf_counter()
    for _ in range(repeats):
        for args in inputs:
            fn(*args)
    return time.perf_counter() - start


def ns_per_call(lf, seed, budget_s):
    """``{kernel}.ns_per_call`` for each kernel, within about ``budget_s``."""
    cases = _cases(lf, np.random.default_rng(seed))
    per_case = budget_s / len(cases)
    out = {}
    for name, (fn, inputs) in cases.items():
        probe = _batch_seconds(fn, inputs, 1)
        repeats = max(1, int(per_case / BATCHES / max(probe, 1e-9)))
        times = [_batch_seconds(fn, inputs, repeats) for _ in range(BATCHES)]
        out[f"{name}.ns_per_call"] = (
            statistics.median(times) / (repeats * len(inputs)) * 1e9
        )
    return out
