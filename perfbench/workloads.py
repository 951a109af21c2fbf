"""The three benchmark workloads, driven through linkfold's public API.

A workload is a pass function, a check function and a nominal pass time in
seconds, which sizes a timed run. The pass function takes
the imported ``linkfold`` package, the program seed (``RunConfig.rng_seed``)
and an output directory, makes every call into linkfold by module attribute
at call time (so a traced run sees the wrapped functions), and returns the
raw outputs. The check function turns those outputs into one
:class:`oracles.OpResult` per operation. Only the pass function is timed.

``span`` is the tracer's span context manager, or a no-op when untraced.
"""

from __future__ import annotations

import contextlib
import math
from pathlib import Path

import oracles

BRIESKORN_F = "z1^2 + z2^3 + z3^5"
G_TEXT = "z1 + 0.5i*z2"
A1_NS = (1, 2, 3, 4)
MORSE_N = 4
MORSE_ANGLES = tuple(2.0 * math.pi * k / 8 for k in range(8))


def no_span(name):
    return contextlib.nullcontext()


# ---------------------------------------------------------------------------
# a1_verify: the paper's reproduction, n = 1..4
# ---------------------------------------------------------------------------


def a1_verify_pass(lf, seed, out_dir, span=no_span):
    results = []
    for n in A1_NS:
        n_dir = Path(out_dir) / f"n{n}"
        config = lf.report.RunConfig(n=n, rng_seed=seed, out_dir=str(n_dir))
        try:
            with span(f"run_verify_a1.n{n}"):
                _, code = lf.report.run_verify_a1(config)
        except Exception as exc:  # a crash is a failed operation, not a stop
            results.append((n, exc, n_dir))
            continue
        results.append((n, code, n_dir))
    return results


def a1_verify_check(results, schema):
    ops = []
    for n, code, n_dir in results:
        if isinstance(code, Exception):
            ops.append(oracles.raised(f"a1_verify.n{n}", code))
        else:
            ops.append(oracles.check_a1_report(n, code, n_dir / "report.json", schema))
    return ops


# ---------------------------------------------------------------------------
# singular_trace: continuation on the Poincare-sphere link
# ---------------------------------------------------------------------------


def singular_trace_pass(lf, seed, out_dir, span=no_span):
    config = lf.report.RunConfig(
        f_text=BRIESKORN_F, g_text=G_TEXT, n=2, epsilon=1.0,
        rng_seed=seed, out_dir=str(out_dir),
    )
    try:
        path, _ = lf.report.run_singular_set(config)
    except Exception as exc:
        return exc, config.epsilon
    return path, config.epsilon


def singular_trace_check(result, schema):
    path, epsilon = result
    if isinstance(path, Exception):
        return [oracles.raised(f"singular_trace.component{k}", path) for k in range(2)]
    return oracles.check_singular_set(path, epsilon)


# ---------------------------------------------------------------------------
# morse_sweep: A1 at n = 4, traced once, Morse data at 8 angles
# ---------------------------------------------------------------------------


def _records(records):
    return [(r.morse_index, r.value, list(r.hessian_eigenvalues)) for r in records]


def morse_sweep_pass(lf, seed, out_dir, span=no_span):
    config = lf.report.RunConfig(n=MORSE_N, rng_seed=seed)
    spec, g = config.build()
    try:
        spec, g, _, traces = lf.report.compute_components(config, spec, g)
    except Exception as exc:
        return [(theta, exc) for theta in MORSE_ANGLES]
    results = []
    for theta in MORSE_ANGLES:
        try:
            slice_spec = lf.morse.SliceSpec(theta=theta)
            points = lf.morse.slice_critical_points(slice_spec, traces, spec, g)
            slice_records = [
                lf.morse.slice_morse_index(
                    z, slice_spec, spec, g,
                    hessian_step=config.hessian_step, dead_band=config.dead_band,
                )
                for z in points
            ]
            composed = lf.morse.composed_morse(
                (math.cos(theta), math.sin(theta)), traces, spec, g,
                hessian_step=config.hessian_step, dead_band=config.dead_band,
            )
        except Exception as exc:
            results.append((theta, exc))
            continue
        results.append((theta, (_records(slice_records), _records(composed))))
    return results


def morse_sweep_check(results, schema):
    ops = []
    for theta, out in results:
        if isinstance(out, Exception):
            ops.append(oracles.raised(f"morse_sweep.theta={theta:.6f}", out))
        else:
            ops.append(oracles.check_morse_angle(MORSE_N, theta, *out))
    return ops


# pass times of a 2-vCPU Xeon VM in its fast state, at the baseline commit
WORKLOADS = {
    "a1_verify": (a1_verify_pass, a1_verify_check, 15.0),
    "singular_trace": (singular_trace_pass, singular_trace_check, 5.0),
    "morse_sweep": (morse_sweep_pass, morse_sweep_check, 4.0),
}
