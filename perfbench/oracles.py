"""Output checks for the benchmark workloads, written from closed-form facts.

Nothing here imports linkfold: each check recomputes what it needs from the
problem statement (the A1 example's known image radii, critical values and
Morse indices; the Brieskorn polynomial's gradient written out by hand), so
a bug in linkfold cannot cancel out in the check.

Every check returns an :class:`OpResult`. ``failed`` marks an operation that
raised, reported its own failure, or missed or repeated part of its output;
``wrong`` marks a value that contradicts a closed-form target or a report
that breaks its schema. ``errors`` holds each checked deviation divided by
its tolerance, so 1.0 is exactly at the tolerance.
"""

from __future__ import annotations

import csv
import json
import math
import os
import traceback
from dataclasses import dataclass, field

import jsonschema
import numpy as np

SQRT2_OVER_4 = math.sqrt(2.0) / 4.0
A1_RADII = (SQRT2_OVER_4, 3.0 * SQRT2_OVER_4)
A1_COMPOSED_VALUES = (-A1_RADII[1], -A1_RADII[0], A1_RADII[0], A1_RADII[1])
RADIUS_TOL = 1e-6
VALUE_TOL = 1e-6
RATIO_TOL = 1e-3

# singular_trace: nodes on f = 0 and |z| = eps, rank defect of the criterion
# matrix, and the retrace test (index gap and share of the median step)
LINK_TOL = 1e-10
DEFECT_TOL = 1e-8
RETRACE_MIN_GAP = 20
RETRACE_MIN_STEPS = 0.5


@dataclass
class OpResult:
    """Outcome of one checked operation."""

    name: str
    failed: bool = False
    wrong: bool = False
    reasons: list = field(default_factory=list)
    errors: dict = field(default_factory=dict)

    def fail(self, reason, wrong=False):
        self.failed = True
        self.wrong = self.wrong or wrong
        self.reasons.append(reason)

    def within(self, key, deviation, tol, wrong=True):
        """Record ``deviation / tol`` under ``key``; fail when above 1."""
        self.errors[key] = max(self.errors.get(key, 0.0), deviation / tol)
        if not deviation <= tol:
            self.fail(f"{key}: deviation {deviation:.3e} > {tol:.1e}", wrong=wrong)


def raised(name, exc):
    """A failed operation for an exception, naming the frame that raised it."""
    op = OpResult(name)
    where = ""
    frames = traceback.extract_tb(exc.__traceback__)
    if frames:
        last = frames[-1]
        where = f" at {os.path.basename(last.filename)}:{last.lineno} in {last.name}"
    op.fail(f"raised {type(exc).__name__}{where}: {exc}")
    return op


def _hessian_ratio(op, key, eigenvalues):
    """The definite slice Hessian of A1 is negative with eigenvalue ratio 2."""
    eigs = np.asarray(eigenvalues, dtype=float)
    if eigs.size == 0 or not np.all(eigs < 0):
        op.fail(f"{key}: definite slice Hessian not negative: {eigs}", wrong=True)
        return
    ratio = float(np.max(np.abs(eigs)) / np.min(np.abs(eigs)))
    op.within(key, abs(ratio - 2.0), RATIO_TOL)


def check_a1_report(n, exit_code, report_path, schema):
    """One ``run_verify_a1`` run: exit code, schema, closed-form radii and values."""
    op = OpResult(f"a1_verify.n{n}")
    with open(report_path, encoding="utf-8") as handle:
        report = json.load(handle)
    try:
        jsonschema.validate(instance=report, schema=schema)
    except jsonschema.ValidationError as exc:
        op.fail(f"report.json breaks its schema: {exc.message}", wrong=True)
    # a non-zero exit is the program flagging its own failure; values it
    # produced anyway are then not held against it
    claimed = exit_code == 0
    if not claimed:
        op.fail(f"exit code {exit_code}, first failed check "
                f"{report.get('first_failed_check')}")
    block = report.get("n1_image") if n == 1 else report.get("round")
    radii = sorted((block or {}).get("radii", []))
    if len(radii) == 2:
        dev = max(abs(r - t) for r, t in zip(radii, A1_RADII))
        op.within("image_radii", dev, RADIUS_TOL, wrong=claimed)
    elif claimed:
        op.fail(f"expected 2 image radii, got {len(radii)}", wrong=True)
    if n == 1:
        return op
    morse = report.get("morse", {})
    values = sorted(r["value"] for r in morse.get("composed_records", []))
    if len(values) == 4:
        dev = max(abs(v - t) for v, t in zip(values, A1_COMPOSED_VALUES))
        op.within("composed_values", dev, VALUE_TOL, wrong=claimed)
    elif claimed:
        op.fail(f"expected 4 composed critical values, got {len(values)}", wrong=True)
    definite = [r for r in morse.get("slice_records", [])
                if r["morse_index"] == 2 * n - 2]
    if definite:
        _hessian_ratio(op, "slice_hessian_ratio", definite[0]["hessian_eigenvalues"])
    elif claimed:
        op.fail("no definite slice critical point", wrong=True)
    return op


def check_morse_angle(n, theta, slice_records, composed_records):
    """Slice and composed Morse data of the A1 link at one angle.

    Records are (morse_index, value, hessian_eigenvalues) triples. A missing
    or extra critical point counts as a failed operation; indices, values or
    a Hessian ratio that contradict the closed form count as wrong.
    """
    op = OpResult(f"morse_sweep.theta={theta:.6f}")
    slice_indices = sorted(r[0] for r in slice_records)
    if len(slice_indices) != 2:
        op.fail(f"expected 2 slice critical points, got {len(slice_indices)}")
    elif slice_indices != sorted([n - 1, 2 * n - 2]):
        op.fail(f"slice indices {slice_indices}", wrong=True)
    else:
        definite = [r for r in slice_records if r[0] == 2 * n - 2]
        _hessian_ratio(op, "slice_hessian_ratio", definite[0][2])
    composed = sorted(composed_records, key=lambda r: r[1])
    if len(composed) != 4:
        op.fail(f"expected 4 composed critical points, got {len(composed)}")
        return op
    indices = sorted(r[0] for r in composed)
    if indices != sorted([0, n - 1, n, 2 * n - 1]):
        op.fail(f"composed indices {indices}", wrong=True)
    dev = max(abs(r[1] - t) for r, t in zip(composed, A1_COMPOSED_VALUES))
    op.within("composed_values", dev, VALUE_TOL)
    return op


# ---------------------------------------------------------------------------
# singular_trace: f = z1^2 + z2^3 + z3^5, g = z1 + 0.5i*z2
# ---------------------------------------------------------------------------


def brieskorn_f(z):
    return z[:, 0] ** 2 + z[:, 1] ** 3 + z[:, 2] ** 5


def brieskorn_criterion_defect(z):
    """sigma3/sigma1 of [conj grad f, conj grad g, z] at each row of ``z``."""
    grad_f = np.stack([2.0 * z[:, 0], 3.0 * z[:, 1] ** 2, 5.0 * z[:, 2] ** 4], axis=1)
    grad_g = np.broadcast_to(np.array([1.0, 0.5j, 0.0]), z.shape)
    matrix = np.stack([np.conj(grad_f), np.conj(grad_g), z], axis=2)
    s = np.linalg.svd(matrix, compute_uv=False)
    return s[:, 2] / s[:, 0]


def read_singular_csv(path):
    """Nodes of each component, in file order, from singular_set.csv."""
    components = {}
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        m = (len(header) - 5) // 2
        for row in reader:
            parts = [float(x) for x in row[2 : 2 + 2 * m]]
            z = [complex(parts[2 * j], parts[2 * j + 1]) for j in range(m)]
            components.setdefault(int(row[0]), []).append(z)
    return [np.array(components[k]) for k in sorted(components)]


def nearest_far_node(z, min_gap=RETRACE_MIN_GAP, chunk=64):
    """Smallest distance from a node to any node more than ``min_gap`` away.

    Index gaps wrap around, so the seam of a closed curve counts as
    adjacent. Distances come from a Gram matrix, a chunk of rows at a time,
    which keeps memory small next to the program's own.
    """
    x = np.concatenate([z.real, z.imag], axis=1)
    sq = np.sum(x * x, axis=1)
    count = len(x)
    idx = np.arange(count)
    best = np.inf
    for lo in range(0, count, chunk):
        rows = slice(lo, min(lo + chunk, count))
        d2 = sq[rows, None] + sq[None, :] - 2.0 * (x[rows] @ x.T)
        gap = np.abs(idx[rows, None] - idx[None, :])
        gap = np.minimum(gap, count - gap)
        d2[gap <= min_gap] = np.inf
        best = min(best, float(d2.min()))
    return math.sqrt(max(best, 0.0))


def check_singular_component(k, z, epsilon):
    """Nodes on the link and on the singular set; the curve traced once."""
    op = OpResult(f"singular_trace.component{k}")
    op.within("f_residual", float(np.max(np.abs(brieskorn_f(z)))), LINK_TOL)
    op.within("sphere_residual",
              float(np.max(np.abs(np.linalg.norm(z, axis=1) - epsilon))), LINK_TOL)
    op.within("criterion_defect", float(np.max(brieskorn_criterion_defect(z))),
              DEFECT_TOL)
    if len(z) > 2 * RETRACE_MIN_GAP + 2:
        median_step = float(np.median(np.linalg.norm(np.diff(z, axis=0), axis=1)))
        nearest = nearest_far_node(z) / median_step
        if nearest < RETRACE_MIN_STEPS:
            op.fail(f"retraces itself: {len(z)} nodes, nearest node more than "
                    f"{RETRACE_MIN_GAP} indices away is {nearest:.4f} median steps away")
    return op


def check_singular_set(csv_path, epsilon, expected_components=2):
    """All components in singular_set.csv; a missing or extra one fails."""
    comps = read_singular_csv(csv_path)
    ops = [check_singular_component(k, z, epsilon) for k, z in enumerate(comps)]
    for k in range(len(comps), expected_components):
        missing = OpResult(f"singular_trace.component{k}")
        missing.fail("expected component missing")
        ops.append(missing)
    for op in ops[expected_components:]:
        op.fail(f"{len(comps)} components, expected {expected_components}")
    return ops
