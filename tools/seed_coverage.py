"""Seeding coverage sweep: how often seeding misses a singular component.

For each family it seeds and traces the singular set in a list of runs, each
a g and a seed, and counts the runs that find fewer components than the
family has, or raise. It prints one line per family (runs, misses and the
runs that missed), the time spent in seeding, median and total, and the
median time of the collect_components call that traces the seeds, with one
BLAS thread.

Where f and g are both homogeneous (A1, the cubic and the quartic),
collect_components returns one trace per S^1-orbit of the seeds and never
probes a seed. On every such run this script probes every seed against
every returned trace with singular_set.point_on_trace, the duplicate rule
of every other pair, and counts a disagreement where a seed lies on no
trace or on two or more; it prints each one. On every A1 run it also
counts a component longer than 2 pi epsilon by more than 2 pi 1e-8 epsilon:
each A1 component is one great circle of the link, so a longer trace went
round it more than once. The random linear g below count such laps where
the paper's g has none: before the tracer joined fronts that land side by
side, 7 of their 60 runs lapped.

    python tools/seed_coverage.py

The families, all with epsilon = 1:
  - A1 at n = 2, 3 and 4 with g = z1 + 0.5i*z2, seeds 0..59: 2 components;
  - A1 at n = 2, 3 and 4 with g = z1 + 0.8i*z2, seeds 0..19: 2;
  - A1 at n = 2, then n = 3, with 30 random linear g each and seed 42: 2.
    Each g = u . z has u complex normal, drawn from
    np.random.default_rng(2026), and each coefficient written to 4 decimals;
  - A2, z1^2 + z2^2 + z3^3 with the same g, seeds 0..19, 1103 and 1113: 3;
  - Brieskorn, z1^2 + z2^3 + z3^5 with the same g, seeds 42, 4, 5 and 9: 2;
  - the Fermat cubic z1^3 + z2^3 + z3^3 with the same g, seeds 0..19 and 42:
    9, some of them orbits of z -> alpha z with one |h|;
  - the Fermat quartic z1^4 + z2^4 + z3^4 with
    g = (0.3+0.7i)*z1 + 0.45*z2 + (-0.2+0.1i)*z3, seeds 0..19 and 42: 12.

The exit status is 1 when A1, A2, Brieskorn or the cubic miss in any run,
the quartic misses at more than 5 of its 21 seeds (it misses at seeds 4,
9, 12, 18 and 19), or any run disagrees with the probes or has an A1
component too long, whatever its family's miss allowance, else 0. The
tier-1 test test_quartic_seeding_finds_all_twelve_components holds the
quartic at seeds 42, 1, 3 and 7.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
import linkfold as lf  # noqa: E402
from linkfold.singular_set import point_on_trace  # noqa: E402

QUARTIC_G = "(0.3+0.7i)*z1 + 0.45*z2 + (-0.2+0.1i)*z3"
PAPER_G = "z1 + 0.5i*z2"


def random_linear_g(n_values, count):
    """For each n in turn, ``count`` texts of g = u . z, u complex normal, to 4 decimals."""
    rng = np.random.default_rng(2026)
    texts = {n: [] for n in n_values}
    for n in n_values:
        for _ in range(count):
            u = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
            texts[n].append(" + ".join(f"({c.real:.4f}{c.imag:+.4f}i)*z{j + 1}"
                                       for j, c in enumerate(u)))
    return texts


RANDOM_G = random_linear_g((2, 3), 30)
# (label, f, n, runs as (g, seed) pairs, components, the most runs that may miss)
FAMILIES = [
    *((f"A1 n={n}", None, n, [(PAPER_G, s) for s in range(60)], 2, 0) for n in (2, 3, 4)),
    *((f"A1 n={n}, 0.8i", None, n, [("z1 + 0.8i*z2", s) for s in range(20)], 2, 0)
      for n in (2, 3, 4)),
    *((f"A1 n={n}, random u", None, n, [(g, 42) for g in RANDOM_G[n]], 2, 0) for n in (2, 3)),
    ("A2", "z1^2 + z2^2 + z3^3", 2, [(PAPER_G, s) for s in [*range(20), 1103, 1113]], 3, 0),
    ("Brieskorn", "z1^2 + z2^3 + z3^5", 2, [(PAPER_G, s) for s in [42, 4, 5, 9]], 2, 0),
    ("cubic", "z1^3 + z2^3 + z3^3", 2, [(PAPER_G, s) for s in [*range(20), 42]], 9, 0),
    ("quartic", "z1^4 + z2^4 + z3^4", 2, [(QUARTIC_G, s) for s in [*range(20), 42]], 12, 5),
]


def probe_disagreements(spec, g, points, traces):
    """How many seeds point_on_trace puts on no trace, and on two or more, or "" if none."""
    system = lf.AugmentedSystem(spec, g)
    counts = sum(point_on_trace(system, trace, points).astype(int) for trace in traces)
    none, many = np.count_nonzero(counts == 0), np.count_nonzero(counts > 1)
    return f"{none} seeds on no trace, {many} on two or more" if none or many else ""


def run_family(f_text, n, runs, components):
    """(missed runs, runs whose probes or A1 lengths disagree; seeding, tracing seconds).

    Each run is named by its seed, and by its g too in a family of many g.
    """
    misses, disagree, seconds, tracing = [], [], [], []
    many_g = len({g_text for g_text, _ in runs}) > 1
    for g_text, seed in runs:
        name = f"seed {seed}, g = {g_text}" if many_g else f"seed {seed}"
        spec, g = lf.RunConfig(f_text=f_text, g_text=g_text, n=n).build()
        try:
            t0 = time.perf_counter()
            points = lf.seed_singular_points(spec, g, rng_seed=seed)
            t1 = time.perf_counter()
            seconds.append(t1 - t0)
            traces = lf.collect_components(points, spec, g)
            tracing.append(time.perf_counter() - t1)
        except lf.LinkFoldError as exc:
            misses.append((name, f"{type(exc).__name__}: {exc}"))
            continue
        if len(traces) != components:
            misses.append((name, f"{len(traces)} of {components}"))
        if lf.homogeneous_degree(spec.f) is not None and lf.homogeneous_degree(g) is not None:
            what = probe_disagreements(spec, g, points, traces)
            if what:
                disagree.append((name, what))
        if f_text is None:
            lengths = [t.arc_length for t in traces]
            if max(lengths) > 2.0 * np.pi * (1.0 + 1e-8):
                disagree.append((name, f"A1 component lengths {lengths}, above 2 pi"))
    return misses, disagree, seconds, tracing


def main():
    failed = False
    for label, f_text, n, runs, components, allowed in FAMILIES:
        misses, disagree, seconds, tracing = run_family(f_text, n, runs, components)
        print(f"{label}: {len(misses)} of {len(runs)} runs miss; seeding median "
              f"{1e3 * np.median(seconds):.1f} ms, total {sum(seconds):.2f} s; "
              f"collect_components median {1e3 * np.median(tracing):.1f} ms")
        for name, what in misses:
            print(f"  {name}: {what}")
        for name, what in disagree:
            print(f"  {name} disagrees: {what}")
        failed |= len(misses) > allowed or bool(disagree)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
