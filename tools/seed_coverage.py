"""Seeding coverage sweep: how often seeding misses a singular component.

For each family it seeds and traces the singular set at a list of seeds and
counts the runs that find fewer components than the family has, or raise.
It prints one line per family (runs, misses and the seeds that missed), the
time spent in seeding, median and total, and the median time of the
collect_components call that traces the seeds, with one BLAS thread.

Where f and g are both homogeneous (A1, the cubic and the quartic),
collect_components returns one trace per S^1-orbit of the seeds and never
probes a seed. On every such run this script probes every seed against
every returned trace with singular_set.point_on_trace, the duplicate rule
of every other pair, and counts a disagreement where a seed lies on no
trace or on two or more; it prints each one.

    python tools/seed_coverage.py

The families, all with epsilon = 1:
  - A1 at n = 2, 3 and 4 with g = z1 + 0.5i*z2, seeds 0..59: 2 components;
  - A2, z1^2 + z2^2 + z3^3 with the same g, seeds 0..19, 1103 and 1113: 3;
  - Brieskorn, z1^2 + z2^3 + z3^5 with the same g, seeds 42, 4, 5 and 9: 2;
  - the Fermat cubic z1^3 + z2^3 + z3^3 with the same g, seeds 0..19 and 42:
    9, some of them orbits of z -> alpha z with one |h|;
  - the Fermat quartic z1^4 + z2^4 + z3^4 with
    g = (0.3+0.7i)*z1 + 0.45*z2 + (-0.2+0.1i)*z3, seeds 0..19 and 42: 12.

The exit status is 1 when A1, A2, Brieskorn or the cubic miss at any seed,
the quartic misses at more than 5 of its 21 seeds (it misses at seeds 4,
9, 12, 18 and 19), or any run disagrees with the probes, whatever its
family's miss allowance, else 0. The tier-1 test
test_quartic_seeding_finds_all_twelve_components holds the quartic at seeds
42, 1, 3 and 7.
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
# (label, f, g, n, seeds, components, the most runs that may miss)
FAMILIES = [
    *((f"A1 n={n}", None, "z1 + 0.5i*z2", n, range(60), 2, 0) for n in (2, 3, 4)),
    ("A2", "z1^2 + z2^2 + z3^3", "z1 + 0.5i*z2", 2, [*range(20), 1103, 1113], 3, 0),
    ("Brieskorn", "z1^2 + z2^3 + z3^5", "z1 + 0.5i*z2", 2, [42, 4, 5, 9], 2, 0),
    ("cubic", "z1^3 + z2^3 + z3^3", "z1 + 0.5i*z2", 2, [*range(20), 42], 9, 0),
    ("quartic", "z1^4 + z2^4 + z3^4", QUARTIC_G, 2, [*range(20), 42], 12, 5),
]


def probe_disagreements(spec, g, points, traces):
    """How many seeds point_on_trace puts on no trace, and on two or more, or "" if none."""
    system = lf.AugmentedSystem(spec, g)
    counts = sum(point_on_trace(system, trace, points).astype(int) for trace in traces)
    none, many = np.count_nonzero(counts == 0), np.count_nonzero(counts > 1)
    return f"{none} seeds on no trace, {many} on two or more" if none or many else ""


def run_family(f_text, g_text, n, seeds, components):
    """(seeds that missed, seeds whose probes disagree; seeding and tracing seconds per run)."""
    misses, disagree, seconds, tracing = [], [], [], []
    for seed in seeds:
        spec, g = lf.RunConfig(f_text=f_text, g_text=g_text, n=n).build()
        try:
            t0 = time.perf_counter()
            points = lf.seed_singular_points(spec, g, rng_seed=seed)
            t1 = time.perf_counter()
            seconds.append(t1 - t0)
            traces = lf.collect_components(points, spec, g)
            tracing.append(time.perf_counter() - t1)
        except lf.LinkFoldError as exc:
            misses.append((seed, f"{type(exc).__name__}: {exc}"))
            continue
        if len(traces) != components:
            misses.append((seed, f"{len(traces)} of {components}"))
        if lf.homogeneous_degree(spec.f) is not None and lf.homogeneous_degree(g) is not None:
            what = probe_disagreements(spec, g, points, traces)
            if what:
                disagree.append((seed, what))
    return misses, disagree, seconds, tracing


def main():
    failed = False
    for label, f_text, g_text, n, seeds, components, allowed in FAMILIES:
        seeds = list(seeds)
        misses, disagree, seconds, tracing = run_family(f_text, g_text, n, seeds, components)
        print(f"{label}: {len(misses)} of {len(seeds)} runs miss; seeding median "
              f"{1e3 * np.median(seconds):.1f} ms, total {sum(seconds):.2f} s; "
              f"collect_components median {1e3 * np.median(tracing):.1f} ms")
        for seed, what in misses:
            print(f"  seed {seed}: {what}")
        for seed, what in disagree:
            print(f"  seed {seed} disagrees with the probes: {what}")
        failed |= len(misses) > allowed or bool(disagree)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
