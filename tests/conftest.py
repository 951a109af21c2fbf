import functools

import numpy as np
import pytest

import linkfold as lf

SQRT2 = np.sqrt(2.0)
BRIESKORN_F = "z1^2 + z2^3 + z3^5"


def build_a1(n):
    """LinkSpec and g for the A1 example in n + 1 variables."""
    f = lf.parse_poly(" + ".join(f"z{j}^2" for j in range(1, n + 2)), n + 1)
    g = lf.parse_poly("z1 + 0.5i*z2", n + 1)
    return lf.LinkSpec(f=f, n=n), g


@functools.cache
def pipeline_traces(n, seed, f_text=None):
    """The pipeline's components at the default g, computed once per test run."""
    config = lf.RunConfig(f_text=f_text, n=n, rng_seed=seed)
    return lf.report.compute_components(config, *config.build())[3]


def definite_point(n):
    """The singular point with image 3*sqrt(2)/4 on the positive real axis."""
    z = np.zeros(n + 1, dtype=complex)
    z[0] = SQRT2 / 2
    z[1] = -1j * SQRT2 / 2
    return z


def indefinite_point(n):
    """The singular point with image sqrt(2)/4 on the positive real axis."""
    z = np.zeros(n + 1, dtype=complex)
    z[0] = SQRT2 / 2
    z[1] = 1j * SQRT2 / 2
    return z


@pytest.fixture(scope="session")
def a1_n2():
    return build_a1(2)


@pytest.fixture(scope="session")
def a1_n3():
    return build_a1(3)


@pytest.fixture(scope="session")
def traces_n2(a1_n2):
    spec, g = a1_n2
    seeds = lf.seed_singular_points(spec, g, rng_seed=42)
    return lf.collect_components(seeds, spec, g)


@pytest.fixture(scope="session")
def traces_n2_seed3(a1_n2):
    spec, g = a1_n2
    seeds = lf.seed_singular_points(spec, g, rng_seed=3)
    return lf.collect_components(seeds, spec, g)


@pytest.fixture(scope="session")
def traces_n3(a1_n3):
    spec, g = a1_n3
    seeds = lf.seed_singular_points(spec, g, rng_seed=42)
    return lf.collect_components(seeds, spec, g)


@pytest.fixture(scope="session")
def perturbed_n2():
    """A nearby example with a z3 term in g; folds persist but move."""
    f = lf.parse_poly("z1^2 + z2^2 + z3^2", 3)
    g = lf.parse_poly("z1 + 0.5i*z2 + 0.1*z3", 3)
    return lf.LinkSpec(f=f, n=2), g


@pytest.fixture(scope="session")
def perturbed_traces(perturbed_n2):
    spec, g = perturbed_n2
    seeds = lf.seed_singular_points(spec, g, rng_seed=7)
    return lf.collect_components(seeds, spec, g)
