import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linkfold as lf
from linkfold import ComplexPoly, PolyParseError

SQRT2 = np.sqrt(2.0)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_sum_of_squares():
    p = lf.parse_poly("z1^2 + z2^2 + z3^2", 3)
    assert p.terms == {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0}


def test_parse_zero():
    p = lf.parse_poly("0", 2)
    assert p.terms == {}


def _convolve(terms_a, terms_b):
    # independent naive convolution over exponent dicts
    out = {}
    for ea, ca in terms_a.items():
        for eb, cb in terms_b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return out


def test_parse_square_of_sum_against_convolution_oracle():
    base = {(1, 0): 1.0 + 0j, (0, 1): 1.0 + 0j}  # z1 + z2
    expected = _convolve(base, base)
    p = lf.parse_poly("(z1+z2)^2", 2)
    assert p.terms == expected
    assert expected == {(2, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0}


def test_parse_complex_literals():
    p = lf.parse_poly("z1 + 0.5i*z2", 2)
    assert p.terms == {(1, 0): 1.0, (0, 1): 0.5j}
    p = lf.parse_poly("(1-2i)*z1^2 - i", 1)
    assert p.terms == {(2,): 1.0 - 2.0j, (0,): -1.0j}


def test_parse_unary_minus_and_precedence():
    # ^ binds tighter than *: 2*z1^2 is 2*(z1^2)
    p = lf.parse_poly("-2*z1^2", 1)
    assert p.terms == {(2,): -2.0}
    p = lf.parse_poly("-z1 + -z1", 1)
    assert p.terms == {(1,): -2.0}


def test_parse_syntax_error_reports_position():
    with pytest.raises(PolyParseError) as info:
        lf.parse_poly("z1 + @", 2)
    assert info.value.position == 5


def test_parse_variable_out_of_range():
    with pytest.raises(PolyParseError):
        lf.parse_poly("z5", 3)


def test_parse_rejects_float_exponent():
    with pytest.raises(PolyParseError):
        lf.parse_poly("z1^1.5", 1)


def test_parse_print_parse_idempotent():
    p = lf.parse_poly("(z1 + 2i*z2)^3 - 0.25*z1*z2", 2)
    text = lf.poly_to_string(p)
    again = lf.parse_poly(text, 2)
    assert again == p
    assert lf.poly_to_string(again) == text


@st.composite
def polynomials(draw):
    n_vars = draw(st.integers(min_value=1, max_value=4))
    n_terms = draw(st.integers(min_value=0, max_value=6))
    exps = draw(
        st.lists(
            st.tuples(*[st.integers(min_value=0, max_value=4)] * n_vars),
            min_size=n_terms,
            max_size=n_terms,
            unique=True,
        )
    )
    finite = st.floats(
        min_value=-10, max_value=10, allow_nan=False, allow_infinity=False
    )
    coeffs = draw(
        st.lists(
            st.tuples(finite, finite).filter(lambda c: c != (0.0, 0.0)),
            min_size=len(exps),
            max_size=len(exps),
        )
    )
    terms = {e: complex(re, im) for e, (re, im) in zip(exps, coeffs)}
    return ComplexPoly(n_vars, terms)


@given(polynomials())
@settings(max_examples=150, deadline=None)
def test_print_parse_round_trip(p):
    assert lf.parse_poly(lf.poly_to_string(p), p.n_vars) == p


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_eval_a1_at_link_point():
    f = lf.parse_poly("z1^2 + z2^2 + z3^2 + z4^2", 4)
    q = np.array([SQRT2 / 2, -1j * SQRT2 / 2, 0, 0])
    assert abs(lf.eval_poly(f, q)) < 1e-15


def test_eval_at_origin_gives_constant_term():
    p = lf.parse_poly("3 + z1*z2 - 2i*z2^2", 2)
    assert lf.eval_poly(p, np.zeros(2)) == 3.0


def test_eval_direct_substitution_oracle():
    # oracle: 1^2 + 0^2 + i^2 = 1 - 1 = 0 by hand
    f = lf.parse_poly("z1^2 + z2^2 + z3^2", 3)
    by_hand = 1.0**2 + 0.0**2 + (1j) ** 2
    assert by_hand == 0
    assert lf.eval_poly(f, np.array([1.0, 0.0, 1j])) == by_hand


def test_eval_dimension_mismatch():
    p = lf.parse_poly("z1", 1)
    with pytest.raises(ValueError):
        lf.eval_poly(p, np.zeros(2))


def test_eval_linearity_on_random_inputs():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n_vars = int(rng.integers(1, 4))
        def rand_poly():
            terms = {}
            for _ in range(rng.integers(1, 6)):
                e = tuple(int(x) for x in rng.integers(0, 4, n_vars))
                terms[e] = complex(*rng.uniform(-10, 10, 2))
            return ComplexPoly(n_vars, terms)
        p, q = rand_poly(), rand_poly()
        z = rng.standard_normal(n_vars) + 1j * rng.standard_normal(n_vars)
        lhs = lf.eval_poly(p + q, z)
        rhs = lf.eval_poly(p, z) + lf.eval_poly(q, z)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


# ---------------------------------------------------------------------------
# Wirtinger calculus
# ---------------------------------------------------------------------------


def test_wirtinger_partial_of_squares():
    f = lf.parse_poly("z1^2 + z2^2 + z3^2", 3)
    for j in range(1, 4):
        expected = 2.0 * ComplexPoly.variable(j, 3)
        assert lf.wirtinger_partial(f, j) == expected


def test_wirtinger_partial_of_constant_is_zero():
    p = lf.parse_poly("5 - 2i", 2)
    assert lf.wirtinger_partial(p, 1).is_zero()


def test_wirtinger_power_rule_oracle():
    # term-by-term power rule: d(z1^2 z2)/dz1 = 2 z1 z2
    p = ComplexPoly(2, {(2, 1): 1.0})
    expected = ComplexPoly(2, {(1, 1): 2.0})
    assert lf.wirtinger_partial(p, 1) == expected


def test_wirtinger_index_out_of_range():
    p = lf.parse_poly("z1", 2)
    with pytest.raises(ValueError):
        lf.wirtinger_partial(p, 3)


def test_conj_gradient_at_a1_point():
    f = lf.parse_poly("z1^2 + z2^2 + z3^2 + z4^2", 4)
    q = np.array([SQRT2 / 2, -1j * SQRT2 / 2, 0, 0])
    grad = lf.conj_gradient(f, q)
    expected = np.array([SQRT2, 1j * SQRT2, 0, 0])
    assert np.allclose(grad, expected, atol=1e-15)


def test_conj_gradient_of_linear_form_is_constant():
    g = lf.parse_poly("z1 + 0.5i*z2", 4)
    expected = np.array([1.0, -0.5j, 0, 0])
    rng = np.random.default_rng(5)
    for _ in range(5):
        z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert np.array_equal(lf.conj_gradient(g, z), expected)


def test_conj_gradient_of_zero_polynomial():
    p = ComplexPoly.zero(3)
    assert np.array_equal(lf.conj_gradient(p, np.ones(3)), np.zeros(3))


# ---------------------------------------------------------------------------
# homogeneity
# ---------------------------------------------------------------------------


def test_homogeneous_degree():
    assert lf.homogeneous_degree(lf.parse_poly("z1^2 + z2^2", 2)) == 2
    assert lf.homogeneous_degree(lf.parse_poly("z1 + 0.5i*z2", 2)) == 1
    assert lf.homogeneous_degree(lf.parse_poly("z1 + z2^2", 2)) is None
    assert lf.homogeneous_degree(ComplexPoly.zero(2)) is None


def test_weighted_homogeneous():
    # Brieskorn: weights (1/2, 1/3, 1/5)
    assert lf.weighted_homogeneous(lf.parse_poly("z1^2 + z2^3 + z3^5", 3))
    # homogeneous, with z3 unused
    assert lf.weighted_homogeneous(lf.parse_poly("z1^2 + z2^2", 3))
    # z1^2 and z1^3 cannot both have weighted degree 1
    assert not lf.weighted_homogeneous(lf.parse_poly("z1^2 + z2^2 + z1^3", 3))
    assert not lf.weighted_homogeneous(ComplexPoly.zero(2))
    assert not lf.weighted_homogeneous(ComplexPoly.constant(1.0, 2))


def test_euler_identity_on_homogeneous_polynomials():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n_vars = int(rng.integers(2, 5))
        degree = int(rng.integers(1, 5))
        terms = {}
        for _ in range(4):
            e = rng.multinomial(degree, np.ones(n_vars) / n_vars)
            terms[tuple(int(x) for x in e)] = complex(*rng.uniform(-5, 5, 2))
        p = ComplexPoly(n_vars, terms)
        assert lf.homogeneous_degree(p) == degree
        for _ in range(10):
            z = rng.standard_normal(n_vars) + 1j * rng.standard_normal(n_vars)
            euler = sum(
                z[j - 1] * lf.eval_poly(lf.wirtinger_partial(p, j), z)
                for j in range(1, n_vars + 1)
            )
            target = degree * lf.eval_poly(p, z)
            assert abs(euler - target) <= 1e-10 * max(1.0, abs(target))
