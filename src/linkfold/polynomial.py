"""Multivariate complex polynomials with Wirtinger calculus.

Polynomials live on C^n_vars in the variables ``z1 .. z{n_vars}``. Terms are
stored sparsely as a map from exponent tuples to complex coefficients; exact
zeros are never stored. Printing and evaluation always walk the terms in
graded lexicographic order (total degree first, then exponent tuple,
descending), so both are deterministic.

The text grammar accepted by :func:`parse_poly`:

    expr   := term (('+' | '-') term)*
    term   := unary ('*' unary)*
    unary  := ('+' | '-') unary | power
    power  := atom ('^' nonneg_int)*
    atom   := number | number 'i' | 'i' | 'z' index | '(' expr ')'

``^`` binds tighter than ``*``; unary minus is permitted; numbers may use
decimal or scientific notation. There is no implicit multiplication:
``0.5i*z2`` is valid, ``0.5i z2`` is not.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .errors import PolyParseError

__all__ = [
    "ComplexPoly",
    "parse_poly",
    "poly_to_string",
    "eval_poly",
    "wirtinger_partial",
    "gradient",
    "conj_gradient",
    "hessian",
    "homogeneous_degree",
    "weighted_homogeneous",
]


def _clean_coeff(c):
    """Normalise a coefficient: drop signed zeros, reject non-finite parts."""
    c = complex(c)
    if not (math.isfinite(c.real) and math.isfinite(c.imag)):
        raise ValueError(f"non-finite coefficient {c!r}")
    re_ = c.real if c.real != 0.0 else 0.0
    im_ = c.imag if c.imag != 0.0 else 0.0
    return complex(re_, im_)


class ComplexPoly:
    """A polynomial in ``n_vars`` complex variables.

    ``terms`` maps exponent tuples (length ``n_vars``, entries >= 0) to
    nonzero complex coefficients. Instances are treated as immutable; all
    arithmetic returns new objects.
    """

    __slots__ = ("n_vars", "terms", "_partials_cache", "_table")

    def __init__(self, n_vars, terms=None):
        if n_vars < 1:
            raise ValueError("n_vars must be >= 1")
        self.n_vars = int(n_vars)
        clean = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != self.n_vars:
                raise ValueError(f"exponent tuple {exps} has wrong length")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            coeff = _clean_coeff(coeff)
            if coeff != 0:
                clean[exps] = clean.get(exps, 0) + coeff
                if clean[exps] == 0:
                    del clean[exps]
        self.terms = clean
        self._partials_cache = None
        self._table = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n_vars):
        return cls(n_vars, {})

    @classmethod
    def constant(cls, value, n_vars):
        return cls(n_vars, {(0,) * n_vars: value})

    @classmethod
    def variable(cls, index, n_vars):
        """The monomial ``z{index}`` (1-based index)."""
        if not 1 <= index <= n_vars:
            raise ValueError(f"variable index {index} out of range 1..{n_vars}")
        exps = [0] * n_vars
        exps[index - 1] = 1
        return cls(n_vars, {tuple(exps): 1.0})

    # -- bookkeeping -------------------------------------------------------

    def sorted_terms(self):
        """Terms in graded lexicographic order, highest degree first."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def _term_table(self):
        """Terms as (coefficient, ((variable, exponent), ...)) in graded order.

        Only nonzero exponents are listed, variables ascending. Built on the
        first evaluation and cached on the instance.
        """
        if self._table is None:
            self._table = tuple(
                (coeff, tuple((j, e) for j, e in enumerate(exps) if e))
                for exps, coeff in self.sorted_terms()
            )
        return self._table

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, ComplexPoly):
            return NotImplemented
        return self.n_vars == other.n_vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.n_vars, frozenset(self.terms.items())))

    def __repr__(self):
        return f"ComplexPoly({self.n_vars}, {poly_to_string(self)!r})"

    def __str__(self):
        return poly_to_string(self)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, ComplexPoly):
            if other.n_vars != self.n_vars:
                raise ValueError("polynomials have different numbers of variables")
            return other
        if isinstance(other, (int, float, complex)):
            return ComplexPoly.constant(other, self.n_vars)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            out[exps] = out.get(exps, 0) + coeff
        return ComplexPoly(self.n_vars, out)

    __radd__ = __add__

    def __neg__(self):
        return ComplexPoly(self.n_vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return ComplexPoly(self.n_vars, out)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a non-negative integer")
        result = ComplexPoly.constant(1.0, self.n_vars)
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- evaluation and calculus -------------------------------------------

    def __call__(self, z):
        return eval_poly(self, z)

    def partials(self):
        """All first Wirtinger partials, cached on the instance."""
        if self._partials_cache is None:
            self._partials_cache = tuple(
                wirtinger_partial(self, j) for j in range(1, self.n_vars + 1)
            )
        return self._partials_cache


def _points(p, z):
    """``z`` as a complex array of shape (n_vars,) or (N, n_vars)."""
    z = np.asarray(z, dtype=complex)
    if z.ndim not in (1, 2) or z.shape[-1] != p.n_vars:
        raise ValueError(
            f"point has shape {z.shape}, expected ({p.n_vars},) or (N, {p.n_vars})"
        )
    return z


def _power(x, e):
    """``x ** e`` for a Python complex x and an integer e >= 1.

    Rounded as numpy's scalar complex power: +0 for a zero base, products
    for e <= 3, binary exponentiation from 1 above. Python's own
    ``complex ** int`` rounds differently and raises OverflowError where
    this returns inf or nan.
    """
    if x == 0:
        return 0j
    if e == 1:
        return x
    if e == 2:
        return x * x
    if e == 3:
        return x * (x * x)
    result = 1 + 0j
    while True:
        if e & 1:
            result *= x
        e >>= 1
        if not e:
            return result
        x *= x


def _eval_point(p, zs):
    """``p`` at one point, given as a list of Python complex numbers."""
    total = 0j
    for coeff, factors in p._term_table():
        term = coeff
        for j, e in factors:
            term *= _power(zs[j], e)
        total += term
    return total


def _cmul(ar, ai, br, bi):
    """(ar + i ai)(br + i bi) as (re, im), rounded as a scalar complex product."""
    return ar * br - ai * bi, ar * bi + ai * br


def _power_rows(xr, xi, e):
    """:func:`_power` over arrays of real parts ``xr`` and imaginary parts ``xi``."""
    if e == 1:
        pr, pi = xr, xi
    elif e == 2:
        pr, pi = _cmul(xr, xi, xr, xi)
    elif e == 3:
        pr, pi = _cmul(xr, xi, *_cmul(xr, xi, xr, xi))
    else:
        pr, pi = 1.0, 0.0
        br, bi = xr, xi
        while True:
            if e & 1:
                pr, pi = _cmul(pr, pi, br, bi)
            e >>= 1
            if not e:
                break
            br, bi = _cmul(br, bi, br, bi)
    zero = (xr == 0.0) & (xi == 0.0)
    return np.where(zero, 0.0, pr), np.where(zero, 0.0, pi)


def _eval_rows(p, zr, zi):
    """``p`` at N points; row j of ``zr`` / ``zi`` holds Re / Im of z_j, shape (N,)."""
    total_r = np.zeros(zr.shape[1])
    total_i = np.zeros(zr.shape[1])
    powers = {}
    for coeff, factors in p._term_table():
        tr, ti = coeff.real, coeff.imag
        for j, e in factors:
            if (j, e) not in powers:
                powers[j, e] = _power_rows(zr[j], zi[j], e)
            tr, ti = _cmul(tr, ti, *powers[j, e])
        total_r += tr
        total_i += ti
    out = np.empty(zr.shape[1], dtype=complex)
    out.real = total_r
    out.imag = total_i
    return out


def _eval_many(polys, z):
    """Each of ``polys`` at each row of the (N, m) array ``z``, as columns."""
    zr = np.ascontiguousarray(z.real.T)
    zi = np.ascontiguousarray(z.imag.T)
    with np.errstate(all="ignore"):
        return np.stack([_eval_rows(q, zr, zi) for q in polys], axis=-1)


def eval_poly(p, z):
    """Evaluate ``p`` at one point z of shape (n_vars,), or at each row of (N, n_vars).

    Returns a complex scalar, or an (N,) array whose row k equals the
    scalar call at z[k] bit for bit. Terms are summed in graded order from
    a table cached on ``p``, so the result is reproducible. Both paths round
    like numpy's scalar complex arithmetic. The batched path writes each
    complex product as real float operations because numpy's complex array
    multiply may fuse multiply-adds and round differently. Non-finite
    inputs or overflow give inf or nan, never an exception or a warning.
    """
    z = _points(p, z)
    if z.ndim == 1:
        return np.complex128(_eval_point(p, z.tolist()))
    return _eval_many((p,), z)[:, 0]


def wirtinger_partial(p, j):
    """Formal partial derivative of ``p`` with respect to ``z{j}`` (1-based)."""
    if not 1 <= j <= p.n_vars:
        raise ValueError(f"variable index {j} out of range 1..{p.n_vars}")
    k = j - 1
    out = {}
    for exps, coeff in p.terms.items():
        e = exps[k]
        if e == 0:
            continue
        new = list(exps)
        new[k] = e - 1
        out[tuple(new)] = coeff * e
    return ComplexPoly(p.n_vars, out)


def gradient(p, z):
    """Wirtinger gradient: entry j is (d p / d z_j)(z).

    Shape (n_vars,) for one point, (N, n_vars) for a stack of N points,
    with the rows of the batched call equal to the scalar calls.
    """
    z = _points(p, z)
    if z.ndim == 1:
        zs = z.tolist()
        return np.array([_eval_point(dp, zs) for dp in p.partials()], dtype=complex)
    return _eval_many(p.partials(), z)


def conj_gradient(p, z):
    """Conjugated Wirtinger gradient: entry j is conj( (d p / d z_j)(z) )."""
    return np.conj(gradient(p, z))


def hessian(p, z):
    """Matrix of second Wirtinger partials: entry (j, k) is (d^2 p / d z_j d z_k)(z).

    Shape (n_vars, n_vars), or (N, n_vars, n_vars) for a stack of points.
    """
    return np.stack([gradient(dp, z) for dp in p.partials()], axis=-2)


def homogeneous_degree(p):
    """Common total degree of all terms, or None if degrees are mixed.

    The zero polynomial has no terms and reports None.
    """
    degrees = {sum(e) for e in p.terms}
    if len(degrees) == 1:
        return degrees.pop()
    return None


def weighted_homogeneous(p):
    """Whether positive weights w give every term of p weighted degree 1.

    That is, sum_j w_j e_j = 1 over p's exponent tuples e; such an f has the
    same link at every epsilon (Milnor, Singular Points of Complex
    Hypersurfaces, 1968). A homogeneous p of positive degree d has w_j = 1/d.
    Otherwise the least-squares w over the variables p uses is tested, which
    can miss positive weights that are not unique.
    """
    if homogeneous_degree(p):
        return True
    exps = np.array(list(p.terms), dtype=float).reshape(-1, p.n_vars)
    exps = exps[:, exps.any(axis=0)]
    weights = np.linalg.lstsq(exps, np.ones(len(exps)), rcond=None)[0]
    fits = bool(np.allclose(exps @ weights, 1.0))
    return len(exps) > 0 and fits and bool(np.all(weights > 0))


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------


def _format_real(x):
    # repr() round-trips float64 exactly, which keeps parse(print(p)) == p
    return repr(float(x))


def _format_term(coeff, exps):
    """Return (sign, body) for one term; sign is '+' or '-'."""
    vars_part = "*".join(
        f"z{k + 1}" + (f"^{e}" if e > 1 else "")
        for k, e in enumerate(exps)
        if e > 0
    )
    re_, im_ = coeff.real, coeff.imag
    if im_ == 0.0:
        sign = "-" if re_ < 0 else "+"
        mag = abs(re_)
        if mag == 1.0 and vars_part:
            return sign, vars_part
        coeff_part = _format_real(mag)
    elif re_ == 0.0:
        sign = "-" if im_ < 0 else "+"
        coeff_part = _format_real(abs(im_)) + "i"
    else:
        sign = "+"
        im_sign = "+" if im_ >= 0 else "-"
        coeff_part = f"({_format_real(re_)}{im_sign}{_format_real(abs(im_))}i)"
    if vars_part:
        return sign, f"{coeff_part}*{vars_part}"
    return sign, coeff_part


def poly_to_string(p):
    """Canonical text form; ``parse_poly(poly_to_string(p), p.n_vars) == p``."""
    if not p.terms:
        return "0"
    pieces = []
    for i, (exps, coeff) in enumerate(p.sorted_terms()):
        sign, body = _format_term(coeff, exps)
        if i == 0:
            pieces.append(body if sign == "+" else f"-{body}")
        else:
            pieces.append(f" {sign} {body}")
    return "".join(pieces)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?i?)
      | (?P<imag>i)
      | (?P<var>z\d+)
      | (?P<op>[-+*^()])
    )""",
    re.VERBOSE,
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            at = len(text) - len(stripped)
            raise PolyParseError(f"unexpected character {text[at]!r}", at)
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text, n_vars):
        self.text = text
        self.n_vars = n_vars
        self.tokens = _tokenize(text)
        self.k = 0

    def peek(self):
        return self.tokens[self.k]

    def advance(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect_op(self, op):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise PolyParseError(f"expected {op!r}", pos)
        return self.advance()

    def parse(self):
        poly = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise PolyParseError(f"unexpected token {value!r}", pos)
        return poly

    def expr(self):
        poly = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                poly = poly + rhs if value == "+" else poly - rhs
            else:
                return poly

    def term(self):
        poly = self.unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                poly = poly * self.unary()
            else:
                return poly

    def unary(self):
        kind, value, _ = self.peek()
        if kind == "op" and value in "+-":
            self.advance()
            inner = self.unary()
            return inner if value == "+" else -inner
        return self.power()

    def power(self):
        poly = self.atom()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "^":
                self.advance()
                nkind, nvalue, npos = self.advance()
                if nkind != "number" or not nvalue.isdigit():
                    raise PolyParseError("exponent must be a non-negative integer", npos)
                poly = poly ** int(nvalue)
            else:
                return poly

    def atom(self):
        kind, value, pos = self.advance()
        if kind == "number":
            if value.endswith("i"):
                return ComplexPoly.constant(complex(0.0, float(value[:-1])), self.n_vars)
            return ComplexPoly.constant(float(value), self.n_vars)
        if kind == "imag":
            return ComplexPoly.constant(1j, self.n_vars)
        if kind == "var":
            index = int(value[1:])
            if not 1 <= index <= self.n_vars:
                raise PolyParseError(
                    f"variable {value} out of range (n_vars = {self.n_vars})", pos
                )
            return ComplexPoly.variable(index, self.n_vars)
        if kind == "op" and value == "(":
            poly = self.expr()
            self.expect_op(")")
            return poly
        raise PolyParseError(f"unexpected token {value!r}", pos)


def parse_poly(text, n_vars):
    """Parse a polynomial expression in variables ``z1 .. z{n_vars}``.

    >>> str(parse_poly("(z1+z2)^2", 2))
    'z1^2 + 2.0*z1*z2 + z2^2'
    """
    return _Parser(text, n_vars).parse()
