"""Multivariate complex polynomials with Wirtinger calculus.

Polynomials live on C^n_vars in the variables ``z1 .. z{n_vars}``. Terms are
stored sparsely as a map from exponent tuples to complex coefficients; exact
zeros are never stored. Printing and evaluation always walk the terms in
graded lexicographic order (total degree first, then exponent tuple,
descending), so both are deterministic.

Values, gradients and Hessians walk one kind of table, cached on the
polynomial per derivative order: the distinct powers and the terms of all
its partials of that order. Partials of an order at least the polynomial's
degree are constants, summed once when the table is built and copied out on
every call. Otherwise one point, and stacks below ``_VECTOR_MIN_ROWS`` rows,
walk the table point by point in Python complex arithmetic, and larger
stacks in one grouped sweep of real float array operations: one power call
per distinct exponent, one complex product per factor position over all
terms, and one add per term position over all partials. Every path equals
the plain term loop bit for bit.

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
    arithmetic returns new objects. The only cache is ``_slots``, the
    evaluation table of each derivative order used so far.
    """

    __slots__ = ("n_vars", "terms", "_slots")

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
        self._slots = {}

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

    def _slot_table(self, order):
        """The :class:`_SlotTable` of all partials of ``order``, cached on the instance.

        Order 0 is the polynomial itself, in slot 0; slot j is d/dz_j and
        slot j * n_vars + k is d^2/dz_j dz_k.
        """
        if order not in self._slots:
            polys = [self]
            for _ in range(order):
                polys = [q for p in polys for q in p.partials()]
            self._slots[order] = _SlotTable(polys)
        return self._slots[order]

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
        """All first Wirtinger partials."""
        return tuple(wirtinger_partial(self, j) for j in range(1, self.n_vars + 1))


# row count from which one vectorised evaluation beats a loop over the rows
_VECTOR_MIN_ROWS = 32


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


def _cmul(ar, ai, br, bi):
    """(ar + i ai)(br + i bi) as (re, im), rounded as a scalar complex product."""
    return ar * br - ai * bi, ar * bi + ai * br


def _power_rows(xr, xi, e):
    """:func:`_power` over arrays of real parts ``xr`` and imaginary parts ``xi``.

    The (k, N) arrays of a grouped sweep hold k powers of one exponent.
    """
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


def _row_index(indices):
    """The row indices as a slice where they are consecutive (a view), else as an array."""
    if indices == list(range(indices[0], indices[0] + len(indices))):
        return slice(indices[0], indices[0] + len(indices))
    return np.array(indices)


class _SlotTable:
    """The distinct powers and the terms of a list of partials, and the plans that walk them.

    ``powers`` holds the distinct (variable, exponent) pairs, ordered by
    exponent, then variable; ``entries`` the terms as (slot, coefficient,
    indices into ``powers``), each slot's in its partial's graded order.
    Where no term has a factor, every partial is a constant: ``constant``
    holds them in an array of ``slots`` entries, each summed from 0j in
    graded order as the point path sums it, and is None otherwise. The
    grouped sweep's plan:

    * ``groups``: (exponent, variables) per distinct exponent;
    * ``coeff``: the (T, 1) real and imaginary coefficients of the terms
      with a factor, ordered by factor count, most first (stable), so that
      the terms with more than q factors are a prefix;
    * ``factor_steps``: (k, power indices) per factor position q, k the
      length of that prefix;
    * ``written``: (count, slot indices) of the slots that have a term,
      ranked by their count of terms with a factor, most first (stable);
      the other slots stay 0;
    * ``sum_steps``: (count, term indices) per term position p, the p-th
      term with a factor of each slot that has one, so that the ranked
      slots with more than p such terms are a prefix;
    * ``offsets``: (rows, real, imaginary) of the constant terms, each
      slot's one added once to its row of the ranking, or None where no
      partial has one. A constant term is the last of its slot in graded
      order, so it is added last.
    """

    __slots__ = ("powers", "entries", "slots", "constant", "groups", "coeff",
                 "factor_steps", "written", "sum_steps", "offsets")

    def __init__(self, polys):
        self.slots = len(polys)
        terms = [(slot, coeff, exps) for slot, q in enumerate(polys)
                 for exps, coeff in q.sorted_terms()]
        self.powers = tuple(sorted({(j, e) for *_, exps in terms for j, e in enumerate(exps) if e},
                                   key=lambda f: (f[1], f[0])))
        index = {f: i for i, f in enumerate(self.powers)}
        self.entries = tuple(
            (slot, coeff, tuple(index[j, e] for j, e in enumerate(exps) if e))
            for slot, coeff, exps in terms
        )
        self.constant = None
        if not self.powers:
            row = [0j] * self.slots
            for slot, coeff, _ in self.entries:
                row[slot] += coeff
            self.constant = np.array(row, dtype=complex)
            return
        exponents = sorted({e for _, e in self.powers})
        self.groups = [(e, _row_index([j for j, f in self.powers if f == e])) for e in exponents]
        factored = [t for t in range(len(self.entries)) if self.entries[t][2]]
        by_factors = sorted(factored, key=lambda t: -len(self.entries[t][2]))
        ordered = [self.entries[t] for t in by_factors]
        self.coeff = (np.array([[c.real] for _, c, _ in ordered]),
                      np.array([[c.imag] for _, c, _ in ordered]))
        self.factor_steps = []
        for q in range(len(ordered[0][2])):
            held = [idx[q] for *_, idx in ordered if len(idx) > q]
            self.factor_steps.append((len(held), _row_index(held)))
        # each slot's terms with a factor in graded order, as places in the
        # factor order, and its constant term
        place = {t: i for i, t in enumerate(by_factors)}
        per_slot = [[] for _ in range(self.slots)]
        constants = {}
        for t, (slot, coeff, idx) in enumerate(self.entries):
            if idx:
                per_slot[slot].append(place[t])
            else:
                constants[slot] = coeff
        ranked = [slot for slot in sorted(range(self.slots), key=lambda slot: -len(per_slot[slot]))
                  if per_slot[slot] or slot in constants]
        self.written = (len(ranked), _row_index(ranked))
        self.sum_steps = []
        for p in range(len(per_slot[ranked[0]])):
            block = [per_slot[slot][p] for slot in ranked if len(per_slot[slot]) > p]
            self.sum_steps.append((len(block), _row_index(block)))
        self.offsets = None
        if constants:
            rows = [row for row, slot in enumerate(ranked) if slot in constants]
            values = [constants[ranked[row]] for row in rows]
            self.offsets = (_row_index(rows), np.array([[c.real] for c in values]),
                            np.array([[c.imag] for c in values]))

    def sweep(self, z):
        """Every partial at each row of the (N, n_vars) stack z, as an (N, slots) array.

        Each power is taken once per call, grouped by exponent; each term
        multiplies its coefficient by its factors in order, as the point
        path does, and each slot adds its terms from 0.0 in graded order,
        its constant term last. Slots with no term are left 0.
        Complex products are written as real float operations, because
        numpy's complex array multiply may fuse multiply-adds.
        """
        zr = np.ascontiguousarray(z.real.T)
        zi = np.ascontiguousarray(z.imag.T)
        with np.errstate(all="ignore"):
            values = [_power_rows(zr[js], zi[js], e) for e, js in self.groups]
            vr, vi = values[0] if len(values) == 1 else map(np.concatenate, zip(*values))
            (_, idx), *steps = self.factor_steps
            tr, ti = _cmul(*self.coeff, vr[idx], vi[idx])
            for k, idx in steps:
                tr[:k], ti[:k] = _cmul(tr[:k], ti[:k], vr[idx], vi[idx])
            rows, written = self.written
            sr, si = np.zeros((rows, len(z))), np.zeros((rows, len(z)))
            for k, idx in self.sum_steps:
                sr[:k] += tr[idx]
                si[:k] += ti[idx]
            if self.offsets is not None:
                idx, cr, ci = self.offsets
                sr[idx] += cr
                si[idx] += ci
        out = np.zeros((len(z), self.slots), dtype=complex)
        out.real[:, written] = sr.T
        out.imag[:, written] = si.T
        return out


def _evaluate(p, z, order):
    """All partials of ``order`` 0, 1 or 2 of ``p`` at ``z``, one n_vars axis per order.

    Walks the :class:`_SlotTable` of that order. Where its partials are
    constants, every row is a fresh copy of them, whatever the point.
    Otherwise one point and stacks below ``_VECTOR_MIN_ROWS`` rows go point
    by point: each power is taken once per point and each slot adds its
    terms from 0j in its partial's graded order, so every entry equals the
    term loop of its partial bit for bit. Larger stacks take the table's
    grouped sweep (:meth:`_SlotTable.sweep`), whose float operations round
    as the point path's. Non-finite inputs or overflow give inf or nan,
    never an exception or a warning.
    """
    z, m = _points(p, z), p.n_vars
    table = p._slot_table(order)
    shape = z.shape[:-1] + (m,) * order
    if table.constant is not None:
        out = np.empty(z.shape[:-1] + (table.slots,), dtype=complex)
        out[...] = table.constant
        return out.reshape(shape) if shape else out[0]
    if z.ndim == 2 and len(z) >= _VECTOR_MIN_ROWS:
        return table.sweep(z).reshape(shape)
    rows = []
    for zs in [z.tolist()] if z.ndim == 1 else z.tolist():
        values = [_power(zs[j], e) for j, e in table.powers]
        row = [0j] * table.slots
        for slot, coeff, idx in table.entries:
            term = coeff
            for i in idx:
                term *= values[i]
            row[slot] += term
        rows.append(row)
    return np.array(rows, dtype=complex).reshape(shape) if shape else np.complex128(rows[0][0])


def eval_poly(p, z):
    """Evaluate ``p`` at one point z of shape (n_vars,), or at each row of (N, n_vars).

    Returns a complex scalar, or an (N,) array whose row k equals the
    scalar call at z[k] bit for bit. Terms are summed in graded order, so
    the result is reproducible; see :func:`_evaluate` for the two paths,
    which both equal the plain term loop bit for bit.
    """
    return _evaluate(p, z, 0)


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
    return _evaluate(p, z, 1)


def conj_gradient(p, z):
    """Conjugated Wirtinger gradient: entry j is conj( (d p / d z_j)(z) )."""
    return np.conj(gradient(p, z))


def hessian(p, z):
    """Matrix of second Wirtinger partials: entry (j, k) is (d^2 p / d z_j d z_k)(z).

    Shape (n_vars, n_vars), or (N, n_vars, n_vars) for a stack of points,
    with the rows of the batched call equal to the scalar calls.
    """
    return _evaluate(p, z, 2)


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

    Text nested deeper than the interpreter's recursion limit allows raises
    PolyParseError, like any other text that does not parse.
    """
    parser = _Parser(text, n_vars)
    try:
        return parser.parse()
    except RecursionError:
        raise PolyParseError("expression nested too deeply", parser.peek()[2]) from None
