"""Fraction field over the scalar ring, exact division, Pfaffians.

Exact division works on the variables that occur in either operand, in
patch order, as dense exponent tuples; single-divisor multivariate
division in lex order then decides divisibility exactly.  Without an
angle coordinate among them the operands are polynomials and the
division runs on the ring's own ``int``/``Fraction`` coefficients.  An
angle coordinate maps to a unit-circle variable ``z`` via

    cos(k*t) -> (z^k + z^-k)/2,    sin(k*t) -> (z^k - z^-k)/(2i),

turning both operands into Laurent polynomials over the Gaussian
rationals; after shifting away the minimal ``z`` exponents they are
ordinary polynomials, and the quotient, when it exists, is
conjugate-symmetric and maps back to a real trig-polynomial.

An antisymmetric matrix A is inverted through its Pfaffian: first-row
expansion memoized on index subsets gives Pf(A) and every Pf of A with
two rows and columns removed, so A^-1 = (signed Pfaffian minors)/Pf(A)
and det(A) = Pf(A)^2.  The general determinant is a Laplace expansion
memoized on column subsets.  Neither divides, unless the Pfaffian
expansion is given a denominator D that A's entries share, A = D*M.
When M is +-the inverse of a polynomial matrix B with Pf(B) = D, Jacobi's
complementary-minor identity Pf((B^-1)_S) = +-Pf(B without S)/Pf(B)
makes every Pfaffian of A on 2k indices D^(k-1) times a polynomial.  So
the expansion keeps each Pfaffian as D^e*R and, after summing a subset
of four or more indices, tries one exact division by D (the
exact-division step of Bareiss's fraction-free elimination); a division
that fails leaves R as it is.  ``RatExpr`` never normalizes itself: a
quotient keeps the numerator and denominator it was built from, and
only ``RatExpr.as_scalar``, that expansion and the callers in
``coupling`` that divide by one known Pfaffian call ``divide_exact``.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, sub
from typing import List, Optional

from .errors import DegenerateInputError, PatchMismatchError
from .symexpr import COS, SIN, Patch, ScalarExpr, _add_terms, _coefficient, _expr


def _quotient(a, b):
    """a/b for exact rationals, as an ``int`` whenever it is integral."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _coefficient(a / b)


class _QI:
    """Gaussian rational: exact complex number with int/Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re
        self.im = im

    def __add__(self, other):
        return _QI(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return _QI(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return _QI(self.re * other.re - self.im * other.im,
                   self.re * other.im + self.im * other.re)

    def __truediv__(self, other):
        n = other.re * other.re + other.im * other.im
        if not n:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return _QI(_quotient(self.re * other.re + self.im * other.im, n),
                   _quotient(self.im * other.re - self.re * other.im, n))

    def __neg__(self):
        return _QI(-self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)


_HALF = Fraction(1, 2)
# cos(k*t) and sin(k*t) as (sign of the z exponent, Gaussian weight) pairs
_LAURENT = {COS: ((1, _QI(_HALF)), (-1, _QI(_HALF))),
            SIN: ((1, _QI(0, -_HALF)), (-1, _QI(0, _HALF)))}


def _divide(ntab: dict, dtab: dict, quotient) -> Optional[dict]:
    """Single-divisor division of {exponent tuple: coefficient} tables in
    lex order: the quotient table when ``dtab`` divides ``ntab`` exactly,
    else None.  ``quotient`` divides two coefficients."""
    lead = max(dtab)
    lead_c = dtab[lead]
    rest = [(m, c) for m, c in dtab.items() if m != lead]
    quo: dict = {}
    rem = dict(ntab)
    while rem:
        t = max(rem)
        qm = tuple(map(sub, t, lead))
        if min(qm) < 0:
            return None
        qc = quo[qm] = quotient(rem.pop(t), lead_c)
        _add_terms(rem, [(tuple(map(add, qm, dm)), qc * dc)
                         for dm, dc in rest], sub)
    return quo


def _polynomial_table(e: ScalarExpr, slot: dict, nvars: int) -> dict:
    """A trig-free expression as {dense exponent tuple: coefficient}."""
    table = {}
    for (mono, _trig), c in e.terms.items():
        exps = [0] * nvars
        for i, k in mono:
            exps[slot[i]] = k
        table[tuple(exps)] = c
    return table


def _laurent_table(e: ScalarExpr, slot: dict, nvars: int) -> dict:
    """An expression as {dense exponent tuple: _QI}, angle slots Laurent."""
    pairs = []
    for (mono, trig), c in e.terms.items():
        exps = [0] * nvars
        for i, k in mono:
            exps[slot[i]] = k
        branches = [(exps, _QI(c))]
        for i, kind, k in trig:
            pos = slot[i]
            nxt = []
            for ex, w in branches:
                for sign, piece in _LAURENT[kind]:
                    ex2 = list(ex)
                    ex2[pos] += sign * k
                    nxt.append((ex2, w * piece))
            branches = nxt
        pairs += [(tuple(ex), w) for ex, w in branches]
    return _add_terms({}, pairs)


def _lowered(table: dict, angles: list, nvars: int):
    """(``table`` with each angle slot's minimal exponent subtracted from
    every key, those minima as an exponent tuple)."""
    low = tuple(min(k[p] for k in table) if p in angles else 0
                for p in range(nvars))
    return {tuple(map(sub, k, low)): c for k, c in table.items()}, low


def _real_terms(quo: dict, support: list, angles: list) -> Optional[dict]:
    """The real trig-polynomial with Laurent table ``quo`` as ScalarExpr
    terms, or None when its imaginary part does not cancel.

    z^k = cos(k*t) + i*sin(k*t) on every angle slot, so each Laurent term
    spreads over the cos/sin choices of its nonzero angle exponents."""
    real, imag = [], []
    polys = [pos for pos in range(len(support)) if pos not in angles]
    for exps, c in quo.items():
        mono = tuple((support[p], exps[p]) for p in polys if exps[p])
        branches = [((), c.re, c.im)]
        for p in angles:
            k = exps[p]
            if not k:
                continue
            i, s = support[p], (1 if k > 0 else -1)
            nxt = []
            for word, re, im in branches:
                nxt.append((word + ((i, COS, s * k),), re, im))
                nxt.append((word + ((i, SIN, s * k),), -s * im, s * re))
            branches = nxt
        real += [((mono, word), re) for word, re, _ in branches]
        imag += [((mono, word), im) for word, _, im in branches]
    return None if _add_terms({}, imag) else _add_terms({}, real)


def divide_exact(num: ScalarExpr, den: ScalarExpr) -> Optional[ScalarExpr]:
    """num/den as an expression when the division is exact, else None."""
    if num.patch != den.patch:
        raise PatchMismatchError("operands live on different patches")
    if den.is_zero():
        raise ZeroDivisionError("division by the zero expression")
    patch = num.patch
    if num.is_zero():
        return patch.zero()
    if den.as_rational() is not None:
        c = den.terms[((), ())]
        return _expr(patch, {k: _quotient(v, c) for k, v in num.terms.items()})
    support = sorted(num.coordinates_used() | den.coordinates_used())
    slot = {i: pos for pos, i in enumerate(support)}
    nvars = len(support)
    angles = [pos for pos, i in enumerate(support) if patch.coords[i].angle]
    if not angles:
        quo = _divide(_polynomial_table(num, slot, nvars),
                      _polynomial_table(den, slot, nvars), _quotient)
        if quo is None:
            return None
        return _expr(patch, {
            (tuple((support[p], k) for p, k in enumerate(exps) if k), ()): c
            for exps, c in quo.items()})
    ntab, nlow = _lowered(_laurent_table(num, slot, nvars), angles, nvars)
    dtab, dlow = _lowered(_laurent_table(den, slot, nvars), angles, nvars)
    quo = _divide(ntab, dtab, _QI.__truediv__)
    if quo is None:
        return None
    shift = tuple(map(sub, nlow, dlow))
    terms = _real_terms({tuple(map(add, k, shift)): c for k, c in quo.items()},
                        support, angles)
    return None if terms is None else _expr(patch, terms)


class RatExpr:
    """Quotient of two expressions; equality by cross-multiplication."""

    __slots__ = ("num", "den")

    def __init__(self, num: ScalarExpr, den: ScalarExpr | None = None):
        if den is None:
            den = num.patch.one()
        if num.patch != den.patch:
            raise PatchMismatchError("numerator and denominator patches differ")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        self.num = num
        self.den = den

    @property
    def patch(self) -> Patch:
        return self.num.patch

    def _coerce(self, other) -> "RatExpr":
        if isinstance(other, RatExpr):
            if other.patch != self.patch:
                raise PatchMismatchError("operands live on different patches")
            return other
        if isinstance(other, ScalarExpr):
            if other.patch != self.patch:
                raise PatchMismatchError("operands live on different patches")
            return RatExpr(other)
        if isinstance(other, (int, Fraction)):
            return RatExpr(self.patch.rational(other))
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den:
            return RatExpr(self.num + other.num, self.den)
        return RatExpr(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatExpr(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RatExpr(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self.num * other.den - other.num * self.den).is_zero()

    def coordinates_used(self) -> frozenset:
        """The union of the numerator's and denominator's supports."""
        return self.num.coordinates_used() | self.den.coordinates_used()

    def differentiate(self, coord) -> "RatExpr":
        dn = self.num.differentiate(coord)
        dd = self.den.differentiate(coord)
        if dd.is_zero():
            return RatExpr(dn, self.den)
        return RatExpr(dn * self.den - self.num * dd, self.den * self.den)

    def as_scalar(self) -> ScalarExpr:
        """The value as a plain expression; raises if not polynomial."""
        q = divide_exact(self.num, self.den)
        if q is None:
            raise DegenerateInputError(
                f"value ({self.num})/({self.den}) is not expressible "
                f"without denominators")
        return q

    def __str__(self):
        if self.den == 1:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RatExpr({self})"


Matrix = List[List[ScalarExpr]]


def _expansion(rows: Matrix, patch: Patch, split, D=None):
    """value(mask) = (e, R) over index sets held as bitmasks, memoized,
    standing for D^e*R: value(0) = (0, 1), and with (r, S) = split(mask),
    the value of mask sums (-1)^k rows[r][j] value(S without j) over the
    j in S, the k-th in increasing order.  The terms are brought to their
    least power of D before they are summed.  With ``D`` given, the sum
    over a mask of four or more indices is then divided by D once, when
    that is exact; without it e stays 0."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("expansion needs a square matrix")
    memo = {0: (0, patch.one())}

    def value(mask: int):
        hit = memo.get(mask)
        if hit is None:
            r, cols = split(mask)
            terms = []
            sign = 1
            for j in range(n):
                if cols >> j & 1:
                    if not rows[r][j].is_zero():
                        e, R = value(cols & ~(1 << j))
                        if R:
                            terms.append((e, sign, rows[r][j] * R))
                    sign = -sign
            low = min((e for e, _, _ in terms), default=0)
            total = patch.zero()
            for e, sign, term in terms:
                if e > low:
                    term = term * D ** (e - low)
                total = total + term if sign > 0 else total - term
            hit = (low, total)
            if D is not None and total and bin(mask).count("1") >= 4:
                q = divide_exact(total, D)
                if q is not None:
                    hit = (low + 1, q)
            memo[mask] = hit
        return hit

    return value


def determinant(rows: Matrix, patch: Patch) -> ScalarExpr:
    """Laplace expansion along the rows, memoized on the unused columns."""
    n = len(rows)
    return _expansion(rows, patch, lambda cols: (
        n - bin(cols).count("1"), cols))((1 << n) - 1)[1]


def _first_row(mask: int):
    first = (mask & -mask).bit_length() - 1
    return first, mask & ~(1 << first)


def _pfaffians(rows: Matrix, patch: Patch, D=None):
    """Pf of the principal submatrix on each index set, by first-row
    expansion: Pf(S) = sum_k (-1)^k a(s_0, s_k) Pf(S without s_0, s_k),
    as the pair (e, R) with Pf(S) = D^e*R (see ``_expansion``)."""
    pf, n = _expansion(rows, patch, _first_row, D), len(rows)
    if any(not (rows[i][j] + rows[j][i]).is_zero()
           for i in range(n) for j in range(i, n)):
        raise ValueError("Pfaffian needs an antisymmetric matrix")
    return pf, (1 << n) - 1


def pfaffian(rows: Matrix, patch: Patch) -> ScalarExpr:
    """Pfaffian of an antisymmetric matrix; 0 for every odd size."""
    pf, full = _pfaffians(rows, patch)
    return pf(full)[1]


def rat_inverse(rows: Matrix, patch: Patch, D: ScalarExpr | None = None):
    """(Pf(A), C) with A^-1 = C/Pf(A) for antisymmetric A, where C_ij =
    -C_ji = (-1)^(i+j) Pf(A without rows/columns i, j) for i < j.  Each
    Pfaffian comes as a pair (e, R) standing for D^e*R, where e counts the
    exact divisions by ``D`` that the expansion made (one at most per
    subset size from four up); without ``D``, e is 0 and R the Pfaffian.
    Raises DegenerateInputError when Pf(A) = 0, which includes every odd
    size."""
    pf, full = _pfaffians(rows, patch, D)
    total = pf(full)
    if not total[1]:
        raise DegenerateInputError("matrix is singular: determinant is 0")
    n = len(rows)
    zero = (0, patch.zero())
    adj = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            e, c = pf(full & ~(1 << i) & ~(1 << j))
            pos, neg = (e, c), (e, -c)
            adj[i][j], adj[j][i] = (neg, pos) if (i + j) % 2 else (pos, neg)
    return total, adj
