"""Fraction field over the scalar ring, exact division, Pfaffians.

Exact division is single-divisor multivariate division in the lex order
of packed monomials (a monomial order: ``int`` comparison reads the
highest field first), which decides divisibility exactly.  Without an
angle coordinate in either operand's support the operands are
polynomials, and the division runs on the ring's own packed keys and
``int``/``Fraction`` coefficients.  An angle coordinate maps to a
unit-circle variable ``z`` via
cos(k*t) = (z^k + z^-k)/2 and sin(k*t) = -i(z^k - z^-k)/2, turning both
operands into Laurent polynomials over the Gaussian rationals.  The
halves are left out: with A angle coordinates in the support, a term
with m trig factors maps through

    cos(k*t) -> z^k + z^-k,    sin(k*t) -> -i(z^k - z^-k)

and is scaled by 2^(A-m), so every term of both operands, and both
operands as a whole, carry the same factor 2^A, which cancels in the
quotient; integral coefficients stay Gaussian integers.  The Laurent
tables keep the ring's packed keys, with each angle's field, ``2k +
kind`` in the ring, holding its ``z`` exponent shifted by the operand's
largest frequency in that angle, so the operands become ordinary
polynomials; a field holds at most 2^31 - 2, as ``symexpr`` keeps every
frequency below 2^30.  The
quotient, when it exists, is conjugate-symmetric and maps back to a
real trig-polynomial.

All Pfaffian bookkeeping lives here.  An antisymmetric matrix is given
by its strict upper triangle, the only part ever read.  One first-row
expansion, memoized on index subsets, gives Pf(A) and every Pf of A with
two rows and columns removed, so A^-1 = (signed Pfaffian minors)/Pf(A)
and det(A) = Pf(A)^2; the determinant of a square matrix is the same
expansion on [[0, A], [-A^T, 0]], whose Pfaffian is
(-1)^(n(n-1)/2) det(A).  The expansion divides only when given a
denominator D that A's entries share, A = D*M.  When M is +-the inverse
of a polynomial matrix B with Pf(B) = D, Jacobi's complementary-minor
identity Pf((B^-1)_S) = +-Pf(B without S)/Pf(B) makes every Pfaffian of
A on 2k indices D^(k-1) times a polynomial.  So the expansion divides
the sum over every set of four or more indices by D once (the
exact-division step of Bareiss's fraction-free elimination).  If any of
those divisions, the adjugate minors' included, is inexact, the inverse
starts over on the plain expansion without D.  ``RatExpr`` never
normalizes itself: a quotient keeps the numerator and denominator it
was built from, and only ``RatExpr.as_scalar``, that expansion and the callers in
``coupling`` that divide by one known Pfaffian call ``divide_exact``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from operator import sub
from typing import List, Optional

from .errors import DegenerateInputError, PatchMismatchError
from .symexpr import (
    SIN, Patch, ScalarExpr, _FIELD, _ONE_KEY, _WIDTH, _add_terms,
    _coefficient, _expr)


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


def _divide(ntab: dict, dtab: dict, quotient, guard: int) -> Optional[dict]:
    """Single-divisor division of {packed monomial: coefficient} tables,
    largest monomial first: the quotient table when ``dtab`` divides
    ``ntab`` exactly, else None.  ``quotient`` divides two coefficients.

    ``guard`` has the top bit of every field set, and no key sets one.  A
    monomial divides another when subtracting it from the other with every
    guard bit set clears none of them.  An exact division never forms a
    product past the numerator's exponents, so a product reaching a guard
    bit ends the division with None."""
    lead = max(dtab)
    lead_c = dtab[lead]
    rest = [(m, c) for m, c in dtab.items() if m != lead]
    quo: dict = {}
    rem = dict(ntab)
    while rem:
        t = max(rem)
        qm = (t | guard) - lead
        if qm & guard != guard:
            return None
        qm ^= guard
        qc = quo[qm] = quotient(rem.pop(t), lead_c)
        products = [(qm + dm, qc * dc) for dm, dc in rest]
        if any(m & guard for m, _ in products):
            return None
        _add_terms(rem, products, sub)
    return quo


def _laurent_table(e: ScalarExpr, nangles: int, low: dict) -> dict:
    """2^nangles times an expression, as {packed key: _QI} with the angle
    fields Laurent: a term with m trig factors is scaled by
    2^(nangles - m), and each factor maps to z^k + z^-k (cos) or
    -i*z^k + i*z^-k (sin), twice its value.  Every term thus carries the
    factor 2^nangles, so an integral expression has Gaussian-integer
    values, and ``divide_exact``, which maps both operands with the
    nangles of their joint support, gets the quotient unscaled.  A branch
    carries its weight as the power of i it picked up.

    The ring key's field ``2k + kind`` of angle i (0 for no factor)
    becomes its z exponent plus ``low[i]``, its largest frequency in
    ``e``: the image's least exponent in z_i is exactly -low[i], so every
    field is non-negative and some key has a zero field in each angle."""
    offset = sum(k << (_WIDTH * i) for i, k in low.items())
    pairs = []
    for key, c in e.terms.items():
        branches = [(key + offset, 0)]
        scale = nangles
        for i in low:
            shift = _WIDTH * i
            f = key >> shift & _FIELD
            if f:
                scale -= 1
                k = f >> 1
                up, down = (k - f) << shift, (-k - f) << shift
                turn = (3, 1) if f & 1 else (0, 0)
                branches = [pair for m, p in branches for pair in (
                    (m + up, p + turn[0]), (m + down, p + turn[1]))]
        c = _coefficient(c * (1 << scale))
        if scale == nangles:  # no trig factor
            pairs.append((key + offset, _QI(c)))
            continue
        phases = (_QI(c), _QI(0, c), _QI(-c), _QI(0, -c))
        pairs += [(m, phases[p % 4]) for m, p in branches]
    return _add_terms({}, pairs)


def _real_terms(quo: dict, angles: list, shift: dict) -> Optional[dict]:
    """The real trig-polynomial whose Laurent table is ``quo`` (packed
    keys, angle i's field holding its z exponent plus ``shift[i]``) as
    ScalarExpr terms, angle i's field ``2k + kind``, or None when its
    imaginary part does not cancel.

    z^k = cos(k*t) + i*sin(k*t) on every angle, so each Laurent term
    spreads over the cos/sin choices of its nonzero angle exponents."""
    real, imag = [], []
    poly_fields = ~sum(_FIELD << (_WIDTH * i) for i in angles)
    for m, c in quo.items():
        branches = [(m & poly_fields, c.re, c.im)]
        for i in angles:
            k = (m >> (_WIDTH * i) & _FIELD) - shift[i]
            if not k:
                continue
            s = 1 if k > 0 else -1
            cos = 2 * s * k << (_WIDTH * i)
            sin = cos + (SIN << (_WIDTH * i))
            branches = [pair for key, re, im in branches for pair in (
                (key + cos, re, im), (key + sin, -s * im, s * re))]
        real += [(key, re) for key, re, _ in branches]
        imag += [(key, im) for key, _, im in branches]
    return None if _add_terms({}, imag) else _add_terms({}, real)


def divide_exact(num: ScalarExpr, den: ScalarExpr) -> Optional[ScalarExpr]:
    """num/den as an expression when the division is exact, else None.

    A divisor of 1 returns the numerator itself.  A divisor using a
    coordinate the numerator does not fails before any division: num =
    q*den uses every coordinate den does, a polynomial coordinate by degree
    and an angle by the spread of its Laurent image."""
    if num.patch != den.patch:
        raise PatchMismatchError("operands live on different patches")
    if den.is_zero():
        raise ZeroDivisionError("division by the zero expression")
    patch = num.patch
    if num.is_zero():
        return patch.zero()
    if len(den.terms) == 1 and _ONE_KEY in den.terms:
        c = den.terms[_ONE_KEY]
        if c == 1:
            return num
        return _expr(patch, {k: _quotient(v, c) for k, v in num.terms.items()})
    used = num.coordinates_used()
    if not den.coordinates_used() <= used:
        return None
    return _long_division(
        num, den, sorted(i for i in used if patch.coords[i].angle))


def _long_division(num: ScalarExpr, den: ScalarExpr,
                   angles: list) -> Optional[ScalarExpr]:
    """num/den for a nonzero numerator, by division on the ring's keys
    when ``angles``, the angle coordinates of both operands, is empty and
    on the operands' Laurent images otherwise; None when inexact."""
    patch = num.patch
    if not angles:
        quo = _divide(num.terms, den.terms, _quotient, patch._guard)
        return None if quo is None else _expr(patch, quo)
    # each angle's largest frequency in each operand, the shift of its field
    lows = [{i: max(key >> (_WIDTH * i) & _FIELD for key in e.terms) >> 1
             for i in angles} for e in (num, den)]
    quo = _divide(
        *(_laurent_table(e, len(angles), low)
          for e, low in zip((num, den), lows)), _QI.__truediv__, patch._guard)
    if quo is None:
        return None
    terms = _real_terms(quo, angles,
                        {i: lows[0][i] - lows[1][i] for i in angles})
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
        try:
            other = self._coerce(other)
        except PatchMismatchError:
            return False
        if other is NotImplemented:
            return NotImplemented
        return (self.num * other.den - other.num * self.den).is_zero()

    def coordinates_used(self) -> frozenset:
        """The union of the numerator's and denominator's supports."""
        return self.num.coordinates_used() | self.den.coordinates_used()

    def _key_union(self) -> int:
        """The OR of the numerator's and denominator's packed term keys."""
        return self.num._key_union() | self.den._key_union()

    def _gradient(self, fields: int = -1) -> dict:
        """``{i: d/dx_i self}`` for each coordinate of the support whose
        field meets the mask ``fields`` and whose partial is nonzero, in
        increasing order, as ``ScalarExpr`` has."""
        return {i: d for i in sorted(self.coordinates_used())
                if fields >> _WIDTH * i & _FIELD
                and (d := self.differentiate(i))}

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


class _Inexact(Exception):
    """A sum of the expansion over D that D does not divide exactly."""


def _pfaffians(rows: Matrix, patch: Patch, D=None):
    """pf(mask) = Pf(A on the index set ``mask``), memoized on bitmasks,
    by first-row expansion

        Pf(S) = sum_k (-1)^(k+1) a(s_0, s_k) Pf(S without s_0, s_k)

    over the elements s_1 < s_2 < ... of S after its least element s_0.
    It reads only the strict upper triangle, rows[i][j] with i < j, and
    gives 0 on every odd set.  With ``D`` given, the sum over a set of
    2k >= 4 indices is divided by D once, so pf gives Pf(A on S)/D^(k-1);
    a division that is not exact raises ``_Inexact``."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("Pfaffian needs a square matrix")
    memo = {0: patch.one()}

    def pf(mask: int):
        total = memo.get(mask)
        if total is None:
            first = (mask & -mask).bit_length() - 1
            rest = mask & ~(1 << first)
            total = patch.zero()
            sign = 1
            for j in range(first + 1, n):
                if rest >> j & 1:
                    a = rows[first][j]
                    if not a.is_zero():
                        minor = pf(rest & ~(1 << j))
                        if minor:
                            total = total + (a if sign > 0 else -a) * minor
                    sign = -sign
            if D is not None and total and bin(mask).count("1") >= 4:
                total = divide_exact(total, D)
                if total is None:
                    raise _Inexact
            memo[mask] = total
        return total

    return pf


def pfaffian(rows: Matrix, patch: Patch) -> ScalarExpr:
    """Pfaffian of the antisymmetric matrix whose strict upper triangle
    ``rows`` holds; 0 for every odd size."""
    return _pfaffians(rows, patch)((1 << len(rows)) - 1)


def determinant(rows: Matrix, patch: Patch) -> ScalarExpr:
    """det(A) = (-1)^(n(n-1)/2) Pf([[0, A], [-A^T, 0]]) for an n x n A."""
    n = len(rows)
    zeros = [patch.zero()] * n
    pf = pfaffian([zeros + list(row) for row in rows]
                  + [zeros * 2] * n, patch)
    return -pf if n * (n - 1) // 2 % 2 else pf


def rat_inverse(rows: Matrix, patch: Patch, D: ScalarExpr | None = None):
    """(R, C, s) for the antisymmetric matrix A = D*M whose strict upper
    triangle ``rows`` holds, with M^-1 = D^s*C/R (D read as 1 when not
    given).  With s = 1, R = Pf(A) and C is the Pfaffian adjugate, C_ij =
    -C_ji = (-1)^(i+j) Pf(A without rows/columns i, j) for i < j, so
    A^-1 = C/R.  s = 0 when the expansion divided by D, n >= 4 and every
    division exact: R = Pf(A)/D^(n/2-1) and C is the adjugate over
    D^(n/2-2).  A division that is not exact starts the inverse over
    without D.  Raises DegenerateInputError when Pf(A) = 0, which
    includes every odd size."""
    n = len(rows)
    s = 0 if D is not None and n >= 4 else 1
    pf = _pfaffians(rows, patch, None if s else D)
    full = (1 << n) - 1
    try:
        total = pf(full)
        if not total:
            raise DegenerateInputError("matrix is singular: determinant is 0")
        zero = patch.zero()
        C = [[zero] * n for _ in range(n)]
        for i, j in combinations(range(n), 2):
            c = pf(full & ~(1 << i) & ~(1 << j))
            if c:
                C[i][j] = c = -c if (i + j) % 2 else c
                C[j][i] = -c
    except _Inexact:
        return rat_inverse(rows, patch)
    return total, C, s
