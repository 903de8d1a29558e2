"""Fraction field over the scalar ring, exact division, linear algebra.

Exact division of trig-polynomials works through a Laurent model: each
angle coordinate maps to a unit-circle variable ``z`` via

    cos(k*t) -> (z^k + z^-k)/2,    sin(k*t) -> (z^k - z^-k)/(2i),

turning an expression into a Laurent polynomial over the Gaussian
rationals.  After shifting away the minimal ``z`` exponents both
operands are ordinary polynomials, where single-divisor multivariate
division decides divisibility exactly (the quotient, when it exists, is
conjugate-symmetric and maps back to a real trig-polynomial).

Matrix routines never divide.  An antisymmetric matrix A is inverted
through its Pfaffian: first-row expansion memoized on index subsets
gives Pf(A) and every Pf of A with two rows and columns removed, so
A^-1 = (signed Pfaffian minors)/Pf(A) and det(A) = Pf(A)^2.  The
general determinant is a Laplace expansion memoized on column subsets,
and ``inverse`` the adjugate over it.  Null spaces come from
fraction-free Gauss-Jordan elimination with the pivots reported so
callers can name the locus where the answer is valid.  Only
``RatExpr.reduce`` and ``RatExpr.as_scalar`` call ``divide_exact``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional

from .errors import DegenerateInputError, PatchMismatchError
from .symexpr import COS, SIN, Patch, ScalarExpr


class _QI:
    """Gaussian rational: exact complex number with Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

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
        return _QI((self.re * other.re + self.im * other.im) / n,
                   (self.im * other.re - self.re * other.im) / n)

    def __neg__(self):
        return _QI(-self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        return self.re == other.re and self.im == other.im

    def __repr__(self):
        return f"({self.re}+{self.im}i)"


def _to_laurent(e: ScalarExpr) -> dict:
    """Expression as {exponent tuple: _QI}; angle slots may be negative."""
    n = len(e.patch)
    table: dict = {}
    for (mono, trig), c in e.terms.items():
        exps = [0] * n
        for i, k in mono:
            exps[i] = k
        branches = [(exps, _QI(c))]
        for i, kind, k in trig:
            half = Fraction(1, 2)
            if kind == COS:
                weights = ((k, _QI(half)), (-k, _QI(half)))
            else:
                weights = ((k, _QI(0, -half)), (-k, _QI(0, half)))
            nxt = []
            for ex, w in branches:
                for dk, piece in weights:
                    ex2 = list(ex)
                    ex2[i] += dk
                    nxt.append((ex2, w * piece))
            branches = nxt
        for ex, w in branches:
            key = tuple(ex)
            s = table.get(key, _QI()) + w
            if s:
                table[key] = s
            else:
                table.pop(key, None)
    return table


def _from_laurent(table: dict, patch: Patch) -> ScalarExpr:
    """Back-synthesize a real expression; the imaginary part must cancel."""
    real = patch.zero()
    imag = patch.zero()
    for exps, c in table.items():
        re, im = patch.rational(c.re), patch.rational(c.im)
        for i, k in enumerate(exps):
            if not k:
                continue
            coord = patch.coords[i]
            if coord.angle:
                cosk = patch.trig(COS, abs(k), coord.name)
                sink = patch.trig(SIN, abs(k), coord.name)
                if k < 0:
                    sink = -sink
                re, im = re * cosk - im * sink, re * sink + im * cosk
            else:
                if k < 0:
                    raise ArithmeticError(
                        f"negative power of non-angle coordinate {coord.name!r}")
                p = patch.coord(coord.name) ** k
                re, im = re * p, im * p
        real = real + re
        imag = imag + im
    if not imag.is_zero():
        raise ArithmeticError("quotient is not a real expression")
    return real


def divide_exact(num: ScalarExpr, den: ScalarExpr) -> Optional[ScalarExpr]:
    """num/den as an expression when the division is exact, else None."""
    if num.patch != den.patch:
        raise PatchMismatchError("operands live on different patches")
    if den.is_zero():
        raise ZeroDivisionError("division by the zero expression")
    patch = num.patch
    if num.is_zero():
        return patch.zero()
    rat = den.as_rational()
    if rat is not None:
        return num * Fraction(rat.denominator, rat.numerator)
    ntab, dtab = _to_laurent(num), _to_laurent(den)
    nvars = len(patch)
    shift = [0] * nvars
    for i in range(nvars):
        if not patch.coords[i].angle:
            continue
        nmin = min(k[i] for k in ntab)
        dmin = min(k[i] for k in dtab)
        shift[i] = nmin - dmin
        if nmin:
            ntab = {tuple(k[j] - (nmin if j == i else 0) for j in range(nvars)): c
                    for k, c in ntab.items()}
        if dmin:
            dtab = {tuple(k[j] - (dmin if j == i else 0) for j in range(nvars)): c
                    for k, c in dtab.items()}
    lead = max(dtab)
    lead_c = dtab[lead]
    quo: dict = {}
    rem = dict(ntab)
    while rem:
        t = max(rem)
        if any(t[i] < lead[i] for i in range(nvars)):
            return None
        qm = tuple(t[i] - lead[i] for i in range(nvars))
        qc = rem[t] / lead_c
        quo[qm] = quo.get(qm, _QI()) + qc
        for dm, dc in dtab.items():
            key = tuple(qm[i] + dm[i] for i in range(nvars))
            s = rem.get(key, _QI()) - qc * dc
            if s:
                rem[key] = s
            else:
                rem.pop(key, None)
    quo = {tuple(k[i] + shift[i] for i in range(nvars)): c
           for k, c in quo.items()}
    try:
        return _from_laurent(quo, patch)
    except ArithmeticError:
        return None


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

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero expression")
        return RatExpr(self.num * other.den, self.den * other.num)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponents must be natural numbers")
        return RatExpr(self.num ** n, self.den ** n)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self.num * other.den - other.num * self.den).is_zero()

    def differentiate(self, coord) -> "RatExpr":
        dn = self.num.differentiate(coord)
        dd = self.den.differentiate(coord)
        if dd.is_zero():
            return RatExpr(dn, self.den)
        return RatExpr(dn * self.den - self.num * dd, self.den * self.den)

    def reduce(self) -> "RatExpr":
        """Divide out the denominator when exact; else cancel the shared
        monomial content and normalize the denominator's leading rational."""
        q = divide_exact(self.num, self.den)
        if q is not None:
            return RatExpr(q)
        num, den = self.num, self.den
        shared = _shared_monomial(num, den)
        if shared:
            patch = self.patch
            mono = patch.one()
            for idx, exp in shared:
                mono = mono * patch.coord(patch.coords[idx].name) ** exp
            num = divide_exact(num, mono)
            den = divide_exact(den, mono)
            q = divide_exact(num, den)
            if q is not None:
                return RatExpr(q)
        lead = den.terms[min(den.terms)]
        if lead != 1:
            scale = Fraction(1) / lead
            num = num * scale
            den = den * scale
        return RatExpr(num, den)

    def as_scalar(self) -> ScalarExpr:
        """The value as a plain expression; raises if not polynomial."""
        q = divide_exact(self.num, self.den)
        if q is None:
            raise DegenerateInputError(
                f"value ({self.num})/({self.den}) is not expressible "
                f"without denominators")
        return q

    def evaluate(self, values) -> float:
        return self.num.evaluate(values) / self.den.evaluate(values)

    def __str__(self):
        if self.den == 1:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RatExpr({self})"


def _shared_monomial(num: ScalarExpr, den: ScalarExpr) -> tuple:
    """The per-coordinate minimum exponents dividing every term of both."""

    def content(e):
        out = None
        for mono, _trig in e.terms:
            exps = dict(mono)
            if out is None:
                out = exps
            else:
                out = {i: min(x, exps.get(i, 0)) for i, x in out.items()}
            if not out:
                break
        return out or {}

    cn, cd = content(num), content(den)
    return tuple(sorted((i, min(x, cd[i])) for i, x in cn.items()
                        if cd.get(i, 0) > 0 and x > 0))


Matrix = List[List[ScalarExpr]]


def _expansion(rows: Matrix, patch: Patch, split):
    """value(mask) over index sets held as bitmasks, memoized: value(0) =
    1, and with (r, S) = split(mask), value(mask) sums (-1)^k rows[r][j]
    value(S without j) over the j in S, the k-th in increasing order."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("expansion needs a square matrix")
    memo = {0: patch.one()}

    def value(mask: int) -> ScalarExpr:
        hit = memo.get(mask)
        if hit is None:
            r, cols = split(mask)
            hit = patch.zero()
            sign = 1
            for j in range(n):
                if cols >> j & 1:
                    if not rows[r][j].is_zero():
                        term = rows[r][j] * value(cols & ~(1 << j))
                        hit = hit + term if sign > 0 else hit - term
                    sign = -sign
            memo[mask] = hit
        return hit

    return value


def determinant(rows: Matrix, patch: Patch) -> ScalarExpr:
    """Laplace expansion along the rows, memoized on the unused columns."""
    n = len(rows)
    return _expansion(rows, patch, lambda cols: (
        n - bin(cols).count("1"), cols))((1 << n) - 1)


def _minor(rows: Matrix, i: int, j: int) -> Matrix:
    return [[c for jj, c in enumerate(row) if jj != j]
            for ii, row in enumerate(rows) if ii != i]


def inverse(rows: Matrix, patch: Patch):
    """Adjugate inverse: (entries as RatExpr over the determinant, det)."""
    n = len(rows)
    det = determinant(rows, patch)
    if det.is_zero():
        raise DegenerateInputError("matrix is singular: determinant is 0")
    inv = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            cof = determinant(_minor(rows, i, j), patch)
            if (i + j) % 2:
                cof = -cof
            inv[j][i] = RatExpr(cof, det)
    return inv, det


def _first_row(mask: int):
    first = (mask & -mask).bit_length() - 1
    return first, mask & ~(1 << first)


def _pfaffians(rows: Matrix, patch: Patch):
    """Pf of the principal submatrix on each index set, by first-row
    expansion: Pf(S) = sum_k (-1)^k a(s_0, s_k) Pf(S without s_0, s_k)."""
    pf, n = _expansion(rows, patch, _first_row), len(rows)
    if any(not (rows[i][j] + rows[j][i]).is_zero()
           for i in range(n) for j in range(i, n)):
        raise ValueError("Pfaffian needs an antisymmetric matrix")
    return pf, (1 << n) - 1


def pfaffian(rows: Matrix, patch: Patch) -> ScalarExpr:
    """Pfaffian of an antisymmetric matrix; 0 for every odd size."""
    pf, full = _pfaffians(rows, patch)
    return pf(full)


def pfaffian_adjugate(rows: Matrix, patch: Patch):
    """(Pf(A), C) with A^-1 = C/Pf(A) for antisymmetric A, where C_ij =
    -C_ji = (-1)^(i+j) Pf(A without rows/columns i, j) for i < j.  Raises
    DegenerateInputError when Pf(A) = 0, which includes every odd size."""
    pf, full = _pfaffians(rows, patch)
    total = pf(full)
    if total.is_zero():
        raise DegenerateInputError("matrix is singular: determinant is 0")
    n = len(rows)
    adj = [[patch.zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            c = pf(full & ~(1 << i) & ~(1 << j))
            adj[i][j], adj[j][i] = (-c, c) if (i + j) % 2 else (c, -c)
    return total, adj


def rat_inverse(rows: Matrix, patch: Patch):
    """Inverse of an antisymmetric matrix over the fraction field:
    (entries as RatExpr over Pf(A), det(A) = Pf(A)^2)."""
    total, adj = pfaffian_adjugate(rows, patch)
    return [[RatExpr(c, total) for c in row] for row in adj], total * total


def null_space(rows: Matrix, patch: Patch):
    """Kernel basis of a rectangular expression matrix.

    Returns (vectors, pivots): denominator-cleared kernel vectors (lists
    of expressions) and the pivot expressions used during elimination.
    The vectors span the kernel over the fraction field away from the
    pivots' zero locus.
    """
    if not rows:
        return [], []
    m, n = len(rows), len(rows[0])
    work = [list(row) for row in rows]
    pivots: list = []
    pivot_cols: list = []
    r = 0
    for col in range(n):
        found = None
        for i in range(r, m):
            if not work[i][col].is_zero():
                found = i
                break
        if found is None:
            continue
        work[r], work[found] = work[found], work[r]
        p = work[r][col]
        for i in range(m):
            if i == r or work[i][col].is_zero():
                continue
            factor = work[i][col]
            work[i] = [p * work[i][j] - factor * work[r][j] for j in range(n)]
        pivots.append(p)
        pivot_cols.append(col)
        r += 1
        if r == m:
            break
    # later eliminations rescale earlier rows, so read the live pivot
    # entries for back-substitution; the reported pivots stay the
    # is_zero-tested quantities
    live = [work[i][pivot_cols[i]] for i in range(len(pivot_cols))]
    free_cols = [c for c in range(n) if c not in pivot_cols]
    vectors = []
    total = patch.one()
    for p in live:
        total = total * p
    for f in free_cols:
        vec = [patch.zero()] * n
        vec[f] = total
        for row_idx, c in enumerate(pivot_cols):
            entry = work[row_idx][f]
            if entry.is_zero():
                continue
            scale = patch.one()
            for k, p in enumerate(live):
                if k != row_idx:
                    scale = scale * p
            vec[c] = -entry * scale
        vectors.append(vec)
    return vectors, pivots
