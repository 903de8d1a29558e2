"""Exact scalar expressions: trig-polynomials over the rationals.

Includes the text grammar parser (bottom of file):

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' NAT)?
    atom   := RATIONAL | IDENT | '(' expr ')'
            | ('sin'|'cos') '(' NAT? '*'? IDENT ')'

Whitespace is insignificant.  RATIONAL is INT('/'NAT)?; the integer sign
is recognized only where a factor is expected, so ``x - 2`` subtracts
while ``-2*x`` starts with a negative rational.

An expression is a finite sum of terms

    c * x_{i1}^{e1} * ... * sin(k*theta) * cos(m*phi) * ...

with ``c`` a nonzero rational, polynomial factors only in non-angle
coordinates and at most one ``sin``/``cos`` factor per angle coordinate
(Fourier-normal form; products of factors on the same angle are
rewritten with the product-to-sum identities).  The normal form is
canonical: two expressions are equal as functions iff their term tables
are identical, so ``is_zero`` is a dictionary lookup.

A coefficient is a plain ``int`` whenever it is integral and a
:class:`fractions.Fraction` only otherwise (a parsed ``1/3``, the halves
of the product-to-sum rules, exact division).  Equality, hashing and
printing do not depend on the type, but integer arithmetic is far
cheaper than ``Fraction`` arithmetic, and most coefficients stay small
integers.

A term is keyed by one packed ``int`` (Monagan and Pearce, "Polynomial
division using dynamic arrays, heaps, and packed exponent vectors", CASC
2007): coordinate ``i`` owns the W = 32 bits from bit ``W*i`` up.  A
non-angle coordinate's field holds its exponent, so ``x_i^e`` is
``e << (W*i)`` and a product of monomials is one integer addition.  An
angle coordinate's field holds ``2k + kind`` for the factor ``cos(k*t)``
(kind COS = 0) or ``sin(k*t)`` (kind SIN = 1), and 0 when the term has
no factor on that angle; a derivative along the angle flips the kind
bit.  The top bit of each field is a guard: every exponent stays below
2^(W-1) = 2^31, fields never carry into each other, and a product or a
parsed exponent that reaches 2^31 raises :class:`ExpressionError`
instead; each patch keeps the mask of its own fields' guard bits, so the
check covers a patch of any size.  Every frequency stays below 2^30,
half the exponent bound, so an angle's field stays below the guard bit,
and exact division can shift an angle's z exponents -k..k by its largest
frequency k into its field; one that reaches 2^30, parsed or formed by a
product, raises :class:`ExpressionError`.  A product adds keys, and only
an angle field that both terms use goes through product-to-sum.  The
printer orders terms as ``(((coordinate, exponent), ...), ((angle,
kind, frequency), ...))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import add, or_, sub
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import (
    AngleDisciplineError,
    ExpressionError,
    ExpressionSyntaxError,
    PatchError,
    PatchMismatchError,
    UnknownCoordinateError,
    quote,
)

COS = 0
SIN = 1

_ONE_KEY = 0  # the key of the constant term

_WIDTH = 32  # bits per coordinate field of a packed term key
_LIMIT = 1 << (_WIDTH - 1)  # the guard bit: every exponent stays below it
_FREQUENCY = _LIMIT >> 1  # every trig frequency stays below it
_FIELD = (1 << _WIDTH) - 1

RationalLike = Union[int, Fraction]

_RESERVED = {"sin", "cos"}


@dataclass(frozen=True)
class Coordinate:
    """A named patch coordinate with a role and an angle flag."""

    name: str
    role: str = "fiber"
    angle: bool = False

    def __post_init__(self):
        if self.role not in ("base", "fiber"):
            raise PatchError(f"coordinate role must be 'base' or 'fiber', got {quote(self.role)}")
        if not self.name.isidentifier() or self.name in _RESERVED:
            raise PatchError(f"bad coordinate name {quote(self.name)}")


class Patch:
    """An ordered tuple of named coordinates; the home of expressions.

    ``_guard`` has the guard bit of every coordinate's field set,
    ``_angles`` every bit of every angle coordinate's field, and
    ``_names`` holds the names the printer writes."""

    __slots__ = ("coords", "_index", "_guard", "_angles", "_names")

    def __init__(self, coords: Iterable[Coordinate]):
        coords = tuple(coords)
        if not coords:
            raise PatchError("a patch needs at least one coordinate")
        names = [c.name for c in coords]
        if len(set(names)) != len(names):
            raise PatchError(f"duplicate coordinate names in {quote(names)}")
        self.coords = coords
        self._index = {c.name: i for i, c in enumerate(coords)}
        self._guard = sum(_LIMIT << (_WIDTH * i) for i in range(len(coords)))
        self._angles = sum(_FIELD << (_WIDTH * i)
                           for i, c in enumerate(coords) if c.angle)
        self._names = tuple(names)

    @classmethod
    def build(cls, names: str | Sequence[str], angles: Sequence[str] = (), role: str = "fiber") -> "Patch":
        if isinstance(names, str):
            names = names.split()
        return cls(Coordinate(n, role=role, angle=(n in angles)) for n in names)

    # -- lookup ------------------------------------------------------------
    def index(self, ref: str | Coordinate | int) -> int:
        """The position of a coordinate given by name, by ``Coordinate``
        (looked up by its name) or by position."""
        if type(ref) is int:
            if 0 <= ref < len(self.coords):
                return ref
            raise PatchError(f"coordinate index {ref} is outside the patch")
        name = ref.name if isinstance(ref, Coordinate) else ref
        try:
            return self._index[name]
        except KeyError:
            raise UnknownCoordinateError(
                f"unknown coordinate {quote(name)}") from None

    def coordinate(self, name: str) -> Coordinate:
        return self.coords[self.index(name)]

    @property
    def names(self) -> tuple:
        return self._names

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self) -> Iterator[Coordinate]:
        return iter(self.coords)

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, Patch)
                                 and self.coords == other.coords)

    def __hash__(self) -> int:
        return hash(self.coords)

    def __repr__(self) -> str:
        return f"Patch({', '.join(self.names)})"

    # -- expression factories ----------------------------------------------
    def zero(self) -> "ScalarExpr":
        return _expr(self, {})

    def one(self) -> "ScalarExpr":
        return _expr(self, {_ONE_KEY: 1})

    def rational(self, value: RationalLike) -> "ScalarExpr":
        if type(value) is not int:
            if not isinstance(value, (int, Fraction)):
                raise ExpressionError(
                    f"a rational must be an int or a Fraction, not {quote(value)}")
            value = _coefficient(Fraction(value))
        return _expr(self, {_ONE_KEY: value} if value else {})

    def coord(self, name: str) -> "ScalarExpr":
        i = self.index(name)
        if self.coords[i].angle:
            raise AngleDisciplineError(
                f"angle coordinate {name!r} may appear only inside sin/cos")
        return _expr(self, {1 << (_WIDTH * i): 1})

    def trig(self, kind: int, k: int, name: str) -> "ScalarExpr":
        """sin(k*name) for kind=SIN, cos(k*name) for COS; 0 <= k < 2^30."""
        i = self.index(name)
        if not self.coords[i].angle:
            raise AngleDisciplineError(
                f"non-angle coordinate {name!r} inside sin/cos")
        if not (type(kind) is type(k) is int and kind in (COS, SIN)
                and k >= 0):
            raise ExpressionError(f"bad sin/cos kind {quote(kind)} or "
                                  f"frequency {quote(k)}")
        if k >= _FREQUENCY:
            raise _too_high(f"the frequency of {quote(self.coords[i].name)}")
        if k == 0:
            return self.one() if kind == COS else self.zero()
        return _expr(self, {(2 * k + kind) << (_WIDTH * i): 1})

    def parse(self, text: str) -> "ScalarExpr":
        return parse(text, self)


def _coefficient(c):
    """An exact rational coefficient as ``int`` when it is integral."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def _add_terms(table: dict, pairs, op=add) -> dict:
    """Merge ``(key, value)`` pairs into ``table`` in order, as ``table[key]
    = op(table[key], value)`` for ``op`` ``add`` or ``sub`` (a missing key
    takes ``value`` or ``-value``); returns ``table``.

    This is the one place where a term table is kept canonical: a key
    whose value cancels is dropped, and an integral ``Fraction`` is stored
    as an ``int``.  Values may be ring rationals, Gaussian rationals,
    expressions or quotients; only ``Fraction`` values are normalized.
    """
    get = table.get
    negate = op is sub
    for key, c in pairs:
        prev = get(key)
        if prev is not None:
            c = op(prev, c)
        elif negate:
            c = -c
        if not c:
            table.pop(key, None)
        elif type(c) is Fraction and c.denominator == 1:
            table[key] = c.numerator
        else:
            table[key] = c
    return table


def _check_patch(a: "ScalarExpr", b: "ScalarExpr") -> None:
    if a.patch is not b.patch and a.patch != b.patch:
        raise PatchMismatchError("expressions live on different patches")


def _same_angle(f1: int, f2: int) -> list:
    """Product-to-sum rewrite of the factors whose angle fields are ``f1``
    and ``f2``: ``[(field, weight), ...]``, field 0 the constant 1.

        cos a cos b = (cos(a-b) + cos(a+b)) / 2
        sin a sin b = (cos(a-b) - cos(a+b)) / 2
        sin a cos b = (sin(a+b) + sin(a-b)) / 2
    """
    k1, k2 = f1 >> 1, f2 >> 1
    if k1 + k2 >= _FREQUENCY:
        raise _too_high("a frequency of a product")
    half = Fraction(1, 2)
    if not (f1 ^ f2) & 1:  # one kind: cosines of the difference and sum
        return [(2 * abs(k1 - k2), half),
                (2 * (k1 + k2), -half if f1 & 1 else half)]
    d = k1 - k2 if f1 & 1 else k2 - k1  # the sine's frequency minus the cosine's
    out = [(2 * (k1 + k2) + SIN, half)]
    if d:
        out.append((2 * abs(d) + SIN, half if d > 0 else -half))
    return out


def _same_angles(mono: int, angles: int, other: int, c) -> list:
    """The terms of a product of two terms whose keys sum to ``mono``:
    ``angles`` is one key's angle fields and ``other`` the other key, and
    every angle field both use is rewritten by :func:`_same_angle`."""
    out = [(mono, c)]
    for i, f1 in _unpack(angles):
        shift = _WIDTH * i
        f2 = other >> shift & _FIELD
        if f2:
            out = [(m + ((f - f1 - f2) << shift), b * w) for m, b in out
                   for f, w in _same_angle(f1, f2)]
    return out


def _term_products(out: list, left: dict, right: dict, patch: Patch,
                   negate: bool = False) -> None:
    """Append the term products of the tables ``left`` and ``right`` on
    ``patch`` to ``out``, negated if ``negate``.  Keys add, and only an
    angle field both terms use goes through :func:`_same_angles`."""
    angles = patch._angles
    guard = patch._guard & ~angles  # the exponent fields' guards
    right = right.items()
    for m1, c1 in left.items():
        if negate:
            c1 = -c1
        a1 = m1 & angles
        for m2, c2 in right:
            mono = m1 + m2
            if mono & guard:
                raise _too_large("an exponent of a product")
            if a1 and m2 & angles:
                out += _same_angles(mono, a1, m2, c1 * c2)
            else:  # at most one side has trig factors: keys add
                out.append((mono, c1 * c2))


def _unpack(mono: int) -> tuple:
    """A packed key as ``((coordinate, field), ...)`` in increasing
    coordinate order: one step per nonzero field, from the top one down."""
    out = []
    while mono:
        i = (mono.bit_length() - 1) // _WIDTH
        e = mono >> (_WIDTH * i)
        out.append((i, e))
        mono -= e << (_WIDTH * i)
    out.reverse()
    return tuple(out)


def _too_large(what: str, position: int | None = None) -> ExpressionError:
    return ExpressionError(
        f"{what} reaches 2^{_WIDTH - 1}: exponents must stay below it",
        position)


def _too_high(what: str) -> ExpressionError:
    return ExpressionError(
        f"{what} reaches 2^{_WIDTH - 2}: frequencies must stay below it")


class ScalarExpr:
    """Immutable canonical trig-polynomial over a fixed patch."""

    __slots__ = ("patch", "terms", "_support")

    # -- ring structure ------------------------------------------------------
    def _coerce(self, other) -> "ScalarExpr":
        if isinstance(other, ScalarExpr):
            _check_patch(self, other)
            return other
        if isinstance(other, (int, Fraction)):
            return self.patch.rational(other)
        return NotImplemented  # type: ignore[return-value]

    def _combine(self, other, op):
        """self + other or self - other for ``op`` ``add`` or ``sub``, in
        one pass over ``other``'s terms; a zero operand costs no ring work."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return other if op is add else -other
        return _expr(self.patch,
                     _add_terms(dict(self.terms), other.terms.items(), op))

    def __add__(self, other):
        return self._combine(other, add)

    __radd__ = __add__

    def __neg__(self):
        return _expr(self.patch, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self._combine(other, sub)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """The product; a zero operand is returned as is, a constant one
        returns the other operand or scales its coefficients, and only
        two non-constant operands multiply term by term."""
        if type(other) is not ScalarExpr or other.patch is not self.patch:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        left, right = self.terms, other.terms
        if not left:
            return self
        if not right:
            return other
        if len(right) == 1 and _ONE_KEY in right:
            return _scaled(self, right[_ONE_KEY])
        if len(left) == 1 and _ONE_KEY in left:
            return _scaled(other, left[_ONE_KEY])
        products = []
        _term_products(products, left, right, self.patch)
        return _expr(self.patch, _add_terms({}, products))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponents must be natural numbers")
        out, square = self.patch.one(), self
        while n:
            if n & 1:
                out = out * square
            n >>= 1
            if n:
                square = square * square
        return out

    # -- predicates ----------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.patch.rational(other)
        if not isinstance(other, ScalarExpr):
            return NotImplemented
        return self.patch == other.patch and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.patch, frozenset(self.terms.items())))

    def as_rational(self) -> Fraction | None:
        """The value as a Fraction when the expression is constant, else None."""
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1:
            (key, c), = self.terms.items()
            if key == _ONE_KEY:
                return Fraction(c)
        return None

    def coordinates_used(self) -> frozenset:
        """Indices of the coordinates occurring in some term, as a frozenset
        computed on the first call and returned as is after that."""
        try:
            return self._support
        except AttributeError:
            used = self._support = frozenset(
                i for i, _ in _unpack(self._key_union()))
            return used

    def _key_union(self) -> int:
        """The OR of the packed term keys: coordinate ``i``'s field is
        nonzero exactly when some term uses ``i``."""
        return reduce(or_, self.terms, 0)

    # -- calculus ------------------------------------------------------------
    def differentiate(self, coord: str | Coordinate | int) -> "ScalarExpr":
        i = self.patch.index(coord)
        partial = self._gradient(_FIELD << (_WIDTH * i))
        return partial[i] if partial else self.patch.zero()

    def _gradient(self, fields: int = -1) -> dict:
        """``{i: d/dx_i self}``, in increasing ``i``, for each coordinate
        used whose field meets the mask ``fields``, from one walk over the
        terms.  These partials are nonzero and distinct terms have distinct
        partial keys, so nothing is merged."""
        angles = self.patch._angles
        tables: dict = {}
        for key, c in self.terms.items():
            rest = key & fields
            while rest:  # the term's fields, from the top one down
                i = (rest.bit_length() - 1) // _WIDTH
                shift = _WIDTH * i
                f = rest >> shift
                rest -= f << shift
                unit = 1 << shift
                # x^e' = e x^(e-1); cos(kt)' = -k sin(kt), sin(kt)' = k cos(kt)
                if angles & unit:
                    k = f >> 1
                    dkey, dc = key ^ unit, c * k if f & 1 else c * -k
                else:
                    dkey, dc = key - unit, c * f
                if type(dc) is Fraction:
                    dc = _coefficient(dc)
                table = tables.get(i)
                if table is None:
                    table = tables[i] = {}
                table[dkey] = dc
        if not tables:
            return tables
        patch = self.patch
        return {i: _expr(patch, tables[i]) for i in sorted(tables)}

    def angle_average(self, coord: str | Coordinate | int) -> "ScalarExpr":
        """Fourier constant term in the given angle coordinate."""
        i = self.patch.index(coord)
        if not self.patch.coords[i].angle:
            raise AngleDisciplineError(
                f"{self.patch.coords[i].name!r} is not an angle coordinate")
        field = _FIELD << (_WIDTH * i)
        return _expr(self.patch, {key: c for key, c in self.terms.items()
                                  if not key & field})

    # -- substitution ---------------------------------------------------------
    def substitute(self, values: Mapping[str, RationalLike], target: Patch) -> "ScalarExpr":
        """Evaluate at a point of some coordinates; the result lives on ``target``.

        Each coordinate named in ``values`` takes its value, an ``int`` or a
        :class:`fractions.Fraction`; an angle coordinate that occurs cannot
        take one.  Every other coordinate that occurs must exist on
        ``target`` with the same angle flag.
        """
        coords = self.patch.coords
        point = {}
        for name, value in values.items():
            if not isinstance(value, (int, Fraction)):
                raise ExpressionError(
                    f"the value of {name!r} must be an int or a Fraction, "
                    f"not {quote(value)}")
            point[self.patch.index(name)] = value
        where = {}  # index on the target of each other coordinate that occurs
        for i in self.coordinates_used():
            if i not in point:
                j = where[i] = target.index(coords[i].name)
                if target.coords[j].angle != coords[i].angle:
                    raise AngleDisciplineError(
                        f"coordinate {coords[i].name!r} changes angle status "
                        f"across patches")
            elif coords[i].angle:
                raise AngleDisciplineError(
                    f"angle coordinate {coords[i].name!r} cannot take a value")
        out = []
        for key, c in self.terms.items():
            moved = 0
            for i, e in _unpack(key):
                if i in point:
                    c = c * point[i] ** e
                else:
                    moved += e << (_WIDTH * where[i])
            out.append((moved, c))
        return _expr(target, _add_terms({}, out))

    # -- printing --------------------------------------------------------------
    def __str__(self) -> str:
        """Terms in increasing order of ``((coordinate, exponent), ...)``,
        then ``((angle, kind, frequency), ...)``; the first carries its
        sign, the others are joined by `` + `` or `` - ``.  Each key is
        unpacked once, and only ``int`` coefficients are compared: a
        ``Fraction``'s sign is read off its text."""
        if not self.terms:
            return "0"
        names = self.patch._names
        angles = self.patch._angles
        monos = ~angles
        # the trig word of each distinct set of angle fields, built once
        words = {trig: tuple([(i, f & 1, f >> 1) for i, f in _unpack(trig)])
                 for trig in {key & angles for key in self.terms}}
        parts = []
        try:
            for (pairs, word), c in sorted([
                    ((_unpack(key & monos), words[key & angles]), c)
                    for key, c in self.terms.items()]):
                if type(c) is int:
                    if parts:
                        parts.append(" - " if c < 0 else " + ")
                        c = abs(c)
                    text = "" if c == 1 else str(c)
                else:
                    text = str(c)
                    if parts:
                        negative = text[0] == "-"
                        parts.append(" - " if negative else " + ")
                        text = text[negative:]
                parts.append(_term_str(names, pairs, word, text))
        except ValueError:  # past the interpreter's integer-string limit
            raise ExpressionError(
                "number too long to print: more decimal digits than the "
                "interpreter's integer-string limit") from None
        return "".join(parts)

    def __repr__(self) -> str:
        return f"ScalarExpr({self})"


def _term_str(names: tuple, pairs: tuple, word: tuple, coeff: str) -> str:
    """One term: ``coeff``, the empty string for a unit coefficient, then
    the factors of its ``(coordinate, exponent)`` pairs and of its trig
    word."""
    factors = [names[i] if e == 1 else f"{names[i]}^{e}" for i, e in pairs]
    for i, kind, k in word:
        fn = "sin" if kind == SIN else "cos"
        factors.append(f"{fn}({names[i]})" if k == 1
                       else f"{fn}({k}*{names[i]})")
    if coeff or not factors:
        factors.insert(0, coeff or "1")
    return "*".join(factors)


def _scaled(e: ScalarExpr, c: RationalLike) -> ScalarExpr:
    """``e`` times the nonzero rational ``c``, coefficient by coefficient."""
    if c == 1:
        return e
    return _expr(e.patch, {k: _coefficient(v * c) for k, v in e.terms.items()})


def _expr(patch: Patch, terms: dict) -> ScalarExpr:
    """A ScalarExpr that owns ``terms`` as given.

    The ring operations build their results here: their tables come from
    :func:`_add_terms`, the one place terms are merged and the canonical
    form is kept, or from scaling a canonical table by a nonzero rational
    or differentiating it (``_gradient``), which keep keys distinct and
    store integral coefficients as ``int``.  So they hold no zero
    coefficient and no integral ``Fraction``.  The coordinate support is
    left unset until :meth:`ScalarExpr.coordinates_used`.
    """
    e = object.__new__(ScalarExpr)
    e.patch = patch
    e.terms = terms
    return e


def _sum_products(patch: Patch, plus, minus=()) -> dict:
    """``{key: sum of x*y over plus - sum of x*y over minus}`` over the
    ``(key, x, y)`` triples, zero sums left out.  As in Monagan and Pearce
    (CASC 2007), the term products of all of a key's ``ScalarExpr``
    triples on ``patch`` go into one list merged once by
    :func:`_add_terms`, a rational factor only scaling the other's terms;
    other operands multiply through their own ``__mul__``."""
    products: dict = {}
    rest = None  # (key, x*y) of the other triples: plus, minus
    for triples, negate in ((plus, False), (minus, True)):
        for key, x, y in triples:
            if (type(x) is ScalarExpr and type(y) is ScalarExpr
                    and x.patch is patch and y.patch is patch):
                out = products.get(key)
                if out is None:
                    out = products[key] = []
                xt, yt = x.terms, y.terms
                if len(xt) == 1 and _ONE_KEY in xt:  # a rational goes right
                    xt, yt = yt, xt
                if len(yt) == 1 and _ONE_KEY in yt:  # a rational: keys stay
                    c = -yt[_ONE_KEY] if negate else yt[_ONE_KEY]
                    out += xt.items() if c == 1 else [
                        (m, cx * c) for m, cx in xt.items()]
                else:
                    _term_products(out, xt, yt, patch, negate)
            else:
                if rest is None:
                    rest = ([], [])
                rest[negate].append((key, x * y))
    table = {}
    for key, out in products.items():
        if terms := _add_terms({}, out):
            table[key] = _expr(patch, terms)
    if rest is not None:
        _add_terms(_add_terms(table, rest[0]), rest[1], sub)
    return table

# --------------------------------------------------------------------------
# parsing

_SYMBOLS = "+-*^/()"

# Parentheses are the parser's only recursion (three frames a level), so
# this cap keeps any input far from the interpreter's recursion limit.
_MAX_NESTING = 100


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        j = i + 1
        if ch in _SYMBOLS:
            kind = ch
        elif ch.isdecimal():
            kind = "NUM"
            while j < n and text[j].isdecimal():
                j += 1
        elif ch.isalpha() or ch == "_":
            kind = "IDENT"
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
        else:
            raise ExpressionSyntaxError(f"unexpected character {quote(ch)}", i)
        tokens.append((kind, text[i:j], i))
        i = j
    tokens.append(("END", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, patch: Patch):
        self.patch = patch
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self) -> str:
        """The kind of the next token."""
        return self.tokens[self.pos][0]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.advance()
        if tok[0] != kind:
            raise ExpressionSyntaxError(
                f"expected {quote(kind)}, found "
                f"{quote(tok[1] or 'end of input')}", tok[2])
        return tok

    # grammar rules ---------------------------------------------------------
    def parse(self) -> ScalarExpr:
        value = self.expr()
        kind, text, pos = self.tokens[self.pos]
        if kind != "END":
            raise ExpressionSyntaxError(f"unexpected {quote(text)}", pos)
        return value

    def expr(self) -> ScalarExpr:
        """A sum of terms, merged into one table by one ``_add_terms``."""
        value = self.term()
        if self.peek() not in "+-":
            return value
        pairs = list(value.terms.items())
        while self.peek() in "+-":
            sign = 1 if self.advance()[0] == "+" else -1
            pairs += [(key, sign * c) for key, c in self.term().terms.items()]
        return _expr(self.patch, _add_terms({}, pairs))

    def term(self) -> ScalarExpr:
        """A product of factors.  Rational and bare-coordinate factors, with
        their powers, fold into one coefficient and one exponent map; only
        parenthesised and sin/cos factors multiply as expressions."""
        coeff, exps, rest = 1, {}, None
        while True:
            kind, name, pos = self.tokens[self.pos]
            # a signed INT is only recognized where a factor is expected
            if kind == "NUM" or (kind == "-"
                                 and self.tokens[self.pos + 1][0] == "NUM"):
                coeff *= self.rational() ** self.power()
            elif kind == "IDENT" and name not in _RESERVED:
                self.advance()
                i = self.coordinate(name, pos, False)
                e = exps[i] = exps.get(i, 0) + self.power()
                if e >= _LIMIT:
                    raise _too_large(f"the exponent of {quote(name)}", pos)
            else:
                factor = self.atom()
                if self.peek() == "^":
                    factor **= self.power()
                rest = factor if rest is None else rest * factor
            if self.peek() != "*":
                break
            self.advance()
        coeff = _coefficient(coeff)
        mono = sum(e << (_WIDTH * i) for i, e in exps.items())
        value = _expr(self.patch, {mono: coeff} if coeff else {})
        return value if rest is None else value * rest

    def power(self) -> int:
        """The exponent of a factor: the NAT after a ``^``, else 1."""
        if self.peek() != "^":
            return 1
        self.advance()
        return self.natural()

    def natural(self) -> int:
        tok = self.expect("NUM")
        try:
            return int(tok[1])
        except ValueError:  # past the interpreter's integer-string limit
            raise ExpressionSyntaxError(
                f"number {quote(tok[1])} is too long", tok[2]) from None

    def rational(self) -> RationalLike:
        """A signed INT, over the NAT after a ``/`` when one follows."""
        sign = 1
        if self.peek() == "-":
            self.advance()
            sign = -1
        num = sign * self.natural()
        if self.peek() != "/":
            return num
        self.advance()
        pos = self.tokens[self.pos][2]
        den = self.natural()
        if den == 0:
            raise ExpressionSyntaxError("zero denominator", pos)
        return Fraction(num, den)

    def coordinate(self, name: str, pos: int, angle: bool) -> int:
        """The index of the coordinate ``name``, which must be an angle
        inside sin/cos (``angle``) and not one elsewhere."""
        i = self.patch._index.get(name)
        if i is None:
            raise UnknownCoordinateError(
                f"unknown coordinate {quote(name)}", pos)
        if self.patch.coords[i].angle != angle:
            raise AngleDisciplineError(
                f"non-angle coordinate {quote(name)} inside sin/cos" if angle
                else f"angle coordinate {quote(name)} may appear only inside "
                f"sin/cos", pos)
        return i

    def atom(self) -> ScalarExpr:
        """A parenthesised expression or a sin/cos factor; ``term`` reads
        the rational and bare-coordinate factors itself."""
        kind, value, pos = self.tokens[self.pos]
        if kind == "(":
            if self.depth == _MAX_NESTING:
                raise ExpressionSyntaxError(
                    f"parentheses nested deeper than {_MAX_NESTING}", pos)
            self.advance()
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            self.expect(")")
            return inner
        if kind == "IDENT":  # sin or cos
            return self.trig_atom(SIN if value == "sin" else COS)
        if kind == "-":
            raise ExpressionSyntaxError("unexpected '-'", pos)
        raise ExpressionSyntaxError(
            f"expected an atom, found {quote(value or 'end of input')}", pos)

    def trig_atom(self, kind: int) -> ScalarExpr:
        start = self.advance()[2]  # sin / cos
        self.expect("(")
        k = 1
        if self.peek() == "NUM":
            k = self.natural()
            if self.peek() == "*":
                self.advance()
        _, name, pos = self.expect("IDENT")
        i = self.coordinate(name, pos, True)
        self.expect(")")
        try:
            return self.patch.trig(kind, k, i)
        except ExpressionError as exc:  # the frequency bound
            raise ExpressionError(exc.args[0], start) from None


def parse(text: str, patch: Patch) -> ScalarExpr:
    """Parse ``text`` into a canonical expression on ``patch``."""
    return _Parser(text, patch).parse()
