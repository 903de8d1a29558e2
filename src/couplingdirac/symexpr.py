"""Exact scalar expressions: trig-polynomials over the rationals.

Includes the text grammar parser (bottom of file):

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' NAT)?
    atom   := RATIONAL | IDENT | '(' expr ')'
            | ('sin'|'cos') '(' NAT? '*'? IDENT ')'

Whitespace is insignificant.  RATIONAL is INT('/'NAT)?; the integer sign
is recognized only where an atom is expected, so ``x - 2`` subtracts
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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import (
    AngleDisciplineError,
    ExpressionSyntaxError,
    PatchError,
    PatchMismatchError,
    UnknownCoordinateError,
    quote,
)

COS = 0
SIN = 1

# term key pieces: monomial ((coord, exp), ...) and trig word ((coord, kind, k), ...)
Mono = tuple  # tuple[tuple[int, int], ...]
Trig = tuple  # tuple[tuple[int, int, int], ...]
Key = tuple   # tuple[Mono, Trig]

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
    """An ordered tuple of named coordinates; the home of expressions."""

    __slots__ = ("coords", "_index")

    def __init__(self, coords: Iterable[Coordinate]):
        coords = tuple(coords)
        if not coords:
            raise PatchError("a patch needs at least one coordinate")
        names = [c.name for c in coords]
        if len(set(names)) != len(names):
            raise PatchError(f"duplicate coordinate names in {quote(names)}")
        self.coords = coords
        self._index = {c.name: i for i, c in enumerate(coords)}

    @classmethod
    def build(cls, names: str | Sequence[str], angles: Sequence[str] = (), role: str = "fiber") -> "Patch":
        if isinstance(names, str):
            names = names.split()
        return cls(Coordinate(n, role=role, angle=(n in angles)) for n in names)

    # -- lookup ------------------------------------------------------------
    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownCoordinateError(
                f"unknown coordinate {quote(name)}") from None

    def coordinate(self, name: str) -> Coordinate:
        return self.coords[self.index(name)]

    @property
    def names(self) -> tuple:
        return tuple(c.name for c in self.coords)

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
        return _expr(self, {((), ()): 1})

    def rational(self, value: RationalLike) -> "ScalarExpr":
        if type(value) is not int:
            value = _coefficient(Fraction(value))
        return _expr(self, {((), ()): value} if value else {})

    def coord(self, name: str) -> "ScalarExpr":
        i = self.index(name)
        if self.coords[i].angle:
            raise AngleDisciplineError(
                f"angle coordinate {name!r} may appear only inside sin/cos")
        return _expr(self, {(((i, 1),), ()): 1})

    def trig(self, kind: int, k: int, name: str) -> "ScalarExpr":
        """sin(k*name) for kind=SIN, cos(k*name) for kind=COS."""
        i = self.index(name)
        if not self.coords[i].angle:
            raise AngleDisciplineError(
                f"non-angle coordinate {name!r} inside sin/cos")
        if k < 0:
            raise ValueError("trig frequency must be a natural number")
        if k == 0:
            return self.one() if kind == COS else self.zero()
        return _expr(self, {((), ((i, kind, k),)): 1})

    def parse(self, text: str) -> "ScalarExpr":
        return parse(text, self)


def _coefficient(c):
    """An exact rational coefficient as ``int`` when it is integral."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def _check_patch(a: "ScalarExpr", b: "ScalarExpr") -> None:
    if a.patch is not b.patch and a.patch != b.patch:
        raise PatchMismatchError("expressions live on different patches")


def _combine_same_angle(kind1: int, k1: int, kind2: int, k2: int):
    """Product-to-sum rewrite of two factors on the same angle.

    Returns a list of (kind_or_None, frequency, weight); ``None`` means
    the factor collapsed to the constant 1 (frequency zero cosine).
    """
    lo, hi = abs(k1 - k2), k1 + k2
    half = Fraction(1, 2)
    if kind1 == COS and kind2 == COS:
        out = [(COS, lo, half), (COS, hi, half)]
    elif kind1 == SIN and kind2 == SIN:
        out = [(COS, lo, half), (COS, hi, -half)]
    else:
        # sin(a)cos(b) = (sin(a+b) + sin(a-b)) / 2, with sin on frequency ka
        ka = k1 if kind1 == SIN else k2
        kb = k2 if kind1 == SIN else k1
        d = ka - kb
        out = [(SIN, hi, half)]
        if d > 0:
            out.append((SIN, d, half))
        elif d < 0:
            out.append((SIN, -d, -half))
    result = []
    for kind, k, w in out:
        if k == 0:
            if kind == COS:
                result.append((None, 0, w))
            # sin(0) contributes nothing
        else:
            result.append((kind, k, w))
    return result


def _mul_trig(t1: Trig, t2: Trig):
    """Multiply two trig words; yields (trig_word, weight) branches."""
    branches = [([], 1)]
    i = j = 0
    while i < len(t1) or j < len(t2):
        if j >= len(t2) or (i < len(t1) and t1[i][0] < t2[j][0]):
            fac, i = t1[i], i + 1
            for word, _ in branches:
                word.append(fac)
        elif i >= len(t1) or t2[j][0] < t1[i][0]:
            fac, j = t2[j], j + 1
            for word, _ in branches:
                word.append(fac)
        else:
            idx = t1[i][0]
            pieces = _combine_same_angle(t1[i][1], t1[i][2], t2[j][1], t2[j][2])
            i, j = i + 1, j + 1
            new_branches = []
            for word, w in branches:
                for kind, k, piece_w in pieces:
                    nw = list(word)
                    if kind is not None:
                        nw.append((idx, kind, k))
                    new_branches.append((nw, w * piece_w))
            branches = new_branches
    return [(tuple(word), w) for word, w in branches]


def _mul_mono(m1: Mono, m2: Mono) -> Mono:
    if not m1:
        return m2
    if not m2:
        return m1
    exps = {}
    for i, e in m1:
        exps[i] = exps.get(i, 0) + e
    for i, e in m2:
        exps[i] = exps.get(i, 0) + e
    return tuple(sorted(exps.items()))


class ScalarExpr:
    """Immutable canonical trig-polynomial over a fixed patch."""

    __slots__ = ("patch", "terms", "_support")

    def __init__(self, patch: Patch, terms: Mapping[Key, RationalLike]):
        self.patch = patch
        self.terms = {k: _coefficient(v) for k, v in terms.items() if v}

    # -- ring structure ------------------------------------------------------
    def _coerce(self, other) -> "ScalarExpr":
        if isinstance(other, ScalarExpr):
            _check_patch(self, other)
            return other
        if isinstance(other, (int, Fraction)):
            return self.patch.rational(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        get = terms.get
        for key, c in other.terms.items():
            s = get(key, 0) + c
            if s:
                terms[key] = s if type(s) is int else _coefficient(s)
            else:
                del terms[key]
        return _expr(self.patch, terms)

    __radd__ = __add__

    def __neg__(self):
        return _expr(self.patch, {k: -c for k, c in self.terms.items()})

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
        terms: dict = {}
        get = terms.get
        right = other.terms.items()
        for (m1, t1), c1 in self.terms.items():
            for (m2, t2), c2 in right:
                mono = _mul_mono(m1, m2)
                if t1 and t2:
                    base = c1 * c2
                    products = [((mono, trig), base * w)
                                for trig, w in _mul_trig(t1, t2)]
                else:  # a trig-free side: the other word is the product
                    products = (((mono, t1 or t2), c1 * c2),)
                for key, c in products:
                    s = get(key, 0) + c
                    if s:
                        terms[key] = s if type(s) is int else _coefficient(s)
                    else:
                        del terms[key]
        return _expr(self.patch, terms)

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
            if key == ((), ()):
                return Fraction(c)
        return None

    def coordinates_used(self) -> frozenset:
        """Indices of the coordinates occurring in some term, as a frozenset
        computed on the first call and returned as is after that."""
        try:
            return self._support
        except AttributeError:
            used = self._support = frozenset(
                [i for mono, _ in self.terms for i, _ in mono]
                + [i for _, trig in self.terms for i, _, _ in trig])
            return used

    # -- calculus ------------------------------------------------------------
    def differentiate(self, coord: str | Coordinate) -> "ScalarExpr":
        name = coord.name if isinstance(coord, Coordinate) else coord
        i = self.patch.index(name)
        angle = self.patch.coords[i].angle
        out: dict = {}
        get = out.get
        for (mono, trig), c in self.terms.items():
            if not angle:
                for pos, (j, e) in enumerate(mono):
                    if j == i:
                        rest = mono[:pos] + ((j, e - 1),) * (e > 1) + mono[pos + 1:]
                        key = (rest, trig)
                        s = get(key, 0) + c * e
                        if s:
                            out[key] = s if type(s) is int else _coefficient(s)
                        else:
                            del out[key]
                        break
            else:
                for pos, (j, kind, k) in enumerate(trig):
                    if j == i:
                        newkind = COS if kind == SIN else SIN
                        factor = k if kind == SIN else -k
                        rest = trig[:pos] + ((j, newkind, k),) + trig[pos + 1:]
                        key = (mono, rest)
                        s = get(key, 0) + c * factor
                        if s:
                            out[key] = s if type(s) is int else _coefficient(s)
                        else:
                            del out[key]
                        break
        return _expr(self.patch, out)

    def angle_average(self, coord: str | Coordinate) -> "ScalarExpr":
        """Fourier constant term in the given angle coordinate."""
        name = coord.name if isinstance(coord, Coordinate) else coord
        i = self.patch.index(name)
        if not self.patch.coords[i].angle:
            raise AngleDisciplineError(f"{name!r} is not an angle coordinate")
        keep = {key: c for key, c in self.terms.items()
                if all(j != i for j, _, _ in key[1])}
        return _expr(self.patch, keep)

    # -- substitution and evaluation ------------------------------------------
    def substitute(self, assignments: Mapping[str, object], target: Patch | None = None) -> "ScalarExpr":
        """Substitute coordinates; the result lives on ``target`` (default: same patch).

        Non-angle coordinates may be sent to rationals or expressions on the
        target patch; angle coordinates only to angle coordinates (by name or
        :class:`Coordinate`).  Unassigned coordinates must exist on the target
        patch with the same angle flag.
        """
        target = target or self.patch
        cache: dict = {}

        def value_for(i: int):
            if i in cache:
                return cache[i]
            src = self.patch.coords[i]
            if src.name in assignments:
                val = assignments[src.name]
                if src.angle:
                    if isinstance(val, Coordinate):
                        val = val.name
                    if not isinstance(val, str):
                        raise AngleDisciplineError(
                            f"angle coordinate {src.name!r} may only be renamed "
                            f"to another angle coordinate")
                    if not target.coordinate(val).angle:
                        raise AngleDisciplineError(
                            f"angle coordinate {src.name!r} mapped to non-angle {val!r}")
                    cache[i] = ("angle", target.index(val))
                else:
                    if isinstance(val, str):
                        val = target.parse(val)
                    elif isinstance(val, (int, Fraction)):
                        val = target.rational(val)
                    elif isinstance(val, Coordinate):
                        val = target.coord(val.name)
                    if not isinstance(val, ScalarExpr) or val.patch != target:
                        raise PatchMismatchError(
                            f"substitution value for {src.name!r} is not an "
                            f"expression on the target patch")
                    cache[i] = ("expr", val)
            else:
                j = target.index(src.name)
                if target.coords[j].angle != src.angle:
                    raise AngleDisciplineError(
                        f"coordinate {src.name!r} changes angle status across patches")
                cache[i] = ("angle", j) if src.angle else ("expr", target.coord(src.name))
            return cache[i]

        total = target.zero()
        for (mono, trig), c in self.terms.items():
            term = target.rational(c)
            for i, e in mono:
                kind, val = value_for(i)
                term = term * (val ** e)
            for i, tkind, k in trig:
                kind, j = value_for(i)
                if kind != "angle":
                    raise AngleDisciplineError(
                        f"angle coordinate {self.patch.coords[i].name!r} may only be "
                        f"renamed to another angle coordinate")
                term = term * target.trig(tkind, k, target.coords[j].name)
            total = total + term
        return total

    def evaluate(self, values: Mapping[str, float]) -> float:
        """Numeric evaluation (floats); used as an independent test oracle."""
        total = 0.0
        for (mono, trig), c in self.terms.items():
            v = float(c)
            for i, e in mono:
                v *= float(values[self.patch.coords[i].name]) ** e
            for i, kind, k in trig:
                th = float(values[self.patch.coords[i].name])
                v *= math.sin(k * th) if kind == SIN else math.cos(k * th)
            total += v
        return total

    # -- printing --------------------------------------------------------------
    def _term_str(self, key: Key, coeff: Fraction, lead: bool) -> str:
        mono, trig = key
        factors = []
        for i, e in mono:
            name = self.patch.coords[i].name
            factors.append(name if e == 1 else f"{name}^{e}")
        for i, kind, k in trig:
            name = self.patch.coords[i].name
            fn = "sin" if kind == SIN else "cos"
            arg = name if k == 1 else f"{k}*{name}"
            factors.append(f"{fn}({arg})")
        c = coeff if lead else abs(coeff)
        if not factors or abs(c) != 1 or (lead and c < 0):
            factors.insert(0, str(c))
        return "*".join(factors)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        items = sorted(self.terms.items())
        parts = [self._term_str(items[0][0], items[0][1], lead=True)]
        for key, c in items[1:]:
            parts.append(" - " if c < 0 else " + ")
            parts.append(self._term_str(key, c, lead=False))
        return "".join(parts)

    def __repr__(self) -> str:
        return f"ScalarExpr({self})"


def _expr(patch: Patch, terms: dict) -> ScalarExpr:
    """A ScalarExpr that owns ``terms`` as given.

    The ring operations build their results here: their tables hold no
    zero coefficient and no integral ``Fraction`` already, so the public
    constructor's filtering pass would be wasted work.  The coordinate
    support is left unset until :meth:`ScalarExpr.coordinates_used`.
    """
    e = object.__new__(ScalarExpr)
    e.patch = patch
    e.terms = terms
    return e

# --------------------------------------------------------------------------
# parsing

_SYMBOLS = "+-*^/()"

# Parentheses are the parser's only recursion (four frames a level), so
# this cap keeps any input far from the interpreter's recursion limit.
_MAX_NESTING = 100


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in _SYMBOLS:
            tokens.append((ch, ch, i))
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("NUM", text[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("IDENT", text[i:j], i))
            i = j
        else:
            raise ExpressionSyntaxError(f"unexpected character {quote(ch)}", i)
    tokens.append(("END", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, patch: Patch):
        self.text = text
        self.patch = patch
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

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
        tok = self.peek()
        if tok[0] != "END":
            raise ExpressionSyntaxError(f"unexpected {quote(tok[1])}", tok[2])
        return value

    def expr(self) -> ScalarExpr:
        value = self.term()
        while self.peek()[0] in "+-":
            op = self.advance()[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> ScalarExpr:
        value = self.factor()
        while self.peek()[0] == "*":
            self.advance()
            value = value * self.factor()
        return value

    def factor(self) -> ScalarExpr:
        value = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            value = value ** self.natural()
        return value

    def natural(self) -> int:
        tok = self.expect("NUM")
        try:
            return int(tok[1])
        except ValueError:  # past the interpreter's integer-string limit
            raise ExpressionSyntaxError(
                f"number {quote(tok[1])} is too long", tok[2]) from None

    def rational(self, sign: int) -> ScalarExpr:
        num = sign * self.natural()
        if self.peek()[0] == "/":
            self.advance()
            pos = self.peek()[2]
            den = self.natural()
            if den == 0:
                raise ExpressionSyntaxError("zero denominator", pos)
            return self.patch.rational(Fraction(num, den))
        return self.patch.rational(num)

    def atom(self) -> ScalarExpr:
        kind, value, pos = self.peek()
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
        if kind == "-":
            # a signed INT is only recognized where an atom is expected
            if self.tokens[self.pos + 1][0] == "NUM":
                self.advance()
                return self.rational(-1)
            raise ExpressionSyntaxError("unexpected '-'", pos)
        if kind == "NUM":
            return self.rational(1)
        if kind == "IDENT":
            if value in ("sin", "cos"):
                return self.trig_atom(SIN if value == "sin" else COS)
            self.advance()
            return self.coord_atom(value, pos)
        raise ExpressionSyntaxError(
            f"expected an atom, found {quote(value or 'end of input')}", pos)

    def coord_atom(self, name: str, pos: int) -> ScalarExpr:
        if name not in self.patch:
            raise UnknownCoordinateError(
                f"unknown coordinate {quote(name)}", pos)
        if self.patch.coordinate(name).angle:
            raise AngleDisciplineError(
                f"angle coordinate {quote(name)} may appear only inside "
                f"sin/cos", pos)
        return self.patch.coord(name)

    def trig_atom(self, kind: int) -> ScalarExpr:
        self.advance()  # sin / cos
        self.expect("(")
        k = 1
        if self.peek()[0] == "NUM":
            k = self.natural()
            if self.peek()[0] == "*":
                self.advance()
        tok = self.expect("IDENT")
        name, pos = tok[1], tok[2]
        if name not in self.patch:
            raise UnknownCoordinateError(
                f"unknown coordinate {quote(name)}", pos)
        if not self.patch.coordinate(name).angle:
            raise AngleDisciplineError(
                f"non-angle coordinate {quote(name)} inside sin/cos", pos)
        self.expect(")")
        return self.patch.trig(kind, k, name)


def parse(text: str, patch: Patch) -> ScalarExpr:
    """Parse ``text`` into a canonical expression on ``patch``."""
    return _Parser(text, patch).parse()
