"""Multivector fields, differential forms, and the bracket calculus.

Both tensor kinds are sparse tables: strictly increasing coordinate-index
tuples mapped to nonzero scalar coefficients.  Coefficients are
:class:`~couplingdirac.symexpr.ScalarExpr` or, in the fraction-field
layer, :class:`~couplingdirac.fractionfield.RatExpr` values, which share
the ring/derivative/support protocol.

The public constructor checks every key and drops zero coefficients.
Every table the calculus builds is merged by
:func:`~couplingdirac.symexpr._add_terms`, the one place the canonical
form of a table is kept, and is trusted once built.  Derivatives follow
each coefficient's coordinate support (``coordinates_used()``), as every
other partial derivative is zero.

Sign conventions, fixed once and asserted by the tests:

* interior product by a decomposable ``X1^...^Xp`` contracts with ``X1``
  first, so ``contract(dq^dp-dual basis pair)`` is ``+1``;
* ``V(a, b) = sum_{i<j} V^ij (a_i b_j - a_j b_i)`` and
  ``sharp(V, a) = sum_{i<j} V^ij (a_i d_j - a_j d_i)``;
* the Schouten bracket restricts to the Lie bracket in degree one and to
  ``X(f)`` against functions.

Each operation has one implementation: ``lie_bracket`` is ``schouten``
in degree one, ``pairing_plus`` is half the sum of two ``pair`` calls,
and a Hamiltonian field is ``sharp(V, d_scalar(patch, f))``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from operator import add, sub
from typing import Mapping, Sequence

from .errors import (
    DegreeError, ExpressionError, PatchError, PatchMismatchError, quote)
from .fractionfield import RatExpr
from .symexpr import Patch, ScalarExpr, _add_terms


def _merge_indices(left: tuple, right: tuple):
    """Concatenate two increasing index tuples; returns (sign, merged) or None."""
    merged = []
    sign = 1
    i = j = 0
    while i < len(left) and j < len(right):
        a, b = left[i], right[j]
        if a == b:
            return None
        if a < b:
            merged.append(a)
            i += 1
        else:
            merged.append(b)
            j += 1
            if (len(left) - i) % 2:
                sign = -sign
    merged.extend(left[i:])
    merged.extend(right[j:])
    return sign, tuple(merged)


def _sort_indices(indices: Sequence[int]):
    """Sort an index tuple, tracking the permutation sign; None if repeated."""
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(idx)):
        if idx[i - 1] == idx[i]:
            return None
    return sign, tuple(idx)


def _scalar(patch: Patch, value):
    """An expression as is, an int or a Fraction as a constant expression."""
    if isinstance(value, (ScalarExpr, RatExpr)):
        return value
    if isinstance(value, (int, Fraction)):
        return patch.rational(value)
    raise ExpressionError(f"a coefficient must be an int, a Fraction or an "
                          f"expression, not {quote(value)}")


class _Alternating:
    """Shared sparse storage for multivectors and forms."""

    __slots__ = ("patch", "degree", "comps")

    def __init__(self, patch: Patch, degree: int, comps: Mapping[tuple, object]):
        if degree < 0:
            raise DegreeError("degree must be non-negative")
        self.patch = patch
        self.degree = degree
        table = {}
        for key, c in comps.items():
            if len(key) != degree:
                raise DegreeError(
                    f"index tuple {key} does not match degree {degree}")
            if any(key[i] >= key[i + 1] for i in range(len(key) - 1)):
                raise ValueError(f"index tuple {key} is not strictly increasing")
            if key and not (0 <= key[0] and key[-1] < len(patch)):
                raise PatchError(f"index tuple {key} is outside the patch")
            if c:
                table[key] = c
        self.comps = table

    @classmethod
    def _trusted(cls, patch: Patch, degree: int, table: dict):
        """A tensor owning ``table`` as given; the calculus builds it clean:
        keys of ``degree`` strictly increasing indices, no zero values."""
        t = object.__new__(cls)
        t.patch = patch
        t.degree = degree
        t.comps = table
        return t

    # -- construction helpers -------------------------------------------------
    @classmethod
    def zero(cls, patch: Patch, degree: int):
        return cls(patch, degree, {})

    @classmethod
    def from_scalar(cls, patch: Patch, value):
        return cls(patch, 0, {(): _scalar(patch, value)})

    @classmethod
    def build(cls, patch: Patch, degree: int, entries: Mapping[Sequence, object]):
        """Build from possibly unsorted name/index tuples, folding signs."""
        pairs = []
        for raw, c in entries.items():
            idx = tuple(map(patch.index, raw))
            c = _scalar(patch, c)
            hit = _sort_indices(idx)
            if hit is not None:
                pairs.append((hit[1], c if hit[0] > 0 else -c))
        return cls(patch, degree, _add_terms({}, pairs))

    @classmethod
    def basis(cls, patch: Patch, *names: str):
        return cls.build(patch, len(names), {tuple(names): patch.one()})

    def _check(self, other):
        if type(other) is not type(self):
            raise TypeError(
                f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if self.patch != other.patch:
            raise PatchMismatchError("tensors live on different patches")

    # -- linear structure -------------------------------------------------------
    def _combine(self, other, op):
        """self + other or self - other for ``op`` ``add`` or ``sub``, into
        one copy of ``self``'s table."""
        self._check(other)
        if self.degree != other.degree:
            raise DegreeError("cannot add tensors of different degrees")
        return self._trusted(self.patch, self.degree, _add_terms(
            dict(self.comps), other.comps.items(), op))

    def __add__(self, other):
        return self._combine(other, add)

    def __neg__(self):
        return self._trusted(self.patch, self.degree,
                             {k: -c for k, c in self.comps.items()})

    def __sub__(self, other):
        return self._combine(other, sub)

    def __mul__(self, scalar):
        if isinstance(scalar, (int, Fraction)):
            scalar = self.patch.rational(scalar)
        return type(self)(self.patch, self.degree,
                          {k: c * scalar for k, c in self.comps.items()})

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.comps

    def __bool__(self) -> bool:
        return bool(self.comps)

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and self.patch == other.patch
                and self.degree == other.degree and self.comps == other.comps)

    def __hash__(self):
        raise TypeError(f"{type(self).__name__} is unhashable")

    # -- access -------------------------------------------------------------------
    def coefficient(self, *names):
        """Component on the given coordinates (any order; sign folded in)."""
        if len(names) != self.degree:
            raise DegreeError(
                f"{len(names)} coordinates for a degree-{self.degree} tensor")
        idx = tuple(map(self.patch.index, names))
        hit = _sort_indices(idx)
        if hit is None:
            return self.patch.zero()
        sign, key = hit
        c = self.comps.get(key)
        if c is None:
            return self.patch.zero()
        return c if sign > 0 else -c

    def scalar(self):
        """The coefficient of a degree-0 tensor."""
        if self.degree != 0:
            raise DegreeError("scalar() needs a degree-0 tensor")
        return self.comps.get((), self.patch.zero())

    def items(self):
        return self.comps.items()

    def wedge(self, other):
        self._check(other)
        pairs = []
        for k1, c1 in self.comps.items():
            for k2, c2 in other.comps.items():
                hit = _merge_indices(k1, k2)
                if hit is not None:
                    c = c1 * c2
                    pairs.append((hit[1], c if hit[0] > 0 else -c))
        return self._trusted(self.patch, self.degree + other.degree,
                             _add_terms({}, pairs))

    def __str__(self):
        if not self.comps:
            return "0"
        sym = self._basis_symbol
        parts = []
        for key in sorted(self.comps):
            basis = "^".join(f"{sym}{self.patch.coords[i].name}" for i in key)
            coeff = str(self.comps[key])
            if key == ():
                parts.append(coeff)
            elif coeff == "1":
                parts.append(basis)
            else:
                parts.append(f"({coeff})*{basis}")
        return " + ".join(parts)

    def __repr__(self):
        return f"{type(self).__name__}({self})"


class Multivector(_Alternating):
    """Antisymmetric contravariant tensor field (degree-1 = vector field)."""

    _basis_symbol = "d_"


class DiffForm(_Alternating):
    """Differential form on the patch."""

    _basis_symbol = "dx:"


def d_scalar(patch: Patch, f) -> DiffForm:
    """Exterior derivative of a scalar function, as a 1-form."""
    return DiffForm._trusted(patch, 1, {
        (i,): df for i in sorted(f.coordinates_used())
        if (df := f.differentiate(i))})


def exterior_derivative(omega: DiffForm) -> DiffForm:
    if not isinstance(omega, DiffForm):
        raise TypeError("exterior_derivative expects a DiffForm")
    pairs = []
    patch = omega.patch
    for key, c in omega.comps.items():
        for i in sorted(c.coordinates_used()):
            hit = _merge_indices((i,), key)
            if hit is not None and (dc := c.differentiate(i)):
                pairs.append((hit[1], dc if hit[0] > 0 else -dc))
    return DiffForm._trusted(patch, omega.degree + 1, _add_terms({}, pairs))


def contract(V: Multivector, omega: DiffForm) -> DiffForm:
    """Interior product i_V omega, contracting V's lowest index first.

    ``V`` must be a ``Multivector`` and ``omega`` a form, a ``DiffForm`` or
    a ``BaseForm``; swapped kinds raise ``TypeError``."""
    if not isinstance(V, Multivector) or isinstance(omega, Multivector):
        raise TypeError("contract expects a Multivector and a form")
    if V.degree > omega.degree:
        raise DegreeError(
            f"cannot contract degree {V.degree} into degree {omega.degree}")
    if V.patch != omega.patch:
        raise PatchMismatchError("tensors live on different patches")
    pairs = []
    for I, vc in V.comps.items():
        for J, wc in omega.comps.items():
            sign = 1
            rest = J
            for k in I:
                if k not in rest:
                    rest = None
                    break
                m = rest.index(k)
                if m % 2:
                    sign = -sign
                rest = rest[:m] + rest[m + 1:]
            if rest is None:
                continue
            c = vc * wc
            pairs.append((rest, c if sign > 0 else -c))
    return DiffForm._trusted(omega.patch, omega.degree - V.degree,
                             _add_terms({}, pairs))


def pair(omega: DiffForm, X: Multivector):
    """Full pairing <omega, X> = sum_i X^i omega_i of a 1-form with a
    vector field, as a scalar; any other degrees raise ``DegreeError``.

    Equal to ``contract(X, omega).scalar()``, summed directly over the
    components the two share; the patch's zero when they share none.
    """
    if not (isinstance(omega, DiffForm) and omega.degree == 1
            and isinstance(X, Multivector) and X.degree == 1):
        raise DegreeError("pair needs a 1-form and a vector field")
    if X.patch != omega.patch:
        raise PatchMismatchError("tensors live on different patches")
    terms = [xc * wc for key, xc in X.comps.items()
             if (wc := omega.comps.get(key)) is not None]
    return sum(terms[1:], terms[0]) if terms else X.patch.zero()


def lie_bracket(X: Multivector, Y: Multivector) -> Multivector:
    """[X, Y]^k = X^j d_j Y^k - Y^j d_j X^k: ``schouten`` in degree one,
    for two vector fields only."""
    if X.degree != 1 or Y.degree != 1:
        raise DegreeError("lie_bracket needs two vector fields")
    return schouten(X, Y)


def _odd_derivatives(T: Multivector) -> dict:
    """T's right derivatives by the odd generators of its indices, as
    ``{i: [(key without i, sign, coefficient)]}``: the factor on i moves
    past the generators to its right before it is removed."""
    out: dict = {}
    top = T.degree - 1
    for key, c in T.comps.items():
        for m, i in enumerate(key):
            out.setdefault(i, []).append(
                (key[:m] + key[m + 1:], -1 if (top - m) % 2 else 1, c))
    return out


def _coefficient_support(T) -> set:
    """The coordinates some coefficient of T depends on."""
    return set().union(*[c.coordinates_used() for c in T.comps.values()])


def schouten(A: Multivector, B: Multivector) -> Multivector:
    """Schouten-Nijenhuis bracket, normalized to the Lie bracket in degree 1:

        [A, B] = sum_i (dA/dxi_i ^ d_i B  -+  dB/dxi_i ^ d_i A)

    with right odd derivatives ``dT/dxi_i`` and a minus sign when
    (a-1)(b-1) is even.  Coordinate i contributes only when it indexes
    one operand and lies in the other's coefficient support; both terms
    accumulate into one table."""
    if A.patch != B.patch:
        raise PatchMismatchError("tensors live on different patches")
    patch = A.patch
    a, b = A.degree, B.degree
    if a + b == 0:
        return Multivector.zero(patch, 0)
    oddA, oddB = _odd_derivatives(A), _odd_derivatives(B)
    terms = ((oddA, B, 1), (oddB, A, -1 if (a - 1) * (b - 1) % 2 == 0 else 1))
    pairs = []
    for i in sorted(oddA.keys() & _coefficient_support(B)
                    | oddB.keys() & _coefficient_support(A)):
        for odd, T, sign in terms:
            lowered = odd.get(i)
            if lowered is None:
                continue
            gradient = [(key, dc) for key, c in T.comps.items()
                        if i in c.coordinates_used()
                        and (dc := c.differentiate(i))]
            for rest, s, oc in lowered:
                for key, dc in gradient:
                    hit = _merge_indices(rest, key)
                    if hit is not None:
                        c = oc * dc
                        pairs.append((hit[1], c if hit[0] * s * sign > 0 else -c))
    return Multivector._trusted(patch, a + b - 1, _add_terms({}, pairs))


def lie_derivative(X: Multivector, T):
    """Lie derivative along a vector field: Cartan on forms, Schouten on fields."""
    if X.degree != 1:
        raise DegreeError("lie_derivative needs a vector field")
    if isinstance(T, DiffForm):
        if T.degree == 0:
            return DiffForm.from_scalar(
                T.patch, pair(d_scalar(T.patch, T.scalar()), X))
        return contract(X, exterior_derivative(T)) + exterior_derivative(contract(X, T))
    if isinstance(T, Multivector):
        return schouten(X, T)
    raise TypeError("lie_derivative acts on DiffForm or Multivector")


def sharp(V: Multivector, alpha: DiffForm) -> Multivector:
    """The bundle map of a bivector: sharp(V, a) = sum V^ij (a_i d_j - a_j d_i)."""
    if V.degree != 2 or alpha.degree != 1:
        raise DegreeError("sharp needs a bivector and a 1-form")
    if V.patch != alpha.patch:
        raise PatchMismatchError("tensors live on different patches")
    pairs = []
    for (i, j), vc in V.comps.items():
        for idx, other, flip in (((i,), j, False), ((j,), i, True)):
            ac = alpha.comps.get(idx)
            if ac is None:
                continue
            c = vc * ac
            pairs.append(((other,), -c if flip else c))
    return Multivector._trusted(V.patch, 1, _add_terms({}, pairs))


def poisson_bracket(V: Multivector, f, g):
    """{f, g} = V(df, dg)."""
    if V.degree != 2:
        raise DegreeError("poisson_bracket needs a bivector")
    patch = V.patch
    return contract(V, d_scalar(patch, f).wedge(d_scalar(patch, g))).scalar()


_HALF = Fraction(1, 2)


def _first_partials(T: _Alternating) -> tuple:
    """The nonzero first partials of a vector field's or a 1-form's
    coefficients, each coefficient differentiated once along its coordinate
    support, as ``(along, of)``: ``along[(i,)]`` lists ``(key, d_i T[key])``
    by the coordinate differentiated along, ``of[key]`` lists
    ``((i,), d_i T[key])`` by component."""
    along: dict = {}
    of: dict = {}
    for key, c in T.comps.items():
        row = of[key] = []
        for i in c.coordinates_used():
            if dc := c.differentiate(i):
                along.setdefault((i,), []).append((key, dc))
                row.append(((i,), dc))
    return along, of


class CourantSection:
    """A section (vector field, 1-form) of the generalized tangent bundle.

    Sections are immutable: assigning an attribute raises
    ``AttributeError``.  ``partials``, the first partials of both halves'
    coefficients, is computed on first use and kept on the section, so a
    generator that enters many brackets is differentiated once.
    """

    __slots__ = ("vf", "form", "_partials")

    def __init__(self, vf: Multivector, form: DiffForm):
        if not isinstance(vf, Multivector) or not isinstance(form, DiffForm):
            raise TypeError("a Courant section pairs a Multivector with a DiffForm")
        if vf.degree != 1 or form.degree != 1:
            raise DegreeError("a Courant section pairs a vector field with a 1-form")
        if vf.patch != form.patch:
            raise PatchMismatchError("section halves live on different patches")
        object.__setattr__(self, "vf", vf)
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "_partials", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"CourantSection is immutable; cannot set {name!r}")

    @property
    def patch(self) -> Patch:
        return self.vf.patch

    @property
    def partials(self) -> tuple:
        """``(vf along, vf of, form along, form of)``: ``_first_partials``
        of the vector field and of the form."""
        if self._partials is None:
            object.__setattr__(self, "_partials", _first_partials(self.vf)
                               + _first_partials(self.form))
        return self._partials

    def __eq__(self, other):
        return (isinstance(other, CourantSection)
                and self.vf == other.vf and self.form == other.form)

    def __repr__(self):
        return f"CourantSection(vf={self.vf}, form={self.form})"


def pairing_plus(s1: CourantSection, s2: CourantSection):
    """Symmetric pairing (1/2)(form1(vf2) + form2(vf1)), as two ``pair``
    calls halved."""
    if s1.patch != s2.patch:
        raise PatchMismatchError("sections live on different patches")
    return (pair(s1.form, s2.vf) + pair(s2.form, s1.vf)) * _HALF


def _slot_index(sections: Sequence[CourantSection]) -> tuple:
    """``(vector-field map, form map)``: each maps a slot key to the
    ``(position, coefficient)`` pairs, in position order, of the sections
    whose vector field (form) has a component there."""
    vfs: dict = {}
    forms: dict = {}
    for c, s in enumerate(sections):
        for key, xc in s.vf.comps.items():
            vfs.setdefault(key, []).append((c, xc))
        for key, wc in s.form.comps.items():
            forms.setdefault(key, []).append((c, wc))
    return vfs, forms


def _pairing_row(s: CourantSection, index: tuple, lo: int, hi: int) -> dict:
    """``{c: pairing_plus(s, e_c)}`` over the positions ``lo <= c < hi``
    of the indexed sections e_c that pair with ``s`` to nonzero, as one
    table: ``s.vf`` is walked against the form map and ``s.form`` against
    the vector-field map, so a section sharing no slot with ``s`` costs
    nothing.  Each nonzero sum of the two halves is halved once, here."""
    vfs, forms = index
    row = _add_terms({}, chain(
        ((c, xc * wc) for key, xc in s.vf.comps.items()
         for c, wc in forms.get(key, ()) if lo <= c < hi),
        ((c, xc * wc) for key, wc in s.form.comps.items()
         for c, xc in vfs.get(key, ()) if lo <= c < hi)))
    return {c: v * _HALF for c, v in row.items()}


def _products(T: dict, partials: dict):
    """``(key, T[k] * d)`` for each partial ``(key, d)`` filed under a key
    ``k`` of ``T``."""
    return ((key, tc * dc) for k, tc in T.items()
            for key, dc in partials.get(k, ()))


def _difference(plus, minus) -> dict:
    """One table: the ``(key, value)`` pairs of ``plus`` merged, then those
    of ``minus`` subtracted, so no negative term is negated first."""
    return _add_terms(_add_terms({}, plus), minus, sub)


def courant_bracket(s1: CourantSection, s2: CourantSection) -> CourantSection:
    """Non-skew (Dorfman) bracket ([X1,X2], L_{X1} form2 - i_{X2} d form1),
    in coordinates:

        [X1,X2]^k = X1^i d_i X2^k - X2^i d_i X1^k
        form_j = X1^i d_i form2_j + form2_i d_j X1^i
                 - X2^i (d_i form1_j - d_j form1_i)

    Every derivative is read from the sections' ``partials``, taken once per
    section and reused across every bracket it enters; no derivative is
    taken here.  The X1^i d_j form2_i terms, which i_{X1} d form2 and
    d<form2, X1> carry with opposite signs, are never formed.  Each half
    merges its positive products into one table and subtracts its
    negative ones.
    """
    if s1.patch != s2.patch:
        raise PatchMismatchError("sections live on different patches")
    X1, X2 = s1.vf.comps, s2.vf.comps
    along1, of1, form_along1, form_of1 = s1.partials
    along2, _, form_along2, _ = s2.partials
    vf = _difference(_products(X1, along2), _products(X2, along1))
    form = _difference(chain(_products(X1, form_along2),
                             _products(s2.form.comps, of1),
                             _products(X2, form_of1)),
                       _products(X2, form_along1))
    return CourantSection(Multivector._trusted(s1.patch, 1, vf),
                          DiffForm._trusted(s1.patch, 1, form))
