"""Multivector fields, differential forms, and the bracket calculus.

Both tensor kinds are sparse tables: strictly increasing coordinate-index
tuples mapped to scalar coefficients.  Coefficients are usually
:class:`~couplingdirac.symexpr.ScalarExpr` but any value supporting the
same ring/derivative protocol works (the fraction-field layer reuses
these classes unchanged).

Sign conventions, fixed once and asserted by the tests:

* interior product by a decomposable ``X1^...^Xp`` contracts with ``X1``
  first, so ``contract(dq^dp-dual basis pair)`` is ``+1``;
* ``V(a, b) = sum_{i<j} V^ij (a_i b_j - a_j b_i)`` and
  ``sharp(V, a) = sum_{i<j} V^ij (a_i d_j - a_j d_i)``;
* the Schouten bracket restricts to the Lie bracket in degree one and to
  ``X(f)`` against functions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .errors import DegreeError, PatchMismatchError
from .symexpr import Patch


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
            if idx[j - 1] == idx[j]:
                return None
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(idx)):
        if idx[i - 1] == idx[i]:
            return None
    return sign, tuple(idx)


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
            if c:
                table[key] = c
        self.comps = table

    # -- construction helpers -------------------------------------------------
    @classmethod
    def zero(cls, patch: Patch, degree: int):
        return cls(patch, degree, {})

    @classmethod
    def from_scalar(cls, patch: Patch, value):
        if isinstance(value, (int, Fraction)):
            value = patch.rational(value)
        return cls(patch, 0, {(): value})

    @classmethod
    def build(cls, patch: Patch, degree: int, entries: Mapping[Sequence, object]):
        """Build from possibly unsorted name/index tuples, folding signs."""
        table: dict = {}
        for raw, c in entries.items():
            idx = tuple(patch.index(k) if isinstance(k, str) else k for k in raw)
            if isinstance(c, (int, Fraction)):
                c = patch.rational(c)
            hit = _sort_indices(idx)
            if hit is None:
                continue
            sign, key = hit
            c = c if sign > 0 else -c
            prev = table.get(key)
            table[key] = c if prev is None else prev + c
        return cls(patch, degree, table)

    @classmethod
    def basis(cls, patch: Patch, *names: str):
        return cls.build(patch, len(names), {tuple(names): patch.one()})

    def _check(self, other, *, kind=True):
        if kind and type(other) is not type(self):
            raise TypeError(
                f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if self.patch != other.patch:
            raise PatchMismatchError("tensors live on different patches")

    # -- linear structure -------------------------------------------------------
    def __add__(self, other):
        self._check(other)
        if self.degree != other.degree:
            raise DegreeError("cannot add tensors of different degrees")
        table = dict(self.comps)
        for key, c in other.comps.items():
            s = table.get(key)
            s = c if s is None else s + c
            if s:
                table[key] = s
            else:
                table.pop(key, None)
        return type(self)(self.patch, self.degree, table)

    def __neg__(self):
        return type(self)(self.patch, self.degree,
                          {k: -c for k, c in self.comps.items()})

    def __sub__(self, other):
        return self + (-other)

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
        idx = tuple(self.patch.index(k) if isinstance(k, str) else k for k in names)
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
        table: dict = {}
        for k1, c1 in self.comps.items():
            for k2, c2 in other.comps.items():
                hit = _merge_indices(k1, k2)
                if hit is None:
                    continue
                sign, key = hit
                c = c1 * c2
                c = c if sign > 0 else -c
                prev = table.get(key)
                s = c if prev is None else prev + c
                if s:
                    table[key] = s
                else:
                    table.pop(key, None)
        return type(self)(self.patch, self.degree + other.degree, table)

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


def wedge(a, b):
    return a.wedge(b)


def d_scalar(patch: Patch, f) -> DiffForm:
    """Exterior derivative of a scalar function, as a 1-form."""
    table = {}
    for i, c in enumerate(patch.coords):
        df = f.differentiate(c.name)
        if df:
            table[(i,)] = df
    return DiffForm(patch, 1, table)


def exterior_derivative(omega: DiffForm) -> DiffForm:
    if not isinstance(omega, DiffForm):
        raise TypeError("exterior_derivative expects a DiffForm")
    table: dict = {}
    patch = omega.patch
    for key, c in omega.comps.items():
        for i, coord in enumerate(patch.coords):
            dc = c.differentiate(coord.name)
            if not dc:
                continue
            hit = _merge_indices((i,), key)
            if hit is None:
                continue
            sign, merged = hit
            dc = dc if sign > 0 else -dc
            prev = table.get(merged)
            s = dc if prev is None else prev + dc
            if s:
                table[merged] = s
            else:
                table.pop(merged, None)
    return DiffForm(patch, omega.degree + 1, table)


def contract(V: Multivector, omega: DiffForm) -> DiffForm:
    """Interior product i_V omega, contracting V's lowest index first."""
    if V.degree > omega.degree:
        raise DegreeError(
            f"cannot contract degree {V.degree} into degree {omega.degree}")
    if V.patch != omega.patch:
        raise PatchMismatchError("tensors live on different patches")
    table: dict = {}
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
            c = c if sign > 0 else -c
            prev = table.get(rest)
            s = c if prev is None else prev + c
            if s:
                table[rest] = s
            else:
                table.pop(rest, None)
    return DiffForm(omega.patch, omega.degree - V.degree, table)


def pair(omega: DiffForm, X: Multivector):
    """Full pairing of a 1-form with a vector field, as a scalar."""
    return contract(X, omega).scalar()


def _coefficient_gradient(T, i: int):
    """Componentwise coordinate derivative of a tensor."""
    name = T.patch.coords[i].name
    return type(T)(T.patch, T.degree,
                   {k: c.differentiate(name) for k, c in T.comps.items()})


def lie_bracket(X: Multivector, Y: Multivector) -> Multivector:
    if X.degree != 1 or Y.degree != 1:
        raise DegreeError("lie_bracket needs two vector fields")
    if X.patch != Y.patch:
        raise PatchMismatchError("tensors live on different patches")
    table: dict = {}
    for (j,), xc in X.comps.items():
        dY = _coefficient_gradient(Y, j)
        for key, c in dY.comps.items():
            s = table.get(key, None)
            v = xc * c
            s = v if s is None else s + v
            if s:
                table[key] = s
            else:
                table.pop(key, None)
    for (j,), yc in Y.comps.items():
        dX = _coefficient_gradient(X, j)
        for key, c in dX.comps.items():
            s = table.get(key, None)
            v = yc * c
            s = (-v) if s is None else s - v
            if s:
                table[key] = s
            else:
                table.pop(key, None)
    return Multivector(X.patch, 1, table)


def _right_odd_derivative(A: Multivector, i: int) -> Multivector:
    """Right derivative with respect to the odd generator of coordinate i."""
    table: dict = {}
    for key, c in A.comps.items():
        if i not in key:
            continue
        m = key.index(i)
        # right derivative: move the factor past the (degree-1-m) generators
        # sitting to its right
        if (A.degree - 1 - m) % 2:
            c = -c
        table[key[:m] + key[m + 1:]] = c
    return Multivector(A.patch, A.degree - 1, table)


def schouten(A: Multivector, B: Multivector) -> Multivector:
    """Schouten-Nijenhuis bracket, normalized to the Lie bracket in degree 1."""
    if A.patch != B.patch:
        raise PatchMismatchError("tensors live on different patches")
    patch = A.patch
    a, b = A.degree, B.degree
    if a + b == 0:
        return Multivector.zero(patch, 0)
    out = Multivector.zero(patch, a + b - 1)
    for i in range(len(patch)):
        if a:
            dA = _right_odd_derivative(A, i)
            if dA:
                out = out + dA.wedge(_coefficient_gradient(B, i))
        if b:
            dB = _right_odd_derivative(B, i)
            if dB:
                term = dB.wedge(_coefficient_gradient(A, i))
                if ((a - 1) * (b - 1)) % 2 == 0:
                    out = out - term
                else:
                    out = out + term
    return out


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
    table: dict = {}
    for (i, j), vc in V.comps.items():
        for idx, other, flip in (((i,), j, False), ((j,), i, True)):
            ac = alpha.comps.get(idx)
            if ac is None:
                continue
            c = vc * ac
            if flip:
                c = -c
            key = (other,)
            prev = table.get(key)
            s = c if prev is None else prev + c
            if s:
                table[key] = s
            else:
                table.pop(key, None)
    return Multivector(V.patch, 1, table)


def poisson_bracket(V: Multivector, f, g):
    """{f, g} = V(df, dg)."""
    if V.degree != 2:
        raise DegreeError("poisson_bracket needs a bivector")
    patch = V.patch
    return contract(V, d_scalar(patch, f).wedge(d_scalar(patch, g))).scalar()


class CourantSection:
    """A section (vector field, 1-form) of the generalized tangent bundle."""

    __slots__ = ("vf", "form")

    def __init__(self, vf: Multivector, form: DiffForm):
        if vf.degree != 1 or form.degree != 1:
            raise DegreeError("a Courant section pairs a vector field with a 1-form")
        if vf.patch != form.patch:
            raise PatchMismatchError("section halves live on different patches")
        self.vf = vf
        self.form = form

    @property
    def patch(self) -> Patch:
        return self.vf.patch

    def __eq__(self, other):
        return (isinstance(other, CourantSection)
                and self.vf == other.vf and self.form == other.form)

    def __repr__(self):
        return f"CourantSection(vf={self.vf}, form={self.form})"


def pairing_plus(s1: CourantSection, s2: CourantSection):
    """Symmetric pairing (1/2)(form1(vf2) + form2(vf1))."""
    if s1.patch != s2.patch:
        raise PatchMismatchError("sections live on different patches")
    half = Fraction(1, 2)
    return (pair(s1.form, s2.vf) + pair(s2.form, s1.vf)) * half


def courant_bracket(s1: CourantSection, s2: CourantSection) -> CourantSection:
    """Non-skew bracket ([X1,X2], L_{X1} form2 - i_{X2} d form1)."""
    if s1.patch != s2.patch:
        raise PatchMismatchError("sections live on different patches")
    vf = lie_bracket(s1.vf, s2.vf)
    form = lie_derivative(s1.vf, s2.form) - contract(s2.vf, exterior_derivative(s1.form))
    return CourantSection(vf, form)
