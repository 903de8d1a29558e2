"""Fibered patches, Ehresmann connections, curvature, and base forms.

Conventions (asserted by tests): the horizontal lift of a base
coordinate field is ``hor(d_a) = d_a - sum_u G^u_a d_u`` and the
annihilator coframe is ``eta^u = dy^u + sum_a G^u_a dx^a``, so
``eta^u(hor(d_a)) = 0`` holds identically.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .errors import DegreeError, PatchError, PatchMismatchError
from .symexpr import Coordinate, Patch, ScalarExpr, _sum_products
from .tensorcalc import (
    DiffForm, Multivector, _Alternating, _first_partials, _merge_indices,
    lie_bracket)


class FiberedPatch(Patch):
    """A patch whose coordinates are split into base and fiber roles."""

    __slots__ = ("base_indices", "fiber_indices")

    def __init__(self, coords):
        super().__init__(coords)
        self.base_indices = tuple(
            i for i, c in enumerate(self.coords) if c.role == "base")
        self.fiber_indices = tuple(
            i for i, c in enumerate(self.coords) if c.role == "fiber")
        if not self.base_indices or not self.fiber_indices:
            raise PatchError("a fibered patch needs base and fiber coordinates")

    @classmethod
    def build(cls, base, fiber, angles: Sequence[str] = ()) -> "FiberedPatch":
        if isinstance(base, str):
            base = base.split()
        if isinstance(fiber, str):
            fiber = fiber.split()
        coords = [Coordinate(n, role="base", angle=(n in angles)) for n in base]
        coords += [Coordinate(n, role="fiber", angle=(n in angles)) for n in fiber]
        return cls(coords)

    @property
    def base_names(self):
        return tuple(self.coords[i].name for i in self.base_indices)

    @property
    def fiber_names(self):
        return tuple(self.coords[i].name for i in self.fiber_indices)

    def fiber_patch(self) -> Patch:
        """The fiber alone, as a plain patch."""
        return Patch(self.coords[i] for i in self.fiber_indices)


class Connection:
    """Ehresmann connection stored by horizontal-lift coefficients G^u_a;
    ``table`` must not change, as ``hor`` reads the lifts from it once."""

    __slots__ = ("patch", "table", "_lifts")

    def __init__(self, patch: FiberedPatch, table: Mapping = ()):
        if not isinstance(patch, FiberedPatch):
            raise PatchError("a connection needs a fibered patch")
        self.patch = patch
        self._lifts = None
        clean = {}
        fiber = set(patch.fiber_indices)
        base = set(patch.base_indices)
        for (u, a), coeff in dict(table).items():
            u, a = patch.index(u), patch.index(a)
            if u not in fiber or a not in base:
                raise PatchError(
                    f"connection coefficient indexed by (fiber, base), got "
                    f"({patch.coords[u].name}, {patch.coords[a].name})")
            if isinstance(coeff, str):
                coeff = patch.parse(coeff)
            if not isinstance(coeff, ScalarExpr) or coeff.patch != patch:
                raise PatchMismatchError(
                    "connection coefficients must live on the total patch")
            if coeff:
                clean[(u, a)] = coeff
        self.table = clean

    @classmethod
    def flat(cls, patch: FiberedPatch) -> "Connection":
        return cls(patch, {})

    def coefficient(self, u, a) -> ScalarExpr:
        return self.table.get((self.patch.index(u), self.patch.index(a)),
                              self.patch.zero())

    def __eq__(self, other):
        return (isinstance(other, Connection) and self.patch == other.patch
                and self.table == other.table)

    def __repr__(self):
        entries = ", ".join(
            f"G^{self.patch.coords[u].name}_{self.patch.coords[a].name}={c}"
            for (u, a), c in sorted(self.table.items()))
        return f"Connection({entries or 'flat'})"

    # -- lifts ---------------------------------------------------------------
    def hor(self, a) -> Multivector:
        """Horizontal lift of the base coordinate field d_a, given by name,
        ``Coordinate`` or position; a fiber coordinate raises
        ``ValueError``."""
        if type(a) is bool:
            raise PatchError(f"a coordinate position must be an int, not {a}")
        a = a if type(a) is int else self.patch.index(a)
        if a in self.patch.fiber_indices:
            raise ValueError(
                f"cannot lift a field with fiber component "
                f"{self.patch.coords[a].name}")
        if a not in self.patch.base_indices:
            raise PatchError(f"no base coordinate with index {a}")
        if self._lifts is None:
            comps = {b: {(b,): self.patch.one()} for b in self.patch.base_indices}
            for (u, b), coeff in self.table.items():
                comps[b][(u,)] = -coeff
            self._lifts = {b: Multivector._trusted(self.patch, 1, c)
                           for b, c in comps.items()}
        return self._lifts[a]


class BaseForm(_Alternating):
    """Differential form on the base with coefficients on the total patch."""

    _basis_symbol = "dx:"

    def __init__(self, patch: FiberedPatch, degree: int, comps):
        super().__init__(patch, degree, comps)
        base = set(patch.base_indices)
        for key in self.comps:
            if not set(key) <= base:
                bad = ",".join(patch.coords[i].name for i in key)
                raise DegreeError(f"base form indexed by non-base tuple ({bad})")


def coordinate_curvature(conn: Connection, a, b) -> Multivector:
    """Curvature on one pair of coordinate fields (d_a, d_b), by name or
    index; the single-pair API, and the tests' reference for the curvature
    ``check_integrability`` builds from the lifts' first partials.

    Coordinate fields commute, ``[d_a, d_b] = 0``, so the ``hor([X, Y])``
    term of ``Curv(X, Y) = hor([X, Y]) - [hor(X), hor(Y)]`` vanishes and
    ``Curv(d_a, d_b) = -[hor(d_a), hor(d_b)]``, with the lifts read from
    ``conn.hor``.  That is formed as ``[hor(d_b), hor(d_a)]`` by
    ``lie_bracket``, which is ``schouten`` in degree one; its terms are
    those of ``-[hor(d_a), hor(d_b)]`` one by one, so no negated copy is
    built.  The tests check this against the general formula on lifted
    vector fields.
    """
    return lie_bracket(conn.hor(b), conn.hor(a))


def d_gamma(conn: Connection, alpha: BaseForm) -> BaseForm:
    """Koszul differential twisted by horizontal lifts.

    On coordinate base fields the bracket terms vanish, leaving
    ``(d_gamma a)_{a0..ak} = sum_i (-1)^i hor(d_{ai}) a_{a0..^ai..ak}``.
    Each coefficient of ``alpha`` is differentiated once along its
    support; the table is then one ``_sum_products`` (``_d_gamma_table``).
    """
    if alpha.patch != conn.patch:
        raise PatchMismatchError("base form lives on a different patch")
    return BaseForm._trusted(conn.patch, alpha.degree + 1, _d_gamma_table(
        conn, _first_partials(alpha)[0]))


def _d_gamma_table(conn: Connection, along: dict) -> dict:
    """The table of ``d_gamma`` of the base form whose first partials
    ``along`` are filed as by ``tensorcalc._first_partials``: for each base
    ``a``, ``hor(d_a)``'s components times the partials along them of the
    coefficients whose key lacks ``a``, each product filed under ``a``
    inserted into that key with the sign of the insertion.  Keys are
    increasing base tuples and no value is zero."""
    plus, minus = [], []
    for a in conn.patch.base_indices:
        for k, xc in conn.hor(a).comps.items():
            for key, dc in along.get(k, ()):
                hit = _merge_indices((a,), key)
                if hit is not None:
                    (plus if hit[0] > 0 else minus).append((hit[1], xc, dc))
    return _sum_products(conn.patch, plus, minus)


def ann_hor_basis(conn: Connection) -> list:
    """The coframe eta^u = dy^u + G^u_a dx^a spanning Ann(Hor)."""
    patch = conn.patch
    out = []
    for u in patch.fiber_indices:
        comps = {(u,): patch.one()}
        for (v, a), coeff in conn.table.items():
            if v == u:
                comps[(a,)] = coeff
        out.append(DiffForm(patch, 1, comps))
    return out
