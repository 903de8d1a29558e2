"""Fibered patches, Ehresmann connections, curvature, and base forms.

Conventions (asserted by tests): the horizontal lift of a base
coordinate field is ``hor(d_a) = d_a - sum_u G^u_a d_u`` and the
annihilator coframe is ``eta^u = dy^u + sum_a G^u_a dx^a``, so
``eta^u(hor(d_a)) = 0`` holds identically.
"""

from __future__ import annotations

from itertools import combinations
from typing import Mapping, Sequence

from .errors import DegreeError, PatchError, PatchMismatchError
from .symexpr import Coordinate, Patch, ScalarExpr
from .tensorcalc import (
    DiffForm, Multivector, _Alternating, d_scalar, lie_bracket, pair)


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
        """Horizontal lift of the base coordinate field d_a; a fiber
        coordinate raises ``ValueError``."""
        a = self.patch.index(a) if isinstance(a, str) else a
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
    """Curvature on the coordinate fields (d_a, d_b), by name or index.

    Coordinate fields commute, ``[d_a, d_b] = 0``, so the ``hor([X, Y])``
    term of ``Curv(X, Y) = hor([X, Y]) - [hor(X), hor(Y)]`` vanishes and
    ``Curv(d_a, d_b) = -[hor(d_a), hor(d_b)]``, with the lifts read from
    ``conn.hor``.  The tests check this against the general formula on
    lifted vector fields.
    """
    return -lie_bracket(conn.hor(a), conn.hor(b))


def d_gamma(conn: Connection, alpha: BaseForm) -> BaseForm:
    """Koszul differential twisted by horizontal lifts.

    On coordinate base fields the bracket terms vanish, leaving
    ``(d_gamma a)_{a0..ak} = sum_i (-1)^i hor(d_{ai}) a_{a0..^ai..ak}``.
    """
    patch = conn.patch
    if alpha.patch != patch:
        raise PatchMismatchError("base form lives on a different patch")
    lifts = {a: conn.hor(a) for a in patch.base_indices}
    grad = {key: d_scalar(patch, c) for key, c in alpha.comps.items()}
    table: dict = {}
    for key in combinations(patch.base_indices, alpha.degree + 1):
        total = patch.zero()
        for pos, a in enumerate(key):
            dc = grad.get(key[:pos] + key[pos + 1:])
            if dc is None:
                continue
            d = pair(dc, lifts[a])
            total = total + (d if pos % 2 == 0 else -d)
        if total:
            table[key] = total
    return BaseForm(patch, alpha.degree + 1, table)


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
