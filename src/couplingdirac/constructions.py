"""Recipes that produce integrable geometric data.

Every construction is one recipe on a potential: a base 1-form
``P = sum_a P_a dx^a`` whose coefficients may involve all coordinates.

* The lift of each base coordinate field subtracts the Hamiltonian field
  ``X_a = sharp(V, dP_a)`` of the matching coefficient.
* The 2-form is the potential's curl minus the coefficients' Poisson
  bracket, ``F_ab = d_a P_b - d_b P_a - {P_a, P_b}``.

The recipe takes each gradient ``dP_a`` and field ``X_a`` once.  It reads
``d_a P_b`` off ``dP_b``, and the bracket off the identity
``{P_a, P_b} = <dP_b, X_a>``, which is ``{f, g} = (sharp(V, df))(g)``.

Three inputs feed it:

* :func:`chb_data` averages over listed fiber angles: the connection uses
  the fields of the averaged coefficients, while the 2-form averages the
  *unaveraged* potential's curl and bracket, in that order;
* :func:`cartan_data` is :func:`chb_data` over no angle;
* :func:`yang_mills_data` runs the recipe on an abelian gauge setup's
  potential ``P = sum_k J_k A_k`` (commuting fiber momenta ``J_k``,
  base-only rows ``A_k``), whose fields are ``sum_k A^k_a X_{J_k}``, whose
  brackets vanish, and whose curl is ``sum_k J_k (d_a A^k_b - d_b A^k_a)``.

:func:`fat_check` reads that same curl and forms no connection.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

from .coupling import GeometricData
from .errors import MalformedDataError, PatchError, PatchMismatchError
from .fibered import BaseForm, Connection, FiberedPatch
from .fractionfield import pfaffian
from .symexpr import ScalarExpr, _add_terms
from .tensorcalc import (Multivector, _hamiltonian, d_scalar, pair,
                         poisson_bracket, schouten, sharp)


def _parse_all(patch, values) -> tuple:
    return tuple(patch.parse(v) if isinstance(v, str) else v for v in values)


def _check_fiber_poisson(patch: FiberedPatch, V: Multivector) -> None:
    """Refuse a vertical bivector that depends on the base or is not Poisson."""
    base = set(patch.base_indices)
    for c in V.comps.values():
        if c.coordinates_used() & base:
            raise MalformedDataError(
                f"bivector coefficient {c} depends on base coordinates")
    if not schouten(V, V).is_zero():
        raise MalformedDataError(
            "the vertical bivector does not self-commute")


def _coefficients(setup) -> list:
    """The potential's coefficient ``P_a`` for each base coordinate, in
    base order."""
    zero = setup.patch.zero()
    return [setup.potential.comps.get((a,), zero)
            for a in setup.patch.base_indices]


class AbelianYMHSetup:
    """Commuting momenta on the fiber plus base-only potential rows.

    ``momenta`` lists one fiber function per torus/line factor;
    ``potentials`` lists, per factor, one base-only coefficient per base
    coordinate.  A single factor may be given without the extra nesting.
    ``potential`` is the base 1-form ``sum_k J_k A_k`` the recipe runs on.
    """

    __slots__ = ("patch", "vertical_bivector", "potentials", "momenta",
                 "potential")

    def __init__(self, patch: FiberedPatch, vertical_bivector: Multivector,
                 potentials: Sequence, momenta):
        # reuse the data validation for the patch/bivector pair
        GeometricData(patch, vertical_bivector)
        if isinstance(momenta, (str, ScalarExpr)):
            momenta = [momenta]
        momenta = _parse_all(patch, momenta)
        if potentials and not isinstance(potentials[0], (list, tuple)):
            potentials = [potentials]
        potentials = tuple(_parse_all(patch, row) for row in potentials)
        if len(potentials) != len(momenta):
            raise MalformedDataError(
                f"{len(momenta)} momenta need as many potential rows, "
                f"got {len(potentials)}")
        base = set(patch.base_indices)
        fiber = set(patch.fiber_indices)
        n = len(patch.base_indices)
        for row in potentials:
            if len(row) != n:
                raise MalformedDataError(
                    f"potential rows need {n} entries, got {len(row)}")
            for entry in row:
                if not entry.coordinates_used() <= base:
                    raise MalformedDataError(
                        f"potential entry {entry} is not base-only")
        for J in momenta:
            if not J.coordinates_used() <= fiber:
                raise MalformedDataError(f"momentum {J} is not fiber-only")
        V = vertical_bivector
        # a Poisson V is preserved by every Hamiltonian field, so once V
        # is shown Poisson no momentum's flow needs a check
        _check_fiber_poisson(patch, V)
        for J1, J2 in combinations(momenta, 2):
            if poisson_bracket(V, J1, J2):
                raise MalformedDataError(
                    f"momenta {J1} and {J2} do not commute")
        self.patch = patch
        self.vertical_bivector = V
        self.potentials = potentials
        self.momenta = momenta
        self.potential = BaseForm(patch, 1, _add_terms({}, [
            ((a,), J * A) for row, J in zip(potentials, momenta)
            for a, A in zip(patch.base_indices, row)]))


def yang_mills_data(setup: AbelianYMHSetup) -> GeometricData:
    """Data from an abelian gauge-style setup: the recipe on its
    ``potential`` ``sum_k J_k A_k``.

    The momenta commute and the rows are base-only, so the lift subtracts
    ``sum_k A^k_a X_{J_k}`` and the 2-form is the momentum-weighted curl
    ``sum_k J_k (d_a A^k_b - d_b A^k_a)``; integrability of the output is
    what the tests verify, instance by instance.
    """
    return chb_data(setup, ())


class FatnessReport:
    """Outcome of the nondegeneracy test, usable as a boolean."""

    __slots__ = ("fat", "determinant", "obstruction")

    def __init__(self, fat: bool, determinant=None, obstruction=None):
        self.fat = fat
        self.determinant = determinant
        self.obstruction = obstruction

    def __bool__(self) -> bool:
        return self.fat

    def __repr__(self):
        if self.obstruction:
            return f"FatnessReport(fat={self.fat}, {self.obstruction})"
        return f"FatnessReport(fat={self.fat}, det={self.determinant})"


def fat_check(setup: AbelianYMHSetup) -> FatnessReport:
    """Decide whether the curl matrix of the setup's potential is
    nondegenerate.

    The matrix has the entries ``d_a P_b - d_b P_a`` of
    :func:`yang_mills_data`'s 2-form, with the symbolic momenta as
    weights; each coefficient is differentiated along the base alone, and
    no connection is formed.  Its determinant is the squared
    Pfaffian.  An odd number of base coordinates is an immediate parity
    obstruction.
    """
    patch = setup.patch
    base = patch.base_indices
    n = len(base)
    if n % 2:
        return FatnessReport(False, obstruction=(
            f"odd base dimension {n}: an antisymmetric matrix is "
            f"always degenerate"))
    P = _coefficients(setup)
    zero = patch.zero()
    rows = [[P[pb].differentiate(a) - P[pa].differentiate(b) if pa < pb
             else zero for pb, b in enumerate(base)]
            for pa, a in enumerate(base)]
    det = pfaffian(rows, patch) ** 2
    return FatnessReport(not det.is_zero(), determinant=det)


class CartanSetup:
    """A vertical bivector plus a base 1-form of momentum coefficients.

    The bivector must self-commute and carry no base dependence (it is a
    fiber structure seen on the product patch); the potential's
    coefficients may involve all coordinates.
    """

    __slots__ = ("patch", "vertical_bivector", "potential")

    def __init__(self, patch: FiberedPatch, vertical_bivector: Multivector,
                 potential: BaseForm):
        GeometricData(patch, vertical_bivector)
        if not isinstance(potential, BaseForm) or potential.degree != 1:
            raise MalformedDataError("the potential must be a base 1-form")
        if potential.patch != patch:
            raise PatchMismatchError("potential lives on a different patch")
        _check_fiber_poisson(patch, vertical_bivector)
        self.patch = patch
        self.vertical_bivector = vertical_bivector
        self.potential = potential


def cartan_data(setup: CartanSetup) -> GeometricData:
    """Data from a Hamiltonian potential: :func:`chb_data` over no angle.

    The lift of each base coordinate field subtracts the Hamiltonian
    field of the matching potential coefficient; the 2-form is the
    potential's curl minus the coefficients' pairwise Poisson bracket.
    The output passes the integrability checker for every setup, which
    the tests verify on randomized potentials.
    """
    return chb_data(setup, ())


def chb_data(setup: CartanSetup, angles: Iterable[str]) -> GeometricData:
    """Data from a potential averaged over the listed fiber angles.

    ``setup`` is a :class:`CartanSetup` or an :class:`AbelianYMHSetup`.
    The 2-form averages the raw potential's ``d_a P_b - d_b P_a -
    {P_a, P_b}``, with the bracket taken as ``<dP_b, X_a>``.  The
    connection subtracts the fields ``X_a`` themselves when no angle is
    listed, and otherwise the fields of the averaged coefficients.
    """
    patch = setup.patch
    names = list(angles)
    for name in names:
        coord = patch.coordinate(name)
        if not coord.angle or coord.role != "fiber":
            raise PatchError(f"{name} is not an angle fiber coordinate")

    def average(e: ScalarExpr) -> ScalarExpr:
        for name in names:
            e = e.angle_average(name)
        return e

    V = setup.vertical_bivector
    base = patch.base_indices
    coefficients = _coefficients(setup)
    grads = [d_scalar(patch, c) for c in coefficients]
    fields = [sharp(V, g) for g in grads]
    zero = patch.zero()
    ftable: dict = {}
    for (pa, a), (pb, b) in combinations(enumerate(base), 2):
        curl = (grads[pb].comps.get((a,), zero)
                - grads[pa].comps.get((b,), zero))
        if entry := average(curl - pair(grads[pb], fields[pa])):
            ftable[(a, b)] = entry
    if names:
        fields = [_hamiltonian(V, average(c)) for c in coefficients]
    conn = Connection(patch, {(u, a): c for a, X in zip(base, fields)
                              for (u,), c in X.items()})
    return GeometricData(patch, V, conn, BaseForm(patch, 2, ftable))
