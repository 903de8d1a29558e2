"""Recipes that produce integrable geometric data.

Three inputs of increasing generality feed the same checker:

* an abelian gauge-style setup (commuting fiber momenta, base-only
  potential rows) whose data is built from the momenta's Hamiltonian
  fields and the potential's exterior derivative;
* a Hamiltonian potential (a base 1-form with total-space coefficients)
  whose connection subtracts the coefficient's Hamiltonian field and
  whose 2-form corrects the potential's curl by the coefficients'
  Poisson bracket;
* a torus-averaged momentum: the connection uses the angle-averaged
  potential while the 2-form averages the *unaveraged* potential's curl
  and bracket, in that order.

The gauge-style construction is the potential construction applied to
the products (potential row x momentum), which the tests exploit.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

from .coupling import GeometricData
from .errors import MalformedDataError, PatchError, PatchMismatchError
from .fibered import BaseForm, Connection, FiberedPatch
from .fractionfield import pfaffian
from .symexpr import ScalarExpr, _add_terms
from .tensorcalc import Multivector, d_scalar, poisson_bracket, schouten, sharp


def _parse_all(patch, values) -> tuple:
    return tuple(patch.parse(v) if isinstance(v, str) else v for v in values)


def _hamiltonian(V: Multivector, f: ScalarExpr) -> Multivector:
    return sharp(V, d_scalar(V.patch, f))


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


def _curl(setup: "AbelianYMHSetup", pa: int, pb: int) -> ScalarExpr:
    """Sum over factors of J (d_a A_b - d_b A_a), a and b by base position."""
    patch = setup.patch
    base = patch.base_indices
    a, b = base[pa], base[pb]
    total = patch.zero()
    for row, J in zip(setup.potentials, setup.momenta):
        total = total + J * (row[pb].differentiate(a)
                             - row[pa].differentiate(b))
    return total


class AbelianYMHSetup:
    """Commuting momenta on the fiber plus base-only potential rows.

    ``momenta`` lists one fiber function per torus/line factor;
    ``potentials`` lists, per factor, one base-only coefficient per base
    coordinate.  A single factor may be given without the extra nesting.
    """

    __slots__ = ("patch", "vertical_bivector", "potentials", "momenta")

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
        _check_fiber_poisson(patch, V)
        for J1, J2 in combinations(momenta, 2):
            if poisson_bracket(V, J1, J2):
                raise MalformedDataError(
                    f"momenta {J1} and {J2} do not commute")
        for J in momenta:
            if not schouten(_hamiltonian(V, J), V).is_zero():
                raise MalformedDataError(
                    f"the flow of momentum {J} does not preserve the bivector")
        self.patch = patch
        self.vertical_bivector = V
        self.potentials = potentials
        self.momenta = momenta


def yang_mills_data(setup: AbelianYMHSetup) -> GeometricData:
    """Data from an abelian gauge-style setup.

    The lift subtracts (potential entry) x (momentum's Hamiltonian field)
    summed over factors, and the 2-form is the momentum-weighted curl of
    each potential row; integrability of the output is what the tests
    verify, instance by instance.
    """
    patch = setup.patch
    V = setup.vertical_bivector
    base = patch.base_indices
    pairs = []
    for row, J in zip(setup.potentials, setup.momenta):
        field = _hamiltonian(V, J)
        for pos, a in enumerate(base):
            pairs += [((u, a), row[pos] * c) for (u,), c in field.items()]
    conn = Connection(patch, _add_terms({}, pairs))
    ftable: dict = {}
    for pa, pb in combinations(range(len(base)), 2):
        total = _curl(setup, pa, pb)
        if total:
            ftable[(base[pa], base[pb])] = total
    return GeometricData(patch, V, conn, BaseForm(patch, 2, ftable))


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
    """Decide whether the momentum-weighted curl matrix is nondegenerate.

    The matrix has the entries of :func:`yang_mills_data`'s 2-form, with
    the symbolic momenta as weights; its determinant is the squared
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
    rows = [[patch.zero() for _ in base] for _ in base]
    for pa, pb in combinations(range(n), 2):
        entry = _curl(setup, pa, pb)
        rows[pa][pb] = entry
        rows[pb][pa] = -entry
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


def _potential_data(setup: CartanSetup, conn_potential: BaseForm,
                    form_potential: BaseForm, average=None) -> GeometricData:
    """Shared core: connection from one potential, 2-form from another."""
    patch = setup.patch
    V = setup.vertical_bivector
    base = patch.base_indices
    table: dict = {}
    for (a,), c in conn_potential.items():
        for (u,), coeff in _hamiltonian(V, c).items():
            table[(u, a)] = coeff
    conn = Connection(patch, table)
    ftable: dict = {}
    for a, b in combinations(base, 2):
        pa = form_potential.coefficient(a)
        pb = form_potential.coefficient(b)
        entry = pb.differentiate(a) - pa.differentiate(b) \
            - poisson_bracket(V, pa, pb)
        if average:
            entry = average(entry)
        if entry:
            ftable[(a, b)] = entry
    return GeometricData(patch, V, conn, BaseForm(patch, 2, ftable))


def cartan_data(setup: CartanSetup) -> GeometricData:
    """Data from a Hamiltonian potential.

    The lift of each base coordinate field subtracts the Hamiltonian
    field of the matching potential coefficient; the 2-form is the
    potential's curl minus the coefficients' pairwise Poisson bracket.
    The output passes the integrability checker for every setup, which
    the tests verify on randomized potentials.
    """
    return _potential_data(setup, setup.potential, setup.potential)


def chb_data(setup: CartanSetup, angles: Iterable[str]) -> GeometricData:
    """Data from a torus-averaged potential.

    The connection is built from the potential averaged over the listed
    fiber angles; the 2-form averages the curl-minus-bracket of the raw
    potential.  With no angles listed this reduces to the plain
    potential construction.
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

    averaged = BaseForm(patch, 1,
                        {key: avg for key, c in setup.potential.items()
                         if (avg := average(c))})
    return _potential_data(setup, averaged, setup.potential, average=average)
