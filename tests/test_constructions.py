"""Gauge-style, potential, and averaged-potential data constructions."""

import json
import random
from itertools import combinations
from pathlib import Path

import pytest

from couplingdirac.constructions import (
    AbelianYMHSetup,
    CartanSetup,
    cartan_data,
    chb_data,
    fat_check,
    yang_mills_data,
)
from couplingdirac.cli import Manifest
from couplingdirac.coupling import (
    GeometricData,
    check_integrability,
    extract_poisson,
)
from couplingdirac.errors import (
    DegenerateInputError,
    MalformedDataError,
    PatchError,
)
from couplingdirac.fibered import BaseForm, Connection, FiberedPatch
from couplingdirac.tensorcalc import (
    Multivector,
    d_scalar,
    poisson_bracket,
    schouten,
    sharp,
)

FIXTURES = Path(__file__).parent / "fixtures"


def area_patch():
    return FiberedPatch.build("x1 x2", "q p")


def area_bivector(patch):
    return Multivector.build(patch, 2, {("q", "p"): 1})


def gauge_fixture():
    patch = area_patch()
    return AbelianYMHSetup(patch, area_bivector(patch), ["x2", "0"], "p")


# ------------------------------------------------------------- gauge data

def test_gauge_fixture_matches_hand_expansion():
    data = yang_mills_data(gauge_fixture())
    patch = data.patch
    assert data.horizontal_form.coefficient("x1", "x2") == patch.parse("-1*p")
    assert data.connection.coefficient("q", "x1") == patch.parse("-1*x2")
    assert data.connection.coefficient("p", "x1").is_zero()
    assert check_integrability(data).passed


def test_gauge_zero_potential_gives_flat_data():
    patch = area_patch()
    setup = AbelianYMHSetup(patch, area_bivector(patch), ["0", "0"], "p")
    data = yang_mills_data(setup)
    assert data.connection == Connection.flat(patch)
    assert data.horizontal_form.is_zero()
    assert check_integrability(data).passed


def test_gauge_casimir_momentum_flat_connection():
    patch = FiberedPatch.build("x1 x2", "q p z")
    V = area_bivector(patch)
    setup = AbelianYMHSetup(patch, V, ["x2", "0"], "z")
    data = yang_mills_data(setup)
    assert data.connection == Connection.flat(patch)
    assert data.horizontal_form.coefficient("x1", "x2") == patch.parse("-1*z")
    assert check_integrability(data).passed


def test_gauge_two_commuting_factors():
    patch = FiberedPatch.build("x1 x2", "q p z")
    V = area_bivector(patch)
    setup = AbelianYMHSetup(patch, V, [["x2", "0"], ["0", "x1"]], ["p", "z"])
    data = yang_mills_data(setup)
    assert data.horizontal_form.coefficient("x1", "x2") == patch.parse("z - p")
    assert data.connection.coefficient("q", "x1") == patch.parse("-1*x2")
    assert check_integrability(data).passed


def test_gauge_setup_validation():
    patch = area_patch()
    V = area_bivector(patch)
    with pytest.raises(MalformedDataError, match="base-only"):
        AbelianYMHSetup(patch, V, ["p", "0"], "p")
    with pytest.raises(MalformedDataError, match="fiber-only"):
        AbelianYMHSetup(patch, V, ["x2", "0"], "x1*p")
    with pytest.raises(MalformedDataError, match="commute"):
        AbelianYMHSetup(patch, V, [["x1", "0"], ["0", "x2"]], ["q", "p"])
    with pytest.raises(MalformedDataError, match="entries"):
        AbelianYMHSetup(patch, V, ["x2"], "p")
    with pytest.raises(MalformedDataError, match="rows"):
        AbelianYMHSetup(patch, V, [["x2", "0"]], ["p", "q*p"])
    threefiber = FiberedPatch.build("x1 x2", "u v w")
    curly = Multivector.build(threefiber, 2,
                              {("u", "v"): 1,
                               ("v", "w"): threefiber.parse("v")})
    with pytest.raises(MalformedDataError, match="self-commute"):
        AbelianYMHSetup(threefiber, curly, ["x2", "0"], "u")
    drifting = Multivector.build(patch, 2, {("q", "p"): patch.parse("x1")})
    with pytest.raises(MalformedDataError, match="base"):
        AbelianYMHSetup(patch, drifting, ["x2", "0"], "p")


def test_random_gauge_setups_are_integrable():
    rng = random.Random(41002)
    patch = FiberedPatch.build("x1 x2", "q p")
    V = area_bivector(patch)
    base_pool = ["x1", "x2"]
    fiber_pool = ["q", "p"]

    def poly(pool, deg):
        out = patch.zero()
        for _ in range(rng.randrange(1, 4)):
            term = patch.rational(rng.randrange(-3, 4))
            for _ in range(rng.randrange(0, deg + 1)):
                term = term * patch.coord(rng.choice(pool))
            out = out + term
        return out

    for _ in range(20):
        setup = AbelianYMHSetup(
            patch, V, [poly(base_pool, 2), poly(base_pool, 2)],
            poly(fiber_pool, 2))
        assert check_integrability(yang_mills_data(setup)).passed


# -------------------------------------------------------------- fatness

def test_fat_check_reports_symbolic_determinant():
    report = fat_check(gauge_fixture())
    assert report
    assert report.determinant == gauge_fixture().patch.parse("p^2")
    assert report.obstruction is None


def test_fat_check_zero_potential_not_fat():
    patch = area_patch()
    setup = AbelianYMHSetup(patch, area_bivector(patch), ["0", "0"], "p")
    report = fat_check(setup)
    assert not report
    assert report.determinant.is_zero()


def test_fat_check_odd_base_is_parity_obstruction():
    patch = FiberedPatch.build("x1 x2 x3", "q p")
    setup = AbelianYMHSetup(patch, area_bivector(patch),
                            ["x2", "0", "0"], "p")
    report = fat_check(setup)
    assert not report
    assert report.determinant is None
    assert "odd" in report.obstruction


def test_fat_data_extracts_poisson_degenerate_raises():
    fat = yang_mills_data(gauge_fixture())
    Pi = extract_poisson(fat)
    assert schouten(Pi, Pi).is_zero()
    patch = area_patch()
    thin = yang_mills_data(
        AbelianYMHSetup(patch, area_bivector(patch), ["0", "0"], "p"))
    with pytest.raises(DegenerateInputError):
        extract_poisson(thin)


# ---------------------------------------------------------- potential data

def test_potential_first_coordinate_only():
    patch = area_patch()
    setup = CartanSetup(patch, area_bivector(patch),
                        BaseForm.build(patch, 1, {("x1",): patch.parse("q")}))
    data = cartan_data(setup)
    assert data.horizontal_form.is_zero()
    assert data.connection.coefficient("p", "x1") == 1
    assert check_integrability(data).passed


def test_potential_symplectic_pair():
    patch = area_patch()
    setup = CartanSetup(patch, area_bivector(patch),
                        BaseForm.build(patch, 1, {("x1",): patch.parse("q"),
                                                  ("x2",): patch.parse("p")}))
    data = cartan_data(setup)
    assert data.horizontal_form.coefficient("x1", "x2") == -1
    assert check_integrability(data).passed


def test_zero_potential_gives_flat_data():
    patch = area_patch()
    setup = CartanSetup(patch, area_bivector(patch), BaseForm.zero(patch, 1))
    data = cartan_data(setup)
    assert data.connection == Connection.flat(patch)
    assert data.horizontal_form.is_zero()


def test_gauge_data_is_potential_data_of_products():
    patch = FiberedPatch.build("x1 x2", "q p z")
    V = area_bivector(patch)
    setup = AbelianYMHSetup(patch, V, [["x2", "0"], ["0", "x1"]], ["p", "z"])
    combined = BaseForm.build(patch, 1, {("x1",): patch.parse("x2*p"),
                                         ("x2",): patch.parse("x1*z")})
    assert yang_mills_data(setup) == cartan_data(CartanSetup(patch, V, combined))


def test_random_potentials_are_integrable():
    rng = random.Random(73718)
    patch = FiberedPatch.build("x1 x2", "q p")
    V = area_bivector(patch)
    pool = ["x1", "x2", "q", "p"]

    def poly():
        out = patch.zero()
        for _ in range(rng.randrange(1, 4)):
            term = patch.rational(rng.randrange(-3, 4))
            for _ in range(rng.randrange(0, 3)):
                term = term * patch.coord(rng.choice(pool))
            out = out + term
        return out

    for _ in range(20):
        setup = CartanSetup(patch, V, BaseForm(patch, 1, {
            (0,): poly(), (1,): poly()}))
        assert check_integrability(cartan_data(setup)).passed


def test_potential_setup_validation():
    patch = area_patch()
    V = area_bivector(patch)
    good = BaseForm.zero(patch, 1)
    with pytest.raises(MalformedDataError, match="base"):
        CartanSetup(patch, Multivector.build(
            patch, 2, {("q", "p"): patch.parse("x1")}), good)
    threefiber = FiberedPatch.build("x1 x2", "u v w")
    curly = Multivector.build(threefiber, 2,
                              {("u", "v"): 1,
                               ("v", "w"): threefiber.parse("v")})
    with pytest.raises(MalformedDataError, match="self-commute"):
        CartanSetup(threefiber, curly, BaseForm.zero(threefiber, 1))
    with pytest.raises(MalformedDataError, match="1-form"):
        CartanSetup(patch, V, BaseForm.zero(patch, 2))


# ------------------------------------------------------------- averaging

def angle_patch():
    return FiberedPatch.build("x1 x2", "th p", angles=["th"])


def test_averaged_cosine_squared_halves():
    patch = angle_patch()
    V = Multivector.build(patch, 2, {("th", "p"): 1})
    setup = CartanSetup(patch, V, BaseForm.build(
        patch, 1, {("x1",): patch.parse("p*cos(th)^2")}))
    data = chb_data(setup, ["th"])
    # the averaged potential is p/2, whose Hamiltonian field is -(1/2) d_th
    assert data.connection.coefficient("th", "x1") == patch.parse("-1/2")
    assert data.horizontal_form.is_zero()
    assert check_integrability(data).passed


def test_averaged_oscillation_is_flat():
    patch = angle_patch()
    V = Multivector.build(patch, 2, {("th", "p"): 1})
    setup = CartanSetup(patch, V, BaseForm.build(
        patch, 1, {("x1",): patch.parse("sin(th)")}))
    data = chb_data(setup, ["th"])
    assert data.connection == Connection.flat(patch)
    assert data.horizontal_form.is_zero()
    assert check_integrability(data).passed


def test_averaged_form_uses_raw_potential():
    patch = angle_patch()
    V = Multivector.build(patch, 2, {("th", "p"): 1})
    setup = CartanSetup(patch, V, BaseForm.build(
        patch, 1, {("x1",): patch.parse("x2*p*cos(th)^2")}))
    data = chb_data(setup, ["th"])
    # curl of the raw potential: -d/dx2 (x2 p cos^2) = -p cos^2, averaged -p/2
    assert data.horizontal_form.coefficient("x1", "x2") == patch.parse("-1/2*p")
    assert data.connection.coefficient("th", "x1") == patch.parse("-1/2*x2")
    assert check_integrability(data).passed


def test_no_angles_averaged_equals_potential_data():
    patch = angle_patch()
    V = Multivector.build(patch, 2, {("th", "p"): 1})
    setup = CartanSetup(patch, V, BaseForm.build(
        patch, 1, {("x1",): patch.parse("p + sin(2*th)"),
                   ("x2",): patch.parse("x1*p")}))
    expected = reference_potential_data(setup)
    assert chb_data(setup, []) == expected
    assert cartan_data(setup) == expected


def test_averaging_rejects_non_angle_coordinates():
    patch = angle_patch()
    V = Multivector.build(patch, 2, {("th", "p"): 1})
    setup = CartanSetup(patch, V, BaseForm.zero(patch, 1))
    with pytest.raises(PatchError):
        chb_data(setup, ["p"])
    with pytest.raises(PatchError):
        chb_data(setup, ["x1"])


def test_random_shared_oscillator_momenta_are_integrable():
    # momenta of the form f_a(x) g(th, p) + h_a(x) pairwise commute, so the
    # averaged construction stays integrable; ten seeded draws
    rng = random.Random(550912)
    patch = angle_patch()
    V = Multivector.build(patch, 2, {("th", "p"): 1})

    def base_poly():
        out = patch.zero()
        for _ in range(rng.randrange(1, 3)):
            term = patch.rational(rng.randrange(-2, 3))
            for _ in range(rng.randrange(0, 3)):
                term = term * patch.coord(rng.choice(["x1", "x2"]))
            out = out + term
        return out

    def oscillator():
        out = patch.zero()
        for _ in range(rng.randrange(1, 3)):
            factor = {0: patch.parse("p"),
                      1: patch.parse(f"cos({rng.randrange(1, 3)}*th)"),
                      2: patch.parse(f"sin({rng.randrange(1, 3)}*th)")
                      }[rng.randrange(3)]
            out = out + patch.rational(rng.randrange(-2, 3)) * factor
        return out + patch.parse("p^2")

    for _ in range(10):
        g = oscillator()
        setup = CartanSetup(patch, V, BaseForm(patch, 1, {
            (0,): base_poly() * g + base_poly(),
            (1,): base_poly() * g + base_poly()}))
        data = chb_data(setup, ["th"])
        assert check_integrability(data).passed


# ------------------------------------------------------------- references
# The constructions share one recipe.  These references are the separate
# formulas the recipe must reproduce, written without it: the gauge data
# from the momenta's fields and the rows' curls, the potential data with
# each bracket taken by poisson_bracket.

def reference_gauge_data(setup):
    """Connection sum_k A_k X_{J_k}, 2-form sum_k J_k (d_a A^k_b - d_b A^k_a)."""
    patch, V = setup.patch, setup.vertical_bivector
    base = patch.base_indices
    table = {}
    for row, J in zip(setup.potentials, setup.momenta):
        field = sharp(V, d_scalar(patch, J))
        for a, A in zip(base, row):
            for (u,), c in field.items():
                table[(u, a)] = table.get((u, a), patch.zero()) + A * c
    form = {}
    for pa, pb in combinations(range(len(base)), 2):
        a, b = base[pa], base[pb]
        total = patch.zero()
        for row, J in zip(setup.potentials, setup.momenta):
            total = total + J * (row[pb].differentiate(a)
                                 - row[pa].differentiate(b))
        form[(a, b)] = total
    return GeometricData(patch, V, Connection(patch, table),
                         BaseForm(patch, 2, form))


def reference_potential_data(setup, angles=()):
    """Connection from the averaged potential's Hamiltonian fields; 2-form
    the average of d_a P_b - d_b P_a - poisson_bracket(V, P_a, P_b)."""
    patch, V, P = setup.patch, setup.vertical_bivector, setup.potential

    def average(e):
        for name in angles:
            e = e.angle_average(name)
        return e

    table = {}
    for (a,), c in P.items():
        for (u,), coeff in sharp(V, d_scalar(patch, average(c))).items():
            table[(u, a)] = coeff
    form = {}
    for a, b in combinations(patch.base_indices, 2):
        pa, pb = P.coefficient(a), P.coefficient(b)
        form[(a, b)] = average(pb.differentiate(a) - pa.differentiate(b)
                               - poisson_bracket(V, pa, pb))
    return GeometricData(patch, V, Connection(patch, table),
                         BaseForm(patch, 2, form))


def expanded_pfaffian(rows):
    """Pfaffian of the antisymmetric matrix with upper triangle ``rows``,
    by first-row expansion over plain expression arithmetic."""
    n = len(rows)
    if n == 0:
        return 1
    total = 0
    for j in range(1, n):
        keep = [k for k in range(n) if k not in (0, j)]
        term = rows[0][j] * expanded_pfaffian(
            [[rows[r][c] for c in keep] for r in keep])
        total = total + (term if j % 2 else -term)
    return total


def random_poly(rng, patch, names, terms=3, degree=2):
    out = patch.zero()
    for _ in range(rng.randrange(1, terms + 1)):
        term = patch.rational(rng.randrange(-3, 4))
        for _ in range(rng.randrange(0, degree + 1)):
            term = term * patch.parse(rng.choice(names))
        out = out + term
    return out


def random_gauge_setup(rng, nb):
    # z is a Casimir of dq^dp, so momenta in p and z, and in z alone, commute
    patch = FiberedPatch.build(" ".join(f"x{i}" for i in range(1, nb + 1)),
                               "q p z")
    V = Multivector.build(patch, 2, {("q", "p"): patch.parse("1 + z")})
    base = patch.base_names
    momenta = [random_poly(rng, patch, ["p", "z"]),
               random_poly(rng, patch, ["z"])][:rng.randrange(1, 3)]
    rows = [[random_poly(rng, patch, base) for _ in base] for _ in momenta]
    return AbelianYMHSetup(patch, V, rows, momenta)


def test_constructions_match_the_references_on_the_fixtures():
    def manifest(name):
        return Manifest.from_document(
            json.loads((FIXTURES / f"construct_{name}.json").read_text()))

    gauge = manifest("ymh")
    rows, momenta = gauge.ymh
    setup = AbelianYMHSetup(gauge.patch, gauge.data.vertical_bivector,
                            [list(row) for row in rows], list(momenta))
    assert yang_mills_data(setup) == reference_gauge_data(setup)
    assert yang_mills_data(gauge_fixture()) == reference_gauge_data(
        gauge_fixture())
    for name in ("cartan", "chb"):
        man = manifest(name)
        setup = CartanSetup(man.patch, man.data.vertical_bivector,
                            man.potential)
        angles = man.angles or ()
        assert chb_data(setup, angles) == reference_potential_data(
            setup, angles), name
        assert cartan_data(setup) == reference_potential_data(setup), name


def test_gauge_data_matches_the_reference_on_random_setups():
    rng = random.Random(20250)
    for _ in range(16):
        setup = random_gauge_setup(rng, rng.choice((2, 3, 4)))
        data = yang_mills_data(setup)
        assert data == reference_gauge_data(setup)
        assert data == reference_potential_data(setup)


def test_potential_data_matches_the_reference_on_random_setups():
    rng = random.Random(60117)
    patch = FiberedPatch.build("x1 x2 x3", "q p")
    V = Multivector.build(patch, 2, {("q", "p"): patch.parse("1 + q")})
    for _ in range(12):
        setup = CartanSetup(patch, V, BaseForm(patch, 1, {
            (a,): random_poly(rng, patch, patch.names)
            for a in patch.base_indices if rng.randrange(4)}))
        expected = reference_potential_data(setup)
        assert cartan_data(setup) == expected
        assert chb_data(setup, ()) == expected


def test_averaged_data_matches_the_reference_on_random_setups():
    rng = random.Random(88313)
    patch = FiberedPatch.build("x1 x2", "th p ph r", angles=["th", "ph"])
    V = Multivector.build(patch, 2, {("th", "p"): 1, ("ph", "r"): 1})
    atoms = ["x1", "x2", "p", "r", "cos(th)", "sin(th)", "cos(2*th)",
             "sin(ph)", "cos(th)*sin(ph)"]
    for _ in range(12):
        setup = CartanSetup(patch, V, BaseForm(patch, 1, {
            (a,): random_poly(rng, patch, atoms) for a in patch.base_indices}))
        for angles in ((), ("th",), ("ph",), ("th", "ph")):
            assert chb_data(setup, angles) == reference_potential_data(
                setup, angles), angles


def test_fat_check_is_the_squared_pfaffian_of_the_reference_curl():
    rng = random.Random(31337)
    for nb in (2, 2, 4, 4, 4):
        setup = random_gauge_setup(rng, nb)
        form = reference_gauge_data(setup).horizontal_form
        names = setup.patch.base_names
        rows = [[form.coefficient(a, b) for b in names] for a in names]
        pf = expanded_pfaffian(rows)
        report = fat_check(setup)
        assert report.determinant == pf * pf
        assert report.fat == (not report.determinant.is_zero())
