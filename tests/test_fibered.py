"""Connections, lifts, curvature, the twisted Koszul operator, and the
data oracle's tables against the generic kernels."""

import random
from itertools import combinations

import pytest

from corpus_util import random_scalar

from couplingdirac import Patch, PatchError
from couplingdirac.coupling import (
    CONDITION_ORDER,
    ConditionReport,
    GeometricData,
    check_integrability,
    tensor_witnesses,
)
from couplingdirac.fibered import (
    BaseForm,
    Connection,
    FiberedPatch,
    ann_hor_basis,
    coordinate_curvature,
    d_gamma,
)
from couplingdirac.errors import DegreeError, PatchMismatchError
from couplingdirac.tensorcalc import (
    DiffForm,
    Multivector,
    contract,
    d_scalar,
    lie_bracket,
    lie_derivative,
    pair,
    schouten,
    sharp,
)

FP = FiberedPatch.build("x1 x2", "q p")
FP3 = FiberedPatch.build("x1 x2 x3", "q p")


def horizontal_lift(conn, X):
    """Lift a base vector field through the connection."""
    patch = conn.patch
    if X.patch != patch:
        raise PatchMismatchError("vector field lives on a different patch")
    if X.degree != 1:
        raise DegreeError("horizontal_lift needs a vector field")
    out = Multivector.zero(patch, 1)
    for (i,), c in X.items():
        out = out + c * conn.hor(i)
    return out


def curvature(conn, X, Y):
    """Curv(X, Y) = hor([X, Y]) - [hor(X), hor(Y)]; always vertical."""
    bracket = lie_bracket(X, Y)
    return horizontal_lift(conn, bracket) - lie_bracket(
        horizontal_lift(conn, X), horizontal_lift(conn, Y))


def horizontal_derivative(conn, a, f):
    """hor(d_a) applied to a scalar function, written out from the
    connection table: d_a f - sum_u G^u_a d_u f."""
    a = conn.patch.index(a) if isinstance(a, str) else a
    coords, used = conn.patch.coords, f.coordinates_used()
    out = f.differentiate(coords[a].name) if a in used else conn.patch.zero()
    for (u, b), coeff in conn.table.items():
        if b == a and u in used:
            df = f.differentiate(coords[u].name)
            if df:
                out = out - coeff * df
    return out


def reference_d_gamma(conn, alpha):
    """d_gamma written out as sum_i (-1)^i hor(d_ai) alpha_{..^ai..}, each
    lift applied by ``horizontal_derivative``."""
    patch = conn.patch
    expected = {}
    for key in combinations(patch.base_indices, alpha.degree + 1):
        total = patch.zero()
        for pos, a in enumerate(key):
            rest = key[:pos] + key[pos + 1:]
            d = horizontal_derivative(conn, a, alpha.coefficient(*rest))
            total = total + (d if pos % 2 == 0 else -d)
        expected[key] = total
    return BaseForm(patch, alpha.degree + 1, expected)


def rnd_scalar(rng, patch, max_terms=2, max_deg=2):
    out = patch.zero()
    names = [c.name for c in patch.coords]
    for _ in range(rng.randint(1, max_terms)):
        term = patch.rational(rng.randint(-3, 3))
        for name in rng.sample(names, rng.randint(0, 2)):
            term = term * patch.coord(name) ** rng.randint(1, max_deg)
        out = out + term
    return out


def rnd_connection(rng, patch, max_deg=2):
    table = {}
    for u in patch.fiber_indices:
        for a in patch.base_indices:
            if rng.random() < 0.6:
                table[(u, a)] = rnd_scalar(rng, patch, max_deg=max_deg)
    return Connection(patch, table)


def test_patch_roles():
    assert FP.base_names == ("x1", "x2")
    assert FP.fiber_names == ("q", "p")
    assert FP.fiber_patch() == Patch.build("q p")
    with pytest.raises(PatchError):
        FiberedPatch.build("x1", "")
    with pytest.raises(PatchError):
        Connection(FP, {("x1", "q"): FP.one()})  # roles swapped


def test_connection_rejects_an_index_outside_the_patch():
    with pytest.raises(PatchError, match="outside the patch"):
        Connection(FP, {(99, 0): FP.one()})
    with pytest.raises(PatchError, match="outside the patch"):
        Connection(FP, {(2, -1): FP.one()})


def test_connection_coefficient_rejects_an_index_outside_the_patch():
    conn = Connection(FP, {("q", "x1"): FP.coord("p")})
    assert conn.coefficient(2, 0) == conn.coefficient("q", "x1") == FP.coord("p")
    with pytest.raises(PatchError, match="outside the patch"):
        conn.coefficient(99, 0)
    with pytest.raises(PatchError, match="outside the patch"):
        conn.coefficient("q", -1)


def test_hor_rejects_an_index_outside_the_patch():
    conn = Connection(FP, {("q", "x1"): FP.coord("p")})
    with pytest.raises(PatchError, match="no base coordinate"):
        conn.hor(7)
    for q in ("q", FP.coordinate("q")):
        with pytest.raises(ValueError, match="fiber component q") as err:
            conn.hor(q)
        assert not isinstance(err.value, PatchError)


def test_hor_rejects_a_bool():
    # True == 1 and False == 0 as ints; neither names a base coordinate
    conn = Connection(FP, {("q", "x2"): FP.coord("p")})
    for flag in (True, False):
        with pytest.raises(PatchError, match="not True|not False"):
            conn.hor(flag)
    assert conn.hor(1) is conn.hor("x2")


def test_hor_matches_the_table_derivative():
    # hor(d_a) applied to the coordinate function x^c is its c component,
    # so every component agrees with the derivative written from the table
    rng = random.Random(29)
    for _ in range(10):
        conn = rnd_connection(rng, FP3)
        for a in FP3.base_names:
            lift = conn.hor(a)
            for c in FP3.names:
                assert lift.coefficient(c) == horizontal_derivative(
                    conn, a, FP3.coord(c))


def test_lifts_are_built_once():
    conn = Connection(FP, {("q", "x1"): FP.coord("p")})
    assert conn.hor("x1") is conn.hor("x1")
    assert conn.hor(0) is conn.hor("x1")
    assert conn.hor(FP.coordinate("x1")) is conn.hor("x1")
    assert conn.hor("x2") == Multivector.basis(FP, "x2")


def test_horizontal_lift_examples():
    flat = Connection.flat(FP)
    d1 = Multivector.basis(FP, "x1")
    assert horizontal_lift(flat, d1) == d1
    conn = Connection(FP, {("q", "x1"): FP.coord("p")})
    assert horizontal_lift(conn, d1) == Multivector.build(
        FP, 1, {("x1",): 1, ("q",): FP.parse("-1*p")})
    x1 = FP.coord("x1")
    assert horizontal_lift(conn, x1 * d1) == x1 * horizontal_lift(conn, d1)
    with pytest.raises(ValueError):
        horizontal_lift(conn, Multivector.basis(FP, "q"))


def test_curvature_example():
    conn = Connection(FP, {("q", "x1"): FP.coord("x2")})
    c = coordinate_curvature(conn, "x1", "x2")
    assert c == -Multivector.basis(FP, "q")
    assert coordinate_curvature(Connection.flat(FP), "x1", "x2").is_zero()


def rnd_base_scalar(rng, patch, max_deg=2):
    out = patch.zero()
    for _ in range(rng.randint(1, 2)):
        term = patch.rational(rng.randint(-3, 3))
        for name in rng.sample(patch.base_names, rng.randint(0, 2)):
            term = term * patch.coord(name) ** rng.randint(1, max_deg)
        out = out + term
    return out


def test_curvature_properties():
    rng = random.Random(14)
    for _ in range(20):
        conn = rnd_connection(rng, FP3)
        X = Multivector.build(FP3, 1, {("x1",): rnd_base_scalar(rng, FP3),
                                       ("x2",): rnd_base_scalar(rng, FP3)})
        Y = Multivector.build(FP3, 1, {("x2",): rnd_base_scalar(rng, FP3),
                                       ("x3",): rnd_base_scalar(rng, FP3)})
        c = curvature(conn, X, Y)
        # always vertical
        assert all(i in FP3.fiber_indices for (i,) in c.comps)
        assert (curvature(conn, Y, X) + c).is_zero()
        assert curvature(conn, X, X).is_zero()
        # bilinear over functions of the base
        f = FP3.parse("2 - 3*x1^2*x2")
        assert curvature(conn, f * X, Y) == f * c


def test_coordinate_curvature_matches_curvature():
    rng = random.Random(61)
    for _ in range(15):
        conn = rnd_connection(rng, FP3)
        for a in FP3.base_indices:
            for b in FP3.base_indices:
                names = FP3.coords[a].name, FP3.coords[b].name
                expected = curvature(conn, Multivector.basis(FP3, names[0]),
                                     Multivector.basis(FP3, names[1]))
                assert coordinate_curvature(conn, *names) == expected
                assert coordinate_curvature(conn, a, b) == expected
                assert coordinate_curvature(
                    conn, *map(FP3.coordinate, names)) == expected
    with pytest.raises(ValueError):
        coordinate_curvature(conn, "x1", "q")
    with pytest.raises(ValueError):
        coordinate_curvature(conn, "x1", FP3.coordinate("q"))
    with pytest.raises(ValueError):
        coordinate_curvature(conn, FP3.index("p"), 0)


def test_d_gamma_examples():
    flat = Connection.flat(FP)
    f = BaseForm.from_scalar(FP, FP.parse("x1*p"))
    assert d_gamma(flat, f) == BaseForm.build(FP, 1, {("x1",): FP.coord("p")})
    assert d_gamma(flat, BaseForm.from_scalar(FP, FP.rational(7))).is_zero()
    conn = Connection(FP, {("q", "x1"): FP.coord("p")})
    g = BaseForm.from_scalar(FP, FP.coord("q"))
    assert d_gamma(conn, g) == BaseForm.build(FP, 1, {("x1",): FP.parse("-1*p")})


def test_d_gamma_flat_is_base_de_rham():
    rng = random.Random(32)
    flat = Connection.flat(FP3)
    for _ in range(20):
        alpha = BaseForm.build(FP3, 1, {
            ("x1",): rnd_scalar(rng, FP3), ("x3",): rnd_scalar(rng, FP3)})
        twice = d_gamma(flat, d_gamma(flat, alpha))
        # flat lifts are plain base partials on base-only coefficients;
        # with fiber-dependent coefficients d^2 still vanishes because
        # partials commute
        assert twice.is_zero()


def test_d_gamma_matches_horizontal_derivative():
    rng = random.Random(71)
    bases = FP3.base_names
    for degree in (0, 1, 2):
        for _ in range(10):
            conn = rnd_connection(rng, FP3)
            assert conn.table
            alpha = BaseForm.build(FP3, degree, {
                key: rnd_scalar(rng, FP3)
                for key in combinations(bases, degree)
                if rng.random() < 0.7})
            assert d_gamma(conn, alpha) == reference_d_gamma(conn, alpha)


def test_promote_and_round_trip():
    rng = random.Random(27)
    for _ in range(20):
        conn = rnd_connection(rng, FP3)
        F = BaseForm.build(FP3, 2, {("x1", "x2"): rnd_scalar(rng, FP3),
                                    ("x2", "x3"): rnd_scalar(rng, FP3)})
        # read on the total patch, F vanishes on vertical directions
        for u in ("q", "p"):
            assert contract(Multivector.basis(FP3, u), F).is_zero()
        # pulls back to F through horizontal lifts
        for a, b in (("x1", "x2"), ("x1", "x3"), ("x2", "x3")):
            ha = horizontal_lift(conn, Multivector.basis(FP3, a))
            hb = horizontal_lift(conn, Multivector.basis(FP3, b))
            assert contract(ha.wedge(hb), F).scalar() == F.coefficient(a, b)


def test_ann_hor_basis():
    conn = Connection(FP, {("q", "x1"): FP.coord("p")})
    etas = ann_hor_basis(conn)
    assert len(etas) == 2
    eta_q = DiffForm.build(FP, 1, {("q",): 1, ("x1",): FP.coord("p")})
    assert etas[0] == eta_q
    assert etas[1] == DiffForm.basis(FP, "p")
    rng = random.Random(50)
    for _ in range(20):
        conn = rnd_connection(rng, FP3)
        lifts = [horizontal_lift(conn, Multivector.basis(FP3, a))
                 for a in FP3.base_names]
        for eta in ann_hor_basis(conn):
            assert all(pair(eta, h).is_zero() for h in lifts)
    assert len(ann_hor_basis(Connection.flat(FP3))) == 2


def random_data(rng, patch):
    """Unconstrained data: most components of V, the connection and F
    drawn at random, so each condition usually fails."""
    fiber, base = patch.fiber_names, patch.base_names
    V = Multivector.build(patch, 2, {
        key: random_scalar(rng, patch)
        for key in combinations(fiber, 2) if rng.random() < 0.8})
    conn = Connection(patch, {
        (u, a): random_scalar(rng, patch)
        for u in fiber for a in base if rng.random() < 0.6})
    F = BaseForm.build(patch, 2, {
        key: random_scalar(rng, patch)
        for key in combinations(base, 2) if rng.random() < 0.8})
    return GeometricData(patch, V, conn, F)


def generic_witnesses(data):
    """check_integrability's four witness lists, built from the generic
    kernels: schouten, lie_derivative, coordinate_curvature less the
    Hamiltonian field sharp(V, d_scalar(F_ab)), and d_gamma through
    horizontal_derivative."""
    patch = data.patch
    names = patch.names
    V = data.vertical_bivector
    conn = data.connection
    F = data.horizontal_form
    curvature = []
    for a, b in combinations(patch.base_indices, 2):
        delta = coordinate_curvature(conn, a, b) - sharp(V, d_scalar(
            patch, F.comps.get((a, b), patch.zero())))
        curvature += tensor_witnesses(delta, (names[a], names[b]))
    return [
        tensor_witnesses(schouten(V, V)),
        [w for a in patch.base_indices for w in tensor_witnesses(
            lie_derivative(conn.hor(a), V), (names[a],))],
        curvature,
        tensor_witnesses(reference_d_gamma(conn, F)),
    ]


@pytest.mark.parametrize("patch", [
    FP3,
    FiberedPatch.build("x1 x2 x3", "q p z"),
    FiberedPatch.build("x1 x2 x3", "th p z", angles=["th"]),
], ids=["FP3", "three_fibers", "angle"])
def test_check_integrability_matches_the_generic_kernels(patch):
    rng = random.Random(29)
    failed = set()
    for _ in range(12):
        data = random_data(rng, patch)
        report = check_integrability(data)
        for name, reference in zip(CONDITION_ORDER, generic_witnesses(data)):
            got = report.condition(name).witnesses
            want = ConditionReport(name, reference).witnesses
            assert [(w.indices, w.expression) for w in got] == \
                [(w.indices, w.expression) for w in want], name
            if got:
                failed.add(name)
    # on two fiber coordinates a vertical bivector always self-commutes
    assert failed == set(CONDITION_ORDER) - (
        {"jacobi"} if len(patch.fiber_indices) == 2 else set())
