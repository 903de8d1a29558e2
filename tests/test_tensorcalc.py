"""Exterior/Lie/Schouten/Courant calculus."""

from fractions import Fraction
import random

import pytest

from couplingdirac import DegreeError, ExpressionError, Patch, PatchError
from couplingdirac.fractionfield import RatExpr
from couplingdirac.tensorcalc import (
    CourantSection,
    DiffForm,
    Multivector,
    _hamiltonian,
    contract,
    courant_bracket,
    d_scalar,
    exterior_derivative,
    lie_bracket,
    lie_derivative,
    pair,
    pairing_plus,
    poisson_bracket,
    schouten,
    sharp,
)

QP = Patch.build("q p")
XYZ = Patch.build("x1 x2 x3")
BIG = Patch.build("x1 x2 q p")
ANG = Patch.build("x1 q th", angles=("th",))


def rnd_scalar(rng, patch, max_terms=2, max_deg=2):
    out = patch.zero()
    names = [c.name for c in patch.coords if not c.angle]
    angles = [c.name for c in patch.coords if c.angle]
    for _ in range(rng.randint(1, max_terms)):
        term = patch.rational(rng.randint(-3, 3))
        for name in rng.sample(names, rng.randint(0, 2)):
            term = term * patch.coord(name) ** rng.randint(1, max_deg)
        if angles and rng.random() < 0.6:
            term = term * patch.trig(rng.randint(0, 1), rng.randint(1, 2),
                                     rng.choice(angles))
        out = out + term
    return out


def rnd_rat(rng, patch):
    names = [c.name for c in patch.coords if not c.angle]
    den = 1 + rng.choice([1, 2, -3]) * patch.coord(rng.choice(names))
    return RatExpr(rnd_scalar(rng, patch), den)


def rnd_tensor(rng, patch, cls, degree, max_entries=3, scalar=rnd_scalar):
    n = len(patch)
    entries = {}
    for _ in range(rng.randint(1, max_entries)):
        idx = tuple(sorted(rng.sample(range(n), degree)))
        entries[idx] = scalar(rng, patch)
    return cls.build(patch, degree, entries)


def rnd_vf(rng, patch):
    return rnd_tensor(rng, patch, Multivector, 1)


# --- wedge -------------------------------------------------------------------

def test_wedge_examples():
    dq, dp = DiffForm.basis(QP, "q"), DiffForm.basis(QP, "p")
    assert dq.wedge(dq).is_zero()
    assert dq.wedge(dp) == DiffForm.build(QP, 2, {("q", "p"): 1})
    x1 = BIG.coord("x1")
    a = DiffForm.build(BIG, 1, {("x1",): x1})
    b = DiffForm.basis(BIG, "x2")
    assert a.wedge(b) == DiffForm.build(BIG, 2, {("x1", "x2"): x1})


def test_wedge_graded_commutativity():
    rng = random.Random(3)
    for _ in range(40):
        da = rng.choice([1, 2])
        db = rng.choice([1, 2])
        a = rnd_tensor(rng, BIG, DiffForm, da)
        b = rnd_tensor(rng, BIG, DiffForm, db)
        flipped = b.wedge(a)
        assert a.wedge(b) == (flipped if (da * db) % 2 == 0 else -flipped)
        assert a.wedge(b).degree == da + db


def test_wedge_kind_mismatch():
    with pytest.raises(TypeError):
        DiffForm.basis(QP, "q").wedge(Multivector.basis(QP, "p"))


def test_build_folds_antisymmetry():
    v = Multivector.build(QP, 2, {("p", "q"): 1})
    assert v == -Multivector.build(QP, 2, {("q", "p"): 1})
    assert Multivector.build(QP, 2, {("q", "q"): 1}).is_zero()
    assert v.coefficient("q", "p") == -1
    assert v.coefficient("p", "q") == 1


def test_constructor_rejects_an_index_outside_the_patch():
    for key in ((99,), (-1,)):
        with pytest.raises(PatchError, match="outside the patch"):
            Multivector(BIG, 1, {key: BIG.one()})
    with pytest.raises(PatchError, match="outside the patch"):
        DiffForm(BIG, 2, {(0, 4): BIG.one()})


def test_build_rejects_an_index_outside_the_patch():
    with pytest.raises(PatchError, match="outside the patch"):
        Multivector.build(BIG, 1, {(7,): 1})


def test_coefficient_rejects_an_index_outside_the_patch():
    v = Multivector.basis(BIG, "q")
    assert v.coefficient(2) == v.coefficient("q") == 1
    for ref in (99, -1):
        with pytest.raises(PatchError, match="outside the patch"):
            v.coefficient(ref)


def test_coefficient_needs_one_coordinate_per_degree():
    V = Multivector.build(BIG, 2, {("q", "p"): 1})
    with pytest.raises(DegreeError, match="1 coordinates for a degree-2"):
        V.coefficient("q")
    with pytest.raises(DegreeError):
        V.coefficient("x1", "q", "p")
    assert V.coefficient("p", "q") == -1


# --- exterior derivative -------------------------------------------------------

def test_tensor_coefficients_must_be_exact_scalars():
    with pytest.raises(ExpressionError, match="int, a Fraction or an "
                       "expression, not 0.5"):
        Multivector.build(QP, 2, {("q", "p"): 0.5})
    with pytest.raises(ExpressionError, match="not '1/2'"):
        DiffForm.build(QP, 1, {("q",): "1/2"})
    with pytest.raises(ExpressionError, match="not 0.5"):
        Multivector.from_scalar(QP, 0.5)
    V = Multivector.build(QP, 2, {("q", "p"): Fraction(1, 2)})
    assert schouten(V, V).is_zero()
    assert DiffForm.from_scalar(QP, 3).scalar() == 3
    half = RatExpr(QP.one(), QP.rational(2))
    assert Multivector.build(QP, 1, {("q",): half}).coefficient("q") == half


def test_exterior_derivative_examples():
    f = BIG.parse("x1*p")
    df = d_scalar(BIG, f)
    assert df == DiffForm.build(BIG, 1, {("x1",): BIG.coord("p"), ("p",): BIG.coord("x1")})
    # d(x1*x2 dx1) = -x1 dx1^dx2
    omega = DiffForm.build(BIG, 1, {("x1",): BIG.parse("x1*x2")})
    assert exterior_derivative(omega) == DiffForm.build(
        BIG, 2, {("x1", "x2"): BIG.parse("-1*x1")})


def test_d_squared_zero():
    rng = random.Random(11)
    patches = [QP, XYZ, BIG, Patch.build("x1 x2 x3 q p")]
    for _ in range(100):
        patch = rng.choice(patches)
        deg = rng.choice([0, 1, 2])
        if deg == 0:
            omega = DiffForm.from_scalar(patch, rnd_scalar(rng, patch))
        else:
            omega = rnd_tensor(rng, patch, DiffForm, deg)
        assert exterior_derivative(exterior_derivative(omega)).is_zero()


def test_d_leibniz_over_wedge():
    rng = random.Random(23)
    for _ in range(30):
        a = rnd_tensor(rng, BIG, DiffForm, 1)
        b = rnd_tensor(rng, BIG, DiffForm, 1)
        lhs = exterior_derivative(a.wedge(b))
        rhs = exterior_derivative(a).wedge(b) - a.wedge(exterior_derivative(b))
        assert lhs == rhs


# --- interior product ------------------------------------------------------------

def test_contract_examples():
    dqdp = DiffForm.build(QP, 2, {("q", "p"): 1})
    assert contract(Multivector.basis(QP, "q"), dqdp) == DiffForm.basis(QP, "p")
    assert contract(Multivector.basis(QP, "p"), dqdp) == -DiffForm.basis(QP, "q")
    assert contract(Multivector.build(QP, 2, {("q", "p"): 1}), dqdp).scalar() == 1


def test_contract_degree_error_and_nilpotence():
    rng = random.Random(5)
    with pytest.raises(DegreeError):
        contract(Multivector.basis(QP, "q"),
                 DiffForm.from_scalar(QP, QP.one()))
    for _ in range(20):
        X = rnd_vf(rng, BIG)
        om = rnd_tensor(rng, BIG, DiffForm, 2)
        assert contract(X, contract(X, om)).is_zero()


def test_pair_equals_full_contraction():
    rng = random.Random(17)
    for patch in (QP, BIG, ANG):
        for _ in range(40):
            X = rnd_vf(rng, patch)
            om = rnd_tensor(rng, patch, DiffForm, 1)
            value = pair(om, X)
            assert value == contract(X, om).scalar(), (X, om)
            assert value.patch == patch
    X = Multivector.basis(BIG, "x1")
    assert pair(DiffForm.basis(BIG, "q"), X).is_zero()
    assert pair(DiffForm.zero(BIG, 1), X).is_zero()


def test_pair_rejects_other_degrees():
    X = Multivector.basis(BIG, "x1")
    om = DiffForm.basis(BIG, "x1")
    bad = [(DiffForm.from_scalar(BIG, 1), X),
           (DiffForm.build(BIG, 2, {("x1", "q"): 1}), X),
           (om, Multivector.from_scalar(BIG, 1)),
           (om, Multivector.build(BIG, 2, {("x1", "q"): 1})),
           (X, om)]
    for form, field in bad:
        with pytest.raises(DegreeError):
            pair(form, field)


def test_contract_agrees_with_iterated():
    rng = random.Random(8)
    for _ in range(30):
        V = rnd_tensor(rng, BIG, Multivector, 2)
        om = rnd_tensor(rng, BIG, DiffForm, 2)
        # sum over decomposable pieces: i_{d_i ^ d_j} = i_{d_j} o i_{d_i}
        expected = DiffForm.zero(BIG, 0)
        for (i, j), c in V.items():
            ei = Multivector(BIG, 1, {(i,): BIG.one()})
            ej = Multivector(BIG, 1, {(j,): BIG.one()})
            expected = expected + c * contract(ej, contract(ei, om))
        assert contract(V, om) == expected


# --- Lie bracket and derivative ------------------------------------------------

def test_lie_bracket_examples():
    assert lie_bracket(Multivector.basis(QP, "q"), Multivector.basis(QP, "p")).is_zero()
    X = Multivector.basis(XYZ, "x1")
    Y = Multivector.build(XYZ, 1, {("x2",): XYZ.coord("x1")})
    assert lie_bracket(X, Y) == Multivector.basis(XYZ, "x2")
    rng = random.Random(2)
    for _ in range(20):
        Z = rnd_vf(rng, BIG)
        assert lie_bracket(Z, Z).is_zero()


def test_lie_bracket_jacobi():
    rng = random.Random(44)
    for _ in range(25):
        X, Y, Z = (rnd_vf(rng, XYZ) for _ in range(3))
        total = (lie_bracket(X, lie_bracket(Y, Z))
                 + lie_bracket(Y, lie_bracket(Z, X))
                 + lie_bracket(Z, lie_bracket(X, Y)))
        assert total.is_zero()


def test_lie_derivative_examples():
    # L_{d_q}(q dp) = dp
    omega = DiffForm.build(QP, 1, {("p",): QP.coord("q")})
    assert lie_derivative(Multivector.basis(QP, "q"), omega) == DiffForm.basis(QP, "p")
    V = Multivector.build(QP, 2, {("q", "p"): 1})
    assert lie_derivative(Multivector.basis(QP, "q"), V).is_zero()
    rng = random.Random(6)
    for _ in range(20):
        X = rnd_vf(rng, BIG)
        f = rnd_scalar(rng, BIG)
        lhs = lie_derivative(X, DiffForm.from_scalar(BIG, f)).scalar()
        assert lhs == pair(d_scalar(BIG, f), X)


def test_lie_derivative_commutes_with_d():
    rng = random.Random(61)
    for _ in range(25):
        X = rnd_vf(rng, BIG)
        om = rnd_tensor(rng, BIG, DiffForm, 1)
        assert (lie_derivative(X, exterior_derivative(om))
                == exterior_derivative(lie_derivative(X, om)))


# --- Schouten bracket --------------------------------------------------------------

def jacobiator(V, i, j, k):
    patch = V.patch
    f = [patch.coord(c.name) for c in patch.coords]
    br = lambda a, b: poisson_bracket(V, a, b)
    return (br(f[i], br(f[j], f[k])) + br(f[j], br(f[k], f[i]))
            + br(f[k], br(f[i], f[j])))


def test_schouten_examples():
    V = Multivector.build(QP, 2, {("q", "p"): 1})
    assert schouten(V, V).is_zero()
    V1 = Multivector.build(XYZ, 2, {("x1", "x2"): 1,
                                    ("x2", "x3"): XYZ.coord("x1")})
    assert schouten(V1, V1).is_zero()
    V2 = Multivector.build(XYZ, 2, {("x1", "x2"): 1,
                                    ("x2", "x3"): XYZ.coord("x2")})
    tri = schouten(V2, V2)
    assert not tri.is_zero()
    # frozen regression: full contraction with the coordinate volume form
    vol = DiffForm.build(XYZ, 3, {("x1", "x2", "x3"): 1})
    assert contract(tri, vol).scalar() == 2
    assert jacobiator(V2, 0, 1, 2) == 1


def test_schouten_degree_one_is_lie_bracket():
    rng = random.Random(17)
    for _ in range(40):
        X, Y = rnd_vf(rng, BIG), rnd_vf(rng, BIG)
        assert schouten(X, Y) == lie_bracket(X, Y)
        f = rnd_scalar(rng, BIG)
        assert schouten(X, Multivector.from_scalar(BIG, f)).scalar() == pair(
            d_scalar(BIG, f), X)


def test_schouten_graded_antisymmetry():
    rng = random.Random(29)
    for _ in range(40):
        a = rng.choice([1, 2, 3])
        b = rng.choice([1, 2, 3])
        A = rnd_tensor(rng, BIG, Multivector, a)
        B = rnd_tensor(rng, BIG, Multivector, b)
        sign = (-1) ** ((a - 1) * (b - 1))
        lhs = schouten(A, B)
        rhs = schouten(B, A)
        assert lhs == (-rhs if sign == 1 else rhs)


def test_schouten_graded_jacobi():
    rng = random.Random(41)
    for _ in range(30):
        degs = [rng.choice([1, 2]) for _ in range(3)]
        A, B, C = (rnd_tensor(rng, XYZ, Multivector, d, max_entries=2)
                   for d in degs)
        a, b, c = degs
        t1 = schouten(A, schouten(B, C))
        t2 = schouten(schouten(A, B), C)
        t3 = schouten(B, schouten(A, C))
        sign = (-1) ** ((a - 1) * (b - 1))
        total = t1 - t2 - (t3 if sign == 1 else -t3)
        assert total.is_zero()


def test_schouten_leibniz():
    rng = random.Random(83)
    for _ in range(25):
        A = rnd_tensor(rng, XYZ, Multivector, rng.choice([1, 2]), max_entries=2)
        B = rnd_tensor(rng, XYZ, Multivector, 1, max_entries=2)
        C = rnd_tensor(rng, XYZ, Multivector, 1, max_entries=2)
        # [A, B^C] = [A,B]^C + (-1)^{(a-1) b} B^[A,C]
        lhs = schouten(A, B.wedge(C))
        tail = B.wedge(schouten(A, C))
        if ((A.degree - 1) * B.degree) % 2:
            tail = -tail
        assert lhs == schouten(A, B).wedge(C) + tail


def test_jacobi_iff_coordinate_jacobiator():
    rng = random.Random(53)
    patch = Patch.build("x1 x2 x3 x4")
    for _ in range(100):
        V = rnd_tensor(rng, patch, Multivector, 2, max_entries=3)
        sch = schouten(V, V)
        brute = all(
            jacobiator(V, i, j, k).is_zero()
            for i in range(4) for j in range(i + 1, 4) for k in range(j + 1, 4))
        assert sch.is_zero() == brute


# --- sharp and poisson bracket -------------------------------------------------------

def test_sharp_convention():
    V = Multivector.build(QP, 2, {("q", "p"): 1})
    dq, dp = DiffForm.basis(QP, "q"), DiffForm.basis(QP, "p")
    # <beta, sharp(V, alpha)> = V(alpha, beta)
    assert sharp(V, dq) == Multivector.basis(QP, "p")
    assert sharp(V, dp) == -Multivector.basis(QP, "q")
    assert sharp(V, DiffForm.zero(QP, 1)).is_zero()
    patch = Patch.build("q p z")
    Vz = Multivector.build(patch, 2, {("q", "p"): 1})
    assert sharp(Vz, d_scalar(patch, patch.coord("z"))).is_zero()


def test_sharp_pairing_identity():
    rng = random.Random(97)
    for _ in range(40):
        V = rnd_tensor(rng, BIG, Multivector, 2)
        alpha = rnd_tensor(rng, BIG, DiffForm, 1)
        beta = rnd_tensor(rng, BIG, DiffForm, 1)
        assert pair(beta, sharp(V, alpha)) == contract(V, alpha.wedge(beta)).scalar()


def test_hamiltonian_is_sharp_of_the_full_gradient():
    # _hamiltonian differentiates f only along V's slots, the components
    # of df that sharp reads; a bivector on one or two pairs leaves some
    # coordinate of f's support out
    rng = random.Random(101)
    for patch in (BIG, ANG):
        for _ in range(40):
            V = rnd_tensor(rng, patch, Multivector, 2, max_entries=2)
            f = rnd_scalar(rng, patch, max_terms=3)
            assert _hamiltonian(V, f) == sharp(V, d_scalar(patch, f))


def test_poisson_bracket_values():
    V = Multivector.build(QP, 2, {("q", "p"): 1})
    q, p = QP.coord("q"), QP.coord("p")
    assert poisson_bracket(V, q, p) == 1
    assert poisson_bracket(V, q * p, q) == -q
    assert poisson_bracket(V, p, p).is_zero()


def test_hamiltonian_fields_are_a_morphism():
    rng = random.Random(71)
    V = Multivector.build(QP, 2, {("q", "p"): 1})
    for _ in range(25):
        f, g = rnd_scalar(rng, QP), rnd_scalar(rng, QP)
        Xf = sharp(V, d_scalar(QP, f))
        Xg = sharp(V, d_scalar(QP, g))
        Xfg = sharp(V, d_scalar(QP, poisson_bracket(V, f, g)))
        assert lie_bracket(Xf, Xg) == Xfg


def test_poisson_bracket_leibniz():
    rng = random.Random(59)
    for _ in range(25):
        V = rnd_tensor(rng, BIG, Multivector, 2)
        f, g, h = (rnd_scalar(rng, BIG) for _ in range(3))
        assert poisson_bracket(V, f, g * h) == (
            poisson_bracket(V, f, g) * h + g * poisson_bracket(V, f, h))
        assert poisson_bracket(V, f, g) == -poisson_bracket(V, g, f)


# --- Courant sections ------------------------------------------------------------------

def test_pairing_plus_examples():
    s1 = CourantSection(Multivector.basis(QP, "q"), DiffForm.basis(QP, "p"))
    s2 = CourantSection(Multivector.basis(QP, "p"), DiffForm.basis(QP, "q"))
    assert pairing_plus(s1, s2) == 1
    z = DiffForm.zero(QP, 1)
    sx = CourantSection(Multivector.basis(QP, "q"), z)
    sy = CourantSection(Multivector.basis(QP, "p"), z)
    assert pairing_plus(sx, sy).is_zero()
    zv = Multivector.zero(QP, 1)
    assert pairing_plus(CourantSection(zv, DiffForm.basis(QP, "q")),
                        CourantSection(zv, DiffForm.basis(QP, "p"))).is_zero()
    assert pairing_plus(s1, s2) == pairing_plus(s2, s1)


def test_pairing_plus_matches_the_halved_pairs():
    rng = random.Random(6062)
    seen = {"shared": 0, "disjoint": 0}
    for patch in (BIG, ANG):
        for _ in range(60):
            s1, s2 = (CourantSection(rnd_vf(rng, patch),
                                     rnd_tensor(rng, patch, DiffForm, 1))
                      for _ in range(2))
            shared = (s1.form.comps.keys() & s2.vf.comps.keys()
                      or s2.form.comps.keys() & s1.vf.comps.keys())
            seen["shared" if shared else "disjoint"] += 1
            got = pairing_plus(s1, s2)
            want = (pair(s1.form, s2.vf) + pair(s2.form, s1.vf)) * Fraction(1, 2)
            assert got == want
            assert got.patch is patch
            if not shared:
                assert got.is_zero()
    assert min(seen.values()) > 10


def test_courant_bracket_examples():
    zf = DiffForm.zero(QP, 1)
    zv = Multivector.zero(QP, 1)
    b = courant_bracket(CourantSection(Multivector.basis(QP, "q"), zf),
                        CourantSection(Multivector.basis(QP, "p"), zf))
    assert b.vf.is_zero() and b.form.is_zero()
    qdp = DiffForm.build(QP, 1, {("p",): QP.coord("q")})
    b = courant_bracket(CourantSection(Multivector.basis(QP, "q"), zf),
                        CourantSection(zv, qdp))
    assert b.vf.is_zero()
    assert b.form == DiffForm.basis(QP, "p")
    b = courant_bracket(CourantSection(zv, qdp), CourantSection(zv, qdp))
    assert b.vf.is_zero() and b.form.is_zero()


def cartan_bracket(s1, s2):
    # textbook form: ([X1, X2], L_{X1} a2 - i_{X2} d a1)
    return CourantSection(
        lie_bracket(s1.vf, s2.vf),
        lie_derivative(s1.vf, s2.form)
        - contract(s2.vf, exterior_derivative(s1.form)))


def every_partial(T):
    """``{(coordinate key, component key): derivative}`` over every
    coordinate of the patch, nonzero derivatives only."""
    return {((i,), key): dc for key, c in T.items()
            for i in range(len(T.patch)) if (dc := c.differentiate(i))}


def rnd_mixed(rng, patch):
    return rnd_rat(rng, patch) if rng.random() < 0.5 else rnd_scalar(rng, patch)


def test_courant_bracket_matches_cartan_formula():
    rng = random.Random(83)
    for patch in (BIG, ANG):
        for _ in range(15):
            s1, s2 = (CourantSection(rnd_vf(rng, patch),
                                     rnd_tensor(rng, patch, DiffForm, 1))
                      for _ in range(2))
            expected = cartan_bracket(s1, s2)
            # the second call reuses both sections' stored partials
            assert courant_bracket(s1, s2) == expected
            assert courant_bracket(s1, s2) == expected
            along, of, form_along, form_of = s1.partials
            for T, by_coord, by_comp in ((s1.vf, along, of),
                                         (s1.form, form_along, form_of)):
                want = every_partial(T)
                assert {(i, key): dc for i, row in by_coord.items()
                        for key, dc in row} == want
                assert {(i, key): dc for key, row in by_comp.items()
                        for i, dc in row} == want
            assert courant_bracket(s2, s2) == cartan_bracket(s2, s2)
    # fraction coefficients: the partials read RatExpr's
    # coordinates_used/differentiate
    fractions = 0
    for patch in (BIG, ANG):
        x, y = (patch.coord(c.name) for c in patch.coords[:2])
        fixed = RatExpr(y, 1 + x * x)
        for _ in range(15):
            s1 = CourantSection(
                rnd_tensor(rng, patch, Multivector, 1, scalar=rnd_mixed),
                rnd_tensor(rng, patch, DiffForm, 1, scalar=rnd_mixed))
            s2 = CourantSection(
                rnd_vf(rng, patch) + Multivector.basis(patch, "q") * fixed,
                rnd_tensor(rng, patch, DiffForm, 1, scalar=rnd_mixed)
                + DiffForm.basis(patch, "x1") * fixed)
            fractions += sum(isinstance(c, RatExpr) for s in (s1, s2)
                             for T in (s.vf, s.form) for c in T.comps.values())
            for a, b in ((s1, s2), (s2, s1), (s1, s1)):
                assert courant_bracket(a, b) == cartan_bracket(a, b)
    assert fractions > 60


def test_courant_section_is_immutable():
    s = CourantSection(Multivector.basis(QP, "q"), DiffForm.basis(QP, "p"))
    for name in ("vf", "form", "partials", "_partials", "other"):
        with pytest.raises(AttributeError):
            setattr(s, name, DiffForm.zero(QP, 1))
    assert s.partials == ({}, {(0,): []}, {}, {(1,): []})
    assert s.form == DiffForm.basis(QP, "p")


def test_courant_section_rejects_swapped_halves():
    X, w = Multivector.basis(QP, "q"), DiffForm.basis(QP, "p")
    for vf, form in ((w, X), (w, w), (X, X), ({}, w), (X, None)):
        with pytest.raises(TypeError, match="Courant section"):
            CourantSection(vf, form)


def test_graph_sections_of_closed_form_stay_isotropic():
    # graph sections s_X = (X, i_X w) of a closed 2-form w
    rng = random.Random(37)
    for _ in range(25):
        f = rnd_scalar(rng, BIG)
        g = rnd_scalar(rng, BIG)
        w = exterior_derivative(DiffForm.build(
            BIG, 1, {("x1",): f, ("q",): g}))
        secs = []
        for _ in range(3):
            X = rnd_vf(rng, BIG)
            secs.append(CourantSection(X, contract(X, w)))
        sX, sY, sZ = secs
        assert pairing_plus(courant_bracket(sX, sY), sZ).is_zero()


# --- coordinate support and trusted tables ------------------------------------
# The calculus differentiates a coefficient only along its coordinate
# support; these references differentiate along every coordinate.

def full_gradient(T, i):
    name = T.patch.coords[i].name
    return type(T)(T.patch, T.degree,
                   {k: c.differentiate(name) for k, c in T.items()})


def full_d_scalar(patch, f):
    return DiffForm(patch, 1, {(i,): f.differentiate(c.name)
                               for i, c in enumerate(patch.coords)})


def full_exterior_derivative(omega):
    patch = omega.patch
    out = DiffForm.zero(patch, omega.degree + 1)
    for key, c in omega.items():
        out = out + full_d_scalar(patch, c).wedge(
            DiffForm(patch, omega.degree, {key: patch.one()}))
    return out


def full_lie_bracket(X, Y):
    out = Multivector.zero(X.patch, 1)
    for j in range(len(X.patch)):
        out = (out + full_gradient(Y, j) * X.coefficient(j)
               - full_gradient(X, j) * Y.coefficient(j))
    return out


def odd_derivative(A, i):
    table = {}
    for key, c in A.items():
        if i in key:
            m = key.index(i)
            table[key[:m] + key[m + 1:]] = -c if (A.degree - 1 - m) % 2 else c
    return Multivector(A.patch, A.degree - 1, table)


def full_schouten(A, B):
    a, b = A.degree, B.degree
    out = Multivector.zero(A.patch, a + b - 1)
    for i in range(len(A.patch)):
        if a:  # a function has no odd derivative
            out = out + odd_derivative(A, i).wedge(full_gradient(B, i))
        if b:
            term = odd_derivative(B, i).wedge(full_gradient(A, i))
            out = out + (term if (a - 1) * (b - 1) % 2 else -term)
    return out


def test_calculus_matches_differentiation_along_every_coordinate():
    rng = random.Random(5150)
    for scalar in (rnd_scalar, rnd_rat):
        for patch in (BIG, ANG):
            for _ in range(8):
                f = scalar(rng, patch)
                assert d_scalar(patch, f) == full_d_scalar(patch, f)
                for degree in (1, 2):
                    w = rnd_tensor(rng, patch, DiffForm, degree, scalar=scalar)
                    assert exterior_derivative(w) == full_exterior_derivative(w)
                X, Y = (rnd_tensor(rng, patch, Multivector, 1, scalar=scalar)
                        for _ in range(2))
                V = rnd_tensor(rng, patch, Multivector, 2, scalar=scalar)
                assert lie_bracket(X, Y) == full_lie_bracket(X, Y)
                for A, B in ((X, Y), (X, V), (V, V)):
                    assert schouten(A, B) == full_schouten(A, B)
                # degree-0 operands and both signs of the second term
                for a, b in ((0, 1), (1, 0), (0, 2), (2, 0), (2, 3), (3, 2),
                             (3, 3)):
                    A = rnd_tensor(rng, patch, Multivector, a, scalar=scalar)
                    B = rnd_tensor(rng, patch, Multivector, b, scalar=scalar)
                    assert schouten(A, B) == full_schouten(A, B)


def assert_clean(T):
    """The checks the public constructor would make on T's table."""
    for key, c in T.items():
        assert not c.is_zero()
        assert len(key) == T.degree
        assert all(a < b for a, b in zip(key, key[1:]))
    assert type(T)(T.patch, T.degree, dict(T.comps)) == T


def test_calculus_builds_clean_tables():
    rng = random.Random(6061)
    for scalar in (rnd_scalar, rnd_rat):
        for patch in (BIG, ANG):
            for _ in range(8):
                X, Y = (rnd_tensor(rng, patch, Multivector, 1, scalar=scalar)
                        for _ in range(2))
                V, W = (rnd_tensor(rng, patch, Multivector, 2, scalar=scalar)
                        for _ in range(2))
                a, b = (rnd_tensor(rng, patch, DiffForm, 1, scalar=scalar)
                        for _ in range(2))
                w = rnd_tensor(rng, patch, DiffForm, 2, scalar=scalar)
                bracket = courant_bracket(CourantSection(X, a),
                                          CourantSection(Y, b))
                cancelling = [X + (-X), V - V, X.wedge(X), lie_bracket(X, X)]
                assert not any(cancelling)
                results = cancelling + [
                    X + Y, X - Y, V - W, a - b, -V,
                    a.wedge(b), a.wedge(w), V.wedge(X),
                    d_scalar(patch, scalar(rng, patch)),
                    exterior_derivative(a), exterior_derivative(w),
                    contract(X, w), contract(V, w), contract(X, a),
                    lie_bracket(X, Y), sharp(V, a), schouten(V, V),
                    schouten(X, V), bracket.vf, bracket.form]
                for T in results:
                    assert_clean(T)
