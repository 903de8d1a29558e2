"""Exact division, quotient expressions, symbolic linear algebra."""

from fractions import Fraction
import random

import pytest

from couplingdirac import DegenerateInputError, Patch
from couplingdirac.fractionfield import (
    RatExpr,
    determinant,
    divide_exact,
    inverse,
    null_space,
    pfaffian,
    rat_inverse,
)

PATCH = Patch.build("x y p th", angles=("th",))


def rnd_expr(rng, patch=PATCH, max_terms=3, max_deg=2, trig=True):
    out = patch.zero()
    names = [c.name for c in patch.coords if not c.angle]
    angles = [c.name for c in patch.coords if c.angle]
    for _ in range(rng.randint(1, max_terms)):
        term = patch.rational(Fraction(rng.randint(-4, 4), rng.randint(1, 2)))
        for name in rng.sample(names, rng.randint(0, 2)):
            term = term * patch.coord(name) ** rng.randint(1, max_deg)
        if trig and angles and rng.random() < 0.5:
            term = term * patch.parse(
                f"{rng.choice(['sin', 'cos'])}({rng.randint(1, 2)}*{rng.choice(angles)})")
        out = out + term
    return out


# --- exact division ---------------------------------------------------------

def test_divide_exact_round_trip():
    rng = random.Random(314)
    hits = 0
    for _ in range(150):
        a = rnd_expr(rng)
        b = rnd_expr(rng)
        if b.is_zero():
            continue
        prod = a * b
        q = divide_exact(prod, b)
        assert q is not None
        assert q == a
        hits += 1
    assert hits > 100


def test_divide_exact_rejects_non_multiples():
    x, y = PATCH.coord("x"), PATCH.coord("y")
    assert divide_exact(y, x) is None
    assert divide_exact(x + 1, x) is None
    assert divide_exact(PATCH.one(), x) is None
    assert divide_exact(x * x + y, x) is None
    rng = random.Random(59)
    for _ in range(60):
        a, b = rnd_expr(rng), rnd_expr(rng)
        if b.is_zero() or b.as_rational() is not None:
            continue
        q = divide_exact(a, b)
        if q is not None:
            assert q * b == a


def test_divide_exact_trig():
    s = PATCH.parse("sin(th)")
    c = PATCH.parse("cos(th)")
    assert divide_exact(s * s, s) == s
    assert divide_exact(s * c, c) == s
    two_sc = PATCH.parse("sin(2*th)")  # = 2 sin cos
    assert divide_exact(two_sc, s) == 2 * c
    assert divide_exact(two_sc, c) == 2 * s
    # sin^2 = (1-cos(2t))/2 is not a multiple of cos
    assert divide_exact(s * s, c) is None
    x = PATCH.coord("x")
    assert divide_exact(x * s + x * c, x) == s + c


def test_divide_exact_constant_and_zero():
    x = PATCH.coord("x")
    assert divide_exact(3 * x, PATCH.rational(3)) == x
    assert divide_exact(x, PATCH.rational(Fraction(1, 2))) == 2 * x
    assert divide_exact(PATCH.zero(), x) == PATCH.zero()
    with pytest.raises(ZeroDivisionError):
        divide_exact(x, PATCH.zero())


# --- RatExpr ------------------------------------------------------------------

def test_ratexpr_arithmetic():
    x, y = PATCH.coord("x"), PATCH.coord("y")
    half_x = RatExpr(x, 2 * y)
    assert half_x + half_x == RatExpr(x, y)
    assert half_x * 2 == RatExpr(x, y)
    assert (half_x - half_x).is_zero()
    assert half_x * RatExpr(y, x) == Fraction(1, 2)
    assert RatExpr(x * y, y) == x
    assert x + RatExpr(y, y) == x + 1  # reflected ops with plain expressions
    assert (RatExpr(x, y) / RatExpr(x, y)) == 1
    with pytest.raises(ZeroDivisionError):
        RatExpr(x, PATCH.zero())


def test_ratexpr_differentiate():
    rng = random.Random(2718)
    for _ in range(40):
        n, d = rnd_expr(rng), rnd_expr(rng)
        if d.is_zero():
            continue
        r = RatExpr(n, d)
        for name in ("x", "th"):
            got = r.differentiate(name)
            want = RatExpr(
                n.differentiate(name) * d - n * d.differentiate(name), d * d)
            assert got == want
    # quotient rule sanity: d/dx (x^2/y) = 2x/y
    x, y = PATCH.coord("x"), PATCH.coord("y")
    assert RatExpr(x * x, y).differentiate("x") == RatExpr(2 * x, y)


def test_ratexpr_reduce_and_as_scalar():
    x, y = PATCH.coord("x"), PATCH.coord("y")
    r = RatExpr(x * y + y * y, y)
    assert r.as_scalar() == x + y
    assert r.reduce().den == 1
    bad = RatExpr(x, y)
    red = bad.reduce()
    assert red == bad and str(red) == "(x)/(y)"
    with pytest.raises(DegenerateInputError):
        bad.as_scalar()
    # shared monomial content and leading rationals cancel
    assert str(RatExpr(-x, x * x).reduce()) == "(-1)/(x)"
    assert str(RatExpr(x * y, x * x).reduce()) == "(y)/(x)"
    assert str(RatExpr(2 * y, 2 * x + 2 * x * y).reduce()) == "(y)/(x + x*y)"
    assert str(RatExpr(x * x * y + x * y, x * x).reduce()) == "(x*y + y)/(x)"


# --- linear algebra ---------------------------------------------------------------

def test_determinant_small():
    x, y = PATCH.coord("x"), PATCH.coord("y")
    zero, one = PATCH.zero(), PATCH.one()
    assert determinant([[x]], PATCH) == x
    assert determinant([[one, x], [y, x * y]], PATCH).is_zero()
    p = PATCH.coord("p")
    assert determinant([[zero, -p], [p, zero]], PATCH) == p * p
    m = [[one, x, zero], [zero, one, y], [x, zero, one]]
    assert determinant(m, PATCH) == 1 + x * x * y


def test_determinant_matches_numeric():
    rng = random.Random(99)
    for _ in range(25):
        n = rng.choice([2, 3])
        m = [[rnd_expr(rng, max_terms=2, max_deg=1) for _ in range(n)]
             for _ in range(n)]
        det = determinant(m, PATCH)
        pt = {c.name: rng.uniform(-1.5, 1.5) for c in PATCH.coords}
        vals = [[e.evaluate(pt) for e in row] for row in m]
        if n == 2:
            want = vals[0][0] * vals[1][1] - vals[0][1] * vals[1][0]
        else:
            want = (
                vals[0][0] * (vals[1][1] * vals[2][2] - vals[1][2] * vals[2][1])
                - vals[0][1] * (vals[1][0] * vals[2][2] - vals[1][2] * vals[2][0])
                + vals[0][2] * (vals[1][0] * vals[2][1] - vals[1][1] * vals[2][0]))
        assert det.evaluate(pt) == pytest.approx(want, abs=1e-7)


def test_inverse():
    rng = random.Random(123)
    one, zero = PATCH.one(), PATCH.zero()
    for _ in range(15):
        n = rng.choice([2, 3])
        m = [[rnd_expr(rng, max_terms=1, max_deg=1, trig=False)
              for _ in range(n)] for _ in range(n)]
        if determinant(m, PATCH).is_zero():
            continue
        inv, det = inverse(m, PATCH)
        assert not det.is_zero()
        for i in range(n):
            for j in range(n):
                entry = sum((RatExpr(m[i][k]) * inv[k][j] for k in range(n)),
                            RatExpr(zero))
                assert entry == (1 if i == j else 0)
    with pytest.raises(DegenerateInputError):
        inverse([[one, one], [one, one]], PATCH)


def rnd_skew(rng, n, trig=True):
    rows = [[PATCH.zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            e = rnd_expr(rng, max_terms=2, max_deg=1, trig=trig)
            rows[i][j], rows[j][i] = e, -e
    return rows


def test_pfaffian_squares_to_the_determinant():
    rng = random.Random(271)
    for n in (2, 4, 2, 4, 2, 4):
        A = rnd_skew(rng, n)
        assert pfaffian(A, PATCH) ** 2 == determinant(A, PATCH)
    p = PATCH.coord("p")
    assert pfaffian([[PATCH.zero(), p], [-p, PATCH.zero()]], PATCH) == p
    assert pfaffian([], PATCH) == 1
    for n in (1, 3, 5):
        assert pfaffian(rnd_skew(rng, n), PATCH).is_zero()
    with pytest.raises(ValueError):
        pfaffian([[PATCH.zero(), p], [p, PATCH.zero()]], PATCH)


def test_rat_inverse_is_exact():
    rng = random.Random(828)
    cases = [rnd_skew(rng, n, trig=False) for n in (2, 4, 6)]
    cases += [rnd_skew(rng, n) for n in (2, 4)]
    assert any("sin" in str(e) or "cos" in str(e) for e in cases[-1][0])
    for A in cases:
        n = len(A)
        inv, det = rat_inverse(A, PATCH)
        assert det == determinant(A, PATCH)
        for i in range(n):
            for j in range(n):
                entry = sum((RatExpr(A[i][k]) * inv[k][j] for k in range(n)),
                            RatExpr(PATCH.zero()))
                assert entry == (1 if i == j else 0)


def test_rat_inverse_rejects_singular_and_odd_sizes():
    x, zero = PATCH.coord("x"), PATCH.zero()
    rng = random.Random(5)
    # Pf = a01*a23 - a02*a13 + a03*a12 = 0 - x^2 + x^2
    singular = [[zero, zero, x, x], [zero, zero, x, x],
                [-x, -x, zero, zero], [-x, -x, zero, zero]]
    for bad in (singular, [[zero, zero], [zero, zero]],
                rnd_skew(rng, 1), rnd_skew(rng, 3)):
        with pytest.raises(DegenerateInputError):
            rat_inverse(bad, PATCH)


def test_null_space():
    x, y = PATCH.coord("x"), PATCH.coord("y")
    zero, one = PATCH.zero(), PATCH.one()
    vecs, pivots = null_space([[one, x], [y, x * y]], PATCH)
    assert len(vecs) == 1
    # (one, x) dot vec = 0 and (y, xy) dot vec = 0
    v = vecs[0]
    assert (v[0] + x * v[1]).is_zero()
    assert (y * v[0] + x * y * v[1]).is_zero()
    assert pivots and not pivots[0].is_zero()
    # full-rank matrix: empty kernel
    vecs, _ = null_space([[one, zero], [zero, one]], PATCH)
    assert vecs == []
    # zero matrix: full kernel
    vecs, pivots = null_space([[zero, zero], [zero, zero]], PATCH)
    assert len(vecs) == 2 and pivots == []


def test_null_space_random_rank():
    rng = random.Random(321)
    for _ in range(15):
        rows = 3
        cols = rng.choice([3, 4])
        m = [[rnd_expr(rng, max_terms=1, max_deg=1, trig=False)
              for _ in range(cols)] for _ in range(rows)]
        vecs, _ = null_space(m, PATCH)
        for v in vecs:
            assert any(not e.is_zero() for e in v)
            for row in m:
                dot = PATCH.zero()
                for a, b in zip(row, v):
                    dot = dot + a * b
                assert dot.is_zero()
