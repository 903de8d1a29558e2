"""Scalar ring: canonical form, arithmetic, calculus, parsing."""

from fractions import Fraction
import math
import random

import pytest

from couplingdirac import (
    AngleDisciplineError,
    ExpressionSyntaxError,
    Patch,
    PatchMismatchError,
    ScalarExpr,
    UnknownCoordinateError,
    parse,
)
from couplingdirac.symexpr import _MAX_NESTING

PATCH = Patch.build("x1 x2 q p th", angles=("th",))


def rnd_expr(rng, patch=PATCH, max_terms=3, max_deg=2, max_freq=3):
    """Random expression with small support."""
    out = patch.zero()
    names = [c.name for c in patch.coords if not c.angle]
    angles = [c.name for c in patch.coords if c.angle]
    for _ in range(rng.randint(1, max_terms)):
        term = patch.rational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        for name in rng.sample(names, rng.randint(0, 2)):
            term = term * patch.coord(name) ** rng.randint(1, max_deg)
        if angles and rng.random() < 0.6:
            th = rng.choice(angles)
            term = term * patch.parse(
                f"{rng.choice(['sin', 'cos'])}({rng.randint(1, max_freq)}*{th})")
        out = out + term
    return out


def sample_point(rng, patch=PATCH):
    return {c.name: rng.uniform(-2.0, 2.0) for c in patch.coords}


# --- canonical form vs numeric oracle ---------------------------------------

def test_canonical_form_matches_numeric_evaluation():
    rng = random.Random(101)
    for _ in range(200):
        a = rnd_expr(rng)
        b = rnd_expr(rng)
        combos = {"sum": (a + b, lambda pt: a.evaluate(pt) + b.evaluate(pt)),
                  "prod": (a * b, lambda pt: a.evaluate(pt) * b.evaluate(pt))}
        for label, (expr, oracle) in combos.items():
            for _ in range(20):
                pt = sample_point(rng)
                assert expr.evaluate(pt) == pytest.approx(oracle(pt), abs=1e-9), label


def test_zero_iff_identically_zero_numerically():
    rng = random.Random(7)
    for _ in range(100):
        a = rnd_expr(rng)
        diff = a - a
        assert diff.is_zero()
        b = rnd_expr(rng)
        if not (a - b).is_zero():
            assert any(abs(a.evaluate(pt) - b.evaluate(pt)) > 1e-12
                       for pt in (sample_point(rng) for _ in range(30)))


def test_product_to_sum_rewrites():
    s = PATCH.parse("sin(th)")
    c = PATCH.parse("cos(th)")
    assert s * s == PATCH.parse("1/2 - 1/2*cos(2*th)")
    assert c * c == PATCH.parse("1/2 + 1/2*cos(2*th)")
    assert s * c == PATCH.parse("1/2*sin(2*th)")
    assert s * s + c * c == PATCH.one()
    # double-angle chain: sin(th)*cos(2*th)
    assert s * PATCH.parse("cos(2*th)") == PATCH.parse("1/2*sin(3*th) - 1/2*sin(th)")


# --- ring axioms -------------------------------------------------------------

def test_ring_axioms_random():
    rng = random.Random(2024)
    for _ in range(60):
        a, b, c = (rnd_expr(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + PATCH.zero() == a
        assert a * PATCH.one() == a
        assert (a - a).is_zero()


def test_power_and_coercion():
    x = PATCH.coord("x1")
    assert x ** 0 == PATCH.one()
    assert x ** 3 == x * x * x
    for e in (PATCH.parse("x1 - 2*q*p + 1/3"),
              PATCH.parse("sin(th)*x2 + cos(2*th) - 1")):
        product = PATCH.one()
        for n in range(13):
            assert e ** n == product, (e, n)
            product = product * e
    assert 2 * x - x == x
    assert (Fraction(1, 2) * x) * 2 == x


# --- coefficient representation -------------------------------------------------

def rnd_int_expr(rng, patch=PATCH, trig=True):
    """Random expression with integer coefficients and at most one trig factor."""
    out = patch.zero()
    names = [c.name for c in patch.coords if not c.angle]
    for _ in range(rng.randint(1, 3)):
        term = patch.rational(rng.choice([-3, -2, -1, 1, 2, 3]))
        for name in rng.sample(names, rng.randint(0, 2)):
            term = term * patch.coord(name) ** rng.randint(1, 2)
        if trig and rng.random() < 0.6:
            term = term * patch.parse(
                f"{rng.choice(['sin', 'cos'])}({rng.randint(1, 3)}*th)")
        out = out + term
    return out


def assert_normal_coefficients(e):
    """Every coefficient is nonzero, an int when integral, else a Fraction."""
    for key, c in e.terms.items():
        assert c, (e, key)
        if Fraction(c).denominator == 1:
            assert type(c) is int, (e, key, c)
        else:
            assert type(c) is Fraction, (e, key, c)


def test_integer_coefficients_stay_int():
    rng = random.Random(31)
    for _ in range(100):
        a = rnd_int_expr(rng, trig=False)
        b = rnd_int_expr(rng)
        results = [a + b, a - b, -b, a * b, b * a, a ** 3,
                   b * 2, 3 + b]
        results += [r.differentiate(c) for r in (a, b, a * b)
                    for c in PATCH.coords]
        results += [PATCH.one(), PATCH.coord("x1"), PATCH.rational(-2),
                    PATCH.parse("2*sin(3*th)"), a ** 0]
        for r in results:
            assert all(type(c) is int for c in r.terms.values()), r


def test_integral_results_of_fraction_arithmetic_are_int():
    half = PATCH.parse("1/2")
    assert_normal_coefficients(half)
    assert (half + half).terms == {((), ()): 1}
    two_cos_sq = 2 * PATCH.parse("cos(th)") * PATCH.parse("cos(th)")
    assert two_cos_sq == PATCH.parse("1 + cos(2*th)")
    assert_normal_coefficients(two_cos_sq)
    assert_normal_coefficients(PATCH.parse("1/2*x1^2").differentiate("x1"))
    assert_normal_coefficients(PATCH.rational(Fraction(6, 3)))
    rng = random.Random(32)
    for _ in range(100):
        a, b = rnd_expr(rng), rnd_expr(rng)
        for r in (a + b, a - b, a * b, (a * b) * 6, a ** 2,
                  (6 * a).differentiate("x1"), (6 * b).differentiate("th")):
            assert_normal_coefficients(r)


def test_products_of_trig_and_trig_free_factors_match_evaluation():
    rng = random.Random(33)
    for _ in range(200):
        factors = [rnd_expr(rng) if rng.random() < 0.5
                   else rnd_int_expr(rng, trig=False)
                   for _ in range(rng.randint(2, 4))]
        product = PATCH.one()
        for f in factors:
            product = product * f
        for _ in range(5):
            pt = sample_point(rng)
            assert product.evaluate(pt) == pytest.approx(
                math.prod(f.evaluate(pt) for f in factors), abs=1e-9)


def test_public_constructor_normalizes_its_table():
    key = (((0, 1),), ())
    assert ScalarExpr(PATCH, {key: 0}).is_zero()
    assert ScalarExpr(PATCH, {key: Fraction(0)}) == PATCH.zero()
    e = ScalarExpr(PATCH, {key: Fraction(4, 2), ((), ()): Fraction(1, 3)})
    assert e == PATCH.parse("2*x1 + 1/3")
    assert_normal_coefficients(e)


def test_as_rational_is_a_fraction():
    for text in ("0", "3", "-2", "1/3", "4/2"):
        value = PATCH.parse(text).as_rational()
        assert type(value) is Fraction and value == Fraction(text)
    assert (PATCH.parse("x1") - PATCH.parse("x1")).as_rational() == 0
    assert PATCH.parse("x1 + 1").as_rational() is None


def term_coordinates(e):
    return {i for mono, trig in e.terms for i, *_ in mono + trig}


def test_coordinates_used_is_the_cached_union_of_term_coordinates():
    rng = random.Random(4141)
    for patch in (PATCH, Patch.build("x1 x2 q p")):
        for _ in range(40):
            a, b = rnd_expr(rng, patch), rnd_expr(rng, patch)
            # operands whose support is cached must not hand it on
            assert a.coordinates_used() == term_coordinates(a)
            assert b.coordinates_used() == term_coordinates(b)
            name = rng.choice(patch.names)
            for e in (a + b, a - b, -a, a * b, a ** 2, a.differentiate(name),
                      ScalarExpr(patch, a.terms)):
                support = e.coordinates_used()
                assert type(support) is frozenset
                assert support == term_coordinates(e)
                assert e.coordinates_used() is support
    assert PATCH.zero().coordinates_used() == frozenset()
    assert PATCH.parse("3").coordinates_used() == frozenset()
    assert PATCH.parse("x2*cos(th) + p").coordinates_used() == {
        PATCH.index("x2"), PATCH.index("th"), PATCH.index("p")}


def test_patch_mismatch_rejected():
    other = Patch.build("x1 x2")
    with pytest.raises(PatchMismatchError):
        PATCH.coord("x1") + other.coord("x1")


# --- calculus ----------------------------------------------------------------

def test_differentiate_basics():
    e = PATCH.parse("x1^3*q + 2*p")
    assert e.differentiate("x1") == PATCH.parse("3*x1^2*q")
    assert e.differentiate("q") == PATCH.parse("x1^3")
    assert e.differentiate("p") == PATCH.parse("2")
    assert e.differentiate("x2").is_zero()
    assert PATCH.parse("sin(2*th)").differentiate("th") == PATCH.parse("2*cos(2*th)")
    assert PATCH.parse("cos(3*th)").differentiate("th") == PATCH.parse("-3*sin(3*th)")


def test_differentiate_product_rule_and_mixed_partials():
    rng = random.Random(55)
    for _ in range(60):
        a, b = rnd_expr(rng), rnd_expr(rng)
        for name in ("x1", "q", "th"):
            lhs = (a * b).differentiate(name)
            rhs = a.differentiate(name) * b + a * b.differentiate(name)
            assert lhs == rhs
        assert (a.differentiate("x1").differentiate("th")
                == a.differentiate("th").differentiate("x1"))


def test_differentiate_numeric_oracle():
    rng = random.Random(19)
    h = 1e-6
    for _ in range(40):
        a = rnd_expr(rng)
        pt = sample_point(rng)
        for name in ("x1", "p", "th"):
            up = dict(pt); up[name] += h
            dn = dict(pt); dn[name] -= h
            fd = (a.evaluate(up) - a.evaluate(dn)) / (2 * h)
            assert a.differentiate(name).evaluate(pt) == pytest.approx(fd, abs=1e-5)


# --- angle averaging -----------------------------------------------------------

def test_angle_average_examples():
    assert PATCH.parse("sin(th)^2").angle_average("th") == PATCH.parse("1/2")
    assert PATCH.parse("cos(th)^2").angle_average("th") == PATCH.parse("1/2")
    for k in (1, 2, 5):
        assert PATCH.parse(f"sin({k}*th)").angle_average("th").is_zero()
        assert PATCH.parse(f"cos({k}*th)").angle_average("th").is_zero()
    e = PATCH.parse("p*cos(th)^2 + x1")
    assert e.angle_average("th") == PATCH.parse("1/2*p + x1")


def test_angle_average_properties():
    rng = random.Random(77)
    for _ in range(60):
        a = rnd_expr(rng)
        avg = a.angle_average("th")
        assert avg.angle_average("th") == avg
        assert a.differentiate("th").angle_average("th").is_zero()
        # linearity
        b = rnd_expr(rng)
        assert (a + b).angle_average("th") == avg + b.angle_average("th")
    with pytest.raises(AngleDisciplineError):
        PATCH.one().angle_average("x1")


# --- substitution ---------------------------------------------------------------

def test_substitute_values_and_expressions():
    e = PATCH.parse("x1^2*p + sin(th)")
    assert e.substitute({"x1": 2}) == PATCH.parse("4*p + sin(th)")
    assert e.substitute({"x1": Fraction(1, 2), "p": "q"}) == PATCH.parse("1/4*q + sin(th)")
    assert e.substitute({"p": "x2 + 1"}) == PATCH.parse("x1^2*x2 + x1^2 + sin(th)")


def test_substitute_is_homomorphism():
    rng = random.Random(31)
    for _ in range(40):
        a, b = rnd_expr(rng), rnd_expr(rng)
        subs = {"x1": "q^2 - 1", "x2": Fraction(3, 2)}
        assert (a * b).substitute(subs) == a.substitute(subs) * b.substitute(subs)
        assert (a + b).substitute(subs) == a.substitute(subs) + b.substitute(subs)


def test_substitute_angle_discipline():
    e = PATCH.parse("sin(th)")
    with pytest.raises(AngleDisciplineError):
        e.substitute({"th": 0})
    with pytest.raises(AngleDisciplineError):
        e.substitute({"th": "x1"})
    other = Patch.build("x1 x2 q p ph", angles=("ph",))
    assert e.substitute({"th": "ph"}, target=other) == other.parse("sin(ph)")


def test_substitute_to_smaller_patch():
    fiber = Patch.build("q p")
    e = PATCH.parse("x1*q + p")
    assert e.substitute({"x1": 3}, target=fiber) == fiber.parse("3*q + p")
    with pytest.raises(UnknownCoordinateError):
        PATCH.parse("x2*q").substitute({"x1": 1}, target=fiber)


# --- parsing and printing ---------------------------------------------------------

def test_parse_examples():
    assert PATCH.parse("1/2 - 1/2*cos(2*th)") == PATCH.parse("sin(th)^2")
    assert PATCH.parse("x1 * (q + p)^2") == PATCH.parse("x1*q^2 + 2*x1*q*p + x1*p^2")
    assert PATCH.parse("sin(2 th)") == PATCH.parse("sin(2*th)")
    assert PATCH.parse("sin(0*th)").is_zero()
    assert PATCH.parse("cos(0*th)") == PATCH.one()
    assert PATCH.parse("x1^0") == PATCH.one()
    assert PATCH.parse("-3/4*x1 + 2") == 2 - Fraction(3, 4) * PATCH.coord("x1")


def test_parse_errors():
    with pytest.raises(ExpressionSyntaxError) as err:
        PATCH.parse("x1 + * q")
    assert err.value.position == 5
    with pytest.raises(UnknownCoordinateError):
        PATCH.parse("x1 + y")
    with pytest.raises(AngleDisciplineError):
        PATCH.parse("th + 1")
    with pytest.raises(AngleDisciplineError):
        PATCH.parse("sin(x1)")
    with pytest.raises(ExpressionSyntaxError):
        PATCH.parse("x1 / q")
    with pytest.raises(ExpressionSyntaxError):
        PATCH.parse("(x1")
    with pytest.raises(ExpressionSyntaxError):
        PATCH.parse("")
    with pytest.raises(ExpressionSyntaxError):
        PATCH.parse("x1^-2")
    depth = _MAX_NESTING
    assert PATCH.parse("(" * depth + "q" + ")" * depth) == PATCH.coord("q")
    with pytest.raises(ExpressionSyntaxError) as err:
        PATCH.parse("(" * (depth + 1) + "q" + ")" * (depth + 1))
    assert err.value.position == depth


def test_parse_errors_quote_a_bounded_part_of_the_input():
    long = "z" * 5000
    wide = Patch.build(["x", long + "a", long + "b"], angles=(long + "a",))
    digits = "1" * 5000
    cases = (
        (UnknownCoordinateError, "x*" + long, 2),
        (AngleDisciplineError, "x + " + long + "a", 4),
        (AngleDisciplineError, "sin(" + long + "b)", 4),
        (ExpressionSyntaxError, "x " + long, 2),
        (ExpressionSyntaxError, "x*" + digits, 2),
        (ExpressionSyntaxError, "x^" + digits, 2),
        (ExpressionSyntaxError, "1/" + digits, 2),
        (ExpressionSyntaxError, "sin(" + digits, 4),
    )
    for kind, text, position in cases:
        with pytest.raises(kind) as err:
            wide.parse(text)
        assert err.value.position == position, text[:8]
        assert len(str(err.value)) < 200, text[:8]
    with pytest.raises(ExpressionSyntaxError) as err:
        wide.parse("1/0")
    assert err.value.position == 2


def test_print_parse_round_trip():
    rng = random.Random(13)
    for _ in range(120):
        a = rnd_expr(rng)
        printed = str(a)
        assert parse(printed, PATCH) == a
        assert str(parse(printed, PATCH)) == printed
    assert str(PATCH.zero()) == "0"
    assert str(-PATCH.coord("x1")) == "-1*x1"
    assert parse("-1*x1", PATCH) == -PATCH.coord("x1")


def test_numeric_trig_identity_oracle():
    # sin^2 normal form evaluated against math.sin directly
    e = PATCH.parse("sin(th)^2")
    for th in (0.0, 0.3, 1.1, 2.9, -1.7):
        pt = {"x1": 0, "x2": 0, "q": 0, "p": 0, "th": th}
        assert e.evaluate(pt) == pytest.approx(math.sin(th) ** 2, abs=1e-12)
