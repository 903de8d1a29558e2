"""Scalar ring: canonical form, arithmetic, calculus, parsing."""

from fractions import Fraction
import math
import random

from hypothesis import given, settings, strategies as st
import pytest

from couplingdirac import (
    COS,
    SIN,
    AngleDisciplineError,
    ExpressionError,
    ExpressionSyntaxError,
    Patch,
    PatchError,
    PatchMismatchError,
    RatExpr,
    ScalarExpr,
    UnknownCoordinateError,
    parse,
)
from couplingdirac.fractionfield import divide_exact
from couplingdirac.symexpr import _MAX_NESTING, _ONE_KEY, _add_terms, _expr
from couplingdirac.tensorcalc import DiffForm, Multivector, contract, schouten
from float_oracle import evaluate
from tuple_ring import key, unpack

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
        combos = {"sum": (a + b, lambda pt: evaluate(a, pt) + evaluate(b, pt)),
                  "prod": (a * b, lambda pt: evaluate(a, pt) * evaluate(b, pt))}
        for label, (expr, oracle) in combos.items():
            for _ in range(20):
                pt = sample_point(rng)
                assert evaluate(expr, pt) == pytest.approx(oracle(pt), abs=1e-9), label


def test_zero_iff_identically_zero_numerically():
    rng = random.Random(7)
    for _ in range(100):
        a = rnd_expr(rng)
        diff = a - a
        assert diff.is_zero()
        b = rnd_expr(rng)
        if not (a - b).is_zero():
            assert any(abs(evaluate(a, pt) - evaluate(b, pt)) > 1e-12
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


# --- unit, constant and zero operands ------------------------------------------

POLY = Patch.build("x1 x2 q p")


def operand_pairs():
    """(x, y) on a polynomial and an angle patch, with int and with
    Fraction coefficients."""
    rng = random.Random(77)
    for patch in (POLY, PATCH):
        for _ in range(10):
            yield rnd_int_expr(rng, patch, trig=patch is PATCH), rnd_expr(rng, patch)
            yield rnd_expr(rng, patch), rnd_int_expr(rng, patch, trig=False)


def same_table(a, b):
    """Equal term tables with the same coefficient types."""
    return a.terms == b.terms and all(
        type(c) is type(b.terms[k]) for k, c in a.terms.items())


def test_unit_and_zero_operands_give_the_other_operand():
    for x, _ in operand_pairs():
        patch = x.patch
        for one in (1, Fraction(1), patch.one()):
            assert same_table(x * one, x) and same_table(one * x, x)
        for zero in (0, Fraction(0), patch.zero()):
            assert same_table(x + zero, x) and same_table(zero + x, x)
            assert same_table(x - zero, x)
            assert same_table(zero - x, -x)
            assert (x * zero).is_zero() and (zero * x).is_zero()
            assert (x * zero).terms == {} and (zero * x).terms == {}


def test_constant_operands_scale_term_by_term():
    for x, _ in operand_pairs():
        patch = x.patch
        for c in (2, -1, Fraction(1, 2)):
            want = _expr(patch, _add_terms({}, [
                (k, Fraction(c) * v) for k, v in x.terms.items()]))
            for scalar in (c, patch.rational(c)):
                assert same_table(x * scalar, want)
                assert same_table(scalar * x, want)
            assert_normal_coefficients(x * c)
        if all(type(v) is int for v in x.terms.values()):
            back = (Fraction(2, 3) * x) * Fraction(3, 2)
            assert same_table(back, x)
            assert all(type(v) is int for v in back.terms.values())


def test_subtraction_in_one_pass_matches_adding_the_negative():
    for x, y in operand_pairs():
        assert same_table(x - y, x + (-y))
        assert same_table(y - x, y + (-x))
        assert (x - x).terms == {}
        assert_normal_coefficients(x - y)


def test_product_with_a_quotient_is_a_quotient():
    x = POLY.parse("x1 + 2*q")
    r = RatExpr(POLY.parse("p"), POLY.parse("1 + x2"))
    for product in (x * r, r * x, POLY.one() * r):
        assert isinstance(product, RatExpr)
    assert x * r == RatExpr(POLY.parse("x1*p + 2*q*p"), POLY.parse("1 + x2"))


SMALL_POLY = Patch.build("x y")
SMALL_ANGLE = Patch.build("x th", angles=("th",))


@st.composite
def small_exprs(draw, patch):
    """Sums of up to three terms with small rational coefficients (some
    integral Fractions), exponents and frequencies; a zero frequency
    gives the constants 1 (cos) and 0 (sin)."""
    out = patch.zero()
    for _ in range(draw(st.integers(0, 3))):
        term = patch.rational(Fraction(draw(st.integers(-4, 4)),
                                       draw(st.integers(1, 3))))
        for c in patch.coords:
            if c.angle:
                term = term * patch.trig(draw(st.sampled_from((COS, SIN))),
                                         draw(st.integers(0, 2)), c.name)
            else:
                term = term * patch.coord(c.name) ** draw(st.integers(0, 2))
        out = out + term
    return out


def expr_triples():
    return st.sampled_from((SMALL_POLY, SMALL_ANGLE)).flatmap(
        lambda patch: st.tuples(*(small_exprs(patch) for _ in range(3))))


@settings(database=None, deadline=None)
@given(expr_triples(), st.fractions(-3, 3, max_denominator=3))
def test_ring_results_stay_canonical(triple, value):
    """Every table the ring, exact division and the calculus build: no
    zero coefficient or component and no integral Fraction."""
    a, b, c = triple
    patch = a.patch
    rest = Patch(patch.coords[1:])
    results = [a + b, a - b, b - a, a * b, a * a, a - a, a + c, a * c,
               a.substitute({"x": value}, rest)]
    results += [e.differentiate(coord) for e in (a, a * b)
                for coord in patch.coords]
    if b:
        quotient = divide_exact(a * b, b)
        assert quotient == a
        results.append(quotient)
    for e in results:
        assert_canonical(e)
    assert (a - b) + b == a
    assert a * (b + c) == a * b + a * c
    X = Multivector.build(patch, 1, {(0,): a, (1,): b})
    Y = Multivector.build(patch, 1, {(0,): b, (1,): c})
    V = Multivector.build(patch, 2, {(0, 1): c})
    w = DiffForm.build(patch, 2, {(0, 1): a * b})
    alpha = DiffForm.build(patch, 1, {(0,): c, (1,): a})
    tensors = [X, Y, V, w, alpha, X + Y, X - Y, Y - X, X - X, w + w,
               X.wedge(Y), alpha.wedge(alpha), contract(X, w), contract(V, w),
               contract(Y, alpha), schouten(X, Y), schouten(X, V),
               schouten(V, V)]
    for T in tensors:
        for e in T.comps.values():
            assert e
            assert_canonical(e)


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
    assert (half + half).terms == {_ONE_KEY: 1}
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
            assert evaluate(product, pt) == pytest.approx(
                math.prod(evaluate(f, pt) for f in factors), abs=1e-9)


def test_term_tables_are_kept_canonical():
    x1 = key(((0, 1),))
    assert _add_terms({}, [(x1, 0)]) == {}
    assert _add_terms({}, [(x1, Fraction(0))]) == {}
    e = _expr(PATCH, _add_terms(
        {}, [(x1, Fraction(4, 2)), (_ONE_KEY, Fraction(1, 3))]))
    assert e == PATCH.parse("2*x1 + 1/3")
    assert type(e.terms[x1]) is int
    assert_normal_coefficients(e)


def test_expressions_have_no_raw_constructor():
    # a stored float would add up to 0.30000000000000004 and decide verdicts
    with pytest.raises(TypeError):
        ScalarExpr(PATCH, {_ONE_KEY: 0.1})


def test_rational_accepts_only_exact_scalars():
    for value, shown in ((0.1, "0.1"), ("1/2", "'1/2'")):
        with pytest.raises(ExpressionError, match=(
                f"must be an int or a Fraction, not {shown}$")):
            PATCH.rational(value)
    assert PATCH.rational(Fraction(4, 2)).terms == {_ONE_KEY: 2}


# unchecked, kind 7 prints as cos(th) but squares to 1/2*sin(2*th),
# cos(1.5*th) prints but does not parse, and True is stored as a frequency
@pytest.mark.parametrize("kind, k", [(7, 1), (COS, 1.5), (SIN, True)])
def test_trig_accepts_only_cos_or_sin_of_an_int_frequency(kind, k):
    with pytest.raises(ExpressionError, match=(
            f"bad sin/cos kind {kind!r} or frequency {k!r}$")):
        PATCH.trig(kind, k, "th")
    assert str(PATCH.trig(COS, 3, "th")) == "cos(3*th)"


def test_as_rational_is_a_fraction():
    for text in ("0", "3", "-2", "1/3", "4/2"):
        value = PATCH.parse(text).as_rational()
        assert type(value) is Fraction and value == Fraction(text)
    assert (PATCH.parse("x1") - PATCH.parse("x1")).as_rational() == 0
    assert PATCH.parse("x1 + 1").as_rational() is None


def term_coordinates(e):
    return {i for mono, trig in e.terms for i, *_ in unpack(mono) + trig}


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
                      _expr(patch, dict(a.terms))):
                support = e.coordinates_used()
                assert type(support) is frozenset
                assert support == term_coordinates(e)
                assert e.coordinates_used() is support
    assert PATCH.zero().coordinates_used() == frozenset()
    assert PATCH.parse("3").coordinates_used() == frozenset()
    assert PATCH.parse("x2*cos(th) + p").coordinates_used() == {
        PATCH.index("x2"), PATCH.index("th"), PATCH.index("p")}


def test_index_resolves_a_name_a_coordinate_or_a_position():
    q = PATCH.index("q")
    assert PATCH.index(PATCH.coords[q]) == PATCH.index(q) == q == 2
    for ref in (len(PATCH), -1):
        with pytest.raises(PatchError, match="outside the patch"):
            PATCH.index(ref)
    with pytest.raises(UnknownCoordinateError):
        PATCH.index("y")
    with pytest.raises(UnknownCoordinateError):
        PATCH.index(True)  # a bool is not a position


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


def test_calculus_takes_a_coordinate_by_position():
    e = PATCH.parse("x1^3*q + 2*p + x1*sin(th)")
    assert e.differentiate(0) == e.differentiate("x1")
    assert e.differentiate(PATCH.coords[4]) == e.differentiate("th")
    assert e.angle_average(4) == e.angle_average("th") == PATCH.parse(
        "x1^3*q + 2*p")
    with pytest.raises(AngleDisciplineError, match="'x1' is not an angle"):
        e.angle_average(0)
    with pytest.raises(PatchError, match="outside the patch"):
        e.differentiate(99)


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
            fd = (evaluate(a, up) - evaluate(a, dn)) / (2 * h)
            assert evaluate(a.differentiate(name), pt) == pytest.approx(fd, abs=1e-5)


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

def assert_canonical(e):
    """No zero coefficient and no integral Fraction in the term table."""
    for c in e.terms.values():
        assert c != 0
        assert type(c) is int or c.denominator != 1


def test_substitute_rational_values():
    e = PATCH.parse("x1^2*p + sin(th)")
    assert e.substitute({"x1": 2}, PATCH) == PATCH.parse("4*p + sin(th)")
    assert e.substitute({"x1": Fraction(1, 2), "p": Fraction(2, 3)},
                        PATCH) == PATCH.parse("1/6 + sin(th)")
    # terms that meet after evaluation are summed, and may cancel
    cancel = PATCH.parse("x1*q - 2*q + 1/2*x2").substitute(
        {"x1": 2, "x2": Fraction(4)}, PATCH)
    assert cancel == PATCH.rational(2) and type(cancel.terms[_ONE_KEY]) is int
    assert PATCH.parse("x1*q - 2*q").substitute({"x1": 2}, PATCH).terms == {}


def test_substitute_is_homomorphism():
    rng = random.Random(31)
    for _ in range(40):
        a, b = rnd_expr(rng), rnd_expr(rng)
        subs = {"x1": Fraction(-2, 3), "x2": Fraction(3, 2), "q": 2}
        ab, a_b = (a * b).substitute(subs, PATCH), (a + b).substitute(subs, PATCH)
        assert ab == a.substitute(subs, PATCH) * b.substitute(subs, PATCH)
        assert a_b == a.substitute(subs, PATCH) + b.substitute(subs, PATCH)
        assert_canonical(ab)
        assert_canonical(a_b)


def test_substitute_angle_discipline():
    e = PATCH.parse("sin(th)")
    with pytest.raises(AngleDisciplineError, match="'th' cannot take a value"):
        e.substitute({"th": 0}, PATCH)
    # an angle that does not occur may be given a value
    assert PATCH.parse("x1").substitute({"th": 0, "x1": 3}, PATCH) == 3
    with pytest.raises(AngleDisciplineError):
        e.substitute({}, Patch.build("x1 x2 q p th"))


def test_substitute_rejects_inexact_values():
    e = PATCH.parse("x1*q")
    for value in (0.5, 1.0, "1/2", PATCH.one()):
        with pytest.raises(ExpressionError, match="'x1' must be an int or a Fraction"):
            e.substitute({"x1": value}, PATCH)


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
    # a number is what int reads: decimal digits of any script, and no
    # superscript
    with pytest.raises(ExpressionSyntaxError) as err:
        PATCH.parse("x1^²")
    assert str(err.value) == "unexpected character '²' (at position 3)"
    assert PATCH.parse("٣*x1^٢") == 3 * PATCH.coord("x1") ** 2
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


def test_parse_errors_of_the_term_loop():
    """Type, message and position of each error a term raises itself."""
    digits = "1" * 5000
    cases = (
        ("2*y", UnknownCoordinateError, "unknown coordinate 'y'", 2),
        ("q*th", AngleDisciplineError,
         "angle coordinate 'th' may appear only inside sin/cos", 2),
        ("x1*3/0", ExpressionSyntaxError, "zero denominator", 5),
        ("x1^", ExpressionSyntaxError,
         "expected 'NUM', found 'end of input'", 3),
        ("-x1", ExpressionSyntaxError, "unexpected '-'", 0),
        ("x1*" + digits, ExpressionSyntaxError,
         f"number '{digits[:56]}... is too long", 3),
    )
    for text, kind, message, position in cases:
        with pytest.raises(ExpressionError) as err:
            PATCH.parse(text)
        assert type(err.value) is kind, text[:8]
        assert str(err.value) == f"{message} (at position {position})"
        assert err.value.position == position


def test_parse_folds_rational_and_coordinate_factors():
    for text in ("x1*(1/2)^2*4*x1", "2/4*2*q", "-2/1^2*x1", "1/3*3"):
        assert_normal_coefficients(PATCH.parse(text))
    assert PATCH.parse("0*x1").terms == {}
    assert PATCH.parse("x1*0 + q").terms == PATCH.coord("q").terms
    assert PATCH.parse("x1^0").terms == {_ONE_KEY: 1}
    assert PATCH.parse("q*x1^0*x1").terms == {key(((0, 1), (2, 1))): 1}
    assert PATCH.parse("2^3*x1").terms == {key(((0, 1),)): 8}
    assert PATCH.parse("x1*(1/2)^2*4*x1").terms == {key(((0, 2),)): 1}
    assert PATCH.parse("-2/1^2*x1").terms == {key(((0, 1),)): 4}
    assert PATCH.parse("x1 - x1 + q - q").terms == {}
    assert PATCH.parse("2*x1*sin(th)*3") == 6 * PATCH.coord("x1") * PATCH.parse(
        "sin(th)")


TWO_ANGLES = Patch.build("x th ph", angles=("th", "ph"))


@settings(database=None, deadline=None)
@given(st.sampled_from((SMALL_POLY, SMALL_ANGLE, TWO_ANGLES)).flatmap(
    small_exprs))
def test_every_printed_expression_reparses_to_itself(e):
    printed = str(e)
    assert e.patch.parse(printed) == e
    assert str(e.patch.parse(printed)) == printed


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
        assert evaluate(e, pt) == pytest.approx(math.sin(th) ** 2, abs=1e-12)
