"""Exact division, quotient expressions, Pfaffians and determinants."""

from fractions import Fraction
from itertools import combinations
from math import comb
import random

from hypothesis import assume, example, given, settings, strategies as st
import pytest

from couplingdirac import DegenerateInputError, Patch, fractionfield
from couplingdirac.errors import PatchMismatchError
from couplingdirac.coupling import GeometricData, extract_poisson
from couplingdirac.fibered import BaseForm, Connection, FiberedPatch
from couplingdirac.fractionfield import (
    RatExpr,
    _long_division,
    determinant,
    divide_exact,
    pfaffian,
    rat_inverse,
)
from couplingdirac.symexpr import COS, SIN
from couplingdirac.tensorcalc import Multivector
from float_oracle import evaluate
from tuple_ring import table, unpack

PATCH = Patch.build("x y p th", angles=("th",))
# polynomial only, one angle, two angles
DIVISION_PATCHES = (Patch.build("x y p w"), PATCH,
                    Patch.build("x th y ph p", angles=("th", "ph")))


def rnd_expr(rng, patch=PATCH, max_terms=3, max_deg=2, trig=True, among=None):
    """A random expression in the coordinates named in ``among`` (default:
    all of the patch's)."""
    out = patch.zero()
    coords = [c for c in patch.coords if among is None or c.name in among]
    names = [c.name for c in coords if not c.angle]
    angles = [c.name for c in coords if c.angle]
    for _ in range(rng.randint(1, max_terms)):
        term = patch.rational(Fraction(rng.randint(-4, 4), rng.randint(1, 2)))
        for name in rng.sample(names, min(len(names), rng.randint(0, 2))):
            term = term * patch.coord(name) ** rng.randint(1, max_deg)
        if trig and angles and rng.random() < 0.5:
            term = term * patch.parse(
                f"{rng.choice(['sin', 'cos'])}({rng.randint(1, 2)}*{rng.choice(angles)})")
        out = out + term
    return out


# --- exact division ---------------------------------------------------------

def rnd_subset(rng, patch, draw):
    """A strict subset of the patch's coordinate names; every other draw
    holds the last coordinate."""
    names = list(patch.names)
    keep = rng.sample(names[:-1], rng.randint(1, len(names) - 2))
    return keep + names[-1:] if draw % 2 else keep


def assert_integral_coefficients_are_ints(e):
    for c in e.terms.values():
        assert type(c) is int or c.denominator != 1, (e, c)


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


def test_divide_exact_over_a_strict_subset_of_the_coordinates():
    rng = random.Random(2026)
    for patch in DIVISION_PATCHES:
        last = len(patch) - 1
        hits = with_last = 0
        for draw in range(80):
            a = rnd_expr(rng, patch, among=rnd_subset(rng, patch, draw))
            b = rnd_expr(rng, patch, among=rnd_subset(rng, patch, draw))
            support = (a * b).coordinates_used()
            if b.as_rational() is not None or len(support) == len(patch):
                continue
            q = divide_exact(a * b, b)
            assert q == a
            assert_integral_coefficients_are_ints(q)
            hits += 1
            with_last += last in support
        assert hits > 40 and with_last > 15


def test_divide_exact_rejects_non_multiples():
    x, y = PATCH.coord("x"), PATCH.coord("y")
    assert divide_exact(y, x) is None
    assert divide_exact(x + 1, x) is None
    assert divide_exact(PATCH.one(), x) is None
    assert divide_exact(x * x + y, x) is None
    rng = random.Random(59)
    for patch in DIVISION_PATCHES:
        for draw in range(60):
            a = rnd_expr(rng, patch, among=rnd_subset(rng, patch, draw))
            b = rnd_expr(rng, patch, among=rnd_subset(rng, patch, draw))
            if b.is_zero() or b.as_rational() is not None:
                continue
            for num in (a, a * b + rnd_expr(rng, patch, max_terms=1)):
                q = divide_exact(num, b)
                if q is not None:
                    assert q * b == num
                    assert_integral_coefficients_are_ints(q)


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


def halved_laurent(e, slot, nvars):
    """The Laurent image with the halves kept, cos(k*t) -> (z^k + z^-k)/2
    and sin(k*t) -> -i(z^k - z^-k)/2, as {exponent tuple: (re, im)}."""
    half = Fraction(1, 2)
    pieces = {COS: ((1, (half, 0)), (-1, (half, 0))),
              SIN: ((1, (0, -half)), (-1, (0, half)))}
    image = {}
    for (mono, trig), c in table(e).items():
        exps = [0] * nvars
        for i, k in mono:
            exps[slot[i]] = k
        branches = [(exps, (Fraction(c), Fraction(0)))]
        for i, kind, k in trig:
            nxt = []
            for ex, (re, im) in branches:
                for sign, (pr, pi) in pieces[kind]:
                    ex2 = list(ex)
                    ex2[slot[i]] += sign * k
                    nxt.append((ex2, (re * pr - im * pi, re * pi + im * pr)))
            branches = nxt
        for ex, (re, im) in branches:
            old = image.get(tuple(ex), (0, 0))
            image[tuple(ex)] = (old[0] + re, old[1] + im)
    return {k: v for k, v in image.items() if any(v)}


def test_laurent_images_of_integral_expressions_are_gaussian_integers():
    one = Patch.build("x y th", angles=("th",))
    two = Patch.build("x th y ph", angles=("th", "ph"))
    texts = [
        (one, "3*x^2*y - 2 + 5*x*sin(2*th) - cos(th) + y*cos(3*th)"),
        (one, "sin(th) - 4*x*sin(2*th)"),
        (two, "x*y - 4 + 3*sin(th) - x*cos(2*ph) + 2*sin(th)*cos(ph)"
              " - 7*y*cos(2*th)*sin(3*ph)"),
        (two, "sin(th)*sin(ph) + cos(th)*cos(ph) - 2*y*sin(2*th)*cos(ph)"),
        (two, "x + 1/2*sin(ph) - 3/4*x*cos(th)*sin(2*ph)"),
        # the top frequency: th's field fills up to 2^31 - 2
        (two, f"x^3*cos({2 ** 30 - 2}*th)*sin(ph) - y*sin({2 ** 30 - 1}*th)"),
    ]
    for patch, text in texts:
        e = patch.parse(text)
        support = sorted(e.coordinates_used())
        slot = {i: pos for pos, i in enumerate(support)}
        # each angle's field is offset by its largest frequency
        low = {i: max((k for _, trig in table(e) for j, _, k in trig
                       if j == i), default=0)
               for i in support if patch.coords[i].angle}
        image = fractionfield._laurent_table(e, len(low), low)
        scale = 2 ** len(low)
        assert {tuple(dict(unpack(k)).get(i, 0) - low.get(i, 0)
                      for i in support): (v.re, v.im)
                for k, v in image.items()} == {
            k: (scale * re, scale * im)
            for k, (re, im) in halved_laurent(e, slot, len(support)).items()}
        integral = all(type(c) is int for c in e.terms.values())
        assert integral == ("/" not in text)
        if integral:
            assert all(type(v.re) is int and type(v.im) is int
                       for v in image.values()), text


def test_divide_exact_constant_and_zero():
    x = PATCH.coord("x")
    assert divide_exact(3 * x, PATCH.rational(3)) == x
    assert divide_exact(x, PATCH.rational(Fraction(1, 2))) == 2 * x
    assert divide_exact(PATCH.zero(), x) == PATCH.zero()
    with pytest.raises(ZeroDivisionError):
        divide_exact(x, PATCH.zero())
    rng = random.Random(12)
    for patch in DIVISION_PATCHES:
        num = rnd_expr(rng, patch, max_terms=4)
        for c in (1, -1, 2, Fraction(-1, 2)):
            q = divide_exact(num, patch.rational(c))
            assert q * c == num
            assert q == num * (1 / Fraction(c))
            assert_integral_coefficients_are_ints(q)


def test_divide_exact_by_a_unit_returns_the_numerator_or_its_negation():
    for patch in DIVISION_PATCHES:
        num = rnd_expr(random.Random(len(patch)), patch, max_terms=4)
        assert divide_exact(num, patch.one()) is num
        assert divide_exact(num, -patch.one()).terms == (-num).terms


def test_divide_exact_fails_before_dividing_when_the_divisor_uses_more(
        monkeypatch):
    def refuse(*args):
        raise AssertionError("a division ran")

    monkeypatch.setattr(fractionfield, "_long_division", refuse)
    P = PATCH.parse
    # a constant, or a polynomial or trig numerator, over a divisor using a
    # coordinate the numerator does not
    for num, den in (("3", "x"), ("x + 1", "y"), ("x*cos(th)", "y"),
                     ("x + y", "sin(th)"), ("cos(2*th)", "x*cos(th)")):
        assert divide_exact(P(num), P(den)) is None


@st.composite
def small_exprs(draw, patch, names, frequencies):
    """One to three terms in the coordinates ``names``: small rational
    coefficients, exponents up to 2, and cos or sin on an angle of a
    frequency drawn from ``frequencies``."""
    out = patch.zero()
    for _ in range(draw(st.integers(1, 3))):
        term = patch.rational(draw(st.integers(-3, 3) | st.fractions(
            -2, 2, max_denominator=3)))
        for name in names:
            if not patch.coordinate(name).angle:
                term = term * patch.coord(name) ** draw(st.integers(0, 2))
            elif draw(st.booleans()):
                term = term * patch.trig(
                    draw(st.sampled_from((COS, SIN))),
                    draw(st.sampled_from(frequencies)), name)
        out = out + term
    return out


def expressions_on(patch, frequencies):
    """Expressions on ``patch``, each in its own subset of the coordinates."""
    return st.lists(st.sampled_from(patch.names), unique=True).flatmap(
        lambda names: small_exprs(patch, names, frequencies))


def division_operands(frequencies=(1, 2)):
    """A patch and three expressions on it."""
    return st.sampled_from(DIVISION_PATCHES).flatmap(lambda patch: st.tuples(
        st.just(patch),
        *(expressions_on(patch, frequencies) for _ in range(3))))


OPERANDS = division_operands()


# also at 2^29 - 1, whose products reach 2^30 - 2 and fill a division
# field to 2^31 - 4; only exact divisions take it, as one that is not
# exact can step through every degree below a large frequency
@settings(database=None, deadline=None)
@given(division_operands((1, 2, 2 ** 29 - 1)))
def test_divide_exact_recovers_a_cofactor(operands):
    patch, q, d, _ = operands
    assume(not d.is_zero())
    got = divide_exact(q * d, d)
    assert got == q
    assert_integral_coefficients_are_ints(got)


@settings(database=None, deadline=None)
@given(OPERANDS, st.sampled_from(("any", "multiple", "near multiple")))
@example((PATCH, PATCH.parse("x + 1"), PATCH.coord("y"), PATCH.zero()), "any")
@example((PATCH, PATCH.parse("x"), PATCH.parse("cos(th)"), PATCH.zero()),
         "multiple")
def test_support_test_never_changes_an_answer(operands, shape):
    # the full division, over the angles of both operands, decides alone
    patch, n, d, r = operands
    if shape != "any":
        n = n * d + (r if shape == "near multiple" else 0)
    assume(not n.is_zero() and d.as_rational() is None)
    angles = sorted(i for i in n.coordinates_used() | d.coordinates_used()
                    if patch.coords[i].angle)
    want = _long_division(n, d, angles)
    got = divide_exact(n, d)
    assert (got is None) == (want is None)
    if got is not None:
        assert got.terms == want.terms
        assert [type(c) for c in got.terms.values()] == [
            type(want.terms[k]) for k in got.terms]


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
    with pytest.raises(ZeroDivisionError):
        RatExpr(x, PATCH.zero())


def test_ratexpr_equality_across_patches_is_false():
    # as for ScalarExpr, values on different patches are unequal, while
    # arithmetic across patches still raises
    other = Patch.build("x y")
    half_x = RatExpr(PATCH.coord("x"), PATCH.rational(2))
    for value in (RatExpr(other.coord("x"), other.rational(2)),
                  other.coord("x"), other.zero()):
        assert half_x != value and value != half_x
        assert not half_x == value
        with pytest.raises(PatchMismatchError):
            half_x + value
    assert half_x == RatExpr(2 * PATCH.coord("x"), PATCH.rational(4))


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


def test_ratexpr_coordinates_used_is_the_union_of_its_parts():
    rng = random.Random(1618)
    for patch in (PATCH, Patch.build("x y p")):
        for _ in range(30):
            n, d = rnd_expr(rng, patch), rnd_expr(rng, patch)
            if d.is_zero():
                continue
            r = RatExpr(n, d)
            for e in (r, r + n, r * r, r.differentiate("x")):
                support = e.coordinates_used()
                assert type(support) is frozenset
                assert support == {i for part in (e.num, e.den)
                                   for k in part.terms
                                   for i, _ in unpack(k)}
    x, y = PATCH.coord("x"), PATCH.coord("y")
    assert RatExpr(x, 1 + y).coordinates_used() == {0, 1}
    assert RatExpr(PATCH.zero(), y).coordinates_used() == {1}


def test_ratexpr_reduce_and_as_scalar():
    x, y = PATCH.coord("x"), PATCH.coord("y")
    r = RatExpr(x * y + y * y, y)
    assert r.as_scalar() == x + y
    bad = RatExpr(x, y)
    with pytest.raises(DegenerateInputError):
        bad.as_scalar()


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
        vals = [[evaluate(e, pt) for e in row] for row in m]
        if n == 2:
            want = vals[0][0] * vals[1][1] - vals[0][1] * vals[1][0]
        else:
            want = (
                vals[0][0] * (vals[1][1] * vals[2][2] - vals[1][2] * vals[2][1])
                - vals[0][1] * (vals[1][0] * vals[2][2] - vals[1][2] * vals[2][0])
                + vals[0][2] * (vals[1][0] * vals[2][1] - vals[1][1] * vals[2][0]))
        assert evaluate(det, pt) == pytest.approx(want, abs=1e-7)


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


def test_only_the_strict_upper_triangle_is_read():
    # a garbage diagonal and lower triangle change neither the Pfaffian
    # nor the inverse
    rng = random.Random(314)
    for n in (2, 4, 6):
        A = rnd_skew(rng, n, trig=n < 6)
        garbage = [[A[i][j] if i < j else rnd_expr(rng) for j in range(n)]
                   for i in range(n)]
        assert pfaffian(garbage, PATCH) == pfaffian(A, PATCH)
        pf, C, s = rat_inverse(garbage, PATCH)
        pf0, C0, s0 = rat_inverse(A, PATCH)
        assert s == s0 and pf == pf0
        assert all(c == c0 for row, row0 in zip(C, C0)
                   for c, c0 in zip(row, row0))
    with pytest.raises(ValueError):
        pfaffian([[PATCH.zero(), PATCH.one()], [PATCH.zero()]], PATCH)


def test_rat_inverse_is_exact():
    rng = random.Random(828)
    cases = [rnd_skew(rng, n, trig=False) for n in (2, 4, 6)]
    cases += [rnd_skew(rng, n) for n in (2, 4)]
    assert any("sin" in str(e) or "cos" in str(e) for e in cases[-1][0])
    for A in cases:
        n = len(A)
        # without a denominator Pf(A) and its adjugate come back plain
        pf, adj, s = rat_inverse(A, PATCH)
        assert s == 1
        assert pf * pf == determinant(A, PATCH)
        for i in range(n):
            assert adj[i][i].is_zero()
            for j in range(n):
                assert adj[i][j] == -adj[j][i]
                # A C = Pf(A) I, so A^-1 = C/Pf(A)
                entry = sum((A[i][k] * adj[k][j] for k in range(n)),
                            PATCH.zero())
                assert entry == (pf if i == j else 0)


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


# --- Pfaffians over a shared denominator -----------------------------------

def scaled_pfaffians(A, patch, D):
    """rat_inverse(A, patch, D) checked against the plain Pfaffian: with
    s = 0, D^(n/2-1)*R is Pf(A) and D^(n/2-2)*C_ij each signed adjugate
    minor; with s = 1, R and C_ij are those themselves."""
    n = len(A)
    R, C, s = rat_inverse(A, patch, D)
    e = 0 if s else n // 2 - 1
    assert D ** e * R == pfaffian(A, patch)
    for i, j in combinations(range(n), 2):
        keep = [r for r in range(n) if r not in (i, j)]
        minor = pfaffian([[A[r][c] for c in keep] for r in keep], patch)
        assert D ** max(e - 1, 0) * C[i][j] == (
            -minor if (i + j) % 2 else minor)
        assert C[j][i] == -C[i][j]
    return R, C, s


def counted_divisions(monkeypatch):
    """The (quotient, divisor) of every exact division the expansion tries."""
    calls, divide = [], fractionfield.divide_exact

    def counted(num, den):
        calls.append((divide(num, den), den))
        return calls[-1][0]

    monkeypatch.setattr(fractionfield, "divide_exact", counted)
    return calls


def rnd_skew_among(rng, n, names):
    """A random antisymmetric matrix in the coordinates ``names``."""
    rows = [[PATCH.zero()] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        e = rnd_expr(rng, max_terms=2, max_deg=1, among=names)
        rows[i][j], rows[j][i] = e, -e
    return rows


def test_scaled_pfaffians_when_no_division_succeeds(monkeypatch):
    # p occurs in no entry, so 1 + p divides no nonzero sum of them: the
    # first division fails, and the inverse starts over without D
    rng = random.Random(1729)
    D = PATCH.parse("1 + p")
    calls = counted_divisions(monkeypatch)
    for n in (4, 6, 4, 6):
        A = rnd_skew_among(rng, n, ("x", "y", "th"))
        assert scaled_pfaffians(A, PATCH, D)[2] == 1
    assert len(calls) == 4 and all(q is None and d == D for q, d in calls)


def test_scaled_pfaffians_over_a_constant_divide_once_per_size(monkeypatch):
    # 2 divides every sum, yet each subset of 2k >= 4 indices is divided
    # once: s = 0, and the tries are at most the number of such subsets
    rng = random.Random(6174)
    calls = counted_divisions(monkeypatch)
    for n in (4, 6, 8):
        del calls[:]
        A = rnd_skew(rng, n, trig=n < 8)
        assert scaled_pfaffians(A, PATCH, PATCH.rational(2))[2] == 0
        assert 0 < len(calls) <= sum(comb(n, k) for k in range(4, n + 1, 2))


def test_scaled_pfaffians_with_mixed_powers_among_the_terms():
    # with a13 = a14 = 0, Pf on {1, 2, 3, 4} is a12*a34, which D = x
    # divides, and Pf on {1, 2, 3, 5} = a12*a35 + a15*a23 is not: the
    # inverse starts over without x, and its adjugate is the plain one.
    # The adjugate minors of row 0 are the Pfaffians on four of the
    # indices 1..5; x divides the ones on {1, 2, 3, 4} and on
    # {1, 3, 4, 5} (only a15*a34 is left)
    rng = random.Random(2024)
    x, zero = PATCH.coord("x"), PATCH.zero()
    A = rnd_skew_among(rng, 6, ("y", "th"))
    for i, j, e in ((1, 3, zero), (1, 4, zero), (1, 2, x * (1 + A[1][2])),
                    (3, 4, x * (2 + A[3][4]))):
        A[i][j], A[j][i] = e, -e
    _, C, s = scaled_pfaffians(A, PATCH, x)
    assert s == 1
    assert [j for j in range(1, 6)
            if divide_exact(C[0][j], x) is not None] == [2, 5]


def test_a_minor_the_full_expansion_misses_starts_over_without_d(
        monkeypatch):
    # x divides rows 1 and 2, and a01 = a12 = 0: each term of Pf(A) holds
    # one entry of each row, so x^2 divides it, and x divides every set
    # the expansion of all six indices reaches, all of them holding index
    # 1.  The minor on {0, 3, 4, 5} (rows and columns 1 and 2 removed) is
    # outside that reach, and x does not divide it
    rng = random.Random(77)
    x, zero = PATCH.coord("x"), PATCH.zero()
    A = rnd_skew_among(rng, 6, ("y", "th"))
    for i, j in ((0, 1), (1, 2)):
        A[i][j], A[j][i] = zero, zero
    for i, j in (*((1, k) for k in (3, 4, 5)), (0, 2), (2, 3), (2, 4),
                 (2, 5)):
        e = x * (1 + A[i][j] * A[i][j])
        A[i][j], A[j][i] = e, -e
    full = divide_exact(pfaffian(A, PATCH), x ** 2)
    assert full is not None
    keep = (0, 3, 4, 5)
    assert divide_exact(pfaffian([[A[r][c] for c in keep] for r in keep],
                                 PATCH), x) is None
    calls = counted_divisions(monkeypatch)
    R, C, s = rat_inverse(A, PATCH, x)
    assert s == 1 and R == pfaffian(A, PATCH)
    # every division but the last, the full set's among them, was exact
    assert calls[-1][0] is None
    assert all(q is not None for q, _ in calls[:-1])
    assert full in [q for q, _ in calls]
    del calls[:]
    assert scaled_pfaffians(A, PATCH, x)[2] == 1


def extracted_block(rng, nb, angle):
    """(N, D, patch): N = D*M for the base-base block M of the bivector
    extracted from random data, D = Pf(F) non-constant and M's one
    denominator.  With ``angle``, q is an angle and F carries cos and sin
    of it."""
    patch = FiberedPatch.build(" ".join(f"x{i}" for i in range(1, nb + 1)),
                               "q p", angles=("q",) if angle else ())
    base = patch.base_indices
    atoms = [patch.coord(n) for n in patch.names if n != "q"]
    atoms += [patch.parse(f"{f}(q)") for f in ("cos", "sin")] if angle \
        else [patch.coord("q")]
    while True:
        table = {}
        for a, b in combinations(base, 2):
            table[(a, b)] = patch.rational(rng.choice([1, 2, 3, -1, -2]))
            if rng.random() < 0.7:
                table[(a, b)] += rng.choice([1, -1, 2]) * rng.choice(atoms)
        F = BaseForm(patch, 2, table)
        D = pfaffian([[F.coefficient(a, b) for b in base] for a in base],
                     patch)
        if D.as_rational() is None:
            break
    Pi = extract_poisson(GeometricData(
        patch, Multivector.build(patch, 2, {("q", "p"): 1}),
        Connection.flat(patch), F))
    N = [[c.num if isinstance(c := Pi.coefficient(a, b), RatExpr) else c * D
          for b in base] for a in base]
    return N, D, patch


def test_scaled_pfaffians_of_an_extracted_block_carry_jacobi_powers():
    # Pf(N) on 2k indices is D^(k-1) times Pf(F) on the complement
    rng = random.Random(3)
    for nb, angle in ((4, False), (6, False), (4, True), (6, True)):
        N, D, patch = extracted_block(rng, nb, angle)
        # so the expansion never starts over on extract's output
        assert scaled_pfaffians(N, patch, D)[2] == 0
