"""Packed monomial keys against the tuple-key reference, and the guard.

``tuple_ring`` keeps the kernels of the tuple-keyed ring; every ring
result here must be the packed image of the reference result, with the
same coefficient types, and print the same text.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st
import pytest

from couplingdirac import COS, SIN, ExpressionError, Patch
from couplingdirac.fractionfield import divide_exact
from couplingdirac.symexpr import (
    _FREQUENCY, _LIMIT, _WIDTH, _add_terms, _expr)
import tuple_ring as ref

POLY = Patch.build("x y q p")
ONE_ANGLE = Patch.build("x th y", angles=("th",))
TWO_ANGLES = Patch.build("th x ph y", angles=("th", "ph"))
WIDE = Patch.build([f"x{i}" for i in range(120)] + ["th"], angles=("th",))
PATCHES = (POLY, ONE_ANGLE, TWO_ANGLES, WIDE)

# small exponents, and large ones whose pairwise sums stay below the
# limit, so that products fill fields up to their top value bit
EXPONENTS = st.integers(1, 3) | st.sampled_from(
    (2 ** 16, 2 ** 29, _LIMIT // 2 - 1))
COEFFS = st.integers(-5, 5).filter(bool) | st.fractions(
    -3, 3, max_denominator=4).filter(bool)


@st.composite
def tables(draw, patch, exponents=EXPONENTS):
    """A canonical tuple-keyed term table on ``patch``."""
    polys = [i for i, c in enumerate(patch.coords) if not c.angle]
    angles = [i for i, c in enumerate(patch.coords) if c.angle]
    pairs = []
    for _ in range(draw(st.integers(0, 4))):
        coords = draw(st.lists(st.sampled_from(polys), max_size=3,
                               unique=True))
        mono = tuple(sorted((i, draw(exponents)) for i in coords))
        trig = tuple(
            (i, draw(st.sampled_from((COS, SIN))), draw(st.integers(1, 3)))
            for i in angles if draw(st.booleans()))
        pairs.append(((mono, trig), draw(COEFFS)))
    return ref.add(dict(pairs), {})


def expr(patch, tab):
    return _expr(patch, _add_terms({}, ref.packed(tab).items()))


def same(e, tab):
    """``e`` has the packed image of ``tab``, coefficient types included."""
    return ref.table(e) == tab and all(
        type(c) is type(tab[k]) for k, c in ref.table(e).items())


def max_exponent(tab):
    return max((e for (mono, _), _c in tab.items() for _, e in mono),
               default=0)


operands = st.sampled_from(PATCHES).flatmap(
    lambda patch: st.tuples(st.just(patch), tables(patch), tables(patch)))


@settings(database=None, deadline=None, max_examples=150)
@given(operands, st.data())
def test_packed_ring_matches_the_tuple_reference(operands, data):
    patch, ta, tb = operands
    a, b = expr(patch, ta), expr(patch, tb)
    assert same(a, ta) and same(b, tb)
    assert same(a + b, ref.add(ta, tb))
    assert same(a - b, ref.add(ta, ref.mul(tb, {((), ()): -1})))
    assert same(a * b, ref.mul(ta, tb))
    n = data.draw(st.integers(0, 3))
    want = ref.power(ta, n)
    if max_exponent(want) < _LIMIT:
        assert same(a ** n, want)
    else:
        with pytest.raises(ExpressionError, match=r"reaches 2\^31"):
            a ** n
    for i in {0, 1, len(patch) - 1, *a.coordinates_used()}:
        assert same(a.differentiate(i), ref.differentiate(ta, patch, i))
    assert a.coordinates_used() == ref.coordinates_used(ta)
    assert str(a) == ref.to_str(ta, patch)
    assert patch.parse(str(a)) == a


# small exponents only: a value's power is expanded
@settings(database=None, deadline=None, max_examples=100)
@given(st.sampled_from(PATCHES).flatmap(lambda patch: st.tuples(
    st.just(patch), tables(patch, st.integers(1, 3)))), st.data())
def test_substitute_matches_the_tuple_reference(operand, data):
    patch, tab = operand
    polys = [c.name for c in patch.coords if not c.angle]
    names = data.draw(st.lists(st.sampled_from(polys), max_size=3,
                               unique=True))
    values = {n: data.draw(st.integers(-2, 2) | st.fractions(
        -2, 2, max_denominator=3)) for n in names}
    # the other coordinates in reverse order, so every index moves
    target = Patch(reversed([c for c in patch.coords if c.name not in values]))
    got = expr(patch, tab).substitute(values, target)
    assert got.patch is target
    assert same(got, ref.substitute(tab, patch, values, target))


def test_exponents_below_the_limit_are_accepted():
    top = _LIMIT - 1
    assert _LIMIT == 2 ** (_WIDTH - 1) == 2 ** 31
    x = POLY.parse(f"x^{top}")
    assert str(x) == f"x^{top}"
    assert POLY.parse(f"x^{top - 1}*x") == x
    assert x.differentiate("x") == top * POLY.parse(f"x^{top - 1}")
    both = x * POLY.parse(f"y^{top}")
    assert ref.table(both) == {(((0, top), (1, top)), ()): 1}
    assert POLY.parse(f"x^{_LIMIT // 2 - 1}") ** 2 * POLY.parse("x") == x
    last = WIDE.coords[119].name
    assert str(WIDE.parse(f"{last}^{top}")) == f"{last}^{top}"


def test_products_reaching_the_limit_raise():
    top = _LIMIT - 1
    x = POLY.parse(f"x^{top}")
    cases = [
        lambda: x * POLY.parse("x + 1"),
        lambda: POLY.parse(f"x^{_LIMIT // 2}") ** 3,
        lambda: POLY.parse(f"(x^{_LIMIT // 2}*y)^2"),
        lambda: WIDE.parse(f"x119^{top} + 1") * WIDE.parse("x119*x0"),
        lambda: WIDE.parse(f"x119^{top}*cos(th)") * WIDE.parse("x119*sin(th)"),
    ]
    for make in cases:
        with pytest.raises(ExpressionError, match=r"reaches 2\^31"):
            make()


def test_parsed_exponents_at_the_limit_raise_with_a_position():
    for text, position in ((f"x^{_LIMIT}", 0), (f"2*y + q*x^{_LIMIT}", 8),
                           (f"x^{_LIMIT - 1}*y*x", 15),
                           (f"x^{10 ** 40}", 0)):
        with pytest.raises(ExpressionError, match=r"reaches 2\^31") as err:
            POLY.parse(text)
        assert err.value.position == position, text


def test_division_that_would_pass_the_limit_is_not_exact():
    # y^k's field fills up in lex order before x's leading term is gone
    patch = Patch.build("y x")
    k = _LIMIT // 2
    den = patch.parse(f"x - y^{k}")
    assert divide_exact(patch.parse("x^2"), den) is None
    # here a product past the limit, read back with its guard bit, would
    # cancel the remainder and pass y^2 + x^k*y + 1 off as the quotient
    swapped = Patch.build("x y")
    assert divide_exact(swapped.parse(f"y^3 - x^{k}"),
                        swapped.parse(f"y - x^{k}")) is None
    assert divide_exact(patch.parse(f"x^2 - y^{2 * k - 2}"),
                        patch.parse(f"x - y^{k - 1}")) == patch.parse(
        f"x + y^{k - 1}")


def test_frequencies_below_the_limit_fill_a_division_field():
    # sin(top*th)'s Laurent image spans the field from 0 to 2*top = 2^31 - 2
    top = _FREQUENCY - 1
    assert _FREQUENCY == _LIMIT // 2 == 2 ** 30
    patch = Patch.build("x th", angles=("th",))
    num = patch.parse(f"(x + 1)*sin({top}*th)")
    assert str(patch.parse(f"sin({top}*th)")) == f"sin({top}*th)"
    assert divide_exact(num, patch.parse(f"sin({top}*th)")) == patch.parse(
        "x + 1")
    assert divide_exact(num, patch.parse(f"cos({top}*th)")) is None
    half = patch.trig(SIN, _FREQUENCY // 2 - 1, "th")
    assert half * half == patch.parse(f"1/2 - 1/2*cos({top - 1}*th)")


def test_frequencies_at_the_limit_raise():
    for text, position in ((f"sin({_FREQUENCY}*th)", 0),
                           (f"2*y + x*cos({_FREQUENCY}*th)", 8),
                           (f"sin({10 ** 40}*th)", 0)):
        with pytest.raises(ExpressionError, match=(
                r"the frequency of 'th' reaches 2\^30")) as err:
            ONE_ANGLE.parse(text)
        assert err.value.position == position, text
    with pytest.raises(ExpressionError, match=r"reaches 2\^30"):
        ONE_ANGLE.trig(COS, _FREQUENCY, "th")
    k = _FREQUENCY // 2
    half = ONE_ANGLE.trig(COS, k, "th")
    for make in (lambda: ONE_ANGLE.parse(f"sin({k}*th)^2"),
                 lambda: half * ONE_ANGLE.trig(SIN, k, "th"),
                 lambda: half * ONE_ANGLE.parse(f"x + cos({k}*th)")):
        with pytest.raises(ExpressionError,
                           match=r"a frequency of a product reaches 2\^30"):
            make()


def test_one_key_and_coordinate_keys():
    assert POLY.one().terms == {(0, ()): 1}
    assert POLY.coord("q").terms == {(1 << (2 * _WIDTH), ()): 1}
    assert ONE_ANGLE.parse("sin(2*th)").terms == {(0, ((1, SIN, 2),)): 1}
    assert ref.table(POLY.parse("3*p^2*x")) == {(((0, 1), (3, 2)), ()): 3}
    assert ref.unpack(ref.pack(((0, 5), (7, _LIMIT - 1)))) == (
        (0, 5), (7, _LIMIT - 1))
    assert POLY.parse("1/2*x").terms == {ref.key(((0, 1),)): Fraction(1, 2)}
