"""Integrability checker, generator presentation, and the bivector bridge."""

from fractions import Fraction
from itertools import combinations, product
import math
import random

from hypothesis import assume, given, settings, strategies as st
import pytest

from corpus_util import corpus, mutation_fixtures

from couplingdirac import coupling
from couplingdirac.constructions import (
    AbelianYMHSetup,
    CartanSetup,
    cartan_data,
    yang_mills_data,
)
from couplingdirac.coupling import (
    CONDITION_ORDER,
    CheckReport,
    ConditionReport,
    DiracPresentation,
    GeometricData,
    Witness,
    build_dirac,
    check_casimir_complex,
    check_integrability,
    decompose_coupling,
    equivalent_data,
    extract_poisson,
    restrict_to_fiber,
    verify_closure,
    verify_isotropy,
)
from couplingdirac.errors import (
    DegenerateInputError,
    ExpressionError,
    MalformedDataError,
    NonCasimirError,
)
from couplingdirac.fibered import BaseForm, Connection, FiberedPatch
from couplingdirac.fractionfield import (
    RatExpr,
    divide_exact,
    pfaffian,
    rat_inverse,
)
from couplingdirac.symexpr import Coordinate, ScalarExpr
from couplingdirac.tensorcalc import (
    CourantSection,
    DiffForm,
    Multivector,
    _pairing_row,
    _slot_index,
    contract,
    courant_bracket,
    d_scalar,
    pairing_plus,
    schouten,
    sharp,
)


def mk(base, fiber, V, conn=None, F=None):
    patch = FiberedPatch.build(base, fiber)
    Vm = Multivector.build(patch, 2,
                           {k: patch.parse(v) for k, v in V.items()})
    cm = Connection(patch, {k: patch.parse(v) for k, v in conn.items()}) \
        if conn else None
    Fm = BaseForm.build(patch, 2, {k: patch.parse(v) for k, v in F.items()}) \
        if F else None
    return GeometricData(patch, Vm, cm, Fm)


def ymh_fixture():
    """Minimal gauge-theory style data: all four conditions hold."""
    return mk("x1 x2", "q p", {("q", "p"): "1"},
              conn={("q", "x1"): "-1*x2"},
              F={("x1", "x2"): "-1*p"})


PURE_MUTATIONS = {
    "jacobi": mk("x1 x2", "u v w", {("u", "v"): "1", ("v", "w"): "v"}),
    "poisson_connection": mk("x1 x2", "q p", {("q", "p"): "1"},
                             conn={("q", "x1"): "q"}),
    "curvature_identity": mk("x1 x2", "q p", {("q", "p"): "1"},
                             F={("x1", "x2"): "q"}),
    "horizontally_closed": mk("x1 x2 x3", "q p", {("q", "p"): "1"},
                              F={("x1", "x2"): "x3"}),
}


# ---------------------------------------------------------------- data type

def test_data_rejects_non_vertical_bivector():
    patch = FiberedPatch.build("x1 x2", "q p")
    mixed = Multivector.build(patch, 2, {("x1", "q"): 1})
    with pytest.raises(MalformedDataError):
        GeometricData(patch, mixed)


def test_data_rejects_fraction_coefficients():
    patch = FiberedPatch.build("x1 x2", "q p")
    frac = RatExpr(patch.one(), patch.coord("x1"))
    V = Multivector(patch, 2, {(patch.index("q"), patch.index("p")): frac})
    with pytest.raises(MalformedDataError):
        GeometricData(patch, V)


def test_data_rejects_pieces_of_the_wrong_type():
    patch = FiberedPatch.build("x1 x2", "q p")
    V = Multivector.build(patch, 2, {("q", "p"): 1})
    form_as_bivector = DiffForm.basis(patch, "q", "p")
    with pytest.raises(MalformedDataError, match="vertical part"):
        GeometricData(patch, form_as_bivector)
    for bad in ({}, "q"):
        with pytest.raises(MalformedDataError, match="connection"):
            GeometricData(patch, V, connection=bad)
        with pytest.raises(MalformedDataError, match="horizontal part"):
            GeometricData(patch, V, horizontal_form=bad)
    vector_as_form = Multivector.build(patch, 2, {("x1", "x2"): 1})
    with pytest.raises(MalformedDataError, match="horizontal part"):
        GeometricData(patch, V, horizontal_form=vector_as_form)


def test_data_defaults_are_flat_and_zero():
    patch = FiberedPatch.build("x1 x2", "q p")
    data = GeometricData(patch, Multivector.build(patch, 2, {("q", "p"): 1}))
    assert data.connection == Connection.flat(patch)
    assert data.horizontal_form.is_zero()
    assert check_integrability(data).passed


# ---------------------------------------------------------- integrability

def test_flat_data_passes_all_four():
    data = mk("x1 x2", "q p", {("q", "p"): "1"})
    report = check_integrability(data)
    assert report.passed
    assert report.verdict == "pass"
    assert tuple(c.name for c in report.conditions) == CONDITION_ORDER
    assert all(c.witnesses == () for c in report.conditions)


def test_curvature_witness_at_two_base_coordinates():
    # flat connection but F carries a fiber coordinate: the curvature
    # identity needs sharp(V, d(x1*q)) = x1 d_p to vanish, and it does not
    data = mk("x1 x2", "q p", {("q", "p"): "1"}, F={("x1", "x2"): "x1*q"})
    report = check_integrability(data)
    assert report.failing() == ("curvature_identity",)
    (w,) = report.condition("curvature_identity").witnesses
    assert w.indices == ("x1", "x2", "p")
    assert w.expression == data.patch.parse("-1*x1")


def test_closedness_needs_three_base_coordinates():
    data = mk("x1 x2 x3", "q p", {("q", "p"): "1"},
              F={("x1", "x2"): "x3*q"})
    report = check_integrability(data)
    assert set(report.failing()) == {"curvature_identity",
                                     "horizontally_closed"}
    (w,) = report.condition("horizontally_closed").witnesses
    assert w.indices == ("x1", "x2", "x3")
    assert w.expression == data.patch.parse("q")


def test_pure_mutations_fail_exactly_one_condition():
    for name, data in PURE_MUTATIONS.items():
        assert check_integrability(data).failing() == (name,)


def test_yang_mills_style_fixture_passes():
    assert check_integrability(ymh_fixture()).passed


# ------------------------------------------------------------- build_dirac

def test_build_dirac_flat_generators():
    data = mk("x1", "q p", {("q", "p"): "1"})
    patch = data.patch
    L = build_dirac(data)
    assert len(L) == 3
    (nx, ex), = L.horizontal
    assert nx == "x1"
    assert ex.vf == Multivector.basis(patch, "x1")
    assert ex.form.is_zero()
    (nq, eq), (np_, ep) = L.vertical
    # vertical generators carry minus the bivector image of the coframe
    assert (nq, np_) == ("q", "p")
    assert eq.form == DiffForm.basis(patch, "q")
    assert eq.vf == -Multivector.basis(patch, "p")
    assert ep.form == DiffForm.basis(patch, "p")
    assert ep.vf == Multivector.basis(patch, "q")


def test_build_dirac_casimir_direction_gives_zero_field():
    data = mk("x1", "q p z", {("q", "p"): "1"})
    L = build_dirac(data)
    by_name = dict(L.vertical)
    assert by_name["z"].vf.is_zero()
    assert by_name["z"].form == DiffForm.basis(data.patch, "z")


def test_build_dirac_horizontal_generators_use_lifts():
    data = ymh_fixture()
    L = build_dirac(data)
    for name, section in L.horizontal:
        lift = data.connection.hor(name)
        assert section.vf == lift
        assert section.form == contract(lift, data.horizontal_form)


# ---------------------------------------------------------------- isotropy

def test_isotropy_of_constructed_presentations():
    for data in [ymh_fixture(), *PURE_MUTATIONS.values()]:
        report = verify_isotropy(build_dirac(data))
        assert report.passed, report


def test_isotropy_counterexample_line():
    patch = FiberedPatch.build("x1", "q p")
    bad = CourantSection(Multivector.basis(patch, "q"),
                         DiffForm.basis(patch, "q"))
    L = DiracPresentation(patch, vertical=[("q", bad)])
    report = verify_isotropy(L)
    (w,) = report.condition("isotropy").witnesses
    assert w.indices == ("q", "q")
    assert w.expression == 1
    assert not report.condition("maximality").passed


def test_empty_presentation_is_isotropic_but_not_maximal():
    patch = FiberedPatch.build("x1", "q")
    report = verify_isotropy(DiracPresentation(patch))
    assert report.condition("isotropy").passed
    maxi = report.condition("maximality")
    assert not maxi.passed
    assert {w.indices for w in maxi.witnesses} == {
        ("unclaimed", "x1"), ("unclaimed", "q")}


def unit_presentation(patch, vf=None, form=None):
    """The unit generator on each coordinate's claimed slot (a horizontal
    one's vector slot, a vertical one's form slot), with the vector-field
    and form entries in ``vf`` and ``form`` (generator: {slot: text})
    added on top."""
    vf, form = vf or {}, form or {}

    def section(name, unit):
        X = {name: "1"} if unit == "vf" else {}
        w = {name: "1"} if unit == "form" else {}
        X.update(vf.get(name, {}))
        w.update(form.get(name, {}))
        return CourantSection(
            Multivector.build(patch, 1, {(k,): patch.parse(v)
                                         for k, v in X.items()}),
            DiffForm.build(patch, 1, {(k,): patch.parse(v)
                                      for k, v in w.items()}))

    return DiracPresentation(
        patch,
        horizontal=[(n, section(n, "vf")) for n in patch.base_names],
        vertical=[(n, section(n, "form")) for n in patch.fiber_names])


@pytest.mark.parametrize("vf,form,expected", [
    # a horizontal field off the unit on its own slot and on another
    ({"x1": {"x1": "2", "x2": "p"}}, {}, [(("x1", "x1"), "1"),
                                          (("x1", "x2"), "p")]),
    # a vertical field with a part along a claimed vector slot
    ({"q": {"x1": "q"}}, {}, [(("q", "x1"), "q")]),
    # a vertical form off the unit on its own slot and on another
    ({}, {"q": {"q": "3", "p": "1"}}, [(("q", "p"), "1"),
                                       (("q", "q"), "2")]),
    # entries outside the claimed block are not maximality's concern
    ({"q": {"q": "x1"}}, {"x1": {"x2": "q"}}, []),
    # all three at once, witnesses sorted by their indices
    ({"x1": {"x1": "2", "x2": "p"}, "q": {"x1": "q"}},
     {"q": {"q": "3", "p": "1"}},
     [(("q", "p"), "1"), (("q", "q"), "2"), (("q", "x1"), "q"),
      (("x1", "x1"), "1"), (("x1", "x2"), "p")]),
    # a unit entry missing from a field and from a form reads as zero
    ({"x2": {"x2": "0"}}, {"p": {"p": "0"}}, [(("p", "p"), "-1"),
                                              (("x2", "x2"), "-1")]),
], ids=["horizontal_field", "vertical_field", "vertical_form", "off_block",
        "all_at_once", "absent_units"])
def test_maximality_witnesses_are_entries_minus_the_unit(vf, form, expected):
    patch = FiberedPatch.build("x1 x2", "q p")
    report = verify_isotropy(unit_presentation(patch, vf, form))
    maxi = report.condition("maximality")
    assert [(w.indices, str(w.expression)) for w in maxi.witnesses] \
        == expected


def test_maximality_compares_a_quotient_entry_by_value():
    patch = FiberedPatch.build("x1 x2", "q p")
    x1 = patch.coord("x1")
    L = unit_presentation(patch)
    for entry, expected in ((RatExpr(x1, x1), []),
                            (RatExpr(2 * x1, x1), ["(x1)/(x1)"])):
        section = CourantSection(Multivector.build(patch, 1, {("x1",): entry}),
                                 DiffForm.zero(patch, 1))
        L2 = DiracPresentation(patch, [("x1", section)] + list(
            L.horizontal[1:]), L.vertical)
        maxi = verify_isotropy(L2).condition("maximality")
        assert [str(w.expression) for w in maxi.witnesses] == expected


# ----------------------------------------------------------------- closure

def test_closure_passes_on_integrable_data():
    report = verify_closure(build_dirac(ymh_fixture()))
    assert report.passed
    assert tuple(c.name for c in report.conditions) == CONDITION_ORDER


def test_closure_localizes_each_pure_mutation():
    for name, data in PURE_MUTATIONS.items():
        report = verify_closure(build_dirac(data))
        assert report.failing() == (name,), (name, report)


def test_closure_witnesses_name_generator_triples():
    data = PURE_MUTATIONS["jacobi"]
    report = verify_closure(build_dirac(data))
    fiber = set(data.patch.fiber_names)
    witnesses = report.condition("jacobi").witnesses
    assert witnesses
    for w in witnesses:
        assert len(w.indices) == 3
        assert set(w.indices) <= fiber


def rnd_expr(rng, patch, pool, deg=2):
    out = patch.zero()
    for _ in range(rng.randrange(0, 3)):
        term = patch.rational(rng.randrange(-2, 3))
        for _ in range(rng.randrange(0, deg + 1)):
            term = term * patch.coord(rng.choice(pool))
        out = out + term
    return out


def random_data():
    """Twelve unconstrained data sets on two base and two fiber coordinates."""
    rng = random.Random(20240817)
    patch = FiberedPatch.build("x1 x2", "q p")
    pool = ["x1", "x2", "q", "p"]
    for _ in range(12):
        V = Multivector(patch, 2, {
            (patch.index("q"), patch.index("p")): rnd_expr(rng, patch, pool)})
        conn = Connection(patch, {
            ("q", "x1"): rnd_expr(rng, patch, pool, deg=1),
            ("p", "x2"): rnd_expr(rng, patch, pool, deg=1)})
        F = BaseForm(patch, 2, {
            (0, 1): rnd_expr(rng, patch, pool)})
        yield GeometricData(patch, V, conn, F)


def random_shaped_data(nb, nf, count=2):
    """Unconstrained data on ``nb`` base and ``nf`` fiber coordinates, with
    every bivector, connection and 2-form slot filled at random."""
    rng = random.Random(31 * nb + nf)
    patch = FiberedPatch.build([f"x{i + 1}" for i in range(nb)],
                               [f"y{i + 1}" for i in range(nf)])
    pool = list(patch.names)
    base, fiber = patch.base_indices, patch.fiber_indices
    for _ in range(count):
        V = Multivector(patch, 2, {
            (u, v): rnd_expr(rng, patch, pool, deg=1)
            for u in fiber for v in fiber if u < v})
        conn = Connection(patch, {
            (u, a): rnd_expr(rng, patch, pool, deg=1)
            for u in fiber for a in base})
        F = BaseForm(patch, 2, {
            (a, b): rnd_expr(rng, patch, pool, deg=1)
            for a in base for b in base if a < b})
        yield GeometricData(patch, V, conn, F)


# (nb, nf) with odd and even N = nb + nf up to 8; (3, 1) and (4, 2) put
# horizontal generators on both sides of the bracket split
SHAPES = ((1, 2), (2, 1), (3, 1), (2, 3), (3, 2), (4, 2), (3, 4), (4, 4))


def test_verdicts_agree_on_random_data():
    agreements = 0
    for data in random_data():
        direct = check_integrability(data)
        spanned = verify_closure(build_dirac(data))
        assert direct.passed == spanned.passed
        agreements += 1
    assert agreements == 12


def test_oracles_agree_condition_by_condition_on_the_corpus():
    # and witness by witness, on the same index sets
    items = corpus() + list(mutation_fixtures().items())
    failing = orbits = witnesses = 0
    for name, data in items:
        direct = check_integrability(data)
        spanned = verify_closure(build_dirac(data))
        assert [(c.name, c.status) for c in direct.conditions] == [
            (c.name, c.status) for c in spanned.conditions], name
        failing += not direct.passed
        o, w = assert_witnesses_agree(direct, spanned)
        orbits += o
        witnesses += w
    assert (len(items), failing) == (58, 15)
    assert (orbits, witnesses) == (39, 234)


# a closure witness over the check witness on the same labels, times the
# parity of the closure's label order against the check's; derived in
# assert_witnesses_agree
WITNESS_SCALE = {"jacobi": Fraction(1, 4),
                 "poisson_connection": Fraction(-1, 2),
                 "curvature_identity": Fraction(-1, 2),
                 "horizontally_closed": Fraction(1, 2)}


def order_parity(order, reference):
    """The sign of the permutation taking ``reference`` to ``order``."""
    perm = [reference.index(label) for label in order]
    return -1 if sum(x > y for x, y in combinations(perm, 2)) % 2 else 1


def assert_witnesses_agree(direct, spanned):
    """Witness by witness: condition by condition, the closure report's
    witnesses fall on the check report's index sets and reach every one,
    and each closure witness ``T(i, j, k) = <[e_i, e_j], e_k>`` is the
    check witness on the same three labels times ``WITNESS_SCALE`` of its
    condition, times the parity of the closure's label order against the
    check's.  Returns (index sets, closure witnesses).

    The scales follow from the README's conventions: the pairing
    ``<(X, a), (Y, b)> = (a(Y) + b(X))/2``, the Dorfman bracket, the
    generators ``e_a = (h_a, i_{h_a} F)`` with ``h_a = hor d_a`` and
    ``e_u = (-V#eta^u, eta^u)``, and ``F`` read on the total patch, where
    it vanishes on vertical vectors.  The lifts' brackets are vertical.

    - horizontally_closed, labels (a, b, c): on the graph of ``F`` over
      the lifts ``T = dF(h_a, h_b, h_c)/2``, and with vertical brackets
      that is ``(d_gamma F)_abc / 2``.  Scale 1/2.
    - curvature_identity, labels (a, b, u): ``F`` drops out on the
      vertical bracket, so ``T = (eta^u([h_a, h_b]) - dF_ab(V#eta^u))/2``.
      Here ``[h_a, h_b] = -Curv(d_a, d_b)`` and ``dF_ab(V#eta^u) =
      -(V#dF_ab)^u``, so ``T = -(Curv(d_a, d_b) - V#dF_ab)^u / 2``.
      Scale -1/2.
    - poisson_connection, labels (a, u, v): ``F`` drops out on vertical
      pairs, and ``T = -(L_{h_a} V)(eta^u, eta^v)/2``, which is
      ``-(L_{h_a} V)^uv / 2`` as ``L_{h_a} V`` is vertical.  Scale -1/2.
    - jacobi, labels (u, v, w): on vertical vectors ``eta^u`` acts as
      ``dy^u``, so ``T`` is half the Jacobiator ``{y^u, {y^v, y^w}} +
      cyclic`` of ``-V``, which is that of ``V``.  The Schouten bracket,
      normalized to the Lie bracket in degree one, has ``[V, V]^uvw``
      twice the Jacobiator (``test_schouten_examples`` freezes 2 against
      1).  Scale 1/4.

    This compares two reports; neither oracle calls the other.
    """
    orbits = witnesses = 0
    for d, s in zip(direct.conditions, spanned.conditions):
        assert d.name == s.name
        ref = {frozenset(w.indices): w for w in d.witnesses}
        assert len(ref) == len(d.witnesses), d.name
        assert {frozenset(w.indices) for w in s.witnesses} == set(ref), d.name
        for w in s.witnesses:
            r = ref[frozenset(w.indices)]
            scale = WITNESS_SCALE[d.name] * order_parity(w.indices, r.indices)
            assert w.expression == r.expression * scale, (d.name, w, r)
        orbits += len(ref)
        witnesses += len(s.witnesses)
    return orbits, witnesses


def cleared_schouten(Pi, D):
    """D^3 [Pi, Pi] for a bivector whose every fraction is over D, formed
    without fractions: with P = D*Pi polynomial,

        D^3 [Pi, Pi] = D [P, P] + 2 P ^ P#(dD).

    ``schouten(Pi, Pi)`` multiplies the denominators of the fractions it
    combines without reducing them, which can take seconds on two base
    coordinates when D carries an angle."""
    patch = Pi.patch
    assert all(c.den == D for _, c in Pi.items() if isinstance(c, RatExpr))
    P = Multivector(patch, 2, {key: c.num if isinstance(c, RatExpr)
                               else c * D for key, c in Pi.items()})
    return schouten(P, P) * D + P.wedge(sharp(P, d_scalar(patch, D))) * 2


def test_extracted_bivector_is_poisson_iff_the_data_is_integrable():
    # a third criterion for the corpus verdicts, on the Poisson side:
    # [Pi, Pi] = 0 exactly when the data pass all four conditions; and
    # the fraction-free form of D^3 [Pi, Pi] is that, entry by entry
    invertible = degenerate = 0
    for name, data in corpus():
        try:
            Pi = extract_poisson(data)
        except DegenerateInputError:
            degenerate += 1
            continue
        invertible += 1
        square = schouten(Pi, Pi)
        assert square.is_zero() == check_integrability(data).passed, name
        D = form_pfaffian(data)
        cleared = cleared_schouten(Pi, D)
        for key in set(square.comps) | set(cleared.comps):
            assert square.coefficient(*key) * (D * D * D) == \
                cleared.coefficient(*key), name
    assert (invertible, degenerate) == (23, 31)


def draw_fiber_poisson(draw):
    """(patch, V, small) inside a composite strategy: 1 to 4 base and 2 to
    4 fiber coordinates, the fiber coordinate y1 an angle in some draws, a
    vertical Poisson bivector ``V``, and ``small(names)``, which draws a
    small term in the named coordinates."""
    nb, nf = draw(st.integers(1, 4)), draw(st.integers(2, 4))
    base = [f"x{i}" for i in range(1, nb + 1)]
    fiber = [f"y{i}" for i in range(1, nf + 1)]
    angle = draw(st.booleans())
    patch = FiberedPatch.build(base, fiber, angles=("y1",) if angle else ())
    trig = [patch.parse("cos(y1)"), patch.parse("sin(y1)")] if angle else []

    def small(names):
        atoms = [patch.one()] + trig * any(n == "y1" for n in names) + [
            patch.coord(n) for n in names if not (angle and n == "y1")]
        term = draw(st.sampled_from(SMALL))
        for _ in range(2):
            term = term * draw(st.sampled_from(atoms))
        return term + draw(st.sampled_from((0,) + SMALL))

    # constant or Casimir-weighted blocks: always Poisson, never on the base
    weight = draw(st.sampled_from(["1", "1 + y3"] if nf > 2 else ["1"]))
    V = {("y1", "y2"): patch.parse(weight)}
    if nf == 4 and weight == "1" and draw(st.booleans()):
        V[("y3", "y4")] = patch.rational(draw(st.sampled_from(SMALL)))
    return patch, Multivector.build(patch, 2, V), small


@st.composite
def broken_constructions(draw):
    """(data, broken): integrable data from ``cartan_data`` or
    ``yang_mills_data`` on ``draw_fiber_poisson``'s patch and bivector,
    and in most draws one coefficient of the vertical bivector, the
    connection or the 2-form then moved by a small term (which may or may
    not break a condition).
    """
    patch, V, small = draw_fiber_poisson(draw)
    base, fiber = patch.base_names, patch.fiber_names
    if draw(st.booleans()):
        data = cartan_data(CartanSetup(patch, V, BaseForm.build(
            patch, 1, {(a,): small(patch.names) for a in base})))
    else:
        data = yang_mills_data(AbelianYMHSetup(
            patch, V, [small(base) for _ in base], small(fiber)))
    pieces = {"V": data.vertical_bivector.comps,
              "conn": data.connection.table,
              "F": data.horizontal_form.comps}
    slots = {"V": list(combinations(patch.fiber_indices, 2)),
             "conn": list(product(patch.fiber_indices, patch.base_indices)),
             "F": list(combinations(patch.base_indices, 2))}
    where = draw(st.sampled_from(
        [None] + [kind for kind in ("V", "conn", "F") if slots[kind]]))
    if where is None:
        return data, False
    key = draw(st.sampled_from(slots[where]))
    table = dict(pieces[where])
    table[key] = table.get(key, patch.zero()) + small(patch.names)
    V, conn, F = data.vertical_bivector, data.connection, data.horizontal_form
    if where == "V":
        V = Multivector(patch, 2, table)
    elif where == "conn":
        conn = Connection(patch, table)
    else:
        F = BaseForm(patch, 2, table)
    return GeometricData(patch, V, conn, F), True


@settings(database=None, deadline=None, max_examples=300)
@given(broken_constructions())
def test_oracles_agree_condition_by_condition_on_generated_data(drawn):
    # and, where F is invertible, with the Poisson side: [Pi, Pi] = 0
    # exactly when the data pass
    data, broken = drawn
    direct = check_integrability(data)
    spanned = verify_closure(build_dirac(data))
    assert [(c.name, c.status) for c in direct.conditions] == [
        (c.name, c.status) for c in spanned.conditions]
    assert direct.passed or broken
    assert_witnesses_agree(direct, spanned)
    D = form_pfaffian(data)
    if not D.is_zero():
        Pi = extract_poisson(data)
        assert cleared_schouten(Pi, D).is_zero() == direct.passed


@st.composite
def momentum_flows(draw):
    """(V, J): ``draw_fiber_poisson``'s bivector and a fiber-only J."""
    patch, V, small = draw_fiber_poisson(draw)
    return V, small(patch.fiber_names)


@settings(database=None, deadline=None, max_examples=100)
@given(momentum_flows())
def test_a_hamiltonian_field_preserves_its_poisson_bivector(drawn):
    # [X_J, V] = 0 for every J once [V, V] = 0, which is why
    # AbelianYMHSetup checks no momentum's flow after its Poisson check
    V, J = drawn
    assert schouten(sharp(V, d_scalar(V.patch, J)), V).is_zero()


# the condition a nonzero pairing <[e_i, e_j], e_k> instantiates, keyed by
# the generator kinds (H = horizontal, V = vertical), written out in full
RELATION_CLASS = {
    ("H", "H", "H"): "horizontally_closed",
    ("H", "H", "V"): "curvature_identity",
    ("H", "V", "H"): "curvature_identity",
    ("V", "H", "H"): "curvature_identity",
    ("H", "V", "V"): "poisson_connection",
    ("V", "H", "V"): "poisson_connection",
    ("V", "V", "H"): "poisson_connection",
    ("V", "V", "V"): "jacobi",
}


def brute_force_closure(L):
    """Reference closure table: all N^2 brackets against all N generators."""
    gens = list(L.labeled())
    buckets = {name: [] for name in CONDITION_ORDER}
    for k1, n1, s1 in gens:
        for k2, n2, s2 in gens:
            br = courant_bracket(s1, s2)
            for k3, n3, s3 in gens:
                val = pairing_plus(br, s3)
                if val:
                    buckets[RELATION_CLASS[(k1, k2, k3)]].append(
                        Witness((n1, n2, n3), val))
    return CheckReport([ConditionReport(name, buckets[name])
                        for name in CONDITION_ORDER]).as_document()


def non_isotropic_presentation():
    """Hand-built generators with nonzero pairings <e_i, e_j>."""
    patch = FiberedPatch.build("x1", "q p")

    def section(vf, form):
        return CourantSection(
            Multivector.build(patch, 1, {(k,): patch.parse(v)
                                         for k, v in vf.items()}),
            DiffForm.build(patch, 1, {(k,): patch.parse(v)
                                      for k, v in form.items()}))

    return DiracPresentation(
        patch,
        horizontal=[("x1", section({"x1": "1", "p": "q"}, {"q": "x1*p"}))],
        vertical=[("q", section({"q": "q"}, {"q": "1", "x1": "p^2"})),
                  ("p", section({"x1": "p"}, {"p": "1"}))])


def test_closure_matches_brute_force_reference():
    sets = [data for _, data in corpus()]
    sets += list(mutation_fixtures().values())
    sets += list(random_data())
    sets += [data for shape in SHAPES for data in random_shaped_data(*shape)]
    # closure brackets pairs inside [0, m) and inside [m, N); a triple
    # i < m <= j takes its value from the second half's bracket [e_j, e_k]
    straddling = set()
    for data in sets:
        L = build_dirac(data)
        doc = verify_closure(L).as_document()
        assert doc == brute_force_closure(L), data
        m = (len(L) + 1) // 2
        position = {name: t for t, (_, name, _) in enumerate(L.labeled())}
        for cond in doc["conditions"]:
            for w in cond["witnesses"]:
                i, j, _ = sorted(position[name] for name in w["indices"])
                if i < m <= j:
                    straddling.add(cond["name"])
    assert {"curvature_identity", "poisson_connection"} <= straddling


def test_dirac_presentation_is_immutable():
    L = build_dirac(ymh_fixture())
    for name in ("patch", "horizontal", "vertical", "_pairings", "extra"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(L, name, None)
    assert L.pairings == {}
    assert L.pairings is L.pairings
    with pytest.raises(TypeError):
        L.pairings[(0, 0)] = 1


def test_every_span_is_isotropic():
    # closure's guard reads the same table, so it never fires on a
    # build_dirac span
    sets = [data for _, data in corpus()]
    sets += list(mutation_fixtures().values())
    sets += [data for shape in SHAPES for data in random_shaped_data(*shape)]
    for data in sets:
        assert build_dirac(data).pairings == {}, data


def count_rows(monkeypatch, L):
    """Record each pairing row as (section, lo, hi, whether the section is
    a generator of L)."""
    generators = {id(s) for s in L.sections}
    rows = []
    real = coupling._pairing_row

    def counting(s, index, lo, hi):
        rows.append((s, lo, hi, id(s) in generators))
        return real(s, index, lo, hi)

    monkeypatch.setattr(coupling, "_pairing_row", counting)
    return rows


def count_brackets(monkeypatch):
    """Record each Courant bracket the coupling module makes, as it is
    returned."""
    calls = []
    real = coupling.courant_bracket

    def counting(s1, s2):
        calls.append(real(s1, s2))
        return calls[-1]

    monkeypatch.setattr(coupling, "courant_bracket", counting)
    return calls


def generator_rows(rows, n):
    """The generator rows, checked to be row i over [i, n) for each i."""
    gen = [(lo, hi) for _, lo, hi, is_gen in rows if is_gen]
    assert gen == [(i, n) for i in range(n)]
    return gen


def test_isotropic_closure_brackets_one_pair_per_triple(monkeypatch):
    # two halves of sizes m = ceil(N/2) and N - m: floor((N-1)^2/4) pairs
    presentations = [build_dirac(ymh_fixture())]
    presentations += [build_dirac(next(random_shaped_data(nb, nf)))
                      for nb, nf in ((1, 1), *SHAPES)]
    assert {len(L) for L in presentations} == set(range(2, 9))
    for L in presentations:
        n = len(L)
        assert verify_isotropy(L).condition("isotropy").passed
        with monkeypatch.context() as patched:
            brackets = count_brackets(patched)
            rows = count_rows(patched, L)
            verify_closure(L)
        assert len(brackets) == (n - 1) ** 2 // 4, n
        # one row per bracket, made on that bracket, and nothing else
        assert [id(s) for s, _, _, _ in rows] == list(map(id, brackets)), n
        assert sum(hi - lo for _, lo, hi, _ in rows) == math.comb(n, 3), n


def test_generator_pairings_are_evaluated_once(monkeypatch):
    L = build_dirac(ymh_fixture())
    n = len(L)
    brackets = count_brackets(monkeypatch)
    rows = count_rows(monkeypatch, L)
    assert verify_isotropy(L).passed
    assert verify_closure(L).passed
    gen = generator_rows(rows, n)
    assert sum(hi - lo for lo, hi in gen) == n * (n + 1) // 2
    closure = [(s, lo, hi) for s, lo, hi, is_gen in rows if not is_gen]
    assert [id(s) for s, _, _ in closure] == list(map(id, brackets))
    assert sum(hi - lo for _, lo, hi in closure) == math.comb(n, 3)


def test_closure_of_non_isotropic_presentation_raises(monkeypatch):
    # vanishing pairings mean closure only on an isotropic span, so the
    # guard refuses before any bracket is formed
    L = non_isotropic_presentation()
    brackets = count_brackets(monkeypatch)
    assert not verify_isotropy(L).condition("isotropy").passed
    with pytest.raises(DegenerateInputError) as err:
        verify_closure(L)
    assert str(err.value) == ("generators x1 and q pair to 1/2*x1*q*p + "
                              "1/2*p^2: closure is decided on an isotropic "
                              "span only")
    assert brackets == []


def refuse_derivative(self, coord):
    raise AssertionError("an oracle differentiated along one coordinate")


def test_closure_differentiates_each_generator_once(monkeypatch):
    # each coefficient of a generator that enters a bracket is walked once
    # by ScalarExpr._gradient, however many brackets the generator enters,
    # floor((N-1)^2/4) of them on a span, and none again; no derivative
    # along a single coordinate is taken
    presentations = [build_dirac(ymh_fixture())]
    presentations += [build_dirac(next(random_shaped_data(*shape)))
                      for shape in SHAPES]
    real = ScalarExpr._gradient
    real_bracket = coupling.courant_bracket
    bracket_counts = set()
    total = 0
    for L in presentations:
        walked = []
        operands = []

        def counting(self, *args):
            walked.append(id(self))
            return real(self, *args)

        def bracket(s1, s2):
            operands.append((s1, s2))
            return real_bracket(s1, s2)

        with monkeypatch.context() as patched:
            patched.setattr(ScalarExpr, "_gradient", counting)
            patched.setattr(ScalarExpr, "differentiate", refuse_derivative)
            patched.setattr(coupling, "courant_bracket", bracket)
            verify_closure(L)
            entered = {id(s): s for pair in operands for s in pair}
            coefficients = sorted(id(c) for s in entered.values()
                                  for T in (s.vf, s.form)
                                  for c in T.comps.values())
            assert sorted(walked) == coefficients
            first = len(operands)
            verify_closure(L)
            assert sorted(walked) == coefficients
        assert len(operands) == 2 * first
        bracket_counts.add((first, len(L)))
        total += len(walked)
    assert {(2, 4), (9, 7), (12, 8)} <= bracket_counts
    assert total > 50


def test_check_differentiates_each_coefficient_once(monkeypatch):
    # one check walks each coefficient of V, of every lift and of F once
    # (ScalarExpr._gradient), and takes no derivative along a single
    # coordinate
    datas = [data for _, data in corpus()] + list(random_data())
    datas += [data for shape in SHAPES for data in random_shaped_data(*shape)]
    real = ScalarExpr._gradient
    walked = []

    def counting(self, *args):
        walked.append(id(self))
        return real(self, *args)

    total = 0
    for data in datas:
        conn = data.connection
        coefficients = [*data.vertical_bivector.comps.values(),
                        *data.horizontal_form.comps.values()]
        coefficients += [c for a in data.patch.base_indices
                         for c in conn.hor(a).comps.values()]
        walked.clear()
        with monkeypatch.context() as patched:
            patched.setattr(ScalarExpr, "_gradient", counting)
            patched.setattr(ScalarExpr, "differentiate", refuse_derivative)
            check_integrability(data)
        assert sorted(walked) == sorted(map(id, coefficients))
        total += len(walked)
    assert total > 250


def test_pairing_rows_match_pairing_plus():
    presentations = [build_dirac(data) for _, data in corpus()]
    presentations += [build_dirac(data)
                      for data in mutation_fixtures().values()]
    presentations += [build_dirac(data) for shape in SHAPES
                      for data in random_shaped_data(*shape)]
    presentations.append(non_isotropic_presentation())
    nonzero = 0
    for L in presentations:
        gens = L.sections
        n = len(gens)
        index = _slot_index(gens)
        for a, b in product(range(n), repeat=2):
            br = courant_bracket(gens[a], gens[b])
            row = _pairing_row(br, index, 0, n)
            assert set(row) <= set(range(n))
            for c in range(n):
                want = pairing_plus(br, gens[c])
                if c in row:
                    assert row[c] and row[c] == want, (L, a, b, c)
                    nonzero += 1
                else:
                    assert want.is_zero(), (L, a, b, c)
            # a restricted row is the full row's entries in [lo, hi)
            lo, hi = min(a, b), max(a, b) + 1
            assert _pairing_row(br, index, lo, hi) == {
                c: v for c, v in row.items() if lo <= c < hi}
    assert nonzero


# ----------------------------------------------------------- extract/graph

def test_extract_constant_form_inverse():
    data = mk("x1 x2", "q p", {("q", "p"): "1"}, F={("x1", "x2"): "3"})
    Pi = extract_poisson(data)
    patch = data.patch
    expected = Multivector.build(patch, 2, {("q", "p"): 1}) \
        + Multivector.build(patch, 2, {("x1", "x2"): patch.parse("1/3")})
    assert Pi == expected


def test_extract_zero_form_is_degenerate():
    data = mk("x1 x2", "q p", {("q", "p"): "1"})
    with pytest.raises(DegenerateInputError, match="det"):
        extract_poisson(data)


def test_extract_odd_base_dimension_is_degenerate():
    data = mk("x1 x2 x3", "q p", {("q", "p"): "1"},
              F={("x1", "x2"): "1", ("x1", "x3"): "1", ("x2", "x3"): "1"})
    with pytest.raises(DegenerateInputError):
        extract_poisson(data)


def test_extract_graph_compatibility_per_generator():
    data = ymh_fixture()
    Pi = extract_poisson(data)
    for kind, name, section in build_dirac(data).labeled():
        residual = sharp(Pi, section.form) + section.vf
        assert residual.is_zero(), (kind, name, residual)


def test_extract_of_integrable_data_is_poisson():
    data = ymh_fixture()
    Pi = extract_poisson(data)
    assert schouten(Pi, Pi).is_zero()


def test_extract_keeps_exact_inverses_polynomial():
    data = mk("x1 x2", "q p", {("q", "p"): "1"}, F={("x1", "x2"): "1"})
    Pi = extract_poisson(data)
    iq = (data.patch.index("x1"), data.patch.index("x2"))
    assert Pi.comps[iq] == -(-data.patch.one())  # plain expression, not a quotient
    assert not isinstance(Pi.comps[iq], RatExpr)


# --------------------------------------------------------------- decompose

def test_decompose_block_reading():
    patch = FiberedPatch.build("x1 x2", "q p")
    Pi = Multivector.build(patch, 2, {("q", "p"): 1, ("x1", "x2"): 1})
    result = decompose_coupling(Pi, patch)
    data = result.data
    assert data.vertical_bivector == Multivector.build(patch, 2, {("q", "p"): 1})
    assert data.connection == Connection.flat(patch)
    assert data.horizontal_form.coefficient("x1", "x2") == 1
    assert result.pivot_denominators == ()


def test_decompose_purely_vertical_is_not_transverse():
    patch = FiberedPatch.build("x1 x2", "q p")
    Pi = Multivector.build(patch, 2, {("q", "p"): 1})
    with pytest.raises(DegenerateInputError, match="transverse"):
        decompose_coupling(Pi, patch)


def test_decompose_names_the_recovered_entry_that_is_not_polynomial():
    patch = FiberedPatch.build("x1 x2", "q p")
    x1 = patch.coord("x1")
    r = RatExpr(patch.one(), patch.parse("1 + q"))
    cases = [
        ({("x1", "x2"): x1, ("x1", "q"): 1, ("q", "p"): 1},
         "recovered connection coefficient is not polynomial: "
         "value (-1)/(x1) is not expressible without denominators"),
        ({("x1", "x2"): x1, ("q", "p"): 1},
         "recovered 2-form entry is not polynomial: value (1)/(x1) "),
        ({("x1", "x2"): r, ("x1", "q"): r, ("x2", "p"): r},
         "recovered vertical bivector entry is not polynomial: "
         "value (-1)/(1 + q) "),
    ]
    for entries, message in cases:
        Pi = Multivector.build(patch, 2, entries)
        with pytest.raises(DegenerateInputError) as err:
            decompose_coupling(Pi, patch)
        assert str(err.value).startswith(message)


def test_round_trip_from_data():
    data = ymh_fixture()
    result = decompose_coupling(extract_poisson(data), data.patch)
    assert result.data == data
    # the extracted base entry is 1/Pf(F) = 1/(-p), so D = -p, Pf(N) = 1
    # keeps no factor of D and the pivot is D itself: det(M) = 1/p^2
    assert [str(p) for p in result.pivot_denominators] == ["-1*p"]
    assert result.pivot_denominators[0] ** 2 == data.patch.parse("p^2")


def test_round_trip_from_bivector():
    data = ymh_fixture()
    Pi = extract_poisson(data)
    again = extract_poisson(decompose_coupling(Pi, data.patch).data)
    assert again == Pi


def test_round_trips_on_random_nondegenerate_data():
    rng = random.Random(96031)
    patch = FiberedPatch.build("x1 x2", "q p")
    pool = ["x1", "x2", "q", "p"]
    for _ in range(6):
        V = Multivector(patch, 2, {
            (patch.index("q"), patch.index("p")):
                patch.one() + rnd_expr(rng, patch, pool, deg=1)})
        conn = Connection(patch, {
            ("q", "x2"): rnd_expr(rng, patch, pool, deg=1)})
        f12 = patch.rational(rng.choice([1, 2, -1]))
        for name in ("x1", "x2"):
            f12 = f12 + rng.randrange(-2, 3) * patch.coord(name)
        F = BaseForm(patch, 2, {(0, 1): f12})
        data = GeometricData(patch, V, conn, F)
        assert decompose_coupling(extract_poisson(data), patch).data == data
    # a 4-dimensional base with every 2-form entry non-constant: the
    # extracted bivector's coefficients are fractions over Pf[F_ab]
    data = four_base_data()
    assert decompose_coupling(extract_poisson(data), data.patch).data == data


def four_base_data():
    patch = FiberedPatch.build("x1 x2 x3 x4", "q p")
    P = patch.parse
    return GeometricData(
        patch, Multivector.build(patch, 2, {("q", "p"): P("1 + p")}),
        Connection(patch, {("q", "x1"): P("x2"), ("p", "x3"): P("q + x4")}),
        BaseForm.build(patch, 2, {
            ("x1", "x2"): P("1 + x3*q"), ("x1", "x3"): P("x2 + p"),
            ("x1", "x4"): P("q*p"), ("x2", "x3"): P("2 + x1*x4"),
            ("x2", "x4"): P("x3 - q"), ("x3", "x4"): P("1 + p^2")}))


def six_base_data():
    # 11 of the 15 entries F_ab are non-constant
    patch = FiberedPatch.build("x1 x2 x3 x4 x5 x6", "q p")
    P = patch.parse
    F = BaseForm.build(patch, 2, {
        ("x1", "x2"): P("1 + q"), ("x1", "x3"): P("x2"), ("x1", "x4"): P("p"),
        ("x1", "x5"): P("x6"), ("x1", "x6"): P("1"), ("x2", "x3"): P("2 + x4"),
        ("x2", "x4"): P("x3 - q"), ("x2", "x5"): P("3"),
        ("x2", "x6"): P("x5 + 1"), ("x3", "x4"): P("1 + p"),
        ("x3", "x5"): P("-1"), ("x3", "x6"): P("q"), ("x4", "x5"): P("2"),
        ("x4", "x6"): P("x1"), ("x5", "x6"): P("1 + x2")})
    assert sum(c.as_rational() is None for _, c in F.items()) == 11
    return GeometricData(
        patch, Multivector.build(patch, 2, {("q", "p"): P("1 + p")}),
        Connection(patch, {("q", "x1"): P("x2"), ("p", "x3"): P("q + x4")}), F)


def angle_base_data():
    # q is an angle; Pf(F) = F12*F34 - F13*F24 + F14*F23 carries cos(q)
    patch = FiberedPatch.build("x1 x2 x3 x4", "q p", angles=("q",))
    P = patch.parse
    return GeometricData(
        patch, Multivector.build(patch, 2, {("q", "p"): P("1 + p")}),
        Connection(patch, {("p", "x1"): P("x2*sin(q)")}),
        BaseForm.build(patch, 2, {
            ("x1", "x2"): P("2 + cos(q)"), ("x1", "x3"): P("x4"),
            ("x2", "x4"): P("1 + p"), ("x3", "x4"): P("3")}))


def form_pfaffian(data):
    F, base = data.horizontal_form, data.patch.base_indices
    return pfaffian([[F.coefficient(a, b) for b in base] for a in base],
                    data.patch)


def test_round_trip_with_six_base_coordinates():
    # the extracted base block M = N/D has the shared denominator
    # D = Pf(F) of 29 terms
    data = six_base_data()
    result = decompose_coupling(extract_poisson(data), data.patch)
    assert result.data == data
    # det(M) = 1/det(F): Pf(N) = D^3 Pf(M) = -Pf(F)^2 takes two divisions
    # by D, not three, so the one pivot is D = Pf(F) itself
    pf = form_pfaffian(data)
    assert len(pf.terms) == 29
    (pivot,) = result.pivot_denominators
    assert pivot == pf or pivot == -pf


def dense_base_data(nb):
    """Data on nb base coordinates and the fiber pair q, p whose every
    2-form entry is a constant c in {1, 2, 3, -1, -2}, plus c'*y for
    c' in {1, -1, 2} and a coordinate y with probability 0.7, drawn from
    random.Random(8)."""
    rng = random.Random(8)
    patch = FiberedPatch.build(
        " ".join(f"x{i}" for i in range(1, nb + 1)), "q p")
    P = patch.parse
    table = {}
    for a, b in combinations(patch.base_names, 2):
        c = patch.rational(rng.choice([1, 2, 3, -1, -2]))
        if rng.random() < 0.7:
            c = c + rng.choice([1, -1, 2]) * patch.coord(
                rng.choice(patch.names))
        table[(a, b)] = c
    return GeometricData(
        patch, Multivector.build(patch, 2, {("q", "p"): P("1 + p")}),
        Connection(patch, {("q", "x1"): P("x2"), ("p", "x3"): P("q + x4")}),
        BaseForm.build(patch, 2, table))


def recorded_inverses(monkeypatch):
    """The (rows, D, result) of every ``rat_inverse`` call made by
    ``coupling``."""
    calls = []

    def recorded(rows, patch, D=None):
        calls.append((rows, D, rat_inverse(rows, patch, D)))
        return calls[-1][2]

    monkeypatch.setattr(coupling, "rat_inverse", recorded)
    return calls


def test_dense_round_trip_with_eight_base_coordinates(monkeypatch):
    data = dense_base_data(8)
    pf = form_pfaffian(data)
    assert len(pf.terms) == 138
    inverses = recorded_inverses(monkeypatch)
    result = decompose_coupling(extract_poisson(data), data.patch)
    assert result.data == data
    assert list(result.pivot_denominators) == [pf]
    # the swell, pinned: over D = Pf(F), N = D*M has Pf(N) = D^3 times a
    # constant, and every division by D is exact (s = 0)
    (N, D, (R, _, s)), = inverses[1:]
    assert D == pf
    assert s == 0 and R.as_rational() is not None
    # Pf(N) = D^3*R, read at two points: the plain expansion of N is the
    # swell that the divisions avoid
    patch = data.patch
    for k in (1, 2):
        point = {name: i + k for i, name in enumerate(patch.names)}
        at = [[c.substitute(point, patch) for c in row] for row in N]
        assert D.substitute(point, patch) ** 3 * R == pfaffian(at, patch)


def test_extract_puts_every_fraction_over_the_one_pfaffian():
    for data in (four_base_data(), six_base_data(), angle_base_data()):
        pf = form_pfaffian(data)
        assert pf.as_rational() is None
        Pi = extract_poisson(data)
        fractions = [c for _, c in Pi.items() if isinstance(c, RatExpr)]
        assert fractions
        for c in fractions:
            assert c.den == pf
            assert divide_exact(c.num, c.den) is None
        # integral F: no Fraction coefficient anywhere
        for _, c in Pi.items():
            for part in (c.num, c.den) if isinstance(c, RatExpr) else (c,):
                assert all(type(v) is int for v in part.terms.values())
        assert decompose_coupling(Pi, data.patch).data == data


def interleaved_base_data():
    # base and fiber coordinates alternate; F is given with its key reversed
    patch = FiberedPatch([Coordinate(name, role=role) for name, role in (
        ("q", "fiber"), ("x1", "base"), ("p", "fiber"), ("x2", "base"))])
    P = patch.parse
    return GeometricData(
        patch, Multivector.build(patch, 2, {("q", "p"): P("1 + p")}),
        Connection(patch, {("q", "x2"): P("x1*p")}),
        BaseForm.build(patch, 2, {("x2", "x1"): P("1 + q")}))


def constant_pfaffian_data():
    # Pf(F) = 2 divides every adjugate entry: Pi has Fraction coefficients
    # and no quotient
    patch = FiberedPatch.build("x1 x2 x3 x4", "q p")
    P = patch.parse
    return GeometricData(
        patch, Multivector.build(patch, 2, {("q", "p"): P("1 + p")}),
        Connection(patch, {("q", "x1"): P("x2"), ("p", "x3"): P("q + x4")}),
        BaseForm.build(patch, 2, {("x1", "x2"): P("2"), ("x3", "x4"): P("1"),
                                  ("x1", "x3"): P("q + x2")}))


def reference_extract(data):
    """Pi = V + sum_{a<b} hor(d_a)^hor(d_b) * W^{ab}, summed one pair at a
    time through public Multivector operations, with W^{ab} = -C_ab/Pf(F)
    divided out where that is exact."""
    patch, base = data.patch, data.patch.base_indices
    F, hor = data.horizontal_form, data.connection.hor
    pf, C, _ = rat_inverse(
        [[F.coefficient(a, b) for b in base] for a in base], patch)
    Pi = data.vertical_bivector
    for pa, pb in combinations(range(len(base)), 2):
        w = -C[pa][pb]
        if w:
            q = divide_exact(w, pf)
            Pi = Pi + hor(base[pa]).wedge(hor(base[pb])) * (
                RatExpr(w, pf) if q is None else q)
    return Pi


def entry_tables(Pi):
    """Each entry as its numerator's and denominator's term tables (None
    for an expression), every coefficient paired with its type."""
    def table(e):
        return {k: (type(c), c) for k, c in e.terms.items()}
    return {key: (table(c.num), table(c.den)) if isinstance(c, RatExpr)
            else (table(c), None) for key, c in Pi.items()}


def test_extract_matches_the_pairwise_reference_entry_by_entry():
    # decompose's shared denominator and its pivots read these tables, so
    # equality as quotients would not be enough
    kinds = set()
    for data in (ymh_fixture(), four_base_data(), six_base_data(),
                 angle_base_data(), interleaved_base_data(),
                 constant_pfaffian_data(), dense_base_data(6),
                 dense_base_data(8)):
        Pi = extract_poisson(data)
        assert entry_tables(Pi) == entry_tables(reference_extract(data))
        kinds |= {type(c) for _, c in Pi.items()}
        kinds |= {type(v) for _, c in Pi.items() if not isinstance(c, RatExpr)
                  for v in c.terms.values()}
    assert kinds == {ScalarExpr, RatExpr, int, Fraction}


def cancelling_sums():
    """Data on which an entry of Pi is a quotient only because its pairwise
    running sum cancels, or because a pair's K^{uv}_ab does: summed in
    another order, as V^{uv} + sum_a H^u_a P^{av}, it would end a fraction
    over Pf(F).  Each comes with the entry's name and value."""
    patch = FiberedPatch.build("x1 x2", "q1 q2")
    P = patch.parse
    # Gamma^q1 = Gamma^q2, so every K^{q1 q2}_ab = H^q1_a H^q2_b -
    # H^q2_a H^q1_b cancels: the pairwise sum adds nothing to V^{q1 q2},
    # while the terms H^u_a P^{av} are fractions that cancel
    doubled = GeometricData(
        patch, Multivector.build(patch, 2, {("q1", "q2"): 1}),
        Connection(patch, {(u, a): P("x2") for u in ("q1", "q2")
                           for a in ("x1", "x2")}),
        BaseForm.build(patch, 2, {("x1", "x2"): P("-1*q2")}))
    yield doubled, ("q1", "q2"), P("1")

    patch = FiberedPatch.build("x1 x2 x3 x4", "q1 q2")
    P = patch.parse
    # P^{x3 q1}: W^{31} H^q1_1 = 1/Pf(F) and W^{32} H^q1_2 = -1/Pf(F)
    # cancel, then the quotient term W^{34} H^q1_4 = -1 follows
    base_fiber = GeometricData(
        patch, Multivector.build(patch, 2, {("q1", "q2"): 1}),
        Connection(patch, {
            ("q1", "x1"): P("1"), ("q1", "x2"): P("1"),
            ("q1", "x3"): P("q2 - 1"), ("q1", "x4"): P("1"),
            ("q2", "x2"): P("1"), ("q2", "x4"): P("1")}),
        BaseForm.build(patch, 2, {
            ("x1", "x2"): P("1 + q1"), ("x1", "x4"): P("-1"),
            ("x2", "x4"): P("-1"), ("x3", "x4"): P("1")}))
    yield base_fiber, ("x3", "q1"), P("-1")

    patch = FiberedPatch.build("x1 x2 x3 x4", "q1 q2 q3")
    P = patch.parse
    # Pi^{q1 q2}: the fractional terms of the pairs (x1, x2) and (x1, x3)
    # cancel, then the quotient term of the pair (x2, x4) follows
    fiber_fiber = GeometricData(
        patch, Multivector.zero(patch, 2),
        Connection(patch, {
            **{("q1", a): P("x1 - 1") for a in ("x1", "x2", "x3")},
            **{("q2", a): P("x1 - 1") for a in ("x2", "x3", "x4")},
            ("q3", "x2"): P("-1*q3"), ("q3", "x3"): P("1")}),
        BaseForm.build(patch, 2, {
            ("x1", "x3"): P("1 + q1"), ("x1", "x4"): P("x1 - 1"),
            ("x2", "x4"): P("1"), ("x3", "x4"): P("1")}))
    yield fiber_fiber, ("q1", "q2"), P("1 - 2*x1 + x1^2")


def test_extract_matches_the_reference_where_running_sums_cancel():
    for data, names, entry in cancelling_sums():
        Pi = extract_poisson(data)
        assert entry_tables(Pi) == entry_tables(reference_extract(data))
        got = Pi.coefficient(*names)
        assert type(got) is ScalarExpr and got == entry


SMALL = (1, -1, 2)


@st.composite
def invertible_data(draw):
    """Coupling data with an invertible 2-form on 2, 4 or 6 base and 2 or
    3 fiber coordinates, in any order, one of them the angle t in some
    draws.  Entries are small, a 2-form entry is +-1 as often as not, and
    in half the draws the connection is Gamma^u_a = lambda_u c_a, so that
    every K^{uv}_ab cancels and the terms W^{ab} H^v_b of an entry of Pi
    cancel often."""
    nb = draw(st.sampled_from((2, 4, 6)))
    angle = draw(st.booleans())
    fiber = ("t" if angle else "r", "q", "p")[:draw(st.integers(2, 3))]
    patch = FiberedPatch(draw(st.permutations(
        [Coordinate(f"x{i}", role="base") for i in range(1, nb + 1)]
        + [Coordinate(u, role="fiber", angle=u == "t") for u in fiber])))
    atoms = [patch.coord(c.name) for c in patch.coords if not c.angle]
    if angle:
        atoms += [patch.parse("cos(t)"), patch.parse("sin(t)")]

    def small():
        atom = draw(st.sampled_from([patch.one()] + atoms))
        return draw(st.sampled_from(SMALL)) * atom + draw(st.sampled_from(
            (0,) + SMALL))

    shared = small()
    conn = {}
    if draw(st.booleans()):
        scale = {u: draw(st.sampled_from((0, 1, -1))) for u in fiber}
        for a in patch.base_names:
            c = draw(st.sampled_from((None, shared, "fresh")))
            c = small() if c == "fresh" else c
            conn.update({(u, a): k * c for u, k in scale.items()
                         if c is not None and k})
    else:
        for key in product(fiber, patch.base_names):
            kind = draw(st.sampled_from(("none", "none", "shared", "fresh")))
            if kind != "none":
                conn[key] = shared if kind == "shared" else small()
    form = {}
    for pair in combinations(patch.base_names, 2):
        kind = draw(st.sampled_from(("none", "one", "minus", "small")))
        if kind != "none":
            form[pair] = {"one": patch.one(), "minus": -patch.one()}.get(
                kind) or small()
    V = {pair: small() for pair in combinations(fiber, 2)
         if draw(st.booleans())}
    data = GeometricData(patch, Multivector.build(patch, 2, V),
                         Connection(patch, conn),
                         BaseForm.build(patch, 2, form))
    assume(not form_pfaffian(data).is_zero())
    return data


@settings(database=None, deadline=None, max_examples=120)
@given(invertible_data())
def test_extract_matches_the_pairwise_reference_on_random_data(data):
    assert entry_tables(extract_poisson(data)) == entry_tables(
        reference_extract(data))


@settings(database=None, deadline=None, max_examples=120)
@given(invertible_data())
def test_decompose_inverts_extract_with_pf_f_as_the_pivot(data):
    result = decompose_coupling(extract_poisson(data), data.patch)
    assert result.data == data
    pf = form_pfaffian(data)
    assert result.pivot_denominators == (
        () if pf.as_rational() is not None else (pf,))


def test_decompose_over_a_product_of_denominators():
    data = ymh_fixture()
    patch, P = data.patch, data.patch.parse
    Pi = extract_poisson(data)
    # Pf(F) = -p; write the (x2, q) entry over -p*(1 + q), unreduced, so
    # the shared denominator is D = (-p)(-p(1 + q)) = p^2 + p^2*q
    key = (patch.index("x2"), patch.index("q"))
    c = Pi.comps[key]
    assert c.den == P("-1*p")
    comps = dict(Pi.comps)
    comps[key] = RatExpr(c.num * P("1 + q"), c.den * P("1 + q"))
    result = decompose_coupling(Multivector(patch, 2, comps), patch)
    assert result.data == data
    # the one pivot is Pf(F) = D^(n/2)/Pf(N) = D/(-p - p*q) = -p: the
    # factor 1 + q that the unreduced fraction added to D cancels
    assert list(result.pivot_denominators) == [P("-1*p")]


def test_decompose_over_a_proper_factor_of_the_pfaffian(monkeypatch):
    # Pf(F) = 3*q^2, but every fraction of the extracted bivector reduces
    # to one over 3*q: D = 3*q leaves a remainder in some Pfaffian sum of
    # N = D*M, so the inverse starts over without D (s = 1)
    patch = FiberedPatch.build("x1 x2 x3 x4 x5 x6", "q p")
    P, q = patch.parse, patch.coord("q")
    data = GeometricData(
        patch, Multivector.build(patch, 2, {("q", "p"): 1}),
        Connection(patch, {("q", "x1"): P("x2"), ("p", "x3"): P("x4 + 1"),
                           ("q", "x5"): P("1")}),
        BaseForm.build(patch, 2, {
            ("x1", "x2"): P("-1"), ("x1", "x6"): P("-1*q"),
            ("x2", "x3"): P("-1"), ("x2", "x4"): P("1"), ("x2", "x5"): P("2"),
            ("x2", "x6"): P("2*q"), ("x3", "x4"): P("-1*q"),
            ("x3", "x5"): P("q")}))
    assert form_pfaffian(data) == P("3*q^2")
    comps = {}
    for key, c in extract_poisson(data).comps.items():
        if isinstance(c, RatExpr):
            num, den = c.num, c.den
            while (a := divide_exact(num, q)) is not None and (
                    b := divide_exact(den, q)) is not None:
                num, den = a, b
            c = RatExpr(num, den)
            assert den == P("3*q")
        comps[key] = c
    inverses = recorded_inverses(monkeypatch)
    result = decompose_coupling(Multivector(patch, 2, comps), patch)
    assert result.data == data
    # the pivot is the true locus Pf(F), not the reduced denominator
    assert list(result.pivot_denominators) == [P("3*q^2")]
    (_, D, (_, _, s)), = inverses
    assert D == P("3*q")
    assert s == 1


def product_of_denominators_bivector():
    """The ymh fixture's bivector with its (x2, q) entry over -p*(1 + q)."""
    data = ymh_fixture()
    patch = data.patch
    Pi = extract_poisson(data)
    key = (patch.index("x2"), patch.index("q"))
    comps = dict(Pi.comps)
    c = comps[key]
    comps[key] = RatExpr(c.num * patch.parse("1 + q"),
                         c.den * patch.parse("1 + q"))
    return Multivector(patch, 2, comps)


def test_round_trips_from_the_bivector_side():
    bivectors = [extract_poisson(data) for data in (
        four_base_data(), six_base_data(), angle_base_data())]
    bivectors.append(product_of_denominators_bivector())
    for Pi in bivectors:
        assert extract_poisson(decompose_coupling(Pi, Pi.patch).data) == Pi


def test_round_trips_on_interleaved_patches():
    # base and fiber coordinates in shuffled order; a constant invertible
    # base block keeps every recovered entry polynomial
    rng = random.Random(4401)
    for _ in range(40):
        roles = ["base"] * 4 + ["fiber"] * 4
        rng.shuffle(roles)
        patch = FiberedPatch([Coordinate(f"y{i}", role=r)
                              for i, r in enumerate(roles)])
        base, fiber = patch.base_indices, patch.fiber_indices
        pool = list(patch.names)
        while True:
            M = {k: rng.randint(-3, 3) for k in combinations(base, 2)}
            a, b, c, d = base
            if M[a, b] * M[c, d] - M[a, c] * M[b, d] + M[a, d] * M[b, c]:
                break
        entries = dict(M)
        for key in [*product(base, fiber), *combinations(fiber, 2)]:
            if rng.random() < 0.6:
                entries[key] = rnd_expr(rng, patch, pool)
        Pi = Multivector.build(patch, 2, entries)
        assert extract_poisson(decompose_coupling(Pi, patch).data) == Pi


def test_decompose_divides_the_pfaffian_at_most_half_the_base_dimension(
        monkeypatch):
    # every fraction over the constant 2: N = D*M has Pf(N) = 1, and the
    # pivot is the one division Pf(F) = D^(n/2)/Pf(N) = 2, a constant
    patch = FiberedPatch.build("x1 x2", "q p")
    P = patch.parse
    Pi = Multivector.build(patch, 2, {("x1", "x2"): RatExpr(P("1"), P("2")),
                                      ("x1", "q"): RatExpr(P("x2"), P("2")),
                                      ("q", "p"): P("1")})
    calls = []

    def counted(num, den):
        calls.append((num, den))
        return divide_exact(num, den)

    monkeypatch.setattr(coupling, "divide_exact", counted)
    result = decompose_coupling(Pi, patch)
    assert calls == [(P("2"), P("1"))]
    assert result.pivot_denominators == ()
    assert result.data.horizontal_form.coefficient("x1", "x2") == 2


# ---------------------------------------------------------- equivalent data

def casimir_fixture():
    """Integrable data on (x1,x2; q,p,z) whose connection moves z."""
    return mk("x1 x2", "q p z", {("q", "p"): "1"},
              conn={("z", "x1"): "x1"})


def test_equivalent_zero_potential_is_identity():
    data = ymh_fixture()
    Phi = BaseForm.zero(data.patch, 1)
    assert equivalent_data(data, Phi) == data


def test_equivalent_shifts_form_and_preserves_integrability():
    data = casimir_fixture()
    patch = data.patch
    assert check_integrability(data).passed
    Phi = BaseForm.build(patch, 1, {("x2",): patch.parse("z")})
    shifted = equivalent_data(data, Phi)
    # d_gamma(z dx2): hor(d1) z = -x1, so the 1-2 component gains -(-x1)
    gained = shifted.horizontal_form - data.horizontal_form
    assert gained.coefficient("x1", "x2") == patch.parse("-1*x1")
    assert check_integrability(shifted).passed
    assert shifted.vertical_bivector == data.vertical_bivector
    assert shifted.connection == data.connection


def test_equivalent_rejects_non_casimir_with_witness():
    data = ymh_fixture()
    patch = data.patch
    Phi = BaseForm.build(patch, 1, {("x1",): patch.parse("q")})
    with pytest.raises(NonCasimirError) as err:
        equivalent_data(data, Phi)
    assert err.value.witness == Multivector.basis(patch, "p")


def test_equivalent_preserves_closure_verdict():
    data = casimir_fixture()
    patch = data.patch
    Phi = BaseForm.build(patch, 1, {("x1",): patch.parse("z^2"),
                                    ("x2",): patch.parse("1 - z")})
    shifted = equivalent_data(data, Phi)
    before = verify_closure(build_dirac(data))
    after = verify_closure(build_dirac(shifted))
    assert before.verdict == after.verdict == "pass"


# ------------------------------------------------------------ casimir d^2

def test_casimir_complex_constants_pass():
    data = ymh_fixture()
    report = check_casimir_complex(data, ["1", "5/2"])
    assert report.passed
    assert {c.name for c in report.conditions} == {
        "casimir_complex_deg0", "casimir_complex_deg1"}


def test_casimir_complex_moved_casimir_passes():
    data = casimir_fixture()
    report = check_casimir_complex(data, ["z", "z^2 - 3*z"])
    assert report.passed, report


def test_casimir_complex_rejects_non_casimir():
    data = ymh_fixture()
    with pytest.raises(NonCasimirError):
        check_casimir_complex(data, ["q"])


# ------------------------------------------------------------- restriction

def test_restrict_constant_bivector():
    data = mk("x1 x2", "q p", {("q", "p"): "1"})
    fib = restrict_to_fiber(data, {"x1": 2, "x2": -1})
    assert fib.patch == data.patch.fiber_patch()
    assert fib == Multivector.build(fib.patch, 2, {("q", "p"): 1})


def test_restrict_scales_and_may_drop_rank():
    data = mk("x1 x2", "q p", {("q", "p"): "x1"})
    two = restrict_to_fiber(data, {"x1": 2, "x2": 0})
    assert two.coefficient("q", "p") == 2
    zero = restrict_to_fiber(data, {"x1": 0, "x2": 0})
    assert zero.is_zero()


def test_restrict_keeps_jacobi():
    data = mk("x1 x2", "u v w",
              {("u", "v"): "1 + x1*x2", ("v", "w"): "2 + 2*x1*x2"})
    assert schouten(data.vertical_bivector, data.vertical_bivector).is_zero()
    fib = restrict_to_fiber(data, {"x1": 3, "x2": 1})
    assert schouten(fib, fib).is_zero()


def test_restrict_rejects_inexact_values():
    data = mk("x1 x2", "q p", {("q", "p"): "x1"})
    with pytest.raises(ExpressionError, match="'x1' must be an int"):
        restrict_to_fiber(data, {"x1": 0.5, "x2": 0})


# ------------------------------------------------------------- report shape

def test_report_document_key_order():
    report = check_integrability(PURE_MUTATIONS["curvature_identity"])
    doc = report.as_document()
    assert list(doc) == ["verdict", "conditions", "pivot_denominators"]
    assert doc["verdict"] == "fail"
    assert doc["pivot_denominators"] == []
    for cond in doc["conditions"]:
        assert list(cond) == ["name", "status", "witnesses"]
        for w in cond["witnesses"]:
            assert list(w) == ["indices", "expression"]
            assert isinstance(w["expression"], str)


def test_report_lookup_and_failing():
    report = check_integrability(PURE_MUTATIONS["jacobi"])
    assert report.condition("jacobi").status == "fail"
    with pytest.raises(KeyError):
        report.condition("nonsense")
    assert report.failing() == ("jacobi",)


def test_witness_sorting_is_deterministic():
    report = ConditionReport("demo", [
        Witness(("b",), 1), Witness(("a",), 2)])
    assert [w.indices for w in report.witnesses] == [("a",), ("b",)]
    assert CheckReport([report]).verdict == "fail"
