"""Integrability checker, generator presentation, and the bivector bridge."""

import random

import pytest

from corpus_util import corpus, mutation_fixtures

from couplingdirac.coupling import (
    _RELATION_CLASS,
    CONDITION_ORDER,
    CheckReport,
    ConditionReport,
    DiracPresentation,
    GeometricData,
    Witness,
    build_dirac,
    characteristic_kernel,
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
    MalformedDataError,
    NonCasimirError,
)
from couplingdirac.fibered import BaseForm, Connection, FiberedPatch, promote
from couplingdirac.fractionfield import RatExpr
from couplingdirac.tensorcalc import (
    CourantSection,
    DiffForm,
    Multivector,
    contract,
    courant_bracket,
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
    Fbar = promote(data.connection, data.horizontal_form)
    for name, section in L.horizontal:
        lift = data.connection.hor(name)
        assert section.vf == lift
        assert section.form == contract(lift, Fbar)


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


def test_verdicts_agree_on_random_data():
    agreements = 0
    for data in random_data():
        direct = check_integrability(data)
        spanned = verify_closure(build_dirac(data))
        assert direct.passed == spanned.passed
        agreements += 1
    assert agreements == 12


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
                    buckets[_RELATION_CLASS[(k1, k2, k3)]].append(
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
    for data in sets:
        L = build_dirac(data)
        assert verify_closure(L).as_document() == brute_force_closure(L), data
    L = non_isotropic_presentation()
    assert not verify_isotropy(L).condition("isotropy").passed
    reference = brute_force_closure(L)
    assert reference["verdict"] == "fail"
    assert verify_closure(L).as_document() == reference


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


def test_round_trip_from_data():
    data = ymh_fixture()
    result = decompose_coupling(extract_poisson(data), data.patch)
    assert result.data == data
    assert [str(p) for p in result.pivot_denominators] == ["p^2"]


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
    patch = FiberedPatch.build("x1 x2 x3 x4", "q p")
    P = patch.parse
    data = GeometricData(
        patch, Multivector.build(patch, 2, {("q", "p"): P("1 + p")}),
        Connection(patch, {("q", "x1"): P("x2"), ("p", "x3"): P("q + x4")}),
        BaseForm.build(patch, 2, {
            ("x1", "x2"): P("1 + x3*q"), ("x1", "x3"): P("x2 + p"),
            ("x1", "x4"): P("q*p"), ("x2", "x3"): P("2 + x1*x4"),
            ("x2", "x4"): P("x3 - q"), ("x3", "x4"): P("1 + p^2")}))
    assert decompose_coupling(extract_poisson(data), patch).data == data


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


# ----------------------------------------------------------------- kernel

def test_kernel_of_zero_form_is_every_lift():
    data = mk("x1 x2", "q p", {("q", "p"): "1"}, conn={("q", "x1"): "p"})
    kernel = characteristic_kernel(data)
    assert kernel == [data.connection.hor("x1"), data.connection.hor("x2")]


def test_kernel_of_nondegenerate_form_is_empty():
    data = mk("x1 x2", "q p", {("q", "p"): "1"}, F={("x1", "x2"): "1"})
    assert characteristic_kernel(data) == []


def test_kernel_of_rank_two_form_in_three_base_directions():
    data = mk("x1 x2 x3", "q p", {("q", "p"): "1"}, F={("x1", "x2"): "1"})
    (vec,) = characteristic_kernel(data)
    assert vec.coefficient("x3")
    assert not vec.coefficient("x1") and not vec.coefficient("x2")
    Fbar = promote(data.connection, data.horizontal_form)
    assert contract(vec, Fbar).is_zero()


def test_kernel_vectors_annihilate_the_form():
    data = mk("x1 x2 x3 x4", "q p", {("q", "p"): "1"},
              F={("x1", "x2"): "x1", ("x3", "x4"): "0"})
    Fbar = promote(data.connection, data.horizontal_form)
    kernel = characteristic_kernel(data)
    assert len(kernel) == 2
    for vec in kernel:
        assert contract(vec, Fbar).is_zero()


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


# ------------------------------------------------------------- report shape

def test_report_document_key_order():
    report = check_integrability(PURE_MUTATIONS["curvature_identity"])
    doc = report.as_document(pivot_denominators=["p^2"])
    assert list(doc) == ["verdict", "conditions", "pivot_denominators"]
    assert doc["verdict"] == "fail"
    assert doc["pivot_denominators"] == ["p^2"]
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
