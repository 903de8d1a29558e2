"""The two integrability oracles never call each other.

``check_integrability`` decides the four conditions on the data;
``build_dirac`` with ``verify_isotropy`` and ``verify_closure`` decides
them on the Dirac span.  Each runs over the acceptance corpus while the
other oracle's entry points are patched to raise, and must give the
reports it gives unpatched.  ``coupling`` binds these names at import,
so they are patched there.

Both oracles still run on shared kernels, and a fault in one of them
could make the two agree on a wrong verdict.  Each shared kernel is
checked against a reference that does not run it:

- ``symexpr._add_terms``, the one term-table merge: the merge of the
  tuple-keyed ring ``tuple_ring`` (``test_packed_keys``) and float
  evaluation of sums by ``float_oracle.evaluate`` (``test_symexpr``);
- the ring product ``ScalarExpr.__mul__``, whose term-product loop
  ``_sum_products`` shares: ``tuple_ring.mul`` (``test_packed_keys``) and
  float evaluation of products (``test_symexpr``);
- ``symexpr._sum_products``, the fused sum of products from which
  ``courant_bracket``, the pairing rows and all four of the data oracle's
  tables are built, fed the triples of ``tensorcalc._products``: sums of
  ``tuple_ring.mul`` products on polynomial and angle patches, with
  cancelling keys and the exponent and frequency guards, and summed
  ``x * y`` for fraction-field quotients (the ``_sum_products`` tests in
  ``test_packed_keys``); end to end, the Cartan formula built from
  ``lie_bracket`` (which is ``schouten`` in degree one), ``d_scalar`` and
  ``exterior_derivative`` (``cartan_bracket`` in
  ``test_courant_bracket_matches_cartan_formula`` and its fraction-field
  case, ``test_tensorcalc``) for the span oracle, and the generic kernels
  ``schouten``, ``lie_derivative``, ``coordinate_curvature`` less the
  Hamiltonian field ``sharp(V, d_scalar(patch, f))``, and
  ``horizontal_derivative`` for the data oracle
  (``test_check_integrability_matches_the_generic_kernels`` in
  ``test_fibered``);
- ``ScalarExpr._gradient``, the one derivative walk, which
  ``differentiate`` runs along one coordinate and ``d_scalar`` along all:
  ``tuple_ring.differentiate`` along every coordinate
  (``test_gradient_matches_the_tuple_derivatives`` and
  ``test_packed_ring_matches_the_tuple_reference`` in
  ``test_packed_keys``);
- ``Connection.hor``: ``horizontal_derivative``, written from the
  connection table (``test_hor_matches_the_table_derivative`` and
  ``test_d_gamma_matches_horizontal_derivative`` in ``test_fibered``),
  and the general formula ``curvature`` there for the lifts' brackets;
- ``tensorcalc._first_partials``, one ``_gradient`` per coefficient,
  masked to what is read, which the data oracle applies to the bivector,
  each lift and the 2-form, and the span oracle to each generator that
  enters a formed bracket (``_section_partials``): the Cartan formula
  above, and the walk counts of
  ``test_check_differentiates_each_coefficient_once`` and
  ``test_closure_differentiates_each_generator_once`` (``test_coupling``).

Neither oracle reaches the generic derivative kernels any more:
``check_integrability`` reads the first partials it takes once per call
and calls none of ``schouten``, ``lie_derivative``, ``lie_bracket``,
``coordinate_curvature``, ``d_scalar`` or ``sharp``, and
``courant_bracket`` calls none of ``lie_bracket``, ``schouten``,
``d_scalar`` or ``exterior_derivative``.  Those stay as the public single-call API and
are the references above.  The span oracle's own kernels are not shared:
``tensorcalc.contract`` and ``tensorcalc.sharp`` build its generators
(``test_contract_agrees_with_iterated``, ``test_sharp_pairing_identity``
and ``test_sharp_convention`` in ``test_tensorcalc``), and its pairings are
checked by ``brute_force_closure`` in ``test_coupling``, which pairs every
bracket with every generator through ``pairing_plus``.  The closure
schedule's skip and its read sets are span-oracle-only too:
``tensorcalc._reach_masks``, ``_bracket_reach``, ``_read_along``,
``_section_partials`` and the bracket kernel ``_bracket`` are built from
the span's sections alone, never from ``GeometricData``, and the data
oracle calls none of them.  Their references are the partials and the
bracket itself: the key-read masks equal the masks read off the first
partials (``test_reach_masks_match_the_partials``), the reach contains the
slots of every bracket formed (``test_bracket_reach_bounds_the_bracket``
on random sections and ``test_bracket_reach_bounds_every_generator_bracket``
on every generator pair of the corpus and generated spans), the kernel
from the masked partials equals ``courant_bracket`` on the read slots
(``test_read_restricted_bracket_matches_courant_bracket``), all in
``test_tensorcalc``, and every pair the schedule skips, bracketed
directly, has an empty row
(``test_isotropic_closure_brackets_one_pair_per_triple`` in
``test_coupling``).

Witness by witness, ``test_coupling`` also checks that every closure
witness is the matching check witness times a fixed scale per condition
(``assert_witnesses_agree``, on the corpus and on generated data).
"""

import pytest

from corpus_util import corpus, mutation_fixtures

from couplingdirac import coupling, fibered, tensorcalc

DATA = [data for _, data in corpus()] + list(mutation_fixtures().values())


def span_reports():
    out = []
    for data in DATA:
        presentation = coupling.build_dirac(data)
        out.append([coupling.verify_isotropy(presentation).as_document(),
                    coupling.verify_closure(presentation).as_document()])
    return out


def data_reports():
    return [[coupling.check_integrability(data).as_document()]
            for data in DATA]


def span_oracle(data):
    return coupling.verify_closure(coupling.build_dirac(data))


def forbid(monkeypatch, *names, module=coupling):
    for name in names:
        def refuse(*args, name=name, **kwargs):
            raise AssertionError(f"the other oracle called {name}")
        monkeypatch.setattr(module, name, refuse)


@pytest.mark.parametrize("run,names,other", [
    (span_reports, ("check_integrability", "d_gamma", "_d_gamma_table"),
     coupling.check_integrability),
    (data_reports, ("build_dirac", "_bracket", "_pairing_row",
                    "_bracket_reach", "_reach_masks", "_read_along",
                    "_section_partials"),
     span_oracle),
], ids=["span_oracle", "data_oracle"])
def test_each_oracle_runs_without_the_other(monkeypatch, run, names, other):
    expected = run()
    verdicts = {doc["verdict"] for reports in expected for doc in reports}
    assert verdicts == {"pass", "fail"}
    forbid(monkeypatch, *names)
    with pytest.raises(AssertionError, match="the other oracle called"):
        other(DATA[0])  # the patches are where the other oracle looks
    assert run() == expected


def test_courant_bracket_shares_no_derivative_kernel(monkeypatch):
    expected = span_reports()
    forbid(monkeypatch, "lie_bracket", "schouten", "d_scalar",
           "exterior_derivative", module=tensorcalc)
    assert span_reports() == expected


def test_check_integrability_reaches_no_generic_kernel(monkeypatch):
    expected = data_reports()
    forbid(monkeypatch, "coordinate_curvature", "lie_bracket", module=fibered)
    forbid(monkeypatch, "lie_bracket", "schouten", "lie_derivative",
           "d_scalar", "pair", "sharp", "contract", module=tensorcalc)
    forbid(monkeypatch, "d_scalar", "sharp", "contract")
    assert data_reports() == expected
