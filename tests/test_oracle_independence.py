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
- the ring product ``ScalarExpr.__mul__``: ``tuple_ring.mul``
  (``test_packed_keys``) and float evaluation of products
  (``test_symexpr``);
- ``ScalarExpr.differentiate``: ``tuple_ring.differentiate``
  (``test_packed_keys``);
- ``Connection.hor``: ``horizontal_derivative``, written from the
  connection table (``test_hor_matches_the_table_derivative`` and
  ``test_d_gamma_matches_horizontal_derivative`` in ``test_fibered``),
  and the general formula ``curvature`` there for the lifts' brackets;
- ``tensorcalc.contract``: ``pair``'s own sum over shared components
  (``test_pair_equals_full_contraction``) and iterated contraction by
  basis fields (``test_contract_agrees_with_iterated``) in
  ``test_tensorcalc``, and, for the span oracle's pairings,
  ``brute_force_closure`` in ``test_coupling``, which pairs every
  bracket with every generator through ``pairing_plus``;
- ``tensorcalc.lie_bracket``, in ``coordinate_curvature`` only:
  ``full_lie_bracket`` in
  ``test_calculus_matches_differentiation_along_every_coordinate``
  (``test_tensorcalc``);
- ``tensorcalc.sharp``, in the curvature identity (through
  ``_hamiltonian``, which ``test_hamiltonian_is_sharp_of_the_full_gradient``
  checks against ``sharp`` of the full gradient) and in the vertical
  generators: ``test_sharp_pairing_identity`` and
  ``test_sharp_convention`` (``test_tensorcalc``);
- ``tensorcalc.d_scalar``, in the twisted differential: ``full_d_scalar``
  in ``test_calculus_matches_differentiation_along_every_coordinate``
  (``test_tensorcalc``).

The span oracle's own kernels are not shared: ``courant_bracket``, which
reads each section's first partials (``CourantSection.partials``,
``tensorcalc._first_partials``) and calls none of ``lie_bracket``,
``d_scalar`` or ``exterior_derivative``, is checked against the Cartan
formula built from those three (``cartan_bracket`` in
``test_courant_bracket_matches_cartan_formula`` and its fraction-field
case, ``test_tensorcalc``), and the stored partials against
differentiation along every coordinate in the same test.

Witness by witness, ``test_coupling`` also checks that every closure
witness is the matching check witness times a fixed scale per condition
(``assert_witnesses_agree``, on the corpus and on generated data).
"""

import pytest

from corpus_util import corpus, mutation_fixtures

from couplingdirac import coupling, tensorcalc

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
    (span_reports, ("check_integrability", "d_gamma", "coordinate_curvature"),
     coupling.check_integrability),
    (data_reports, ("build_dirac", "courant_bracket", "_pairing_row"),
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
    forbid(monkeypatch, "lie_bracket", "d_scalar", "exterior_derivative",
           module=tensorcalc)
    assert span_reports() == expected
