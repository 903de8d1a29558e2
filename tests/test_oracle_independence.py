"""The two integrability oracles never call each other.

``check_integrability`` decides the four conditions on the data;
``build_dirac`` with ``verify_isotropy`` and ``verify_closure`` decides
them on the Dirac span.  Each runs over the acceptance corpus while the
other oracle's entry points are patched to raise, and must give the
reports it gives unpatched.  ``coupling`` binds these names at import,
so they are patched there.
"""

import pytest

from corpus_util import corpus, mutation_fixtures

from couplingdirac import coupling

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


def forbid(monkeypatch, *names):
    for name in names:
        def refuse(*args, name=name, **kwargs):
            raise AssertionError(f"the other oracle called {name}")
        monkeypatch.setattr(coupling, name, refuse)


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
