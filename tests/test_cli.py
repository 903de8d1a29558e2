"""Command line interface: manifest handling, reports, exit codes."""

import ast
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st
import pytest

from corpus_util import corpus

import couplingdirac
from couplingdirac import (
    BaseForm, DegenerateInputError, FiberedPatch, GeometricData, Multivector,
    RatExpr, decompose_coupling, extract_poisson)
from couplingdirac.cli import Manifest, data_document, dumps, run
from couplingdirac.fibered import Connection

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden" / "cli.json"
README = Path(__file__).parents[1] / "README.md"

MUTATIONS = ("jacobi", "poisson_connection", "curvature_identity",
             "horizontally_closed")


def fixture(name):
    return str(FIXTURES / f"{name}.json")


def run_lines(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out.splitlines(), out.err


# ------------------------------------------------------------------ check

def test_check_flat_manifest_prints_four_pass_lines(capsys):
    code, lines, _ = run_lines(
        capsys, ["check", "--manifest", fixture("flat")])
    assert code == 0
    assert lines == ["jacobi: PASS", "poisson_connection: PASS",
                     "curvature_identity: PASS", "horizontally_closed: PASS"]


def test_check_casimir_manifest_adds_complex_conditions(capsys):
    code, lines, _ = run_lines(
        capsys, ["check", "--manifest", fixture("casimir")])
    assert code == 0
    assert lines[-2:] == ["casimir_complex_deg0: PASS",
                          "casimir_complex_deg1: PASS"]


def test_check_json_report_shape(capsys):
    code, lines, _ = run_lines(
        capsys, ["check", "--manifest", fixture("ymh"), "--report", "json"])
    assert code == 0
    doc = json.loads("\n".join(lines))
    assert list(doc) == ["verdict", "conditions", "pivot_denominators"]
    assert doc["verdict"] == "pass"
    assert doc["pivot_denominators"] == []
    assert [list(c) for c in doc["conditions"]] == [
        ["name", "status", "witnesses"]] * 4


def test_mutated_manifests_exit_1_and_name_their_condition(capsys):
    for name in MUTATIONS:
        code, lines, _ = run_lines(
            capsys, ["check", "--manifest", fixture(f"mut_{name}"),
                     "--report", "json"])
        assert code == 1
        doc = json.loads("\n".join(lines))
        assert doc["verdict"] == "fail"
        failing = [c["name"] for c in doc["conditions"]
                   if c["status"] == "fail"]
        assert failing == [name]


def test_noncasimir_manifest_exits_3(tmp_path, capsys):
    doc = json.loads(Path(fixture("casimir")).read_text())
    doc["casimirs"] = ["q"]
    path = tmp_path / "bad.json"
    path.write_text(dumps(doc))
    message = ("listed function q is not a Casimir; its Hamiltonian field "
               "is d_p")
    code, lines, err = run_lines(capsys, ["check", "--manifest", str(path)])
    assert (code, lines, err) == (3, [], f"error: {message}\n")
    code, lines, err = run_lines(
        capsys, ["check", "--manifest", str(path), "--report", "json"])
    assert (code, lines) == (3, [])
    assert json.loads(err) == {"error": {"code": 3, "message": message}}


# ----------------------------------------------------------------- verify

def test_verify_mutation_names_condition_with_witnesses(capsys):
    code, lines, _ = run_lines(
        capsys, ["verify", "--manifest", fixture("mut_horizontally_closed")])
    assert code == 1
    assert "horizontally_closed: FAIL" in lines
    assert "isotropy: PASS" in lines and "maximality: PASS" in lines
    at = lines.index("horizontally_closed: FAIL")
    assert lines[at + 1].startswith("  (x1,x2,x3):")


def test_verify_fiber_point_appends_jacobi_condition(capsys):
    for point in ("x1=1, x2=-1/2", "x1=1e3, x2=0.5", "x1=1e-4300, x2=0"):
        code, lines, _ = run_lines(
            capsys, ["verify", "--manifest", fixture("flat"),
                     "--fiber-point", point])
        assert code == 0, point
        assert lines[-1] == "fiber_jacobi: PASS"


def test_verify_fiber_point_validation(capsys, monkeypatch):
    # a bad point exits before any closure work
    monkeypatch.setattr(couplingdirac.cli, "build_dirac", None)
    for point in ("x1=1", "x1=1, x2=2, x1=3", "x1, x2=0", "x1=a, x2=0",
                  "x1=1e99999999, x2=0", "x1=1e-99999999, x2=0"):
        code, _, err = run_lines(
            capsys, ["verify", "--manifest", fixture("flat"),
                     "--fiber-point", point])
        assert code == 2
        assert err.startswith("error:")
        if "e99" in point or "e-99" in point:
            assert "bad fiber-point value" in err


def test_verify_fiber_point_on_an_angle_the_bivector_uses_exits_2(
        tmp_path, capsys):
    coords = [("t", "base", True), ("x", "base", False),
              ("q", "fiber", False), ("p", "fiber", False)]
    doc = {"coordinates": [{"name": n, "role": r, "angle": a}
                           for n, r, a in coords],
           "vertical_bivector": [{"indices": ["q", "p"],
                                  "coeff": "2 + cos(t)"}]}
    path = tmp_path / "angle.json"
    path.write_text(json.dumps(doc))
    argv = ["verify", "--manifest", str(path), "--fiber-point", "t=0, x=1"]
    message = "angle coordinate 't' cannot take a value"
    code, _, err = run_lines(capsys, argv)
    assert code == 2 and err == f"error: {message}\n"
    code, _, err = run_lines(capsys, argv + ["--report", "json"])
    assert code == 2
    assert json.loads(err) == {"error": {"code": 2, "message": message}}


def test_verify_evaluates_the_fiber_point_before_any_closure_work(
        tmp_path, capsys, monkeypatch):
    calls = []
    closure = couplingdirac.cli.verify_closure
    monkeypatch.setattr(couplingdirac.cli, "verify_closure",
                        lambda *a: calls.append(a) or closure(*a))
    coords = [("t", "base", True), ("x", "base", False),
              ("q", "fiber", False), ("p", "fiber", False)]
    doc = {"coordinates": [{"name": n, "role": r, "angle": a}
                           for n, r, a in coords],
           "vertical_bivector": [{"indices": ["q", "p"],
                                  "coeff": "2 + cos(t)"}]}
    path = tmp_path / "angle.json"
    path.write_text(json.dumps(doc))
    argv = ["verify", "--manifest", str(path)]
    code, _, err = run_lines(capsys, argv + ["--fiber-point", "t=0, x=1"])
    assert (code, err, calls) == (
        2, "error: angle coordinate 't' cannot take a value\n", [])
    run_lines(capsys, argv)  # without a point the closure runs
    assert len(calls) == 1


# ------------------------------------------------------------------ build

def test_build_emits_generator_sections(capsys):
    code, lines, _ = run_lines(
        capsys, ["build", "--manifest", fixture("ymh"), "--report", "json"])
    assert code == 0
    rows = json.loads("\n".join(lines))["generators"]
    assert [(r["kind"], r["name"]) for r in rows] == [
        ("H", "x1"), ("H", "x2"), ("V", "q"), ("V", "p")]
    assert rows[0]["vector_field"] == "d_x1 + (x2)*d_q"
    assert rows[0]["one_form"] == "(-1*p)*dx:x2"
    assert rows[2]["vector_field"] == "(-1)*d_p"
    assert rows[2]["one_form"] == "(-1*x2)*dx:x1 + dx:q"


def test_build_text_is_one_line_per_generator(capsys):
    code, lines, _ = run_lines(capsys, ["build", "--manifest", fixture("flat")])
    assert code == 0
    assert len(lines) == 4
    assert lines[3] == "V p: vf = d_q ; form = dx:p"


# -------------------------------------------------------------- construct

def test_construct_yang_mills_is_golden(capsys):
    code, lines, _ = run_lines(
        capsys, ["construct", "--manifest", fixture("construct_ymh"),
                 "--construct-kind", "yang-mills"])
    assert code == 0
    assert "\n".join(lines) + "\n" == Path(fixture("ymh")).read_text()


@pytest.mark.parametrize("name,kind", [
    ("construct_ymh", "yang-mills"),
    ("construct_cartan", "cartan"),
    ("construct_chb", "chb"),
])
def test_constructed_manifests_pass_check(tmp_path, capsys, name, kind):
    code, lines, _ = run_lines(
        capsys, ["construct", "--manifest", fixture(name),
                 "--construct-kind", kind])
    assert code == 0
    built = tmp_path / "built.json"
    built.write_text("\n".join(lines) + "\n")
    code, lines, _ = run_lines(capsys, ["check", "--manifest", str(built)])
    assert code == 0
    assert all(line.endswith(": PASS") for line in lines)


def test_construct_requires_its_input_block(capsys):
    code, _, err = run_lines(
        capsys, ["construct", "--manifest", fixture("construct_cartan"),
                 "--construct-kind", "yang-mills"])
    assert code == 2 and "ymh" in err
    code, _, err = run_lines(
        capsys, ["construct", "--manifest", fixture("construct_ymh"),
                 "--construct-kind", "cartan"])
    assert code == 2 and "potential_1form" in err


# -------------------------------------------------------------- decompose

def test_decompose_recovers_the_data(capsys):
    code, lines, _ = run_lines(
        capsys, ["decompose", "--manifest", fixture("decompose")])
    assert code == 0
    doc = json.loads("\n".join(lines))
    assert doc["vertical_bivector"] == [
        {"indices": ["q", "p"], "coeff": "1"}]
    assert doc["connection"] == [
        {"fiber": "q", "base": "x1", "coeff": "x1"}]
    assert doc["horizontal_2form"] == [
        {"bases": ["x1", "x2"], "coeff": "1"}]


def test_decompose_output_pipes_into_check(tmp_path, capsys):
    code, lines, _ = run_lines(
        capsys, ["decompose", "--manifest", fixture("decompose")])
    recovered = tmp_path / "recovered.json"
    recovered.write_text("\n".join(lines) + "\n")
    code, lines, _ = run_lines(capsys, ["check", "--manifest", str(recovered)])
    assert code == 0


def test_decompose_without_base_block_exits_3(tmp_path, capsys):
    doc = json.loads(Path(fixture("decompose")).read_text())
    doc["bivector"] = [{"indices": ["q", "p"], "coeff": "1"}]
    path = tmp_path / "vertical.json"
    path.write_text(dumps(doc))
    code, _, err = run_lines(
        capsys, ["decompose", "--manifest", str(path), "--report", "json"])
    assert code == 3
    assert json.loads(err)["error"]["code"] == 3


def test_decompose_with_recovered_data_that_is_not_polynomial_exits_3(
        tmp_path, capsys):
    doc = json.loads(Path(fixture("decompose")).read_text())
    doc["bivector"] = [{"indices": ["x1", "x2"], "coeff": "x1"},
                       {"indices": ["x1", "q"], "coeff": "1"},
                       {"indices": ["q", "p"], "coeff": "1"}]
    path = tmp_path / "fraction.json"
    path.write_text(dumps(doc))
    message = ("recovered connection coefficient is not polynomial: value "
               "(-1)/(x1) is not expressible without denominators")
    code, lines, err = run_lines(capsys, ["decompose", "--manifest", str(path)])
    assert (code, lines, err) == (3, [], f"error: {message}\n")
    code, _, err = run_lines(
        capsys, ["decompose", "--manifest", str(path), "--report", "json"])
    assert code == 3
    assert json.loads(err) == {"error": {"code": 3, "message": message}}


def test_decompose_needs_a_bivector_block(capsys):
    code, _, err = run_lines(
        capsys, ["decompose", "--manifest", fixture("flat")])
    assert code == 2 and "bivector" in err


def decompose_outputs(doc):
    """(exit code, stdout, stderr) of ``decompose`` on the manifest
    ``doc``, for the text and then the json report."""
    outputs = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bivector.json"
        path.write_text(dumps(doc), encoding="utf-8")
        for report in ("text", "json"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = run(["decompose", "--manifest", str(path),
                            "--report", report])
            outputs.append((code, out.getvalue(), err.getvalue()))
    return outputs


def bivector_document(Pi):
    return Manifest(Pi.patch, None, bivector=Pi).to_document()


# A manifest holds polynomials, so a decompose through the CLI shares no
# denominator (D = 1): on success the recovered F = -M^-1 and M are both
# polynomial with Pf(F)*Pf(M) = 1, so both Pfaffians are constants and no
# pivot is left to report.

def test_decompose_of_the_fixture_leaves_stderr_empty():
    doc = json.loads(Path(fixture("decompose")).read_text())
    assert [(code, err) for code, _, err in decompose_outputs(doc)] == [
        (0, ""), (0, "")]


def test_decompose_of_the_corpus_bivectors_reports_no_pivot():
    # of the 23 corpus sets with an invertible 2-form, 3 extract to a
    # polynomial bivector, which decomposes back to the set's manifest;
    # the other 20 carry a fraction over Pf(F), which no manifest holds,
    # so the only line on stderr is the parse error
    polynomial = fractional = 0
    for name, data in corpus():
        try:
            Pi = extract_poisson(data)
        except DegenerateInputError:
            continue
        outputs = decompose_outputs(bivector_document(Pi))
        if any(isinstance(c, RatExpr) for _, c in Pi.items()):
            fractional += 1
            (code, out, err), (json_code, _, json_err) = outputs
            assert (code, out, json_code) == (2, "", 2), name
            assert err.startswith("error: ") and err.count("\n") == 1, name
            assert list(json.loads(json_err)) == ["error"], name
        else:
            polynomial += 1
            assert outputs == [(0, dumps(data_document(data)), "")] * 2, name
    assert (polynomial, fractional) == (3, 20)


@st.composite
def unimodular_data(draw):
    """Data whose 2-form has a nonzero constant Pfaffian on 2 or 4 base
    coordinates (F_12 and F_34 constant, F_23 = F_24 = 0), with q or an
    angle t as the first fiber coordinate: their extracted bivector is
    polynomial."""
    nb = draw(st.sampled_from((2, 4)))
    angle = draw(st.booleans())
    patch = FiberedPatch.build([f"x{i}" for i in range(1, nb + 1)],
                               ["t" if angle else "q", "p"], angles=("t",))
    atoms = [patch.coord(c.name) for c in patch.coords if not c.angle]
    if angle:
        atoms += [patch.parse("cos(t)"), patch.parse("sin(t)")]

    def small():
        out = patch.zero()
        for _ in range(draw(st.integers(0, 2))):
            out = out + draw(st.sampled_from((1, -1, 2))) * draw(
                st.sampled_from([patch.one()] + atoms))
        return out

    unit = st.sampled_from((1, -1, 2))
    form = {("x1", "x2"): patch.rational(draw(unit))}
    if nb == 4:
        form.update({("x3", "x4"): patch.rational(draw(unit)),
                     ("x1", "x3"): small(), ("x1", "x4"): small()})
    fiber = patch.fiber_names
    return GeometricData(
        patch, Multivector.build(patch, 2, {tuple(fiber): small()}),
        Connection(patch, {(u, a): small() for u in fiber
                           for a in patch.base_names}),
        BaseForm.build(patch, 2, form))


@settings(database=None, deadline=None, max_examples=40)
@given(unimodular_data(), st.booleans())
def test_decompose_through_the_cli_reports_no_pivot(data, bump):
    Pi = extract_poisson(data)
    patch = data.patch
    if bump:  # perturb the base-base block, which may then fail to invert
        comps = dict(Pi.comps)
        comps[(0, 1)] = comps[(0, 1)] + patch.coord("x2")
        Pi = Multivector(patch, 2, comps)
    assert not any(isinstance(c, RatExpr) for _, c in Pi.items())
    outputs = decompose_outputs(bivector_document(Pi))
    for code, out, err in outputs:
        assert code in (0, 3)
        if code == 0:
            assert err == ""
            assert decompose_coupling(Pi, patch).pivot_denominators == ()
    if not bump:
        assert outputs == [(0, dumps(data_document(data)), "")] * 2


# ----------------------------------------------------- manifest validation

def bad_documents():
    good = json.loads(Path(fixture("flat")).read_text())

    def variant(**changes):
        doc = json.loads(json.dumps(good))
        doc.update(changes)
        return doc

    yield variant(surprise=[])
    yield variant(vertical_bivector=[
        {"indices": ["q", "q"], "coeff": "1"}])
    yield variant(vertical_bivector=[
        {"indices": ["q", "p"], "coeff": "1"},
        {"indices": ["p", "q"], "coeff": "1"}])
    yield variant(vertical_bivector=[
        {"indices": ["x1", "p"], "coeff": "1"}])
    yield variant(vertical_bivector=[
        {"indices": ["q", "p"], "coeff": "1 +"}])
    yield variant(connection=[
        {"fiber": "q", "base": "x1", "coeff": "1"},
        {"fiber": "q", "base": "x1", "coeff": "2"}])
    yield variant(coordinates=[{"name": "x1", "role": "base"}])
    yield variant(coordinates=good["coordinates"]
                  + [{"name": "x1", "role": "fiber", "angle": False}])
    yield {"coordinates": "nope"}
    yield []


ROW_BLOCKS = {
    "connection": ({"fiber": "q", "base": "x1", "coeff": "1"}, "fiber", "x1",
                   "connection entries name a fiber and a base coordinate",
                   "connection expects fiber coordinates, got 'x1'",
                   "duplicate connection row ['q', 'x1']"),
    "potential_1form": ({"base": "x1", "coeff": "q"}, "base", "q",
                        "potential_1form entries name a base coordinate",
                        "potential_1form expects base coordinates, got 'q'",
                        "duplicate potential_1form row ['x1']"),
}


@pytest.mark.parametrize("field", sorted(ROW_BLOCKS))
def test_named_row_blocks_exit_2_naming_their_field(tmp_path, capsys, field):
    row, key, wrong, bad, role, twice = ROW_BLOCKS[field]
    good = json.loads(Path(fixture("construct_cartan")).read_text())
    cases = [([dict(row, **{key: 1})], f"{bad}, got "),
             ([{k: v for k, v in row.items() if k != key}],
              f"every {field} entry needs a {key!r} key"),
             ([dict(row, **{key: wrong})], role),
             ([row, dict(row, coeff="2")], twice),
             (row, f"{field!r} must be an array")]
    for block, message in cases:
        path = tmp_path / "bad.json"
        path.write_text(dumps(dict(good, **{field: block})))
        code, out, err = run_lines(
            capsys, ["check", "--manifest", str(path), "--report", "json"])
        assert (code, out) == (2, []), block
        assert json.loads(err)["error"]["message"].startswith(message), block


def test_null_named_row_blocks_read_as_absent():
    good = json.loads(Path(fixture("construct_cartan")).read_text())
    absent = Manifest.from_document(
        {k: v for k, v in good.items()
         if k not in ("connection", "potential_1form")})
    null = Manifest.from_document(
        dict(good, connection=None, potential_1form=None))
    empty = Manifest.from_document(dict(good, connection=[]))
    assert null.data == absent.data == empty.data
    assert null.data.connection == Connection.flat(null.patch)
    assert null.potential is None and absent.potential is None


def test_multi_factor_ymh_block_round_trips_and_constructs(tmp_path, capsys):
    coords = [{"name": n, "role": r, "angle": False}
              for n, r in (("x1", "base"), ("x2", "base"), ("q1", "fiber"),
                           ("p1", "fiber"), ("q2", "fiber"), ("p2", "fiber"))]
    doc = {"coordinates": coords,
           "vertical_bivector": [{"indices": ["q1", "p1"], "coeff": "1"},
                                 {"indices": ["q2", "p2"], "coeff": "1"}],
           "connection": [], "horizontal_2form": [],
           "ymh": {"A": [["x2", "0"], ["0", "x1^2"]], "J": ["p1", "p2"]}}
    man = Manifest.from_document(doc)
    assert [[str(e) for e in row] for row in man.ymh[0]] == [
        ["x2", "0"], ["0", "x1^2"]]
    assert dumps(man.to_document()) == dumps(doc)
    path = tmp_path / "ymh2.json"
    path.write_text(dumps(doc))
    code, lines, _ = run_lines(
        capsys, ["construct", "--manifest", str(path),
                 "--construct-kind", "yang-mills"])
    assert code == 0
    built = json.loads("\n".join(lines))
    assert built["connection"] == [
        {"fiber": "q1", "base": "x1", "coeff": "-1*x2"},
        {"fiber": "q2", "base": "x2", "coeff": "-1*x1^2"}]
    assert built["horizontal_2form"] == [
        {"bases": ["x1", "x2"], "coeff": "2*x1*p2 - p1"}]
    path.write_text("\n".join(lines) + "\n")
    code, lines, _ = run_lines(capsys, ["check", "--manifest", str(path)])
    assert code == 0
    assert all(line.endswith(": PASS") for line in lines)


def test_one_factor_ymh_block_round_trips_in_the_form_it_was_read_in():
    raw = json.loads(Path(fixture("construct_ymh")).read_text())
    row, momentum = raw["ymh"]["A"], raw["ymh"]["J"]
    for A in (row, [row]):
        for J in (momentum, [momentum]):
            doc = dict(raw, ymh={"A": A, "J": J})
            man = Manifest.from_document(doc)
            assert [str(e) for e in man.ymh[0][0]] == row
            assert [str(j) for j in man.ymh[1]] == [momentum]
            assert dumps(man.to_document()) == dumps(doc), (A, J)
    # built without a read form, one momentum is written in the single form
    man = Manifest.from_document(raw)
    man.ymh_form = None
    assert dumps(man.to_document()) == dumps(raw)


def test_malformed_manifests_exit_2(tmp_path, capsys):
    for i, doc in enumerate(bad_documents()):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_lines(capsys, ["check", "--manifest", str(path)])
        assert code == 2, f"variant {i}: {err}"
        assert err.startswith("error:")


def test_unreadable_or_invalid_files_exit_2(tmp_path, capsys):
    code, _, err = run_lines(
        capsys, ["check", "--manifest", str(tmp_path / "missing.json"),
                 "--report", "json"])
    assert code == 2
    assert json.loads(err)["error"]["code"] == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, _, _ = run_lines(capsys, ["check", "--manifest", str(broken)])
    assert code == 2


def test_hostile_manifest_files_exit_2(tmp_path, capsys):
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"coordinates": "\xff"}')
    too_deep = tmp_path / "deep.json"
    too_deep.write_text("[" * 100000 + "]" * 100000)
    for path in (not_utf8, too_deep):
        code, out, err = run_lines(
            capsys, ["check", "--manifest", str(path), "--report", "json"])
        assert code == 2 and out == [], path.name
        error = json.loads(err)["error"]
        assert error["code"] == 2
        assert 0 < len(error["message"]) < 200, path.name
        code, out, err = run_lines(
            capsys, ["check", "--manifest", str(path), "--report", "text"])
        assert code == 2 and out == [], path.name
        assert err.startswith("error:") and len(err) < 200, path.name


def test_integer_literal_past_the_string_limit_exits_2(tmp_path, capsys):
    text = Path(fixture("flat")).read_text()
    path = tmp_path / "long.json"
    path.write_text(text.replace('"angle": false', '"angle": ' + "1" * 5000, 1))
    message = ("manifest JSON has an integer literal with more digits than "
               "the interpreter's integer-string limit")
    for report in ("json", "text"):
        code, out, err = run_lines(
            capsys, ["check", "--manifest", str(path), "--report", report])
        assert (code, out) == (2, []), report
        if report == "json":
            assert json.loads(err) == {"error": {"code": 2, "message": message}}
        else:
            assert err == f"error: {message}\n"
    # a syntax error keeps the decoder's own message
    path.write_text(text[:-3])
    with pytest.raises(json.JSONDecodeError) as decoded:
        json.loads(text[:-3])
    code, out, err = run_lines(capsys, ["check", "--manifest", str(path)])
    assert (code, out, err) == (2, [], f"error: {decoded.value}\n")


def test_deeply_nested_coefficient_exits_2(tmp_path, capsys):
    doc = json.loads(Path(fixture("flat")).read_text())
    doc["vertical_bivector"][0]["coeff"] = "(" * 5000 + "q" + ")" * 5000
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_lines(
        capsys, ["check", "--manifest", str(path), "--report", "json"])
    assert code == 2
    assert out == []
    error = json.loads(err)["error"]
    assert error["code"] == 2
    assert "nested deeper than" in error["message"]
    assert "(at position 100)" in error["message"]


def test_error_messages_quote_a_bounded_part_of_the_input(tmp_path, capsys):
    flat = json.loads(Path(fixture("flat")).read_text())
    deep = json.loads(json.dumps(flat))
    deep["vertical_bivector"][0]["coeff"] = "(" * 5000 + "q" + ")" * 5000
    wide = json.loads(json.dumps(flat))
    wide["vertical_bivector"][0]["coeff"] = [0] * 5000
    bad_row = json.loads(json.dumps(flat))
    bad_row["coordinates"][0]["angle"] = "x" * 5000
    for name, doc in (("deep", deep), ("wide", wide), ("row", bad_row)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_lines(
            capsys, ["check", "--manifest", str(path), "--report", "json"])
        assert code == 2 and out == [], name
        assert len(err.encode()) < 500, name
        message = json.loads(err)["error"]["message"]
        if name == "deep":
            assert message.startswith("bad vertical_bivector expression '((")
            assert message.endswith(
                "...: parentheses nested deeper than 100 (at position 100)")


def test_expression_and_patch_messages_quote_a_bounded_part_of_the_input(
        tmp_path, capsys):
    flat = json.loads(Path(fixture("flat")).read_text())
    long = "z" * 5000

    def coeff(text):
        return lambda doc: doc["vertical_bivector"][0].update(coeff=text)

    def rename(*names):
        return lambda doc: doc["coordinates"].extend(
            dict(doc["coordinates"][0], name=n) for n in names)

    at = " (at position 2)"
    cases = (("name", coeff("q*" + long), "unknown coordinate 'zzz", at),
             ("digits", coeff("q*" + "1" * 5000), "number '111", at),
             ("token", coeff("q " + "1" * 3000), "unexpected '111", at),
             ("pair", lambda doc: doc["vertical_bivector"][0].update(
                 indices=[long, "q"]), "unknown coordinate 'zzz", ""),
             ("bad_name", rename("1" + long), "bad coordinate name '1zz", ""),
             ("twice", rename(long, long), "duplicate coordinate names", ""))
    for name, mutate, phrase, suffix in cases:
        doc = json.loads(json.dumps(flat))
        mutate(doc)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_lines(
            capsys, ["check", "--manifest", str(path), "--report", "json"])
        assert code == 2 and out == [], name
        assert len(err.encode()) < 300, name
        message = json.loads(err)["error"]["message"]
        assert phrase in message and message.endswith(suffix), name


def test_cli_imports_no_private_names():
    tree = ast.parse(Path(couplingdirac.cli.__file__).read_text())
    private = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").startswith("couplingdirac"))
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_numbers_too_long_to_print_exit_2_with_empty_stdout(tmp_path, capsys):
    flat = json.loads(Path(fixture("flat")).read_text())
    row = {"fiber": "q", "base": "x1", "coeff": "2^20000*q*p*x2"}
    connection = dict(flat, connection=[row])
    form = dict(flat, horizontal_2form=[
        {"bases": ["x1", "x2"], "coeff": "2^20000 + q"}])
    message = ("number too long to print: more decimal digits than the "
               "interpreter's integer-string limit")
    cases = [(connection, cmd) for cmd in ("check", "verify", "build")]
    cases.append((form, "build"))
    for doc, cmd in cases:
        path = tmp_path / "huge.json"
        path.write_text(dumps(doc))
        for report in ("json", "text"):
            argv = [cmd, "--manifest", str(path), "--report", report]
            code, out, err = run_lines(capsys, argv)
            assert (code, out) == (2, []), argv
            if report == "json":
                assert json.loads(err) == {
                    "error": {"code": 2, "message": message}}, argv
            else:
                assert err == f"error: {message}\n", argv


def test_exponents_at_the_limit_exit_2_with_empty_stdout(tmp_path, capsys):
    flat = json.loads(Path(fixture("flat")).read_text())
    top = "x1^2147483647*q"
    parsed = dict(flat, connection=[
        {"fiber": "q", "base": "x1", "coeff": "x1^2147483648"}])
    product = dict(flat, connection=[
        {"fiber": "q", "base": "x1", "coeff": top},
        {"fiber": "q", "base": "x2", "coeff": top}])
    parse_error = ("bad connection expression 'x1^2147483648': the exponent "
                   "of 'x1' reaches 2^31: exponents must stay below it (at "
                   "position 0)")
    product_error = ("an exponent of a product reaches 2^31: exponents must "
                     "stay below it")
    # trig frequencies stay below 2^30, parsed or formed by a product
    angle = flat["coordinates"] + [{"name": "t", "role": "base", "angle": True}]
    frequencies = [
        (dict(flat, coordinates=angle, connection=[
            {"fiber": "q", "base": "x1", "coeff": coeff}]),
         f"bad connection expression {coeff!r}: {reason}")
        for coeff, reason in (
            ("sin(1073741824*t)", "the frequency of 't' reaches 2^30: "
             "frequencies must stay below it (at position 0)"),
            ("sin(536870912*t)^2", "a frequency of a product reaches 2^30: "
             "frequencies must stay below it"))]
    cases = [(parsed, cmd, parse_error) for cmd in ("check", "verify", "build")]
    cases += [(product, cmd, product_error) for cmd in ("check", "verify")]
    cases += [(doc, cmd, message) for doc, message in frequencies
              for cmd in ("check", "verify", "build")]
    for doc, cmd, message in cases:
        path = tmp_path / "limit.json"
        path.write_text(dumps(doc))
        for report in ("json", "text"):
            argv = [cmd, "--manifest", str(path), "--report", report]
            code, out, err = run_lines(capsys, argv)
            assert (code, out) == (2, []), argv
            if report == "json":
                assert json.loads(err) == {
                    "error": {"code": 2, "message": message}}, argv
            else:
                assert err == f"error: {message}\n", argv
    # and through the interpreter: no traceback
    src = str(Path(couplingdirac.__file__).parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    path.write_text(dumps(parsed))
    proc = subprocess.run(
        [sys.executable, "-m", "couplingdirac", "check", "--manifest",
         str(path)], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": pythonpath})
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: {parse_error}\n"


# ------------------------------------------------------------- round trip

def test_every_shipped_manifest_round_trips_byte_identically():
    for path in sorted(FIXTURES.glob("*.json")):
        raw = path.read_text(encoding="utf-8")
        again = dumps(Manifest.from_document(json.loads(raw)).to_document())
        assert again == raw, path.name


# text with the characters JSON must escape: quotes, backslashes, control
# characters, non-ASCII and lone surrogates
JSON_TEXT = st.text(st.one_of(
    st.characters(), st.characters(categories=["Cs"]),
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028\xe9\U0001f600')))
JSON_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.integers(-10 ** 40, 10 ** 40) | JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(JSON_TEXT, inner, max_size=4),
    max_leaves=20)


@settings(database=None, deadline=None)
@given(JSON_DOCS)
@example("\xe9\ud800\x00")
@example({"\u2028": ["\"\\", -10 ** 40, True, None, {}, []]})
def test_dumps_is_json_dumps_with_an_indent_of_two(doc):
    assert dumps(doc) == json.dumps(doc, indent=2) + "\n"


def test_dumps_rejects_keys_and_values_outside_its_subset():
    for doc in ({1: "a"}, {"a": 1.5}, [b"x"]):
        with pytest.raises(TypeError):
            dumps(doc)


def test_module_entry_point_runs():
    # the child imports the same package copy as this process
    src = str(Path(couplingdirac.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "couplingdirac", "check",
         "--manifest", fixture("flat")],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "jacobi: PASS"


def test_readme_python_blocks_run_in_order():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert len(blocks) == 2
    ns = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), ns)
    assert ns["check_integrability"](ns["data"]).passed
    assert ns["verify_closure"](ns["build_dirac"](ns["data"])).passed
    assert ns["check_integrability"](ns["yang_mills_data"](ns["setup"])).passed
    assert ns["fat_check"](ns["setup"]).determinant == ns["patch"].parse("p^2")


# ----------------------------------------------------------------- golden

def golden_cases():
    """``(fixture file, subcommand and options)`` for every golden run."""
    cases = [(path.name, [cmd, "--report", report])
             for path in sorted(FIXTURES.glob("*.json"))
             for cmd in ("check", "verify", "build")
             for report in ("json", "text")]
    cases += [("decompose.json", ["decompose", "--report", report])
              for report in ("json", "text")]
    cases += [(f"construct_{name}.json",
               ["construct", "--construct-kind", kind])
              for name, kind in (("cartan", "cartan"), ("chb", "chb"),
                                 ("ymh", "yang-mills"))]
    return cases


def replay(name, args):
    """Run one case in-process; its golden entry."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run([args[0], "--manifest", str(FIXTURES / name), *args[1:]])
    return {"fixture": name, "args": args, "exit": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_cli_outputs_match_golden_file():
    """Exit code, stdout and stderr of every case in ``golden_cases``,
    byte for byte, against ``tests/golden/cli.json``.

    The file pins the answers, not the code: it changes only when an
    answer is meant to change.  Regenerate it with

        PYTHONPATH=src python tests/test_cli.py

    and review the diff of every entry that moved.
    """
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [(g["fixture"], g["args"]) for g in golden] == golden_cases()
    for entry in golden:
        assert replay(entry["fixture"], entry["args"]) == entry


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(dumps([replay(name, args)
                             for name, args in golden_cases()]),
                      encoding="utf-8")
