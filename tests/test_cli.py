"""Command line interface: manifest handling, reports, exit codes."""

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import couplingdirac
from couplingdirac.cli import Manifest, dumps, run

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden" / "cli.json"

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
    code, _, err = run_lines(
        capsys, ["check", "--manifest", str(path), "--report", "json"])
    assert code == 3
    assert json.loads(err)["error"]["code"] == 3


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
    code, lines, _ = run_lines(
        capsys, ["verify", "--manifest", fixture("flat"),
                 "--fiber-point", "x1=1, x2=-1/2"])
    assert code == 0
    assert lines[-1] == "fiber_jacobi: PASS"


def test_verify_fiber_point_validation(capsys):
    for point in ("x1=1", "x1=1, x2=2, x1=3", "x1, x2=0", "x1=a, x2=0"):
        code, _, err = run_lines(
            capsys, ["verify", "--manifest", fixture("flat"),
                     "--fiber-point", point])
        assert code == 2
        assert err.startswith("error:")


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


def test_decompose_needs_a_bivector_block(capsys):
    code, _, err = run_lines(
        capsys, ["decompose", "--manifest", fixture("flat")])
    assert code == 2 and "bivector" in err


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


# ------------------------------------------------------------- round trip

def test_every_shipped_manifest_round_trips_byte_identically():
    for path in sorted(FIXTURES.glob("*.json")):
        raw = path.read_text(encoding="utf-8")
        again = dumps(Manifest.from_document(json.loads(raw)).to_document())
        assert again == raw, path.name


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
