"""Manifest ingestion, subcommand dispatch, and canonical report emission.

A manifest is a single UTF-8 JSON object.  Data manifests carry
``coordinates`` (array of ``{name, role, angle}``) and the coefficient
tables ``vertical_bivector`` (``{indices: [u, v], coeff}``),
``connection`` (``{fiber, base, coeff}``), and ``horizontal_2form``
(``{bases: [a, b], coeff}``); coefficients are expression strings in
the package grammar, printed canonically on output.  Optional blocks:
``casimirs`` (checked alongside integrability), ``potential_1form``,
``ymh``, and ``angles_averaged`` (construction inputs), and
``bivector`` (the input of ``decompose``, indexed over all
coordinates).

Exit codes: 0 every check passed, 1 a mathematical check failed,
2 manifest parse/validation error (including a file that is not UTF-8,
JSON nested past the decoder's recursion limit, a JSON integer literal
with more digits than the interpreter's integer-string limit, a bad
``--fiber-point``, and an output number with more decimal digits than
the interpreter's integer-string limit, such as the coefficient of
``2^20000*q``, an exponent of a coordinate that reaches 2^31, parsed
as in ``x1^2147483648`` or formed by a product, and a trig frequency
that reaches 2^30, parsed as in ``sin(1073741824*t)`` or formed by a
product as in ``sin(536870912*t)^2``; then stdout stays empty), 3
degenerate input (singular base block, non-Casimir coefficient,
recovered data that is not polynomial).  Errors go to stderr, as
``{"error": {"code", "message"}}`` with ``--report json``.  JSON output
is ``json.dumps(doc, indent=2)``.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _escape
from pathlib import Path

from .constructions import (
    AbelianYMHSetup,
    CartanSetup,
    cartan_data,
    chb_data,
    yang_mills_data,
)
from .coupling import (
    CheckReport,
    ConditionReport,
    GeometricData,
    build_dirac,
    check_casimir_complex,
    check_integrability,
    decompose_coupling,
    restrict_to_fiber,
    tensor_witnesses,
    verify_closure,
    verify_isotropy,
)
from .errors import (
    DegenerateInputError,
    DegreeError,
    ExpressionError,
    MalformedDataError,
    ManifestError,
    PatchError,
    quote,
)
from .fibered import BaseForm, Connection, FiberedPatch
from .symexpr import Coordinate
from .tensorcalc import Multivector, schouten

_DATA_KEYS = ("vertical_bivector", "connection", "horizontal_2form")
# the interpreter's default integer-string limit, which the parser
# already applies to long literals: a larger decimal exponent in a
# --fiber-point value would make Fraction expand 10**exponent
_MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)$")
_KNOWN_KEYS = ("coordinates",) + _DATA_KEYS + (
    "bivector", "casimirs", "potential_1form", "ymh", "angles_averaged")


def dumps(doc) -> str:
    """The one JSON serialization used everywhere (diff-stable output):
    exactly ``json.dumps(doc, indent=2) + "\\n"``, written by ``_json``."""
    return _json(doc, "\n") + "\n"


def _json(value, newline: str) -> str:
    """``value`` as ``json.dumps(value, indent=2)`` writes it, with
    ``newline`` (a newline and the indentation) before each line break.

    One pass, since with an indent CPython's ``json`` falls back to its
    pure-Python encoder.  It takes dicts with ``str`` keys, lists, tuples,
    strings, ints, booleans and ``None``; anything else is a ``TypeError``.
    """
    if isinstance(value, str):
        return _escape(value)
    inner = newline + "  "
    if isinstance(value, dict):
        body = [_escape(key) + ": " + (_escape(item) if type(item) is str
                                       else _json(item, inner))
                for key, item in value.items()]
        return f"{{{inner}{(',' + inner).join(body)}{newline}}}" if body \
            else "{}"
    if isinstance(value, (list, tuple)):
        body = [_escape(item) if type(item) is str else _json(item, inner)
                for item in value]
        return f"[{inner}{(',' + inner).join(body)}{newline}]" if body \
            else "[]"
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(
        f"Object of type {type(value).__name__} is not JSON serializable")


def _entry(row, field: str, key: str):
    if not isinstance(row, dict) or key not in row:
        raise ManifestError(f"every {field} entry needs a {key!r} key")
    return row[key]


def _coordinate_rows(patch: FiberedPatch) -> list:
    return [{"name": c.name, "role": c.role, "angle": c.angle}
            for c in patch.coords]


def _pair_rows(tensor, key: str) -> list:
    patch = tensor.patch
    return [{key: [patch.coords[i].name, patch.coords[j].name],
             "coeff": str(c)}
            for (i, j), c in sorted(tensor.items())]


def data_document(data: GeometricData) -> dict:
    """Canonical JSON document for geometric data (fixed key order)."""
    patch = data.patch
    return {
        "coordinates": _coordinate_rows(patch),
        "vertical_bivector": _pair_rows(data.vertical_bivector, "indices"),
        "connection": [
            {"fiber": patch.coords[u].name, "base": patch.coords[a].name,
             "coeff": str(c)}
            for (u, a), c in sorted(data.connection.table.items())],
        "horizontal_2form": _pair_rows(data.horizontal_form, "bases"),
    }


class Manifest:
    """A parsed, validated manifest: patch, data, and optional blocks.

    ``ymh`` is ``(rows of A, momenta J)``; ``ymh_form`` says whether ``A``
    was read as one flat row and ``J`` as one string, so that the block is
    written back in the form it was read in.  Without it, a block with one
    momentum is written in the single form."""

    __slots__ = ("patch", "data", "bivector", "casimirs", "potential",
                 "ymh", "ymh_form", "angles")

    def __init__(self, patch: FiberedPatch, data: GeometricData,
                 *, bivector: Multivector | None = None, casimirs=None,
                 potential: BaseForm | None = None, ymh=None, ymh_form=None,
                 angles=None):
        self.patch = patch
        self.data = data
        self.bivector = bivector
        self.casimirs = casimirs
        self.potential = potential
        self.ymh = ymh
        self.ymh_form = ymh_form
        self.angles = angles

    # -- reading -------------------------------------------------------------
    @classmethod
    def from_document(cls, doc) -> "Manifest":
        if not isinstance(doc, dict):
            raise ManifestError("manifest root must be a JSON object")
        unknown = sorted(set(doc) - set(_KNOWN_KEYS))
        if unknown:
            raise ManifestError(f"unknown manifest keys: {quote(unknown)}")
        patch = cls._read_patch(doc.get("coordinates"))
        V = Multivector(patch, 2, cls._read_pairs(
            patch, doc.get("vertical_bivector"), "vertical_bivector",
            "indices", "fiber"))
        conn = Connection(patch, cls._read_rows(
            patch, doc.get("connection"), "connection", ("fiber", "base")))
        F = BaseForm(patch, 2, cls._read_pairs(
            patch, doc.get("horizontal_2form"), "horizontal_2form",
            "bases", "base"))
        bivector = None
        if "bivector" in doc:
            bivector = Multivector(patch, 2, cls._read_pairs(
                patch, doc["bivector"], "bivector", "indices", None))
        potential = doc.get("potential_1form")
        if potential is not None:
            potential = BaseForm(patch, 1, cls._read_rows(
                patch, potential, "potential_1form", ("base",)))
        ymh, ymh_form = cls._read_ymh(patch, doc.get("ymh"))
        return cls(patch, GeometricData(patch, V, conn, F),
                   bivector=bivector,
                   casimirs=cls._read_exprs(patch, doc.get("casimirs"),
                                            "casimirs"),
                   potential=potential, ymh=ymh, ymh_form=ymh_form,
                   angles=cls._read_angles(doc.get("angles_averaged")))

    @staticmethod
    def _read_patch(rows) -> FiberedPatch:
        if not isinstance(rows, list) or not rows:
            raise ManifestError("manifest needs a non-empty 'coordinates' array")
        base, fiber = [], []
        for row in rows:
            name = _entry(row, "coordinates", "name")
            role = _entry(row, "coordinates", "role")
            angle = row.get("angle", False)
            if not isinstance(name, str) or not isinstance(angle, bool):
                raise ManifestError(f"bad coordinate entry {quote(row)}")
            if role not in ("base", "fiber"):
                raise ManifestError(
                    f"coordinate role must be 'base' or 'fiber', "
                    f"got {quote(role)}")
            (base if role == "base" else fiber).append((name, role, angle))
        return FiberedPatch(Coordinate(*c) for c in base + fiber)

    @staticmethod
    def _parse(patch, text, field: str):
        if not isinstance(text, str):
            raise ManifestError(
                f"{field} coefficients must be expression strings, "
                f"got {quote(text)}")
        try:
            return patch.parse(text)
        except ExpressionError as exc:
            raise ManifestError(
                f"bad {field} expression {quote(text)}: {exc}") from exc

    @staticmethod
    def _resolve(patch, name: str, role, field: str) -> int:
        """The index of a named coordinate, whose role must be ``role``
        unless that is ``None``."""
        i = patch.index(name)
        if role is not None and patch.coords[i].role != role:
            raise ManifestError(
                f"{field} expects {role} coordinates, got {quote(name)}")
        return i

    @classmethod
    def _read_pairs(cls, patch, rows, field, key, role) -> dict:
        """Coefficient table keyed by increasing index pairs, the sign
        folded in, one entry per distinct unordered coordinate pair."""
        if rows is None:
            return {}
        if not isinstance(rows, list):
            raise ManifestError(f"{field!r} must be an array")
        table = {}
        for row in rows:
            pair = _entry(row, field, key)
            if (not isinstance(pair, list) or len(pair) != 2
                    or not all(isinstance(n, str) for n in pair)):
                raise ManifestError(
                    f"{field} {key!r} must list two coordinate names")
            i, j = (cls._resolve(patch, n, role, field) for n in pair)
            if i == j:
                raise ManifestError(
                    f"{field} pair {quote(pair)} is not distinct")
            index = (i, j) if i < j else (j, i)
            if index in table:
                raise ManifestError(f"duplicate {field} pair {quote(pair)}")
            c = cls._parse(patch, row.get("coeff"), field)
            table[index] = c if i < j else -c
        return table

    @classmethod
    def _read_rows(cls, patch, rows, field, roles) -> dict:
        """Coefficient table keyed by the coordinate a row names under each
        key of ``roles``, which is also its role; one entry per key tuple."""
        if rows is None:
            return {}
        if not isinstance(rows, list):
            raise ManifestError(f"{field!r} must be an array")
        table = {}
        for row in rows:
            names = tuple(_entry(row, field, role) for role in roles)
            if not all(isinstance(n, str) for n in names):
                raise ManifestError(
                    f"{field} entries name a {' and a '.join(roles)} "
                    f"coordinate, got {quote(row)}")
            index = tuple(cls._resolve(patch, n, role, field)
                          for n, role in zip(names, roles))
            if index in table:
                raise ManifestError(
                    f"duplicate {field} row {quote(list(names))}")
            table[index] = cls._parse(patch, row.get("coeff"), field)
        return table

    @classmethod
    def _read_exprs(cls, patch, items, field):
        if items is None:
            return None
        if not isinstance(items, list):
            raise ManifestError(f"{field!r} must be an array")
        return tuple(cls._parse(patch, s, field) for s in items)

    @classmethod
    def _read_ymh(cls, patch, block):
        """(rows of A, momenta J) and (A flat, J a string), or two Nones."""
        if block is None:
            return None, None
        if not isinstance(block, dict) or set(block) != {"A", "J"}:
            raise ManifestError("'ymh' must be an object with keys A and J")
        J = block["J"]
        momenta = [J] if isinstance(J, str) else J
        if (not isinstance(momenta, list) or not momenta
                or not all(isinstance(j, str) for j in momenta)):
            raise ManifestError(
                "'ymh' J must be an expression string or an array of them")
        A = block["A"]
        if not isinstance(A, list) or not A:
            raise ManifestError("'ymh' A must be a non-empty array")
        rows = [A] if isinstance(A[0], str) else A
        for row in rows:
            if (not isinstance(row, list)
                    or not all(isinstance(e, str) for e in row)):
                raise ManifestError(
                    "'ymh' A must be an array (or array of arrays) of "
                    "expression strings")
        return ((tuple(tuple(cls._parse(patch, e, "ymh") for e in row)
                       for row in rows),
                 tuple(cls._parse(patch, j, "ymh") for j in momenta)),
                (rows is not A, momenta is not J))

    @staticmethod
    def _read_angles(items):
        if items is None:
            return None
        if (not isinstance(items, list)
                or not all(isinstance(n, str) for n in items)):
            raise ManifestError("'angles_averaged' must be an array of names")
        return tuple(items)

    # -- writing -------------------------------------------------------------
    def to_document(self) -> dict:
        if self.bivector is not None:
            doc = {"coordinates": _coordinate_rows(self.patch),
                   "bivector": _pair_rows(self.bivector, "indices")}
        else:
            doc = data_document(self.data)
        if self.casimirs is not None:
            doc["casimirs"] = [str(c) for c in self.casimirs]
        if self.potential is not None:
            doc["potential_1form"] = [
                {"base": self.patch.coords[a].name, "coeff": str(c)}
                for (a,), c in sorted(self.potential.items())]
        if self.ymh is not None:
            rows, momenta = self.ymh
            flat, single = self.ymh_form or (len(momenta) == 1,) * 2
            A = [[str(e) for e in row] for row in rows]
            J = [str(j) for j in momenta]
            doc["ymh"] = {"A": A[0] if flat else A, "J": J[0] if single else J}
        if self.angles is not None:
            doc["angles_averaged"] = list(self.angles)
        return doc


# -- subcommands ---------------------------------------------------------

def _emit_report(report: CheckReport, args) -> None:
    if args.report == "json":
        sys.stdout.write(dumps(report.as_document()))
        return
    lines = []  # the whole report, so a failure to print writes nothing
    for cond in report.conditions:
        lines.append(f"{cond.name}: {cond.status.upper()}\n")
        lines += [f"  ({','.join(w.indices)}): {w.expression}\n"
                  for w in cond.witnesses]
    sys.stdout.write("".join(lines))


def _cmd_check(man: Manifest, args) -> int:
    report = check_integrability(man.data)
    if man.casimirs is not None:
        extra = check_casimir_complex(man.data, man.casimirs)
        report = CheckReport(report.conditions + extra.conditions)
    _emit_report(report, args)
    return 0 if report.passed else 1


def _cmd_build(man: Manifest, args) -> int:
    rows = [{"kind": kind, "name": name, "vector_field": str(s.vf),
             "one_form": str(s.form)}
            for kind, name, s in build_dirac(man.data).labeled()]
    if args.report == "json":
        sys.stdout.write(dumps({"generators": rows}))
    else:
        for r in rows:
            print(f"{r['kind']} {r['name']}: vf = {r['vector_field']} ; "
                  f"form = {r['one_form']}")
    return 0


def _parse_point(patch: FiberedPatch, text: str) -> dict:
    """Parse a base-point assignment like "x1=1, x2=-1/2"."""
    point = {}
    for chunk in text.replace(",", " ").split():
        name, sep, value = chunk.partition("=")
        if not sep or not value:
            raise ManifestError(
                f"fiber-point entries look like name=value, "
                f"got {quote(chunk)}")
        if name in point:
            raise ManifestError(f"coordinate {quote(name)} assigned twice")
        exponent = _EXPONENT.search(value)
        digits = exponent[1].replace("_", "").lstrip("0") if exponent else ""
        if digits and (len(digits) > len(str(_MAX_EXPONENT))
                       or int(digits) > _MAX_EXPONENT):
            raise ManifestError(
                f"bad fiber-point value {quote(value)}: decimal exponent "
                f"larger in magnitude than {_MAX_EXPONENT}")
        try:
            point[name] = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ManifestError(
                f"bad fiber-point value {quote(value)}: {exc}") from exc
    if set(point) != set(patch.base_names):
        raise ManifestError(
            "the fiber point must assign exactly the base coordinates "
            f"{list(patch.base_names)}")
    return point


def _cmd_verify(man: Manifest, args) -> int:
    at_point = None
    if args.fiber_point is not None:
        at_point = restrict_to_fiber(
            man.data, _parse_point(man.patch, args.fiber_point))
    presentation = build_dirac(man.data)
    conditions = (verify_isotropy(presentation).conditions
                  + verify_closure(presentation).conditions)
    if at_point is not None:
        conditions += (ConditionReport(
            "fiber_jacobi", tensor_witnesses(schouten(at_point, at_point))),)
    report = CheckReport(conditions)
    _emit_report(report, args)
    return 0 if report.passed else 1


def _cmd_construct(man: Manifest, args) -> int:
    patch, V = man.patch, man.data.vertical_bivector
    if args.construct_kind == "yang-mills":
        if man.ymh is None:
            raise ManifestError("construct yang-mills needs a 'ymh' block")
        rows, momenta = man.ymh
        data = yang_mills_data(AbelianYMHSetup(
            patch, V, [list(row) for row in rows], list(momenta)))
    else:
        if man.potential is None:
            raise ManifestError(
                f"construct {args.construct_kind} needs a "
                f"'potential_1form' block")
        setup = CartanSetup(patch, V, man.potential)
        if args.construct_kind == "cartan":
            data = cartan_data(setup)
        else:
            data = chb_data(setup, man.angles or ())
    sys.stdout.write(dumps(data_document(data)))
    return 0


def _cmd_decompose(man: Manifest, args) -> int:
    if man.bivector is None:
        raise ManifestError("decompose needs a 'bivector' block")
    # a manifest holds polynomials, so the decomposition has no pivot: the
    # recovered 2-form F = -M^{-1} and M are polynomial, Pf(F)*Pf(M) = 1
    # makes both Pfaffians constant, and constant pivots are dropped
    result = decompose_coupling(man.bivector, man.patch)
    sys.stdout.write(dumps(data_document(result.data)))
    return 0


_COMMANDS = {"check": _cmd_check, "build": _cmd_build, "verify": _cmd_verify,
             "construct": _cmd_construct, "decompose": _cmd_decompose}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``parse_args``
    leaves it unchanged, and building it costs some twenty parses."""
    parser = argparse.ArgumentParser(
        prog="couplingdirac",
        description="Check, build, and transform coupling-data manifests.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--manifest", required=True,
                       help="path to the JSON manifest")
        p.add_argument("--report", choices=("json", "text"), default="text",
                       help="report format (default: text)")
        return p

    add("check", "run the four integrability conditions")
    add("build", "emit the generating sections of the coupling structure")
    verify = add("verify",
                 "build the generators, then verify isotropy and closure")
    verify.add_argument(
        "--fiber-point", default=None, metavar="ASSIGNMENTS",
        help='base point "x1=1, x2=-1/2" for the restricted Jacobi check')
    construct = add(
        "construct",
        "build data from a named construction and emit its manifest")
    construct.add_argument("--construct-kind", required=True,
                           choices=("yang-mills", "cartan", "chb"))
    add("decompose",
        "split a bivector into data and emit the recovered manifest")
    return parser


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        raw = Path(args.manifest).read_text(encoding="utf-8")
        try:
            doc = json.loads(raw)
        except RecursionError as exc:
            raise ManifestError(
                "manifest JSON is nested too deeply to decode") from exc
        except json.JSONDecodeError:
            raise
        except ValueError as exc:
            raise ManifestError(
                "manifest JSON has an integer literal with more digits than "
                "the interpreter's integer-string limit") from exc
        man = Manifest.from_document(doc)
        return _COMMANDS[args.command](man, args)
    except DegenerateInputError as exc:
        _emit_error(args, 3, exc)
        return 3
    except (ManifestError, MalformedDataError, PatchError, DegreeError,
            ExpressionError, OSError, UnicodeDecodeError,
            json.JSONDecodeError) as exc:
        _emit_error(args, 2, exc)
        return 2


def _emit_error(args, code: int, exc: Exception) -> None:
    if args.report == "json":
        sys.stderr.write(dumps({"error": {"code": code, "message": str(exc)}}))
    else:
        print(f"error: {exc}", file=sys.stderr)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
